//! Error type for the MNSIM platform.

use std::error::Error;
use std::fmt;

use mnsim_circuit::CircuitError;
use mnsim_nn::NnError;
use mnsim_tech::TechError;

use crate::exec::ExecError;

/// One invalid configuration field, as reported by
/// [`Config::check`](crate::config::Config::check).
///
/// Unlike the stringly [`CoreError::InvalidConfig`] (kept for ad-hoc
/// single-parameter failures), this is a fully typed record: where the
/// violation sits, what was wrong, and what *would* have been accepted —
/// so front ends can render every problem of a configuration at once
/// instead of fixing them one error at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Dotted path of the offending field, using Table I names where they
    /// exist (e.g. `Crossbar_Size`, `Precision.output_bits`).
    pub field_path: String,
    /// What is wrong with the current value.
    pub reason: String,
    /// The accepted range / set of values.
    pub allowed: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} (allowed: {})",
            self.field_path, self.reason, self.allowed
        )
    }
}

impl Error for ConfigError {}

/// Errors produced by configuration, simulation, or exploration.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value is invalid or inconsistent.
    InvalidConfig {
        /// The offending parameter (Table I name where applicable).
        parameter: &'static str,
        /// Description of the constraint that was violated.
        reason: String,
    },
    /// Configuration validation failed; every violation is listed (never
    /// empty), so one round trip surfaces all problems at once.
    Config {
        /// Every invalid field found by
        /// [`Config::check`](crate::config::Config::check).
        errors: Vec<ConfigError>,
    },
    /// A configuration file could not be parsed.
    ConfigParse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// The design space is empty after applying constraints.
    EmptyDesignSpace {
        /// Description of the active constraints.
        constraints: String,
    },
    /// Error propagated from the technology layer.
    Tech(TechError),
    /// Error propagated from the circuit simulator.
    Circuit(CircuitError),
    /// Error propagated from the network substrate.
    Nn(NnError),
    /// A campaign was cancelled before completing every item (via
    /// [`CancelToken`](crate::exec::CancelToken)).
    Cancelled {
        /// Items that ran to completion before the cut.
        completed: usize,
        /// Items requested.
        total: usize,
        /// Path of the checkpoint holding the completed work, if one was
        /// written — resume from it to finish the run bit-identically.
        checkpoint: Option<String>,
    },
    /// A campaign's deadline (via
    /// [`Deadline`](crate::exec::Deadline)) expired before completing
    /// every item.
    DeadlineExceeded {
        /// Items that ran to completion before the cut.
        completed: usize,
        /// Items requested.
        total: usize,
        /// Path of the checkpoint holding the completed work, if one was
        /// written.
        checkpoint: Option<String>,
    },
    /// A worker closure panicked on one item; sibling items were
    /// evaluated and their results preserved up to the failure.
    WorkerPanic {
        /// The item index whose worker panicked.
        index: usize,
        /// The stringified panic payload.
        payload: String,
    },
    /// A checkpoint file could not be read, parsed, or written, or does
    /// not belong to the campaign being resumed.
    Checkpoint {
        /// The checkpoint file path.
        path: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration `{parameter}`: {reason}")
            }
            CoreError::Config { errors } => {
                write!(
                    f,
                    "invalid configuration ({} violation{}): ",
                    errors.len(),
                    if errors.len() == 1 { "" } else { "s" }
                )?;
                for (i, error) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{error}")?;
                }
                Ok(())
            }
            CoreError::ConfigParse { line, reason } => {
                write!(f, "configuration parse error at line {line}: {reason}")
            }
            CoreError::EmptyDesignSpace { constraints } => {
                write!(f, "no design satisfies the constraints: {constraints}")
            }
            CoreError::Tech(e) => write!(f, "technology model: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit simulation: {e}"),
            CoreError::Nn(e) => write!(f, "network substrate: {e}"),
            CoreError::Cancelled {
                completed,
                total,
                checkpoint,
            } => {
                write!(f, "campaign cancelled after {completed}/{total} items")?;
                if let Some(path) = checkpoint {
                    write!(f, " (checkpoint: {path})")?;
                }
                Ok(())
            }
            CoreError::DeadlineExceeded {
                completed,
                total,
                checkpoint,
            } => {
                write!(f, "deadline exceeded after {completed}/{total} items")?;
                if let Some(path) = checkpoint {
                    write!(f, " (checkpoint: {path})")?;
                }
                Ok(())
            }
            CoreError::WorkerPanic { index, payload } => {
                write!(f, "worker panicked on item {index}: {payload}")
            }
            CoreError::Checkpoint { path, reason } => {
                write!(f, "checkpoint `{path}`: {reason}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Tech(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            CoreError::Nn(e) => Some(e),
            // The violation list is never empty; the chain surfaces the
            // first record (all of them are in the Display output).
            CoreError::Config { errors } => errors.first().map(|e| e as _),
            _ => None,
        }
    }
}

impl ExecError<CoreError> {
    /// The one mapping of a worker-pool failure onto [`CoreError`]: an
    /// item's own error passes through, a panic becomes
    /// [`CoreError::WorkerPanic`], and an interrupt carries `checkpoint`,
    /// the file the interrupted campaign left behind (if any).
    pub(crate) fn into_core(self, checkpoint: Option<String>) -> CoreError {
        match self {
            ExecError::Item { error, .. } => error,
            ExecError::WorkerPanic { index, payload } => CoreError::WorkerPanic { index, payload },
            ExecError::Cancelled { completed, total } => CoreError::Cancelled {
                completed,
                total,
                checkpoint,
            },
            ExecError::DeadlineExceeded { completed, total } => CoreError::DeadlineExceeded {
                completed,
                total,
                checkpoint,
            },
        }
    }
}

impl From<TechError> for CoreError {
    fn from(e: TechError) -> Self {
        CoreError::Tech(e)
    }
}

impl From<Vec<ConfigError>> for CoreError {
    /// Lossless mapping of a [`Config::check`](crate::config::Config::check)
    /// violation list into the error enum.
    fn from(errors: Vec<ConfigError>) -> Self {
        CoreError::Config { errors }
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}

impl From<NnError> for CoreError {
    fn from(e: NnError) -> Self {
        CoreError::Nn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::InvalidConfig {
            parameter: "Crossbar_Size",
            reason: "must be a power of two".into(),
        };
        assert!(e.to_string().contains("Crossbar_Size"));

        let e: CoreError = TechError::UnknownNode {
            nanometers: 12,
            database: "cmos",
        }
        .into();
        assert!(Error::source(&e).is_some());
        assert!(e.to_string().contains("12 nm"));
    }

    #[test]
    fn config_error_lists_every_violation() {
        let errors = vec![
            ConfigError {
                field_path: "Crossbar_Size".into(),
                reason: "100 is not a power of two".into(),
                allowed: "a power of two in 4..=1024".into(),
            },
            ConfigError {
                field_path: "Pooling_Size".into(),
                reason: "must be positive".into(),
                allowed: ">= 1".into(),
            },
        ];
        let e: CoreError = errors.into();
        let text = e.to_string();
        assert!(text.contains("2 violations"), "{text}");
        assert!(text.contains("Crossbar_Size") && text.contains("Pooling_Size"), "{text}");
        assert!(text.contains("allowed: a power of two in 4..=1024"), "{text}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
