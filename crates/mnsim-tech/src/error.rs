//! Error types for the technology layer.

use std::error::Error;
use std::fmt;

/// Errors produced when querying or constructing technology models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TechError {
    /// A technology node that is not in the database was requested.
    UnknownNode {
        /// The requested feature size in nanometres.
        nanometers: u32,
        /// Which database was queried ("cmos" or "interconnect").
        database: &'static str,
    },
    /// A device parameter was out of its physical range.
    InvalidDeviceParameter {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// Human-readable description of the constraint that was violated.
        reason: String,
    },
    /// A serialized fault map could not be parsed.
    FaultMapParse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for TechError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TechError::UnknownNode {
                nanometers,
                database,
            } => write!(
                f,
                "unknown {database} technology node: {nanometers} nm is not in the database"
            ),
            TechError::InvalidDeviceParameter { parameter, reason } => {
                write!(f, "invalid device parameter `{parameter}`: {reason}")
            }
            TechError::FaultMapParse { line, reason } => {
                write!(f, "fault map parse error at line {line}: {reason}")
            }
        }
    }
}

impl Error for TechError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = TechError::UnknownNode {
            nanometers: 7,
            database: "cmos",
        };
        assert!(e.to_string().contains("7 nm"));
        let e = TechError::InvalidDeviceParameter {
            parameter: "r_min",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("r_min"));
        let e = TechError::FaultMapParse {
            line: 4,
            reason: "bad directive".into(),
        };
        assert!(e.to_string().contains("line 4"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechError>();
    }
}
