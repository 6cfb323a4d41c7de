//! Error types for the circuit simulator.

use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a circuit.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// The nodal matrix is singular — typically a floating node or a loop of
    /// ideal voltage sources.
    SingularSystem {
        /// Row/unknown index at which the factorization broke down.
        at: usize,
    },
    /// The Newton loop (chord and Newton steps) did not converge.
    NewtonNoConvergence {
        /// Steps performed, chord or Newton: the whole budget.
        iterations: usize,
        /// Largest node-voltage update of the last kept step, in volts (of
        /// the undone chord step when none was kept; NaN when no step ran).
        last_update: f64,
    },
    /// A referenced node does not exist in the circuit.
    UnknownNode {
        /// The offending node id.
        node: usize,
    },
    /// An element value is physically invalid (e.g. non-positive resistance).
    InvalidElement {
        /// Description of the problem.
        reason: String,
    },
    /// Dimension mismatch between inputs and the circuit.
    DimensionMismatch {
        /// What was expected.
        expected: usize,
        /// What was provided.
        actual: usize,
        /// What quantity was being matched.
        what: &'static str,
    },
    /// A netlist could not be parsed.
    NetlistParse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A DC solve produced NaN or infinite node voltages or branch
    /// currents — numerically meaningless output that must not be used.
    NonFiniteSolution,
    /// A refactorization was handed a matrix whose sparsity pattern is not
    /// the one its symbolic analysis was computed for.
    PatternMismatch,
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::SingularSystem { at } => {
                write!(f, "singular nodal system (pivot breakdown at unknown {at}); check for floating nodes")
            }
            CircuitError::NewtonNoConvergence {
                iterations,
                last_update,
            } => write!(
                f,
                "newton iteration did not converge after {iterations} steps (last voltage update {last_update:.3e} V)"
            ),
            CircuitError::UnknownNode { node } => write!(f, "unknown circuit node {node}"),
            CircuitError::InvalidElement { reason } => write!(f, "invalid element: {reason}"),
            CircuitError::DimensionMismatch {
                expected,
                actual,
                what,
            } => write!(f, "{what}: expected {expected}, got {actual}"),
            CircuitError::NetlistParse { line, reason } => {
                write!(f, "netlist parse error at line {line}: {reason}")
            }
            CircuitError::NonFiniteSolution => {
                write!(f, "the DC solve produced non-finite voltages or currents")
            }
            CircuitError::PatternMismatch => write!(
                f,
                "sparsity pattern differs from the analyzed one; analyze the new pattern first"
            ),
        }
    }
}

impl Error for CircuitError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CircuitError::SingularSystem { at: 7 };
        assert!(e.to_string().contains("unknown 7"));
        let e = CircuitError::NetlistParse {
            line: 3,
            reason: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
