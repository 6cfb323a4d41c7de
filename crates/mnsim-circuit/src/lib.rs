//! # mnsim-circuit — SPICE-class DC circuit simulator
//!
//! This crate is the *circuit-level baseline* of the MNSIM reproduction: the
//! role HSPICE plays in the original paper. It provides
//!
//! * [`sparse`] — triplet assembly and CSC sparse matrices,
//! * [`dense`] — dense LU with partial pivoting, the tests' independent
//!   reference (no solve path uses it),
//! * [`mna`] — circuit representation (resistors, sources, memristors) and
//!   the KCL residual of a solution ([`kcl_residual`]),
//! * [`solve`] — the one solver handle, [`Solver`]: DC operating points
//!   with chord Newton for non-linear memristor cells, batches of reads
//!   solved in lockstep on one factor ([`Rhs`]) and transients, on one
//!   sparse workspace that refactors only when the values change and
//!   re-maps only when the structure does. Voltage sources are eliminated
//!   by node merging (floating ones into supernodes), so every circuit
//!   solves on one engine, and every solution is screened for NaN/∞,
//! * [`ldl`] — sparse LDLᵀ direct solver for the symmetric positive-definite
//!   reduced systems (AMD ordering, elimination tree, then an up-looking or,
//!   where the fill is dense, a supernodal multifrontal numeric
//!   factorization) with a cached symbolic analysis, which the circuits of
//!   one workload can share ([`ldl::SharedAnalyses`]), and a numeric-only
//!   `refactor()` for same-pattern value updates,
//! * [`crossbar`] — memristor-crossbar netlist construction matching the
//!   paper's resistor-network model (cells + `2MN` wire segments + sensing
//!   resistors), with optional hard-defect overlays (stuck cells, broken
//!   lines),
//! * [`transient`] — backward-Euler transient analysis (RC settling),
//! * [`netlist`] — SPICE netlist export/import.
//!
//! The accuracy experiments of the paper (Fig. 5, Table II) compare the
//! behavior-level model in `mnsim-core` against exactly these circuit
//! solutions, and the speed-up experiment (Table III) times this solver
//! against the behavior-level estimation.
//!
//! # Examples
//!
//! ```
//! use mnsim_circuit::crossbar::CrossbarSpec;
//! use mnsim_circuit::solve::solve_dc;
//! use mnsim_tech::units::{Resistance, Voltage};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CrossbarSpec::uniform(
//!     8, 8,
//!     Resistance::from_kilo_ohms(10.0), // cell state
//!     Resistance::from_ohms(2.0),       // wire segment
//!     Resistance::from_ohms(500.0),     // sense resistor
//!     Voltage::from_volts(1.0),         // inputs
//! );
//! let xbar = spec.build()?;
//! let solution = solve_dc(xbar.circuit())?;
//! let outputs = xbar.output_voltages(&solution);
//! assert_eq!(outputs.len(), 8);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod crossbar;
pub mod dense;
pub mod error;
pub mod ldl;
pub mod mna;
pub mod netlist;
pub mod solve;
pub mod sparse;
pub mod transient;

pub use crossbar::{CrossbarCircuit, CrossbarSpec, FaultOverlay};
pub use error::CircuitError;
pub use ldl::{analyze, SharedAnalyses, SparseLdl, SymbolicAnalysis};
pub use mna::{kcl_residual, Circuit, DcSolution, Element};
pub use solve::{solve_dc, Rhs, Solver};
pub use transient::{solve_transient, TransientOptions, TransientResult};
