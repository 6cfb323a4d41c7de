//! # mnsim-core — the MNSIM simulation platform
//!
//! A behavior-level simulator for memristor-based neuromorphic computing
//! accelerators, reproducing Xia et al., *MNSIM: Simulation Platform for
//! Memristor-based Neuromorphic Computing System* (DATE 2016).
//!
//! The platform follows the paper's structure:
//!
//! * [`config`] — the Table-I configuration (three hierarchy levels),
//! * [`arch`] — Accelerator → Computation Bank → Computation Unit models,
//! * [`modules`] — reference circuit-module performance models (§V),
//! * [`mapping`] — weight-matrix partitioning onto crossbars,
//! * [`accuracy`] — the behavior-level computing-accuracy model (§VI),
//! * [`mod@simulate`] — the end-to-end simulation flow (§IV, Fig. 3),
//! * [`exec`] — the one worker pool ([`ExecOptions`], deterministic
//!   parallel map, cooperative cancellation/deadlines and per-item panic
//!   isolation),
//! * [`checkpoint`] — the checkpointed campaign driver behind fault
//!   campaigns and DSE, with deterministic resume ([`CheckpointPolicy`]),
//! * [`cache`] — the fingerprint-keyed cross-request artifact cache
//!   ([`ArtifactCache`]) behind [`Session`] and `mnsim-serve`,
//! * [`simulator`] — the [`Simulator`] session facade, the one public way
//!   to run fault campaigns, DSE and validation (plus [`simulate()`], the
//!   serial one-configuration shortcut),
//! * [`dse`] — design-space exploration by exhaustive traversal (§VII),
//! * [`netlist_gen`] — SPICE netlist generation for circuit-level
//!   verification,
//! * [`validate`] — the model-vs-circuit validation harness (Tables II/III),
//! * [`custom`] — customized designs: PRIME and ISAAC (Table VII),
//! * [`training`] — on-chip training cost model (paper future work),
//! * [`memory_mode`] — NVSim-style evaluation of the fabric as memory,
//! * [`instruction`] — the basic WRITE/READ/COMPUTE instruction set (§III.D).
//!
//! # Examples
//!
//! ```
//! use mnsim_core::config::Config;
//! use mnsim_core::simulate::simulate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = Config::fully_connected_mlp(&[2048, 1024])?;
//! let report = simulate(&config)?;
//! println!("area: {:.2} mm²", report.total_area.square_millimeters());
//! println!("worst crossbar ε: {:.2} %", report.worst_crossbar_epsilon * 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
// Library code must surface failures as typed errors; tests may unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod accuracy;
pub mod arch;
pub mod cache;
pub mod checkpoint;
pub mod config;
pub mod custom;
pub mod dse;
pub mod error;
pub mod exec;
pub mod fault_sim;
pub mod instruction;
pub mod mapping;
pub mod memory_mode;
pub mod modules;
pub mod netlist_gen;
pub mod perf;
pub mod report;
pub mod simulate;
pub mod simulator;
pub mod training;
pub mod validate;

pub use cache::{Artifact, ArtifactCache, CacheStats};
pub use checkpoint::CheckpointPolicy;
pub use config::{Config, NetworkType, Precision, SignedMapping, WeightPolarity};
pub use error::{ConfigError, CoreError};
pub use exec::{CancelToken, Deadline, ExecError, ExecOptions, RunControl};
pub use fault_sim::{FaultConfig, FaultSummary};
pub use perf::ModulePerf;
pub use simulate::{simulate, Report};
pub use simulator::{RunHandle, Session, Simulator};
