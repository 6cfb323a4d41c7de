//! # MNSIM-RS — simulation platform for memristor-based neuromorphic systems
//!
//! This is the facade crate of the MNSIM reproduction. It re-exports the
//! member crates under stable names:
//!
//! * [`obs`] — instrumentation: counters, spans and marks fanned out to
//!   metrics, a Chrome trace and live NDJSON ([`mnsim_obs`]),
//! * [`tech`] — technology & device models ([`mnsim_tech`]),
//! * [`circuit`] — SPICE-class DC circuit simulator ([`mnsim_circuit`]),
//! * [`nn`] — neural-network substrate ([`mnsim_nn`]),
//! * [`core`] — the MNSIM platform itself ([`mnsim_core`]),
//! * [`serve`] — the simulation-as-a-service session server and client
//!   ([`mnsim_serve`]),
//!
//! and gathers the session-level API in [`prelude`]: build a
//! [`Simulator`], set its [`ExecOptions`] once, and run, explore, or
//! validate on the shared worker pool.
//!
//! See the repository `README.md` for a tour and `examples/quickstart.rs`
//! for a complete simulation run.
//!
//! # Examples
//!
//! ```
//! use mnsim::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Simulator::new(Config::fully_connected_mlp(&[128, 128, 128])?)
//!     .threads(2)
//!     .run()?;
//! assert!(report.total_area.square_millimeters() > 0.0);
//! # Ok(())
//! # }
//! ```

pub use mnsim_circuit as circuit;
pub use mnsim_core as core;
pub use mnsim_obs as obs;
pub use mnsim_nn as nn;
pub use mnsim_serve as serve;
pub use mnsim_tech as tech;

pub use mnsim_core::{ExecOptions, Simulator};

/// The session-level API in one import: `use mnsim::prelude::*;`.
///
/// Brings in the [`Simulator`] facade, its configuration and execution
/// types, and the result types its methods return — everything a typical
/// simulation, fault-campaign, design-space-exploration, or validation
/// program needs.
pub mod prelude {
    pub use mnsim_core::cache::{Artifact, ArtifactCache, CacheStats};
    pub use mnsim_core::checkpoint::CheckpointPolicy;
    pub use mnsim_core::config::Config;
    pub use mnsim_core::dse::{Constraints, DesignSpace, DseResult, Objective};
    pub use mnsim_core::error::{ConfigError, CoreError};
    pub use mnsim_core::exec::{CancelToken, Deadline, ExecError, ExecOptions, RunControl};
    pub use mnsim_core::fault_sim::{FaultConfig, FaultSummary};
    pub use mnsim_core::simulate::Report;
    pub use mnsim_core::simulator::{RunHandle, Session, Simulator};
    pub use mnsim_core::validate::ValidationRow;
    pub use mnsim_tech::fault::FaultRates;
}
