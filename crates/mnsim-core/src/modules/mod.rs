//! Reference circuit-module performance models (paper §V).
//!
//! Every function here returns a [`crate::perf::ModulePerf`] — the
//! area/latency/energy/leakage record the hierarchical aggregation
//! consumes. Modules:
//!
//! * [`crossbar`] — the memristor array (area Eqs. 7-8, average-case power,
//!   RC settling),
//! * [`decoder`] — memory- and computation-oriented decoders (Fig. 4),
//! * `converters` — DAC / ADC / multilevel-SA wrappers,
//! * `digital` — adders, adder trees, shifters, MUXes, registers,
//!   controllers,
//! * `neuron` — sigmoid / ReLU / integrate-and-fire neuron circuits,
//! * `pooling` — pooling comparator tree and line buffers (Eq. 6),
//! * `interface` — accelerator I/O interfaces.
//!
//! Every model is a pure function of its arguments (no globals, no
//! interior mutability), so the parallel bank evaluation in
//! [`crate::exec`]-driven pipelines calls them concurrently from worker
//! threads without synchronization; higher levels keep results
//! bit-identical by reducing the returned records in canonical order
//! (the left-to-right `Sum` of [`crate::perf::ModulePerf`]).

pub(crate) mod converters;
pub mod crossbar;
pub mod decoder;
pub(crate) mod digital;
pub(crate) mod interface;
pub(crate) mod link;
pub(crate) mod neuron;
pub(crate) mod pooling;
