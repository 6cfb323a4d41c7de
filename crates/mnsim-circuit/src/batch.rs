//! Batched multi-RHS DC solving with factorization caching.
//!
//! The crossbar workloads in `mnsim-core` solve the *same* conductance
//! network over and over with only the input-driven voltages changing:
//! SPICE validation sweeps many input vectors per weight matrix, fault
//! Monte-Carlo evaluates each defective crossbar under several reads, and a
//! neural-network forward pass pushes a whole batch of activations through
//! one mapped layer. [`solve_dc`](crate::solve::solve_dc) re-classifies the
//! sources, re-assembles the nodal matrix, and factors it again for every
//! one of those inputs.
//!
//! [`PreparedSystem`] lifts everything that depends only on the conductance
//! structure out of the per-input path:
//!
//! * the source binding and node → unknown numbering,
//! * the assembled reduced (or full-MNA) matrix,
//! * its factorization: the sparse LDLᵀ workspace for grounded sources,
//!   the dense full-MNA LU for floating ones,
//! * and a replayable right-hand-side plan, so each new input vector only
//!   costs an `O(nnz)` stamp replay and its share of a backsolve.
//!
//! The reads of a batch are solved in blocks of up to eight. A block's
//! reads of a grounded-source system run the chord-Newton loop of
//! [`solve_dc`](crate::solve::solve_dc) in lockstep (see the
//! [`solve`](crate::solve) module docs): one backsolve per sweep carries
//! every read still stepping, each as one column. A linear circuit takes
//! one sweep, the direct solve. A non-linear one first refills the
//! low-field matrix of the block, once, and refactors only if the held
//! factor is not already that matrix: after a value overlay, or after a
//! read that left the block refactored at its Jacobian. Every read is
//! bit-identical to a one-shot [`solve_dc`](crate::solve::solve_dc) of the
//! re-driven circuit, whatever the prepared system solved before.
//! Floating sources solve one read at a time on full MNA.
//!
//! **Soundness.** Reuse is only valid while the conductances are unchanged.
//! A prepared system fingerprints the circuit it was built from (element
//! kinds, nodes, and conductance bit patterns — voltage-source *values* are
//! deliberately excluded because the batch overrides them) and refuses to
//! solve a circuit whose fingerprint differs with
//! [`CircuitError::StalePreparedSystem`]. Fault overlays and variation
//! resamples therefore cannot silently reuse a stale factorization; use
//! [`prepare_or_reuse`] to rebuild on change.

use mnsim_obs as obs;
use mnsim_tech::units::Voltage;

use crate::error::CircuitError;
use crate::ldl::BLOCK_COLUMNS;
use crate::mna::{Circuit, DcSolution, Element};
use crate::solve::{
    finish, linearize, linearize_into, solve_full_mna, solve_reads, FullMna, Linearized,
    SolveOptions, Sources, SparseWorkspace, ASSEMBLE_SPAN,
};
use crate::sparse::TripletMatrix;

static BATCH_BUILDS: obs::Counter = obs::Counter::new("circuit.batch.prepared_builds");
static BATCH_CALLS: obs::Counter = obs::Counter::new("circuit.batch.calls");
static BATCH_SOLVES: obs::Counter = obs::Counter::new("circuit.batch.solves");
static BATCH_DENSE: obs::Counter = obs::Counter::new("circuit.batch.dense_backsolves");
static BATCH_STALE: obs::Counter = obs::Counter::new("circuit.batch.stale_rejections");
/// Reads of a non-linear circuit, each a chord-Newton solve rather than
/// one direct backsolve.
static BATCH_FALLBACKS: obs::Counter = obs::Counter::new("circuit.batch.nonlinear_fallbacks");
static CACHE_HITS: obs::Counter = obs::Counter::new("circuit.batch.cache_hits");
static CACHE_INVALIDATIONS: obs::Counter = obs::Counter::new("circuit.batch.invalidations");
/// First-time builds through [`prepare_or_reuse`] (empty slot, not a
/// stale one) — the denominator of the reuse ratio alongside hits and
/// invalidations.
static CACHE_COLD_BUILDS: obs::Counter = obs::Counter::new("circuit.batch.cache_cold_builds");
/// `hits / (hits + invalidations + cold builds)` across every
/// [`prepare_or_reuse`] call so far — how often the cached
/// [`PreparedSystem`] was actually reusable.
static BATCH_REUSE_RATIO: obs::Gauge = obs::Gauge::new("circuit.batch.reuse_ratio");
/// Reads of a linear grounded-source system answered by a backsolve on
/// its held factor.
static BATCH_SPARSE: obs::Counter = obs::Counter::new("circuit.batch.sparse_backsolves");
/// Value-only refreshes through [`prepare_or_reuse`]: the cached sparse
/// factorization was refactored in place instead of rebuilding the whole
/// prepared system.
static VALUE_REFRESHES: obs::Counter = obs::Counter::new("circuit.batch.value_refreshes");
static BUILD_SPAN: obs::Span = obs::Span::new("circuit.batch.build", obs::Level::Stage);
static SOLVE_SPAN: obs::Span = obs::Span::new("circuit.batch.solve", obs::Level::Stage);

/// One right-hand side of a batch: the voltage of every ideal source, in
/// element insertion order.
#[derive(Debug, Clone, PartialEq)]
pub struct Rhs {
    volts: Vec<f64>,
}

impl Rhs {
    /// Builds an RHS from typed source voltages.
    pub fn from_voltages(voltages: &[Voltage]) -> Self {
        Rhs {
            volts: voltages.iter().map(|v| v.volts()).collect(),
        }
    }

    /// Builds an RHS from raw volt values.
    pub fn from_volts(volts: &[f64]) -> Self {
        Rhs {
            volts: volts.to_vec(),
        }
    }

    /// The source voltages in volts, in element insertion order.
    pub fn volts(&self) -> &[f64] {
        &self.volts
    }
}

/// Which concrete engine a [`PreparedSystem`] ended up with, for tests and
/// diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Reduced system with a cached sparse LDLᵀ ([`crate::ldl`]).
    SparseDirect,
    /// Reduced system with zero unknowns.
    Empty,
    /// Full modified nodal analysis (floating sources), cached dense LU.
    FullMna,
    /// Non-linear circuit: chord Newton per read, the reads of a block in
    /// lockstep on one cached sparse factorization.
    Nonlinear,
}

#[derive(Debug, Clone)]
enum SystemKind {
    /// All sources grounded: the reduced SPD system on the sparse LDLᵀ
    /// workspace, whose assembly buffers hold the node → unknown numbering
    /// and the right-hand-side plan. A linear circuit's factor is built
    /// with the system and refactored in place by a value refresh; a
    /// non-linear circuit's low-field factor is refilled per block of
    /// reads. A system without unknowns holds no factor.
    Reduced { workspace: SparseWorkspace },
    /// Floating sources on a linear circuit: cached full-MNA LU.
    FullMna(FullMna),
    /// Floating sources on a non-linear circuit: a Newton solve per read
    /// on full MNA, which holds no factor from one step to the next.
    FullMnaNewton,
}

/// A DC system prepared once per conductance structure, able to solve many
/// right-hand sides cheaply. See the [module docs](crate::batch) for the
/// reuse contract.
#[derive(Debug, Clone)]
pub struct PreparedSystem {
    fingerprint: u64,
    /// Structure-only fingerprint (element kinds and nodes, no values):
    /// when this still matches but the full fingerprint does not, only
    /// conductance/current *values* changed and the sparse engine can be
    /// refreshed in place instead of rebuilt.
    structure_fingerprint: u64,
    node_count: usize,
    options: SolveOptions,
    nonlinear: bool,
    sources: Sources,
    /// The low-field linearization: for a linear circuit the only one.
    lin: Vec<Option<Linearized>>,
    kind: SystemKind,
}

impl PreparedSystem {
    /// Builds a prepared system from a circuit.
    ///
    /// All structure-dependent work happens here: source binding, unknown
    /// numbering, matrix assembly and, for a linear circuit, the
    /// factorization — which also means a singular linear system is
    /// reported at build time rather than on the first solve.
    ///
    /// # Errors
    ///
    /// Propagates [`CircuitError::SingularSystem`] from the factorization.
    pub fn build(circuit: &Circuit, options: SolveOptions) -> Result<Self, CircuitError> {
        let _span = BUILD_SPAN.enter();
        BATCH_BUILDS.inc();
        let sources = Sources::of(circuit);
        let nonlinear = circuit.is_nonlinear();
        let lin = linearize(circuit, None);
        let kind = match (sources.all_grounded(), nonlinear) {
            (true, _) => {
                let mut workspace = SparseWorkspace::default();
                if !nonlinear {
                    workspace.refill(circuit, &lin, &sources.is_driven)?;
                    // The stamps only feed the factor, and a value refresh
                    // refills them: do not hold a large system's triplets
                    // between reads.
                    workspace.system.stamps = TripletMatrix::default();
                }
                SystemKind::Reduced { workspace }
            }
            (false, false) => SystemKind::FullMna(FullMna::build(circuit, &lin)?),
            (false, true) => SystemKind::FullMnaNewton,
        };

        Ok(PreparedSystem {
            fingerprint: circuit_fingerprint(circuit),
            structure_fingerprint: circuit_structure_fingerprint(circuit),
            node_count: circuit.node_count(),
            options,
            nonlinear,
            sources,
            lin,
            kind,
        })
    }

    /// The fingerprint of the circuit this system was prepared from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of voltage sources, i.e. the required [`Rhs`] arity.
    pub fn rhs_len(&self) -> usize {
        self.sources.len()
    }

    /// Rough resident size of this prepared system in bytes — dominated
    /// by the cached factorization (the sparse workspace, including a
    /// non-linear system's factor once it has solved: the factor
    /// non-zeros, the analyzed pattern, the stamp slot map and the
    /// assembly buffers; full MNA: `n²` doubles). An estimate, not an
    /// allocator truth.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>();
        bytes += self.lin.len() * 48 + self.node_count + self.sources.len() * 24;
        bytes += match &self.kind {
            SystemKind::Reduced { workspace } => workspace.approx_bytes(),
            SystemKind::FullMna(system) => system.approx_bytes(),
            SystemKind::FullMnaNewton => 0,
        };
        bytes
    }

    /// The options the system was built with.
    pub fn options(&self) -> &SolveOptions {
        &self.options
    }

    /// `true` when `circuit` still matches the prepared structure (same
    /// fingerprint), i.e. solving it through this system is sound.
    pub fn matches(&self, circuit: &Circuit) -> bool {
        circuit_fingerprint(circuit) == self.fingerprint
    }

    /// `true` when `circuit` has the same element *structure* (kinds and
    /// nodes) even if conductance/current values differ — the precondition
    /// for an in-place value refresh of the sparse engine.
    pub fn matches_structure(&self, circuit: &Circuit) -> bool {
        circuit_structure_fingerprint(circuit) == self.structure_fingerprint
    }

    /// The concrete engine this system dispatches to.
    pub fn engine_kind(&self) -> EngineKind {
        match &self.kind {
            _ if self.nonlinear => EngineKind::Nonlinear,
            SystemKind::Reduced { workspace } if workspace.system.unknowns == 0 => {
                EngineKind::Empty
            }
            SystemKind::Reduced { .. } => EngineKind::SparseDirect,
            SystemKind::FullMna(_) | SystemKind::FullMnaNewton => EngineKind::FullMna,
        }
    }

    /// Attempts to update this system in place for a circuit whose element
    /// *values* changed but whose structure did not (a fault overlay or
    /// variation resample). Reduced and non-linear systems support this.
    /// A linear reduced system re-stamps the circuit into its workspace's
    /// assembly buffers and scatters the new values through its cached
    /// slot map into its cached analysis, then refactors, which is much
    /// cheaper than a full rebuild. A non-linear system keeps its
    /// workspace, whose next block of reads refills the low-field matrix
    /// for the new values and refactors the held analysis.
    ///
    /// Returns `Ok(true)` when the refresh succeeded (the system now solves
    /// the new circuit), `Ok(false)` when this engine or structure cannot be
    /// refreshed and the caller should rebuild.
    ///
    /// # Errors
    ///
    /// Propagates factorization failures (e.g. the new values made the
    /// matrix singular); the system must then be rebuilt.
    pub fn try_value_refresh(&mut self, circuit: &Circuit) -> Result<bool, CircuitError> {
        // A node count that differs means the fingerprint missed a
        // structural change, so refuse the fast path rather than risk a
        // wrong refresh.
        if !self.matches_structure(circuit) || circuit.node_count() != self.node_count {
            return Ok(false);
        }
        match &mut self.kind {
            // The structure fingerprint covers the memristor I-V kinds, so
            // the circuit is non-linear too; every block assembles its
            // values afresh and nothing but the fingerprint is stale.
            _ if self.nonlinear => {}
            SystemKind::Reduced { workspace } => {
                // Refill the held linearization and the workspace's
                // assembly buffers in place: the same stamps in the same
                // order as a fresh build.
                linearize_into(&mut self.lin, circuit, None);
                let assemble = ASSEMBLE_SPAN.enter();
                workspace.refill(circuit, &self.lin, &self.sources.is_driven)?;
                drop(assemble);
            }
            SystemKind::FullMna(_) | SystemKind::FullMnaNewton => return Ok(false),
        }
        self.fingerprint = circuit_fingerprint(circuit);
        VALUE_REFRESHES.inc();
        Ok(true)
    }

    /// Solves a single right-hand side. Equivalent to a one-element
    /// [`Self::solve_batch`].
    ///
    /// # Errors
    ///
    /// Same as [`Self::solve_batch`].
    pub fn solve(&mut self, circuit: &Circuit, rhs: &Rhs) -> Result<DcSolution, CircuitError> {
        let mut solutions = self.solve_batch(circuit, std::slice::from_ref(rhs))?;
        solutions.pop().ok_or(CircuitError::DimensionMismatch {
            expected: 1,
            actual: 0,
            what: "batch solution count",
        })
    }

    /// Solves every right-hand side of `batch` against `circuit`, reusing
    /// the cached structure, in blocks of up to eight reads (see the
    /// [module docs](crate::batch)).
    ///
    /// `circuit` must be the circuit the system was prepared from (or a
    /// [`Circuit::with_source_voltages`] re-drive of it); it is used for
    /// fingerprint verification and branch-current extraction.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::StalePreparedSystem`] when the conductance
    ///   structure changed since [`PreparedSystem::build`].
    /// * [`CircuitError::DimensionMismatch`] for wrong RHS arity.
    /// * [`CircuitError::InvalidElement`] when one node is driven to two
    ///   different voltages by the same RHS.
    /// * Solver failures propagated from LU / LDLᵀ / Newton.
    ///
    /// A failing read returns its error, that of the first in batch order;
    /// the blocks after its own are not solved.
    pub fn solve_batch(
        &mut self,
        circuit: &Circuit,
        batch: &[Rhs],
    ) -> Result<Vec<DcSolution>, CircuitError> {
        let _span = SOLVE_SPAN.enter();
        let actual = circuit_fingerprint(circuit);
        if actual != self.fingerprint {
            BATCH_STALE.inc();
            return Err(CircuitError::StalePreparedSystem {
                expected: self.fingerprint,
                actual,
            });
        }
        BATCH_CALLS.inc();
        for rhs in batch {
            if rhs.volts.len() != self.sources.len() {
                return Err(CircuitError::DimensionMismatch {
                    expected: self.sources.len(),
                    actual: rhs.volts.len(),
                    what: "rhs source-voltage count",
                });
            }
        }

        let mut solutions = Vec::with_capacity(batch.len());
        for block in batch.chunks(BLOCK_COLUMNS) {
            BATCH_SOLVES.add(block.len() as u64);
            for outcome in self.solve_block(circuit, block) {
                solutions.push(outcome?);
            }
        }
        Ok(solutions)
    }

    /// Solves one block of reads; one outcome per read, in order.
    fn solve_block(
        &mut self,
        circuit: &Circuit,
        block: &[Rhs],
    ) -> Vec<Result<DcSolution, CircuitError>> {
        let drives = block.iter().map(|rhs| self.sources.drive(&rhs.volts));
        if self.nonlinear {
            BATCH_FALLBACKS.add(block.len() as u64);
            // The one low-field linearization of the block.
            linearize_into(&mut self.lin, circuit, None);
        }
        match &mut self.kind {
            SystemKind::Reduced { workspace } => {
                let drives: Vec<_> = drives.collect();
                if self.nonlinear {
                    // Start the block on the low-field factor.
                    let assemble = ASSEMBLE_SPAN.enter();
                    let refilled = workspace.refill(circuit, &self.lin, &self.sources.is_driven);
                    drop(assemble);
                    if let Err(e) = refilled {
                        return drives
                            .into_iter()
                            .map(|drive| drive.and(Err(e.clone())))
                            .collect();
                    }
                } else if workspace.system.unknowns > 0 {
                    BATCH_SPARSE.add(block.len() as u64);
                }
                solve_reads(
                    circuit,
                    &self.lin,
                    &self.sources.is_driven,
                    drives,
                    &self.options,
                    workspace,
                )
            }
            SystemKind::FullMna(system) => drives
                .zip(block)
                .map(|(drive, rhs)| {
                    drive?;
                    BATCH_DENSE.inc();
                    finish(circuit, &self.lin, system.solve(&rhs.volts)?)
                })
                .collect(),
            SystemKind::FullMnaNewton => drives
                .zip(block)
                .map(|(drive, rhs)| {
                    drive?;
                    solve_full_mna(circuit, self.lin.clone(), &rhs.volts, &self.options)
                })
                .collect(),
        }
    }
}

/// Solves every RHS of `batch` through `prepared`, in order.
///
/// Free-function form of [`PreparedSystem::solve_batch`]; see there for the
/// contract and error conditions.
///
/// # Errors
///
/// Same as [`PreparedSystem::solve_batch`].
pub fn solve_dc_batch(
    prepared: &mut PreparedSystem,
    circuit: &Circuit,
    batch: &[Rhs],
) -> Result<Vec<DcSolution>, CircuitError> {
    prepared.solve_batch(circuit, batch)
}

/// Reuses `slot`'s prepared system when it still matches `circuit` (same
/// fingerprint and options); refreshes the cached sparse factorization in
/// place when only element *values* changed; rebuilds otherwise.
///
/// This is the invalidation idiom for call sites whose conductances change
/// between batches (fault overlays, variation resamples): a value-only
/// change on the sparse-direct engine or a non-linear system keeps the
/// cached analysis and refactors in place
/// ([`PreparedSystem::try_value_refresh`] — the `solver.klu.refactor` fast
/// path), and anything else drops the stale system and rebuilds.
///
/// # Errors
///
/// Propagates [`PreparedSystem::build`] and refresh failures; a system whose
/// refresh failed is dropped from the slot.
pub fn prepare_or_reuse<'a>(
    slot: &'a mut Option<PreparedSystem>,
    circuit: &Circuit,
    options: &SolveOptions,
) -> Result<&'a mut PreparedSystem, CircuitError> {
    let rebuild = match slot.as_mut() {
        Some(prepared) => {
            let reusable = prepared.options() == options
                && (prepared.matches(circuit)
                    || prepared
                        .try_value_refresh(circuit)
                        .inspect_err(|_| *slot = None)?);
            if reusable {
                CACHE_HITS.inc();
                false
            } else {
                CACHE_INVALIDATIONS.inc();
                true
            }
        }
        None => {
            CACHE_COLD_BUILDS.inc();
            true
        }
    };
    if obs::enabled() {
        let hits = CACHE_HITS.get() as f64;
        let misses = (CACHE_INVALIDATIONS.get() + CACHE_COLD_BUILDS.get()) as f64;
        if hits + misses > 0.0 {
            BATCH_REUSE_RATIO.set(hits / (hits + misses));
        }
    }
    if rebuild {
        *slot = Some(PreparedSystem::build(circuit, options.clone())?);
    }
    match slot.as_mut() {
        Some(prepared) => Ok(prepared),
        // Unreachable: the slot was just filled above.
        None => Err(CircuitError::InvalidElement {
            reason: "prepared-system slot unexpectedly empty".into(),
        }),
    }
}

/// FNV-1a over the conductance-relevant structure of a circuit.
///
/// Voltage-source *values* are excluded (the batch overrides them); every
/// other element field — including current-source values, which feed the
/// cached static RHS terms — participates, so any change that would
/// invalidate the cached assembly changes the fingerprint.
pub fn circuit_fingerprint(circuit: &Circuit) -> u64 {
    fingerprint(circuit, true)
}

/// FNV-1a over element kinds and node connections only — no conductance,
/// current, or capacitance *values*. Two circuits with equal structure
/// fingerprints assemble reduced systems with identical sparsity patterns,
/// which is the precondition for refreshing a cached sparse factorization
/// in place instead of rebuilding it.
pub fn circuit_structure_fingerprint(circuit: &Circuit) -> u64 {
    fingerprint(circuit, false)
}

/// The one walk behind both fingerprints: every element's kind tag and
/// nodes, then its value bits when `values` is set. The memristor I-V
/// *kind* is structural (switching linear ↔ sinh changes the solve
/// strategy), its `alpha` a value.
fn fingerprint(circuit: &Circuit, values: bool) -> u64 {
    let mut h = obs::Fnv64::new();
    h.word(circuit.node_count() as u64)
        .word(circuit.element_count() as u64);
    let value = |h: &mut obs::Fnv64, x: f64| {
        if values {
            h.word(x.to_bits());
        }
    };
    for element in circuit.elements() {
        match element {
            Element::Resistor { n1, n2, resistance } => {
                h.word(1).word(*n1 as u64).word(*n2 as u64);
                value(&mut h, resistance.ohms());
            }
            Element::VoltageSource { npos, nneg, .. } => {
                h.word(2).word(*npos as u64).word(*nneg as u64);
            }
            Element::CurrentSource { from, to, current } => {
                h.word(3).word(*from as u64).word(*to as u64);
                value(&mut h, current.amperes());
            }
            Element::Memristor { n1, n2, state, iv } => {
                h.word(4).word(*n1 as u64).word(*n2 as u64);
                value(&mut h, state.ohms());
                match iv {
                    mnsim_tech::memristor::IvModel::Linear => {
                        h.word(0);
                    }
                    mnsim_tech::memristor::IvModel::Sinh { alpha } => {
                        h.word(1);
                        value(&mut h, *alpha);
                    }
                }
            }
            Element::Capacitor {
                n1,
                n2,
                capacitance,
            } => {
                h.word(5).word(*n1 as u64).word(*n2 as u64);
                value(&mut h, capacitance.farads());
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarSpec;
    use crate::solve::solve_dc;
    use mnsim_tech::memristor::IvModel;
    use mnsim_tech::units::Resistance;

    fn spec(rows: usize, cols: usize) -> CrossbarSpec {
        CrossbarSpec::uniform(
            rows,
            cols,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        )
    }

    fn ramp_inputs(rows: usize, k: usize) -> Vec<Voltage> {
        (0..rows)
            .map(|i| Voltage::from_volts(0.2 + 0.05 * (i + k) as f64 / rows as f64))
            .collect()
    }

    /// Both fingerprints of a fixed 2×2 crossbar. They key persisted
    /// caches, so these values must never change.
    #[test]
    fn fingerprints_are_pinned() {
        let xbar = spec(2, 2).build().unwrap();
        assert_eq!(circuit_fingerprint(xbar.circuit()), 0xf530_b74e_49f1_edab);
        assert_eq!(
            circuit_structure_fingerprint(xbar.circuit()),
            0xc7e1_fa95_89bf_701d
        );
    }

    #[test]
    fn prepared_systems_are_thread_portable() {
        let _session = obs::session();
        // The parallel execution engine shares built circuits across worker
        // threads by reference and hands each worker its own clone of the
        // prepared system; both therefore must stay `Send + Sync` (every
        // field is owned data — no interior mutability, no raw pointers).
        fn assert_thread_portable<T: Send + Sync>() {}
        assert_thread_portable::<PreparedSystem>();
        assert_thread_portable::<crate::crossbar::CrossbarCircuit>();
        assert_thread_portable::<Circuit>();
        assert_thread_portable::<Rhs>();
    }

    #[test]
    fn batch_matches_serial_bitwise_on_a_small_system() {
        let _session = obs::session();
        let xbar = spec(3, 3).build().unwrap(); // 18 unknowns
        let mut prepared = PreparedSystem::build(xbar.circuit(), SolveOptions::default()).unwrap();
        assert_eq!(prepared.engine_kind(), EngineKind::SparseDirect);
        for k in 0..4 {
            let inputs = ramp_inputs(3, k);
            let rhs = Rhs::from_voltages(&inputs);
            let got = prepared.solve(xbar.circuit(), &rhs).unwrap();
            let patched = xbar.circuit().with_source_voltages(&inputs).unwrap();
            let want = solve_dc(&patched, &SolveOptions::default()).unwrap();
            assert_eq!(got.voltages(), want.voltages());
        }
    }

    #[test]
    fn batch_matches_serial_bitwise_on_a_larger_system() {
        let _session = obs::session();
        let xbar = spec(8, 8).build().unwrap(); // 128 unknowns
        let options = SolveOptions::default();
        let mut prepared = PreparedSystem::build(xbar.circuit(), options).unwrap();
        assert_eq!(prepared.engine_kind(), EngineKind::SparseDirect);
        for k in 0..3 {
            let inputs = ramp_inputs(8, k);
            let rhs = Rhs::from_voltages(&inputs);
            let got = prepared.solve(xbar.circuit(), &rhs).unwrap();
            let patched = xbar.circuit().with_source_voltages(&inputs).unwrap();
            let want = solve_dc(&patched, &SolveOptions::default()).unwrap();
            assert_eq!(got.voltages(), want.voltages());
        }
    }

    #[test]
    fn value_only_change_refreshes_sparse_system_in_place() {
        let _session = obs::session();
        let clean = spec(8, 8).build().unwrap(); // 128 unknowns
        let mut faulty_spec = spec(8, 8);
        faulty_spec.states[13] = Resistance::from_kilo_ohms(100.0);
        let faulty = faulty_spec.build().unwrap();

        let mut slot: Option<PreparedSystem> = None;
        let options = SolveOptions::default();
        prepare_or_reuse(&mut slot, clean.circuit(), &options).unwrap();
        assert_eq!(
            slot.as_ref().unwrap().engine_kind(),
            EngineKind::SparseDirect
        );
        let refreshes_before = VALUE_REFRESHES.get();

        // Same structure, different memristor value → refresh, not rebuild.
        let prepared = prepare_or_reuse(&mut slot, faulty.circuit(), &options).unwrap();
        assert_eq!(VALUE_REFRESHES.get(), refreshes_before + 1);
        assert!(prepared.matches(faulty.circuit()));

        // The refreshed system must solve the *new* circuit exactly as a
        // cold build would.
        let inputs = ramp_inputs(8, 2);
        let got = prepared
            .solve(faulty.circuit(), &Rhs::from_voltages(&inputs))
            .unwrap();
        let mut cold = PreparedSystem::build(faulty.circuit(), options).unwrap();
        let want = cold
            .solve(faulty.circuit(), &Rhs::from_voltages(&inputs))
            .unwrap();
        assert_eq!(got.voltages(), want.voltages());
    }

    #[test]
    fn empty_batch_returns_no_solutions() {
        let _session = obs::session();
        let xbar = spec(2, 2).build().unwrap();
        let mut prepared =
            PreparedSystem::build(xbar.circuit(), SolveOptions::default()).unwrap();
        let solutions = solve_dc_batch(&mut prepared, xbar.circuit(), &[]).unwrap();
        assert!(solutions.is_empty());
    }

    #[test]
    fn stale_circuit_is_rejected() {
        let _session = obs::session();
        let clean = spec(2, 2);
        let mut mutated = spec(2, 2);
        mutated.states[0] = Resistance::from_kilo_ohms(1.0);
        let clean_xbar = clean.build().unwrap();
        let mutated_xbar = mutated.build().unwrap();
        let mut prepared =
            PreparedSystem::build(clean_xbar.circuit(), SolveOptions::default()).unwrap();
        let rhs = Rhs::from_voltages(&ramp_inputs(2, 0));
        let err = prepared
            .solve_batch(mutated_xbar.circuit(), std::slice::from_ref(&rhs))
            .unwrap_err();
        assert!(matches!(err, CircuitError::StalePreparedSystem { .. }));
        // Re-driving the sources does NOT invalidate.
        let redriven = clean_xbar
            .circuit()
            .with_source_voltages(&ramp_inputs(2, 3))
            .unwrap();
        assert!(prepared.solve_batch(&redriven, &[rhs]).is_ok());
    }

    #[test]
    fn prepare_or_reuse_rebuilds_on_change() {
        let _session = obs::session();
        let clean_xbar = spec(2, 2).build().unwrap();
        let mut slot: Option<PreparedSystem> = None;
        let options = SolveOptions::default();
        let first = prepare_or_reuse(&mut slot, clean_xbar.circuit(), &options)
            .unwrap()
            .fingerprint();
        let second = prepare_or_reuse(&mut slot, clean_xbar.circuit(), &options)
            .unwrap()
            .fingerprint();
        assert_eq!(first, second);
        let mut mutated = spec(2, 2);
        mutated.states[3] = Resistance::from_kilo_ohms(2.0);
        let mutated_xbar = mutated.build().unwrap();
        let third = prepare_or_reuse(&mut slot, mutated_xbar.circuit(), &options)
            .unwrap()
            .fingerprint();
        assert_ne!(first, third);
    }

    #[test]
    fn rhs_arity_checked() {
        let _session = obs::session();
        let xbar = spec(3, 3).build().unwrap();
        let mut prepared =
            PreparedSystem::build(xbar.circuit(), SolveOptions::default()).unwrap();
        let rhs = Rhs::from_volts(&[1.0, 2.0]); // 3 sources expected
        assert!(matches!(
            prepared.solve(xbar.circuit(), &rhs),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn nonlinear_falls_back_to_newton() {
        let _session = obs::session();
        let mut s = spec(2, 2);
        s.iv = IvModel::Sinh { alpha: 2.0 };
        let xbar = s.build().unwrap();
        let mut prepared =
            PreparedSystem::build(xbar.circuit(), SolveOptions::default()).unwrap();
        let inputs = ramp_inputs(2, 1);
        let got = prepared
            .solve(xbar.circuit(), &Rhs::from_voltages(&inputs))
            .unwrap();
        let patched = xbar.circuit().with_source_voltages(&inputs).unwrap();
        let want = solve_dc(&patched, &SolveOptions::default()).unwrap();
        assert_eq!(got.voltages(), want.voltages());
    }

    #[test]
    fn approx_bytes_counts_the_nonlinear_factorization() {
        let _session = obs::session();
        let linear = spec(8, 8).build().unwrap();
        let mut sinh_spec = spec(8, 8);
        sinh_spec.iv = IvModel::Sinh { alpha: 2.5 };
        let nonlinear = sinh_spec.build().unwrap();

        // The Jacobian has the linear system's pattern, so the linear
        // system's sparse factor is the size to expect.
        let linear_system = PreparedSystem::build(linear.circuit(), SolveOptions::default()).unwrap();
        let factor_bytes = match &linear_system.kind {
            SystemKind::Reduced { workspace, .. } => {
                workspace.factored().unwrap().factor_nnz() * 16
            }
            other => panic!("expected the sparse engine, got {other:?}"),
        };

        let mut prepared =
            PreparedSystem::build(nonlinear.circuit(), SolveOptions::default()).unwrap();
        let before = prepared.approx_bytes();
        prepared
            .solve(nonlinear.circuit(), &Rhs::from_voltages(&ramp_inputs(8, 0)))
            .unwrap();
        let after = prepared.approx_bytes();
        assert!(
            after >= before + factor_bytes,
            "{after} B after solving, {before} B before, factor alone {factor_bytes} B"
        );
    }

    /// A floating source between two grounded resistors, plus a grounded
    /// source and a current source so that every right-hand-side op kind
    /// is replayed: the prepared full-MNA solve is bit-identical to the
    /// one-shot one, whose assembly it shares.
    #[test]
    fn full_mna_prepared_solve_is_bit_identical_to_one_shot() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        let top = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(330.0))
            .unwrap();
        c.add_voltage_source(a, b, Voltage::from_volts(2.0))
            .unwrap();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(0.7))
            .unwrap();
        c.add_resistor(top, b, Resistance::from_ohms(47.0)).unwrap();
        c.add_current_source(
            Circuit::GROUND,
            a,
            mnsim_tech::units::Current::from_amperes(1.3e-3),
        )
        .unwrap();
        let mut prepared = PreparedSystem::build(&c, SolveOptions::default()).unwrap();
        assert_eq!(prepared.engine_kind(), EngineKind::FullMna);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (v1, v2) in [(1.0, 0.7), (2.0, -0.1), (-3.0, 1e-3)] {
            let rhs = Rhs::from_volts(&[v1, v2]);
            let got = prepared.solve(&c, &rhs).unwrap();
            let patched = c
                .with_source_voltages(&[Voltage::from_volts(v1), Voltage::from_volts(v2)])
                .unwrap();
            let want = solve_dc(&patched, &SolveOptions::default()).unwrap();
            assert_eq!(bits(got.voltages()), bits(want.voltages()));
        }
    }

    /// A NaN source value fails like the one-shot solve of the re-driven
    /// circuit, with a typed error on linear and sinh cells alike, not a
    /// panic on a driven node's missing unknown.
    #[test]
    fn nan_source_value_is_the_one_shot_error() {
        let _session = obs::session();
        for iv in [IvModel::Linear, IvModel::Sinh { alpha: 2.0 }] {
            let mut s = spec(3, 3);
            s.iv = iv;
            let xbar = s.build().unwrap();
            let mut prepared =
                PreparedSystem::build(xbar.circuit(), SolveOptions::default()).unwrap();
            let volts = [0.5, f64::NAN, 0.4];
            let got = prepared
                .solve(xbar.circuit(), &Rhs::from_volts(&volts))
                .unwrap_err();
            let inputs: Vec<Voltage> = volts.iter().map(|&v| Voltage::from_volts(v)).collect();
            let patched = xbar.circuit().with_source_voltages(&inputs).unwrap();
            let want = solve_dc(&patched, &SolveOptions::default()).unwrap_err();
            assert_eq!(got, want, "{iv:?}");
            if iv == IvModel::Linear {
                assert_eq!(got, CircuitError::NonFiniteSolution);
            }
        }
    }

    #[test]
    fn conflicting_rhs_drivers_rejected() {
        let _session = obs::session();
        // Two sources onto the same node: fine while values agree,
        // rejected when the RHS makes them disagree.
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(10.0))
            .unwrap();
        let mut prepared = PreparedSystem::build(&c, SolveOptions::default()).unwrap();
        assert!(prepared.solve(&c, &Rhs::from_volts(&[2.0, 2.0])).is_ok());
        assert!(matches!(
            prepared.solve(&c, &Rhs::from_volts(&[1.0, 2.0])),
            Err(CircuitError::InvalidElement { .. })
        ));
    }
}
