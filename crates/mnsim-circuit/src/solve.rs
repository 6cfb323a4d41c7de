//! DC operating-point analysis, and the one solver handle.
//!
//! [`Solver`] solves whatever circuit it is handed: at the circuit's own
//! source values ([`Solver::solve`]), as a batch of reads
//! ([`Solver::solve_batch`]) or as a transient ([`Solver::solve_transient`]).
//! [`solve_dc`] and [`crate::transient::solve_transient`] are the same calls
//! on a fresh handle.
//!
//! 1. **Linear circuits** are solved in one shot. The voltage sources are
//!    eliminated by node merging (`Sources`): a node that a chain of
//!    sources ties to ground is fixed, and the nodes that sources tie to
//!    each other but not to ground form a supernode with one unknown. The
//!    nodal matrix reduced over the fixed nodes and summed over each
//!    supernode is symmetric, and positive-definite when every unknown
//!    reaches ground through conductances, so the sparse LDLᵀ engine of
//!    [`crate::ldl`] solves every DC circuit at every size.
//! 2. **Non-linear circuits** (memristors with a sinh I-V model) are solved
//!    by chord Newton. The first solve puts every memristor at its
//!    low-field resistance. Each chord step then reads the KCL imbalance
//!    `r(x)` at every unknown node straight from the element currents (one
//!    pass over the elements) and moves `x ← x + F⁻¹·r(x)` with one
//!    backsolve on the factor `F` the sparse engine already holds: no
//!    linearization, assembly or refactor. A chord step is kept only if it
//!    at least halves the max-norm of `r`. Otherwise it is undone, and the
//!    next step is an ordinary Newton step: each memristor is replaced by
//!    its companion model (differential conductance + equivalent current
//!    source) at the kept iterate, and the Jacobian is assembled and
//!    refactored. Later chord steps use that factor. The loop stops when a
//!    kept step moves no node by `NEWTON_TOLERANCE` (1e-9 V) or more. Only
//!    kept steps, chord or Newton, count against the budget of
//!    `NEWTON_MAX_ITERATIONS` (60): an undone chord trial is always
//!    followed by a Newton step, which counts. Every linear solve stamps
//!    the same coordinates, so the sparse engine analyzes the pattern once
//!    (`SparseWorkspace`).
//!
//! **Reads in lockstep.** The chord loop (`solve_reads`) solves any number
//! of reads of one structure — one circuit under different source values —
//! together; [`Solver::solve`] is its one-read case, and
//! [`Solver::solve_batch`] hands it blocks of up to eight. A read's source
//! values enter only as the voltages of its fixed nodes and the offsets of
//! its merged ones (`Sources::drive`): the low-field matrix, the KCL
//! imbalance, the linearization and `finish` never read them. So the reads
//! share one low-field assembly and factorization, and each sweep moves
//! every read still in the block with one multi-column backsolve. A read
//! whose chord step fails to halve its residual leaves the block; once the
//! block is done, it continues alone from its kept iterate with the
//! one-read steps — a Newton refactor, then chord steps on that factor.
//! Every read takes exactly the steps it would take alone, so its result
//! is bit-identical to a one-read solve.
//!
//! **No stale answer.** Every call binds the sources, linearizes and
//! assembles the circuit it is handed, and the workspace compares what it
//! holds with that assembly exactly: it refactors only if the summed values
//! changed, and re-maps and re-checks for islands only if the structure —
//! the matrix dimension and the stamp coordinates — changed, re-analyzing
//! only a new pattern. A handle carries no key beside its workspace, so a
//! value overlay, a resample or a new circuit can never meet a factor of
//! another one.
//!
//! Every circuit has one assembly, `assemble_reduced_into`, shared with the
//! transient, so one-shot and batched solves stamp, sum and factor
//! identically. Every DC solution leaves through `finish`, which gives each
//! voltage source its branch current and rejects NaN or infinite voltages
//! and currents with [`CircuitError::NonFiniteSolution`].

use std::sync::Arc;

use mnsim_obs as obs;
use mnsim_tech::memristor::IvModel;
use mnsim_tech::units::Voltage;

static DC_SOLVES: obs::Counter = obs::Counter::new("circuit.solve.dc_solves");
static DC_SPAN: obs::Span = obs::Span::new("circuit.solve_dc", obs::Level::Stage);
static LINEAR_SPARSE: obs::Counter = obs::Counter::new("circuit.solve.sparse_lu");
/// Newton steps, i.e. the steps that linearize and refactor.
static NEWTON_ITERATIONS: obs::Counter = obs::Counter::new("circuit.solve.newton_iterations");
/// Chord steps, kept or undone; the value is the trial's KCL residual.
static CHORD_STEPS: obs::Mark = obs::Mark::new("circuit.solve.chord_steps", obs::Level::Stage);
/// Max-norm KCL residual (A) of each converged non-linear reduced solve.
static KCL_RESIDUAL: obs::Histogram = obs::Histogram::new("circuit.solve.kcl_residual");
/// Linearization, stamping, right-hand side and value scatter; a
/// factorization the new values need nests inside.
pub(crate) static ASSEMBLE_SPAN: obs::Span =
    obs::Span::new("circuit.solve.assemble", obs::Level::Stage);
static RESIDUAL_SPAN: obs::Span = obs::Span::new("circuit.solve.residual", obs::Level::Stage);
static FINISH_SPAN: obs::Span = obs::Span::new("circuit.solve.finish", obs::Level::Stage);
/// Batch calls that mapped a structure new to their handle.
static BATCH_BUILDS: obs::Counter = obs::Counter::new("circuit.batch.prepared_builds");
static BATCH_CALLS: obs::Counter = obs::Counter::new("circuit.batch.calls");
/// Reads solved by batch calls.
static BATCH_SOLVES: obs::Counter = obs::Counter::new("circuit.batch.solves");
/// Batch reads of a non-linear circuit, each a chord-Newton solve rather
/// than one direct backsolve.
static BATCH_FALLBACKS: obs::Counter = obs::Counter::new("circuit.batch.nonlinear_fallbacks");
static BATCH_SPAN: obs::Span = obs::Span::new("circuit.batch.solve", obs::Level::Stage);

/// A chord step is kept only if it cuts the max-norm KCL residual to at
/// most this fraction of the kept one.
const CHORD_CONTRACTION: f64 = 0.5;
/// A non-linear solve has converged when a kept step moves no node by this
/// much or more, in volts.
const NEWTON_TOLERANCE: f64 = 1e-9;
/// Cap on the kept steps of a non-linear solve, chord or Newton.
const NEWTON_MAX_ITERATIONS: usize = 60;

use crate::error::CircuitError;
use crate::ldl::{analyze, SharedAnalyses, SparseLdl, BLOCK_COLUMNS};
use crate::mna::{Circuit, DcSolution, Element};
use crate::sparse::TripletMatrix;
use crate::transient::{TransientOptions, TransientResult};

/// One read of a circuit: the voltage of every ideal source, in element
/// insertion order ([`crate::CrossbarCircuit::input_rhs`] builds one from a
/// crossbar's word-line inputs).
#[derive(Debug, Clone, PartialEq)]
pub struct Rhs {
    volts: Vec<f64>,
}

impl Rhs {
    /// Builds an RHS from typed source voltages.
    pub(crate) fn from_voltages(voltages: &[Voltage]) -> Self {
        Rhs {
            volts: voltages.iter().map(|v| v.volts()).collect(),
        }
    }
}

/// The solver handle: one sparse workspace that solves whatever circuit it
/// is handed, and carries its factor from one call to the next (see the
/// [module docs](crate::solve)).
///
/// Every call binds the sources, linearizes and assembles the circuit it
/// is given. The workspace then refactors only if the summed values
/// changed since its last factor, and re-maps the stamps and re-checks the
/// structure for islands only if the matrix dimension or the stamp
/// coordinates changed, re-analyzing only a pattern it does not hold. So a
/// handle that solves one crossbar under many reads, fault overlays or
/// resamples analyzes it once and refactors per value change, and every
/// answer is bit-identical to a one-shot solve of the same circuit,
/// whatever the handle solved before. A handle made with
/// [`Solver::sharing`] takes a new pattern's analysis from a
/// [`SharedAnalyses`] set.
#[derive(Debug, Clone)]
pub struct Solver {
    workspace: SparseWorkspace,
    /// The low-field linearization of the last circuit, refilled in place.
    lin: Vec<Option<Linearized>>,
    /// Cap on the kept steps of each read: `NEWTON_MAX_ITERATIONS`, lower
    /// only in the unit tests that exhaust it.
    max_steps: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            workspace: SparseWorkspace::default(),
            lin: Vec::new(),
            max_steps: NEWTON_MAX_ITERATIONS,
        }
    }
}

impl Solver {
    /// A handle whose new patterns take their symbolic analysis from
    /// `analyses`: every answer is bit-identical to a [`Solver::default`]
    /// handle's, and a pattern is analyzed only if no earlier solve sharing
    /// the set analyzed it.
    pub fn sharing(analyses: &SharedAnalyses) -> Solver {
        Solver {
            workspace: SparseWorkspace {
                analyses: Some(analyses.clone()),
                ..SparseWorkspace::default()
            },
            ..Solver::default()
        }
    }

    /// Solves the DC operating point of `circuit` at its own source values.
    ///
    /// # Errors
    ///
    /// Propagates solver failures ([`CircuitError::SingularSystem`],
    /// [`CircuitError::NewtonNoConvergence`]), rejects a solution with a
    /// NaN or infinite voltage or current
    /// ([`CircuitError::NonFiniteSolution`]), and reports topology errors
    /// (a node driven by two conflicting sources).
    pub fn solve(&mut self, circuit: &Circuit) -> Result<DcSolution, CircuitError> {
        let _span = DC_SPAN.enter();
        DC_SOLVES.inc();
        let sources = Sources::of(circuit);
        let drive = sources.drive(&source_volts(circuit))?;
        self.refill(circuit, &sources)?;
        let mut outcomes = solve_reads(
            circuit,
            &self.lin,
            &sources,
            vec![Ok(drive)],
            self.max_steps,
            &mut self.workspace,
        );
        outcomes.pop().ok_or(CircuitError::DimensionMismatch {
            expected: 1,
            actual: 0,
            what: "read outcome count",
        })?
    }

    /// Solves `circuit` under every read of `reads`, in blocks of up to
    /// eight whose reads step in lockstep on one factor (see the
    /// [module docs](crate::solve)). Each solution is bit-identical to
    /// [`Solver::solve`] of the circuit re-driven by its read
    /// ([`Circuit::with_source_voltages`]).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::DimensionMismatch`] for a read without one value
    ///   per voltage source.
    /// * Otherwise the error of the first failing read, in read order,
    ///   which is that read's [`Solver::solve`] error; the blocks after its
    ///   own are not solved.
    pub fn solve_batch(
        &mut self,
        circuit: &Circuit,
        reads: &[Rhs],
    ) -> Result<Vec<DcSolution>, CircuitError> {
        let _span = BATCH_SPAN.enter();
        BATCH_CALLS.inc();
        let sources = Sources::of(circuit);
        if let Some(rhs) = reads.iter().find(|rhs| rhs.volts.len() != sources.len()) {
            return Err(CircuitError::DimensionMismatch {
                expected: sources.len(),
                actual: rhs.volts.len(),
                what: "rhs source-voltage count",
            });
        }
        let nonlinear = circuit.is_nonlinear();
        let mut solutions = Vec::with_capacity(reads.len());
        for (k, block) in reads.chunks(BLOCK_COLUMNS).enumerate() {
            BATCH_SOLVES.add(block.len() as u64);
            if nonlinear {
                BATCH_FALLBACKS.add(block.len() as u64);
            }
            let drives: Vec<_> = block.iter().map(|rhs| sources.drive(&rhs.volts)).collect();
            // Every block starts on the low-field factor. A linear block
            // leaves it as it is; a non-linear one may leave a Jacobian
            // factored, so the next block refills.
            if k == 0 || nonlinear {
                match self.refill(circuit, &sources) {
                    Ok(new) => {
                        if new && k == 0 {
                            BATCH_BUILDS.inc();
                        }
                    }
                    // The block's first read fails, with its own source
                    // values' error if they have one, as it would alone.
                    Err(e) => {
                        return Err(match drives.into_iter().next() {
                            Some(Err(drive)) => drive,
                            _ => e,
                        })
                    }
                }
            }
            let outcomes = solve_reads(
                circuit,
                &self.lin,
                &sources,
                drives,
                self.max_steps,
                &mut self.workspace,
            );
            for outcome in outcomes {
                solutions.push(outcome?);
            }
        }
        Ok(solutions)
    }

    /// Runs a backward-Euler transient of `circuit` on this handle's
    /// workspace (see [`crate::transient`]).
    ///
    /// # Errors
    ///
    /// Propagates per-step solver failures and rejects a non-positive step
    /// or a window shorter than one step.
    pub fn solve_transient(
        &mut self,
        circuit: &Circuit,
        options: &TransientOptions,
    ) -> Result<TransientResult, CircuitError> {
        crate::transient::run(circuit, options, &mut self.workspace)
    }

    /// Assembles the low-field system of `circuit`, bound by `sources`,
    /// and makes the held factor factor it; returns whether the structure
    /// was new to the handle.
    fn refill(&mut self, circuit: &Circuit, sources: &Sources) -> Result<bool, CircuitError> {
        linearize_into(&mut self.lin, circuit, None);
        let _assemble = ASSEMBLE_SPAN.enter();
        self.workspace.refill(circuit, &self.lin, sources)
    }
}

/// Solves the DC operating point of `circuit` on a fresh [`Solver`].
///
/// # Errors
///
/// Same as [`Solver::solve`].
pub fn solve_dc(circuit: &Circuit) -> Result<DcSolution, CircuitError> {
    Solver::default().solve(circuit)
}

/// The sparse factorization a [`Solver`] carries from one linear solve to
/// the next: across the steps of a DC solve (whose chord steps backsolve on
/// it), the steps of a transient run, and the reads, value overlays and
/// circuits of later calls.
///
/// It holds the structure of its last factor — the matrix dimension and
/// the stamp coordinates, in stamp order — the map from each stamp to its
/// CSC value slot, and the factor (whose analysis holds the CSC pattern).
/// A solve whose stamps have the held structure scatters its values
/// through the map in stamp order — no sort, no hash — and refactors only
/// when the summed values changed. A new structure is checked for islands
/// (`ReducedSystem::island`) and re-mapped, and re-analyzed only when its
/// summed pattern is new. The first solve of a pattern goes through the
/// same map, so duplicate stamps are summed in one order on every path,
/// and since a refactor is bit-identical to a fresh factorization, the
/// solutions never depend on what the workspace solved before. A
/// workspace made by [`Solver::sharing`] takes a new pattern's analysis
/// from a [`SharedAnalyses`] set, which analyzes each pattern once for all
/// the workspaces of one workload; the factor is the same bits.
///
/// It also keeps the buffers of the last reduced system assembled through
/// it, and refills them in place: a Newton loop or a transient run
/// allocates its stamps, right-hand-side plan and node numbering once, not
/// once per linear solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseWorkspace {
    /// Assembly buffers of the last reduced system assembled through this
    /// workspace: the node numbering, the stamps and the right-hand-side
    /// plan.
    pub(crate) system: ReducedSystem,
    /// Dimension of the structure the map was built for.
    unknowns: usize,
    /// Stamp coordinates the map was built for, in stamp order.
    coords: Vec<(usize, usize)>,
    /// CSC value slot of each stamp.
    slots: Vec<usize>,
    /// The CSC values `ldl` factors; empty while `ldl` is absent or
    /// unusable.
    values: Vec<f64>,
    /// The next solve's CSC values, swapped with `values` on a refactor.
    next_values: Vec<f64>,
    ldl: Option<Box<SparseLdl>>,
    /// The set a new pattern's analysis comes from; `None` analyzes it
    /// here.
    analyses: Option<SharedAnalyses>,
}

impl SparseWorkspace {
    /// Assembles the reduced system of `circuit` under `lin` into the held
    /// buffers ([`assemble_reduced_into`]) and, when it has unknowns, makes
    /// the held factor factor it: the one assemble-and-factor of DC solves,
    /// Newton steps, batch blocks and transient steps. Returns whether the
    /// structure was new; a new structure with an island, an unknown with
    /// no conductive path to ground, is [`CircuitError::SingularSystem`]
    /// before any factorization (`ReducedSystem::island`).
    pub(crate) fn refill(
        &mut self,
        circuit: &Circuit,
        lin: &[Option<Linearized>],
        sources: &Sources,
    ) -> Result<bool, CircuitError> {
        let mut system = std::mem::take(&mut self.system);
        assemble_reduced_into(&mut system, circuit, lin, sources);
        let factored = if system.unknowns == 0 {
            Ok(false)
        } else {
            self.factor(&system, circuit, lin)
        };
        self.system = system;
        factored
    }

    /// Makes the held factor factor `system`'s matrix, as cheaply as the
    /// held state allows; returns whether its structure was new.
    fn factor(
        &mut self,
        system: &ReducedSystem,
        circuit: &Circuit,
        lin: &[Option<Linearized>],
    ) -> Result<bool, CircuitError> {
        let entries = system.stamps.entries();
        let held = self.ldl.is_some()
            && system.unknowns == self.unknowns
            && entries.len() == self.coords.len()
            && entries
                .iter()
                .zip(&self.coords)
                .all(|(&(r, c, _), &rc)| (r, c) == rc);
        if !held {
            if let Some(at) = system.island(circuit, lin) {
                // A failed refill leaves no usable factor, as a failed
                // refactor does.
                self.values.clear();
                return Err(CircuitError::SingularSystem { at });
            }
            let (csc, slots) = system.stamps.to_csc_with_slots();
            self.unknowns = system.unknowns;
            self.coords = entries.iter().map(|&(r, c, _)| (r, c)).collect();
            self.slots = slots;
            if !self
                .ldl
                .as_ref()
                .is_some_and(|ldl| ldl.symbolic().compatible_with(&csc))
            {
                // Release the old factor before building its replacement.
                self.ldl = None;
                self.values.clear();
                let symbolic = match &self.analyses {
                    Some(set) => set.analysis_of(&csc),
                    None => Arc::new(analyze(&csc)),
                };
                self.ldl = Some(Box::new(SparseLdl::factor_with(&csc, symbolic)?));
                self.values = csc.into_values();
                return Ok(true);
            }
        }
        let nnz = self.ldl.as_ref().map_or(0, |ldl| ldl.symbolic().nnz());
        self.next_values.clear();
        self.next_values.resize(nnz, 0.0);
        for (&(_, _, v), &slot) in entries.iter().zip(&self.slots) {
            self.next_values[slot] += v;
        }
        if self.next_values != self.values {
            // A failed refactor leaves the factor unusable; the empty
            // values make the next solve refactor again.
            self.values.clear();
            if let Some(ldl) = self.ldl.as_mut() {
                ldl.refactor_values(&self.next_values)?;
            }
            std::mem::swap(&mut self.values, &mut self.next_values);
        }
        Ok(!held)
    }

    /// Rebuilds only the right-hand-side plan of the held system under
    /// `lin`, which must carry the conductances the held matrix was
    /// assembled from: the step of a linear transient, whose companion
    /// currents change while its matrix does not.
    pub(crate) fn replan(&mut self, circuit: &Circuit, lin: &[Option<Linearized>]) {
        let _span = ASSEMBLE_SPAN.enter();
        stamp_elements(&mut self.system, circuit, lin, false);
    }

    /// The factor of the last successfully factored matrix.
    pub(crate) fn factored(&self) -> Option<&SparseLdl> {
        self.ldl.as_deref().filter(|_| !self.values.is_empty())
    }

    /// Solves the held system in place for every right-hand side in
    /// `columns` (each a vector of unknowns), with one multi-column
    /// backsolve.
    fn backsolve(&self, columns: &mut [&mut [f64]]) -> Result<(), CircuitError> {
        self.factored()
            .ok_or(CircuitError::SingularSystem { at: 0 })?
            .solve_columns(columns);
        Ok(())
    }

    /// Solves the held system for the fixed node voltages in `voltages`
    /// (ground's tree; the rest is ignored) and the merged nodes' `offsets`
    /// ([`Drive`]) into `next`: a copy of `voltages` with every unknown and
    /// merged node at its solution.
    pub(crate) fn solve_read(
        &self,
        voltages: &[f64],
        offsets: &[f64],
        next: &mut Vec<f64>,
    ) -> Result<(), CircuitError> {
        let system = &self.system;
        let assemble = ASSEMBLE_SPAN.enter();
        let mut x = replay_rhs(&system.ops, system.unknowns, voltages, offsets);
        drop(assemble);
        next.clear();
        next.extend_from_slice(voltages);
        if system.unknowns > 0 {
            LINEAR_SPARSE.inc();
            self.backsolve(&mut [&mut x])?;
            system.scatter(next, &x, offsets);
        }
        Ok(())
    }
}

/// One linearized conductive branch: `I(n1→n2) = g·(v1 − v2) + i_eq`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Linearized {
    pub(crate) g: f64,
    pub(crate) ieq: f64,
}

/// One read in the chord loop: its kept iterate and the state of its
/// steps.
#[derive(Debug)]
struct Lane {
    /// Node voltages of the kept iterate. Ground stays at 0 V and every
    /// node of ground's tree at the value the read's sources fix, so a
    /// linear solve replays its right-hand side from here.
    voltages: Vec<f64>,
    /// The merged nodes' offsets under the read's source values
    /// ([`Drive`]).
    offsets: Vec<f64>,
    /// Per unknown: the KCL imbalance `r` at the kept iterate, which a
    /// chord step's backsolve turns into the step in place; the imbalance
    /// at the trial iterate after that. The low-field solve uses it for
    /// its right-hand side and solution.
    inflow: Vec<f64>,
    /// Max-norm of `r` at the kept iterate; NaN while there is no factor
    /// to take chord steps on.
    residual: f64,
    /// Largest node move of the last kept step, NaN before the first.
    last_update: f64,
    /// Kept steps, chord or Newton, against the step budget.
    steps: usize,
    /// The read's result once it has one; `None` while it steps.
    outcome: Option<Result<DcSolution, CircuitError>>,
}

impl Lane {
    /// A read at `drive`, or one that already failed with `drive`'s error.
    fn new(drive: Result<Drive, CircuitError>) -> Lane {
        let (Drive { voltages, offsets }, outcome) = match drive {
            Ok(drive) => (drive, None),
            Err(e) => (Drive::default(), Some(Err(e))),
        };
        Lane {
            voltages,
            offsets,
            inflow: Vec::new(),
            residual: f64::NAN,
            last_update: f64::NAN,
            steps: 0,
            outcome,
        }
    }

    /// Whether the read still steps.
    fn open(&self) -> bool {
        self.outcome.is_none()
    }

    /// The result of a converged read: the solution at its kept iterate.
    fn converge(
        &mut self,
        circuit: &Circuit,
        sources: &Sources,
    ) -> Result<DcSolution, CircuitError> {
        if !self.residual.is_nan() {
            KCL_RESIDUAL.record(self.residual);
        }
        let voltages = std::mem::take(&mut self.voltages);
        let lin = linearize(circuit, Some(&voltages));
        finish(circuit, &lin, sources, voltages)
    }

    /// The error of a read whose budget of `max_steps` ran out.
    fn exhausted(&self, max_steps: usize) -> CircuitError {
        CircuitError::NewtonNoConvergence {
            iterations: max_steps,
            last_update: self.last_update,
        }
    }
}

/// The chord-Newton loop over the reads of one structure (see the module
/// docs). `workspace` holds the factored low-field system of `circuit`
/// under `lin` — for a linear circuit its only system — assembled with
/// `sources`. Each entry of `drives` is one read's [`Drive`] or the error
/// that read already failed with; each read takes at most `max_steps` kept
/// steps. Returns one outcome per read, in order.
fn solve_reads(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    sources: &Sources,
    drives: Vec<Result<Drive, CircuitError>>,
    max_steps: usize,
    workspace: &mut SparseWorkspace,
) -> Vec<Result<DcSolution, CircuitError>> {
    let mut lanes: Vec<Lane> = drives.into_iter().map(Lane::new).collect();
    // After a reduced solve with unknowns the workspace holds the factor
    // the chord steps take, and its system numbers the unknowns for the
    // residual; a system without unknowns holds no factor.
    let chord = workspace.system.unknowns > 0;
    if chord {
        low_field_solve(&mut lanes, workspace);
    }
    if !circuit.is_nonlinear() {
        for lane in lanes.iter_mut().filter(|lane| lane.open()) {
            let voltages = std::mem::take(&mut lane.voltages);
            lane.outcome = Some(finish(circuit, lin, sources, voltages));
        }
    } else if chord {
        let mut kcl = Kcl::default();
        for lane in lanes.iter_mut().filter(|lane| lane.open()) {
            lane.residual =
                kcl.imbalance(circuit, &lane.voltages, &workspace.system, &mut lane.inflow);
        }
        chord_sweeps(circuit, sources, &mut lanes, max_steps, workspace, &mut kcl);
    }
    lanes
        .into_iter()
        .map(|mut lane| match lane.outcome.take() {
            Some(outcome) => outcome,
            // The read left the block, or there was none to take.
            None => continue_alone(circuit, sources, &mut lane, max_steps, workspace, chord),
        })
        .collect()
}

/// The first solve of every open lane: one multi-column backsolve on the
/// held factor, with each read's right-hand side replayed from its fixed
/// voltages and offsets.
fn low_field_solve(lanes: &mut [Lane], workspace: &SparseWorkspace) {
    let system = &workspace.system;
    let assemble = ASSEMBLE_SPAN.enter();
    for lane in lanes.iter_mut().filter(|lane| lane.open()) {
        lane.inflow = replay_rhs(&system.ops, system.unknowns, &lane.voltages, &lane.offsets);
    }
    drop(assemble);
    let mut columns: Vec<&mut [f64]> = lanes
        .iter_mut()
        .filter(|lane| lane.open())
        .map(|lane| lane.inflow.as_mut_slice())
        .collect();
    if columns.is_empty() {
        return;
    }
    LINEAR_SPARSE.add(columns.len() as u64);
    let solved = workspace.backsolve(&mut columns);
    for lane in lanes.iter_mut().filter(|lane| lane.open()) {
        match &solved {
            Ok(()) => system.scatter(&mut lane.voltages, &lane.inflow, &lane.offsets),
            Err(e) => lane.outcome = Some(Err(e.clone())),
        }
    }
}

/// Chord steps on the held factor for every open lane, in lockstep: each
/// sweep moves them all with one multi-column backsolve. A lane leaves
/// when it converges or runs out of steps (its outcome is set), or when
/// its step fails to contract: that step is undone, does not count against
/// the budget, and its outcome stays `None` for a Newton step to continue
/// it.
fn chord_sweeps(
    circuit: &Circuit,
    sources: &Sources,
    lanes: &mut [Lane],
    max_steps: usize,
    workspace: &SparseWorkspace,
    kcl: &mut Kcl,
) {
    let system = &workspace.system;
    let mut trial = Vec::new();
    let mut block: Vec<&mut Lane> = lanes.iter_mut().filter(|lane| lane.open()).collect();
    while !block.is_empty() {
        block.retain_mut(|lane| {
            if lane.steps < max_steps {
                return true;
            }
            lane.outcome = Some(Err(lane.exhausted(max_steps)));
            false
        });
        // Each lane's imbalance becomes its step in place.
        let mut columns: Vec<&mut [f64]> = block
            .iter_mut()
            .map(|lane| lane.inflow.as_mut_slice())
            .collect();
        if columns.is_empty() {
            break;
        }
        if let Err(e) = workspace.backsolve(&mut columns) {
            for lane in block {
                lane.outcome = Some(Err(e.clone()));
            }
            return;
        }
        block.retain_mut(|lane| {
            trial.clone_from(&lane.voltages);
            system.step(&mut trial, &lane.inflow);
            let residual = kcl.imbalance(circuit, &trial, system, &mut lane.inflow);
            CHORD_STEPS.record(residual);
            if !(residual.is_finite() && residual <= CHORD_CONTRACTION * lane.residual) {
                // Undo: the lane leaves, and its next step refactors at
                // the kept iterate.
                if lane.last_update.is_nan() {
                    lane.last_update = max_update(&lane.voltages, &trial);
                }
                return false;
            }
            lane.steps += 1;
            lane.residual = residual;
            lane.last_update = max_update(&lane.voltages, &trial);
            std::mem::swap(&mut lane.voltages, &mut trial);
            if lane.last_update < NEWTON_TOLERANCE {
                lane.outcome = Some(lane.converge(circuit, sources));
                return false;
            }
            true
        });
    }
}

/// Continues one read alone from its kept iterate, with the steps it
/// would take in a one-read solve: a Newton step, which refactors the
/// workspace at the read's Jacobian, then chord steps on that factor until
/// one fails to contract, and so on. Without a factor (`chord` unset)
/// every step is a Newton step.
fn continue_alone(
    circuit: &Circuit,
    sources: &Sources,
    lane: &mut Lane,
    max_steps: usize,
    workspace: &mut SparseWorkspace,
    chord: bool,
) -> Result<DcSolution, CircuitError> {
    let mut kcl = Kcl::default();
    let mut next = Vec::new();
    loop {
        if lane.steps == max_steps {
            return Err(lane.exhausted(max_steps));
        }
        lane.steps += 1;
        NEWTON_ITERATIONS.inc();
        let jacobian = linearize(circuit, Some(&lane.voltages));
        let assemble = ASSEMBLE_SPAN.enter();
        workspace.refill(circuit, &jacobian, sources)?;
        drop(assemble);
        workspace.solve_read(&lane.voltages, &lane.offsets, &mut next)?;
        if chord {
            lane.residual = kcl.imbalance(circuit, &next, &workspace.system, &mut lane.inflow);
        }
        lane.last_update = max_update(&lane.voltages, &next);
        std::mem::swap(&mut lane.voltages, &mut next);
        if lane.last_update < NEWTON_TOLERANCE {
            return lane.converge(circuit, sources);
        }
        if chord {
            chord_sweeps(
                circuit,
                sources,
                std::slice::from_mut(lane),
                max_steps,
                workspace,
                &mut kcl,
            );
            if let Some(outcome) = lane.outcome.take() {
                return outcome;
            }
        }
    }
}

/// The largest node-voltage move from `from` to `to`.
fn max_update(from: &[f64], to: &[f64]) -> f64 {
    from.iter()
        .zip(to)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
}

/// The scratch of the KCL imbalance a chord step reads.
#[derive(Debug, Default)]
struct Kcl {
    /// Current leaving each node through its elements.
    leaving: Vec<f64>,
}

impl Kcl {
    /// Fills `inflow` with the KCL imbalance of `circuit` at `voltages` —
    /// the net current flowing into each unknown's nodes, `r(x)` — from the
    /// element currents: resistors at `(1/R)·Δv`, cells on their I-V
    /// curve, current sources at their value. Returns its max-norm in
    /// amperes, or NaN when a current is not finite. `system` numbers the
    /// unknowns and lists the merged nodes.
    fn imbalance(
        &mut self,
        circuit: &Circuit,
        voltages: &[f64],
        system: &ReducedSystem,
        inflow: &mut Vec<f64>,
    ) -> f64 {
        let _span = RESIDUAL_SPAN.enter();
        self.leaving.clear();
        self.leaving.resize(circuit.node_count(), 0.0);
        sum_leaving(circuit, &mut self.leaving, |_, element| match *element {
            Element::Resistor { n1, n2, resistance } => {
                (1.0 / resistance.ohms()) * (voltages[n1] - voltages[n2])
            }
            Element::Memristor { n1, n2, state, iv } => {
                let bias = mnsim_tech::units::Voltage::from_volts(voltages[n1] - voltages[n2]);
                iv.current(state, bias).amperes()
            }
            Element::CurrentSource { current, .. } => current.amperes(),
            Element::Capacitor { .. } | Element::VoltageSource { .. } => 0.0,
        });
        // A supernode's row balances the current leaving all its nodes:
        // each of them carries that sum into the pass below.
        for &(node, rep) in &system.merged {
            self.leaving[rep] += self.leaving[node];
        }
        for &(node, rep) in &system.merged {
            self.leaving[node] = self.leaving[rep];
        }
        inflow.clear();
        inflow.resize(system.unknowns, 0.0);
        let mut norm = 0.0f64;
        let mut finite = true;
        for (&u, &out) in system.index.iter().zip(&self.leaving) {
            if u != usize::MAX {
                inflow[u] = -out;
                norm = norm.max(out.abs());
                finite &= out.is_finite();
            }
        }
        if finite {
            norm
        } else {
            f64::NAN
        }
    }
}

/// Produces the per-element linearization. `operating_point` supplies node
/// voltages for the Newton companion models; `None` linearizes memristors at
/// their low-field state.
pub(crate) fn linearize(
    circuit: &Circuit,
    operating_point: Option<&[f64]>,
) -> Vec<Option<Linearized>> {
    let mut lin = Vec::new();
    linearize_into(&mut lin, circuit, operating_point);
    lin
}

/// [`linearize`] into `lin`, which keeps its capacity.
pub(crate) fn linearize_into(
    lin: &mut Vec<Option<Linearized>>,
    circuit: &Circuit,
    operating_point: Option<&[f64]>,
) {
    let _span = ASSEMBLE_SPAN.enter();
    lin.clear();
    lin.extend(circuit.elements().iter().map(|element| match element {
        Element::Resistor { resistance, .. } => Some(Linearized {
            g: 1.0 / resistance.ohms(),
            ieq: 0.0,
        }),
        Element::Memristor { n1, n2, state, iv } => match (iv, operating_point) {
            (IvModel::Linear, _) | (_, None) => Some(Linearized {
                g: 1.0 / state.ohms(),
                ieq: 0.0,
            }),
            (IvModel::Sinh { .. }, Some(v)) => {
                let vd = v[*n1] - v[*n2];
                let bias = mnsim_tech::units::Voltage::from_volts(vd);
                let g_d = 1.0 / iv.differential_resistance(*state, bias).ohms();
                let i = iv.current(*state, bias).amperes();
                Some(Linearized {
                    g: g_d,
                    ieq: i - g_d * vd,
                })
            }
        },
        Element::VoltageSource { .. } | Element::CurrentSource { .. } => None,
        // Capacitors are open circuits at DC; the transient solver
        // replaces them with backward-Euler companions.
        Element::Capacitor { .. } => None,
    }));
}

/// How the voltage sources of a circuit bind to its nodes. The binding
/// depends only on the terminals of each source, never on its value, so
/// one binding serves every read of a structure; a read's source values
/// enter through [`Sources::drive`].
///
/// The sources are eliminated by node merging. Their edges are walked as a
/// spanning forest, each parent before its children:
/// * the tree that holds ground fixes every node in it (for grounded
///   sources, the node each one drives);
/// * every other tree is a floating supernode: its lowest node, the
///   representative, keeps an unknown, and every other node in it is
///   *merged*: it sits at the representative plus an offset that the
///   read's source values fix, shares the representative's unknown, and
///   sums its KCL row into the representative's;
/// * a source off the forest closes a loop of sources: it must equal what
///   the forest fixes, and it carries no current.
#[derive(Debug, Clone, Default)]
pub(crate) struct Sources {
    /// The forest's sources, each parent before its children.
    walk: Vec<Edge>,
    /// The sources off the forest, each of which closes a loop.
    loops: Vec<Edge>,
    /// Per node: whether a source binds it, so that it has no unknown of
    /// its own: the nodes of ground's tree other than ground, and the
    /// merged nodes.
    bound: Vec<bool>,
    /// Each merged node with its representative, in walk order.
    merged: Vec<(usize, usize)>,
}

/// One voltage source as [`Sources`] binds it: it fixes `child` relative
/// to `parent`.
#[derive(Debug, Clone, Copy)]
struct Edge {
    /// The source's position among the circuit's sources, i.e. its value's
    /// index in a read's source values.
    source: usize,
    /// Its element index.
    element: usize,
    /// The terminal it fixes: in the forest, the one farther from the
    /// root; off the forest, its `npos` unless that is the root.
    child: usize,
    /// The other terminal, or `None` when that is its tree's root: ground,
    /// or a representative, whose offset is 0 V.
    parent: Option<usize>,
    /// `true` when `child` is the source's `nneg`, so that it sits at the
    /// parent minus the source value.
    negated: bool,
}

/// The node voltages that one read's source values fix.
#[derive(Debug, Clone, Default)]
pub(crate) struct Drive {
    /// Every node of ground's tree at the value its sources fix, ground
    /// and every other node at 0 V.
    pub(crate) voltages: Vec<f64>,
    /// Per merged node, in [`Sources`] order: its offset from its
    /// representative. Empty without floating sources.
    pub(crate) offsets: Vec<f64>,
}

impl Sources {
    /// The source binding of `circuit`. The first pass offers every source
    /// to ground's tree, which takes all of a grounded circuit's; later
    /// passes grow that tree, and then one tree from the lowest node left,
    /// until every source is in the forest or closes a loop.
    pub(crate) fn of(circuit: &Circuit) -> Sources {
        let mut sources = Sources {
            bound: vec![false; circuit.node_count()],
            ..Sources::default()
        };
        let mut pending = Vec::new();
        let terminals = circuit
            .elements()
            .iter()
            .enumerate()
            .filter_map(|(element, e)| match *e {
                Element::VoltageSource { npos, nneg, .. } => Some((element, npos, nneg)),
                _ => None,
            });
        for (source, (element, npos, nneg)) in terminals.enumerate() {
            if !sources.join(source, element, npos, nneg, Circuit::GROUND) {
                pending.push((source, element, npos, nneg));
            }
        }
        let mut root = Circuit::GROUND;
        while let Some(lowest) = pending
            .iter()
            .map(|&(_, _, npos, nneg)| npos.min(nneg))
            .min()
        {
            let before = pending.len();
            pending.retain(|&(source, element, npos, nneg)| {
                !sources.join(source, element, npos, nneg, root)
            });
            if pending.len() == before {
                // Nothing more joins this tree: root the next one.
                root = lowest;
            }
        }
        sources
    }

    /// Adds a source to the tree rooted at `root` when a terminal of it is
    /// in that tree, as a forest edge or, with both terminals there, as a
    /// loop; returns whether it did.
    fn join(
        &mut self,
        source: usize,
        element: usize,
        npos: usize,
        nneg: usize,
        root: usize,
    ) -> bool {
        let placed = |node: usize| node == root || self.bound[node];
        let (pos, neg) = (placed(npos), placed(nneg));
        if !pos && !neg {
            return false;
        }
        let child = if !neg || npos == root { nneg } else { npos };
        let other = if child == npos { nneg } else { npos };
        let edge = Edge {
            source,
            element,
            child,
            parent: (other != root).then_some(other),
            negated: child == nneg,
        };
        if pos && neg {
            self.loops.push(edge);
        } else {
            self.walk.push(edge);
            self.bound[child] = true;
            if root != Circuit::GROUND {
                self.merged.push((child, root));
            }
        }
        true
    }

    /// Number of voltage sources.
    pub(crate) fn len(&self) -> usize {
        self.walk.len() + self.loops.len()
    }

    /// The [`Drive`] of the source values `volts` (one per source, in
    /// element order).
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] when a source that closes a loop
    /// differs from what the forest fixes, compared exactly: two sources
    /// that drive one node to different values, say.
    pub(crate) fn drive(&self, volts: &[f64]) -> Result<Drive, CircuitError> {
        let mut voltages = vec![0.0; self.bound.len()];
        // The child's value: a root's children take the source value as
        // it is, so a grounded source fixes its node to exactly its value.
        let fixes = |voltages: &[f64], edge: &Edge| {
            let v = volts[edge.source];
            let v = if edge.negated { -v } else { v };
            edge.parent.map_or(v, |parent| voltages[parent] + v)
        };
        for edge in &self.walk {
            voltages[edge.child] = fixes(&voltages, edge);
        }
        for edge in &self.loops {
            let (existing, value) = (voltages[edge.child], fixes(&voltages, edge));
            if existing != value {
                return Err(CircuitError::InvalidElement {
                    reason: format!(
                        "node {} driven to both {existing} V and {value} V",
                        edge.child
                    ),
                });
            }
        }
        let offsets = self
            .merged
            .iter()
            .map(|&(node, _)| std::mem::take(&mut voltages[node]))
            .collect();
        Ok(Drive { voltages, offsets })
    }
}

/// The value of every voltage source of `circuit`, in element order.
pub(crate) fn source_volts(circuit: &Circuit) -> Vec<f64> {
    circuit
        .elements()
        .iter()
        .filter_map(|element| match element {
            Element::VoltageSource { voltage, .. } => Some(voltage.volts()),
            _ => None,
        })
        .collect()
}

/// One right-hand-side assembly step, recorded in stamp order and replayed
/// per solve (so a prepared system re-driven with new source voltages
/// assembles exactly what a one-shot solve would).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BOp {
    /// `b[u] += g · v(node)` where `v` is the voltage of a fixed node
    /// (0 V for ground).
    Scaled { u: usize, node: usize, g: f64 },
    /// `b[u] += c` (equivalent-current and current-source terms).
    Const { u: usize, c: f64 },
    /// `b[u] += g · offset[m]`, where `offset[m]` is the read's offset of
    /// the `m`-th merged node ([`Drive`]).
    Offset { u: usize, m: usize, g: f64 },
}

/// The reduced nodal system of one linearization: the unknowns are every
/// node that no source binds. The matrix is symmetric, and positive
/// definite when every unknown reaches ground through conductances.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReducedSystem {
    /// node → unknown index (`usize::MAX` for ground's tree); a merged
    /// node shares its representative's.
    pub(crate) index: Vec<usize>,
    pub(crate) unknowns: usize,
    /// Each merged node with its representative ([`Sources`]).
    merged: Vec<(usize, usize)>,
    /// The matrix stamps, in stamp order.
    pub(crate) stamps: TripletMatrix,
    /// The right-hand-side plan, in stamp order.
    pub(crate) ops: Vec<BOp>,
}

/// [`assemble_reduced_into`] a fresh system.
#[cfg(test)]
pub(crate) fn assemble_reduced(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    sources: &Sources,
) -> ReducedSystem {
    let mut system = ReducedSystem::default();
    assemble_reduced_into(&mut system, circuit, lin, sources);
    system
}

impl ReducedSystem {
    /// Sets every unknown node of `voltages` to its entry of `x`, and every
    /// merged node to its representative's plus its entry of `offsets`.
    fn scatter(&self, voltages: &mut [f64], x: &[f64], offsets: &[f64]) {
        for (v, &u) in voltages.iter_mut().zip(&self.index) {
            if u != usize::MAX {
                *v = x[u];
            }
        }
        for (&(node, _), &offset) in self.merged.iter().zip(offsets) {
            voltages[node] += offset;
        }
    }

    /// An unknown with no conductive path under `lin` to ground's tree, if
    /// any. Such an island's rows are singular, but the LDLᵀ pivot test can
    /// take a rounding residue of its last pivot for a pivot, so the
    /// islands are found by union-find over the conductive elements, once
    /// per structure ([`SparseWorkspace::refill`]).
    fn island(&self, circuit: &Circuit, lin: &[Option<Linearized>]) -> Option<usize> {
        // One set per unknown, and the last for every fixed node.
        let fixed = self.unknowns;
        let mut set: Vec<usize> = (0..=fixed).collect();
        let root = |set: &mut [usize], mut x: usize| {
            while set[x] != x {
                set[x] = set[set[x]];
                x = set[x];
            }
            x
        };
        let at = |node: usize| self.index[node].min(fixed);
        for (element, conduction) in circuit.elements().iter().zip(lin) {
            if let (
                Element::Resistor { n1, n2, .. }
                | Element::Memristor { n1, n2, .. }
                | Element::Capacitor { n1, n2, .. },
                Some(_),
            ) = (element, conduction)
            {
                let (a, b) = (root(&mut set, at(*n1)), root(&mut set, at(*n2)));
                set[a] = b;
            }
        }
        let grounded = root(&mut set, fixed);
        (0..fixed).find(|&u| root(&mut set, u) != grounded)
    }

    /// Moves every unknown node of `voltages` by its entry of `dx`; a
    /// supernode moves as one.
    fn step(&self, voltages: &mut [f64], dx: &[f64]) {
        for (v, &u) in voltages.iter_mut().zip(&self.index) {
            if u != usize::MAX {
                *v += dx[u];
            }
        }
    }
}

/// Assembles the reduced system of `circuit` under the linearization `lin`
/// into `system`, with `sources` binding the nodes. This is the one
/// reduced assembly behind every [`Solver`] call, the transient's
/// included. The buffers keep their capacity, and the stamps and
/// the plan come out in the same order as from a fresh assembly.
pub(crate) fn assemble_reduced_into(
    system: &mut ReducedSystem,
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    sources: &Sources,
) {
    let ReducedSystem {
        index,
        unknowns,
        merged,
        ..
    } = system;
    index.clear();
    index.resize(circuit.node_count(), usize::MAX);
    *unknowns = 0;
    for (slot, &bound) in index.iter_mut().zip(&sources.bound).skip(1) {
        if !bound {
            *slot = *unknowns;
            *unknowns += 1;
        }
    }
    merged.clone_from(&sources.merged);
    for &(node, rep) in merged.iter() {
        index[node] = index[rep];
    }
    system.stamps.reset(system.unknowns, system.unknowns);
    stamp_elements(system, circuit, lin, true);
}

/// The one element walk of the reduced assembly: rebuilds the
/// right-hand-side plan of `system` under `lin` and, with `with_stamps`,
/// adds the matrix stamps to `system.stamps`, both in stamp order. The
/// node numbering must already be `system`'s.
fn stamp_elements(
    system: &mut ReducedSystem,
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    with_stamps: bool,
) {
    let ReducedSystem {
        index,
        merged,
        stamps,
        ops,
        ..
    } = system;
    let mut stamp = |r: usize, c: usize, g: f64| {
        if with_stamps {
            stamps.add(r, c, g);
        }
    };
    // Ground's tree is the nodes without an unknown.
    let fixed = |node: usize| index[node] == usize::MAX;
    ops.clear();
    for (idx, element) in circuit.elements().iter().enumerate() {
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                // Capacitors only carry a companion in transient mode.
                let Some(Linearized { g, ieq }) = lin[idx] else {
                    continue;
                };
                // KCL at n1: +g(v1 − v2) + ieq ; at n2: −g(v1 − v2) − ieq.
                let (i1, i2) = (index[*n1], index[*n2]);
                if i1 == i2 {
                    // Both terminals fixed, or both in one supernode,
                    // whose row the element's current leaves and enters.
                    continue;
                }
                if i1 != usize::MAX {
                    stamp(i1, i1, g);
                    if fixed(*n2) {
                        ops.push(BOp::Scaled {
                            u: i1,
                            node: *n2,
                            g,
                        });
                    } else {
                        stamp(i1, i2, -g);
                    }
                    ops.push(BOp::Const { u: i1, c: -ieq });
                }
                if i2 != usize::MAX {
                    stamp(i2, i2, g);
                    if fixed(*n1) {
                        ops.push(BOp::Scaled {
                            u: i2,
                            node: *n1,
                            g,
                        });
                    } else {
                        stamp(i2, i1, -g);
                    }
                    ops.push(BOp::Const { u: i2, c: ieq });
                }
            }
            Element::CurrentSource { from, to, current } => {
                let i = current.amperes();
                if index[*from] != usize::MAX {
                    ops.push(BOp::Const {
                        u: index[*from],
                        c: -i,
                    });
                }
                if index[*to] != usize::MAX {
                    ops.push(BOp::Const {
                        u: index[*to],
                        c: i,
                    });
                }
            }
            Element::VoltageSource { .. } => {} // encoded via `Sources`
        }
    }
    if !merged.is_empty() {
        offset_ops(ops, index, merged, circuit, lin);
    }
}

/// Appends the offset terms of the merged nodes to the right-hand-side
/// plan `ops`: a merged terminal sits at its representative's unknown plus
/// its offset, so a conductance `g` to it moves `g · offset` to the
/// right-hand side of each row the element touches.
fn offset_ops(
    ops: &mut Vec<BOp>,
    index: &[usize],
    merged: &[(usize, usize)],
    circuit: &Circuit,
    lin: &[Option<Linearized>],
) {
    let mut slot = vec![usize::MAX; index.len()];
    for (m, &(node, _)) in merged.iter().enumerate() {
        slot[node] = m;
    }
    for (idx, element) in circuit.elements().iter().enumerate() {
        let (Element::Resistor { n1, n2, .. }
        | Element::Memristor { n1, n2, .. }
        | Element::Capacitor { n1, n2, .. }) = *element
        else {
            continue;
        };
        let Some(Linearized { g, .. }) = lin[idx] else {
            continue;
        };
        if index[n1] == index[n2] {
            continue;
        }
        for (here, there) in [(n1, n2), (n2, n1)] {
            let u = index[here];
            if u == usize::MAX {
                continue;
            }
            if slot[here] != usize::MAX {
                ops.push(BOp::Offset {
                    u,
                    m: slot[here],
                    g: -g,
                });
            }
            if slot[there] != usize::MAX {
                ops.push(BOp::Offset {
                    u,
                    m: slot[there],
                    g,
                });
            }
        }
    }
}

/// Replays a reduced system's right-hand-side plan with `voltages` giving
/// the voltage of every fixed node and `offsets` the merged nodes'
/// offsets.
pub(crate) fn replay_rhs(
    ops: &[BOp],
    unknowns: usize,
    voltages: &[f64],
    offsets: &[f64],
) -> Vec<f64> {
    let mut b = vec![0.0; unknowns];
    for op in ops {
        match *op {
            BOp::Scaled { u, node, g } => b[u] += g * voltages[node],
            BOp::Const { u, c } => b[u] += c,
            BOp::Offset { u, m, g } => b[u] += g * offsets[m],
        }
    }
    b
}

/// Computes per-element branch currents and wraps the solution, or
/// rejects it with [`CircuitError::NonFiniteSolution`] when a voltage or a
/// current is NaN or infinite. `sources` binds the circuit's sources.
pub(crate) fn finish(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    sources: &Sources,
    voltages: Vec<f64>,
) -> Result<DcSolution, CircuitError> {
    let _span = FINISH_SPAN.enter();
    let mut currents = vec![0.0; circuit.element_count()];
    let mut leaving = vec![0.0; circuit.node_count()];
    sum_leaving(circuit, &mut leaving, |idx, element| {
        currents[idx] = match *element {
            Element::CurrentSource { current, .. } => current.amperes(),
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => match lin[idx] {
                Some(Linearized { g, ieq }) => g * (voltages[n1] - voltages[n2]) + ieq,
                // Capacitors carry zero current at DC (no companion).
                None => 0.0,
            },
            Element::VoltageSource { .. } => 0.0,
        };
        currents[idx]
    });

    // Each source of the forest delivers into its child the current that
    // leaves the nodes below it, summed children before parents. Its
    // branch current flows npos → nneg inside it, so it is minus that when
    // the child is its `npos`. A source that closes a loop carries none.
    for edge in sources.walk.iter().rev() {
        let below = leaving[edge.child];
        currents[edge.element] = if edge.negated { below } else { -below };
        if let Some(parent) = edge.parent {
            leaving[parent] += below;
        }
    }

    if !voltages.iter().chain(&currents).all(|x| x.is_finite()) {
        return Err(CircuitError::NonFiniteSolution);
    }
    Ok(DcSolution::new(voltages, currents))
}

/// Adds the current leaving each node through every element but the
/// voltage sources to `leaving`, summed in element order.
/// `current(idx, element)` gives each element's current from its first
/// terminal to its second (a current source's `from` to its `to`); a
/// current source with both terminals on one node leaves it nothing, as in
/// the assembly.
fn sum_leaving(
    circuit: &Circuit,
    leaving: &mut [f64],
    mut current: impl FnMut(usize, &Element) -> f64,
) {
    for (idx, element) in circuit.elements().iter().enumerate() {
        let (from, to) = match *element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => (n1, n2),
            Element::CurrentSource { from, to, .. } => (from, to),
            // `finish` gives voltage sources their currents.
            Element::VoltageSource { .. } => continue,
        };
        let i = current(idx, element);
        leaving[from] += i;
        leaving[to] -= i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{CrossbarCircuit, CrossbarSpec};
    use crate::dense::DenseMatrix;
    use crate::mna::kcl_residual;
    use mnsim_tech::units::{Current, Resistance, Voltage};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    /// Solves `circuit` linearized as `lin` on `workspace`, returning every
    /// node voltage.
    fn solve_linear(
        circuit: &Circuit,
        lin: &[Option<Linearized>],
        workspace: &mut SparseWorkspace,
    ) -> Result<Vec<f64>, CircuitError> {
        let sources = Sources::of(circuit);
        let drive = sources.drive(&source_volts(circuit))?;
        workspace.refill(circuit, lin, &sources)?;
        let mut voltages = Vec::new();
        workspace.solve_read(&drive.voltages, &drive.offsets, &mut voltages)?;
        Ok(voltages)
    }

    /// A `size`×`size` sinh crossbar with distinct cells and inputs; 64×64
    /// is above the supernodal switch.
    fn sinh_crossbar(size: usize) -> CrossbarCircuit {
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        );
        spec.iv = IvModel::Sinh { alpha: 2.5 };
        for (k, state) in spec.states.iter_mut().enumerate() {
            *state = Resistance::from_ohms(5_000.0 + 250.0 * ((k * 37) % 61) as f64);
        }
        for (k, input) in spec.inputs.iter_mut().enumerate() {
            *input = Voltage::from_volts(0.3 + 0.09 * (k % 8) as f64);
        }
        spec.build().unwrap()
    }

    /// The reference: full Newton, each linearization analyzed, factored
    /// and solved on a fresh workspace. Returns the voltages and the
    /// iterations, each of which is a refactor on a shared workspace.
    fn full_newton(circuit: &Circuit) -> Result<(Vec<f64>, u64), CircuitError> {
        let fresh = |lin: &[Option<Linearized>]| {
            solve_linear(circuit, lin, &mut SparseWorkspace::default())
        };
        let mut voltages = fresh(&linearize(circuit, None))?;
        for iteration in 1..=NEWTON_MAX_ITERATIONS {
            let next = fresh(&linearize(circuit, Some(&voltages)))?;
            let update = max_update(&voltages, &next);
            voltages = next;
            if update < NEWTON_TOLERANCE {
                return Ok((voltages, iteration as u64));
            }
        }
        Err(CircuitError::NewtonNoConvergence {
            iterations: NEWTON_MAX_ITERATIONS,
            last_update: f64::NAN,
        })
    }

    /// A handle whose reads take at most `max_steps` kept steps: the
    /// crate-private way to a small step budget.
    fn budget(max_steps: usize) -> Solver {
        Solver {
            max_steps,
            ..Solver::default()
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The chord loop on a warm workspace, left holding a Jacobian, is
    /// bit-identical to the loop on a fresh one, and both are within
    /// 2 × `NEWTON_TOLERANCE` of full Newton. The chord contracts
    /// linearly, so the error left when a step moves no node by the
    /// tolerance is about that last step: 6e-11 V on the 8×8 array.
    #[test]
    fn chord_loop_is_history_independent_and_matches_full_newton() {
        for size in [8, 64] {
            let _session = obs::session();
            let xbar = sinh_crossbar(size);
            let circuit = xbar.circuit();
            let (reference, iterations) = full_newton(circuit).unwrap();
            assert!(iterations >= 3, "only {iterations} Newton iterations");

            let fresh = solve_dc(circuit).unwrap();
            let mut warm = Solver::default();
            let jacobian = linearize(circuit, Some(&reference));
            solve_linear(circuit, &jacobian, &mut warm.workspace).unwrap();
            for _ in 0..2 {
                let again = warm.solve(circuit).unwrap();
                assert_eq!(
                    bits(again.voltages()),
                    bits(fresh.voltages()),
                    "{size}x{size}"
                );
            }

            let worst = max_update(fresh.voltages(), &reference);
            assert!(
                worst <= 2.0 * NEWTON_TOLERANCE,
                "{size}x{size}: {worst:e} V from full Newton"
            );
        }
    }

    /// A sinh crossbar that full Newton finds hard: cells drawn from
    /// `[5 kΩ, 20 kΩ)`, inputs from `[0, v_max)`, and a `stuck` share of
    /// the cells stuck at 1 MΩ or 500 Ω.
    fn harsh_crossbar(size: usize, alpha: f64, v_max: f64, stuck: f64) -> CrossbarCircuit {
        use mnsim_tech::fault::{FaultMap, FaultRates};
        let seed = (size as u64) << 16 ^ (alpha * 8.0) as u64 ^ (v_max * 64.0) as u64;
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        );
        spec.iv = IvModel::Sinh { alpha };
        for cell in &mut spec.states {
            *cell = Resistance::from_ohms(5_000.0 + 15_000.0 * uniform());
        }
        for input in &mut spec.inputs {
            *input = Voltage::from_volts(v_max * uniform());
        }
        let map = FaultMap::generate(size, size, &FaultRates::stuck_at(stuck), seed).unwrap();
        spec.with_faults(
            map,
            Resistance::from_mega_ohms(1.0),
            Resistance::from_ohms(500.0),
        )
        .build()
        .unwrap()
    }

    /// Chord Newton against full Newton on a harsh sweep. Every case full
    /// Newton answers, the chord answers too: node voltages within
    /// 2 × `NEWTON_TOLERANCE`, a KCL residual within max(1e-9 A, 10 × full
    /// Newton's), and no more refactors than full Newton's iterations.
    /// Cells at α = 8 and 1.5 V carry amperes, so the residual bound
    /// follows the reference. One named case must take the rollback.
    #[test]
    fn chord_answers_every_harsh_case_full_newton_answers() {
        let mut answered = 0;
        for size in [8, 16, 32] {
            for alpha in [1.0, 2.5, 4.0, 6.0, 8.0] {
                for v_max in [0.3, 0.6, 1.0, 1.5] {
                    for stuck in [0.0, 0.3] {
                        let case = format!("{size}x{size}, α = {alpha}, {v_max} V, {stuck} stuck");
                        let session = obs::session();
                        let xbar = harsh_crossbar(size, alpha, v_max, stuck);
                        let circuit = xbar.circuit();
                        let Ok((reference, iterations)) = full_newton(circuit) else {
                            continue;
                        };
                        obs::reset();
                        let chord = solve_dc(circuit).unwrap_or_else(|e| {
                            panic!("{case}: full Newton answers, the chord: {e}")
                        });
                        let snap = session.snapshot();
                        answered += 1;

                        let worst = max_update(chord.voltages(), &reference);
                        assert!(
                            worst <= 2.0 * NEWTON_TOLERANCE,
                            "{case}: {worst:e} V from full Newton"
                        );
                        let lin = linearize(circuit, Some(&reference));
                        let reference =
                            finish(circuit, &lin, &Sources::of(circuit), reference).unwrap();
                        let bound = f64::max(1e-9, 10.0 * kcl_residual(circuit, &reference));
                        let residual = kcl_residual(circuit, &chord);
                        assert!(
                            residual <= bound,
                            "{case}: KCL residual {residual:e} A > {bound:e} A"
                        );
                        let refactors = snap.counter("solver.klu.refactor");
                        assert!(
                            refactors <= iterations,
                            "{case}: {refactors} refactors, full Newton {iterations}"
                        );
                        if (size, alpha, v_max, stuck) == (8, 8.0, 1.5, 0.3) {
                            assert!(
                                snap.counter("circuit.solve.newton_iterations") >= 1,
                                "{case} never rolled back"
                            );
                        }
                    }
                }
            }
        }
        assert!(
            answered >= 100,
            "full Newton answered only {answered} cases"
        );
    }

    /// `count` reads of a `rows`-input array, seeded: inputs drawn from
    /// `[0, v_max)`.
    fn seeded_reads(rows: usize, count: usize, v_max: f64, seed: u64) -> Vec<Vec<Voltage>> {
        let mut state = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) | 1;
        (0..count)
            .map(|_| {
                (0..rows)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        Voltage::from_volts(v_max * (state >> 11) as f64 / (1u64 << 53) as f64)
                    })
                    .collect()
            })
            .collect()
    }

    /// Each read solved alone, by a fresh handle with a budget of
    /// `max_steps`, on its re-driven circuit.
    fn one_read_solves(
        circuit: &Circuit,
        reads: &[Vec<Voltage>],
        max_steps: usize,
    ) -> Result<Vec<DcSolution>, CircuitError> {
        reads
            .iter()
            .map(|read| budget(max_steps).solve(&circuit.with_source_voltages(read)?))
            .collect()
    }

    /// `Ok` when both sides answered the same reads with bit-identical
    /// voltages and currents, or failed with the same error.
    fn same_outcomes(
        circuit: &Circuit,
        got: &Result<Vec<DcSolution>, CircuitError>,
        want: &Result<Vec<DcSolution>, CircuitError>,
    ) -> Result<(), String> {
        match (got, want) {
            (Ok(got), Ok(want)) => {
                for (k, (g, w)) in got.iter().zip(want).enumerate() {
                    if bits(g.voltages()) != bits(w.voltages()) {
                        return Err(format!("read {k}: voltages differ"));
                    }
                    let currents = |s: &DcSolution| {
                        (0..circuit.element_count())
                            .map(|e| s.element_current(e).amperes().to_bits())
                            .collect::<Vec<_>>()
                    };
                    if currents(g) != currents(w) {
                        return Err(format!("read {k}: currents differ"));
                    }
                }
                (got.len() == want.len())
                    .then_some(())
                    .ok_or_else(|| "read counts differ".into())
            }
            (Err(g), Err(w)) if g == w => Ok(()),
            _ => Err(format!(
                "batch {:?} against one-read {:?}",
                got.as_ref().err(),
                want.as_ref().err()
            )),
        }
    }

    /// The reads of a batch step in lockstep, yet each is a
    /// one-read solve: on sinh crossbars from 8×8 to 64×64 every read of
    /// `solve_batch` is bit-identical to `solve_dc` of its re-driven
    /// circuit, voltages and currents. The harsh arrays (α up to 8,
    /// 1.5 V, 30 % stuck) send reads out of the block to Newton steps,
    /// and ten reads cross the eight-read block edge.
    #[test]
    fn batch_reads_are_bit_identical_to_one_read_solves() {
        let session = obs::session();
        let mut newton_steps = 0;
        for (size, alpha, v_max, stuck, count) in [
            (8, 2.5, 1.0, 0.0, 10),
            (8, 8.0, 1.5, 0.3, 10),
            (16, 6.0, 1.5, 0.3, 10),
            (16, 8.0, 1.0, 0.3, 5),
            (32, 4.0, 1.5, 0.3, 5),
            (64, 2.5, 1.0, 0.0, 3),
            (64, 8.0, 1.5, 0.3, 3),
        ] {
            let case = format!("{size}x{size}, α = {alpha}, {v_max} V, {stuck} stuck");
            let xbar = harsh_crossbar(size, alpha, v_max, stuck);
            let circuit = xbar.circuit();
            let reads = seeded_reads(size, count, v_max, size as u64 + count as u64);
            let batch: Vec<Rhs> = reads.iter().map(|r| xbar.input_rhs(r).unwrap()).collect();
            obs::reset();
            let got = Solver::default().solve_batch(circuit, &batch);
            newton_steps += session
                .snapshot()
                .counter("circuit.solve.newton_iterations");
            let want = one_read_solves(circuit, &reads, NEWTON_MAX_ITERATIONS);
            assert_eq!(same_outcomes(circuit, &got, &want), Ok(()), "{case}");
        }
        assert!(newton_steps > 0, "no read left its block");
    }

    /// A read's typed error is the one-read solve's: a conflicting
    /// driver in one read of a non-linear batch, and a step budget of
    /// one.
    #[test]
    fn batch_errors_are_the_one_read_errors() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(a, mid, Resistance::from_kilo_ohms(5.0))
            .unwrap();
        c.add_memristor(
            mid,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(10.0),
            IvModel::Sinh { alpha: 3.0 },
        )
        .unwrap();
        let volts = [[0.8, 0.8], [0.5, 0.7], [0.3, 0.3]];
        let batch: Vec<Rhs> = volts
            .iter()
            .map(|v| Rhs::from_voltages(&v.map(Voltage::from_volts)))
            .collect();
        let got = Solver::default().solve_batch(&c, &batch).unwrap_err();
        let redriven = c
            .with_source_voltages(&[Voltage::from_volts(0.5), Voltage::from_volts(0.7)])
            .unwrap();
        let want = solve_dc(&redriven).unwrap_err();
        assert!(
            matches!(want, CircuitError::InvalidElement { .. }),
            "{want:?}"
        );
        assert_eq!(got, want);

        let xbar = sinh_crossbar(8);
        let reads = seeded_reads(8, 4, 1.0, 5);
        let batch: Vec<Rhs> = reads.iter().map(|r| xbar.input_rhs(r).unwrap()).collect();
        let got = budget(1).solve_batch(xbar.circuit(), &batch);
        let want = one_read_solves(xbar.circuit(), &reads, 1);
        assert!(
            matches!(
                want,
                Err(CircuitError::NewtonNoConvergence { iterations: 1, .. })
            ),
            "{:?}",
            want.as_ref().err()
        );
        assert_eq!(same_outcomes(xbar.circuit(), &got, &want), Ok(()));
    }

    fn rhs(volts: &[f64]) -> Rhs {
        Rhs {
            volts: volts.to_vec(),
        }
    }

    fn uniform_spec(rows: usize, cols: usize) -> CrossbarSpec {
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

    #[test]
    fn solver_is_thread_portable() {
        // The parallel execution engine shares built circuits across
        // worker threads by reference and gives each worker its own
        // handle: every field is owned data, so both stay `Send + Sync`.
        fn assert_thread_portable<T: Send + Sync>() {}
        assert_thread_portable::<Solver>();
        assert_thread_portable::<crate::crossbar::CrossbarCircuit>();
        assert_thread_portable::<Circuit>();
        assert_thread_portable::<Rhs>();
    }

    /// Linear batch reads at 18 and 128 unknowns are bit-identical to
    /// one-shot solves of the re-driven circuits.
    #[test]
    fn linear_batch_reads_match_one_shot_solves_bitwise() {
        let _session = obs::session();
        for size in [3, 8] {
            let xbar = uniform_spec(size, size).build().unwrap();
            let reads: Vec<Vec<Voltage>> = (0..4).map(|k| ramp_inputs(size, k)).collect();
            let batch: Vec<Rhs> = reads.iter().map(|r| Rhs::from_voltages(r)).collect();
            let got = Solver::default().solve_batch(xbar.circuit(), &batch);
            let want = one_read_solves(xbar.circuit(), &reads, NEWTON_MAX_ITERATIONS);
            assert_eq!(same_outcomes(xbar.circuit(), &got, &want), Ok(()));
        }
    }

    /// A value overlay on a handle's structure, on a linear crossbar and
    /// on a floating-source circuit, refactors the held analysis in place:
    /// no new analysis, one refactor, and the answer of a fresh handle bit
    /// for bit.
    #[test]
    fn value_overlay_refactors_in_place() {
        let session = obs::session();
        let floating = |load: f64| {
            let mut c = Circuit::new();
            let a = c.add_node();
            let b = c.add_node();
            c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
                .unwrap();
            c.add_voltage_source(a, b, Voltage::from_volts(2.0))
                .unwrap();
            c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(load))
                .unwrap();
            c
        };
        let clean = uniform_spec(8, 8).build().unwrap();
        let mut faulty_spec = uniform_spec(8, 8);
        faulty_spec.states[13] = Resistance::from_kilo_ohms(100.0);
        let faulty = faulty_spec.build().unwrap();
        for (old, new, read) in [
            (
                clean.circuit().clone(),
                faulty.circuit().clone(),
                ramp_inputs(8, 2),
            ),
            (
                floating(330.0),
                floating(47.0),
                vec![Voltage::from_volts(0.7)],
            ),
        ] {
            let batch = [Rhs::from_voltages(&read)];
            let mut handle = Solver::default();
            handle.solve_batch(&old, &batch).unwrap();
            obs::reset();
            let got = handle.solve_batch(&new, &batch);
            let snap = session.snapshot();
            assert_eq!(snap.counter("solver.klu.analyses"), 0);
            assert_eq!(snap.counter("solver.klu.refactor"), 1);
            assert_eq!(snap.counter("circuit.batch.prepared_builds"), 0);
            let want = one_read_solves(&new, &[read], NEWTON_MAX_ITERATIONS);
            assert_eq!(same_outcomes(&new, &got, &want), Ok(()));
        }
    }

    #[test]
    fn empty_batch_returns_no_solutions() {
        let _session = obs::session();
        let xbar = uniform_spec(2, 2).build().unwrap();
        let solutions = Solver::default().solve_batch(xbar.circuit(), &[]).unwrap();
        assert!(solutions.is_empty());
    }

    #[test]
    fn rhs_arity_checked() {
        let _session = obs::session();
        let xbar = uniform_spec(3, 3).build().unwrap();
        // 3 sources expected.
        assert!(matches!(
            Solver::default().solve_batch(xbar.circuit(), &[rhs(&[1.0, 2.0])]),
            Err(CircuitError::DimensionMismatch { .. })
        ));
    }

    /// A floating source between two grounded resistors, plus a grounded
    /// source and a current source so that every right-hand-side op kind
    /// is replayed: the batch reads of the merged system are bit-identical
    /// to the one-shot solves, whose assembly they share.
    #[test]
    fn floating_source_batch_reads_are_bit_identical_to_one_shot() {
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
        c.add_current_source(Circuit::GROUND, a, Current::from_amperes(1.3e-3))
            .unwrap();
        let reads: Vec<Vec<Voltage>> = [(1.0, 0.7), (2.0, -0.1), (-3.0, 1e-3)]
            .iter()
            .map(|&(v1, v2)| vec![Voltage::from_volts(v1), Voltage::from_volts(v2)])
            .collect();
        let batch: Vec<Rhs> = reads.iter().map(|r| Rhs::from_voltages(r)).collect();
        let got = Solver::default().solve_batch(&c, &batch);
        let want = one_read_solves(&c, &reads, NEWTON_MAX_ITERATIONS);
        assert_eq!(same_outcomes(&c, &got, &want), Ok(()));
    }

    /// A NaN source value fails like the one-shot solve of the re-driven
    /// circuit, with a typed error on linear and sinh cells alike, not a
    /// panic on a driven node's missing unknown.
    #[test]
    fn nan_source_value_is_the_one_shot_error() {
        let _session = obs::session();
        for iv in [IvModel::Linear, IvModel::Sinh { alpha: 2.0 }] {
            let mut s = uniform_spec(3, 3);
            s.iv = iv;
            let xbar = s.build().unwrap();
            let volts = [0.5, f64::NAN, 0.4];
            let got = Solver::default()
                .solve_batch(xbar.circuit(), &[rhs(&volts)])
                .unwrap_err();
            let inputs: Vec<Voltage> = volts.iter().map(|&v| Voltage::from_volts(v)).collect();
            let patched = xbar.circuit().with_source_voltages(&inputs).unwrap();
            let want = solve_dc(&patched).unwrap_err();
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
        // rejected when the read makes them disagree.
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(10.0))
            .unwrap();
        let mut handle = Solver::default();
        assert!(handle.solve_batch(&c, &[rhs(&[2.0, 2.0])]).is_ok());
        assert!(matches!(
            handle.solve_batch(&c, &[rhs(&[1.0, 2.0])]),
            Err(CircuitError::InvalidElement { .. })
        ));
    }

    #[test]
    fn budget_exhaustion_reports_the_last_kept_update() {
        let _session = obs::session();
        // 8×8 (128 unknowns) and 4×4 (32 unknowns) both take chord steps
        // on the LDLᵀ engine.
        for size in [8, 4] {
            let xbar = sinh_crossbar(size);
            match budget(1).solve(xbar.circuit()) {
                Err(CircuitError::NewtonNoConvergence {
                    iterations: 1,
                    last_update,
                }) => assert!(
                    last_update.is_finite() && last_update >= NEWTON_TOLERANCE,
                    "{size}x{size}: last update {last_update}"
                ),
                other => panic!("{size}x{size}: {other:?}"),
            }
        }
    }

    #[test]
    fn workspace_reanalyzes_a_changed_pattern_instead_of_failing() {
        let _session = obs::session();
        let xbar = sinh_crossbar(8);
        let circuit = xbar.circuit();
        let driven: Vec<usize> = circuit
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::VoltageSource { npos, .. } => Some(*npos),
                _ => None,
            })
            .collect();
        let unknown = |n: usize| n != Circuit::GROUND && !driven.contains(&n);
        let wire = circuit
            .elements()
            .iter()
            .position(
                |e| matches!(e, Element::Resistor { n1, n2, .. } if unknown(*n1) && unknown(*n2)),
            )
            .unwrap();

        // A zero conductance drops the wire's off-diagonal pair from the
        // stamped pattern: the next linearization no longer fits the
        // cached analysis.
        let lin = linearize(circuit, None);
        let mut cut = lin.clone();
        cut[wire] = Some(Linearized { g: 0.0, ieq: 0.0 });

        let mut workspace = SparseWorkspace::default();
        solve_linear(circuit, &lin, &mut workspace).unwrap();
        let first_pattern = workspace.factored().unwrap().symbolic().nnz();
        let x = solve_linear(circuit, &cut, &mut workspace).unwrap();
        let second_pattern = workspace.factored().unwrap().symbolic().nnz();
        assert_eq!(
            first_pattern,
            second_pattern + 2,
            "the changed pattern was not re-analyzed"
        );

        let want = solve_linear(circuit, &cut, &mut SparseWorkspace::default()).unwrap();
        assert_eq!(x, want);
    }

    /// `A == Aᵀ` bit for bit, pattern included: every stored `A(i, j)` has
    /// the identical `A(j, i)`.
    fn exactly_symmetric(system: &ReducedSystem) -> Result<(), String> {
        let a = system.stamps.to_csc();
        let get = |row: usize, col: usize| {
            let (start, end) = (a.col_ptr()[col], a.col_ptr()[col + 1]);
            a.row_idx()[start..end]
                .binary_search(&row)
                .map_or(0.0, |pos| a.values()[start + pos])
        };
        for j in 0..a.cols() {
            for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
                let i = a.row_idx()[k];
                if a.values()[k].to_bits() != get(j, i).to_bits() {
                    return Err(format!(
                        "A({i}, {j}) = {} but A({j}, {i}) = {}",
                        a.values()[k],
                        get(j, i)
                    ));
                }
            }
        }
        Ok(())
    }

    fn reduced(circuit: &Circuit, lin: &[Option<Linearized>]) -> ReducedSystem {
        assemble_reduced(circuit, lin, &Sources::of(circuit))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The LDLᵀ engine relies on every assembled reduced matrix being
        /// exactly symmetric: linear cells, sinh Jacobians at random
        /// operating points, stuck-at overlays and backward-Euler
        /// capacitor companions.
        #[test]
        fn every_assembled_reduced_matrix_is_exactly_symmetric(
            rows in 1usize..9,
            cols in 1usize..9,
            stuck in 0.0f64..0.5,
            seed in 0u64..1_000_000,
        ) {
            use mnsim_tech::fault::{FaultMap, FaultRates};
            use mnsim_tech::units::Capacitance;

            let _session = obs::session();

            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut uniform = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut spec = CrossbarSpec::uniform(
                rows,
                cols,
                Resistance::from_kilo_ohms(10.0),
                Resistance::from_ohms(1.0 + 4.0 * uniform()),
                Resistance::from_ohms(100.0 + 900.0 * uniform()),
                Voltage::from_volts(1.0),
            );
            for cell in &mut spec.states {
                *cell = Resistance::from_ohms(1_000.0 + 99_000.0 * uniform());
            }
            for input in &mut spec.inputs {
                *input = Voltage::from_volts(2.0 * uniform() - 1.0);
            }
            let linear = spec.build().unwrap();
            let check = |system: ReducedSystem, what: &str| {
                exactly_symmetric(&system).map_err(|e| format!("{what}: {e}"))
            };
            let linear_lin = linearize(linear.circuit(), None);
            proptest::prop_assert_eq!(check(reduced(linear.circuit(), &linear_lin), "linear cells"), Ok(()));

            spec.iv = IvModel::Sinh { alpha: 1.0 + 3.0 * uniform() };
            let map = FaultMap::generate(rows, cols, &FaultRates::stuck_at(stuck), seed).unwrap();
            let faulted = spec
                .with_faults(map, Resistance::from_kilo_ohms(100.0), Resistance::from_kilo_ohms(1.0))
                .build()
                .unwrap();
            let mut random_point = |n: usize| -> Vec<f64> { (0..n).map(|_| 2.0 * uniform() - 1.0).collect() };
            let point = random_point(faulted.circuit().node_count());
            let jacobian = linearize(faulted.circuit(), Some(&point));
            proptest::prop_assert_eq!(check(reduced(faulted.circuit(), &jacobian), "stuck-at sinh Jacobian"), Ok(()));

            let mut rc = faulted;
            rc.add_node_capacitance(Capacitance::from_femtofarads(20.0)).unwrap();
            let circuit = rc.circuit();
            let (point, previous) = (random_point(circuit.node_count()), random_point(circuit.node_count()));
            let companions = crate::transient::linearize_with_companions(circuit, &point, &previous, 1e-11, true);
            proptest::prop_assert_eq!(check(reduced(circuit, &companions), "transient companions"), Ok(()));
        }
    }

    #[test]
    fn workspace_recovers_from_a_failed_refactor() {
        let _session = obs::session();
        // Two unknowns, each grounded through a resistor and joined by a
        // third, fed by a current source: the matrix is
        // [[g₀ + g₁, −g₁], [−g₁, g₁ + g₂]].
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        for (n1, n2) in [(a, Circuit::GROUND), (a, b), (b, Circuit::GROUND)] {
            c.add_resistor(n1, n2, Resistance::from_ohms(1.0)).unwrap();
        }
        c.add_current_source(Circuit::GROUND, a, Current::from_amperes(1.0))
            .unwrap();
        let lin = |g: [f64; 3]| -> Vec<Option<Linearized>> {
            g.iter()
                .map(|&g| Some(Linearized { g, ieq: 0.0 }))
                .chain([None])
                .collect()
        };
        let mut workspace = SparseWorkspace::default();
        let x = solve_linear(&c, &lin([1.0, 1.0, 1.0]), &mut workspace).unwrap();
        // Same coordinates, indefinite values: the refactor fails and
        // leaves no usable factor behind.
        assert!(matches!(
            solve_linear(&c, &lin([-1.0, 3.0, -1.0]), &mut workspace),
            Err(CircuitError::SingularSystem { .. })
        ));
        assert!(workspace.factored().is_none());
        assert_eq!(
            solve_linear(&c, &lin([1.0, 1.0, 1.0]), &mut workspace).unwrap(),
            x
        );
    }

    #[test]
    fn voltage_divider() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(10.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_close(sol.voltage(mid).volts(), 7.5, 1e-9);
    }

    #[test]
    fn equal_divider_halves_the_source_exactly() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_eq!(sol.voltage(mid).volts(), 0.5);
    }

    #[test]
    fn broken_bitline_crossbar_still_solves() {
        let _session = obs::session();
        use mnsim_tech::fault::FaultMap;
        let mut map = FaultMap::empty(8, 8);
        map.broken_bitlines.insert(3, 4);
        let xbar = CrossbarSpec::uniform(
            8,
            8,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        )
        .with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        )
        .build()
        .unwrap();
        let solution = solve_dc(xbar.circuit()).unwrap();
        let residual = kcl_residual(xbar.circuit(), &solution);
        assert!(residual < 1e-6, "residual {residual}");
        let outputs = xbar.output_voltages(&solution);
        // The broken column reads lower than its healthy neighbours.
        assert!(outputs[3].volts() < outputs[2].volts());
    }

    #[test]
    fn non_finite_solution_is_a_typed_error() {
        let _session = obs::session();
        // 1e300 V across 1e-10 Ω: every voltage is finite, the resistor
        // current overflows to ∞.
        let mut c = Circuit::new();
        let n = c.add_node();
        c.add_voltage_source(n, Circuit::GROUND, Voltage::from_volts(1e300))
            .unwrap();
        c.add_resistor(n, Circuit::GROUND, Resistance::from_ohms(1e-10))
            .unwrap();
        assert_eq!(solve_dc(&c).unwrap_err(), CircuitError::NonFiniteSolution);
    }

    #[test]
    fn current_source_into_resistor() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let n = c.add_node();
        c.add_current_source(Circuit::GROUND, n, Current::from_amperes(2e-3))
            .unwrap();
        c.add_resistor(n, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_close(sol.voltage(n).volts(), 2.0, 1e-9);
    }

    #[test]
    fn wheatstone_bridge_balance() {
        let _session = obs::session();
        // Balanced bridge: zero volts across the detector resistor.
        let mut c = Circuit::new();
        let top = c.add_node();
        let left = c.add_node();
        let right = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(5.0))
            .unwrap();
        let r = Resistance::from_kilo_ohms(1.0);
        c.add_resistor(top, left, r).unwrap();
        c.add_resistor(top, right, r).unwrap();
        c.add_resistor(left, Circuit::GROUND, r).unwrap();
        c.add_resistor(right, Circuit::GROUND, r).unwrap();
        c.add_resistor(left, right, Resistance::from_ohms(123.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_close(
            sol.voltage(left).volts() - sol.voltage(right).volts(),
            0.0,
            1e-9,
        );
    }

    #[test]
    fn source_power_equals_dissipated_power() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(3.0))
            .unwrap();
        c.add_resistor(a, b, Resistance::from_ohms(150.0)).unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(150.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(300.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_close(
            sol.source_power(&c).watts(),
            sol.dissipated_power(&c).watts(),
            1e-12,
        );
        // P = V²/Req, Req = 300 ∥ 300 = 150 → P = 9/150 = 60 mW
        assert_close(sol.source_power(&c).watts(), 0.06, 1e-9);
    }

    #[test]
    fn floating_source_merges_into_a_supernode_on_the_sparse_engine() {
        let _session = obs::session();
        // Source floating between two nodes, each tied to ground by R,
        // with a 1 nΩ shunt across it: the shunt's 2e9 A stays inside the
        // supernode and must not round the 10 mS of its row away.
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        let shunt = c.add_resistor(a, b, Resistance::from_ohms(1e-9)).unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        let source = c
            .add_voltage_source(a, b, Voltage::from_volts(2.0))
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        assert_close(sol.voltage(a).volts() - sol.voltage(b).volts(), 2.0, 1e-12);
        // Symmetry: va = +1, vb = −1.
        assert_close(sol.voltage(a).volts(), 1.0, 1e-12);
        assert_close(sol.voltage(b).volts(), -1.0, 1e-12);
        let through = sol.element_current(shunt).amperes();
        assert_close(sol.element_current(source).amperes(), -through - 0.01, 1e-3);
    }

    /// The net current leaving each non-ground node through its elements
    /// and its voltage sources, whose branch currents flow npos → nneg
    /// inside them; returns the largest magnitude.
    fn kcl_with_sources(circuit: &Circuit, solution: &DcSolution) -> f64 {
        let mut leaving = vec![0.0f64; circuit.node_count()];
        for (idx, element) in circuit.elements().iter().enumerate() {
            let (from, to) = match *element {
                Element::Resistor { n1, n2, .. }
                | Element::Memristor { n1, n2, .. }
                | Element::Capacitor { n1, n2, .. } => (n1, n2),
                Element::CurrentSource { from, to, .. } => (from, to),
                Element::VoltageSource { npos, nneg, .. } => (npos, nneg),
            };
            let i = solution.element_current(idx).amperes();
            leaving[from] += i;
            leaving[to] -= i;
        }
        leaving[1..].iter().fold(0.0, |worst, x| worst.max(x.abs()))
    }

    /// Source currents close KCL at every node and balance the power on
    /// three circuits where KCL at one terminal got them wrong: two
    /// floating sources in series, a floating source chained to a grounded
    /// one, and two grounded sources in parallel, the second of which is
    /// redundant and carries nothing.
    #[test]
    fn source_currents_close_kcl_and_balance_power() {
        let _session = obs::session();
        let (ohms, volts) = (Resistance::from_ohms, Voltage::from_volts);
        // gnd–100 Ω–a, a =1 V= b, b =2 V= c, c–100 Ω–gnd: 15 mA, 45 mW.
        let mut series = Circuit::new();
        let [a, b, c] = [series.add_node(), series.add_node(), series.add_node()];
        series
            .add_resistor(Circuit::GROUND, a, ohms(100.0))
            .unwrap();
        let ab = series.add_voltage_source(a, b, volts(1.0)).unwrap();
        let bc = series.add_voltage_source(b, c, volts(2.0)).unwrap();
        series
            .add_resistor(c, Circuit::GROUND, ohms(100.0))
            .unwrap();
        // a =1 V= gnd, b =2 V= a, b–100 Ω–gnd: 30 mA, 90 mW.
        let mut chained = Circuit::new();
        let [a, b] = [chained.add_node(), chained.add_node()];
        let grounded = chained
            .add_voltage_source(a, Circuit::GROUND, volts(1.0))
            .unwrap();
        let floating = chained.add_voltage_source(b, a, volts(2.0)).unwrap();
        chained
            .add_resistor(b, Circuit::GROUND, ohms(100.0))
            .unwrap();
        // Two grounded 1 V sources on one node, 10 Ω load: 0.1 A, 0.1 W.
        let mut parallel = Circuit::new();
        let a = parallel.add_node();
        let first = parallel
            .add_voltage_source(a, Circuit::GROUND, volts(1.0))
            .unwrap();
        let second = parallel
            .add_voltage_source(a, Circuit::GROUND, volts(1.0))
            .unwrap();
        parallel
            .add_resistor(a, Circuit::GROUND, ohms(10.0))
            .unwrap();

        for (name, circuit, power, currents) in [
            ("series", series, 0.045, [(ab, -0.015), (bc, -0.015)]),
            (
                "chained",
                chained,
                0.09,
                [(grounded, -0.03), (floating, -0.03)],
            ),
            ("parallel", parallel, 0.1, [(first, -0.1), (second, 0.0)]),
        ] {
            let sol = solve_dc(&circuit).unwrap();
            for (source, want) in currents {
                let got = sol.element_current(source).amperes();
                assert!(
                    (got - want).abs() <= 1e-15,
                    "{name}: source {source} carries {got} A, not {want} A"
                );
            }
            let (delivered, dissipated) = (
                sol.source_power(&circuit).watts(),
                sol.dissipated_power(&circuit).watts(),
            );
            assert!(
                (delivered - power).abs() <= 1e-15 && (dissipated - power).abs() <= 1e-15,
                "{name}: sources deliver {delivered} W, elements dissipate {dissipated} W"
            );
            let kcl = kcl_with_sources(&circuit, &sol);
            assert!(kcl <= 1e-16, "{name}: KCL off by {kcl} A");
        }
    }

    #[test]
    fn conflicting_drivers_rejected() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(2.0))
            .unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
            .unwrap();
        assert!(matches!(
            solve_dc(&c),
            Err(CircuitError::InvalidElement { .. })
        ));
    }

    #[test]
    fn nonlinear_memristor_draws_more_current() {
        let _session = obs::session();
        // sinh model conducts more at bias than the linear state resistance.
        let build = |iv: IvModel| {
            let mut c = Circuit::new();
            let a = c.add_node();
            c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
                .unwrap();
            let m = c
                .add_memristor(a, Circuit::GROUND, Resistance::from_kilo_ohms(10.0), iv)
                .unwrap();
            (c, m)
        };
        let (lin_c, lin_m) = build(IvModel::Linear);
        let (non_c, non_m) = build(IvModel::Sinh { alpha: 2.0 });
        let lin_sol = solve_dc(&lin_c).unwrap();
        let non_sol = solve_dc(&non_c).unwrap();
        let i_lin = lin_sol.element_current(lin_m).amperes();
        let i_non = non_sol.element_current(non_m).amperes();
        assert!(i_non > i_lin, "{i_non} vs {i_lin}");
        // Analytic check: I = sinh(2·1)/(2·10k)
        assert_close(i_non, (2.0f64).sinh() / 2.0e4, 1e-9);
    }

    #[test]
    fn newton_converges_on_divider_with_memristor() {
        let _session = obs::session();
        // Series resistor + nonlinear memristor: solve and verify KCL.
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        let r = c
            .add_resistor(top, mid, Resistance::from_kilo_ohms(5.0))
            .unwrap();
        let m = c
            .add_memristor(
                mid,
                Circuit::GROUND,
                Resistance::from_kilo_ohms(10.0),
                IvModel::Sinh { alpha: 3.0 },
            )
            .unwrap();
        let sol = solve_dc(&c).unwrap();
        let i_r = sol.element_current(r).amperes();
        let i_m = sol.element_current(m).amperes();
        assert_close(i_r, i_m, 1e-12);
        // The memristor's extra conduction pulls mid below the linear 2/3 V.
        assert!(sol.voltage(mid).volts() < 2.0 / 3.0);
        assert!(sol.voltage(mid).volts() > 0.0);
    }

    #[test]
    fn newton_iteration_budget() {
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_memristor(
            a,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(1.0),
            IvModel::Sinh { alpha: 2.0 },
        )
        .unwrap();
        // No step ran, so there is no update to report.
        assert!(matches!(
            budget(0).solve(&c),
            Err(CircuitError::NewtonNoConvergence { iterations: 0, last_update })
                if last_update.is_nan()
        ));
    }

    #[test]
    fn superposition_on_linear_network() {
        let _session = obs::session();
        // v(both sources) == v(source1) + v(source2) for a linear circuit.
        let build = |v1: f64, v2: f64| {
            let mut c = Circuit::new();
            let a = c.add_node();
            let b = c.add_node();
            let mid = c.add_node();
            c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(v1))
                .unwrap();
            c.add_voltage_source(b, Circuit::GROUND, Voltage::from_volts(v2))
                .unwrap();
            c.add_resistor(a, mid, Resistance::from_ohms(100.0)).unwrap();
            c.add_resistor(b, mid, Resistance::from_ohms(220.0)).unwrap();
            c.add_resistor(mid, Circuit::GROUND, Resistance::from_ohms(330.0))
                .unwrap();
            let sol = solve_dc(&c).unwrap();
            sol.voltage(mid).volts()
        };
        let both = build(1.0, 2.0);
        let only1 = build(1.0, 0.0);
        let only2 = build(0.0, 2.0);
        assert_close(both, only1 + only2, 1e-9);
    }

    /// The reference the node merging replaced: the full modified nodal
    /// analysis of `circuit` under `lin`, with every node but ground and
    /// every voltage-source branch current an unknown, solved by the dense
    /// LU. Returns the node voltages and the source branch currents, in
    /// element order.
    fn full_mna(
        circuit: &Circuit,
        lin: &[Option<Linearized>],
    ) -> Result<(Vec<f64>, Vec<f64>), CircuitError> {
        let n_v = circuit.node_count() - 1;
        let sources: Vec<(usize, usize, f64)> = circuit
            .elements()
            .iter()
            .filter_map(|element| match *element {
                Element::VoltageSource {
                    npos,
                    nneg,
                    voltage,
                } => Some((npos, nneg, voltage.volts())),
                _ => None,
            })
            .collect();
        let mut a = DenseMatrix::zeros(n_v + sources.len());
        let mut b = vec![0.0; n_v + sources.len()];
        // node id → matrix row (ground has none).
        let row = |node: usize| node.checked_sub(1);
        for (idx, element) in circuit.elements().iter().enumerate() {
            match *element {
                Element::Resistor { n1, n2, .. }
                | Element::Memristor { n1, n2, .. }
                | Element::Capacitor { n1, n2, .. } => {
                    let Some(Linearized { g, ieq }) = lin[idx] else {
                        continue;
                    };
                    for (here, there, ieq) in [(n1, n2, ieq), (n2, n1, -ieq)] {
                        if let Some(r) = row(here) {
                            a[(r, r)] += g;
                            if let Some(c) = row(there) {
                                a[(r, c)] -= g;
                            }
                            b[r] -= ieq;
                        }
                    }
                }
                Element::CurrentSource { from, to, current } => {
                    if let Some(r) = row(from) {
                        b[r] -= current.amperes();
                    }
                    if let Some(r) = row(to) {
                        b[r] += current.amperes();
                    }
                }
                Element::VoltageSource { .. } => {}
            }
        }
        for (k, &(npos, nneg, v)) in sources.iter().enumerate() {
            let col = n_v + k;
            for (node, sign) in [(npos, 1.0), (nneg, -1.0)] {
                if let Some(r) = row(node) {
                    a[(r, col)] += sign;
                    a[(col, r)] += sign;
                }
            }
            b[col] = v;
        }
        let x = a.solve(&b)?;
        let mut voltages = vec![0.0; n_v + 1];
        voltages[1..].copy_from_slice(&x[..n_v]);
        Ok((voltages, x[n_v..].to_vec()))
    }

    /// The full-MNA engine's Newton loop: every step assembles and solves
    /// anew.
    fn full_mna_newton(circuit: &Circuit) -> Result<(Vec<f64>, Vec<f64>), CircuitError> {
        let mut solved = full_mna(circuit, &linearize(circuit, None))?;
        if !circuit.is_nonlinear() {
            return Ok(solved);
        }
        for _ in 0..NEWTON_MAX_ITERATIONS {
            let next = full_mna(circuit, &linearize(circuit, Some(&solved.0)))?;
            let update = max_update(&solved.0, &next.0);
            solved = next;
            if update < NEWTON_TOLERANCE {
                return Ok(solved);
            }
        }
        Err(CircuitError::NewtonNoConvergence {
            iterations: NEWTON_MAX_ITERATIONS,
            last_update: f64::NAN,
        })
    }

    /// What solving a [`floating_case`] must give.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Expect {
        /// A solution; `loops` when a source closes a loop of sources,
        /// which leaves the full-MNA matrix singular.
        Solves { loops: bool },
        /// `InvalidElement`: a loop of sources that does not sum to zero.
        Conflict,
        /// `SingularSystem`: an island with no conductive path to ground.
        Singular,
    }

    /// A seeded random circuit with voltage sources anywhere, and what
    /// solving it must give. Nodes 1..=n (n from 2 to 11) each reach
    /// ground through a resistor to a lower node; more resistors of
    /// 10 Ω–100 kΩ (sinh cells when `sinh`) and current sources join
    /// random pairs. One to four voltage sources, each the difference of
    /// two random quarter-volt node potentials, form a chain, a star, a
    /// loop (conflicting when one value is off by a quarter volt) or
    /// random pairs. A quarter of the circuits gain an island: two to five
    /// nodes, a floating source between the first two, random conductors
    /// and maybe a current source among them, and no conductive path to
    /// the rest.
    fn floating_case(seed: u64, sinh: bool) -> (Circuit, Expect) {
        let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut c = Circuit::new();
        let n = 2 + rng.below(10);
        c.add_nodes(n);
        let conductor = |c: &mut Circuit, rng: &mut Xorshift, n1: usize, n2: usize| {
            let r = Resistance::from_ohms(10.0 * 10f64.powf(4.0 * rng.uniform()));
            let alpha = 1.0 + 2.0 * rng.uniform();
            if sinh && alpha > 1.5 {
                c.add_memristor(n1, n2, r, IvModel::Sinh { alpha }).unwrap();
            } else {
                c.add_resistor(n1, n2, r).unwrap();
            }
        };
        for node in 1..=n {
            let to = rng.below(node);
            conductor(&mut c, &mut rng, node, to);
        }
        for _ in 0..rng.below(n + 1) {
            let (n1, n2) = (rng.below(n + 1), rng.below(n + 1));
            if n1 != n2 {
                conductor(&mut c, &mut rng, n1, n2);
            }
        }
        for _ in 0..rng.below(3) {
            let (from, to) = (rng.below(n + 1), rng.below(n + 1));
            let i = Current::from_amperes(2e-3 * (rng.uniform() - 0.5));
            c.add_current_source(from, to, i).unwrap();
        }

        // Quarter-volt potentials: every source value and every sum of
        // them along a path is exact.
        let quarter = |rng: &mut Xorshift| rng.below(17) as f64 / 4.0 - 2.0;
        let mut potential: Vec<f64> = (0..=n).map(|_| quarter(&mut rng)).collect();
        potential[Circuit::GROUND] = 0.0;
        let count = 1 + rng.below(4);
        let mut order: Vec<usize> = (0..=n).collect();
        for k in (1..order.len()).rev() {
            order.swap(k, rng.below(k + 1));
        }
        let topology = rng.below(5);
        let pairs: Vec<(usize, usize)> = match topology {
            // A chain.
            0 => order.windows(2).take(count).map(|w| (w[0], w[1])).collect(),
            // A star.
            1 => order[1..]
                .iter()
                .take(count)
                .map(|&leaf| (order[0], leaf))
                .collect(),
            // A loop, consistent (2) or conflicting (3).
            2 | 3 => {
                let ring = &order[..(count + 1).min(order.len())];
                (0..ring.len())
                    .map(|k| (ring[k], ring[(k + 1) % ring.len()]))
                    .collect()
            }
            // Random pairs.
            _ => (0..count)
                .map(|_| (rng.below(n + 1), rng.below(n + 1)))
                .filter(|(p, q)| p != q)
                .collect(),
        };
        let mut values = Vec::new();
        for &(p, q) in &pairs {
            let (npos, nneg) = if rng.below(2) == 0 { (p, q) } else { (q, p) };
            values.push((npos, nneg, potential[npos] - potential[nneg]));
        }
        let off = (topology == 3).then(|| rng.below(values.len()));
        if let Some(k) = off {
            values[k].2 += 0.25;
        }
        for &(npos, nneg, v) in &values {
            c.add_voltage_source(npos, nneg, Voltage::from_volts(v))
                .unwrap();
        }

        // Which sources close a loop, found apart from the solver's walk.
        let root = |component: &[usize], mut x: usize| {
            while component[x] != x {
                x = component[x];
            }
            x
        };
        let joined = |skip: Option<usize>| {
            let mut component: Vec<usize> = (0..=n).collect();
            let mut loops = false;
            for (k, &(npos, nneg, _)) in values.iter().enumerate() {
                let (p, q) = (root(&component, npos), root(&component, nneg));
                if Some(k) != skip {
                    loops |= p == q;
                    component[p] = q;
                }
            }
            (component, loops)
        };
        let loops = joined(None).1;
        let conflict = off.is_some_and(|k| {
            let component = joined(Some(k)).0;
            root(&component, values[k].0) == root(&component, values[k].1)
        });

        let island = rng.below(4) == 0;
        if island {
            let nodes = c.add_nodes(2 + rng.below(4));
            let v = Voltage::from_volts(quarter(&mut rng));
            c.add_voltage_source(nodes[0], nodes[1], v).unwrap();
            for k in 1..nodes.len() {
                for j in 0..k {
                    if rng.below(2) == 0 {
                        conductor(&mut c, &mut rng, nodes[j], nodes[k]);
                    }
                }
            }
            if rng.below(2) == 0 {
                let i = Current::from_amperes(1e-3 * rng.uniform());
                c.add_current_source(nodes[0], nodes[nodes.len() - 1], i)
                    .unwrap();
            }
        }
        let expect = if conflict {
            Expect::Conflict
        } else if island {
            Expect::Singular
        } else {
            Expect::Solves { loops }
        };
        (c, expect)
    }

    /// A seeded xorshift generator.
    struct Xorshift(u64);

    impl Xorshift {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 >> 11
        }

        /// Uniform in `0..n`.
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Uniform in `[0, 1)`.
        fn uniform(&mut self) -> f64 {
            self.next() as f64 / (1u64 << 53) as f64
        }
    }

    /// Largest conductance of the circuit's resistors and cells.
    fn max_conductance(circuit: &Circuit) -> f64 {
        circuit
            .elements()
            .iter()
            .filter_map(|element| match element {
                Element::Resistor { resistance, .. } => Some(1.0 / resistance.ohms()),
                Element::Memristor { state, .. } => Some(1.0 / state.ohms()),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Largest voltage-source error `|v(npos) − v(nneg) − V|`.
    fn source_error(circuit: &Circuit, solution: &DcSolution) -> f64 {
        circuit
            .elements()
            .iter()
            .filter_map(|element| match *element {
                Element::VoltageSource {
                    npos,
                    nneg,
                    voltage,
                } => Some(
                    (solution.voltage(npos).volts()
                        - solution.voltage(nneg).volts()
                        - voltage.volts())
                    .abs(),
                ),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Node merging against the full-MNA oracle on seeded random circuits
    /// with floating sources: linear circuits within 1e-11 of max |v|
    /// (source currents within 1e-11 of g_max·v_max), sinh cells within
    /// 2 × `NEWTON_TOLERANCE` of the oracle's Newton. Consistent loops of
    /// sources solve, conflicting ones are `InvalidElement`, islands are
    /// `SingularSystem`. Every linear solution closes KCL, counting source
    /// currents, within 1e-13 of g_max·v_max and balances the power within
    /// 1e-13 of g_max·v_max²; every source holds its value; and a batch
    /// read is bit-identical to the one-shot solve. Every sinh case that the
    /// oracle's Newton answers, the merged solve answers within the same
    /// step budget: only kept steps count against it.
    #[test]
    fn merged_sources_match_the_full_mna_oracle() {
        let _session = obs::session();
        let mut tally = std::collections::BTreeMap::<&str, usize>::new();
        let mut count = |what| *tally.entry(what).or_default() += 1;
        // Worst ratio of each check to its scale.
        let mut worst = [0.0f64; 4];
        for seed in 0..4000u64 {
            let sinh = seed % 4 == 3;
            let (circuit, expect) = floating_case(seed, sinh);
            let case = format!("seed {seed}: {expect:?}");
            let oracle = || full_mna_newton(&circuit);
            let sol = match (expect, solve_dc(&circuit)) {
                (Expect::Conflict, Err(CircuitError::InvalidElement { .. })) => {
                    count("conflicts");
                    continue;
                }
                (Expect::Singular, Err(CircuitError::SingularSystem { .. })) => {
                    count("singular");
                    continue;
                }
                (Expect::Solves { .. }, Ok(sol)) => sol,
                (Expect::Solves { loops }, Err(e)) if sinh => {
                    // A loop of sources leaves the oracle's matrix singular.
                    assert!(
                        loops || oracle().is_err(),
                        "{case}: the oracle's Newton answers, the merged solve: {e}"
                    );
                    count("sinh, neither answers");
                    continue;
                }
                (_, got) => panic!("{case}: got {got:?}"),
            };
            let v_max = sol.voltages().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let scale = max_conductance(&circuit) * v_max;
            let off = source_error(&circuit, &sol);
            assert!(
                off <= 8.0 * f64::EPSILON * v_max,
                "{case}: a source is off by {off:e} V"
            );

            let volts: Vec<Voltage> = source_volts(&circuit)
                .into_iter()
                .map(Voltage::from_volts)
                .collect();
            let read = Solver::default()
                .solve_batch(&circuit, &[Rhs::from_voltages(&volts)])
                .unwrap_or_else(|e| panic!("{case}: batch read failed: {e}"));
            assert_eq!(bits(read[0].voltages()), bits(sol.voltages()), "{case}");
            let currents = |s: &DcSolution| {
                (0..circuit.element_count())
                    .map(|e| s.element_current(e).amperes().to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(currents(&read[0]), currents(&sol), "{case}");

            if !sinh {
                let kcl = kcl_with_sources(&circuit, &sol);
                assert!(kcl <= 1e-13 * scale, "{case}: KCL off by {kcl:e} A");
                let power = (sol.source_power(&circuit).watts()
                    - sol.dissipated_power(&circuit).watts())
                .abs();
                assert!(
                    power <= 1e-13 * scale * v_max,
                    "{case}: power off by {power:e} W"
                );
                if v_max > 0.0 {
                    worst[0] = worst[0].max(kcl / scale);
                    worst[1] = worst[1].max(power / (scale * v_max));
                }
            }
            if expect == (Expect::Solves { loops: true }) {
                count("loops");
                continue;
            }
            let Ok((reference, branch)) = oracle() else {
                assert!(sinh, "{case}: the oracle failed a linear circuit");
                count("sinh, oracle unanswered");
                continue;
            };
            let moved = max_update(sol.voltages(), &reference);
            if sinh {
                count("sinh");
                assert!(
                    moved <= 2.0 * NEWTON_TOLERANCE,
                    "{case}: {moved:e} V from the oracle's Newton"
                );
                worst[3] = worst[3].max(moved);
                continue;
            }
            count("linear");
            assert!(
                moved <= 1e-11 * v_max,
                "{case}: {moved:e} V from the oracle"
            );
            if v_max > 0.0 {
                worst[2] = worst[2].max(moved / v_max);
            }
            let sources = circuit
                .elements()
                .iter()
                .enumerate()
                .filter(|(_, e)| matches!(e, Element::VoltageSource { .. }));
            for ((idx, _), want) in sources.zip(branch) {
                let got = sol.element_current(idx).amperes();
                assert!(
                    (got - want).abs() <= 1e-11 * scale,
                    "{case}: source {idx} carries {got:e} A, the oracle {want:e} A"
                );
            }
        }
        let worst = worst.map(|w| format!("{w:.1e}"));
        println!("{tally:?}; worst KCL, power, linear and sinh deviation: {worst:?}");
        for (what, least) in [
            ("linear", 1200),
            ("sinh", 400),
            ("loops", 400),
            ("conflicts", 600),
            ("singular", 600),
        ] {
            let seen = tally.get(what).copied().unwrap_or(0);
            assert!(seen >= least, "only {seen} {what} cases: {tally:?}");
        }
    }

    /// A grounded circuit with a resistor island beside it is
    /// `SingularSystem`, one-shot and as a batch read on a handle that
    /// first solved the divider alone: a 1 V divider tied to ground, and
    /// three to six nodes joined by resistors of 10 Ω–100 kΩ with no
    /// conductive path to the rest. The LDLᵀ pivot test alone took the
    /// rounding residue of the island's last pivot for a pivot in 168 of
    /// these 500 cases, so every new structure is checked by union-find.
    #[test]
    fn grounded_circuits_with_a_resistor_island_are_singular() {
        let _session = obs::session();
        let mut divider = Circuit::new();
        let top = divider.add_node();
        let mid = divider.add_node();
        divider
            .add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        divider
            .add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        divider
            .add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        let read = [Rhs::from_voltages(&[Voltage::from_volts(1.0)])];
        for seed in 0..500u64 {
            let mut rng = Xorshift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let mut c = divider.clone();
            let island = c.add_nodes(3 + rng.below(4));
            let resistor = |c: &mut Circuit, rng: &mut Xorshift, n1: usize, n2: usize| {
                let r = Resistance::from_ohms(10.0 * 10f64.powf(4.0 * rng.uniform()));
                c.add_resistor(n1, n2, r).unwrap();
            };
            // A random tree over the island, then extra resistors.
            for k in 1..island.len() {
                let to = island[rng.below(k)];
                resistor(&mut c, &mut rng, island[k], to);
            }
            for _ in 0..rng.below(island.len()) {
                let (n1, n2) = (rng.below(island.len()), rng.below(island.len()));
                if n1 != n2 {
                    resistor(&mut c, &mut rng, island[n1], island[n2]);
                }
            }
            assert!(
                matches!(solve_dc(&c), Err(CircuitError::SingularSystem { .. })),
                "seed {seed}: one-shot solve"
            );
            let mut handle = Solver::default();
            assert_eq!(handle.solve(&divider).unwrap().voltage(mid).volts(), 0.5);
            assert!(
                matches!(
                    handle.solve_batch(&c, &read),
                    Err(CircuitError::SingularSystem { .. })
                ),
                "seed {seed}: batch read"
            );
        }
    }
}
