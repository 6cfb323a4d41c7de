//! DC operating-point analysis.
//!
//! [`solve_dc`] computes the DC solution of a [`Circuit`]:
//!
//! 1. **Linear circuits** are solved in one shot. If every voltage source is
//!    referenced to ground (true for every crossbar netlist), the nodal
//!    matrix reduced over the driven nodes is symmetric positive-definite,
//!    and the sparse LDLᵀ engine of [`crate::ldl`] solves it at every size.
//!    Circuits with floating sources use a dense LU over the full
//!    modified-nodal-analysis system (`FullMna`).
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
//!    kept step moves no node by `newton_tolerance` or more. Every linear
//!    solve stamps the same coordinates, so the sparse engine analyzes the
//!    pattern once (`SparseWorkspace`). Full MNA holds no factor, so with
//!    floating sources every step is a Newton step.
//!
//! **Reads in lockstep.** The chord loop (`solve_reads`) solves any number
//! of reads of one structure — one circuit under different source values —
//! together; [`solve_dc`] is its one-read case, and
//! [`crate::batch::PreparedSystem`] hands it blocks of up to eight. A read's
//! source values enter only as the voltages of its driven nodes
//! (`Sources::drive`): the low-field matrix, the KCL imbalance, the
//! linearization and `finish` never read them. So the reads share one
//! low-field assembly and factorization, and each sweep moves every read
//! still in the block with one multi-column backsolve. A read whose chord
//! step fails to halve its residual leaves the block; once the block is
//! done, it continues alone from its kept iterate with the one-read steps —
//! a Newton refactor, then chord steps on that factor. Every read takes
//! exactly the steps it would take alone, so its result is bit-identical
//! to a one-read solve.
//!
//! Each system class has one assembly, shared with
//! [`crate::batch::PreparedSystem`]: `assemble_reduced_into` and
//! `FullMna::build`. One-shot and prepared solves therefore stamp, sum
//! and factor identically. Every DC solution leaves through `finish`,
//! which rejects NaN or infinite voltages and currents with
//! [`CircuitError::NonFiniteSolution`].

use mnsim_obs as obs;
use mnsim_tech::memristor::IvModel;

static DC_SOLVES: obs::Counter = obs::Counter::new("circuit.solve.dc_solves");
static DC_SPAN: obs::Span = obs::Span::new("circuit.solve_dc", obs::Level::Stage);
static LINEAR_SPARSE: obs::Counter = obs::Counter::new("circuit.solve.sparse_lu");
static LINEAR_FULL_MNA: obs::Counter = obs::Counter::new("circuit.solve.full_mna");
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

/// A chord step is kept only if it cuts the max-norm KCL residual to at
/// most this fraction of the kept one.
const CHORD_CONTRACTION: f64 = 0.5;

use crate::dense::{DenseMatrix, LuFactors};
use crate::error::CircuitError;
use crate::ldl::SparseLdl;
use crate::mna::{Circuit, DcSolution, Element};
use crate::sparse::TripletMatrix;

/// Options for [`solve_dc`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Newton convergence threshold on the largest node-voltage update of
    /// a kept step, in volts.
    pub newton_tolerance: f64,
    /// Cap on the steps of a non-linear solve, chord or Newton.
    pub newton_max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            newton_tolerance: 1e-9,
            newton_max_iterations: 60,
        }
    }
}

/// The sparse factorization one circuit structure carries from one linear
/// solve to the next: across the steps of a DC solve (whose chord steps
/// backsolve on it), the steps of a transient run, and the reads and value
/// overlays of a [`crate::batch::PreparedSystem`].
///
/// It holds the stamp coordinates of the last solve, the map from each
/// stamp to its CSC value slot, and the factor (whose analysis holds the
/// CSC pattern). A solve whose stamps have the held coordinates scatters
/// its values through the map in stamp order — no sort, no hash — and
/// refactors only when the summed values changed. Other coordinates
/// rebuild the map, and re-analyze only when the summed pattern changed.
/// The first solve of a pattern goes through the same map, so duplicate
/// stamps are summed in one order on every path, and since a refactor is
/// bit-identical to a fresh factorization, the solutions never depend on
/// what the workspace solved before.
///
/// It also keeps the buffers of the last reduced system assembled through
/// it, and refills them in place: a Newton loop or a transient run
/// allocates its stamps, right-hand-side plan and node numbering once, not
/// once per linear solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseWorkspace {
    /// Assembly buffers of the last reduced system assembled through this
    /// workspace: the node numbering, the stamps and the right-hand-side
    /// plan a prepared system replays.
    pub(crate) system: ReducedSystem,
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
}

impl SparseWorkspace {
    /// Makes the held factor factor the stamped matrix, as cheaply as the
    /// held state allows.
    pub(crate) fn factor(&mut self, stamps: &TripletMatrix) -> Result<(), CircuitError> {
        let entries = stamps.entries();
        let mapped = self.ldl.is_some()
            && entries.len() == self.coords.len()
            && entries
                .iter()
                .zip(&self.coords)
                .all(|(&(r, c, _), &rc)| (r, c) == rc);
        if !mapped {
            let (csc, slots) = stamps.to_csc_with_slots();
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
                self.ldl = Some(Box::new(SparseLdl::factor(&csc)?));
                self.values = csc.into_values();
                return Ok(());
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
        Ok(())
    }

    /// Assembles the reduced system of `circuit` under `lin` into the held
    /// buffers ([`assemble_reduced_into`]) and, when it has unknowns, makes
    /// the held factor factor it: the one assemble-and-factor of one-shot
    /// solves, Newton steps, prepared builds and value refreshes.
    pub(crate) fn refill(
        &mut self,
        circuit: &Circuit,
        lin: &[Option<Linearized>],
        is_driven: &[bool],
    ) -> Result<(), CircuitError> {
        let mut system = std::mem::take(&mut self.system);
        assemble_reduced_into(&mut system, circuit, lin, is_driven);
        let factored = if system.unknowns == 0 {
            Ok(())
        } else {
            self.factor(&system.stamps)
        };
        self.system = system;
        factored
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
    /// (ground and driven nodes; the rest is ignored) into `next`: a copy
    /// of `voltages` with every unknown node at its solution.
    pub(crate) fn solve_read(
        &self,
        voltages: &[f64],
        next: &mut Vec<f64>,
    ) -> Result<(), CircuitError> {
        let system = &self.system;
        let assemble = ASSEMBLE_SPAN.enter();
        let mut x = replay_rhs(&system.ops, system.unknowns, |node| voltages[node]);
        drop(assemble);
        next.clear();
        next.extend_from_slice(voltages);
        if system.unknowns > 0 {
            LINEAR_SPARSE.inc();
            self.backsolve(&mut [&mut x])?;
            system.scatter(next, &x);
        }
        Ok(())
    }

    /// Rough resident size in bytes: the assembly buffers, the slot map,
    /// the values, and the held factor with its analyzed pattern.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.system.approx_bytes()
            + self.coords.len() * 16
            + self.slots.len() * 8
            + (self.values.len() + self.next_values.len()) * 8
            + self.ldl.as_deref().map_or(0, SparseLdl::approx_bytes)
    }
}

/// One linearized conductive branch: `I(n1→n2) = g·(v1 − v2) + i_eq`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Linearized {
    pub(crate) g: f64,
    pub(crate) ieq: f64,
}

/// Solves the DC operating point of `circuit`.
///
/// # Errors
///
/// Propagates solver failures ([`CircuitError::SingularSystem`],
/// [`CircuitError::NewtonNoConvergence`]), rejects a solution with a NaN or
/// infinite voltage or current ([`CircuitError::NonFiniteSolution`]), and
/// reports topology errors (a node driven by two conflicting sources).
pub fn solve_dc(circuit: &Circuit, options: &SolveOptions) -> Result<DcSolution, CircuitError> {
    solve_dc_in(circuit, options, &mut SparseWorkspace::default())
}

/// [`solve_dc`] on a caller-held [`SparseWorkspace`], so repeated solves of
/// one structure share its analysis: the one-read case of `solve_reads`.
pub(crate) fn solve_dc_in(
    circuit: &Circuit,
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
) -> Result<DcSolution, CircuitError> {
    let _span = DC_SPAN.enter();
    DC_SOLVES.inc();
    // Every memristor at its low-field resistance. The refill also
    // refactors the held factor back to the low-field matrix if an earlier
    // solve left a Jacobian there, so the result never depends on what the
    // workspace solved before.
    let lin = linearize(circuit, None);
    let assemble = ASSEMBLE_SPAN.enter();
    let sources = Sources::of(circuit);
    let volts = source_volts(circuit);
    let drive = sources.drive(&volts)?;
    if !sources.all_grounded() {
        drop(assemble);
        return solve_full_mna(circuit, lin, &volts, options);
    }
    workspace.refill(circuit, &lin, &sources.is_driven)?;
    drop(assemble);
    let mut outcomes = solve_reads(
        circuit,
        &lin,
        &sources.is_driven,
        vec![Ok(drive)],
        options,
        workspace,
    );
    outcomes.pop().ok_or(CircuitError::DimensionMismatch {
        expected: 1,
        actual: 0,
        what: "read outcome count",
    })?
}

/// One read in the chord loop: its kept iterate and the state of its
/// steps.
#[derive(Debug)]
struct Lane {
    /// Node voltages of the kept iterate. Ground stays at 0 V and every
    /// driven node at the read's source value, so a linear solve replays
    /// its right-hand side from here.
    voltages: Vec<f64>,
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
    /// Steps taken, chord or Newton, against `newton_max_iterations`.
    steps: usize,
    /// The read's result once it has one; `None` while it steps.
    outcome: Option<Result<DcSolution, CircuitError>>,
}

impl Lane {
    /// A read at `drive`, or one that already failed with `drive`'s error.
    fn new(drive: Result<Vec<f64>, CircuitError>) -> Lane {
        let (voltages, outcome) = match drive {
            Ok(voltages) => (voltages, None),
            Err(e) => (Vec::new(), Some(Err(e))),
        };
        Lane {
            voltages,
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
    fn converge(&mut self, circuit: &Circuit) -> Result<DcSolution, CircuitError> {
        if !self.residual.is_nan() {
            KCL_RESIDUAL.record(self.residual);
        }
        let voltages = std::mem::take(&mut self.voltages);
        finish(circuit, &linearize(circuit, Some(&voltages)), voltages)
    }

    /// The error of a read whose step budget ran out.
    fn exhausted(&self, options: &SolveOptions) -> CircuitError {
        CircuitError::NewtonNoConvergence {
            iterations: options.newton_max_iterations,
            last_update: self.last_update,
        }
    }
}

/// The chord-Newton loop over the reads of one grounded-source structure
/// (see the module docs). `workspace` holds the factored low-field system
/// of `circuit` under `lin` — for a linear circuit its only system — and
/// `is_driven` marks the driven nodes. Each entry of `drives` is one
/// read's fixed node voltages (`Sources::drive`) or the error that read
/// already failed with. Returns one outcome per read, in order.
pub(crate) fn solve_reads(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    is_driven: &[bool],
    drives: Vec<Result<Vec<f64>, CircuitError>>,
    options: &SolveOptions,
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
            lane.outcome = Some(finish(circuit, lin, voltages));
        }
    } else if chord {
        let mut kcl = Kcl::default();
        for lane in lanes.iter_mut().filter(|lane| lane.open()) {
            lane.residual =
                kcl.imbalance(circuit, &lane.voltages, &workspace.system, &mut lane.inflow);
        }
        chord_sweeps(circuit, &mut lanes, options, workspace, &mut kcl);
    }
    lanes
        .into_iter()
        .map(|mut lane| match lane.outcome.take() {
            Some(outcome) => outcome,
            // The read left the block, or there was none to take.
            None => continue_alone(circuit, is_driven, &mut lane, options, workspace, chord),
        })
        .collect()
}

/// The first solve of every open lane: one multi-column backsolve on the
/// held factor, with each read's right-hand side replayed from its driven
/// voltages.
fn low_field_solve(lanes: &mut [Lane], workspace: &SparseWorkspace) {
    let system = &workspace.system;
    let assemble = ASSEMBLE_SPAN.enter();
    for lane in lanes.iter_mut().filter(|lane| lane.open()) {
        lane.inflow = replay_rhs(&system.ops, system.unknowns, |node| lane.voltages[node]);
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
            Ok(()) => system.scatter(&mut lane.voltages, &lane.inflow),
            Err(e) => lane.outcome = Some(Err(e.clone())),
        }
    }
}

/// Chord steps on the held factor for every open lane, in lockstep: each
/// sweep moves them all with one multi-column backsolve. A lane leaves
/// when it converges or runs out of steps (its outcome is set), or when
/// its step fails to contract: that step is undone, and its outcome stays
/// `None` for a Newton step to continue it.
fn chord_sweeps(
    circuit: &Circuit,
    lanes: &mut [Lane],
    options: &SolveOptions,
    workspace: &SparseWorkspace,
    kcl: &mut Kcl,
) {
    let system = &workspace.system;
    let mut trial = Vec::new();
    let mut block: Vec<&mut Lane> = lanes.iter_mut().filter(|lane| lane.open()).collect();
    while !block.is_empty() {
        block.retain_mut(|lane| {
            if lane.steps < options.newton_max_iterations {
                return true;
            }
            lane.outcome = Some(Err(lane.exhausted(options)));
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
            lane.steps += 1;
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
            lane.residual = residual;
            lane.last_update = max_update(&lane.voltages, &trial);
            std::mem::swap(&mut lane.voltages, &mut trial);
            if lane.last_update < options.newton_tolerance {
                lane.outcome = Some(lane.converge(circuit));
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
    is_driven: &[bool],
    lane: &mut Lane,
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
    chord: bool,
) -> Result<DcSolution, CircuitError> {
    let mut kcl = Kcl::default();
    let mut next = Vec::new();
    loop {
        if lane.steps == options.newton_max_iterations {
            return Err(lane.exhausted(options));
        }
        lane.steps += 1;
        NEWTON_ITERATIONS.inc();
        let jacobian = linearize(circuit, Some(&lane.voltages));
        let assemble = ASSEMBLE_SPAN.enter();
        workspace.refill(circuit, &jacobian, is_driven)?;
        drop(assemble);
        workspace.solve_read(&lane.voltages, &mut next)?;
        if chord {
            lane.residual = kcl.imbalance(circuit, &next, &workspace.system, &mut lane.inflow);
        }
        lane.last_update = max_update(&lane.voltages, &next);
        std::mem::swap(&mut lane.voltages, &mut next);
        if lane.last_update < options.newton_tolerance {
            return lane.converge(circuit);
        }
        if chord {
            chord_sweeps(
                circuit,
                std::slice::from_mut(lane),
                options,
                workspace,
                &mut kcl,
            );
            if let Some(outcome) = lane.outcome.take() {
                return outcome;
            }
        }
    }
}

/// The Newton loop on full MNA, for circuits with floating sources at
/// source values `volts`: full MNA holds no factor, so every step
/// assembles and factors anew. `lin` is the low-field linearization.
pub(crate) fn solve_full_mna(
    circuit: &Circuit,
    lin: Vec<Option<Linearized>>,
    volts: &[f64],
    options: &SolveOptions,
) -> Result<DcSolution, CircuitError> {
    let step = |lin: &[Option<Linearized>]| {
        LINEAR_FULL_MNA.inc();
        FullMna::build(circuit, lin)?.solve(volts)
    };
    let mut voltages = step(&lin)?;
    if !circuit.is_nonlinear() {
        return finish(circuit, &lin, voltages);
    }
    let mut last_update = f64::NAN;
    for _ in 0..options.newton_max_iterations {
        NEWTON_ITERATIONS.inc();
        let next = step(&linearize(circuit, Some(&voltages)))?;
        last_update = max_update(&voltages, &next);
        voltages = next;
        if last_update < options.newton_tolerance {
            let lin = linearize(circuit, Some(&voltages));
            return finish(circuit, &lin, voltages);
        }
    }
    Err(CircuitError::NewtonNoConvergence {
        iterations: options.newton_max_iterations,
        last_update,
    })
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
    /// the net current flowing into each unknown's node, `r(x)` — from the
    /// element currents: resistors at `(1/R)·Δv`, cells on their I-V
    /// curve, current sources at their value. Returns its max-norm in
    /// amperes, or NaN when a current is not finite. `system` numbers the
    /// unknowns.
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
#[derive(Debug, Clone, Default)]
pub(crate) struct Sources {
    /// Per source, in element order: the node a grounded source fixes and
    /// whether its value is negated there (its `npos` at ground), or
    /// `None` for a floating source.
    bindings: Vec<Option<(usize, bool)>>,
    /// Per node: whether a grounded source fixes it.
    pub(crate) is_driven: Vec<bool>,
}

impl Sources {
    /// The source binding of `circuit`.
    pub(crate) fn of(circuit: &Circuit) -> Sources {
        let mut is_driven = vec![false; circuit.node_count()];
        let mut bindings = Vec::new();
        for element in circuit.elements() {
            if let Element::VoltageSource { npos, nneg, .. } = *element {
                let binding = if nneg == Circuit::GROUND {
                    Some((npos, false))
                } else if npos == Circuit::GROUND {
                    Some((nneg, true))
                } else {
                    None
                };
                if let Some((node, _)) = binding {
                    is_driven[node] = true;
                }
                bindings.push(binding);
            }
        }
        Sources {
            bindings,
            is_driven,
        }
    }

    /// Number of voltage sources.
    pub(crate) fn len(&self) -> usize {
        self.bindings.len()
    }

    /// `true` if every source has one terminal at ground.
    pub(crate) fn all_grounded(&self) -> bool {
        self.bindings.iter().all(Option::is_some)
    }

    /// The node voltages that the source values `volts` (one per source,
    /// in element order) fix: every driven node at its source's value,
    /// ground and every other node at 0 V.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidElement`] when two sources drive one node to
    /// different values.
    pub(crate) fn drive(&self, volts: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let mut driven = vec![None; self.is_driven.len()];
        for (&binding, &v) in self.bindings.iter().zip(volts) {
            let Some((node, negated)) = binding else {
                continue;
            };
            let value = if negated { -v } else { v };
            if let Some(existing) = driven[node].replace(value) {
                if existing != value {
                    return Err(CircuitError::InvalidElement {
                        reason: format!("node {node} driven to both {existing} V and {value} V"),
                    });
                }
            }
        }
        // Scaled ops only name ground and driven nodes.
        Ok(driven
            .into_iter()
            .enumerate()
            .map(|(node, v)| v.filter(|_| node != Circuit::GROUND).unwrap_or(0.0))
            .collect())
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

/// Solves the linearized circuit, returning the full node-voltage vector.
/// A reduced system factors through `workspace`.
pub(crate) fn solve_linear(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    workspace: &mut SparseWorkspace,
) -> Result<Vec<f64>, CircuitError> {
    let assemble = ASSEMBLE_SPAN.enter();
    let sources = Sources::of(circuit);
    let volts = source_volts(circuit);
    let drive = sources.drive(&volts)?;
    if !sources.all_grounded() {
        drop(assemble);
        LINEAR_FULL_MNA.inc();
        return FullMna::build(circuit, lin)?.solve(&volts);
    }
    workspace.refill(circuit, lin, &sources.is_driven)?;
    drop(assemble);
    let mut voltages = Vec::new();
    workspace.solve_read(&drive, &mut voltages)?;
    Ok(voltages)
}

/// One right-hand-side assembly step, recorded in stamp order and replayed
/// per solve (so a prepared system re-driven with new source voltages
/// assembles exactly what a one-shot solve would).
#[derive(Debug, Clone, Copy)]
pub(crate) enum BOp {
    /// `b[u] += g · v(node)` where `v` is the driven voltage of a fixed
    /// node (0 V for ground).
    Scaled { u: usize, node: usize, g: f64 },
    /// `b[u] += c` (equivalent-current and current-source terms).
    Const { u: usize, c: f64 },
    /// `b[u] = rhs[k]` (full-MNA source row).
    Source { u: usize, k: usize },
}

/// The reduced nodal system of one linearization: unknowns are all nodes
/// that are neither ground nor driven, and the matrix is SPD.
#[derive(Debug, Clone, Default)]
pub(crate) struct ReducedSystem {
    /// node → unknown index (`usize::MAX` for ground and driven nodes).
    pub(crate) index: Vec<usize>,
    pub(crate) unknowns: usize,
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
    is_driven: &[bool],
) -> ReducedSystem {
    let mut system = ReducedSystem::default();
    assemble_reduced_into(&mut system, circuit, lin, is_driven);
    system
}

impl ReducedSystem {
    /// Rough resident size of the buffers in bytes.
    fn approx_bytes(&self) -> usize {
        self.index.capacity() * 8
            + self.stamps.capacity() * 24
            + self.ops.capacity() * std::mem::size_of::<BOp>()
    }

    /// Sets every unknown node of `voltages` to its entry of `x`.
    fn scatter(&self, voltages: &mut [f64], x: &[f64]) {
        for (v, &u) in voltages.iter_mut().zip(&self.index) {
            if u != usize::MAX {
                *v = x[u];
            }
        }
    }

    /// Moves every unknown node of `voltages` by its entry of `dx`.
    fn step(&self, voltages: &mut [f64], dx: &[f64]) {
        for (v, &u) in voltages.iter_mut().zip(&self.index) {
            if u != usize::MAX {
                *v += dx[u];
            }
        }
    }
}

/// Assembles the reduced system of `circuit` under the linearization `lin`
/// into `system`, with `is_driven[node]` marking the nodes a grounded
/// source fixes. This is the one reduced assembly behind [`solve_dc`] and
/// [`crate::batch::PreparedSystem`]. The buffers keep their capacity, and
/// the stamps and the plan come out in the same order as from a fresh
/// assembly.
pub(crate) fn assemble_reduced_into(
    system: &mut ReducedSystem,
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    is_driven: &[bool],
) {
    let ReducedSystem {
        index, unknowns, ..
    } = system;
    index.clear();
    index.resize(circuit.node_count(), usize::MAX);
    *unknowns = 0;
    for (slot, &driven) in index.iter_mut().zip(is_driven).skip(1) {
        if !driven {
            *slot = *unknowns;
            *unknowns += 1;
        }
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
        index, stamps, ops, ..
    } = system;
    let mut stamp = |r: usize, c: usize, g: f64| {
        if with_stamps {
            stamps.add(r, c, g);
        }
    };
    // Ground and driven nodes are the ones without an unknown.
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
            Element::VoltageSource { .. } => {} // encoded via `is_driven`
        }
    }
}

/// Replays a reduced system's right-hand-side plan with `voltage(node)`
/// giving the voltage of every fixed node.
pub(crate) fn replay_rhs(ops: &[BOp], unknowns: usize, voltage: impl Fn(usize) -> f64) -> Vec<f64> {
    let mut b = vec![0.0; unknowns];
    for op in ops {
        match *op {
            BOp::Scaled { u, node, g } => b[u] += g * voltage(node),
            BOp::Const { u, c } => b[u] += c,
            BOp::Source { .. } => {}
        }
    }
    b
}

/// The factored full modified-nodal-analysis system of one linearization,
/// for circuits with floating sources: every node but ground and every
/// voltage-source branch current is an unknown. The matrix does not
/// depend on the source values, only the `b[col] = V` rows of the
/// right-hand-side plan do, so a [`crate::batch::PreparedSystem`] keeps
/// this and each input costs one replay and one backsolve. A one-shot
/// solve builds it and solves once.
#[derive(Debug, Clone)]
pub(crate) struct FullMna {
    /// Unknown node voltages (every node but ground).
    n_v: usize,
    /// The right-hand-side plan, in stamp order.
    ops: Vec<BOp>,
    lu: LuFactors,
}

impl FullMna {
    /// Assembles and factors the full-MNA system of `circuit` under `lin`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::SingularSystem`] from the dense LU.
    pub(crate) fn build(
        circuit: &Circuit,
        lin: &[Option<Linearized>],
    ) -> Result<Self, CircuitError> {
        let n_v = circuit.node_count() - 1;
        let sources: Vec<usize> = circuit
            .elements()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, Element::VoltageSource { .. }))
            .map(|(i, _)| i)
            .collect();
        let mut a = DenseMatrix::zeros(n_v + sources.len());
        let mut ops = Vec::new();

        // node id → matrix row (ground has none).
        let row = |node: usize| (node != Circuit::GROUND).then(|| node - 1);

        for (idx, element) in circuit.elements().iter().enumerate() {
            match element {
                Element::Resistor { n1, n2, .. }
                | Element::Memristor { n1, n2, .. }
                | Element::Capacitor { n1, n2, .. } => {
                    let Some(Linearized { g, ieq }) = lin[idx] else {
                        continue;
                    };
                    if let Some(r1) = row(*n1) {
                        a[(r1, r1)] += g;
                        if let Some(r2) = row(*n2) {
                            a[(r1, r2)] -= g;
                        }
                        ops.push(BOp::Const { u: r1, c: -ieq });
                    }
                    if let Some(r2) = row(*n2) {
                        a[(r2, r2)] += g;
                        if let Some(r1) = row(*n1) {
                            a[(r2, r1)] -= g;
                        }
                        ops.push(BOp::Const { u: r2, c: ieq });
                    }
                }
                Element::CurrentSource { from, to, current } => {
                    if let Some(r) = row(*from) {
                        ops.push(BOp::Const {
                            u: r,
                            c: -current.amperes(),
                        });
                    }
                    if let Some(r) = row(*to) {
                        ops.push(BOp::Const {
                            u: r,
                            c: current.amperes(),
                        });
                    }
                }
                Element::VoltageSource { .. } => {}
            }
        }

        for (k, &src_idx) in sources.iter().enumerate() {
            if let Element::VoltageSource { npos, nneg, .. } = &circuit.elements()[src_idx] {
                let col = n_v + k;
                if let Some(r) = row(*npos) {
                    a[(r, col)] += 1.0;
                    a[(col, r)] += 1.0;
                }
                if let Some(r) = row(*nneg) {
                    a[(r, col)] -= 1.0;
                    a[(col, r)] -= 1.0;
                }
                ops.push(BOp::Source { u: col, k });
            }
        }

        Ok(FullMna {
            n_v,
            ops,
            lu: a.factor()?,
        })
    }

    /// The node voltages with the voltage sources at `volts` (one value
    /// per source, in element order).
    ///
    /// # Errors
    ///
    /// [`CircuitError::DimensionMismatch`] from the backsolve.
    pub(crate) fn solve(&self, volts: &[f64]) -> Result<Vec<f64>, CircuitError> {
        let mut b = vec![0.0; self.lu.n()];
        for op in &self.ops {
            match *op {
                BOp::Const { u, c } => b[u] += c,
                BOp::Source { u, k } => b[u] = volts[k],
                BOp::Scaled { .. } => {}
            }
        }
        let x = self.lu.solve(&b)?;
        let mut voltages = vec![0.0; self.n_v + 1];
        voltages[1..].copy_from_slice(&x[..self.n_v]);
        Ok(voltages)
    }

    /// Rough resident size in bytes: the dense factors and the plan.
    pub(crate) fn approx_bytes(&self) -> usize {
        let n = self.lu.n();
        n * n * 8 + n * 8 + self.ops.len() * std::mem::size_of::<BOp>()
    }
}

/// Computes per-element branch currents and wraps the solution, or
/// rejects it with [`CircuitError::NonFiniteSolution`] when a voltage or a
/// current is NaN or infinite.
pub(crate) fn finish(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
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

    // Voltage-source branch currents by KCL at the non-ground terminal:
    // i_branch (npos → nneg internal) = −(current delivered into the node).
    for (idx, element) in circuit.elements().iter().enumerate() {
        if let Element::VoltageSource { npos, nneg, .. } = element {
            let (node, sign) = if *npos != Circuit::GROUND {
                (*npos, 1.0)
            } else {
                (*nneg, -1.0)
            };
            currents[idx] = sign * -leaving[node];
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
/// terminal to its second (a current source's `from` to its `to`); an
/// element with both terminals on one node counts as leaving it.
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
            // Series ideal sources on a non-ground node would need the
            // full-MNA current; grounded crossbar netlists never hit this.
            Element::VoltageSource { .. } => continue,
        };
        let i = current(idx, element);
        leaving[from] += i;
        if to != from {
            leaving[to] -= i;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{PreparedSystem, Rhs};
    use crate::crossbar::{CrossbarCircuit, CrossbarSpec};
    use crate::mna::kcl_residual;
    use mnsim_tech::units::{Current, Resistance, Voltage};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
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
    fn full_newton(
        circuit: &Circuit,
        options: &SolveOptions,
    ) -> Result<(Vec<f64>, u64), CircuitError> {
        let fresh = |lin: &[Option<Linearized>]| {
            solve_linear(circuit, lin, &mut SparseWorkspace::default())
        };
        let mut voltages = fresh(&linearize(circuit, None))?;
        for iteration in 1..=options.newton_max_iterations {
            let next = fresh(&linearize(circuit, Some(&voltages)))?;
            let update = max_update(&voltages, &next);
            voltages = next;
            if update < options.newton_tolerance {
                return Ok((voltages, iteration as u64));
            }
        }
        Err(CircuitError::NewtonNoConvergence {
            iterations: options.newton_max_iterations,
            last_update: f64::NAN,
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The chord loop on a warm workspace, left holding a Jacobian, is
    /// bit-identical to the loop on a fresh one, and both are within
    /// 2 × `newton_tolerance` of full Newton. The chord contracts
    /// linearly, so the error left when a step moves no node by the
    /// tolerance is about that last step: 6e-11 V on the 8×8 array.
    #[test]
    fn chord_loop_is_history_independent_and_matches_full_newton() {
        for size in [8, 64] {
            let _session = obs::session();
            let xbar = sinh_crossbar(size);
            let circuit = xbar.circuit();
            let options = SolveOptions::default();
            let (reference, iterations) = full_newton(circuit, &options).unwrap();
            assert!(iterations >= 3, "only {iterations} Newton iterations");

            let fresh = solve_dc_in(circuit, &options, &mut SparseWorkspace::default()).unwrap();
            let mut warm = SparseWorkspace::default();
            let jacobian = linearize(circuit, Some(&reference));
            solve_linear(circuit, &jacobian, &mut warm).unwrap();
            for _ in 0..2 {
                let again = solve_dc_in(circuit, &options, &mut warm).unwrap();
                assert_eq!(
                    bits(again.voltages()),
                    bits(fresh.voltages()),
                    "{size}x{size}"
                );
            }

            let worst = max_update(fresh.voltages(), &reference);
            assert!(
                worst <= 2.0 * options.newton_tolerance,
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
    /// 2 × `newton_tolerance`, a KCL residual within max(1e-9 A, 10 × full
    /// Newton's), and no more refactors than full Newton's iterations.
    /// Cells at α = 8 and 1.5 V carry amperes, so the residual bound
    /// follows the reference. One named case must take the rollback.
    #[test]
    fn chord_answers_every_harsh_case_full_newton_answers() {
        let options = SolveOptions::default();
        let mut answered = 0;
        for size in [8, 16, 32] {
            for alpha in [1.0, 2.5, 4.0, 6.0, 8.0] {
                for v_max in [0.3, 0.6, 1.0, 1.5] {
                    for stuck in [0.0, 0.3] {
                        let case = format!("{size}x{size}, α = {alpha}, {v_max} V, {stuck} stuck");
                        let session = obs::session();
                        let xbar = harsh_crossbar(size, alpha, v_max, stuck);
                        let circuit = xbar.circuit();
                        let Ok((reference, iterations)) = full_newton(circuit, &options) else {
                            continue;
                        };
                        obs::reset();
                        let chord = solve_dc(circuit, &options).unwrap_or_else(|e| {
                            panic!("{case}: full Newton answers, the chord: {e}")
                        });
                        let snap = session.snapshot();
                        answered += 1;

                        let worst = max_update(chord.voltages(), &reference);
                        assert!(
                            worst <= 2.0 * options.newton_tolerance,
                            "{case}: {worst:e} V from full Newton"
                        );
                        let reference =
                            finish(circuit, &linearize(circuit, Some(&reference)), reference)
                                .unwrap();
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

    /// Each read solved alone by `solve_dc` on its re-driven circuit.
    fn one_read_solves(
        circuit: &Circuit,
        reads: &[Vec<Voltage>],
        options: &SolveOptions,
    ) -> Result<Vec<DcSolution>, CircuitError> {
        reads
            .iter()
            .map(|read| solve_dc(&circuit.with_source_voltages(read)?, options))
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

    /// The reads of a prepared batch step in lockstep, yet each is a
    /// one-read solve: on sinh crossbars from 8×8 to 64×64 every read of
    /// `solve_batch` is bit-identical to `solve_dc` of its re-driven
    /// circuit, voltages and currents. The harsh arrays (α up to 8,
    /// 1.5 V, 30 % stuck) send reads out of the block to Newton steps,
    /// and ten reads cross the eight-read block edge.
    #[test]
    fn batch_reads_are_bit_identical_to_one_read_solves() {
        let session = obs::session();
        let options = SolveOptions::default();
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
            let got = PreparedSystem::build(circuit, options.clone())
                .unwrap()
                .solve_batch(circuit, &batch);
            newton_steps += session
                .snapshot()
                .counter("circuit.solve.newton_iterations");
            let want = one_read_solves(circuit, &reads, &options);
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
        let options = SolveOptions::default();
        let volts = [[0.8, 0.8], [0.5, 0.7], [0.3, 0.3]];
        let batch: Vec<Rhs> = volts.iter().map(|v| Rhs::from_volts(v)).collect();
        let got = PreparedSystem::build(&c, options.clone())
            .unwrap()
            .solve_batch(&c, &batch)
            .unwrap_err();
        let redriven = c
            .with_source_voltages(&[Voltage::from_volts(0.5), Voltage::from_volts(0.7)])
            .unwrap();
        let want = solve_dc(&redriven, &options).unwrap_err();
        assert!(
            matches!(want, CircuitError::InvalidElement { .. }),
            "{want:?}"
        );
        assert_eq!(got, want);

        let options = SolveOptions {
            newton_max_iterations: 1,
            ..SolveOptions::default()
        };
        let xbar = sinh_crossbar(8);
        let reads = seeded_reads(8, 4, 1.0, 5);
        let batch: Vec<Rhs> = reads.iter().map(|r| xbar.input_rhs(r).unwrap()).collect();
        let got = PreparedSystem::build(xbar.circuit(), options.clone())
            .unwrap()
            .solve_batch(xbar.circuit(), &batch);
        let want = one_read_solves(xbar.circuit(), &reads, &options);
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

    #[test]
    fn budget_exhaustion_reports_the_last_kept_update() {
        let _session = obs::session();
        // 8×8 (128 unknowns) and 4×4 (32 unknowns) both take chord steps
        // on the LDLᵀ engine.
        for size in [8, 4] {
            let xbar = sinh_crossbar(size);
            let options = SolveOptions {
                newton_max_iterations: 1,
                ..SolveOptions::default()
            };
            match solve_dc(xbar.circuit(), &options) {
                Err(CircuitError::NewtonNoConvergence {
                    iterations: 1,
                    last_update,
                }) => assert!(
                    last_update.is_finite() && last_update >= options.newton_tolerance,
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
        for j in 0..a.cols() {
            for k in a.col_ptr()[j]..a.col_ptr()[j + 1] {
                let i = a.row_idx()[k];
                if a.values()[k].to_bits() != a.get(j, i).to_bits() {
                    return Err(format!(
                        "A({i}, {j}) = {} but A({j}, {i}) = {}",
                        a.values()[k],
                        a.get(j, i)
                    ));
                }
            }
        }
        Ok(())
    }

    fn reduced(circuit: &Circuit, lin: &[Option<Linearized>]) -> ReducedSystem {
        assemble_reduced(circuit, lin, &Sources::of(circuit).is_driven)
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
        let stamps = |off: f64| {
            let mut t = TripletMatrix::new(2, 2);
            for (r, c, v) in [(0, 0, 2.0), (0, 1, off), (1, 0, off), (1, 1, 2.0)] {
                t.add(r, c, v);
            }
            t
        };
        let mut workspace = SparseWorkspace::default();
        let mut solve = |off: f64| {
            workspace.factor(&stamps(off))?;
            Ok::<_, CircuitError>(workspace.factored().unwrap().solve(&[1.0, 0.0]))
        };
        let x = solve(-1.0).unwrap();
        // Same coordinates, indefinite values: the refactor fails and
        // leaves no usable factor behind.
        assert!(matches!(
            solve(-3.0),
            Err(CircuitError::SingularSystem { .. })
        ));
        assert!(workspace.factored().is_none());
        workspace.factor(&stamps(-1.0)).unwrap();
        assert_eq!(workspace.factored().unwrap().solve(&[1.0, 0.0]), x);
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
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
        let solution = solve_dc(xbar.circuit(), &SolveOptions::default()).unwrap();
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
        assert_eq!(
            solve_dc(&c, &SolveOptions::default()).unwrap_err(),
            CircuitError::NonFiniteSolution
        );
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(
            sol.source_power(&c).watts(),
            sol.dissipated_power(&c).watts(),
            1e-12,
        );
        // P = V²/Req, Req = 300 ∥ 300 = 150 → P = 9/150 = 60 mW
        assert_close(sol.source_power(&c).watts(), 0.06, 1e-9);
    }

    #[test]
    fn floating_source_uses_full_mna() {
        let _session = obs::session();
        // Source floating between two nodes, each tied to ground by R.
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_voltage_source(a, b, Voltage::from_volts(2.0)).unwrap();
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert_close(sol.voltage(a).volts() - sol.voltage(b).volts(), 2.0, 1e-9);
        // Symmetry: va = +1, vb = −1.
        assert_close(sol.voltage(a).volts(), 1.0, 1e-9);
        assert_close(sol.voltage(b).volts(), -1.0, 1e-9);
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
            solve_dc(&c, &SolveOptions::default()),
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
        let lin_sol = solve_dc(&lin_c, &SolveOptions::default()).unwrap();
        let non_sol = solve_dc(&non_c, &SolveOptions::default()).unwrap();
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
        let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
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
        let options = SolveOptions {
            newton_max_iterations: 0,
            ..SolveOptions::default()
        };
        // No step ran, so there is no update to report.
        assert!(matches!(
            solve_dc(&c, &options),
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
            let sol = solve_dc(&c, &SolveOptions::default()).unwrap();
            sol.voltage(mid).volts()
        };
        let both = build(1.0, 2.0);
        let only1 = build(1.0, 0.0);
        let only2 = build(0.0, 2.0);
        assert_close(both, only1 + only2, 1e-9);
    }
}
