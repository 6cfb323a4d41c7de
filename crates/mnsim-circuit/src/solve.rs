//! DC operating-point analysis.
//!
//! [`solve_dc`] computes the DC solution of a [`Circuit`]:
//!
//! 1. **Linear circuits** are solved in one shot. If every voltage source is
//!    referenced to ground (true for every crossbar netlist), the nodal
//!    matrix reduced over the driven nodes is symmetric positive-definite.
//!    `Method::Auto` picks its engine by size: dense LU below 96 unknowns
//!    and the sparse LDLᵀ engine of [`crate::ldl`] at every size above.
//!    Circuits with floating sources use a dense LU over the full
//!    modified-nodal-analysis system.
//! 2. **Non-linear circuits** (memristors with a sinh I-V model) are solved
//!    by Newton-Raphson: each memristor is replaced by its companion model
//!    (differential conductance + equivalent current source) at the present
//!    operating point and the linear solve is repeated until the node
//!    voltages stop moving. Every iteration stamps the same coordinates, so
//!    the sparse engine analyzes the pattern once and each iteration only
//!    scatters its values and refactors (`SparseWorkspace`).
//!
//! The reduced system has one assembly (`assemble_reduced`), shared with
//! [`crate::batch::PreparedSystem`], so one-shot and prepared solves stamp,
//! sum and factor identically.

use mnsim_obs as obs;
use mnsim_tech::memristor::IvModel;

static DC_SOLVES: obs::Counter = obs::Counter::new("circuit.solve.dc_solves");
static DC_SPAN: obs::Span = obs::Span::new("circuit.solve_dc", obs::Level::Stage);
static LINEAR_DENSE: obs::Counter = obs::Counter::new("circuit.solve.dense_lu");
static LINEAR_SPARSE: obs::Counter = obs::Counter::new("circuit.solve.sparse_lu");
static LINEAR_FULL_MNA: obs::Counter = obs::Counter::new("circuit.solve.full_mna");
static NEWTON_ITERATIONS: obs::Counter = obs::Counter::new("circuit.solve.newton_iterations");
use crate::dense::DenseMatrix;
use crate::error::CircuitError;
use crate::ldl::SparseLdl;
use crate::mna::{Circuit, DcSolution, Element};
use crate::sparse::TripletMatrix;

/// Linear-solver selection for grounded-source systems (floating sources
/// always use full MNA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// Dense LU below `DENSE_CUTOFF` (96) unknowns, sparse LDLᵀ at every
    /// size above.
    #[default]
    Auto,
    /// Force the dense LU path (exact, `O(n³)`).
    DenseLu,
    /// Force the sparse direct path ([`crate::ldl`]; exact, fill-bounded).
    SparseLu,
}

/// Options for [`solve_dc`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Linear-solver selection.
    pub method: Method,
    /// Newton convergence threshold on the largest node-voltage update, in
    /// volts.
    pub newton_tolerance: f64,
    /// Newton iteration cap.
    pub newton_max_iterations: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            method: Method::Auto,
            newton_tolerance: 1e-9,
            newton_max_iterations: 60,
        }
    }
}

/// Number of unknowns below which `Method::Auto` prefers the dense LU.
/// Shared with [`crate::batch`] so prepared systems pick the same path,
/// and with [`crate::recovery`], which never builds a dense matrix this
/// large.
pub(crate) const DENSE_CUTOFF: usize = 96;

/// The concrete linear engine a reduced (grounded-source) solve uses.
/// Shared with [`crate::batch`] so prepared systems pick the same path as
/// one-shot solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinearEngine {
    /// Dense LU with partial pivoting.
    Dense,
    /// Sparse LDLᵀ ([`crate::ldl`]) behind a [`SparseWorkspace`].
    Sparse,
}

impl LinearEngine {
    /// The engine `method` picks for a reduced system of `unknowns`
    /// unknowns.
    pub(crate) fn pick(method: Method, unknowns: usize) -> Self {
        match method {
            Method::DenseLu => LinearEngine::Dense,
            Method::SparseLu => LinearEngine::Sparse,
            Method::Auto if unknowns < DENSE_CUTOFF => LinearEngine::Dense,
            Method::Auto => LinearEngine::Sparse,
        }
    }
}

/// The sparse factorization one circuit structure carries from one linear
/// solve to the next: across the Newton iterations of a DC solve, the
/// steps of a transient run, and the reads and value overlays of a
/// [`crate::batch::PreparedSystem`].
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
/// It also keeps the buffers of the last reduced system `solve_linear`
/// assembled through it, and refills them in place: a Newton loop or a
/// transient run allocates its stamps, right-hand-side plan and node
/// numbering once, not once per linear solve.
#[derive(Debug, Clone, Default)]
pub(crate) struct SparseWorkspace {
    /// Assembly buffers of the last `solve_linear` on this workspace.
    system: ReducedSystem,
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
    /// Solves the stamped system for `b`, factoring as cheaply as the held
    /// state allows.
    pub(crate) fn solve(
        &mut self,
        stamps: &TripletMatrix,
        b: &[f64],
    ) -> Result<Vec<f64>, CircuitError> {
        self.factor(stamps)?;
        self.factored()
            .map(|ldl| ldl.solve(b))
            .ok_or(CircuitError::SingularSystem { at: 0 })
    }

    /// Makes the held factor factor the stamped matrix.
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

    /// The factor of the last successfully factored matrix.
    pub(crate) fn factored(&self) -> Option<&SparseLdl> {
        self.ldl.as_deref().filter(|_| !self.values.is_empty())
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
/// [`CircuitError::NewtonNoConvergence`]) and topology errors (a node
/// driven by two conflicting sources).
pub fn solve_dc(circuit: &Circuit, options: &SolveOptions) -> Result<DcSolution, CircuitError> {
    solve_dc_in(circuit, options, &mut SparseWorkspace::default())
}

/// [`solve_dc`] on a caller-held [`SparseWorkspace`], so repeated solves of
/// one structure share its analysis.
pub(crate) fn solve_dc_in(
    circuit: &Circuit,
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
) -> Result<DcSolution, CircuitError> {
    let _span = DC_SPAN.enter();
    DC_SOLVES.inc();
    if circuit.is_nonlinear() {
        solve_newton(circuit, options, workspace)
    } else {
        let lin = linearize(circuit, None);
        let voltages = solve_linear(circuit, &lin, options, workspace)?;
        finish(circuit, &lin, voltages)
    }
}

/// Newton-Raphson outer loop for circuits with non-linear memristors.
fn solve_newton(
    circuit: &Circuit,
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
) -> Result<DcSolution, CircuitError> {
    // Initial operating point: every memristor at its low-field resistance.
    let lin0 = linearize(circuit, None);
    let mut voltages = solve_linear(circuit, &lin0, options, workspace)?;

    for _ in 0..options.newton_max_iterations {
        NEWTON_ITERATIONS.inc();
        let lin = linearize(circuit, Some(&voltages));
        let next = solve_linear(circuit, &lin, options, workspace)?;
        let max_update = voltages
            .iter()
            .zip(&next)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        voltages = next;
        if max_update < options.newton_tolerance {
            let lin = linearize(circuit, Some(&voltages));
            return finish(circuit, &lin, voltages);
        }
    }

    Err(CircuitError::NewtonNoConvergence {
        iterations: options.newton_max_iterations,
        last_update: f64::NAN,
    })
}

/// Produces the per-element linearization. `operating_point` supplies node
/// voltages for the Newton companion models; `None` linearizes memristors at
/// their low-field state.
pub(crate) fn linearize(
    circuit: &Circuit,
    operating_point: Option<&[f64]>,
) -> Vec<Option<Linearized>> {
    circuit
        .elements()
        .iter()
        .map(|element| match element {
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
        })
        .collect()
}

/// Classification of the voltage sources in a circuit.
struct SourceInfo {
    /// Per node: its fixed voltage, for nodes driven by a grounded source.
    driven: Vec<Option<f64>>,
    /// `true` if every source has one terminal at ground.
    all_grounded: bool,
}

fn classify_sources(circuit: &Circuit) -> Result<SourceInfo, CircuitError> {
    let mut driven = vec![None; circuit.node_count()];
    let mut all_grounded = true;
    for element in circuit.elements() {
        if let Element::VoltageSource {
            npos,
            nneg,
            voltage,
        } = element
        {
            let (node, value) = if *nneg == Circuit::GROUND {
                (*npos, voltage.volts())
            } else if *npos == Circuit::GROUND {
                (*nneg, -voltage.volts())
            } else {
                all_grounded = false;
                continue;
            };
            if let Some(existing) = driven[node].replace(value) {
                if existing != value {
                    return Err(CircuitError::InvalidElement {
                        reason: format!(
                            "node {node} driven to both {existing} V and {value} V"
                        ),
                    });
                }
            }
        }
    }
    Ok(SourceInfo {
        driven,
        all_grounded,
    })
}

/// The number of unknowns of `circuit`'s reduced system, or `None` when it
/// has floating sources and solves by full MNA instead.
///
/// # Errors
///
/// A node driven to two different voltages.
pub(crate) fn reduced_unknowns(circuit: &Circuit) -> Result<Option<usize>, CircuitError> {
    let sources = classify_sources(circuit)?;
    Ok(sources
        .all_grounded
        .then(|| sources.driven.iter().skip(1).filter(|v| v.is_none()).count()))
}

/// Solves the linearized circuit, returning the full node-voltage vector.
/// The sparse-direct engine factors through `workspace`.
pub(crate) fn solve_linear(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
) -> Result<Vec<f64>, CircuitError> {
    let sources = classify_sources(circuit)?;
    if !sources.all_grounded {
        return solve_full_mna(circuit, lin);
    }
    let is_driven: Vec<bool> = sources.driven.iter().map(Option::is_some).collect();
    let mut system = std::mem::take(&mut workspace.system);
    assemble_reduced_into(&mut system, circuit, lin, &is_driven);
    let voltages = solve_reduced(circuit, &system, &sources, options, workspace);
    workspace.system = system;
    voltages
}

/// Solves the assembled reduced `system` of `circuit` for its node
/// voltages.
fn solve_reduced(
    circuit: &Circuit,
    system: &ReducedSystem,
    sources: &SourceInfo,
    options: &SolveOptions,
    workspace: &mut SparseWorkspace,
) -> Result<Vec<f64>, CircuitError> {
    // Scaled ops only name ground and driven nodes.
    let voltage = |node: usize| {
        sources.driven[node]
            .filter(|_| node != Circuit::GROUND)
            .unwrap_or(0.0)
    };
    let b = replay_rhs(&system.ops, system.unknowns, voltage);

    let x = if system.unknowns == 0 {
        Vec::new()
    } else {
        match LinearEngine::pick(options.method, system.unknowns) {
            LinearEngine::Dense => {
                LINEAR_DENSE.inc();
                let csr = system.stamps.to_csr();
                DenseMatrix::from_rows(&csr.to_dense()).solve(&b)?
            }
            LinearEngine::Sparse => {
                LINEAR_SPARSE.inc();
                workspace.solve(&system.stamps, &b)?
            }
        }
    };

    // Reassemble the full voltage vector.
    let mut voltages = vec![0.0; circuit.node_count()];
    for (node, v) in voltages.iter_mut().enumerate().skip(1) {
        *v = match system.index[node] {
            usize::MAX => voltage(node),
            u => x[u],
        };
    }
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

/// Assembles the reduced system of `circuit` under the linearization `lin`,
/// with `is_driven[node]` marking the nodes a grounded source fixes. This
/// is the one assembly behind [`solve_dc`] and
/// [`crate::batch::PreparedSystem`].
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
}

/// [`assemble_reduced`] into `system`, whose buffers keep their capacity:
/// the stamps and the plan come out in the same order as from a fresh
/// assembly.
pub(crate) fn assemble_reduced_into(
    system: &mut ReducedSystem,
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    is_driven: &[bool],
) {
    let ReducedSystem {
        index,
        unknowns,
        stamps,
        ops,
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
    let fixed = |node: usize| node == Circuit::GROUND || is_driven[node];

    stamps.reset(*unknowns, *unknowns);
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
                    stamps.add(i1, i1, g);
                    if fixed(*n2) {
                        ops.push(BOp::Scaled {
                            u: i1,
                            node: *n2,
                            g,
                        });
                    } else {
                        stamps.add(i1, i2, -g);
                    }
                    ops.push(BOp::Const { u: i1, c: -ieq });
                }
                if i2 != usize::MAX {
                    stamps.add(i2, i2, g);
                    if fixed(*n1) {
                        ops.push(BOp::Scaled {
                            u: i2,
                            node: *n1,
                            g,
                        });
                    } else {
                        stamps.add(i2, i1, -g);
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

/// Full modified nodal analysis with explicit source branch currents
/// (handles floating sources; dense LU).
fn solve_full_mna(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
) -> Result<Vec<f64>, CircuitError> {
    LINEAR_FULL_MNA.inc();
    let n_nodes = circuit.node_count();
    let n_v = n_nodes - 1; // unknown node voltages (ground excluded)
    let sources: Vec<usize> = circuit
        .elements()
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, Element::VoltageSource { .. }))
        .map(|(i, _)| i)
        .collect();
    let n = n_v + sources.len();
    let mut a = DenseMatrix::zeros(n);
    let mut b = vec![0.0; n];

    // node id → matrix row (ground has none).
    let row = |node: usize| -> Option<usize> {
        if node == Circuit::GROUND {
            None
        } else {
            Some(node - 1)
        }
    };

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
                    b[r1] -= ieq;
                }
                if let Some(r2) = row(*n2) {
                    a[(r2, r2)] += g;
                    if let Some(r1) = row(*n1) {
                        a[(r2, r1)] -= g;
                    }
                    b[r2] += ieq;
                }
            }
            Element::CurrentSource { from, to, current } => {
                if let Some(r) = row(*from) {
                    b[r] -= current.amperes();
                }
                if let Some(r) = row(*to) {
                    b[r] += current.amperes();
                }
            }
            Element::VoltageSource { .. } => {}
        }
    }

    for (k, &src_idx) in sources.iter().enumerate() {
        if let Element::VoltageSource {
            npos,
            nneg,
            voltage,
        } = &circuit.elements()[src_idx]
        {
            let col = n_v + k;
            if let Some(r) = row(*npos) {
                a[(r, col)] += 1.0;
                a[(col, r)] += 1.0;
            }
            if let Some(r) = row(*nneg) {
                a[(r, col)] -= 1.0;
                a[(col, r)] -= 1.0;
            }
            b[col] = voltage.volts();
        }
    }

    let x = a.solve(&b)?;
    let mut voltages = vec![0.0; n_nodes];
    voltages[1..n_nodes].copy_from_slice(&x[..n_v]);
    Ok(voltages)
}

/// Computes per-element branch currents and wraps the solution.
pub(crate) fn finish(
    circuit: &Circuit,
    lin: &[Option<Linearized>],
    voltages: Vec<f64>,
) -> Result<DcSolution, CircuitError> {
    let mut currents = vec![0.0; circuit.element_count()];
    // Current leaving each node through the other elements, summed in
    // element order; an element with both terminals on one node counts as
    // leaving it.
    let mut leaving = vec![0.0; circuit.node_count()];

    for (idx, element) in circuit.elements().iter().enumerate() {
        let (from, to) = match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                // Capacitors carry zero current at DC (no companion).
                if let Some(Linearized { g, ieq }) = lin[idx] {
                    currents[idx] = g * (voltages[*n1] - voltages[*n2]) + ieq;
                }
                (*n1, *n2)
            }
            Element::CurrentSource { from, to, current } => {
                currents[idx] = current.amperes();
                (*from, *to)
            }
            // Series ideal sources on a non-ground node would need the
            // full-MNA current; grounded crossbar netlists never hit this.
            Element::VoltageSource { .. } => continue,
        };
        leaving[from] += currents[idx];
        if to != from {
            leaving[to] -= currents[idx];
        }
    }

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

    Ok(DcSolution::new(voltages, currents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::{CrossbarCircuit, CrossbarSpec};
    use mnsim_tech::units::{Current, Resistance, Voltage};

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    /// A `size`×`size` sinh crossbar with distinct cells and inputs. From
    /// 8×8 (128 unknowns) `Method::Auto` takes the sparse-direct path; 64×64
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

    #[test]
    fn shared_workspace_newton_is_bit_identical_to_fresh_factors() {
        for size in [8, 64] {
            shared_workspace_newton_matches_fresh_factors(size);
        }
    }

    /// The Newton loop on one shared workspace, which refactors, against
    /// the same loop analyzing and factoring every linearization afresh.
    fn shared_workspace_newton_matches_fresh_factors(size: usize) {
        let _session = obs::session();
        let xbar = sinh_crossbar(size);
        let circuit = xbar.circuit();
        let options = SolveOptions::default();

        // The reference: the same Newton loop, analyzing and factoring
        // every linearization from scratch.
        let fresh = |lin: &[Option<Linearized>]| {
            solve_linear(circuit, lin, &options, &mut SparseWorkspace::default()).unwrap()
        };
        let mut voltages = fresh(&linearize(circuit, None));
        let mut iterations = 0;
        loop {
            iterations += 1;
            let next = fresh(&linearize(circuit, Some(&voltages)));
            let max_update = voltages
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            voltages = next;
            if max_update < options.newton_tolerance {
                break;
            }
            assert!(
                iterations < options.newton_max_iterations,
                "reference diverged"
            );
        }
        assert!(iterations >= 3, "only {iterations} Newton iterations");

        let mut workspace = SparseWorkspace::default();
        let shared = solve_dc_in(circuit, &options, &mut workspace).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(shared.voltages()), bits(&voltages));
        // A second solve on the warm workspace refactors the factor the
        // first one left behind, and still matches.
        let again = solve_dc_in(circuit, &options, &mut workspace).unwrap();
        assert_eq!(bits(again.voltages()), bits(&voltages));
    }

    #[test]
    fn workspace_reanalyzes_a_changed_pattern_instead_of_failing() {
        let _session = obs::session();
        let xbar = sinh_crossbar(8);
        let circuit = xbar.circuit();
        let options = SolveOptions::default();
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
        solve_linear(circuit, &lin, &options, &mut workspace).unwrap();
        let first_pattern = workspace.factored().unwrap().symbolic().nnz();
        let x = solve_linear(circuit, &cut, &options, &mut workspace).unwrap();
        let second_pattern = workspace.factored().unwrap().symbolic().nnz();
        assert_eq!(
            first_pattern,
            second_pattern + 2,
            "the changed pattern was not re-analyzed"
        );

        let want = solve_linear(circuit, &cut, &options, &mut SparseWorkspace::default()).unwrap();
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
        let sources = classify_sources(circuit).unwrap();
        let is_driven: Vec<bool> = sources.driven.iter().map(Option::is_some).collect();
        assemble_reduced(circuit, lin, &is_driven)
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
        let stamps = |off: f64| {
            let mut t = TripletMatrix::new(2, 2);
            for (r, c, v) in [(0, 0, 2.0), (0, 1, off), (1, 0, off), (1, 1, 2.0)] {
                t.add(r, c, v);
            }
            t
        };
        let mut workspace = SparseWorkspace::default();
        let x = workspace.solve(&stamps(-1.0), &[1.0, 0.0]).unwrap();
        // Same coordinates, indefinite values: the refactor fails and
        // leaves no usable factor behind.
        assert!(matches!(
            workspace.solve(&stamps(-3.0), &[1.0, 0.0]),
            Err(CircuitError::SingularSystem { .. })
        ));
        assert!(workspace.factored().is_none());
        assert_eq!(workspace.solve(&stamps(-1.0), &[1.0, 0.0]).unwrap(), x);
    }

    #[test]
    fn voltage_divider() {
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
    fn divider_matches_on_all_methods() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        for method in [Method::Auto, Method::DenseLu, Method::SparseLu] {
            let options = SolveOptions {
                method,
                ..SolveOptions::default()
            };
            let sol = solve_dc(&c, &options).unwrap();
            assert_close(sol.voltage(mid).volts(), 0.5, 1e-8);
        }
    }

    #[test]
    fn current_source_into_resistor() {
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
        assert!(matches!(
            solve_dc(&c, &options),
            Err(CircuitError::NewtonNoConvergence { .. })
        ));
    }

    #[test]
    fn superposition_on_linear_network() {
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
