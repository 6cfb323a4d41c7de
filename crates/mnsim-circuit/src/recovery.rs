//! Fault-tolerant DC solving: a typed recovery ladder around
//! [`solve_dc`].
//!
//! Defective crossbars produce brutally conditioned nodal systems: a broken
//! line modeled as a 1 TΩ near-open next to ohm-scale wire segments spreads
//! the conductance spectrum over twelve decades, which can trip the dense
//! LU's relative pivot test on a system that is still nonsingular.
//! [`solve_robust`] wraps the plain solver in a ladder so fault-injection
//! campaigns *never* panic and *never* return silent garbage:
//!
//! 1. the caller's configured solve (usually `Method::Auto`);
//! 2. if that failed, the one direct engine the base did not run: the
//!    sparse LDLᵀ after a dense-LU failure, or the dense LU after an LDLᵀ
//!    failure — the latter only below the dense cutoff (96 unknowns), so a
//!    large system is never copied into an `n × n` matrix.
//!
//! No engine runs twice. A circuit with floating sources has one engine,
//! the dense full-MNA LU, and gets one attempt.
//!
//! Every accepted solution is screened for NaN/∞ and its Kirchhoff
//! current-law residual is measured, so the caller receives a
//! [`RecoveryReport`] stating *how* the answer was obtained and how much to
//! trust it.

use mnsim_obs as obs;
use mnsim_obs::live::LiveEvent;
use mnsim_obs::Level;

use crate::error::CircuitError;
use crate::mna::{Circuit, DcSolution, Element};
use crate::solve::{reduced_unknowns, solve_dc, LinearEngine, Method, SolveOptions, DENSE_CUTOFF};

static ROBUST_SOLVES: obs::Counter = obs::Counter::new("circuit.recovery.solves");
static ROBUST_FALLBACKS: obs::Counter = obs::Counter::new("circuit.recovery.fallbacks");
static ROBUST_EXHAUSTED: obs::Counter = obs::Counter::new("circuit.recovery.exhausted");
static ROBUST_SPAN: obs::Span = obs::Span::new("recovery.solve", Level::Stage);
static KCL_RESIDUAL: obs::Histogram = obs::Histogram::new("circuit.recovery.kcl_residual");

/// A solver health guard cut a rung short; the live line names the rung
/// and the guard.
static EARLY_ESCALATIONS: obs::Mark = obs::Mark::new("solver.early_escalations", Level::Stage);

static ATTEMPT_BASE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.base");
static ATTEMPT_SPARSE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.sparse_lu");
static ATTEMPT_DENSE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.dense_lu");
static ACCEPT_BASE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.base");
static ACCEPT_SPARSE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.sparse_lu");
static ACCEPT_DENSE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.dense_lu");
/// One attempt per rung, successful or not: how long it spent on its rung
/// before accepting or escalating.
static ATTEMPT_SPAN_BASE: obs::Span = obs::Span::new("recovery.attempt.base", Level::Stage);
static ATTEMPT_SPAN_SPARSE: obs::Span = obs::Span::new("recovery.attempt.sparse_lu", Level::Stage);
static ATTEMPT_SPAN_DENSE: obs::Span = obs::Span::new("recovery.attempt.dense_lu", Level::Stage);

impl RecoveryStage {
    /// The rung's name in reports, errors and live events.
    fn label(self) -> &'static str {
        match self {
            RecoveryStage::Base => "base",
            RecoveryStage::SparseLu => "sparse-lu",
            RecoveryStage::DenseLu => "dense-lu",
        }
    }

    fn attempt_counter(self) -> &'static obs::Counter {
        match self {
            RecoveryStage::Base => &ATTEMPT_BASE,
            RecoveryStage::SparseLu => &ATTEMPT_SPARSE,
            RecoveryStage::DenseLu => &ATTEMPT_DENSE,
        }
    }

    fn accept_counter(self) -> &'static obs::Counter {
        match self {
            RecoveryStage::Base => &ACCEPT_BASE,
            RecoveryStage::SparseLu => &ACCEPT_SPARSE,
            RecoveryStage::DenseLu => &ACCEPT_DENSE,
        }
    }

    fn attempt_span(self) -> &'static obs::Span {
        match self {
            RecoveryStage::Base => &ATTEMPT_SPAN_BASE,
            RecoveryStage::SparseLu => &ATTEMPT_SPAN_SPARSE,
            RecoveryStage::DenseLu => &ATTEMPT_SPAN_DENSE,
        }
    }
}

/// One rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// The caller's configured solve.
    Base,
    /// Sparse direct LDLᵀ ([`crate::ldl`]), after a dense-LU base failed.
    SparseLu,
    /// Dense LU, after an LDLᵀ base failed on fewer than 96 unknowns.
    DenseLu,
}

impl std::fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one rung.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// Which rung ran.
    pub stage: RecoveryStage,
    /// `None` if the rung produced an accepted solution, otherwise why not.
    pub error: Option<CircuitError>,
}

/// A solver health guard that hands the ladder to the next rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveGuard {
    /// Direct factorization hit a zero or vanishing pivot
    /// ([`CircuitError::SingularSystem`]) — the system is singular under
    /// that rung's elimination, so it escalates immediately rather than
    /// returning garbage.
    SingularPivot,
}

impl std::fmt::Display for SolveGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveGuard::SingularPivot => write!(f, "singular-pivot"),
        }
    }
}

/// Record of a rung that a health guard cut short, handing the ladder to
/// the next rung.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EarlyEscalation {
    /// The rung that was cut short.
    pub stage: RecoveryStage,
    /// Which guard fired.
    pub guard: SolveGuard,
}

/// How a robust solve obtained its answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Every rung tried, in order; the last entry has `error: None`.
    pub attempts: Vec<Attempt>,
    /// The rung that produced the accepted solution.
    pub stage: RecoveryStage,
    /// Largest Kirchhoff current-law violation of the accepted solution over
    /// all source-free nodes, in amperes.
    pub kcl_residual: f64,
    /// Rungs a solver health guard cut short. Empty on a clean solve;
    /// entries are in ladder order.
    pub early_escalations: Vec<EarlyEscalation>,
}

impl RecoveryReport {
    /// `true` if the base solve failed and a fallback rung produced the
    /// answer.
    pub fn fallback_fired(&self) -> bool {
        self.stage != RecoveryStage::Base
    }

    /// Number of failed attempts before the accepted one.
    pub fn failed_attempts(&self) -> usize {
        self.attempts.len().saturating_sub(1)
    }

    /// Runs one rung and records its outcome.
    fn run(
        &mut self,
        circuit: &Circuit,
        stage: RecoveryStage,
        options: &SolveOptions,
    ) -> Result<DcSolution, CircuitError> {
        stage.attempt_counter().inc();
        let _attempt = stage.attempt_span().enter();
        let result = attempt(circuit, options, stage);
        if matches!(result, Err(CircuitError::SingularSystem { .. })) {
            let guard = SolveGuard::SingularPivot;
            EARLY_ESCALATIONS.record_live(1.0, || LiveEvent::GuardTripped {
                stage: stage.label().to_string(),
                guard: guard.to_string(),
            });
            self.early_escalations
                .push(EarlyEscalation { stage, guard });
        }
        self.attempts.push(Attempt {
            stage,
            error: result.as_ref().err().cloned(),
        });
        if result.is_ok() {
            stage.accept_counter().inc();
            self.stage = stage;
        }
        result
    }
}

/// Solves the DC operating point, escalating to the other direct engine on
/// solver failure or non-finite output.
///
/// # Errors
///
/// Returns the *last* rung's error only if every rung failed — a genuinely
/// unsolvable system (e.g. a node with no DC path to ground even through
/// near-open resistors).
pub fn solve_robust(
    circuit: &Circuit,
    options: &SolveOptions,
) -> Result<(DcSolution, RecoveryReport), CircuitError> {
    let _span = ROBUST_SPAN.enter();
    ROBUST_SOLVES.inc();
    let mut report = RecoveryReport {
        attempts: Vec::new(),
        stage: RecoveryStage::Base,
        kcl_residual: 0.0,
        early_escalations: Vec::new(),
    };
    let mut result = report.run(circuit, RecoveryStage::Base, options);
    if result.is_err() {
        if let Some((stage, method)) = fallback(circuit, options) {
            let options = SolveOptions {
                method,
                ..options.clone()
            };
            result = report.run(circuit, stage, &options);
        }
    }
    match result {
        Ok(solution) => {
            if report.fallback_fired() {
                ROBUST_FALLBACKS.inc();
            }
            report.kcl_residual = kcl_residual(circuit, &solution);
            KCL_RESIDUAL.record(report.kcl_residual);
            Ok((solution, report))
        }
        Err(error) => {
            ROBUST_EXHAUSTED.inc();
            Err(error)
        }
    }
}

/// The rung after a failed base solve: the direct engine the base did not
/// run, if there is one to try. Floating sources (full MNA), a node driven
/// twice and a system without unknowns have no other engine.
fn fallback(circuit: &Circuit, options: &SolveOptions) -> Option<(RecoveryStage, Method)> {
    let unknowns = reduced_unknowns(circuit)
        .ok()
        .flatten()
        .filter(|&n| n > 0)?;
    match LinearEngine::pick(options.method, unknowns) {
        LinearEngine::Dense => Some((RecoveryStage::SparseLu, Method::SparseLu)),
        LinearEngine::Sparse => {
            (unknowns < DENSE_CUTOFF).then_some((RecoveryStage::DenseLu, Method::DenseLu))
        }
    }
}

/// One rung: solve, then screen the output for NaN/∞.
fn attempt(
    circuit: &Circuit,
    options: &SolveOptions,
    stage: RecoveryStage,
) -> Result<DcSolution, CircuitError> {
    let solution = solve_dc(circuit, options)?;
    let finite = solution.voltages().iter().all(|v| v.is_finite())
        && (0..circuit.element_count())
            .all(|idx| solution.element_current(idx).amperes().is_finite());
    if !finite {
        return Err(CircuitError::NonFiniteSolution {
            stage: stage.label(),
        });
    }
    Ok(solution)
}

/// Largest Kirchhoff current-law violation over all nodes that are neither
/// ground nor a voltage-source terminal, in amperes.
///
/// Source terminals are excluded because their branch currents are *derived*
/// by KCL when the solution is assembled, making their balance trivial.
pub fn kcl_residual(circuit: &Circuit, solution: &DcSolution) -> f64 {
    let n = circuit.node_count();
    let mut net = vec![0.0f64; n];
    let mut skip = vec![false; n];
    skip[Circuit::GROUND] = true;

    for (idx, element) in circuit.elements().iter().enumerate() {
        let current = solution.element_current(idx).amperes();
        match element {
            Element::Resistor { n1, n2, .. }
            | Element::Memristor { n1, n2, .. }
            | Element::Capacitor { n1, n2, .. } => {
                net[*n1] += current;
                net[*n2] -= current;
            }
            Element::CurrentSource { from, to, .. } => {
                net[*from] += current;
                net[*to] -= current;
            }
            Element::VoltageSource { npos, nneg, .. } => {
                skip[*npos] = true;
                skip[*nneg] = true;
            }
        }
    }

    net.iter()
        .zip(&skip)
        .filter(|&(_, &skipped)| !skipped)
        .map(|(&violation, _)| violation.abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarSpec;
    use mnsim_tech::fault::FaultMap;
    use mnsim_tech::units::{Resistance, Voltage};

    fn healthy_spec(rows: usize, cols: usize) -> CrossbarSpec {
        CrossbarSpec::uniform(
            rows,
            cols,
            Resistance::from_kilo_ohms(10.0),
            Resistance::from_ohms(2.0),
            Resistance::from_ohms(500.0),
            Voltage::from_volts(1.0),
        )
    }

    /// A nonsingular system the dense LU's relative pivot test calls
    /// singular: source → 1 Ω → a → 1 Ω → ground, plus a node b tied to
    /// the source and to ground through 1e15 Ω each. Returns the circuit
    /// and node b, which sits at 0.5 V.
    fn tiny_pivot_divider() -> (Circuit, usize) {
        let mut c = Circuit::new();
        let top = c.add_node();
        let a = c.add_node();
        let b = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(top, a, Resistance::from_ohms(1.0)).unwrap();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
            .unwrap();
        c.add_resistor(top, b, Resistance::from_ohms(1e15)).unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(1e15))
            .unwrap();
        (c, b)
    }

    #[test]
    fn healthy_crossbar_solves_on_base_rung() {
        let _session = obs::session();
        let xbar = healthy_spec(4, 4).build().unwrap();
        let (solution, report) = solve_robust(xbar.circuit(), &SolveOptions::default()).unwrap();
        assert_eq!(report.stage, RecoveryStage::Base);
        assert!(!report.fallback_fired());
        assert_eq!(report.failed_attempts(), 0);
        assert!(report.kcl_residual < 1e-9, "residual {}", report.kcl_residual);
        assert!(report.early_escalations.is_empty());
        assert!(xbar.output_voltages(&solution).iter().all(|v| v.volts() > 0.0));
    }

    #[test]
    fn broken_bitline_crossbar_still_solves() {
        let _session = obs::session();
        let mut map = FaultMap::empty(8, 8);
        map.broken_bitlines.insert(3, 4);
        let spec = healthy_spec(8, 8).with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        let xbar = spec.build().unwrap();
        let (solution, report) = solve_robust(xbar.circuit(), &SolveOptions::default()).unwrap();
        assert!(report.kcl_residual < 1e-6, "residual {}", report.kcl_residual);
        let outputs = xbar.output_voltages(&solution);
        // The broken column reads lower than its healthy neighbours.
        assert!(outputs[3].volts() < outputs[2].volts());
        assert!(outputs.iter().all(|v| v.volts().is_finite()));
    }

    #[test]
    fn ladder_escalates_when_base_method_fails() {
        let _session = obs::session();
        // Auto picks the dense LU at 2 unknowns; its pivot test rejects the
        // 1e-15 S node, and the ladder hands the system to LDLᵀ, which
        // solves it exactly.
        let (c, b) = tiny_pivot_divider();
        let (solution, report) = solve_robust(&c, &SolveOptions::default()).unwrap();
        assert!(report.fallback_fired());
        assert_eq!(report.stage, RecoveryStage::SparseLu);
        assert_eq!(report.failed_attempts(), 1);
        assert_eq!(
            report.attempts[0].error,
            Some(CircuitError::SingularSystem { at: 1 })
        );
        assert_eq!(
            report.early_escalations,
            vec![EarlyEscalation {
                stage: RecoveryStage::Base,
                guard: SolveGuard::SingularPivot,
            }]
        );
        assert_eq!(solution.voltages()[b], 0.5);
    }

    #[test]
    fn sparse_base_on_a_small_system_falls_back_to_dense() {
        // A zero-diagonal row defeats every engine; below the dense cutoff
        // an LDLᵀ base still gets the dense LU as its second rung.
        let session = obs::session();
        let mut c = healthy_spec(2, 2).build().unwrap().circuit().clone();
        c.add_node();
        let options = SolveOptions {
            method: Method::SparseLu,
            ..SolveOptions::default()
        };
        let err = solve_robust(&c, &options).unwrap_err();
        assert!(
            matches!(err, CircuitError::SingularSystem { .. }),
            "{err:?}"
        );
        assert_eq!(ATTEMPT_BASE.get(), 1);
        assert_eq!(ATTEMPT_SPARSE.get(), 0);
        assert_eq!(ATTEMPT_DENSE.get(), 1);
        assert_eq!(session.snapshot().counter("solver.early_escalations"), 2);
    }

    #[test]
    fn large_floating_node_never_goes_dense() {
        // 128×128 plus one floating node: 32 769 unknowns. The LDLᵀ base
        // fails on the empty column, and the ladder stops there instead of
        // copying the system into two n×n dense matrices.
        let _session = obs::session();
        let mut c = healthy_spec(128, 128).build().unwrap().circuit().clone();
        c.add_node();
        let err = solve_robust(&c, &SolveOptions::default()).unwrap_err();
        assert!(
            matches!(err, CircuitError::SingularSystem { .. }),
            "{err:?}"
        );
        assert_eq!(ATTEMPT_BASE.get(), 1);
        assert_eq!(ATTEMPT_SPARSE.get(), 0);
        assert_eq!(ATTEMPT_DENSE.get(), 0);
        assert_eq!(ROBUST_EXHAUSTED.get(), 1);
    }

    #[test]
    fn floating_sources_get_one_attempt() {
        // A floating source defeats the reduced paths, so full MNA is the
        // only engine, and an (artificially) impossible Newton budget makes
        // its one attempt fail.
        let _session = obs::session();
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_resistor(b, Circuit::GROUND, Resistance::from_ohms(100.0))
            .unwrap();
        c.add_voltage_source(a, b, Voltage::from_volts(2.0)).unwrap();
        c.add_memristor(
            a,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(1.0),
            mnsim_tech::memristor::IvModel::Sinh { alpha: 2.0 },
        )
        .unwrap();
        let options = SolveOptions {
            newton_max_iterations: 0,
            ..SolveOptions::default()
        };
        let err = solve_robust(&c, &options).unwrap_err();
        assert!(matches!(err, CircuitError::NewtonNoConvergence { .. }));
        assert_eq!(ATTEMPT_BASE.get(), 1);
        assert_eq!(ATTEMPT_SPARSE.get() + ATTEMPT_DENSE.get(), 0);
    }

    #[test]
    fn kcl_residual_zero_on_exact_solution() {
        let mut c = Circuit::new();
        let top = c.add_node();
        let mid = c.add_node();
        c.add_voltage_source(top, Circuit::GROUND, Voltage::from_volts(10.0))
            .unwrap();
        c.add_resistor(top, mid, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        c.add_resistor(mid, Circuit::GROUND, Resistance::from_kilo_ohms(3.0))
            .unwrap();
        let solution = solve_dc(&c, &SolveOptions::default()).unwrap();
        assert!(kcl_residual(&c, &solution) < 1e-12);
    }

    #[test]
    fn stage_display_names() {
        assert_eq!(RecoveryStage::Base.to_string(), "base");
        assert_eq!(RecoveryStage::SparseLu.to_string(), "sparse-lu");
        assert_eq!(RecoveryStage::DenseLu.to_string(), "dense-lu");
    }

    #[test]
    fn guard_display_includes_singular_pivot() {
        assert_eq!(SolveGuard::SingularPivot.to_string(), "singular-pivot");
    }
}
