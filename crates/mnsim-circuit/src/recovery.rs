//! Fault-tolerant DC solving: a typed recovery ladder around
//! [`solve_dc`].
//!
//! Defective crossbars produce brutally conditioned nodal systems: a broken
//! line modeled as a 1 TΩ near-open next to ohm-scale wire segments spreads
//! the conductance spectrum over twelve decades, which can stall the
//! conjugate-gradient path or break the LU pivoting that a healthy array
//! never stresses. [`solve_robust`] wraps the plain solver in an escalation
//! ladder so fault-injection campaigns *never* panic and *never* return
//! silent garbage:
//!
//! 1. the caller's configured solve (usually `Method::Auto`),
//! 2. conjugate gradients with a relaxed tolerance (a slightly loose answer
//!    beats none — degradation statistics don't need 1e-10 residuals),
//! 3. the sparse LDLᵀ direct solve (exact, `O(fill)`),
//! 4. a dense LU over the full system (exact, `O(n³)` — the last resort).
//!
//! Every accepted solution is screened for NaN/∞ and its Kirchhoff
//! current-law residual is measured, so the caller receives a
//! [`RecoveryReport`] stating *how* the answer was obtained and how much to
//! trust it.

use mnsim_obs as obs;
use mnsim_obs::trace;

use crate::cg::{CgOptions, IterationCap};
use crate::error::CircuitError;
use crate::mna::{Circuit, DcSolution, Element};
use crate::solve::{solve_dc, Method, SolveOptions};

static ROBUST_SOLVES: obs::Counter = obs::Counter::new("circuit.recovery.solves");
static ROBUST_FALLBACKS: obs::Counter = obs::Counter::new("circuit.recovery.fallbacks");
static ROBUST_EXHAUSTED: obs::Counter = obs::Counter::new("circuit.recovery.exhausted");
static ROBUST_SPAN: obs::Span = obs::Span::new("circuit.recovery.solve");
static KCL_RESIDUAL: obs::Histogram = obs::Histogram::new("circuit.recovery.kcl_residual");

static EARLY_ESCALATIONS: obs::Counter = obs::Counter::new("solver.early_escalations");

static ATTEMPT_BASE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.base");
static ATTEMPT_RELAXED: obs::Counter = obs::Counter::new("circuit.recovery.attempts.relaxed_cg");
static ATTEMPT_SPARSE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.sparse_lu");
static ATTEMPT_DENSE: obs::Counter = obs::Counter::new("circuit.recovery.attempts.dense_lu");
static ACCEPT_BASE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.base");
static ACCEPT_RELAXED: obs::Counter = obs::Counter::new("circuit.recovery.accepted.relaxed_cg");
static ACCEPT_SPARSE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.sparse_lu");
static ACCEPT_DENSE: obs::Counter = obs::Counter::new("circuit.recovery.accepted.dense_lu");
/// Per-rung dwell time: how long each attempt (successful or not) spent
/// on its rung before accepting or escalating.
static DWELL_BASE: obs::Span = obs::Span::new("circuit.recovery.dwell.base");
static DWELL_RELAXED: obs::Span = obs::Span::new("circuit.recovery.dwell.relaxed_cg");
static DWELL_SPARSE: obs::Span = obs::Span::new("circuit.recovery.dwell.sparse_lu");
static DWELL_DENSE: obs::Span = obs::Span::new("circuit.recovery.dwell.dense_lu");

impl RecoveryStage {
    /// Static label of the rung's trace instant.
    fn trace_name(self) -> &'static str {
        match self {
            RecoveryStage::Base => "recovery.attempt.base",
            RecoveryStage::RelaxedCg => "recovery.attempt.relaxed_cg",
            RecoveryStage::SparseLu => "recovery.attempt.sparse_lu",
            RecoveryStage::DenseLu => "recovery.attempt.dense_lu",
        }
    }

    fn attempt_counter(self) -> &'static obs::Counter {
        match self {
            RecoveryStage::Base => &ATTEMPT_BASE,
            RecoveryStage::RelaxedCg => &ATTEMPT_RELAXED,
            RecoveryStage::SparseLu => &ATTEMPT_SPARSE,
            RecoveryStage::DenseLu => &ATTEMPT_DENSE,
        }
    }

    fn accept_counter(self) -> &'static obs::Counter {
        match self {
            RecoveryStage::Base => &ACCEPT_BASE,
            RecoveryStage::RelaxedCg => &ACCEPT_RELAXED,
            RecoveryStage::SparseLu => &ACCEPT_SPARSE,
            RecoveryStage::DenseLu => &ACCEPT_DENSE,
        }
    }

    fn dwell_span(self) -> &'static obs::Span {
        match self {
            RecoveryStage::Base => &DWELL_BASE,
            RecoveryStage::RelaxedCg => &DWELL_RELAXED,
            RecoveryStage::SparseLu => &DWELL_SPARSE,
            RecoveryStage::DenseLu => &DWELL_DENSE,
        }
    }
}

/// Options for [`solve_robust`].
#[derive(Debug, Clone, PartialEq)]
pub struct RobustOptions {
    /// Options for the first (base) attempt.
    pub base: SolveOptions,
    /// Relative CG tolerance of the relaxed second rung.
    pub relaxed_tolerance: f64,
}

impl Default for RobustOptions {
    fn default() -> Self {
        RobustOptions {
            base: SolveOptions::default(),
            relaxed_tolerance: 1e-6,
        }
    }
}

/// One rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStage {
    /// The caller's configured solve.
    Base,
    /// Conjugate gradients with relaxed tolerance and a raised iteration cap.
    RelaxedCg,
    /// Sparse direct LDLᵀ ([`crate::ldl`]) — exact like the dense rung but
    /// `O(fill)` instead of `O(n³)`, so it rescues ill-conditioned systems
    /// that stall CG without paying the dense price.
    SparseLu,
    /// Dense LU over the full system.
    DenseLu,
}

impl std::fmt::Display for RecoveryStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryStage::Base => write!(f, "base"),
            RecoveryStage::RelaxedCg => write!(f, "relaxed-cg"),
            RecoveryStage::SparseLu => write!(f, "sparse-lu"),
            RecoveryStage::DenseLu => write!(f, "dense-lu"),
        }
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

/// A solver health guard that can cut a rung short before its iteration
/// budget is exhausted (see [`CgOptions`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveGuard {
    /// The residual or an internal quadratic form became NaN/Inf
    /// ([`CircuitError::LinearNonFinite`]).
    NonFinite,
    /// No new best residual over the stagnation window
    /// ([`CircuitError::LinearStagnated`]).
    Stagnated,
    /// Direct factorization hit a zero or vanishing pivot
    /// ([`CircuitError::SingularSystem`]) — the system is singular under
    /// that rung's elimination, so it escalates immediately rather than
    /// returning garbage.
    SingularPivot,
}

impl std::fmt::Display for SolveGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveGuard::NonFinite => write!(f, "non-finite"),
            SolveGuard::Stagnated => write!(f, "stagnated"),
            SolveGuard::SingularPivot => write!(f, "singular-pivot"),
        }
    }
}

/// Record of a rung that failed fast on a health guard rather than burning
/// its full iteration budget, handing the ladder to the next rung early.
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
    /// Rungs that failed fast on a solver health guard (non-finite residual
    /// or stagnation) instead of exhausting their iteration budget. Empty on
    /// a clean solve; entries are in ladder order.
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
}

/// Solves the DC operating point, escalating through the recovery ladder on
/// solver failure or non-finite output.
///
/// # Errors
///
/// Returns the *last* rung's error only if every rung failed — a genuinely
/// unsolvable system (e.g. a node with no DC path to ground even through
/// near-open resistors).
pub fn solve_robust(
    circuit: &Circuit,
    options: &RobustOptions,
) -> Result<(DcSolution, RecoveryReport), CircuitError> {
    let _span = ROBUST_SPAN.enter();
    let _trace_span = trace::span("recovery.solve", trace::Level::Stage);
    ROBUST_SOLVES.inc();
    let relaxed = SolveOptions {
        method: Method::Cg,
        cg: CgOptions {
            tolerance: options.relaxed_tolerance,
            // The relaxed rung keeps the 10·n default cap; with the loose
            // tolerance that budget is generous, and the health guards cut
            // the rung short if the system is genuinely stuck.
            max_iterations: IterationCap::Auto,
            ..options.base.cg.clone()
        },
        ..options.base.clone()
    };
    let sparse = SolveOptions {
        method: Method::SparseLu,
        ..options.base.clone()
    };
    let dense = SolveOptions {
        method: Method::DenseLu,
        ..options.base.clone()
    };
    let ladder = [
        (RecoveryStage::Base, options.base.clone()),
        (RecoveryStage::RelaxedCg, relaxed),
        (RecoveryStage::SparseLu, sparse),
        (RecoveryStage::DenseLu, dense),
    ];

    let mut attempts = Vec::new();
    let mut early_escalations = Vec::new();
    let mut last_error = None;
    for (stage, solve_options) in ladder {
        stage.attempt_counter().inc();
        trace::instant(stage.trace_name(), trace::Level::Stage, 1.0);
        let _dwell = stage.dwell_span().enter();
        match attempt(circuit, &solve_options, stage) {
            Ok(solution) => {
                stage.accept_counter().inc();
                if stage != RecoveryStage::Base {
                    ROBUST_FALLBACKS.inc();
                }
                attempts.push(Attempt { stage, error: None });
                let kcl_residual = kcl_residual(circuit, &solution);
                KCL_RESIDUAL.record(kcl_residual);
                return Ok((
                    solution,
                    RecoveryReport {
                        attempts,
                        stage,
                        kcl_residual,
                        early_escalations,
                    },
                ));
            }
            Err(error) => {
                let guard = match &error {
                    CircuitError::LinearNonFinite { .. } => Some(SolveGuard::NonFinite),
                    CircuitError::LinearStagnated { .. } => Some(SolveGuard::Stagnated),
                    CircuitError::SingularSystem { .. } => Some(SolveGuard::SingularPivot),
                    _ => None,
                };
                if let Some(guard) = guard {
                    EARLY_ESCALATIONS.inc();
                    trace::instant("recovery.early_escalation", trace::Level::Stage, 1.0);
                    if obs::live::enabled() {
                        obs::live::guard_tripped(&stage.to_string(), &guard.to_string());
                    }
                    early_escalations.push(EarlyEscalation { stage, guard });
                }
                attempts.push(Attempt {
                    stage,
                    error: Some(error.clone()),
                });
                last_error = Some(error);
            }
        }
    }
    // The ladder always has at least one rung, so an error was recorded.
    ROBUST_EXHAUSTED.inc();
    Err(last_error.unwrap_or(CircuitError::InvalidElement {
        reason: "recovery ladder ran no attempts".into(),
    }))
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
            stage: match stage {
                RecoveryStage::Base => "base",
                RecoveryStage::RelaxedCg => "relaxed-cg",
                RecoveryStage::SparseLu => "sparse-lu",
                RecoveryStage::DenseLu => "dense-lu",
            },
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

    #[test]
    fn healthy_crossbar_solves_on_base_rung() {
        let xbar = healthy_spec(4, 4).build().unwrap();
        let (solution, report) = solve_robust(xbar.circuit(), &RobustOptions::default()).unwrap();
        assert_eq!(report.stage, RecoveryStage::Base);
        assert!(!report.fallback_fired());
        assert_eq!(report.failed_attempts(), 0);
        assert!(report.kcl_residual < 1e-9, "residual {}", report.kcl_residual);
        assert!(report.early_escalations.is_empty());
        assert!(xbar.output_voltages(&solution).iter().all(|v| v.volts() > 0.0));
    }

    #[test]
    fn stagnation_guard_records_early_escalation() {
        // An unreachable tolerance makes the base CG rung stagnate; the
        // guard hands the ladder to the relaxed rung early, and the report
        // must say which guard fired on which rung.
        let xbar = healthy_spec(6, 6).build().unwrap();
        let mut options = RobustOptions::default();
        options.base.method = Method::Cg;
        options.base.cg = CgOptions {
            tolerance: 1e-30,
            stagnation_window: Some(3),
            ..CgOptions::default()
        };
        options.relaxed_tolerance = 1e-6;
        let (_, report) = solve_robust(xbar.circuit(), &options).unwrap();
        assert!(report.fallback_fired());
        assert!(matches!(
            report.attempts[0].error,
            Some(CircuitError::LinearStagnated { window: 3, .. })
        ));
        assert_eq!(
            report.early_escalations,
            vec![EarlyEscalation {
                stage: RecoveryStage::Base,
                guard: SolveGuard::Stagnated,
            }]
        );
    }

    #[test]
    fn guard_display_names() {
        assert_eq!(SolveGuard::NonFinite.to_string(), "non-finite");
        assert_eq!(SolveGuard::Stagnated.to_string(), "stagnated");
    }

    #[test]
    fn broken_bitline_crossbar_still_solves() {
        let mut map = FaultMap::empty(8, 8);
        map.broken_bitlines.insert(3, 4);
        let spec = healthy_spec(8, 8).with_faults(
            map,
            Resistance::from_kilo_ohms(500.0),
            Resistance::from_ohms(500.0),
        );
        let xbar = spec.build().unwrap();
        let (solution, report) = solve_robust(xbar.circuit(), &RobustOptions::default()).unwrap();
        assert!(report.kcl_residual < 1e-6, "residual {}", report.kcl_residual);
        let outputs = xbar.output_voltages(&solution);
        // The broken column reads lower than its healthy neighbours.
        assert!(outputs[3].volts() < outputs[2].volts());
        assert!(outputs.iter().all(|v| v.volts().is_finite()));
    }

    #[test]
    fn ladder_escalates_when_base_method_fails() {
        // A starvation budget makes the base CG fail; the ladder must fall
        // through to a rung that succeeds and say so in the report.
        let xbar = healthy_spec(6, 6).build().unwrap();
        let mut options = RobustOptions::default();
        options.base.method = Method::Cg;
        options.base.cg = CgOptions {
            tolerance: 1e-14,
            max_iterations: IterationCap::Limit(1),
            ..CgOptions::default()
        };
        // Keep the relaxed rung honest but reachable.
        options.relaxed_tolerance = 1e-6;
        let (solution, report) = solve_robust(xbar.circuit(), &options).unwrap();
        assert!(report.fallback_fired());
        assert!(report.failed_attempts() >= 1);
        assert!(matches!(
            report.attempts[0].error,
            Some(CircuitError::LinearNoConvergence { .. })
        ));
        assert!(xbar
            .output_voltages(&solution)
            .iter()
            .all(|v| v.volts().is_finite()));
    }

    #[test]
    fn all_rungs_fail_returns_last_error() {
        // A floating source defeats the reduced paths, and an (artificially)
        // impossible Newton budget defeats every rung of the ladder.
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
        let mut options = RobustOptions::default();
        options.base.newton_max_iterations = 0;
        let err = solve_robust(&c, &options).unwrap_err();
        assert!(matches!(err, CircuitError::NewtonNoConvergence { .. }));
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
        assert_eq!(RecoveryStage::RelaxedCg.to_string(), "relaxed-cg");
        assert_eq!(RecoveryStage::SparseLu.to_string(), "sparse-lu");
        assert_eq!(RecoveryStage::DenseLu.to_string(), "dense-lu");
    }

    #[test]
    fn guard_display_includes_singular_pivot() {
        assert_eq!(SolveGuard::SingularPivot.to_string(), "singular-pivot");
    }
}
