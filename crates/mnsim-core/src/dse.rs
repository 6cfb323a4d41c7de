//! Design-space exploration (paper §VII.C/D).
//!
//! MNSIM explores designs by exhaustive traversal — cheap because one
//! behavior-level evaluation takes microseconds ("All the 10,220 designs
//! are simulated within 4 seconds"). The swept variables are the paper's
//! three: crossbar size, computation parallelism degree, and interconnect
//! technology node. Results support per-metric optima (Tables IV/VI),
//! constrained sweeps (Table V), trade-off curves (Figs. 7/8) and Pareto
//! filtering.

use std::fmt::Write as _;
use std::time::Instant;

use mnsim_obs as obs;
use mnsim_obs::{JsonValue, Level};
use mnsim_tech::interconnect::InterconnectNode;

use crate::checkpoint::{self, record_index, Campaign, CheckpointPolicy, Record};
use crate::config::Config;
use crate::error::{ConfigError, CoreError};
use crate::exec::RunControl;
use crate::simulate::{simulate, Report};

static DSE_POINTS: obs::Counter = obs::Counter::new("core.dse.points");
static DSE_FEASIBLE: obs::Counter = obs::Counter::new("core.dse.feasible");
static DSE_INFEASIBLE: obs::Counter = obs::Counter::new("core.dse.infeasible");
static DSE_ERRORS: obs::Counter = obs::Counter::new("core.dse.errors");
static POINT_SPAN: obs::Span = obs::Span::new("dse.point", Level::Stage);
static EXPLORE_SPAN: obs::Span = obs::Span::new("dse.explore", Level::Run);
static POINTS_PER_SEC: obs::Gauge = obs::Gauge::new("core.dse.points_per_sec");

/// The swept parameter ranges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignSpace {
    /// Crossbar sizes to try (powers of two in `4..=1024`).
    pub crossbar_sizes: Vec<usize>,
    /// Parallelism degrees to try (entries larger than the crossbar size
    /// are skipped for that size).
    pub parallelism_degrees: Vec<usize>,
    /// Interconnect nodes to try.
    pub interconnects: Vec<InterconnectNode>,
}

impl DesignSpace {
    /// The paper's large-computation-bank sweep (§VII.C): sizes double
    /// from 4 to 1024, parallelism from 1 to 128, wires
    /// {18, 22, 28, 36, 45} nm.
    pub fn paper_large_bank() -> Self {
        DesignSpace {
            crossbar_sizes: doubling(4, 1024),
            parallelism_degrees: doubling(1, 128),
            interconnects: InterconnectNode::BANK_SWEEP.to_vec(),
        }
    }

    /// The paper's CNN sweep (§VII.D): same ranges with the interconnect
    /// range enlarged up to 90 nm.
    pub fn paper_cnn() -> Self {
        DesignSpace {
            crossbar_sizes: doubling(4, 1024),
            parallelism_degrees: doubling(1, 128),
            interconnects: InterconnectNode::ALL.to_vec(),
        }
    }

    /// Number of raw combinations (before the `p ≤ size` filter).
    pub fn len(&self) -> usize {
        self.crossbar_sizes.len() * self.parallelism_degrees.len() * self.interconnects.len()
    }

    /// `true` if the space contains no combinations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Validates the swept ranges before a traversal starts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] with one typed [`ConfigError`] per
    /// empty range, and one for a space whose every combination is
    /// removed by the `parallelism ≤ crossbar size` filter — instead of
    /// silently producing a degenerate zero-point exploration.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut errors = Vec::new();
        if self.crossbar_sizes.is_empty() {
            errors.push(ConfigError {
                field_path: "DesignSpace.crossbar_sizes".into(),
                reason: "no crossbar sizes to sweep".into(),
                allowed: "at least one size".into(),
            });
        }
        if self.parallelism_degrees.is_empty() {
            errors.push(ConfigError {
                field_path: "DesignSpace.parallelism_degrees".into(),
                reason: "no parallelism degrees to sweep".into(),
                allowed: "at least one degree".into(),
            });
        }
        if self.interconnects.is_empty() {
            errors.push(ConfigError {
                field_path: "DesignSpace.interconnects".into(),
                reason: "no interconnect nodes to sweep".into(),
                allowed: "at least one node".into(),
            });
        }
        if errors.is_empty() && self.combinations().is_empty() {
            errors.push(ConfigError {
                field_path: "DesignSpace.parallelism_degrees".into(),
                reason: "every combination is filtered out (all degrees exceed every \
                         crossbar size)"
                    .into(),
                allowed: "at least one degree ≤ the largest crossbar size".into(),
            });
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(CoreError::Config { errors })
        }
    }

    /// All valid `(size, parallelism, interconnect)` combinations.
    fn combinations(&self) -> Vec<(usize, usize, InterconnectNode)> {
        let mut combos = Vec::with_capacity(self.len());
        for &size in &self.crossbar_sizes {
            for &p in &self.parallelism_degrees {
                if p > size {
                    continue;
                }
                for &wire in &self.interconnects {
                    combos.push((size, p, wire));
                }
            }
        }
        combos
    }
}

fn doubling(from: usize, to: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut x = from;
    while x <= to {
        v.push(x);
        x *= 2;
    }
    v
}

/// Feasibility constraints applied before ranking.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Constraints {
    /// Upper bound on the single-crossbar computing error rate `ε`
    /// (the paper uses 25 % for the bank study, 50 % for the CNN study).
    pub max_crossbar_error: Option<f64>,
    /// Upper bound on total area in mm².
    pub max_area_mm2: Option<f64>,
    /// Upper bound on average power in watts.
    pub max_power_w: Option<f64>,
}

impl Constraints {
    /// A crossbar-error bound alone (the paper's setup).
    pub fn crossbar_error(bound: f64) -> Self {
        Constraints {
            max_crossbar_error: Some(bound),
            ..Constraints::default()
        }
    }

    /// `true` if the report satisfies every bound.
    pub(crate) fn admits(&self, report: &Report) -> bool {
        if let Some(bound) = self.max_crossbar_error {
            if report.worst_crossbar_epsilon > bound {
                return false;
            }
        }
        if let Some(bound) = self.max_area_mm2 {
            if report.total_area.square_millimeters() > bound {
                return false;
            }
        }
        if let Some(bound) = self.max_power_w {
            if report.power.watts() > bound {
                return false;
            }
        }
        true
    }
}

/// The optimization target of a per-metric optimum (Table IV columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Objective {
    /// Minimize total area.
    Area,
    /// Minimize energy per sample.
    Energy,
    /// Minimize end-to-end sample latency.
    Latency,
    /// Minimize the final output error rate ("Computation Accuracy").
    Accuracy,
    /// Minimize average power.
    Power,
}

impl Objective {
    /// The four Table-IV/VI columns.
    pub const TABLE_COLUMNS: [Objective; 4] = [
        Objective::Area,
        Objective::Energy,
        Objective::Latency,
        Objective::Accuracy,
    ];

    /// Extracts the (to-be-minimized) metric from a report.
    pub fn value(&self, report: &Report) -> f64 {
        match self {
            Objective::Area => report.total_area.square_millimeters(),
            Objective::Energy => report.energy_per_sample.microjoules(),
            Objective::Latency => report.sample_latency.microseconds(),
            Objective::Accuracy => report.output_max_error_rate,
            Objective::Power => report.power.watts(),
        }
    }
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Objective::Area => write!(f, "area"),
            Objective::Energy => write!(f, "energy"),
            Objective::Latency => write!(f, "latency"),
            Objective::Accuracy => write!(f, "accuracy"),
            Objective::Power => write!(f, "power"),
        }
    }
}

/// One evaluated design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Crossbar size of this design.
    pub crossbar_size: usize,
    /// Parallelism degree of this design.
    pub parallelism: usize,
    /// Interconnect node of this design.
    pub interconnect: InterconnectNode,
    /// The full simulation report.
    pub report: Report,
}

/// The outcome of a traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct DseResult {
    /// Raw combinations evaluated (including infeasible ones).
    pub evaluated: usize,
    /// Designs passing the constraints.
    pub feasible: Vec<DesignPoint>,
}

impl DseResult {
    /// The feasible design minimizing `objective` (ties broken by smaller
    /// area).
    pub fn best(&self, objective: Objective) -> Option<&DesignPoint> {
        self.feasible.iter().min_by(|a, b| {
            objective
                .value(&a.report)
                .total_cmp(&objective.value(&b.report))
                .then(
                    Objective::Area
                        .value(&a.report)
                        .total_cmp(&Objective::Area.value(&b.report)),
                )
        })
    }

    /// The feasible design minimizing `primary` with `secondary` as the
    /// tie-break (the paper's "secondary optimization target" for
    /// accuracy, §VII.C-1).
    pub fn best_with_secondary(
        &self,
        primary: Objective,
        secondary: Objective,
    ) -> Option<&DesignPoint> {
        let best_value = self
            .feasible
            .iter()
            .map(|p| primary.value(&p.report))
            .min_by(f64::total_cmp)?;
        self.feasible
            .iter()
            .filter(|p| primary.value(&p.report) <= best_value * 1.000001)
            .min_by(|a, b| {
                secondary
                    .value(&a.report)
                    .total_cmp(&secondary.value(&b.report))
            })
    }

    /// The Pareto-optimal subset under the given objectives (all
    /// minimized).
    pub fn pareto(&self, objectives: &[Objective]) -> Vec<&DesignPoint> {
        let dominated = |a: &DesignPoint, b: &DesignPoint| -> bool {
            // b dominates a: no worse everywhere, better somewhere.
            let mut strictly_better = false;
            for obj in objectives {
                let (va, vb) = (obj.value(&a.report), obj.value(&b.report));
                if vb > va {
                    return false;
                }
                if vb < va {
                    strictly_better = true;
                }
            }
            strictly_better
        };
        self.feasible
            .iter()
            .filter(|a| !self.feasible.iter().any(|b| dominated(a, b)))
            .collect()
    }
}

/// Exhaustively traverses `space` around `base` — the workload behind
/// [`Simulator::explore`](crate::simulator::Simulator::explore). The
/// network, device, CMOS node, precisions and sense resistance are taken
/// from `base`; the three swept parameters are overridden.
///
/// Combinations run on the checkpointed campaign driver ([`Campaign`])
/// over `threads` workers. Feasible designs come back in traversal order
/// for every thread count, and a failure is the one belonging to the
/// *earliest* combination in traversal order — exactly what a serial
/// traversal reports (the parallel path still evaluates every
/// combination).
///
/// A checkpoint stores which combinations were evaluated and whether they
/// were feasible, **not** the full reports: on resume, previously
/// infeasible combinations are skipped, while feasible ones are
/// re-evaluated (evaluation is pure and seedless, so the resumed
/// [`DseResult`] — Pareto front included — is bit-identical to an
/// uninterrupted traversal). Feasible sets are typically a small fraction
/// of the sweep, so the re-evaluation cost is marginal compared to
/// serializing every [`Report`].
///
/// # Errors
///
/// [`CoreError::Config`] for an invalid [`DesignSpace`],
/// [`CoreError::EmptyDesignSpace`] if no combination passes the
/// constraints, evaluation errors, and the campaign's interrupt, panic
/// and checkpoint errors.
pub(crate) fn explore(
    base: &Config,
    space: &DesignSpace,
    constraints: &Constraints,
    threads: usize,
    control: &RunControl,
    policy: Option<&CheckpointPolicy>,
) -> Result<DseResult, CoreError> {
    let _span = EXPLORE_SPAN.enter();
    space.validate()?;
    let started = Instant::now();
    let combos = space.combinations();
    let campaign = Campaign {
        total: combos.len(),
        fingerprint: sweep_fingerprint(base, space, constraints),
        seed: None,
        threads,
        control,
        policy,
    };
    let outcomes = campaign.run(|index| {
        let (size, p, wire) = combos[index];
        let point = evaluate_point(base, size, p, wire)?;
        let admitted = constraints.admits(&point.report);
        record_admission(admitted);
        Ok(admitted.then_some(point))
    })?;
    // `filter_map` collects in place into the outcomes' allocation;
    // `flatten` would grow a new one by doubling, which raised the session
    // server's peak RSS by ~12 % under mixed traffic (fronts stay cached).
    #[allow(clippy::filter_map_identity)]
    let feasible: Vec<DesignPoint> = outcomes.into_iter().filter_map(|outcome| outcome).collect();
    record_throughput(combos.len(), started);
    finish(combos.len(), feasible, constraints)
}

/// Fingerprints the sweep identity: base config, swept ranges, and
/// constraints (feasibility flags depend on them); excludes thread count
/// and the checkpoint policy.
pub(crate) fn sweep_fingerprint(
    base: &Config,
    space: &DesignSpace,
    constraints: &Constraints,
) -> u64 {
    let canonical = format!("dse|config={base:?}|space={space:?}|constraints={constraints:?}");
    checkpoint::fnv64(canonical.as_bytes())
}

/// A combination's outcome: the design if it was feasible. Its checkpoint
/// record keeps only the feasibility flag, so a resume skips infeasible
/// combinations and re-evaluates feasible ones.
impl Record for Option<DesignPoint> {
    const KIND: &'static str = "dse";
    const EVENT: &'static str = "dse_sweep";
    const COUNT_KEY: &'static str = "combos";
    const RECORDS_KEY: &'static str = "evaluated";

    fn encode(&self, index: usize, out: &mut String) {
        let _ = write!(
            out,
            "{{\"index\": {index}, \"feasible\": {}}}",
            self.is_some()
        );
    }

    fn decode(record: &JsonValue, combos: usize) -> Result<(usize, Option<Self>), String> {
        let index = record_index(record, "index", combos)?;
        match record.get("feasible") {
            Some(JsonValue::Bool(true)) => Ok((index, None)),
            Some(JsonValue::Bool(false)) => Ok((index, Some(None))),
            _ => Err(format!("combination {index}: bad `feasible`")),
        }
    }
}

fn evaluate_point(
    base: &Config,
    size: usize,
    parallelism: usize,
    interconnect: InterconnectNode,
) -> Result<DesignPoint, CoreError> {
    let _span = POINT_SPAN.enter();
    DSE_POINTS.inc();
    let mut config = base.clone();
    config.crossbar_size = size;
    config.parallelism = parallelism;
    config.interconnect = interconnect;
    let report = simulate(&config).inspect_err(|_| DSE_ERRORS.inc())?;
    Ok(DesignPoint {
        crossbar_size: size,
        parallelism,
        interconnect,
        report,
    })
}

fn record_admission(admitted: bool) {
    if admitted {
        DSE_FEASIBLE.inc();
    } else {
        DSE_INFEASIBLE.inc();
    }
}

fn record_throughput(points: usize, started: Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    if elapsed > 0.0 {
        POINTS_PER_SEC.set(points as f64 / elapsed);
    }
}

fn finish(
    evaluated: usize,
    feasible: Vec<DesignPoint>,
    constraints: &Constraints,
) -> Result<DseResult, CoreError> {
    if feasible.is_empty() {
        return Err(CoreError::EmptyDesignSpace {
            constraints: format!("{constraints:?}"),
        });
    }
    Ok(DseResult {
        evaluated,
        feasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_space() -> DesignSpace {
        DesignSpace {
            crossbar_sizes: vec![32, 64, 128],
            parallelism_degrees: vec![1, 16, 64],
            interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
        }
    }

    fn base() -> Config {
        Config::fully_connected_mlp(&[512, 256]).unwrap()
    }

    /// An uncontrolled, checkpoint-free sweep on `threads` workers.
    fn explore_on(
        base: &Config,
        space: &DesignSpace,
        constraints: &Constraints,
        threads: usize,
    ) -> Result<DseResult, CoreError> {
        explore(base, space, constraints, threads, &RunControl::new(), None)
    }

    fn sweep(
        base: &Config,
        space: &DesignSpace,
        constraints: &Constraints,
    ) -> Result<DseResult, CoreError> {
        explore_on(base, space, constraints, 1)
    }

    #[test]
    fn doubling_ranges() {
        assert_eq!(doubling(4, 64), vec![4, 8, 16, 32, 64]);
        assert_eq!(doubling(1, 1), vec![1]);
    }

    #[test]
    fn paper_space_size_matches_order_of_magnitude() {
        // The paper sweeps thousands of designs for the bank study; sizes
        // 4..1024 × p 1..128 × 5 wires with the p ≤ size filter lands in
        // the same range.
        let space = DesignSpace::paper_large_bank();
        let combos = space.combinations();
        assert!(combos.len() > 200 && combos.len() < 20_000, "{}", combos.len());
    }

    #[test]
    fn parallelism_filtered_by_size() {
        let space = DesignSpace {
            crossbar_sizes: vec![8],
            parallelism_degrees: vec![1, 8, 64],
            interconnects: vec![InterconnectNode::N45],
        };
        assert_eq!(space.combinations().len(), 2); // 64 > 8 dropped
    }

    #[test]
    fn explore_finds_per_metric_optima() {
        let result = sweep(&base(), &small_space(), &Constraints::default()).unwrap();
        assert_eq!(result.evaluated, small_space().combinations().len());
        let area_best = result.best(Objective::Area).unwrap();
        let lat_best = result.best(Objective::Latency).unwrap();
        assert!(
            Objective::Area.value(&area_best.report)
                <= Objective::Area.value(&lat_best.report)
        );
        assert!(
            Objective::Latency.value(&lat_best.report)
                <= Objective::Latency.value(&area_best.report)
        );
    }

    #[test]
    fn constraints_filter_designs() {
        let unconstrained = sweep(&base(), &small_space(), &Constraints::default()).unwrap();
        let tight = Constraints::crossbar_error(
            unconstrained
                .feasible
                .iter()
                .map(|p| p.report.worst_crossbar_epsilon)
                .fold(f64::INFINITY, f64::min)
                * 1.01,
        );
        let constrained = sweep(&base(), &small_space(), &tight).unwrap();
        assert!(constrained.feasible.len() < unconstrained.feasible.len());
    }

    #[test]
    fn impossible_constraints_error() {
        let c = Constraints::crossbar_error(0.0);
        assert!(matches!(
            sweep(&base(), &small_space(), &c),
            Err(CoreError::EmptyDesignSpace { .. })
        ));
    }

    #[test]
    fn parallel_matches_serial() {
        let serial = sweep(&base(), &small_space(), &Constraints::default()).unwrap();
        for threads in [0usize, 2, 4, 7] {
            let parallel =
                explore_on(&base(), &small_space(), &Constraints::default(), threads).unwrap();
            // Traversal order + pure evaluation: the whole result is
            // bit-identical to the serial traversal.
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn checkpoint_bytes_are_stable_and_load_back() {
        let dir = std::env::temp_dir().join(format!("mnsim_dse_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dse.json").display().to_string();
        let policy = CheckpointPolicy::new(path.clone());
        let control = RunControl::new();
        let campaign = Campaign {
            total: 3,
            fingerprint: 0xfedc_ba98_7654_3210,
            seed: None,
            threads: 1,
            control: &control,
            policy: Some(&policy),
        };
        let point = DesignPoint {
            crossbar_size: 64,
            parallelism: 1,
            interconnect: InterconnectNode::N45,
            report: simulate(&Config::fully_connected_mlp(&[64, 32]).unwrap()).unwrap(),
        };
        let slots = vec![Some(None), Some(Some(point)), None];
        campaign.write(&path, &slots).unwrap();
        // Captured from the writer that predates the shared `Campaign`:
        // checkpoints written before it must still resume.
        let expected = r#"{
  "schema": 1,
  "kind": "dse",
  "fingerprint": "0xfedcba9876543210",
  "combos": 3,
  "evaluated": [
    {"index": 0, "feasible": false},
    {"index": 1, "feasible": true}
  ]
}
"#;
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);

        // Only the infeasible combination resumes; the feasible one is
        // re-evaluated for its full report.
        let mut loaded: Vec<Option<Option<DesignPoint>>> = vec![None, None, None];
        assert_eq!(campaign.load(&path, &mut loaded).unwrap(), 1);
        assert_eq!(loaded, vec![Some(None), None, None]);

        // An empty sweep closes its record array on the same line.
        let empty: Vec<Option<Option<DesignPoint>>> = vec![None, None];
        campaign.write(&path, &empty).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\n  \"schema\": 1,\n  \"kind\": \"dse\",\n  \"fingerprint\": \"0xfedcba9876543210\",\n  \
             \"combos\": 2,\n  \"evaluated\": []\n}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pareto_contains_every_single_objective_optimum() {
        let result = sweep(&base(), &small_space(), &Constraints::default()).unwrap();
        let front = result.pareto(&[Objective::Area, Objective::Latency]);
        assert!(!front.is_empty());
        let area_best = result.best(Objective::Area).unwrap();
        assert!(front.iter().any(|p| {
            Objective::Area.value(&p.report) == Objective::Area.value(&area_best.report)
        }));
        // Every front member must be non-dominated.
        for a in &front {
            for b in &result.feasible {
                let better_area =
                    Objective::Area.value(&b.report) < Objective::Area.value(&a.report);
                let better_lat =
                    Objective::Latency.value(&b.report) < Objective::Latency.value(&a.report);
                let no_worse_area =
                    Objective::Area.value(&b.report) <= Objective::Area.value(&a.report);
                let no_worse_lat =
                    Objective::Latency.value(&b.report) <= Objective::Latency.value(&a.report);
                assert!(
                    !(no_worse_area && no_worse_lat && (better_area || better_lat)),
                    "front member dominated"
                );
            }
        }
    }

    #[test]
    fn secondary_objective_breaks_ties() {
        let result = sweep(&base(), &small_space(), &Constraints::default()).unwrap();
        let best = result
            .best_with_secondary(Objective::Accuracy, Objective::Area)
            .unwrap();
        let plain = result.best(Objective::Accuracy).unwrap();
        assert!(
            Objective::Accuracy.value(&best.report)
                <= Objective::Accuracy.value(&plain.report) * 1.000001
        );
    }
}
