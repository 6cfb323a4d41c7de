//! Fault-injection Monte-Carlo over the simulation pipeline.
//!
//! A campaign attached with
//! [`Simulator::faults`](crate::simulator::Simulator::faults) extends the
//! behavior-level flow of [`simulate`] with hard-defect modeling: it
//! draws seeded [`FaultMap`]s, applies MNSIM's graceful-degradation story
//! (spare-row remapping, bank retirement past a defect threshold), pushes
//! each surviving map through *both* the circuit path (a representative
//! crossbar solved on the LDLᵀ engine, every accepted solution's KCL
//! residual recorded) and the behavior path (the same map mirrored onto
//! weights by `mnsim-nn::fault`), and attaches the resulting yield,
//! repair, and accuracy-degradation statistics to the [`Report`].
//!
//! Everything is deterministic: the same `(config, fault_config)` pair
//! produces a bit-identical [`FaultSummary`], so regression baselines and
//! replayed defect maps stay meaningful.

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::mna::{kcl_residual, DcSolution};
use mnsim_circuit::solve::{solve_dc, Rhs, Solver};
use mnsim_obs as obs;
use mnsim_obs::Level;
use mnsim_nn::fault::weight_damage_levels;
use mnsim_nn::quantize::Quantizer;
use mnsim_nn::tensor::Tensor;
use mnsim_tech::fault::{FaultMap, FaultRates};
use mnsim_tech::units::{Resistance, Voltage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::cell::RefCell;
use std::fmt::Write as _;

use mnsim_obs::{write_json_number, JsonValue};

use crate::checkpoint::{self, record_index, Campaign, CheckpointPolicy, Record};
use crate::config::Config;
use crate::error::{ConfigError, CoreError};
use crate::exec::RunControl;
use crate::simulate::{simulate, Report};

static FAULT_CAMPAIGNS: obs::Counter = obs::Counter::new("core.fault.campaigns");
static FAULT_TRIALS: obs::Counter = obs::Counter::new("core.fault.trials");
static FAULT_RETIRED: obs::Counter = obs::Counter::new("core.fault.retired_trials");
static CAMPAIGN_SPAN: obs::Span = obs::Span::new("fault.campaign", Level::Run);
static TRIAL_SPAN: obs::Span = obs::Span::new("fault.trial", Level::Trial);

/// Side length cap of the representative crossbar solved at circuit level.
///
/// The degradation statistics only need a representative array — solving the
/// full `crossbar_size` (up to 1024²) per Monte-Carlo trial would defeat the
/// behavior-level speed advantage the paper exists to demonstrate.
const REPRESENTATIVE_LIMIT: usize = 16;

/// Fault-injection campaign parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Per-kind defect probabilities.
    pub rates: FaultRates,
    /// Number of Monte-Carlo fault maps to draw.
    pub trials: usize,
    /// Master seed; each trial derives its own sub-seed from it.
    pub seed: u64,
    /// Spare rows available per crossbar for defect remapping.
    pub spare_rows: usize,
    /// Defective-cell fraction (after spare-row repair) beyond which the
    /// bank is retired instead of operated degraded.
    pub retire_threshold: f64,
    /// Input vectors read per surviving trial (≥ 1). The first read uses
    /// the campaign's primary activations; extra reads re-drive the same
    /// faulty array in one [`Solver::solve_batch`] call, reusing its
    /// factorization, so each extra read costs one backsolve. The default
    /// of `1` reproduces the single-read campaign bit for bit.
    pub inputs_per_trial: usize,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            rates: FaultRates::stuck_at(0.01),
            trials: 8,
            seed: 0x00C0_FFEE,
            spare_rows: 2,
            retire_threshold: 0.25,
            inputs_per_trial: 1,
        }
    }
}

impl FaultConfig {
    /// Validates the campaign parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] listing **every** invalid field as a
    /// typed [`ConfigError`] (`trials == 0`, an out-of-range retirement
    /// threshold, zero reads per trial), and propagates
    /// [`FaultRates::validate`] failures as [`CoreError::Tech`].
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut errors = Vec::new();
        if self.trials == 0 {
            errors.push(ConfigError {
                field_path: "FaultConfig.trials".into(),
                reason: "a campaign of zero Monte-Carlo trials would produce a degenerate \
                         all-zero summary"
                    .into(),
                allowed: ">= 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.retire_threshold) {
            errors.push(ConfigError {
                field_path: "FaultConfig.retire_threshold".into(),
                reason: format!("{} is not a fraction", self.retire_threshold),
                allowed: "0.0..=1.0".into(),
            });
        }
        if self.inputs_per_trial == 0 {
            errors.push(ConfigError {
                field_path: "FaultConfig.inputs_per_trial".into(),
                reason: "each trial needs at least one read vector".into(),
                allowed: ">= 1".into(),
            });
        }
        if !errors.is_empty() {
            return Err(CoreError::Config { errors });
        }
        self.rates.validate()?;
        Ok(())
    }
}

/// Aggregate outcome of a fault-injection campaign, attached to a
/// [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Monte-Carlo trials run.
    pub trials: usize,
    /// Fraction of trials in which the array stayed in service after
    /// spare-row repair (defect fraction ≤ retirement threshold).
    pub yield_fraction: f64,
    /// Trials in which the array was retired.
    pub retired_trials: usize,
    /// Mean spare rows consumed per trial by defect remapping.
    pub mean_spare_rows_used: f64,
    /// Circuit-level primary-read solves performed.
    pub solves: usize,
    /// Always 0: every solve runs on the one LDLᵀ engine, so there is no
    /// fallback to count. Kept for the report formats; a checkpoint
    /// written before the engine was unified may still carry records
    /// flagged `"fallback": true`, and resuming it counts them here.
    pub fallback_solves: usize,
    /// Worst Kirchhoff current-law residual of any accepted solution (A).
    pub worst_kcl_residual: f64,
    /// Mean per-column digital deviation of surviving arrays, in output
    /// quantization levels.
    pub mean_deviation_levels: f64,
    /// 95th-percentile per-column digital deviation, in output levels.
    pub p95_deviation_levels: f64,
    /// Mean per-cell weight damage of the behavior-level mirror, in weight
    /// quantization levels.
    pub mean_weight_damage_levels: f64,
}

impl FaultSummary {
    /// `fallback_solves / solves`: always 0 (see
    /// [`FaultSummary::fallback_solves`]).
    pub fn fallback_rate(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.fallback_solves as f64 / self.solves as f64
        }
    }
}

/// Derives the per-trial seed from the campaign master seed (SplitMix64
/// increment, so trials are decorrelated but replayable).
fn trial_seed(master: u64, trial: usize) -> u64 {
    master ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

thread_local! {
    /// Per-worker solver handle for the representative crossbar.
    /// Successive trials on a worker differ only in element *values*
    /// (defect overlays swap resistances, never topology), so the handle
    /// keeps its analysis and refactors in place (the `solver.klu.refactor`
    /// fast path) instead of re-analyzing the structure every trial.
    /// Thread-count invariance holds because a refactored LDLᵀ is
    /// bit-identical to a cold one (factor and refactor are the same
    /// routine) — it does not matter which trials happened to share a
    /// worker.
    static TRIAL_SOLVER: RefCell<Solver> = RefCell::new(Solver::default());
}

/// Immutable per-campaign state shared by every Monte-Carlo trial.
struct TrialContext<'a> {
    fault_config: &'a FaultConfig,
    device: &'a mnsim_tech::memristor::MemristorModel,
    clean_spec: &'a CrossbarSpec,
    clean_outputs: &'a [Voltage],
    weights: &'a Tensor,
    weight_quantizer: &'a Quantizer,
    output_span: f64,
    v_read: f64,
    /// Extra read vectors beyond the primary one (`inputs_per_trial - 1`
    /// entries), shared by every trial.
    extra_reads: &'a [Vec<Voltage>],
    /// Clean-array outputs for each extra read, solved once per campaign.
    clean_extra_outputs: &'a [Vec<Voltage>],
    /// Trace span of the campaign; trial spans attach here even when the
    /// trial runs on a worker thread.
    trace_parent: u64,
}

/// Everything one trial contributes to the summary. Outcomes are reduced
/// in trial order, so aggregates are bit-identical for any thread count.
#[derive(Debug, PartialEq)]
struct TrialOutcome {
    spare_rows_used: usize,
    retired: bool,
    solve: Option<SolveOutcome>,
}

/// The circuit- and behavior-level measurements of one surviving trial.
#[derive(Debug, PartialEq)]
struct SolveOutcome {
    /// Always `false` for a trial run now; `true` only in records of
    /// checkpoints written before the engine was unified (see
    /// [`FaultSummary::fallback_solves`]).
    fallback: bool,
    kcl_residual: f64,
    deviations: Vec<f64>,
    weight_damage: f64,
}

/// Runs one Monte-Carlo trial: draw the fault map, apply graceful
/// degradation, and (if the array survives) solve the circuit path and
/// mirror the behavior path.
fn run_trial(context: &TrialContext<'_>, trial: usize) -> Result<TrialOutcome, CoreError> {
    let _span = TRIAL_SPAN.enter_under(trial as i64, context.trace_parent);
    FAULT_TRIALS.inc();
    let fault_config = context.fault_config;
    let size = context.clean_spec.rows;
    let mut map = FaultMap::generate(
        size,
        size,
        &fault_config.rates,
        trial_seed(fault_config.seed, trial),
    )?;

    // Graceful degradation, stage 1: remap the worst rows to spares.
    let defective_rows = map.defective_rows();
    let repaired = defective_rows.len().min(fault_config.spare_rows);
    for &row in defective_rows.iter().take(fault_config.spare_rows) {
        map.clear_row(row);
    }

    // Stage 2: retire arrays still beyond the defect threshold.
    if map.defective_cell_fraction() > fault_config.retire_threshold {
        FAULT_RETIRED.inc();
        return Ok(TrialOutcome {
            spare_rows_used: repaired,
            retired: true,
            solve: None,
        });
    }

    // Circuit path: the defect overlay changes only element values, so the
    // per-worker handle refactors its held analysis instead of re-analyzing.
    // The primary read and the extra reads re-drive the same faulty array,
    // so they go in as one batch, solved together on that factorization. A
    // failed solve (a singular system, or a non-finite solution) is the
    // trial's typed error.
    let faulty_spec = context
        .clean_spec
        .clone()
        .with_faults(map.clone(), context.device.r_max, context.device.r_min);
    let faulty_xbar = faulty_spec.build()?;
    let reads: Vec<Rhs> = std::iter::once(&context.clean_spec.inputs)
        .chain(context.extra_reads)
        .map(|inputs| faulty_xbar.input_rhs(inputs))
        .collect::<Result<_, _>>()?;
    let solutions: Vec<DcSolution> = TRIAL_SOLVER.with(|solver| {
        solver
            .borrow_mut()
            .solve_batch(faulty_xbar.circuit(), &reads)
    })?;
    let trial_kcl_residual = kcl_residual(faulty_xbar.circuit(), &solutions[0]);

    let deviation_of = |clean: &Voltage, faulty: &Voltage| {
        let relative = (clean.volts() - faulty.volts()).abs() / context.v_read;
        relative * context.output_span
    };
    let clean_reads = std::iter::once(context.clean_outputs)
        .chain(context.clean_extra_outputs.iter().map(Vec::as_slice));
    let mut deviations = Vec::new();
    for (clean, solution) in clean_reads.zip(&solutions) {
        let outputs = faulty_xbar.output_voltages(solution);
        deviations.extend(clean.iter().zip(&outputs).map(|(c, f)| deviation_of(c, f)));
    }

    // Behavior path: same map, weight-level mirror.
    let weight_damage = weight_damage_levels(context.weights, context.weight_quantizer, &map)?;

    Ok(TrialOutcome {
        spare_rows_used: repaired,
        retired: false,
        solve: Some(SolveOutcome {
            fallback: false,
            kcl_residual: trial_kcl_residual,
            deviations,
            weight_damage,
        }),
    })
}

/// Runs the full MNSIM simulation plus a fault-injection campaign — the
/// workload behind [`Simulator::run`](crate::simulator::Simulator::run)
/// when a campaign is attached.
///
/// The returned [`Report`] is the clean behavior-level result with
/// [`Report::faults`] populated. Arrays past the retirement threshold are
/// retired into the yield statistics; every other trial is solved. Trials
/// run on the checkpointed campaign runner ([`Campaign`]) over `threads`
/// workers; they are seed-decorrelated and reduced in trial order, so the
/// summary is bit-identical for every thread count and resume pattern.
/// One panicking trial surfaces as [`CoreError::WorkerPanic`] after its
/// siblings' results were collected (and checkpointed, under a `policy`).
///
/// # Errors
///
/// Configuration validation errors; circuit errors only if a trial's solve
/// fails (a genuinely singular system, which the near-open defect modeling
/// prevents, or a non-finite solution); and the campaign's interrupt,
/// panic and checkpoint errors.
pub(crate) fn simulate_with_faults(
    config: &Config,
    fault_config: &FaultConfig,
    threads: usize,
    control: &RunControl,
    policy: Option<&CheckpointPolicy>,
) -> Result<Report, CoreError> {
    let campaign_span = CAMPAIGN_SPAN.enter();
    FAULT_CAMPAIGNS.inc();
    fault_config.validate()?;
    let mut report = simulate(config)?;

    let device = &config.device;
    let size = config.crossbar_size.clamp(1, REPRESENTATIVE_LIMIT);
    let cell_levels = device.levels();
    let weight_quantizer = Quantizer::unsigned_unit(device.bits_per_cell)?;

    // One clean representative crossbar, reused by every trial: random but
    // seed-determined cell levels and input activations.
    let mut rng = StdRng::seed_from_u64(fault_config.seed);
    let levels: Vec<u32> = (0..size * size)
        .map(|_| rng.gen_range(0u32..cell_levels))
        .collect();
    let states: Vec<Resistance> = levels
        .iter()
        .map(|&level| device.resistance_for_level(level))
        .collect();
    let inputs: Vec<Voltage> = (0..size)
        .map(|_| Voltage::from_volts(device.v_read.volts() * rng.gen_range(0.25..=1.0)))
        .collect();
    let clean_spec = CrossbarSpec {
        rows: size,
        cols: size,
        wire_resistance: config.interconnect.segment_resistance(),
        sense_resistance: config.sense_resistance,
        states,
        iv: device.iv,
        inputs,
        faults: None,
    };
    let clean_xbar = clean_spec.build()?;
    let clean_solution = solve_dc(clean_xbar.circuit())?;
    let clean_outputs = clean_xbar.output_voltages(&clean_solution);

    // Extra per-trial read vectors are drawn *after* the primary campaign
    // draws, so the RNG stream prefix — and therefore every statistic of a
    // single-read campaign — is unchanged at the default `inputs_per_trial`
    // of one.
    let extra_reads: Vec<Vec<Voltage>> = (1..fault_config.inputs_per_trial)
        .map(|_| {
            (0..size)
                .map(|_| Voltage::from_volts(device.v_read.volts() * rng.gen_range(0.25..=1.0)))
                .collect()
        })
        .collect();
    let clean_extra_outputs: Vec<Vec<Voltage>> = if extra_reads.is_empty() {
        Vec::new()
    } else {
        let batch: Vec<Rhs> = extra_reads
            .iter()
            .map(|read| clean_xbar.input_rhs(read))
            .collect::<Result<_, _>>()?;
        Solver::default()
            .solve_batch(clean_xbar.circuit(), &batch)?
            .iter()
            .map(|sol| clean_xbar.output_voltages(sol))
            .collect()
    };

    // Behavior-level mirror of the same array: weight = level fraction.
    let weights = Tensor::from_vec(
        &[size, size],
        levels
            .iter()
            .map(|&level| level as f64 / (cell_levels - 1).max(1) as f64)
            .collect(),
    )?;

    let context = TrialContext {
        fault_config,
        device,
        clean_spec: &clean_spec,
        clean_outputs: &clean_outputs,
        weights: &weights,
        weight_quantizer: &weight_quantizer,
        output_span: (config.output_levels() - 1) as f64,
        v_read: device.v_read.volts(),
        extra_reads: &extra_reads,
        clean_extra_outputs: &clean_extra_outputs,
        trace_parent: campaign_span.id(),
    };
    let campaign = Campaign {
        total: fault_config.trials,
        fingerprint: campaign_fingerprint(config, fault_config),
        seed: Some(fault_config.seed),
        threads,
        control,
        policy,
    };
    let outcomes = campaign.run(|trial| run_trial(&context, trial))?;
    report.faults = Some(reduce_outcomes(fault_config, &outcomes));
    Ok(report)
}

/// Reduces per-trial outcomes — **in trial order** — into the campaign
/// summary. Canonical order makes every aggregate bit-identical for any
/// thread count, wave size, or resume pattern.
fn reduce_outcomes(fault_config: &FaultConfig, outcomes: &[TrialOutcome]) -> FaultSummary {
    let mut retired_trials = 0usize;
    let mut spare_rows_used = 0usize;
    let mut solves = 0usize;
    let mut fallback_solves = 0usize;
    let mut worst_kcl_residual = 0.0f64;
    let mut deviation_samples: Vec<f64> = Vec::new();
    let mut weight_damage_sum = 0.0f64;
    let mut damage_samples = 0usize;

    for outcome in outcomes {
        spare_rows_used += outcome.spare_rows_used;
        if outcome.retired {
            retired_trials += 1;
        }
        if let Some(solve) = &outcome.solve {
            solves += 1;
            if solve.fallback {
                fallback_solves += 1;
            }
            worst_kcl_residual = worst_kcl_residual.max(solve.kcl_residual);
            deviation_samples.extend_from_slice(&solve.deviations);
            weight_damage_sum += solve.weight_damage;
            damage_samples += 1;
        }
    }

    deviation_samples.sort_by(|a, b| a.total_cmp(b));
    let mean_deviation_levels = if deviation_samples.is_empty() {
        0.0
    } else {
        deviation_samples.iter().sum::<f64>() / deviation_samples.len() as f64
    };
    let p95_deviation_levels = if deviation_samples.is_empty() {
        0.0
    } else {
        let index = ((deviation_samples.len() as f64 * 0.95).ceil() as usize)
            .clamp(1, deviation_samples.len());
        deviation_samples[index - 1]
    };

    FaultSummary {
        trials: fault_config.trials,
        yield_fraction: 1.0 - retired_trials as f64 / fault_config.trials as f64,
        retired_trials,
        mean_spare_rows_used: spare_rows_used as f64 / fault_config.trials as f64,
        solves,
        fallback_solves,
        worst_kcl_residual,
        mean_deviation_levels,
        p95_deviation_levels,
        mean_weight_damage_levels: if damage_samples == 0 {
            0.0
        } else {
            weight_damage_sum / damage_samples as f64
        },
    }
}

/// Fingerprints the campaign identity: everything that determines the
/// per-trial outcomes (network config, rates, trial count, master seed,
/// repair parameters) and nothing that doesn't (thread count, the
/// checkpoint policy itself).
pub(crate) fn campaign_fingerprint(config: &Config, fault_config: &FaultConfig) -> u64 {
    let canonical = format!(
        "fault_mc|config={config:?}|rates={rates:?}|trials={trials}|seed={seed:#018x}|\
         spare_rows={spare}|retire_threshold={retire:?}|inputs_per_trial={reads}",
        rates = fault_config.rates,
        trials = fault_config.trials,
        seed = fault_config.seed,
        spare = fault_config.spare_rows,
        retire = fault_config.retire_threshold,
        reads = fault_config.inputs_per_trial,
    );
    checkpoint::fnv64(canonical.as_bytes())
}

impl Record for TrialOutcome {
    const KIND: &'static str = "fault_mc";
    const EVENT: &'static str = "fault_mc";
    const COUNT_KEY: &'static str = "trials";
    const RECORDS_KEY: &'static str = "completed";

    fn encode(&self, trial: usize, out: &mut String) {
        let _ = write!(
            out,
            "{{\"trial\": {trial}, \"spare_rows_used\": {}, \"retired\": {}, \"solve\": ",
            self.spare_rows_used, self.retired
        );
        match &self.solve {
            None => out.push_str("null"),
            Some(solve) => {
                let _ = write!(
                    out,
                    "{{\"fallback\": {}, \"kcl_residual\": ",
                    solve.fallback
                );
                write_json_number(out, solve.kcl_residual);
                out.push_str(", \"weight_damage\": ");
                write_json_number(out, solve.weight_damage);
                out.push_str(", \"deviations\": [");
                for (i, deviation) in solve.deviations.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_json_number(out, *deviation);
                }
                out.push_str("]}");
            }
        }
        out.push('}');
    }

    fn decode(record: &JsonValue, trials: usize) -> Result<(usize, Option<Self>), String> {
        let trial = record_index(record, "trial", trials)?;
        let flag = |value: Option<&JsonValue>, name: &str| match value {
            Some(JsonValue::Bool(b)) => Ok(*b),
            _ => Err(format!("trial {trial}: bad `{name}`")),
        };
        let number = |value: Option<&JsonValue>, name: &str| {
            value
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("trial {trial}: bad `{name}`"))
        };
        let spare_rows_used = record
            .get("spare_rows_used")
            .and_then(JsonValue::as_f64)
            .filter(|v| v.fract() == 0.0 && *v >= 0.0)
            .ok_or_else(|| format!("trial {trial}: bad `spare_rows_used`"))?
            as usize;
        let retired = flag(record.get("retired"), "retired")?;
        let solve = match record.get("solve") {
            None | Some(JsonValue::Null) => None,
            Some(solve) => Some(SolveOutcome {
                fallback: flag(solve.get("fallback"), "fallback")?,
                kcl_residual: number(solve.get("kcl_residual"), "kcl_residual")?,
                weight_damage: number(solve.get("weight_damage"), "weight_damage")?,
                deviations: solve
                    .get("deviations")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| format!("trial {trial}: bad `deviations`"))?
                    .iter()
                    .map(|d| number(Some(d), "deviations"))
                    .collect::<Result<_, _>>()?,
            }),
        };
        let outcome = TrialOutcome {
            spare_rows_used,
            retired,
            solve,
        };
        Ok((trial, Some(outcome)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> Config {
        Config::fully_connected_mlp(&[64, 32]).unwrap()
    }

    /// An uncontrolled, checkpoint-free campaign on `threads` workers.
    fn campaign_on(
        config: &Config,
        fault_config: &FaultConfig,
        threads: usize,
    ) -> Result<Report, CoreError> {
        simulate_with_faults(config, fault_config, threads, &RunControl::new(), None)
    }

    /// [`campaign_on`] at the auto thread count, so the tests below stay
    /// terse while exercising the worker-pool path.
    fn campaign(config: &Config, fault_config: &FaultConfig) -> Result<Report, CoreError> {
        campaign_on(config, fault_config, 0)
    }

    #[test]
    fn campaign_is_bit_identical_for_every_thread_count() {
        let config = small_config();
        let fault_config = FaultConfig {
            rates: FaultRates::stuck_at(0.05),
            trials: 6,
            ..FaultConfig::default()
        };
        let serial = campaign_on(&config, &fault_config, 1).unwrap();
        for threads in [0usize, 2, 7] {
            let parallel = campaign_on(&config, &fault_config, threads).unwrap();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn clean_rates_give_full_yield_and_no_degradation() {
        let fault_config = FaultConfig {
            rates: FaultRates::default(),
            trials: 3,
            ..FaultConfig::default()
        };
        let report = campaign(&small_config(), &fault_config).unwrap();
        let summary = report.faults.unwrap();
        assert_eq!(summary.yield_fraction, 1.0);
        assert_eq!(summary.retired_trials, 0);
        assert_eq!(summary.solves, 3);
        assert_eq!(summary.mean_deviation_levels, 0.0);
        assert_eq!(summary.mean_weight_damage_levels, 0.0);
        assert!(summary.worst_kcl_residual < 1e-6);
    }

    #[test]
    fn monte_carlo_is_bit_identical_for_fixed_seed() {
        let fault_config = FaultConfig {
            rates: FaultRates {
                stuck_at_hrs: 0.03,
                stuck_at_lrs: 0.02,
                drifted: 0.01,
                drift_decades: 1.0,
                broken_wordline: 0.1,
                broken_bitline: 0.1,
            },
            trials: 4,
            ..FaultConfig::default()
        };
        let config = small_config();
        let a = campaign(&config, &fault_config).unwrap();
        let b = campaign(&config, &fault_config).unwrap();
        assert_eq!(a.faults, b.faults);
        let different_seed = FaultConfig {
            seed: fault_config.seed + 1,
            ..fault_config
        };
        let c = campaign(&config, &different_seed).unwrap();
        assert_ne!(a.faults, c.faults);
    }

    #[test]
    fn heavy_faults_degrade_accuracy_and_yield() {
        let light = FaultConfig {
            rates: FaultRates::stuck_at(0.02),
            trials: 6,
            ..FaultConfig::default()
        };
        let heavy = FaultConfig {
            rates: FaultRates {
                broken_bitline: 0.3,
                ..FaultRates::stuck_at(0.4)
            },
            spare_rows: 0,
            trials: 6,
            ..FaultConfig::default()
        };
        let config = small_config();
        let light_summary = campaign(&config, &light).unwrap().faults.unwrap();
        let heavy_summary = campaign(&config, &heavy).unwrap().faults.unwrap();
        assert!(
            light_summary.mean_weight_damage_levels
                <= heavy_summary.mean_weight_damage_levels.max(1e-12)
                || heavy_summary.solves == 0,
            "light {} vs heavy {}",
            light_summary.mean_weight_damage_levels,
            heavy_summary.mean_weight_damage_levels
        );
        assert!(heavy_summary.yield_fraction <= light_summary.yield_fraction);
        assert!(heavy_summary.retired_trials > 0, "40 % stuck-at must retire arrays");
    }

    #[test]
    fn spare_rows_improve_yield() {
        let rates = FaultRates {
            broken_wordline: 0.35,
            ..FaultRates::default()
        };
        let config = small_config();
        let without = FaultConfig {
            rates,
            trials: 8,
            spare_rows: 0,
            retire_threshold: 0.1,
            ..FaultConfig::default()
        };
        let with = FaultConfig {
            spare_rows: 8,
            ..without.clone()
        };
        let yield_without = campaign(&config, &without)
            .unwrap()
            .faults
            .unwrap()
            .yield_fraction;
        let yield_with = campaign(&config, &with)
            .unwrap()
            .faults
            .unwrap()
            .yield_fraction;
        assert!(
            yield_with >= yield_without,
            "{yield_with} !>= {yield_without}"
        );
    }

    #[test]
    fn multi_read_trials_are_deterministic_and_extend_deviations() {
        let config = small_config();
        // Clean rates: the faulty array equals the clean one, and the
        // batched faulty reads go through the same prepared-system
        // arithmetic as the batched clean baseline — deviations stay
        // exactly zero.
        let clean_multi = FaultConfig {
            rates: FaultRates::default(),
            trials: 2,
            inputs_per_trial: 3,
            ..FaultConfig::default()
        };
        let a = campaign(&config, &clean_multi).unwrap();
        let b = campaign(&config, &clean_multi).unwrap();
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.unwrap().mean_deviation_levels, 0.0);

        // Faulty rates: the extra reads see the same defects and contribute
        // real deviation mass, deterministically.
        let faulty_multi = FaultConfig {
            rates: FaultRates::stuck_at(0.2),
            trials: 2,
            spare_rows: 0,
            retire_threshold: 1.0,
            inputs_per_trial: 3,
            ..FaultConfig::default()
        };
        let multi = campaign(&config, &faulty_multi).unwrap().faults.unwrap();
        let single = campaign(
            &config,
            &FaultConfig {
                inputs_per_trial: 1,
                ..faulty_multi.clone()
            },
        )
        .unwrap()
        .faults
        .unwrap();
        assert!(multi.mean_deviation_levels > 0.0);
        assert!(single.mean_deviation_levels > 0.0);
        // The primary read is untouched by the extra ones.
        assert_eq!(multi.solves, single.solves);
        assert_eq!(multi.yield_fraction, single.yield_fraction);
        let again = campaign(&config, &faulty_multi).unwrap().faults.unwrap();
        assert_eq!(multi, again);
    }

    #[test]
    fn invalid_campaigns_rejected() {
        let config = small_config();
        let zero_trials = FaultConfig {
            trials: 0,
            ..FaultConfig::default()
        };
        assert!(campaign(&config, &zero_trials).is_err());
        let zero_reads = FaultConfig {
            inputs_per_trial: 0,
            ..FaultConfig::default()
        };
        assert!(campaign(&config, &zero_reads).is_err());
        let bad_threshold = FaultConfig {
            retire_threshold: 2.0,
            ..FaultConfig::default()
        };
        assert!(campaign(&config, &bad_threshold).is_err());
        let bad_rates = FaultConfig {
            rates: FaultRates {
                stuck_at_hrs: -0.5,
                ..FaultRates::default()
            },
            ..FaultConfig::default()
        };
        assert!(matches!(
            campaign(&config, &bad_rates),
            Err(CoreError::Tech(_))
        ));
    }

    #[test]
    fn checkpoint_bytes_are_stable_and_load_back() {
        let dir = std::env::temp_dir().join(format!("mnsim_fault_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fault.json").display().to_string();
        let policy = CheckpointPolicy::new(path.clone());
        let control = RunControl::new();
        let campaign = Campaign {
            total: 3,
            fingerprint: 0x0123_4567_89ab_cdef,
            seed: Some(FaultConfig::default().seed),
            threads: 1,
            control: &control,
            policy: Some(&policy),
        };
        let slots = vec![
            Some(TrialOutcome {
                spare_rows_used: 1,
                retired: false,
                solve: Some(SolveOutcome {
                    fallback: true,
                    kcl_residual: 1.5e-12,
                    deviations: vec![0.0, 0.125, 1.0 / 3.0],
                    weight_damage: 0.25,
                }),
            }),
            None,
            Some(TrialOutcome {
                spare_rows_used: 2,
                retired: true,
                solve: None,
            }),
        ];
        campaign.write(&path, &slots).unwrap();
        // Captured from the writer that predates the shared `Campaign`:
        // checkpoints written before it must still resume.
        let expected = r#"{
  "schema": 1,
  "kind": "fault_mc",
  "fingerprint": "0x0123456789abcdef",
  "seed": "0x0000000000c0ffee",
  "trials": 3,
  "completed": [
    {"trial": 0, "spare_rows_used": 1, "retired": false, "solve": {"fallback": true, "kcl_residual": 1.5e-12, "weight_damage": 0.25, "deviations": [0.0, 0.125, 0.3333333333333333]}},
    {"trial": 2, "spare_rows_used": 2, "retired": true, "solve": null}
  ]
}
"#;
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expected);

        let mut loaded: Vec<Option<TrialOutcome>> = (0..3).map(|_| None).collect();
        assert_eq!(campaign.load(&path, &mut loaded).unwrap(), 2);
        assert_eq!(loaded, slots);

        let other = Campaign {
            fingerprint: 1,
            ..campaign
        };
        assert!(matches!(
            other.load(&path, &mut loaded),
            Err(CoreError::Checkpoint { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fallback_rate_is_well_defined() {
        let summary = FaultSummary {
            trials: 4,
            yield_fraction: 0.0,
            retired_trials: 4,
            mean_spare_rows_used: 0.0,
            solves: 0,
            fallback_solves: 0,
            worst_kcl_residual: 0.0,
            mean_deviation_levels: 0.0,
            p95_deviation_levels: 0.0,
            mean_weight_damage_levels: 0.0,
        };
        assert_eq!(summary.fallback_rate(), 0.0);
    }
}
