//! `fault_campaign`: a stuck-at fault-injection campaign.
//!
//! One operation is a 256-trial stuck-at campaign (2 % defect rate, four
//! reads per trial) on `fully_connected_mlp([128, 64])` with the seed as
//! master seed, on `min(2, nproc)` threads. That is the campaign and the
//! code path of `repro faultmc`, which defaults to 64 trials of one read
//! on every core. It uses the same solver layer as `table2_validation`,
//! but as about a thousand tiny (16×16) solves spread over the
//! `core::exec` pool, plus fault-map generation and prepared-system churn:
//! a solver change that speeds large matrices but adds per-solve overhead
//! shows here.

use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_core::fault_sim::{FaultConfig, FaultSummary};
use mnsim_core::{Config, Simulator};
use mnsim_tech::fault::{FaultMap, FaultRates};

use super::{threads, Params, Sequential};
use crate::layers::LayerValues;
use crate::measure::timed;
use crate::spans::Spans;

/// Campaign trials per operation.
pub const TRIALS: usize = 256;
/// Stuck-at defect rate.
pub const RATE: f64 = 0.02;
/// Reads per surviving trial.
pub const INPUTS_PER_TRIAL: usize = 4;
/// Largest accepted KCL residual of any solve, in amperes.
const MAX_KCL_RESIDUAL: f64 = 1e-9;
/// Side of the representative crossbar a campaign solves per trial (the
/// campaign's own cap).
const REPRESENTATIVE: usize = 16;

/// The fault-campaign workload.
#[derive(Debug)]
pub struct Fault {
    config: Config,
    campaign: FaultConfig,
    threads: usize,
    reference: Option<String>,
    fallback_ratio: f64,
}

impl Sequential for Fault {
    const OP_SPAN: &'static str = "perf.fault.campaign";
    const ENVELOPES: &'static [&'static str] = &["fault.campaign"];
    const TRACED_OPS: usize = 3;

    fn setup(params: &Params) -> Result<Self, String> {
        let (dims, trials): (&[usize], usize) = if params.quick {
            (&[32, 16], 8)
        } else {
            (&[128, 64], TRIALS)
        };
        let config = Config::fully_connected_mlp(dims).map_err(|e| format!("fault config: {e}"))?;
        let campaign = FaultConfig {
            rates: FaultRates::stuck_at(RATE),
            trials,
            seed: params.seed,
            inputs_per_trial: INPUTS_PER_TRIAL,
            ..FaultConfig::default()
        };
        campaign
            .validate()
            .map_err(|e| format!("fault campaign: {e}"))?;
        Ok(Fault {
            config,
            campaign,
            threads: threads(),
            reference: None,
            fallback_ratio: 0.0,
        })
    }

    fn op(&mut self) -> Result<f64, String> {
        let sim = Simulator::new(self.config.clone())
            .threads(self.threads)
            .faults(self.campaign.clone());
        let (seconds, report) = timed(|| sim.run());
        let report = report.map_err(|e| format!("fault campaign: {e}"))?;
        let summary: &FaultSummary = report
            .faults
            .as_ref()
            .ok_or("report has no fault summary")?;
        if summary.worst_kcl_residual.is_nan() || summary.worst_kcl_residual > MAX_KCL_RESIDUAL {
            return Err(format!(
                "worst KCL residual {} A exceeds {MAX_KCL_RESIDUAL} A",
                summary.worst_kcl_residual
            ));
        }
        self.fallback_ratio = summary.fallback_rate();
        // `{:?}` prints every f64 in its shortest round-trip form, so equal
        // strings mean bit-identical summaries.
        let fingerprint = format!("{summary:?}");
        match &self.reference {
            Some(reference) if *reference != fingerprint => {
                Err("fault summary differs from the first operation's".into())
            }
            Some(_) => Ok(seconds),
            None => {
                self.reference = Some(fingerprint);
                Ok(seconds)
            }
        }
    }

    fn items_per_op(&self) -> f64 {
        self.campaign.trials as f64
    }

    fn probe_layers(&mut self, values: &mut LayerValues) -> Result<(), String> {
        // One fault map and one faulty representative array per trial,
        // drawn and built the way a campaign trial does.
        let device = &self.config.device;
        let size = self.config.crossbar_size.clamp(1, REPRESENTATIVE);
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            device.harmonic_mean_resistance(),
            self.config.interconnect.segment_resistance(),
            self.config.sense_resistance,
            device.v_read,
        );
        spec.iv = device.iv;
        let trials = self.campaign.trials;
        let (mut map_s, mut build_s) = (0.0, 0.0);
        for trial in 0..trials {
            let seed = self.campaign.seed ^ (trial as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let (seconds, map) =
                timed(|| FaultMap::generate(size, size, &self.campaign.rates, seed));
            map_s += seconds;
            let map = map.map_err(|e| format!("FaultMap::generate: {e}"))?;
            let faulty = spec.clone().with_faults(map, device.r_max, device.r_min);
            let (seconds, built) = timed(|| faulty.build());
            build_s += seconds;
            built.map_err(|e| format!("faulty crossbar build: {e}"))?;
        }
        values.set("tech.fault.map_s", map_s / trials as f64);
        values.set("circuit.crossbar.build_s", build_s / trials as f64);
        Ok(())
    }

    fn span_layers(&self, spans: &Spans, values: &mut LayerValues) {
        values.set("circuit.recovery.fallback_ratio", self.fallback_ratio);
        let trials = spans.count("fault.trial");
        if trials > 0 {
            values.set(
                "core.fault_sim.trial_s",
                spans.total_s("fault.trial") / trials as f64,
            );
        }
    }
}
