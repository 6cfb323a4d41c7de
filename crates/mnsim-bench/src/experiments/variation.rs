//! **§VI.D (device variation)** — Monte-Carlo verification of the
//! variation-considered accuracy model: random per-cell resistance
//! deviations in the circuit simulator must stay inside the model's
//! `(1 ± σ)` envelope (the paper reports this verification "is similar to
//! that shown in Fig. 5").

use mnsim_core::accuracy::{fit_wire_coefficient, measure_variation};
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::Resistance;

use super::row;

/// Runs the Monte-Carlo envelope check.
///
/// # Errors
///
/// Propagates circuit failures.
pub fn run(sizes: &[usize], sigma: f64, runs: usize) -> Result<String, Box<dyn std::error::Error>> {
    let device = MemristorModel::rram_default();
    let rs = Resistance::from_ohms(10.0);
    let node = InterconnectNode::N28;
    let fit = fit_wire_coefficient(&device, node, rs, sizes)?;
    let model = fit.model(rs);

    let mut out = String::new();
    out.push_str(&format!(
        "Device-variation verification (sigma = {:.0} %, {} Monte-Carlo runs per size, 28 nm wires)\n\n",
        sigma * 100.0,
        runs
    ));
    out.push_str(&row(
        "size",
        &sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));

    let mut nominal = Vec::new();
    let mut envelope = Vec::new();
    let mut observed = Vec::new();
    let mut verdicts = Vec::new();
    for (i, &size) in sizes.iter().enumerate() {
        let sample =
            measure_variation(&model, &device, node, rs, size, sigma, runs, 4242 + i as u64)?;
        nominal.push(format!("{:.2}", sample.model_nominal * 100.0));
        envelope.push(format!("{:.2}", sample.model_with_variation * 100.0));
        observed.push(format!(
            "{:.2}..{:.2}",
            sample.min_error * 100.0,
            sample.max_error * 100.0
        ));
        verdicts.push(if sample.within_envelope(0.05) { "ok" } else { "OUT" }.to_string());
    }
    out.push_str(&row("model nominal (%)", &nominal));
    out.push_str(&row("model with variation (%)", &envelope));
    out.push_str(&row("Monte-Carlo range (%)", &observed));
    out.push_str(&row("within envelope (+/-5 pts)", &verdicts));
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_and_stays_in_envelope() {
        // Its solves must not land in another test's metrics session.
        let _session = mnsim_obs::session();
        let text = super::run(&[8, 16], 0.2, 6).unwrap();
        assert!(text.contains("Monte-Carlo"));
        assert!(!text.contains("OUT"), "{text}");
    }
}
