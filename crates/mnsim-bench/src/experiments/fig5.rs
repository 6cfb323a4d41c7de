//! **Fig. 5** — error-rate fit curves of output voltages with different
//! crossbar sizes and interconnect technology nodes: circuit-simulated
//! scatter points vs the fitted behavior-level model, with the per-curve
//! RMSE (the paper quotes < 0.01).

use mnsim_core::accuracy::fit_wire_coefficient;
use mnsim_tech::interconnect::InterconnectNode;
use mnsim_tech::memristor::MemristorModel;
use mnsim_tech::units::Resistance;

use super::row;

/// Runs the fit for each interconnect node over the given sizes and
/// renders measured-vs-modeled points plus the RMSE.
///
/// # Errors
///
/// Propagates circuit failures.
pub fn run(
    nodes: &[InterconnectNode],
    sizes: &[usize],
) -> Result<String, Box<dyn std::error::Error>> {
    let device = MemristorModel::rram_default();
    let sense = Resistance::from_ohms(10.0);

    let mut out = String::new();
    out.push_str("Fig. 5 — output-voltage error-rate curves, circuit scatter vs fitted model\n");
    out.push_str("(worst case: all cells at R_min; farthest column)\n\n");

    for &node in nodes {
        let fit = fit_wire_coefficient(&device, node, sense, sizes)?;
        out.push_str(&format!(
            "{node}: fitted wire coefficient {:.4}, RMSE {:.5} {}\n",
            fit.coefficient,
            fit.rmse,
            if fit.rmse < 0.01 {
                "(< 0.01, paper criterion met)"
            } else {
                "(above the paper's 0.01 criterion)"
            }
        ));
        out.push_str(&row(
            "  size",
            &fit.points.iter().map(|p| p.size.to_string()).collect::<Vec<_>>(),
        ));
        out.push_str(&row(
            "  circuit error (%)",
            &fit.points
                .iter()
                .map(|p| format!("{:.2}", p.measured * 100.0))
                .collect::<Vec<_>>(),
        ));
        out.push_str(&row(
            "  model error (%)",
            &fit.points
                .iter()
                .map(|p| format!("{:.2}", p.modeled * 100.0))
                .collect::<Vec<_>>(),
        ));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_meets_rmse_for_one_node() {
        // Its solves must not land in another test's metrics session.
        let _session = mnsim_obs::session();
        let text = run(&[InterconnectNode::N28], &[8, 16, 32]).unwrap();
        assert!(text.contains("Fig. 5"));
        assert!(text.contains("fitted wire coefficient"));
        assert!(text.contains("criterion met"));
    }
}
