//! **Table III** — simulation time of the circuit-level solver vs MNSIM's
//! behavior-level evaluation over crossbar sizes, and the resulting
//! speed-up (the paper reports >7000× against HSPICE).

use mnsim_core::validate::measure_speedup;

use super::{row, table2_config};

/// Runs the experiment over the paper's sizes (16–256), returning the
/// rendered table.
///
/// # Errors
///
/// Propagates circuit failures.
pub fn run(sizes: &[usize]) -> Result<String, Box<dyn std::error::Error>> {
    let config = table2_config();
    let mut out = String::new();
    out.push_str("Table III — simulation time, circuit solver vs MNSIM\n\n");
    out.push_str(&row(
        "crossbar size",
        &sizes.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    ));

    let rows = measure_speedup(&config, sizes)?;
    out.push_str(&row(
        "circuit (s)",
        &rows
            .iter()
            .map(|r| format!("{:.4}", r.circuit_seconds))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&row(
        "MNSIM (s)",
        &rows
            .iter()
            .map(|r| format!("{:.2e}", r.mnsim_seconds))
            .collect::<Vec<_>>(),
    ));
    out.push_str(&row(
        "speed-up",
        &rows
            .iter()
            .map(|r| format!("{:.0}x", r.speedup()))
            .collect::<Vec<_>>(),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    #[test]
    fn renders_for_small_sizes() {
        // Its solves must not land in another test's metrics session.
        let _session = mnsim_obs::session();
        let text = super::run(&[16, 32]).unwrap();
        assert!(text.contains("Table III"));
        assert!(text.contains("speed-up"));
    }
}
