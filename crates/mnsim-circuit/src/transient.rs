//! Transient (time-domain) analysis by backward Euler.
//!
//! This is the circuit-level counterpart of the SPICE transient runs the
//! paper uses to validate its latency models (Table II). Capacitors are
//! replaced, at every time step, by their backward-Euler companion model
//!
//! ```text
//! I_C(t_{k+1}) = (C/Δt) · (v(t_{k+1}) − v(t_k))
//!             →  conductance  g = C/Δt
//!                current src  i_eq = −(C/Δt) · (v1(t_k) − v2(t_k))
//! ```
//!
//! and the resulting resistive network is solved with the DC machinery —
//! including the per-step Newton loop when non-linear memristors are
//! present. Backward Euler is unconditionally stable (L-stable), the right
//! choice for the stiff RC meshes of crossbars.
//!
//! Every step stamps the same sparsity pattern, so the whole run shares
//! one sparse analysis (the handle's, with
//! [`Solver::solve_transient`](crate::solve::Solver::solve_transient)),
//! and binds the same sources to the same values, so the sources are bound
//! once. A linear circuit has the same matrix at every fixed step: it is
//! assembled and factored once, and each later step rebuilds only the
//! right-hand-side plan from the new companion currents, then backsolves on
//! the held factor. Non-linear circuits take `NEWTON_STEPS_PER_DT` (4)
//! Newton passes per step, each refactoring in place.

use crate::error::CircuitError;
use crate::mna::{non_positive, Circuit, Element, NodeId};
use crate::solve::{self, Linearized, Solver, Sources, SparseWorkspace};
use mnsim_tech::units::Time;

/// Newton passes per time step of a non-linear circuit.
const NEWTON_STEPS_PER_DT: usize = 4;

/// Options for [`solve_transient`].
#[derive(Debug, Clone, PartialEq)]
pub struct TransientOptions {
    /// Total simulated time.
    pub t_stop: Time,
    /// Fixed time step.
    pub dt: Time,
}

impl TransientOptions {
    /// A step-response setup: simulate for `t_stop` with `steps` equal
    /// steps.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or `t_stop` is not positive.
    pub fn step_response(t_stop: Time, steps: usize) -> Self {
        assert!(steps > 0, "need at least one time step");
        assert!(t_stop.seconds() > 0.0, "simulation time must be positive");
        TransientOptions {
            t_stop,
            dt: t_stop / steps as f64,
        }
    }
}

/// The sampled node-voltage waveforms of a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct TransientResult {
    times: Vec<f64>,
    /// `voltages[step][node]`.
    voltages: Vec<Vec<f64>>,
}

impl TransientResult {
    /// The 10-90-style settle time of `node`: the first instant after
    /// which the waveform stays within `tolerance` (relative) of its final
    /// value. Returns `None` if the waveform never settles or the final
    /// value is zero.
    pub fn settle_time(&self, node: NodeId, tolerance: f64) -> Option<Time> {
        let final_value = *self.voltages.last()?.get(node)?;
        if final_value == 0.0 {
            return None;
        }
        let mut settled_at: Option<usize> = None;
        for (step, sample) in self.voltages.iter().enumerate() {
            let within = ((sample[node] - final_value) / final_value).abs() <= tolerance;
            match (within, settled_at) {
                (true, None) => settled_at = Some(step),
                (false, Some(_)) => settled_at = None,
                _ => {}
            }
        }
        settled_at.map(|step| Time::from_seconds(self.times[step]))
    }
}

/// Runs a backward-Euler transient from a fully discharged initial state
/// (all node voltages zero; sources step to their value at `t = 0⁺`), on a
/// fresh [`Solver`].
///
/// # Errors
///
/// Propagates per-step solver failures and rejects a non-positive step or
/// a window shorter than one step.
pub fn solve_transient(
    circuit: &Circuit,
    options: &TransientOptions,
) -> Result<TransientResult, CircuitError> {
    Solver::default().solve_transient(circuit, options)
}

/// The one transient run, on a handle's `workspace`.
pub(crate) fn run(
    circuit: &Circuit,
    options: &TransientOptions,
    workspace: &mut SparseWorkspace,
) -> Result<TransientResult, CircuitError> {
    if non_positive(options.dt.seconds()) || options.t_stop.seconds() < options.dt.seconds() {
        return Err(CircuitError::InvalidElement {
            reason: format!(
                "invalid transient window: dt = {}, t_stop = {}",
                options.dt, options.t_stop
            ),
        });
    }
    let steps = (options.t_stop.seconds() / options.dt.seconds()).round() as usize;
    let dt = options.dt.seconds();
    let n = circuit.node_count();

    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity(steps + 1);
    times.push(0.0);
    voltages.push(vec![0.0; n]);

    let nonlinear = circuit.is_nonlinear();
    let mut prev = vec![0.0; n];
    let sources = Sources::of(circuit);
    let drive = sources.drive(&solve::source_volts(circuit))?;

    for step in 1..=steps {
        let mut iterate = Vec::new();
        if nonlinear {
            // Newton passes, each refactoring at the last iterate.
            iterate.clone_from(&prev);
            let mut next = Vec::new();
            for _ in 0..NEWTON_STEPS_PER_DT {
                let lin = linearize_with_companions(circuit, &iterate, &prev, dt, true);
                let assemble = solve::ASSEMBLE_SPAN.enter();
                workspace.refill(circuit, &lin, &sources)?;
                drop(assemble);
                workspace.solve_read(&drive.voltages, &drive.offsets, &mut next)?;
                std::mem::swap(&mut iterate, &mut next);
            }
        } else {
            let lin = linearize_with_companions(circuit, &prev, &prev, dt, false);
            if step == 1 {
                workspace.refill(circuit, &lin, &sources)?;
            } else {
                workspace.replan(circuit, &lin);
            }
            workspace.solve_read(&drive.voltages, &drive.offsets, &mut iterate)?;
        }
        prev = iterate;
        times.push(step as f64 * dt);
        voltages.push(prev.clone());
    }

    Ok(TransientResult { times, voltages })
}

/// DC linearization plus backward-Euler capacitor companions.
pub(crate) fn linearize_with_companions(
    circuit: &Circuit,
    operating_point: &[f64],
    previous_step: &[f64],
    dt: f64,
    nonlinear: bool,
) -> Vec<Option<Linearized>> {
    let mut lin = solve::linearize(circuit, nonlinear.then_some(operating_point));
    for (element, lin) in circuit.elements().iter().zip(&mut lin) {
        if let Element::Capacitor {
            n1,
            n2,
            capacitance,
        } = *element
        {
            let g = capacitance.farads() / dt;
            let v_prev = previous_step[n1] - previous_step[n2];
            *lin = Some(Linearized {
                g,
                ieq: -g * v_prev,
            });
        }
    }
    lin
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnsim_tech::memristor::IvModel;
    use mnsim_tech::units::{Capacitance, Resistance, Voltage};

    /// 1 kΩ / 1 nF RC low-pass driven by a 1 V step: τ = 1 µs.
    fn rc_circuit() -> (Circuit, NodeId) {
        let mut c = Circuit::new();
        let drive = c.add_node();
        let out = c.add_node();
        c.add_voltage_source(drive, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(drive, out, Resistance::from_kilo_ohms(1.0))
            .unwrap();
        c.add_capacitor(out, Circuit::GROUND, Capacitance::from_farads(1e-9))
            .unwrap();
        (c, out)
    }

    #[test]
    fn rc_step_response_matches_analytic() {
        let _session = mnsim_obs::session();
        let (circuit, out) = rc_circuit();
        let options =
            TransientOptions::step_response(Time::from_microseconds(5.0), 2000);
        let result = solve_transient(&circuit, &options).unwrap();
        // v(t) = 1 − e^{−t/τ}, τ = 1 µs.
        for (i, &t) in result.times.iter().enumerate() {
            let analytic = 1.0 - (-t / 1e-6).exp();
            let simulated = result.voltages[i][out];
            assert!(
                (simulated - analytic).abs() < 5e-3,
                "t = {t:.3e}: {simulated} vs {analytic}"
            );
        }
    }

    #[test]
    fn settle_time_near_four_tau() {
        let _session = mnsim_obs::session();
        // Settling to 2 % happens at t = −τ·ln(0.02) ≈ 3.9 τ.
        let (circuit, out) = rc_circuit();
        let options =
            TransientOptions::step_response(Time::from_microseconds(10.0), 4000);
        let result = solve_transient(&circuit, &options).unwrap();
        let settle = result.settle_time(out, 0.02).unwrap().seconds();
        assert!(
            (settle - 3.912e-6).abs() < 0.2e-6,
            "settle time {settle:.3e}"
        );
    }

    #[test]
    fn final_value_matches_dc_solution() {
        let _session = mnsim_obs::session();
        let (circuit, out) = rc_circuit();
        let options = TransientOptions::step_response(Time::from_microseconds(20.0), 2000);
        let result = solve_transient(&circuit, &options).unwrap();
        let dc = crate::solve::solve_dc(&circuit).unwrap();
        let last = result.voltages.last().unwrap()[out];
        assert!(
            (last - dc.voltage(out).volts()).abs() < 1e-6,
            "transient must converge to the DC operating point"
        );
    }

    #[test]
    fn nonlinear_memristor_transient_converges_to_dc() {
        // Its thousands of refactors must not land in another test's
        // metrics session.
        let _session = mnsim_obs::session();
        let mut c = Circuit::new();
        let drive = c.add_node();
        let out = c.add_node();
        c.add_voltage_source(drive, Circuit::GROUND, Voltage::from_volts(1.0))
            .unwrap();
        c.add_resistor(drive, out, Resistance::from_kilo_ohms(5.0))
            .unwrap();
        c.add_memristor(
            out,
            Circuit::GROUND,
            Resistance::from_kilo_ohms(10.0),
            IvModel::Sinh { alpha: 3.0 },
        )
        .unwrap();
        c.add_capacitor(out, Circuit::GROUND, Capacitance::from_picofarads(100.0))
            .unwrap();
        let options = TransientOptions::step_response(Time::from_microseconds(10.0), 2000);
        let result = solve_transient(&c, &options).unwrap();
        let dc = crate::solve::solve_dc(&c).unwrap();
        let last = result.voltages.last().unwrap()[out];
        assert!(
            (last - dc.voltage(out).volts()).abs() < 1e-4,
            "{last} vs {}",
            dc.voltage(out).volts()
        );
        // The waveform must be monotone rising (single pole, step drive).
        for pair in result.voltages.windows(2) {
            assert!(pair[1][out] >= pair[0][out] - 1e-9);
        }
    }

    /// An RC network driven through a floating source (gnd–R–a, b =V= a,
    /// b–C–gnd) follows the backward-Euler recurrence of its supernode,
    /// `(v_b − V)/R + (C/Δt)(v_b − v_b⁻) = 0`, on one analysis and one
    /// factorization.
    #[test]
    fn floating_source_rc_follows_the_backward_euler_recurrence() {
        let session = mnsim_obs::session();
        let (r, cap, v, steps) = (1e3, 1e-9, 1.0, 200);
        let mut c = Circuit::new();
        let a = c.add_node();
        let b = c.add_node();
        c.add_resistor(Circuit::GROUND, a, Resistance::from_ohms(r))
            .unwrap();
        c.add_voltage_source(b, a, Voltage::from_volts(v)).unwrap();
        c.add_capacitor(b, Circuit::GROUND, Capacitance::from_farads(cap))
            .unwrap();
        let options = TransientOptions::step_response(Time::from_microseconds(5.0), steps);
        let result = solve_transient(&c, &options).unwrap();

        let g = cap / options.dt.seconds();
        let mut want = 0.0;
        for sample in &result.voltages[1..] {
            want = (v / r + g * want) / (1.0 / r + g);
            let got = sample[b];
            assert!((got - want).abs() < 1e-12, "{got} V, not {want} V");
            assert!((sample[b] - sample[a] - v).abs() < 1e-12);
        }
        let snap = session.snapshot();
        assert_eq!(snap.counter("solver.klu.analyses"), 1);
        assert_eq!(snap.counter("solver.klu.factors"), 1);
        assert_eq!(snap.counter("solver.klu.refactor"), 0);
    }

    #[test]
    fn capacitor_validation() {
        let mut c = Circuit::new();
        let a = c.add_node();
        assert!(c
            .add_capacitor(a, a, Capacitance::from_picofarads(1.0))
            .is_err());
        assert!(c
            .add_capacitor(a, Circuit::GROUND, Capacitance::from_farads(0.0))
            .is_err());
        assert!(c
            .add_capacitor(a, Circuit::GROUND, Capacitance::from_picofarads(1.0))
            .is_ok());
    }

    #[test]
    fn invalid_windows_rejected() {
        let (circuit, _) = rc_circuit();
        let options = TransientOptions {
            t_stop: Time::from_microseconds(1.0),
            dt: Time::from_microseconds(2.0),
        };
        assert!(solve_transient(&circuit, &options).is_err());
    }

    #[test]
    fn settle_time_none_for_grounded_node() {
        let _session = mnsim_obs::session();
        let (circuit, _) = rc_circuit();
        let options = TransientOptions::step_response(Time::from_microseconds(1.0), 100);
        let result = solve_transient(&circuit, &options).unwrap();
        assert!(result.settle_time(Circuit::GROUND, 0.01).is_none());
    }
}
