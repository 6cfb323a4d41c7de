//! Failure-injection tests: every layer must fail loudly and typed, never
//! silently produce garbage.

mod common;

use mnsim::circuit::solve::solve_dc;
use mnsim::circuit::{Circuit, CircuitError};
use mnsim::core::config::Config;
use mnsim::core::dse::{Constraints, DesignSpace};
use mnsim::core::error::CoreError;
use mnsim::core::simulate::simulate;
use mnsim::core::Simulator;
use mnsim::tech::units::{Resistance, Voltage};

#[test]
fn floating_node_reports_singular_system() {
    // A node connected only through a capacitor is floating at DC.
    let mut c = Circuit::new();
    let a = c.add_node();
    let floating = c.add_node();
    c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
        .unwrap();
    c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(100.0))
        .unwrap();
    c.add_capacitor(
        floating,
        Circuit::GROUND,
        mnsim::tech::units::Capacitance::from_picofarads(1.0),
    )
    .unwrap();
    // The floating node has a zero row → singular.
    let result = solve_dc(&c);
    assert!(
        matches!(result, Err(CircuitError::SingularSystem { .. })),
        "{result:?}"
    );
}

#[test]
fn over_constrained_dse_is_typed() {
    let base = Config::fully_connected_mlp(&[256, 256]).unwrap();
    let space = DesignSpace {
        crossbar_sizes: vec![128],
        parallelism_degrees: vec![1],
        interconnects: vec![mnsim::tech::interconnect::InterconnectNode::N18],
    };
    // Impossible: area below a square millimetre AND error near zero.
    let constraints = Constraints {
        max_crossbar_error: Some(1e-6),
        max_area_mm2: Some(0.0001),
        max_power_w: None,
    };
    assert!(matches!(
        Simulator::new(base)
            .threads(1)
            .explore(&space, &constraints),
        Err(CoreError::EmptyDesignSpace { .. })
    ));
}

#[test]
fn broken_device_is_rejected_before_simulation() {
    let mut config = Config::fully_connected_mlp(&[64, 64]).unwrap();
    config.device.r_min = Resistance::from_ohms(-5.0);
    // Device-model problems surface through the unified validation pass,
    // typed against the Table-I field that selects the device.
    match simulate(&config) {
        Err(CoreError::Config { errors }) => {
            assert!(
                errors.iter().any(|e| e.field_path == "Memristor_Model"),
                "{errors:?}"
            );
        }
        other => panic!("expected a validation error, got {other:?}"),
    }
}

#[test]
fn error_chain_preserves_sources() {
    use std::error::Error as _;
    let mut config = Config::fully_connected_mlp(&[64, 64]).unwrap();
    config.device.sigma = 0.9; // out of the 0..=0.3 range
    let err = simulate(&config).unwrap_err();
    // Displayable, with a source chain reaching the tech layer.
    assert!(err.to_string().contains("sigma"));
    assert!(err.source().is_some());
}

#[test]
fn program_against_wrong_network_is_typed() {
    use mnsim::core::instruction::{execute, Instruction, Program};
    let config = Config::fully_connected_mlp(&[64, 64]).unwrap();
    let report = simulate(&config).unwrap();
    let mut program = Program::new();
    program.push(Instruction::Write { bank: 3 });
    assert!(matches!(
        execute(&report, &program),
        Err(CoreError::InvalidConfig { .. })
    ));
}

#[test]
fn transient_mis_windows_are_typed() {
    use mnsim::circuit::transient::{solve_transient, TransientOptions};
    use mnsim::tech::units::Time;
    let mut c = Circuit::new();
    let a = c.add_node();
    c.add_voltage_source(a, Circuit::GROUND, Voltage::from_volts(1.0))
        .unwrap();
    c.add_resistor(a, Circuit::GROUND, Resistance::from_ohms(1.0))
        .unwrap();
    let options = TransientOptions {
        t_stop: Time::from_nanoseconds(1.0),
        dt: Time::from_nanoseconds(0.0),
    };
    assert!(solve_transient(&c, &options).is_err());
}

// ---------------------------------------------------------------------------
// Fault injection on the one LDLᵀ engine
// ---------------------------------------------------------------------------

#[test]
fn stuck_cells_and_broken_bitline_simulate_end_to_end() {
    use mnsim::circuit::crossbar::CrossbarSpec;
    use mnsim::circuit::kcl_residual;
    use mnsim::tech::fault::{FaultMap, FaultRates};

    // 5 % stuck-at cells plus one broken bitline must solve end-to-end,
    // never panic, and balance Kirchhoff's current law.
    let mut map = FaultMap::generate(16, 16, &FaultRates::stuck_at(0.05), 0xFA_17).unwrap();
    map.broken_bitlines.insert(3, 1);
    let spec = CrossbarSpec::uniform(
        16,
        16,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.5),
        Resistance::from_ohms(10.0),
        Voltage::from_volts(0.3),
    )
    .with_faults(
        map,
        Resistance::from_mega_ohms(1.0),
        Resistance::from_ohms(500.0),
    );
    let built = spec.build().unwrap();
    let solution = solve_dc(built.circuit()).unwrap();
    assert!(solution.voltages().iter().all(|v| v.is_finite()));
    let residual = kcl_residual(built.circuit(), &solution);
    assert!(residual <= 1e-9, "KCL residual {residual} A");
}

/// Fifteen decades of conductance spread, which a dense LU's relative
/// pivot test calls singular, solve exactly on the LDLᵀ engine through
/// the facade.
#[test]
fn tiny_pivot_divider_solves_exactly_through_facade() {
    let (c, b) = common::tiny_pivot_divider();
    let solution = solve_dc(&c).unwrap();
    // Two equal 1e15 Ω halves: b sits at exactly half the source.
    assert_eq!(solution.voltages()[b], 0.5);
}

/// The one engine answers every heavily faulted small array: 2×2 to
/// 16×16 arrays with 30 % stuck-at cells, one broken word line, one broken
/// bit line and 0.1 Ω wires, 200 seeds per size. The 1 TΩ open segments
/// next to the wires spread the conductances over thirteen decades. Every
/// one of the 1 400 solves returns `Ok` with a KCL residual of at most
/// 1e-9 A.
#[test]
fn ldl_answers_every_heavily_faulted_small_array() {
    use mnsim::circuit::crossbar::CrossbarSpec;
    use mnsim::circuit::kcl_residual;
    use mnsim::tech::fault::{FaultMap, FaultRates};

    let mut solves = 0;
    for size in [2usize, 3, 4, 6, 8, 12, 16] {
        for seed in 0..200u64 {
            let s = seed as usize;
            let mut map = FaultMap::generate(size, size, &FaultRates::stuck_at(0.3), seed).unwrap();
            map.broken_wordlines.insert(s % size, (s / size) % size);
            map.broken_bitlines
                .insert((s / 3) % size, 1 + (s / 7) % size);
            let mut spec = CrossbarSpec::uniform(
                size,
                size,
                Resistance::from_kilo_ohms(10.0),
                Resistance::from_ohms(0.1),
                Resistance::from_ohms(500.0),
                Voltage::from_volts(1.0),
            );
            for (k, input) in spec.inputs.iter_mut().enumerate() {
                *input = Voltage::from_volts(0.2 + 0.1 * ((k + s) % 9) as f64);
            }
            let xbar = spec
                .with_faults(
                    map,
                    Resistance::from_mega_ohms(1.0),
                    Resistance::from_ohms(500.0),
                )
                .build()
                .unwrap();
            let solution = solve_dc(xbar.circuit())
                .unwrap_or_else(|e| panic!("{size}x{size} seed {seed}: {e}"));
            let residual = kcl_residual(xbar.circuit(), &solution);
            assert!(
                residual <= 1e-9,
                "{size}x{size} seed {seed}: KCL residual {residual} A"
            );
            solves += 1;
        }
    }
    assert_eq!(solves, 1_400);
}

#[test]
fn deeply_nested_json_is_a_typed_error() {
    // 100 000 levels overflow a thread's default stack on an unbounded
    // recursive descent; the parser must refuse them instead.
    let arrays = "[".repeat(100_000);
    let objects = "{\"a\":".repeat(100_000);
    let results = std::thread::spawn(move || {
        [arrays, objects].map(|doc| mnsim::obs::parse_json(&doc).map(|_| ()))
    })
    .join()
    .expect("the parser returns instead of overflowing its stack");
    for result in results {
        let message = result.expect_err("deep nesting must be refused");
        assert!(message.contains("nesting deeper than"), "{message}");
    }
}

#[test]
fn netlist_node_ids_beyond_the_element_cards_are_typed_errors() {
    use mnsim::circuit::netlist::from_netlist;
    for id in ["100000000", "1000000000000", "18446744073709551615"] {
        let text = format!("V1 1 0 DC 1\nR1 1 {id} 1000\n.end\n");
        let result = from_netlist(&text);
        assert!(
            matches!(result, Err(CircuitError::NetlistParse { line: 2, .. })),
            "node id {id}: {result:?}"
        );
    }
    let grounded = from_netlist("V1 1 0 DC 1\nR1 1 2 1000\nR2 2 0 1000\n.end\n").unwrap();
    assert_eq!(grounded.node_count(), 3);
}

#[test]
fn fault_maps_are_deterministic_and_serializable() {
    use mnsim::tech::fault::{FaultMap, FaultRates};

    let rates = FaultRates {
        broken_wordline: 0.1,
        broken_bitline: 0.1,
        ..FaultRates::stuck_at(0.2)
    };
    let a = FaultMap::generate(24, 24, &rates, 7).unwrap();
    let b = FaultMap::generate(24, 24, &rates, 7).unwrap();
    assert_eq!(a, b, "same seed must reproduce the same silicon");
    assert_ne!(a, FaultMap::generate(24, 24, &rates, 8).unwrap());
    // Text replay round-trips exactly.
    let replayed = FaultMap::from_text(&a.to_text()).unwrap();
    assert_eq!(a, replayed);
}

mod fault_properties {
    use mnsim::core::config::Config;
    use mnsim::core::fault_sim::FaultConfig;
    use mnsim::core::Simulator;
    use mnsim::tech::fault::FaultRates;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any fault rate in [0, 1] runs the full pipeline without a panic:
        /// the outcome is a report or a typed error, nothing else. Every
        /// solve a report accepts balances Kirchhoff's current law to
        /// 1e-9 A.
        #[test]
        fn any_fault_rate_never_panics(
            raw in 0.0f64..1.25,
            broken in 0.0f64..0.3,
            seed in 0u64..1000,
        ) {
            // `min` folds the overshoot onto the closed endpoint so the
            // boundary rate 1.0 is exercised too.
            let rate = raw.min(1.0);
            let config = Config::fully_connected_mlp(&[32, 16]).unwrap();
            let fault_config = FaultConfig {
                rates: FaultRates {
                    broken_wordline: broken,
                    broken_bitline: broken,
                    ..FaultRates::stuck_at(rate)
                },
                trials: 2,
                seed,
                ..FaultConfig::default()
            };
            match Simulator::new(config).threads(1).faults(fault_config).run() {
                Ok(report) => {
                    let faults = report.faults.expect("campaign attaches a summary");
                    prop_assert!(faults.yield_fraction >= 0.0 && faults.yield_fraction <= 1.0);
                    prop_assert!(faults.mean_deviation_levels.is_finite());
                    if faults.solves > 0 {
                        prop_assert!(
                            faults.worst_kcl_residual <= 1e-9,
                            "worst KCL residual {} A",
                            faults.worst_kcl_residual
                        );
                    }
                }
                Err(e) => {
                    // Typed failure is acceptable; a panic is not.
                    let _ = e.to_string();
                }
            }
        }
    }
}
