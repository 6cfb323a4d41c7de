//! Circuit-fidelity fault sweep on one large crossbar: one solver handle
//! refactored in place for every seeded fault map.
//!
//! ```text
//! cargo run --release --example sparse_fault_sweep \
//!     [-- --size <edge>] [--trials <n>] [--rate <fraction>] [--seed <n>]
//! ```
//!
//! A 256×256 crossbar reduces to 131 072 nodal unknowns. The example
//! reads the clean array once on a `Solver` — the sparse LDLᵀ engine
//! (`mnsim::circuit::ldl`, `DESIGN.md` §16) analyzes its pattern and
//! factors it — and then, for every trial, draws a seeded stuck-at
//! `FaultMap`, overlays it on the array and reads it on the same handle.
//! A stuck-at defect changes cell conductances, not the structure, so the
//! new values are scattered into the cached analysis and the factor is
//! refactored in place (`solver.klu.refactor`; `solver.klu.analyses`
//! stays 1, which the example checks); at this size every factorization
//! runs the
//! supernodal kernel (`solver.klu.supernodal`). This is the regime the
//! `dc_solve_sparse_refactor` bench entry measures. Each trial reads the
//! array once and reports how far its column outputs moved from the clean
//! array's, and the Kirchhoff residual of the solve.

use mnsim::circuit::crossbar::CrossbarSpec;
use mnsim::circuit::kcl_residual;
use mnsim::circuit::solve::Solver;
use mnsim::obs;
use mnsim::tech::fault::{FaultMap, FaultRates};
use mnsim::tech::units::{Resistance, Voltage};

struct Args {
    size: usize,
    trials: usize,
    rate: f64,
    seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        size: 256,
        trials: 8,
        rate: 0.01,
        seed: 2016,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} requires a value"));
        match flag.as_str() {
            "--size" => {
                args.size = value("--size")?
                    .parse()
                    .map_err(|e| format!("--size: {e}"))?
            }
            "--trials" => {
                args.trials = value("--trials")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = parse_args()?;
    let session = obs::session();

    // Ohmic cells keep every trial a linear solve on the sparse engine.
    let spec = CrossbarSpec::uniform(
        args.size,
        args.size,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(500.0),
        Voltage::from_volts(1.0),
    );
    let inputs: Vec<Voltage> = (0..args.size)
        .map(|row| Voltage::from_volts(0.2 + 0.8 * ((row * 37) % 101) as f64 / 100.0))
        .collect();
    let clean = spec.build()?;
    let read = [clean.input_rhs(&inputs)?];
    let mut solver = Solver::default();
    let reference = clean.output_voltages(&solver.solve_batch(clean.circuit(), &read)?[0]);
    let full_scale = reference.iter().fold(0.0f64, |m, v| m.max(v.volts().abs()));
    // The unknowns are the word- and bit-line nodes; the sources fix the rest.
    println!(
        "{0}x{0} crossbar ({1} unknowns), {2} trials, stuck-at rate {3}",
        args.size,
        2 * args.size * args.size,
        args.trials,
        args.rate
    );

    let rates = FaultRates::stuck_at(args.rate);
    let (mut worst_deviation, mut worst_residual) = (0.0f64, 0.0f64);
    for trial in 0..args.trials {
        let map = FaultMap::generate(args.size, args.size, &rates, args.seed + trial as u64)?;
        let defects = map.cell_fault_count();
        let faulty = spec
            .clone()
            .with_faults(
                map,
                Resistance::from_kilo_ohms(100.0),
                Resistance::from_kilo_ohms(1.0),
            )
            .build()?;
        let solution = &solver.solve_batch(faulty.circuit(), &read)?[0];
        let deviation = faulty
            .output_voltages(solution)
            .iter()
            .zip(&reference)
            .fold(0.0f64, |m, (v, r)| m.max((v.volts() - r.volts()).abs()))
            / full_scale;
        let residual = kcl_residual(faulty.circuit(), solution);
        worst_deviation = worst_deviation.max(deviation);
        worst_residual = worst_residual.max(residual);
        println!(
            "trial {trial:3}: {defects:5} stuck cells, max output deviation {:6.3} % of full scale, KCL residual {residual:.2e} A",
            deviation * 100.0
        );
    }
    println!(
        "worst output deviation {:.3} %, worst KCL residual {worst_residual:.2e} A",
        worst_deviation * 100.0
    );

    let snap = session.snapshot();
    println!("\nsparse engine counters:");
    for name in [
        "solver.klu.analyses",
        "solver.klu.factors",
        "solver.klu.refactor",
        "solver.klu.supernodal",
        "solver.klu.solves",
    ] {
        println!("  {name:36} {}", snap.counter(name));
    }
    if snap.counter("solver.klu.analyses") != 1 {
        return Err("a stuck-at overlay must keep the analyzed structure".into());
    }
    Ok(())
}
