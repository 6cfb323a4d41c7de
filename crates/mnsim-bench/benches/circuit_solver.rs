//! Circuit-solver benches: the sparse LDLᵀ engine on the reduced crossbar
//! system from 32 to 288 unknowns, for a one-shot `solve_dc` and for a
//! repeated read on a held `Solver`, which re-assembles and backsolves on
//! its factor without refactoring (DESIGN.md ablation 1, whose dense-LU
//! counterpart EXPERIMENTS.md records), plus the Newton overhead of
//! non-linear cells.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::solve::{solve_dc, Solver};
use mnsim_tech::memristor::IvModel;
use mnsim_tech::units::{Resistance, Voltage};

fn linear_spec(size: usize) -> CrossbarSpec {
    CrossbarSpec::uniform(
        size,
        size,
        Resistance::from_kilo_ohms(10.0),
        Resistance::from_ohms(2.0),
        Resistance::from_ohms(10.0),
        Voltage::from_volts(0.5),
    )
}

fn bench_ldl(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/ldl");
    group.sample_size(10);
    // Crossbar edges 4, 6, 7, 8 and 12: 32, 72, 98, 128 and 288 unknowns.
    for &size in &[4usize, 6, 7, 8, 12] {
        let unknowns = 2 * size * size;
        let xbar = linear_spec(size).build().unwrap();
        let rhs = [xbar
            .input_rhs(&vec![Voltage::from_volts(0.5); size])
            .unwrap()];
        group.bench_function(BenchmarkId::new("ldl_solve", unknowns), |b| {
            b.iter(|| solve_dc(xbar.circuit()).unwrap());
        });
        let mut solver = Solver::default();
        solver.solve_batch(xbar.circuit(), &rhs).unwrap();
        group.bench_function(BenchmarkId::new("ldl_backsolve", unknowns), |b| {
            b.iter(|| solver.solve_batch(xbar.circuit(), &rhs).unwrap());
        });
    }
    group.finish();
}

fn bench_newton_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver/newton_overhead");
    group.sample_size(10);
    let size = 32;
    let linear = linear_spec(size).build().unwrap();
    let mut nonlinear_spec = linear_spec(size);
    nonlinear_spec.iv = IvModel::Sinh { alpha: 2.5 };
    let nonlinear = nonlinear_spec.build().unwrap();
    group.bench_function("linear", |b| {
        b.iter(|| solve_dc(linear.circuit()).unwrap());
    });
    group.bench_function("nonlinear_newton", |b| {
        b.iter(|| solve_dc(nonlinear.circuit()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_ldl, bench_newton_overhead);
criterion_main!(benches);
