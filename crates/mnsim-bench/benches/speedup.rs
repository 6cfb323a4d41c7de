//! Table III basis: circuit-level solve vs behavior-level evaluation of a
//! single crossbar, per size. The ratio of the two groups is the paper's
//! speed-up column.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnsim_circuit::crossbar::CrossbarSpec;
use mnsim_circuit::solve::solve_dc;
use mnsim_core::accuracy::{AccuracyModel, Case};
use mnsim_core::config::Config;
use mnsim_core::modules::crossbar::CrossbarModel;

fn bench_circuit_solver(c: &mut Criterion) {
    let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
    let mut group = c.benchmark_group("table3/circuit");
    group.sample_size(10);
    for &size in &[16usize, 32, 64] {
        let mut spec = CrossbarSpec::uniform(
            size,
            size,
            config.device.r_min,
            config.interconnect.segment_resistance(),
            config.sense_resistance,
            config.device.v_read,
        );
        spec.iv = config.device.iv;
        let xbar = spec.build().unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(size), &xbar, |b, xbar| {
            b.iter(|| solve_dc(xbar.circuit()).unwrap());
        });
    }
    group.finish();
}

fn bench_behavior_model(c: &mut Criterion) {
    let config = Config::fully_connected_mlp(&[128, 128]).unwrap();
    let accuracy = AccuracyModel::from_config(&config);
    let mut group = c.benchmark_group("table3/mnsim");
    for &size in &[16usize, 32, 64, 128, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            b.iter(|| {
                let model = CrossbarModel::new(size, &config.device, config.interconnect);
                let mut sink = model.area().square_meters();
                sink += model.compute_power(size, size).watts();
                sink += model.settle_latency().seconds();
                sink += accuracy.error_rate(
                    size,
                    size,
                    config.interconnect,
                    &config.device,
                    Case::Worst,
                );
                std::hint::black_box(sink)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_circuit_solver, bench_behavior_model);
criterion_main!(benches);
