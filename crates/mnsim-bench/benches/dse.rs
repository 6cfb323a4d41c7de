//! Design-space-exploration throughput (the paper's "10,220 designs within
//! 4 seconds" claim) and the serial-vs-threaded ablation.

use criterion::{criterion_group, criterion_main, Criterion};
use mnsim_bench::experiments::large_bank_config;
use mnsim_core::dse::{Constraints, DesignSpace};
use mnsim_core::simulate::simulate;
use mnsim_core::Simulator;
use mnsim_tech::interconnect::InterconnectNode;

fn reduced_space() -> DesignSpace {
    DesignSpace {
        crossbar_sizes: vec![32, 64, 128, 256],
        parallelism_degrees: vec![1, 8, 64],
        interconnects: vec![InterconnectNode::N28, InterconnectNode::N45],
    }
}

fn bench_single_evaluation(c: &mut Criterion) {
    let config = large_bank_config();
    c.bench_function("dse/single_design_evaluation", |b| {
        b.iter(|| std::hint::black_box(simulate(&config).unwrap()));
    });
}

fn bench_explore_serial(c: &mut Criterion) {
    let base = large_bank_config();
    let space = reduced_space();
    let mut group = c.benchmark_group("dse/traversal");
    group.sample_size(10);
    let serial = Simulator::new(base.clone()).threads(1);
    group.bench_function("serial", |b| {
        b.iter(|| serial.explore(&space, &Constraints::default()).unwrap());
    });
    let parallel = Simulator::new(base).threads(4);
    group.bench_function("parallel_4_threads", |b| {
        b.iter(|| parallel.explore(&space, &Constraints::default()).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_single_evaluation, bench_explore_serial);
criterion_main!(benches);
