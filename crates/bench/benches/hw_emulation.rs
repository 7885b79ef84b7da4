//! Criterion bench for the Figs. 6–9 substrate: end-to-end emulated
//! cluster throughput — a short co-scheduled run including the GEOPM
//! runtimes, job endpoints, TCP daemon and budgeter.

use anor_cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
use anor_types::Watts;
use criterion::{criterion_group, criterion_main, Criterion};

fn hw_emulation(c: &mut Criterion) {
    let mut group = c.benchmark_group("hw_emulation");
    group.sample_size(10);
    group.bench_function("is_pair_static_840w", |b| {
        b.iter(|| {
            // IS is the shortest type (~20 s virtual), keeping the bench
            // iteration bounded while covering the full stack.
            let cluster =
                EmulatedCluster::new(EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true));
            cluster
                .run_static(
                    &[JobSetup::known("is.D.32"), JobSetup::known("is.D.32")],
                    Watts(840.0),
                )
                .expect("run failed")
        })
    });
    group.finish();
}

criterion_group!(benches, hw_emulation);
criterion_main!(benches);
