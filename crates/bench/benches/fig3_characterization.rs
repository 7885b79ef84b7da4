//! Criterion bench for the Fig. 3 substrate: how fast the synthetic
//! workload characterization sweep runs (one full run-to-completion per
//! cap level per type).

use anor_platform::SyntheticWorkload;
use anor_types::{standard_catalog, Watts};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn characterization(c: &mut Criterion) {
    let catalog = standard_catalog();
    let mut group = c.benchmark_group("fig3");
    for name in ["bt.D.81", "is.D.32"] {
        let spec = catalog.find(name).unwrap().clone();
        group.bench_function(format!("sweep/{name}"), |b| {
            b.iter_batched(
                || spec.clone(),
                |spec| {
                    let mut total = 0.0;
                    for cap in [140.0, 180.0, 220.0, 260.0] {
                        let mut w = SyntheticWorkload::new(spec.clone(), 1.0, 1);
                        total += w.run_to_completion(Watts(cap)).value();
                    }
                    total
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, characterization);
criterion_main!(benches);
