//! Criterion bench for the Fig. 4 substrate: assignment latency of the
//! even-power and even-slowdown budgeters as the number of concurrent
//! jobs grows (the cluster tier runs this on every control pass).

use anor_policy::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, JobView};
use anor_types::{standard_catalog, JobId, Watts};
use criterion::{criterion_group, criterion_main, Criterion};

fn views(n: usize) -> Vec<JobView> {
    let catalog = standard_catalog();
    let specs: Vec<_> = catalog.iter().collect();
    (0..n)
        .map(|i| JobView::from_spec(JobId(i as u64), specs[i % specs.len()]))
        .collect()
}

fn budgeters(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4");
    for n in [8usize, 64, 512] {
        let jobs = views(n);
        let budget = Watts(210.0 * jobs.iter().map(|j| j.nodes as f64).sum::<f64>());
        group.bench_function(format!("even_power/{n}_jobs"), |b| {
            b.iter(|| EvenPowerBudgeter.assign(budget, std::hint::black_box(&jobs)))
        });
        group.bench_function(format!("even_slowdown/{n}_jobs"), |b| {
            b.iter(|| EvenSlowdownBudgeter::default().assign(budget, std::hint::black_box(&jobs)))
        });
    }
    group.finish();
}

criterion_group!(benches, budgeters);
criterion_main!(benches);
