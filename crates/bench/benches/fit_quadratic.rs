//! Criterion bench for the model tier's quadratic power-performance
//! fit — the kernel behind every endpoint retrain (`T = A·P² + B·P + C`
//! over the epoch-window samples).

use anor_model::fit_quadratic;
use anor_types::{Seconds, Watts};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// Synthetic epoch samples on a known curve plus deterministic jitter,
/// spread over the platform cap range like a real retrain window.
fn samples(n: usize) -> Vec<(Watts, Seconds)> {
    (0..n)
        .map(|i| {
            let p = 140.0 + 140.0 * (i as f64 / (n - 1).max(1) as f64);
            let jitter = ((i * 2654435761) % 997) as f64 / 997.0 - 0.5;
            let t = 1.9e-5 * p * p - 1.4e-2 * p + 4.2 + 0.02 * jitter;
            (Watts(p), Seconds(t))
        })
        .collect()
}

fn fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("fit_quadratic");
    for n in [8usize, 32, 128] {
        let pts = samples(n);
        group.bench_function(format!("{n}_samples"), |b| {
            b.iter(|| fit_quadratic(black_box(&pts)).expect("fit succeeds"))
        });
    }
    group.finish();
}

criterion_group!(benches, fit);
criterion_main!(benches);
