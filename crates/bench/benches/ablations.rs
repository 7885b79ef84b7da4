//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **retrain threshold** — cost of a modeler retrain pass as the
//!   threshold shrinks (more frequent refits);
//! * **model order** — fit cost of linear vs anchored vs full quadratic;
//! * **bisection tolerance** — even-slowdown assignment cost as the
//!   convergence tolerance tightens.

use anor_model::{fit_anchored, fit_linear, fit_quadratic, ModelerConfig, PowerModeler};
use anor_policy::{Budgeter, EvenSlowdownBudgeter, JobView};
use anor_types::{standard_catalog, CapRange, JobId, PowerCurve, Seconds, Watts};
use criterion::{criterion_group, criterion_main, Criterion};

fn observations(n: usize) -> Vec<(Watts, Seconds)> {
    let truth = PowerCurve::from_anchor(Seconds(2.4), 0.75, CapRange::paper_node());
    (0..n)
        .map(|i| {
            let p = 140.0 + (i % 8) as f64 * 20.0;
            (Watts(p), truth.time_at(Watts(p)))
        })
        .collect()
}

fn retrain_threshold(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_retrain_threshold");
    let truth = PowerCurve::from_anchor(Seconds(2.4), 0.75, CapRange::paper_node());
    for threshold in [5u64, 10, 20] {
        group.bench_function(format!("epochs_{threshold}"), |b| {
            b.iter(|| {
                let mut cfg = ModelerConfig::paper();
                cfg.retrain_epochs = threshold;
                let mut m = PowerModeler::with_default(cfg, truth);
                let mut t = 0.0;
                let mut count = 0;
                // Stream 60 epochs across two cap levels.
                for (cap, tau) in [(Watts(170.0), 3.0), (Watts(250.0), 2.5)] {
                    for _ in 0..30 {
                        t += tau;
                        count += 1;
                        m.observe(count, Seconds(t), cap);
                    }
                }
                m.curve()
            })
        });
    }
    group.finish();
}

fn model_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_model_order");
    let pts = observations(200);
    let range = CapRange::paper_node();
    group.bench_function("linear", |b| {
        b.iter(|| fit_linear(std::hint::black_box(&pts)).unwrap())
    });
    group.bench_function("anchored", |b| {
        b.iter(|| fit_anchored(std::hint::black_box(&pts), range).unwrap())
    });
    group.bench_function("quadratic", |b| {
        b.iter(|| fit_quadratic(std::hint::black_box(&pts)).unwrap())
    });
    group.finish();
}

fn bisection_tolerance(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bisection_tol");
    let catalog = standard_catalog();
    let jobs: Vec<JobView> = catalog
        .iter()
        .map(|s| JobView::from_spec(JobId(s.id.0 as u64), s))
        .collect();
    for tol in [0.1f64, 0.5, 5.0] {
        group.bench_function(format!("tol_{tol}w"), |b| {
            let budgeter = EvenSlowdownBudgeter {
                tolerance: Watts(tol),
                max_iters: 64,
            };
            b.iter(|| budgeter.assign(Watts(2000.0), std::hint::black_box(&jobs)))
        });
    }
    group.finish();
}

criterion_group!(benches, retrain_threshold, model_order, bisection_tolerance);
criterion_main!(benches);
