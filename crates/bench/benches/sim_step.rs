//! Criterion bench for the simulator's per-tick hot path after the
//! incremental-aggregate overhaul: single steps of a warm, loaded
//! 1000-node cluster (idle/busy counts, per-type usage and busy power
//! are maintained at state transitions, so a quiet tick is O(busy
//! nodes), not O(table) rescans).

use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, SimPowerPolicy, TabularSim};
use anor_types::{Seconds, Watts};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn make_sim(nodes: u32, policy: SimPowerPolicy) -> TabularSim {
    let mut cfg = SimConfig::paper_1000(policy);
    cfg.total_nodes = nodes;
    let scale = (nodes as f64 / 40.0).round().max(1.0) as u32;
    cfg.catalog = anor_types::standard_catalog().scale_nodes(scale);
    cfg.types = cfg.catalog.long_running();
    let schedule = poisson_schedule(&cfg.catalog, &cfg.types, 0.75, nodes, Seconds(1800.0), 42);
    let target = PowerTarget {
        avg: Watts(nodes as f64 * 210.0),
        reserve: Watts(nodes as f64 * 25.0),
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(4000.0), 7),
    };
    let variation = PerformanceVariation::with_sigma(nodes as usize, 0.06, 3);
    TabularSim::new(cfg, target, &variation, schedule, None)
}

fn sim_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_step");
    for (label, policy) in [
        ("uniform", SimPowerPolicy::Uniform),
        ("even_slowdown", SimPowerPolicy::EvenSlowdown),
    ] {
        group.bench_function(format!("1000_nodes/{label}/single_step"), |b| {
            b.iter_batched(
                || {
                    let mut sim = make_sim(1000, policy);
                    // Warm to steady state so the step exercises running
                    // jobs, completions and re-caps, not an empty table.
                    for _ in 0..150 {
                        sim.step();
                    }
                    sim
                },
                |mut sim| {
                    sim.step();
                    sim.measured_power()
                },
                BatchSize::LargeInput,
            )
        });
    }
    // The capped-history ring: recording must not regress the tick.
    group.bench_function("1000_nodes/uniform/step_with_ring_history", |b| {
        b.iter_batched(
            || {
                let mut sim = make_sim(1000, SimPowerPolicy::Uniform);
                sim.record_history_capped(512);
                for _ in 0..150 {
                    sim.step();
                }
                sim
            },
            |mut sim| {
                for _ in 0..10 {
                    sim.step();
                }
                sim.history().len()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, sim_step);
criterion_main!(benches);
