//! Criterion bench for the Fig. 11 substrate: tabular-simulator tick
//! throughput at cluster scale (the paper's 1000-node runs step this
//! loop once per simulated second).

use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, SimPowerPolicy, TabularSim};
use anor_types::{Seconds, Watts};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn make_sim(nodes: u32) -> TabularSim {
    let mut cfg = SimConfig::paper_1000(SimPowerPolicy::Uniform);
    cfg.total_nodes = nodes;
    // Keep job footprints feasible at small scale.
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

fn sim_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_tick");
    for nodes in [100u32, 1000] {
        group.bench_function(format!("{nodes}_nodes/100_ticks"), |b| {
            b.iter_batched(
                || {
                    let mut sim = make_sim(nodes);
                    // Warm to steady state so ticks include running jobs.
                    for _ in 0..120 {
                        sim.step();
                    }
                    sim
                },
                |mut sim| {
                    for _ in 0..100 {
                        sim.step();
                    }
                    sim.measured_power()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, sim_tick);
criterion_main!(benches);
