//! Large-scale simulation: the paper's Section 6.4 scenario scaled to a
//! 200-node tabular simulation — per-node performance variation versus
//! 90th-percentile QoS degradation.
//!
//! ```text
//! cargo run --release --example large_scale_sim
//! ```

use anor::aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor::platform::PerformanceVariation;
use anor::policy::BudgetPolicy;
use anor::sim::{SimConfig, TabularSim};
use anor::types::{standard_catalog, QosDegradation, Seconds, Watts};

fn main() {
    let nodes = 200u32;
    let horizon = Seconds(2400.0);
    let catalog = standard_catalog().scale_nodes(5);
    let types = catalog.long_running();
    println!("tabular simulation: {nodes} nodes, 6 job types, 75% utilization\n");
    println!(
        "{:>12} {:>14} {:>12} {:>12}",
        "variation", "p90 QoS", "jobs done", "trk p90"
    );
    for level in [0.0, 15.0, 30.0] {
        let cfg = SimConfig {
            total_nodes: nodes,
            idle_power: Watts(90.0),
            catalog: catalog.clone(),
            types: types.clone(),
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        let variation = PerformanceVariation::with_level_percent(nodes as usize, level, 7);
        let schedule = poisson_schedule(&catalog, &types, 0.75, nodes, horizon, 3);
        let target = PowerTarget {
            avg: Watts(nodes as f64 * 210.0),
            reserve: Watts(nodes as f64 * 25.0),
            signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, horizon * 3.0, 5),
        };
        let mut sim = TabularSim::new(cfg.clone(), target, &variation, schedule, None);
        sim.run(horizon, horizon * 2.0);
        let out = sim.outcome();
        let all: Vec<QosDegradation> = out
            .qos_by_type
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let p90 = cfg.qos.percentile_degradation(&all).unwrap_or(0.0);
        println!(
            "{:>10.1}% {:>14.2} {:>12} {:>11.0}%",
            level,
            p90,
            out.completed,
            out.tracking_p90 * 100.0
        );
    }
    println!(
        "\nGreater per-node performance variation -> slower stragglers gate\n\
         multi-node jobs -> longer occupancy -> longer queues -> higher QoS\n\
         degradation (the paper's Fig. 11 trend). QoS target is Q = 5."
    );
}
