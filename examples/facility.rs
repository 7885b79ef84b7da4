//! Facility-level coordination (Section 8): an old and a new cluster
//! share one facility power envelope that cannot feed both at peak. The
//! facility water-fills the envelope by weight; as the old cluster
//! drains, its headroom flows to the new one.
//!
//! ```text
//! cargo run --release --example facility
//! ```

use anor::aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor::platform::PerformanceVariation;
use anor::policy::{BudgetPolicy, ClusterView, FacilityBudgeter};
use anor::sim::{SimConfig, TabularSim};
use anor::types::{standard_catalog, Seconds, Watts};

fn cluster(nodes: u32, utilization: f64, horizon: f64, seed: u64) -> TabularSim {
    // The initial target is a placeholder; the facility drives it below.
    let catalog = standard_catalog();
    let types = catalog.long_running();
    let cfg = SimConfig {
        total_nodes: nodes,
        idle_power: Watts(90.0),
        catalog: catalog.clone(),
        types: types.clone(),
        tick: Seconds(1.0),
        policy: BudgetPolicy::EvenSlowdown,
        qos: Default::default(),
        qos_risk_threshold: 0.8,
    };
    let schedule = poisson_schedule(&catalog, &types, utilization, nodes, Seconds(horizon), seed);
    let target = PowerTarget {
        avg: Watts(nodes as f64 * 200.0),
        reserve: Watts(nodes as f64 * 50.0),
        signal: RegulationSignal::Constant(0.0),
    };
    TabularSim::new(
        cfg,
        target,
        &PerformanceVariation::none(nodes as usize),
        schedule,
        None,
    )
}

fn main() {
    // Old cluster: winding down (arrivals stop after 10 minutes).
    // New cluster: fully loaded for the whole hour.
    let mut old = cluster(32, 0.7, 600.0, 3);
    let mut new = cluster(32, 0.9, 3600.0, 5);
    let envelope = Watts(13_000.0); // < 2 × 32 × 280 W peak demand
    let facility = FacilityBudgeter;
    println!("shared envelope {envelope:.0} for two 32-node clusters (peak demand 17.9 kW)\n");
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>12}",
        "time_s", "old_alloc_w", "new_alloc_w", "old_meas_w", "new_meas_w"
    );
    for tick in 0..3600 {
        let views = [
            ClusterView {
                name: "old".into(),
                floor: Watts(32.0 * 90.0),
                capacity: Watts(32.0 * 280.0),
                demand: old.measured_power() + Watts(500.0),
                weight: 1.0,
            },
            ClusterView {
                name: "new".into(),
                floor: Watts(32.0 * 90.0),
                capacity: Watts(32.0 * 280.0),
                demand: new.measured_power() + Watts(500.0),
                weight: 2.0,
            },
        ];
        let alloc = facility.allocate(envelope, &views);
        // Close the loop: each cluster's power objective *is* its
        // facility allocation.
        old.set_target(PowerTarget {
            avg: alloc[0],
            reserve: Watts(300.0),
            signal: RegulationSignal::Constant(0.0),
        });
        new.set_target(PowerTarget {
            avg: alloc[1],
            reserve: Watts(300.0),
            signal: RegulationSignal::Constant(0.0),
        });
        if tick % 400 == 0 {
            println!(
                "{:>8} {:>12.0} {:>12.0} {:>12.0} {:>12.0}",
                tick,
                alloc[0].value(),
                alloc[1].value(),
                old.measured_power().value(),
                new.measured_power().value()
            );
        }
        old.step();
        new.step();
    }
    println!(
        "\nThe old cluster's demand collapses once its queue drains; the\n\
         facility recycles that headroom into the bring-up cluster without\n\
         ever exceeding the shared envelope — the Section 8 scenario."
    );
}
