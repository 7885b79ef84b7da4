//! The hourly demand-response bidding loop (Section 4.4.1): once per
//! hour, search (average power, reserve) candidates by simulating the
//! expected submission scenario and pick the cheapest bid that satisfies
//! the QoS and power-tracking constraints.
//!
//! ```text
//! cargo run --release --example hourly_bidding
//! ```

use anor::aqa::CostModel;
use anor::bidding::{choose_hourly_bid, evaluate_bid, BiddingConfig};
use anor::policy::BudgetPolicy;
use anor::sim::SimConfig;
use anor::types::{standard_catalog, Seconds, Watts};

fn main() {
    let catalog = standard_catalog();
    let types = catalog.long_running();
    let sim = SimConfig {
        total_nodes: 48,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(1.0),
        policy: BudgetPolicy::Uniform,
        qos: Default::default(),
        qos_risk_threshold: 0.8,
    };
    println!("hourly bidding for a 48-node cluster\n");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "hour", "util", "avg_bid_w", "reserve_w", "cost_$/h"
    );
    let cost = CostModel::default();
    // Three consecutive hours with different forecast utilizations.
    for (hour, util) in [(9, 0.55), (10, 0.70), (11, 0.85)] {
        let mut cfg = BiddingConfig::new(sim.clone(), util, hour as u64 * 31);
        cfg.horizon = Seconds(900.0);
        cfg.grid_steps = 4;
        cfg.tracking.probability = 0.75; // small-cluster granularity
        match choose_hourly_bid(&cfg).expect("simulation failed") {
            Some(bid) => {
                let e = evaluate_bid(&cfg, &bid).expect("re-evaluation failed");
                assert!(e.feasible());
                println!(
                    "{hour:>6} {util:>12.2} {:>12.0} {:>12.0} {:>10.3}",
                    bid.avg_power.value(),
                    bid.reserve.value(),
                    cost.hourly_cost(&bid)
                );
            }
            None => println!(
                "{hour:>6} {util:>12.2} {:>12} {:>12} {:>10}",
                "-", "-", "decline"
            ),
        }
    }
    println!(
        "\nHigher forecast utilization pushes the average-power request up;\n\
         the reserve offer is bounded by what the cluster can track while\n\
         keeping every queue inside Q <= 5 with 90% probability."
    );
}
