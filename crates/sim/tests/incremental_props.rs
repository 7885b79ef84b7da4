//! Property tests for the simulator's incremental aggregates: the
//! idle-node count, per-type node-usage table and busy-power sum are
//! updated at state transitions (job start, completion, re-cap) instead
//! of rescanning the tables every tick, so they must stay equal to a
//! from-scratch recount after *any* scheduling/completion sequence.

use anor_aqa::{JobSubmission, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_policy::BudgetPolicy;
use anor_sim::{SimConfig, TabularSim};
use anor_types::{QosConstraint, Seconds, Watts};
use proptest::prelude::*;

fn config(policy: BudgetPolicy) -> SimConfig {
    let catalog = anor_types::standard_catalog();
    let types = catalog.long_running();
    SimConfig {
        total_nodes: 16,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(1.0),
        policy,
        qos: QosConstraint::default(),
        qos_risk_threshold: 0.8,
    }
}

/// Check the incremental aggregates against recounts over the tables.
fn assert_aggregates_consistent(sim: &TabularSim, at: &str) {
    let idle_recount = sim.nodes().iter().filter(|n| n.is_idle()).count() as u32;
    assert_eq!(sim.idle_nodes(), idle_recount, "idle count diverged {at}");

    let mut usage = vec![0u32; sim.type_usage().len()];
    for job in sim.jobs().iter().filter(|j| j.is_running()) {
        let slot = usage
            .get_mut(job.type_id.index())
            .expect("type id within catalog");
        *slot += job.nodes.len() as u32;
    }
    assert_eq!(sim.type_usage(), &usage[..], "type usage diverged {at}");

    // The power aggregate must equal a from-scratch sum of per-node
    // powers. The busy sum is float add/sub at transitions, so allow
    // rounding noise but nothing structural.
    let recount: f64 = sim.nodes().iter().map(|n| n.power.value()).sum();
    let aggregate = sim.aggregate_power().value();
    assert!(
        (aggregate - recount).abs() <= 1e-6 * recount.max(1.0),
        "power aggregate diverged {at}: incremental {aggregate} vs recount {recount}"
    );
}

proptest! {
    /// After arbitrary submission sequences and step counts, under every
    /// power policy, the incremental aggregates match the tables.
    #[test]
    fn incremental_aggregates_match_recounts(
        policy_index in 0usize..4,
        arrivals in proptest::collection::vec((0u32..600, 0usize..6), 0..32),
        sigma in 0.0f64..0.3,
        target_w in 1600.0f64..4400.0,
        steps in 1usize..400,
        seed in 0u64..1000,
    ) {
        let cfg = config(BudgetPolicy::ALL[policy_index]);
        let schedule: Vec<JobSubmission> = {
            let mut subs: Vec<JobSubmission> = arrivals
                .iter()
                .map(|&(t, ti)| JobSubmission {
                    time: Seconds(t as f64),
                    type_id: cfg.types[ti % cfg.types.len()],
                })
                .collect();
            subs.sort_by(|a, b| a.time.value().total_cmp(&b.time.value()));
            subs
        };
        let target = PowerTarget {
            avg: Watts(target_w),
            reserve: Watts(target_w * 0.2),
            signal: RegulationSignal::random_walk(
                Seconds(4.0),
                0.35,
                Seconds(4000.0),
                seed,
            ),
        };
        let variation = PerformanceVariation::with_sigma(16, sigma, seed ^ 0x5eed);
        let mut sim = TabularSim::new(cfg, target, &variation, schedule, None);
        for i in 0..steps {
            sim.step();
            // Checking every tick is O(steps × nodes); sample the early
            // ticks densely (transitions cluster there) and then every
            // 13th tick.
            if i < 32 || i % 13 == 0 {
                assert_aggregates_consistent(&sim, &format!("after tick {}", i + 1));
            }
        }
        assert_aggregates_consistent(&sim, "at the end of the run");
    }
}
