//! Differential property tests for the event-driven engine: the event
//! queue plus dirty-flag memoization must be *bit-identical* to the
//! legacy per-tick algorithm (completion scans, unconditional
//! admission/capping recompute every tick), which survives inside the
//! engine as the tick-oracle mode. Random clusters up to 200 nodes run
//! both modes in lockstep under random arrival schedules and random
//! re-cap sequences (a wandering regulation signal plus a mid-run
//! target swap), comparing measured power bit-for-bit at every tick and
//! the full outcome, energy and state hash at the end.

use anor_aqa::{JobSubmission, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_policy::BudgetPolicy;
use anor_sim::{SimConfig, TabularSim};
use anor_types::{QosConstraint, Seconds, Watts};
use proptest::prelude::*;

fn config(nodes: u32, policy: BudgetPolicy) -> SimConfig {
    // Scale job footprints with cluster size so mid-size clusters still
    // fit several jobs, like the figure experiments do.
    let scale = (nodes as f64 / 40.0).round().max(1.0) as u32;
    let catalog = anor_types::standard_catalog().scale_nodes(scale);
    let types = catalog.long_running();
    SimConfig {
        total_nodes: nodes,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(1.0),
        policy,
        qos: QosConstraint::default(),
        qos_risk_threshold: 0.8,
    }
}

#[allow(clippy::too_many_arguments)]
fn build_pair(
    nodes: u32,
    policy: BudgetPolicy,
    arrivals: &[(u32, usize)],
    sigma: f64,
    avg_w: f64,
    walk_seed: u64,
) -> (TabularSim, TabularSim) {
    let cfg = config(nodes, policy);
    let mut schedule: Vec<JobSubmission> = arrivals
        .iter()
        .map(|&(t, ti)| JobSubmission {
            time: Seconds(t as f64),
            type_id: cfg.types[ti % cfg.types.len()],
        })
        .collect();
    schedule.sort_by(|a, b| a.time.value().total_cmp(&b.time.value()));
    let target = PowerTarget {
        avg: Watts(avg_w),
        reserve: Watts(avg_w * 0.2),
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(4000.0), walk_seed),
    };
    let variation = PerformanceVariation::with_sigma(nodes as usize, sigma, walk_seed ^ 0x5eed);
    let event = TabularSim::new(
        cfg.clone(),
        target.clone(),
        &variation,
        schedule.clone(),
        None,
    );
    let mut oracle = TabularSim::new(cfg, target, &variation, schedule, None);
    oracle.set_tick_oracle(true);
    (event, oracle)
}

/// Lockstep comparison: both engines step together and every observable
/// must agree exactly, every tick.
fn assert_lockstep(event: &mut TabularSim, oracle: &mut TabularSim, steps: usize, label: &str) {
    for i in 0..steps {
        event.step();
        oracle.step();
        assert_eq!(
            event.measured_power().value().to_bits(),
            oracle.measured_power().value().to_bits(),
            "{label}: measured power diverged at tick {}",
            i + 1
        );
        assert_eq!(
            event.idle_nodes(),
            oracle.idle_nodes(),
            "{label}: idle count diverged at tick {}",
            i + 1
        );
    }
}

proptest! {
    /// Event engine vs tick oracle over random schedules and re-cap
    /// sequences: identical per-tick power, identical final tables
    /// (state hash), identical energy and outcome.
    #[test]
    fn event_engine_matches_tick_oracle(
        policy_index in 0usize..4,
        nodes in 8u32..=200,
        arrivals in proptest::collection::vec((0u32..300, 0usize..6), 1..24),
        sigma in 0.0f64..1.5,
        avg_per_node in 120.0f64..320.0,
        steps in 50usize..360,
        walk_seed in 0u64..1000,
    ) {
        let policy = BudgetPolicy::ALL[policy_index];
        let avg_w = avg_per_node * nodes as f64;
        let (mut event, mut oracle) =
            build_pair(nodes, policy, &arrivals, sigma, avg_w, walk_seed);
        assert_lockstep(&mut event, &mut oracle, steps, "lockstep");

        assert_eq!(event.state_hash(), oracle.state_hash(), "state hash diverged");
        assert_eq!(
            event.energy().value().to_bits(),
            oracle.energy().value().to_bits(),
            "energy diverged"
        );
        // The outcome carries QoS rows per type, tracking stats, and
        // completion counts; Debug formatting is exact for floats, so
        // string equality is full-strength.
        assert_eq!(
            format!("{:?}", event.outcome()),
            format!("{:?}", oracle.outcome()),
            "outcome diverged"
        );
    }

    /// A mid-run target swap (the dynamic power objective changing
    /// under the cluster) re-caps every running job at once; the event
    /// engine's outstanding completion checks must survive it exactly.
    #[test]
    fn target_swap_preserves_equivalence(
        policy_index in 0usize..4,
        nodes in 8u32..=200,
        arrivals in proptest::collection::vec((0u32..200, 0usize..6), 1..16),
        swap_at in 20usize..120,
        swap_scale in 0.5f64..1.5,
        steps_after in 30usize..200,
        walk_seed in 0u64..1000,
    ) {
        let policy = BudgetPolicy::ALL[policy_index];
        let avg_w = 200.0 * nodes as f64;
        let (mut event, mut oracle) =
            build_pair(nodes, policy, &arrivals, 0.1, avg_w, walk_seed);
        assert_lockstep(&mut event, &mut oracle, swap_at, "pre-swap");

        let swapped = PowerTarget {
            avg: Watts(avg_w * swap_scale),
            reserve: Watts(avg_w * swap_scale * 0.25),
            signal: RegulationSignal::random_walk(
                Seconds(4.0),
                0.35,
                Seconds(4000.0),
                walk_seed ^ 0x5a4b,
            ),
        };
        event.set_target(swapped.clone());
        oracle.set_target(swapped);
        assert_lockstep(&mut event, &mut oracle, steps_after, "post-swap");

        assert_eq!(event.state_hash(), oracle.state_hash(), "state hash diverged");
        assert_eq!(
            format!("{:?}", event.outcome()),
            format!("{:?}", oracle.outcome()),
            "outcome diverged"
        );
    }
}
