//! Integration tests over the tabular simulator: conservation and
//! lifecycle invariants that must hold for any schedule, policy and
//! variation level.

use anor::aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor::platform::PerformanceVariation;
use anor::policy::BudgetPolicy;
use anor::sim::{SimConfig, TabularSim};
use anor::types::{standard_catalog, QosConstraint, Seconds, Watts};

fn config(nodes: u32, policy: BudgetPolicy) -> SimConfig {
    let catalog = standard_catalog();
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

fn target(nodes: u32) -> PowerTarget {
    PowerTarget {
        avg: Watts(nodes as f64 * 215.0),
        reserve: Watts(nodes as f64 * 25.0),
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(20_000.0), 5),
    }
}

fn run_sim(nodes: u32, policy: BudgetPolicy, sigma: f64, seed: u64) -> TabularSim {
    let cfg = config(nodes, policy);
    let schedule = poisson_schedule(&cfg.catalog, &cfg.types, 0.75, nodes, Seconds(1500.0), seed);
    let variation = PerformanceVariation::with_sigma(nodes as usize, sigma, seed ^ 0xabc);
    let mut sim = TabularSim::new(cfg, target(nodes), &variation, schedule, None);
    sim.record_history(true);
    sim.run(Seconds(1500.0), Seconds(4000.0));
    sim
}

#[test]
fn every_policy_preserves_job_and_node_accounting() {
    for policy in BudgetPolicy::ALL {
        let sim = run_sim(24, policy, 0.1, 7);
        // Every node is either idle or assigned to exactly one running job.
        let mut node_refs = vec![0u32; sim.nodes().len()];
        for row in sim.jobs().iter().filter(|j| j.is_running()) {
            for n in &row.nodes {
                node_refs[n.index()] += 1;
            }
        }
        for (i, count) in node_refs.iter().enumerate() {
            assert!(*count <= 1, "{policy:?}: node {i} assigned {count} times");
            let node_job = sim.nodes()[i].job;
            if *count == 0 {
                assert!(
                    node_job.is_none() || sim.jobs()[node_job.unwrap().0 as usize].is_done(),
                    "{policy:?}: node {i} references a non-running job"
                );
            }
        }
        // Job lifecycle timestamps are ordered.
        for job in sim.jobs() {
            if let Some(start) = job.start {
                assert!(
                    start.value() >= job.submit.value(),
                    "{policy:?}: start < submit"
                );
                if let Some(end) = job.end {
                    assert!(end.value() > start.value(), "{policy:?}: end <= start");
                }
            }
        }
    }
}

#[test]
fn power_never_below_idle_floor_or_above_tdp_ceiling() {
    let sim = run_sim(24, BudgetPolicy::Uniform, 0.1, 3);
    let n = sim.nodes().len() as f64;
    for row in sim.history() {
        assert!(
            row.measured.value() >= 90.0 * n - 1e-6,
            "measured below idle floor at t={}",
            row.time
        );
        assert!(
            row.measured.value() <= 280.0 * n + 1e-6,
            "measured above TDP ceiling at t={}",
            row.time
        );
    }
}

#[test]
fn history_counters_are_consistent() {
    let sim = run_sim(24, BudgetPolicy::EvenSlowdown, 0.0, 11);
    let mut prev_completed = 0;
    for row in sim.history() {
        // Completed never decreases.
        assert!(row.completed_jobs >= prev_completed);
        prev_completed = row.completed_jobs;
        // Busy nodes can't exceed the cluster.
        assert!(row.busy_nodes <= 24);
    }
    // Final state: all jobs accounted for.
    let last = sim.history().back().unwrap();
    assert_eq!(
        last.completed_jobs as usize + last.pending_jobs as usize + last.running_jobs as usize,
        sim.jobs().len()
    );
}

#[test]
fn drain_completes_all_jobs_without_variation() {
    let sim = run_sim(24, BudgetPolicy::Uniform, 0.0, 13);
    let out = sim.outcome();
    assert_eq!(
        out.unfinished, 0,
        "all jobs must finish within the drain window"
    );
    assert!(out.completed > 0);
}

#[test]
fn qos_aware_policy_is_no_worse_for_at_risk_jobs() {
    // Compare the plain and QoS-aware even-slowdown policies on an
    // identical scenario; the QoS-aware one must not raise the overall
    // 90th-percentile degradation by much (it shifts power toward
    // stragglers).
    let q90 = |policy| {
        let sim = run_sim(24, policy, 0.2, 17);
        let out = sim.outcome();
        let all: Vec<_> = out
            .qos_by_type
            .iter()
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        QosConstraint::default()
            .percentile_degradation(&all)
            .unwrap_or(0.0)
    };
    let plain = q90(BudgetPolicy::EvenSlowdown);
    let aware = q90(BudgetPolicy::EvenSlowdownQosAware);
    assert!(
        aware <= plain * 1.5 + 0.5,
        "qos-aware {aware} much worse than plain {plain}"
    );
}

/// A loaded cluster tracking a wandering target: the inputs of a pinned
/// re-cap trajectory. The regulation signal runs for twice the arrival
/// window, and the catalog is scaled like the figure experiments'.
struct RecapScenario {
    nodes: u32,
    utilization: f64,
    /// Arrival window and number of one-second steps taken.
    ticks: u32,
    avg: Watts,
    reserve: Watts,
    sigma: f64,
    schedule_seed: u64,
    walk_seed: u64,
    variation_seed: u64,
}

impl RecapScenario {
    fn run(&self, policy: BudgetPolicy) -> TabularSim {
        let catalog = standard_catalog().scale_nodes(self.nodes / 40);
        let types = catalog.long_running();
        let cfg = SimConfig {
            total_nodes: self.nodes,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy,
            qos: QosConstraint::default(),
            qos_risk_threshold: 0.8,
        };
        let horizon = Seconds(self.ticks as f64);
        let schedule = poisson_schedule(
            &cfg.catalog,
            &cfg.types,
            self.utilization,
            self.nodes,
            horizon,
            self.schedule_seed,
        );
        let target = PowerTarget {
            avg: self.avg,
            reserve: self.reserve,
            signal: RegulationSignal::random_walk(
                Seconds(4.0),
                0.35,
                horizon * 2.0,
                self.walk_seed,
            ),
        };
        let variation =
            PerformanceVariation::with_sigma(self.nodes as usize, self.sigma, self.variation_seed);
        let mut sim = TabularSim::new(cfg, target, &variation, schedule, None);
        for _ in 0..self.ticks {
            sim.step();
        }
        sim
    }
}

/// Asserts a run's state hash, energy bits and tracking-p90 bits.
fn assert_pinned(sim: &TabularSim, hash: u64, energy_bits: u64, p90_bits: u64) {
    assert_eq!(sim.state_hash(), hash, "state hash");
    assert_eq!(sim.energy().value().to_bits(), energy_bits, "energy bits");
    assert_eq!(
        sim.tracking().percentile_error(90.0).to_bits(),
        p90_bits,
        "tracking p90 bits"
    );
}

/// Pins the capping stage's float trajectory on a cluster large enough
/// that every re-cap touches thousands of nodes: 8192 nodes under
/// even-slowdown with a wandering target. Any change to the order of the
/// re-cap's float operations moves at least one of these bit patterns.
#[test]
fn recap_trajectory_is_pinned_on_an_8192_node_cluster() {
    let scenario = RecapScenario {
        nodes: 8192,
        utilization: 0.7,
        ticks: 400,
        avg: Watts(8192.0 * 200.0),
        reserve: Watts(8192.0 * 50.0),
        sigma: 0.05,
        schedule_seed: 11,
        walk_seed: 3,
        variation_seed: 13,
    };
    let sim = scenario.run(BudgetPolicy::EvenSlowdown);
    let busy = 8192 - sim.idle_nodes();
    assert!(
        busy >= 4096,
        "only {busy} busy nodes: the fixture must load the cluster"
    );
    assert_pinned(
        &sim,
        0x77a5_c9d7_486c_d998,
        0x41be_6ce6_5293_56c3,
        0x3ffb_3e5b_5963_5814,
    );
}

/// Pins a QoS-aware trajectory in which at-risk flags fire: a saturated
/// 2048-node cluster on a budget tight enough that queued and slowed
/// jobs approach the risk threshold. The at-risk projection reads every
/// running job's per-node progress each tick, so this pins that read.
#[test]
fn qos_aware_trajectory_is_pinned_where_jobs_reach_risk() {
    let scenario = RecapScenario {
        nodes: 2048,
        utilization: 1.0,
        ticks: 4000,
        avg: Watts(330_000.0),
        reserve: Watts(39_600.0),
        sigma: 0.1,
        schedule_seed: 5,
        walk_seed: 5 ^ 0x51,
        variation_seed: 5 ^ 0xfe,
    };
    let plain = scenario.run(BudgetPolicy::EvenSlowdown);
    let aware = scenario.run(BudgetPolicy::EvenSlowdownQosAware);
    assert_ne!(
        aware.state_hash(),
        plain.state_hash(),
        "no job reached risk: the fixture must exercise the exemption"
    );
    assert_pinned(
        &aware,
        0x43e8_7df0_3eaf_6326,
        0x41d5_2d58_b495_df9f,
        0x4001_feae_a351_582e,
    );
}

#[test]
fn tracking_error_definition_matches_recorder() {
    let sim = run_sim(24, BudgetPolicy::Uniform, 0.05, 19);
    // Recompute the mean error from history and compare against the
    // recorder-backed outcome path.
    let reserve = 24.0 * 25.0;
    let errors: Vec<f64> = sim
        .history()
        .iter()
        .map(|r| (r.measured.value() - r.target.value()).abs() / reserve)
        .collect();
    let mut sorted = errors.clone();
    sorted.sort_by(f64::total_cmp);
    let p90_manual = anor::types::stats::percentile_sorted(&sorted, 90.0);
    let p90_recorder = sim.tracking().percentile_error(90.0);
    assert!(
        (p90_manual - p90_recorder).abs() < 1e-9,
        "manual {p90_manual} vs recorder {p90_recorder}"
    );
}
