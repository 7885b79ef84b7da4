//! Integration test for the Section 8 facility tier: two simulated
//! clusters share one facility power envelope; the facility budgeter's
//! allocation becomes each cluster's power target, and freed headroom
//! from the draining old cluster flows to the new one.

use anor::aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor::platform::PerformanceVariation;
use anor::policy::{BudgetPolicy, ClusterView, FacilityBudgeter};
use anor::sim::{SimConfig, TabularSim};
use anor::types::{standard_catalog, Seconds, Watts};

fn make_cluster(nodes: u32, utilization: f64, horizon: f64, seed: u64) -> TabularSim {
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
    // The facility drives per-cluster targets; give each sim a wide flat
    // self-target that the facility allocation will override via caps.
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

#[test]
fn facility_shares_one_envelope_between_two_clusters() {
    // "Old" cluster drains (short schedule); "new" cluster stays loaded.
    let mut old = make_cluster(16, 0.6, 300.0, 3);
    let mut new = make_cluster(16, 0.9, 1800.0, 5);
    let facility = FacilityBudgeter;
    // The shared envelope cannot power both clusters at peak
    // (2 × 16 × 280 = 8960 W); grant 6400 W.
    let envelope = Watts(6400.0);
    let mut old_allocs = Vec::new();
    let mut new_allocs = Vec::new();
    for _ in 0..1800 {
        let views = [
            ClusterView {
                name: "old".into(),
                floor: Watts(16.0 * 90.0),
                capacity: Watts(16.0 * 280.0),
                demand: old.measured_power() + Watts(300.0),
                weight: 1.0,
            },
            ClusterView {
                name: "new".into(),
                floor: Watts(16.0 * 90.0),
                capacity: Watts(16.0 * 280.0),
                demand: new.measured_power() + Watts(300.0),
                weight: 2.0, // the bring-up cluster gets priority
            },
        ];
        let alloc = facility.allocate(envelope, &views);
        // The allocation never exceeds the envelope.
        let total: f64 = alloc.iter().map(|w| w.value()).sum();
        assert!(total <= envelope.value() + 1e-6, "over-allocated: {total}");
        old_allocs.push(alloc[0].value());
        new_allocs.push(alloc[1].value());
        old.step();
        new.step();
    }
    // Early on, both clusters hold allocations above their floors.
    let early_old: f64 = old_allocs[60..120].iter().sum::<f64>() / 60.0;
    assert!(
        early_old > 16.0 * 90.0 + 50.0,
        "old early alloc {early_old}"
    );
    // After the old cluster drains, its demand collapses to ~idle and the
    // freed headroom flows to the new cluster.
    let late_old: f64 = old_allocs[1500..].iter().sum::<f64>() / 300.0;
    let late_new: f64 = new_allocs[1500..].iter().sum::<f64>() / 300.0;
    assert!(
        late_old < early_old,
        "old cluster should release power: {late_old} vs {early_old}"
    );
    let early_new: f64 = new_allocs[60..120].iter().sum::<f64>() / 60.0;
    assert!(
        late_new >= early_new - 1.0,
        "new cluster must not lose power as old drains: {late_new} vs {early_new}"
    );
    // The busy new cluster ran meaningful work throughout.
    assert!(new.outcome().completed > 0);
}
