//! Fig. 11: 90th-percentile QoS degradation under different levels of
//! per-node performance variation, on a simulated 1000-node cluster
//! (Section 6.4): coefficients ~ N(1, σ) drawn per node per trial, 10
//! trials per level, 6 job types at 75% utilization, jobs scaled to 25×
//! the node counts of the 16-node experiments, QoS target Q = 5.

use crate::render::Series;
use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor_exec::ExecPool;
use anor_platform::PerformanceVariation;
use anor_policy::BudgetPolicy;
use anor_sim::{SimConfig, TabularSim};
use anor_types::stats::OnlineStats;
use anor_types::{QosDegradation, Result, Seconds, Watts};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Fig11Config {
    /// Cluster size (paper: 1000).
    pub nodes: u32,
    /// Trials per variation level (paper: 10).
    pub trials: usize,
    /// Variation levels as "99% of performance within ±X%".
    pub levels: Vec<f64>,
    /// Target utilization (paper: 75%).
    pub utilization: f64,
    /// Arrival horizon per trial.
    pub horizon: Seconds,
    /// Power-capping policy.
    pub policy: BudgetPolicy,
    /// Determinism seed.
    pub seed: u64,
    /// Worker threads for the level × trial fan-out (0 = resolve from
    /// `ANOR_JOBS` / available parallelism). Output is identical for
    /// every value: trial seeds are independent of execution order and
    /// aggregation runs serially over submission-ordered results.
    pub jobs: usize,
}

impl Default for Fig11Config {
    fn default() -> Self {
        Fig11Config {
            nodes: 1000,
            trials: 10,
            levels: vec![0.0, 7.5, 15.0, 22.5, 30.0],
            utilization: 0.75,
            horizon: Seconds(7200.0),
            policy: BudgetPolicy::Uniform,
            seed: 11,
            jobs: 0,
        }
    }
}

impl Fig11Config {
    /// A scaled-down configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Fig11Config {
            nodes: 120,
            trials: 2,
            levels: vec![0.0, 30.0],
            horizon: Seconds(1800.0),
            ..Fig11Config::default()
        }
    }
}

/// The figure's data plus the tracking sanity check the paper reports
/// ("under each level of performance variation, our method's power
/// tracking error is within our constraint").
#[derive(Debug, Clone)]
pub struct Fig11Output {
    /// One series per job type: x = level (%), y = mean over trials of
    /// the 90th-percentile QoS degradation, err = 90% CI half-width.
    pub series: Vec<Series>,
    /// Per-level fraction of trials meeting the 30%/90% tracking
    /// constraint.
    pub tracking_ok_fraction: Vec<(f64, f64)>,
}

/// Run the sweep.
pub fn run(cfg: &Fig11Config) -> Result<Fig11Output> {
    // Scale node footprints proportionally to cluster size (paper: 25×
    // for 1000 nodes). Integer scale, at least 1.
    let scale = (cfg.nodes as f64 / 40.0).round().max(1.0) as u32;
    let scfg_proto = {
        let catalog = anor_types::standard_catalog().scale_nodes(scale);
        let types = catalog.long_running();
        SimConfig {
            total_nodes: cfg.nodes,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: cfg.policy,
            qos: anor_types::QosConstraint::default(),
            qos_risk_threshold: 0.8,
        }
    };
    // Demand-response bid sized to expected draw.
    let mean_draw: f64 = scfg_proto
        .types
        .iter()
        .map(|&id| scfg_proto.catalog[id].max_draw.value())
        .sum::<f64>()
        / scfg_proto.types.len() as f64;
    // Bid like AQA does: search (P̄, R) by simulating the expected
    // scenario (Section 4.4.2), falling back to a deflated physical
    // estimate if no candidate satisfies the constraints. The budgeter
    // tracks by capping *down*, so the average must sit below the
    // cluster's free-running power.
    let fallback_avg =
        Watts(cfg.nodes as f64 * (cfg.utilization * mean_draw + (1.0 - cfg.utilization) * 90.0))
            * 0.85;
    let mut bid_cfg =
        crate::bidding::BiddingConfig::new(scfg_proto.clone(), cfg.utilization, cfg.seed ^ 0xb1dd);
    bid_cfg.horizon = (cfg.horizon * 0.5).max(Seconds(1800.0));
    bid_cfg.grid_steps = 4;
    bid_cfg.jobs = cfg.jobs;
    let bid = crate::bidding::choose_hourly_bid(&bid_cfg)?;
    let (avg, reserve) = match bid {
        Some(b) => (b.avg_power, b.reserve),
        None => (fallback_avg, fallback_avg * 0.12),
    };
    let type_names: Vec<String> = scfg_proto
        .types
        .iter()
        .map(|&id| scfg_proto.catalog[id].name.clone())
        .collect();
    let mut per_type_stats: Vec<Vec<OnlineStats>> =
        vec![vec![OnlineStats::new(); cfg.levels.len()]; type_names.len()];
    let mut tracking_ok = vec![0usize; cfg.levels.len()];
    // Fan the (level, trial) grid out over the pool. Each trial's seed is
    // a pure function of its grid position, and the pool returns results
    // in submission order, so the serial aggregation below sees exactly
    // the sequence the old nested loop produced.
    let grid: Vec<(usize, usize)> = (0..cfg.levels.len())
        .flat_map(|li| (0..cfg.trials).map(move |trial| (li, trial)))
        .collect();
    let trial_outcomes = ExecPool::new(cfg.jobs).map(&grid, |&(li, trial)| {
        let level = cfg.levels[li];
        let seed = cfg.seed ^ ((li as u64) << 16) ^ ((trial as u64) << 32);
        let variation = PerformanceVariation::with_level_percent(cfg.nodes as usize, level, seed);
        let schedule = poisson_schedule(
            &scfg_proto.catalog,
            &scfg_proto.types,
            cfg.utilization,
            cfg.nodes,
            cfg.horizon,
            seed ^ 0xa11,
        );
        let target = PowerTarget {
            avg,
            reserve,
            signal: RegulationSignal::random_walk(
                Seconds(4.0),
                0.35,
                cfg.horizon + Seconds(7200.0),
                seed ^ 0x9e9,
            ),
        };
        let mut sim = TabularSim::new(scfg_proto.clone(), target, &variation, schedule, None);
        // Tracking judged over the warm window only; the drain tail
        // (arrivals stopped) is excluded by freeze.
        sim.run_with_warmup(cfg.horizon * 0.1, cfg.horizon, cfg.horizon * 2.0);
        sim.outcome()
    });
    for (&(li, _), out) in grid.iter().zip(&trial_outcomes) {
        if out.tracking_within_30 >= 0.90 {
            tracking_ok[li] += 1;
        }
        for (ti, name) in type_names.iter().enumerate() {
            let qs: Vec<QosDegradation> = out
                .qos_by_type
                .iter()
                .filter(|(id, _)| &scfg_proto.catalog[*id].name == name)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            if let Some(p90) = scfg_proto.qos.percentile_degradation(&qs) {
                per_type_stats[ti][li].push(p90);
            }
        }
    }
    let series = type_names
        .iter()
        .enumerate()
        .map(|(ti, name)| {
            let mut s = Series::new(name.split('.').next().unwrap_or(name).to_string());
            for (li, &level) in cfg.levels.iter().enumerate() {
                let st = &per_type_stats[ti][li];
                // 90% CI half-width (z = 1.645), matching the figure's
                // shaded region.
                let ci = if st.count() >= 2 {
                    1.645 * st.std_dev() / (st.count() as f64).sqrt()
                } else {
                    0.0
                };
                s.push(level, st.mean(), ci);
            }
            s
        })
        .collect();
    let tracking_ok_fraction = cfg
        .levels
        .iter()
        .zip(tracking_ok)
        .map(|(&l, ok)| (l, ok as f64 / cfg.trials as f64))
        .collect();
    Ok(Fig11Output {
        series,
        tracking_ok_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_increases_qos_degradation() {
        let out = run(&Fig11Config::quick()).unwrap();
        assert_eq!(out.series.len(), 6);
        // Across types on average, the ±30% level must degrade QoS more
        // than the 0% level.
        let mean_at = |x: f64| {
            let ys: Vec<f64> = out.series.iter().filter_map(|s| s.y_at(x)).collect();
            ys.iter().sum::<f64>() / ys.len() as f64
        };
        let q0 = mean_at(0.0);
        let q30 = mean_at(30.0);
        assert!(q30 > q0, "±30% variation must degrade QoS: {q30} vs {q0}");
        assert_eq!(out.tracking_ok_fraction.len(), 2);
    }
}
