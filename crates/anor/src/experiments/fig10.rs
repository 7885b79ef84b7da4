//! Fig. 10: mean execution-time slowdown of 6 job types under a 1-hour
//! schedule with time-varying cluster power caps, across four capping
//! techniques: Uniform, Characterized (performance-aware), Misclassified
//! (BT announced as IS, no feedback) and Adjusted (same, with feedback).
//! Error bars are 95% confidence intervals; the paper reports the worst
//! type improving from 11.6% (uniform) to 8.0% (characterized), and the
//! misclassified-case power staying under 24% error at least 90% of the
//! time (all other cases under 17%).

use super::hw::HwRunOptions;
use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal, TrackingRecorder};
use anor_cluster::{
    recorder_meta, BudgetPolicy, BudgeterConfig, EmulatedCluster, EmulatorConfig, JobSetup,
};
use anor_exec::ExecPool;
use anor_telemetry::FlightRecorder;
use anor_types::stats::OnlineStats;
use anor_types::{Result, Seconds, Watts};

/// The four capping techniques of the figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig10Policy {
    /// Performance-agnostic uniform caps.
    Uniform,
    /// Performance-aware balancer with correct precharacterization.
    Characterized,
    /// BT misclassified as IS, no feedback.
    Misclassified,
    /// BT misclassified as IS, with job-tier feedback.
    Adjusted,
}

impl Fig10Policy {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Fig10Policy::Uniform => "Uniform",
            Fig10Policy::Characterized => "Characterized",
            Fig10Policy::Misclassified => "Misclassified",
            Fig10Policy::Adjusted => "Adjusted",
        }
    }

    /// All four, in the figure's legend order.
    pub fn all() -> [Fig10Policy; 4] {
        [
            Fig10Policy::Uniform,
            Fig10Policy::Characterized,
            Fig10Policy::Misclassified,
            Fig10Policy::Adjusted,
        ]
    }
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Schedule horizon (paper: 1 hour).
    pub horizon: Seconds,
    /// Target node utilization (paper: 95%).
    pub utilization: f64,
    /// Committed average power.
    pub avg: Watts,
    /// Committed reserve.
    pub reserve: Watts,
    /// Determinism seed.
    pub seed: u64,
    /// Tracking statistics exclude this initial fill-up window.
    pub warmup: Seconds,
    /// The sinks, worker count, chaos plan and recording directory the
    /// four policies' emulated runs share. The runs fan out over
    /// `options.jobs` workers and aggregate in legend order, so the
    /// output is identical for every value; a chaos plan is forked per
    /// policy, so the four runs see identical, independent fault
    /// schedules; with a recording directory, each policy's budgeter
    /// records into `<dir>/fig10-<policy>.rec` for `anor-replay`.
    pub options: HwRunOptions,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            horizon: Seconds(3600.0),
            utilization: 0.95,
            avg: Watts(3200.0),
            reserve: Watts(900.0),
            seed: 10,
            warmup: Seconds(180.0),
            options: HwRunOptions::default(),
        }
    }
}

/// One (policy, type) cell of the figure.
#[derive(Debug, Clone)]
pub struct Fig10Cell {
    /// Capping technique.
    pub policy: Fig10Policy,
    /// Job type name.
    pub type_name: String,
    /// Mean slowdown in percent over instances.
    pub mean_slowdown: f64,
    /// 95% CI half-width.
    pub ci95: f64,
    /// Number of job instances behind the mean.
    pub instances: u64,
}

/// The full figure's data.
#[derive(Debug, Clone)]
pub struct Fig10Output {
    /// All cells.
    pub cells: Vec<Fig10Cell>,
    /// Per-policy 90th-percentile tracking error.
    pub tracking_p90: Vec<(Fig10Policy, f64)>,
}

impl Fig10Output {
    /// The cell for a policy and type prefix.
    pub fn cell(&self, policy: Fig10Policy, prefix: &str) -> Option<&Fig10Cell> {
        self.cells
            .iter()
            .find(|c| c.policy == policy && c.type_name.starts_with(prefix))
    }

    /// The worst mean slowdown across types for a policy.
    pub fn worst(&self, policy: Fig10Policy) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.policy == policy)
            .map(|c| c.mean_slowdown)
            .fold(0.0, f64::max)
    }
}

/// Run one policy over the shared schedule; internal helper.
fn run_policy(
    policy: Fig10Policy,
    cfg: &Fig10Config,
    jobs: &[JobSetup],
    type_names: &[String],
) -> Result<(Vec<Fig10Cell>, f64)> {
    let (budget_policy, feedback, misclassify) = match policy {
        Fig10Policy::Uniform => (BudgetPolicy::Uniform, false, false),
        Fig10Policy::Characterized => (BudgetPolicy::EvenSlowdown, false, false),
        Fig10Policy::Misclassified => (BudgetPolicy::EvenSlowdown, false, true),
        Fig10Policy::Adjusted => (BudgetPolicy::EvenSlowdown, true, true),
    };
    let opts = &cfg.options;
    let mut ecfg = EmulatorConfig::paper(budget_policy, feedback)
        .with_telemetry(opts.telemetry.clone())
        .with_tracer(opts.tracer.clone());
    if let Some(plan) = &opts.faults {
        // Legend position as the fork salt: stable per policy, so the
        // four runs draw identical but independent schedules.
        let salt = Fig10Policy::all().iter().position(|p| *p == policy);
        ecfg = ecfg.with_faults(plan.fork(salt.unwrap_or(0) as u64 + 1));
    }
    ecfg.seed = cfg.seed;
    if let Some(dir) = &opts.record_dir {
        let bcfg = BudgeterConfig::new(budget_policy, feedback);
        let meta = recorder_meta(&bcfg, &ecfg.lease, cfg.seed);
        let path = dir.join(format!("fig10-{}.rec", policy.label().to_lowercase()));
        ecfg = ecfg.with_recorder(FlightRecorder::create(path, meta)?);
    }
    let recorder = ecfg.recorder.clone();
    let jobs: Vec<JobSetup> = jobs
        .iter()
        .map(|j| {
            let mut j = j.clone();
            if misclassify && j.true_type.starts_with("bt") {
                j.announced = "is.D.32".to_string();
            }
            j
        })
        .collect();
    let target = PowerTarget {
        avg: cfg.avg,
        reserve: cfg.reserve,
        signal: RegulationSignal::random_walk(
            Seconds(4.0),
            0.35,
            cfg.horizon + Seconds(3600.0),
            cfg.seed ^ 0x515,
        ),
    };
    let cluster = EmulatedCluster::new(ecfg);
    let report = cluster.run_demand_response(&jobs, target, true)?;
    recorder.flush()?;
    // Per-type stats.
    let mut cells = Vec::new();
    for name in type_names {
        let mut stats = OnlineStats::new();
        for j in report.jobs.iter().filter(|j| &j.true_type == name) {
            stats.push((j.slowdown - 1.0) * 100.0);
        }
        cells.push(Fig10Cell {
            policy,
            type_name: name.clone(),
            mean_slowdown: stats.mean(),
            ci95: stats.ci95_half_width(),
            instances: stats.count(),
        });
    }
    // Tracking error within the horizon.
    let mut rec = TrackingRecorder::new(cfg.reserve);
    for &(t, target, measured) in &report.power_trace {
        if t.value() >= cfg.warmup.value() && t.value() <= cfg.horizon.value() {
            rec.push(target, measured);
        }
    }
    Ok((cells, rec.percentile_error(90.0)))
}

/// Run all four policies over one shared schedule.
pub fn run(cfg: &Fig10Config) -> Result<Fig10Output> {
    let ecfg = EmulatorConfig::paper(BudgetPolicy::Uniform, false);
    let catalog = ecfg.catalog.clone();
    let types = catalog.long_running();
    let type_names: Vec<String> = types.iter().map(|&id| catalog[id].name.clone()).collect();
    let submissions = poisson_schedule(
        &catalog,
        &types,
        cfg.utilization,
        ecfg.nodes,
        cfg.horizon,
        cfg.seed,
    );
    let jobs: Vec<JobSetup> = submissions
        .iter()
        .map(|s| JobSetup::known(&catalog[s.type_id].name).at(s.time))
        .collect();
    // The four policies replay the same schedule independently; fan them
    // out and aggregate in legend order.
    let policies = Fig10Policy::all();
    let results = ExecPool::new(cfg.options.jobs)
        .with_telemetry(&cfg.options.telemetry)
        .map(&policies, |&policy| {
            run_policy(policy, cfg, &jobs, &type_names)
        });
    let mut cells = Vec::new();
    let mut tracking = Vec::new();
    for (policy, result) in policies.into_iter().zip(results) {
        let (mut c, p90) = result?;
        cells.append(&mut c);
        tracking.push((policy, p90));
    }
    Ok(Fig10Output {
        cells,
        tracking_p90: tracking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_schedule_reproduces_policy_ordering() {
        let cfg = Fig10Config {
            horizon: Seconds(900.0),
            utilization: 0.85,
            seed: 3,
            ..Fig10Config::default()
        };
        let out = run(&cfg).unwrap();
        // 4 policies × 6 types.
        assert_eq!(out.cells.len(), 24);
        assert!(out.cells.iter().any(|c| c.instances > 0));
        // Characterized improves the worst type vs Uniform (the paper's
        // 11.6% → 8.0% claim, shape only).
        let worst_uniform = out.worst(Fig10Policy::Uniform);
        let worst_char = out.worst(Fig10Policy::Characterized);
        assert!(
            worst_char <= worst_uniform + 1.0,
            "characterized worst {worst_char}% vs uniform {worst_uniform}%"
        );
        // Misclassification slows BT; adjustment recovers some of it.
        let bt = |p: Fig10Policy| out.cell(p, "bt").unwrap().mean_slowdown;
        assert!(
            bt(Fig10Policy::Misclassified) >= bt(Fig10Policy::Characterized) - 1.0,
            "misclassified {} vs characterized {}",
            bt(Fig10Policy::Misclassified),
            bt(Fig10Policy::Characterized)
        );
        assert!(
            bt(Fig10Policy::Adjusted) <= bt(Fig10Policy::Misclassified) + 1.0,
            "adjusted {} vs misclassified {}",
            bt(Fig10Policy::Adjusted),
            bt(Fig10Policy::Misclassified)
        );
        // Tracking recorded for every policy.
        assert_eq!(out.tracking_p90.len(), 4);
    }
}
