//! Shared machinery for the emulated-hardware experiments (Figs. 6–8).
//!
//! Each figure co-schedules two jobs under a shared static budget of 75%
//! of TDP across 4 nodes (840 W) and measures slowdown vs the job type's
//! uncapped execution time, across budgeter configurations and repeated
//! trials.

use anor_cluster::{
    recorder_meta, BudgetPolicy, BudgeterConfig, EmulatedCluster, EmulatorConfig, FaultPlan,
    JobSetup,
};
use anor_exec::ExecPool;
use anor_telemetry::{FlightRecorder, Telemetry, Tracer};
use anor_types::stats::{mean, std_dev};
use anor_types::{Result, Watts};
use std::path::PathBuf;

/// The shared budget: 75% of the 4-node TDP (0.75 × 4 × 280 W).
pub const SHARED_BUDGET: Watts = Watts(840.0);

/// One configuration row of a Fig. 6–8 chart.
#[derive(Debug, Clone)]
pub struct HwConfig {
    /// Row label as it appears in the figure.
    pub label: String,
    /// Budget distribution policy.
    pub policy: BudgetPolicy,
    /// Whether model feedback flows back into the budgeter.
    pub feedback: bool,
    /// The two jobs (true type, announced type).
    pub jobs: [JobSetup; 2],
}

impl HwConfig {
    /// Convenience constructor.
    pub fn new(label: &str, policy: BudgetPolicy, feedback: bool, jobs: [JobSetup; 2]) -> Self {
        HwConfig {
            label: label.to_string(),
            policy,
            feedback,
            jobs,
        }
    }
}

/// One measured bar: per-job mean slowdown (as a percentage above
/// uncapped) with standard deviation over trials.
#[derive(Debug, Clone)]
pub struct HwBar {
    /// Configuration label.
    pub label: String,
    /// `(job display name, mean slowdown %, σ %)` per job.
    pub jobs: Vec<(String, f64, f64)>,
}

/// Optional knobs shared by every emulated-hardware figure: the
/// Figs. 6–8 grid ([`run_configs`]) and Fig. 10's four policies
/// ([`Fig10Config::options`](super::fig10::Fig10Config::options)).
/// Callers set what they need and take the rest from
/// `..HwRunOptions::default()`.
#[derive(Debug, Clone, Default)]
pub struct HwRunOptions {
    /// Telemetry sink shared by every trial (`--telemetry <dir>`).
    pub telemetry: Telemetry,
    /// Causal tracer shared by every trial (off by default;
    /// `--trace <dir>`).
    pub tracer: Tracer,
    /// Worker threads for the trial fan-out (0 = `ANOR_JOBS` /
    /// available parallelism). Output is identical for every value.
    pub jobs: usize,
    /// Optional chaos plan, forked per (configuration, trial) cell.
    pub faults: Option<FaultPlan>,
    /// Optional flight-recording directory (`--record <dir>`).
    pub record_dir: Option<PathBuf>,
}

/// Filesystem-safe slug of a configuration label (for per-cell recording
/// file names).
fn label_slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Run a set of configurations for `trials` repetitions each, with every
/// optional knob in `opts`.
///
/// Every (configuration, trial) cell is an independent emulated-cluster
/// run — each owns its own in-process listener and seeds from the trial
/// index alone — so the grid fans out over [`ExecPool`]. Results
/// return in submission order and the per-configuration aggregation
/// below runs serially over them, so the bars are identical for every
/// worker count.
///
/// A chaos plan is forked per cell with a cell-unique salt, so the fault
/// schedule is identical across re-runs and independent of the worker
/// count. With a recording directory, every cell records its budgeter
/// into `<dir>/<label>-c<ci>-t<trial>.rec`, replayable with
/// `anor-replay --verify` — chaos runs included, because each cell's
/// fault fork is deterministic.
pub fn run_configs(
    configs: &[HwConfig],
    trials: usize,
    seed: u64,
    opts: &HwRunOptions,
) -> Result<Vec<HwBar>> {
    let telemetry = &opts.telemetry;
    let grid: Vec<(usize, usize)> = (0..configs.len())
        .flat_map(|ci| (0..trials).map(move |trial| (ci, trial)))
        .collect();
    let pool = ExecPool::new(opts.jobs).with_telemetry(telemetry);
    let trial_results = pool.map(&grid, |&(ci, trial)| -> Result<Vec<f64>> {
        let cfg = &configs[ci];
        let mut ecfg = EmulatorConfig::paper(cfg.policy, cfg.feedback)
            .with_telemetry(telemetry.clone())
            .with_tracer(opts.tracer.clone());
        if let Some(plan) = &opts.faults {
            ecfg = ecfg.with_faults(plan.fork(((ci as u64) << 32) ^ (trial as u64 + 1)));
        }
        ecfg.seed = seed ^ ((trial as u64 + 1) << 16);
        if let Some(dir) = &opts.record_dir {
            let bcfg = BudgeterConfig::new(cfg.policy, cfg.feedback);
            let meta = recorder_meta(&bcfg, &ecfg.lease, ecfg.seed);
            let path = dir.join(format!(
                "{}-c{ci}-t{}.rec",
                label_slug(&cfg.label),
                trial + 1
            ));
            ecfg = ecfg.with_recorder(FlightRecorder::create(path, meta)?);
        }
        let recorder = ecfg.recorder.clone();
        let cluster = EmulatedCluster::new(ecfg);
        let report = cluster.run_static(&cfg.jobs, SHARED_BUDGET)?;
        recorder.flush()?;
        Ok(report
            .jobs
            .iter()
            .map(|job| (job.slowdown - 1.0) * 100.0)
            .collect())
    });
    // Per-config, per-job slowdown samples across trials, in trial order.
    let mut samples: Vec<Vec<Vec<f64>>> = configs
        .iter()
        .map(|cfg| vec![Vec::new(); cfg.jobs.len()])
        .collect();
    for (&(ci, _), result) in grid.iter().zip(trial_results) {
        for (i, x) in result?.into_iter().enumerate() {
            samples[ci][i].push(x);
        }
    }
    let mut bars = Vec::with_capacity(configs.len());
    for (cfg, samples) in configs.iter().zip(&samples) {
        let jobs = cfg
            .jobs
            .iter()
            .zip(samples)
            .map(|(setup, xs)| {
                let display = if setup.true_type == setup.announced {
                    setup.true_type.clone()
                } else {
                    format!("{}={}", setup.true_type, setup.announced)
                };
                (display, mean(xs), std_dev(xs))
            })
            .collect();
        bars.push(HwBar {
            label: cfg.label.clone(),
            jobs,
        });
    }
    Ok(bars)
}

/// Look up a bar by configuration label.
pub fn bar<'a>(bars: &'a [HwBar], label: &str) -> &'a HwBar {
    bars.iter()
        .find(|b| b.label == label)
        .unwrap_or_else(|| panic!("no bar labelled {label}"))
}

/// A job's mean slowdown within a bar, by true-type prefix.
pub fn job_slowdown(bar: &HwBar, prefix: &str) -> f64 {
    bar.jobs
        .iter()
        .find(|(name, _, _)| name.starts_with(prefix))
        .map(|(_, y, _)| *y)
        .unwrap_or_else(|| panic!("no job starting with {prefix} in {}", bar.label))
}
