//! The emulated 16-node cluster harness.
//!
//! Substitutes for the paper's real 16-node Xeon cluster (DESIGN.md):
//! simulated nodes run synthetic NPB-shaped workloads under a GEOPM
//! runtime per job, one job-tier endpoint per job talks to the cluster
//! budgeter daemon, and everything is pumped under a single virtual clock
//! so an hour-long schedule replays in seconds while exercising the same
//! code paths end to end.
//!
//! The endpoints reach the budgeter over in-process links: both tiers
//! run on one thread, so loopback TCP would model no latency and no loss
//! while costing a syscall per read. The frames still go encode → bytes
//! → framing → decode, with fault injection, transport counters and the
//! flight recorder above the link; `anord` and `anor-job` run the same
//! code over real TCP.

use crate::budgeter::{BudgeterConfig, ClusterBudgeter, LeaseConfig};
use crate::endpoint::JobEndpoint;
use crate::session::{FaultPlan, RetryPolicy};
use crate::transport::{Addr, Listener};
use anor_aqa::{PowerTarget, TrackingRecorder};
use anor_geopm::{JobReport, JobRuntime};
use anor_model::{DriftDetector, ModelerConfig, PowerModeler};
use anor_platform::{Node, PerformanceVariation, Phase};
use anor_telemetry::{FlightRecorder, Telemetry, Timer, Tracer};
use anor_types::{AnorError, Catalog, JobId, NodeId, Result, Seconds, Watts};

pub use crate::budgeter::BudgetPolicy;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct EmulatorConfig {
    /// Cluster size (paper: 16).
    pub nodes: u32,
    /// Budget distribution policy.
    pub policy: BudgetPolicy,
    /// Fold job-tier model feedback into the budgeter's views?
    pub feedback: bool,
    /// Virtual tick.
    pub tick: Seconds,
    /// Idle CPU power per node.
    pub idle_power: Watts,
    /// Job-type catalog.
    pub catalog: Catalog,
    /// Determinism seed.
    pub seed: u64,
    /// Enable the modeler's exploratory cap dither (only useful together
    /// with `feedback`).
    pub dither: bool,
    /// Per-node performance-variation σ (0 = nominal hardware).
    pub variation_sigma: f64,
    /// Override the modeler's retrain threshold (paper default: 10
    /// epochs). Used by the ablation benches.
    pub retrain_epochs: Option<u64>,
    /// Override the modeler's dither amplitude (fraction of the cap
    /// span). Used by the ablation benches.
    pub dither_fraction: Option<f64>,
    /// Batch-system setup and teardown time per job (Section 7.2): the
    /// job's nodes are held but draw only idle power before the
    /// application starts and after it finishes.
    pub setup_teardown: Seconds,
    /// Telemetry handle shared by the budgeter, every endpoint and the
    /// harness loop itself. Defaults to an in-memory handle; runners
    /// pass `Telemetry::to_dir(..)` for `--telemetry <dir>`.
    pub telemetry: Telemetry,
    /// Causal tracer shared by the budgeter, every endpoint/runtime and
    /// the per-job modelers. `None` disables tracing entirely; runners
    /// pass `Tracer::to_dir(..)` for `--trace <dir>`.
    pub tracer: Option<Tracer>,
    /// Seeded chaos schedule injected into every endpoint's transport
    /// (each job gets an independent [`FaultPlan::fork`] so the schedule
    /// stays deterministic per job). `None` runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Endpoint reconnect policy for lost budgeter links.
    pub retry: RetryPolicy,
    /// Budgeter-side lease policy for silent/disconnected jobs.
    pub lease: LeaseConfig,
    /// Flight recorder attached to the budgeter: every inbound frame,
    /// connection/lease transition and emitted cap decision is logged
    /// for `anor-replay`. `None` disables recording.
    pub recorder: Option<FlightRecorder>,
}

impl EmulatorConfig {
    /// The paper's 16-node platform with a given policy/feedback setting.
    pub fn paper(policy: BudgetPolicy, feedback: bool) -> Self {
        EmulatorConfig {
            nodes: 16,
            policy,
            feedback,
            tick: Seconds(0.5),
            idle_power: Watts(90.0),
            catalog: anor_types::standard_catalog(),
            seed: 1,
            dither: feedback,
            variation_sigma: 0.0,
            retrain_epochs: None,
            dither_fraction: None,
            setup_teardown: Seconds::ZERO,
            telemetry: Telemetry::new(),
            tracer: None,
            faults: None,
            retry: RetryPolicy::default(),
            lease: LeaseConfig::default(),
            recorder: None,
        }
    }

    /// Record the run into `telemetry` (builder style).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Causally trace the run into `tracer` (builder style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Inject a seeded chaos schedule into every endpoint's transport
    /// (builder style). Pairs naturally with [`LeaseConfig::after_misses`]
    /// so reclaimed leases are observable within short runs.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Override the endpoint reconnect policy (builder style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Override the budgeter lease policy (builder style).
    pub fn with_lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Flight-record the budgeter side of the run (builder style). Pair
    /// with [`crate::recorder_meta`] so `anor-replay` can reconstruct the
    /// exact budgeter configuration from the recording header.
    pub fn with_recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }
}

/// One job to run in the emulated cluster.
#[derive(Debug, Clone)]
pub struct JobSetup {
    /// The job's true type (catalog name) — what it actually executes as.
    pub true_type: String,
    /// The type name announced to the budgeter (misclassification = a
    /// different name; unknown names hit the budgeter's default rule).
    pub announced: String,
    /// Node-count override (defaults to the true spec's footprint).
    pub nodes: Option<u32>,
    /// Submission time.
    pub submit: Seconds,
    /// Multi-phase profile (Section 8); `None` runs the plain workload.
    pub phases: Option<Vec<Phase>>,
}

impl JobSetup {
    /// A correctly classified job submitted at t = 0.
    pub fn known(name: &str) -> Self {
        JobSetup {
            true_type: name.to_string(),
            announced: name.to_string(),
            nodes: None,
            submit: Seconds::ZERO,
            phases: None,
        }
    }

    /// A job of `true_type` misclassified as `announced`, at t = 0.
    pub fn misclassified(true_type: &str, announced: &str) -> Self {
        JobSetup {
            true_type: true_type.to_string(),
            announced: announced.to_string(),
            nodes: None,
            submit: Seconds::ZERO,
            phases: None,
        }
    }

    /// Set the submission time.
    pub fn at(mut self, submit: Seconds) -> Self {
        self.submit = submit;
        self
    }

    /// Run as a multi-phase job with the given phase profile.
    pub fn with_phases(mut self, phases: Vec<Phase>) -> Self {
        self.phases = Some(phases);
        self
    }
}

/// Outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Cluster job id (submission order).
    pub job: JobId,
    /// True type name.
    pub true_type: String,
    /// Announced type name.
    pub announced: String,
    /// Submission time.
    pub submit: Seconds,
    /// Start time.
    pub start: Seconds,
    /// Application runtime (GEOPM report "Application Totals").
    pub elapsed: Seconds,
    /// Execution slowdown vs the type's nominal uncapped time.
    pub slowdown: f64,
}

/// Power-objective mode for a run.
#[derive(Debug, Clone)]
enum PowerMode {
    /// A constant budget shared by the busy nodes only (Figs. 6–8).
    StaticBusyBudget(Watts),
    /// A whole-cluster moving target (Figs. 9–10); the busy budget is the
    /// target minus idle-node power.
    Target(PowerTarget),
}

/// Summary of one emulated run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-job outcomes, in submission order.
    pub jobs: Vec<JobResult>,
    /// 90th-percentile tracking error (target mode only).
    pub tracking_p90: Option<f64>,
    /// Fraction of ticks within 30% error (target mode only).
    pub tracking_within_30: Option<f64>,
    /// Time series of (time, target, measured) when requested.
    pub power_trace: Vec<(Seconds, Watts, Watts)>,
    /// Per-job GEOPM reports ("Application Totals"), in submission order.
    pub reports: Vec<JobReport>,
}

impl RunReport {
    /// Mean slowdown across jobs whose true type is `name`.
    pub fn mean_slowdown(&self, name: &str) -> Option<f64> {
        let xs: Vec<f64> = self
            .jobs
            .iter()
            .filter(|j| j.true_type == name)
            .map(|j| j.slowdown)
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(xs.iter().sum::<f64>() / xs.len() as f64)
        }
    }
}

struct ActiveJob {
    runtime: JobRuntime,
    endpoint: JobEndpoint,
    setup_idx: usize,
    started_at: Seconds,
}

/// A job holding nodes while the batch system sets it up or tears it
/// down (nodes draw idle power only).
struct HeldJob {
    setup_idx: usize,
    nodes: Vec<Node>,
    remaining: Seconds,
    held_since: Seconds,
}

/// The emulated cluster.
pub struct EmulatedCluster {
    cfg: EmulatorConfig,
}

impl EmulatedCluster {
    /// Build a harness.
    pub fn new(cfg: EmulatorConfig) -> Self {
        EmulatedCluster { cfg }
    }

    /// Run co-scheduled jobs under a constant busy-node budget (the
    /// Fig. 6–8 setup: "a static power budget that is shared across 4
    /// nodes").
    pub fn run_static(&self, jobs: &[JobSetup], busy_budget: Watts) -> Result<RunReport> {
        self.run(jobs, PowerMode::StaticBusyBudget(busy_budget), false)
    }

    /// Run a schedule against a whole-cluster moving power target
    /// (the Fig. 9–10 setup). `trace` retains the per-tick power series.
    pub fn run_demand_response(
        &self,
        jobs: &[JobSetup],
        target: PowerTarget,
        trace: bool,
    ) -> Result<RunReport> {
        self.run(jobs, PowerMode::Target(target), trace)
    }

    fn modeler_for(&self, believed: &anor_types::JobTypeSpec) -> PowerModeler {
        let mut mcfg = ModelerConfig::paper();
        mcfg.cap_range = believed.cap_range;
        if !self.cfg.dither {
            mcfg.dither_fraction = 0.0;
        }
        if let Some(n) = self.cfg.retrain_epochs {
            mcfg.retrain_epochs = n;
        }
        if let Some(f) = self.cfg.dither_fraction {
            mcfg.dither_fraction = f;
        }
        let mut modeler = PowerModeler::with_precharacterized(mcfg, believed.epoch_curve());
        modeler.attach_telemetry(&self.cfg.telemetry);
        if self.cfg.feedback {
            // Feedback runs also watch for phase changes (Section 8).
            modeler.with_drift_detection(DriftDetector::paper())
        } else {
            modeler
        }
    }

    /// Build and connect one job-tier endpoint with the harness-wide
    /// session knobs (retry, per-job fault fork, telemetry, tracer).
    #[allow(clippy::too_many_arguments)]
    fn connect_endpoint(
        &self,
        addr: &Addr,
        job_id: JobId,
        announced: &str,
        nodes: u32,
        modeler_side: anor_geopm::EndpointModeler,
        believed: &anor_types::JobTypeSpec,
        telemetry: &Telemetry,
    ) -> Result<JobEndpoint> {
        let cfg = &self.cfg;
        let mut b = JobEndpoint::builder(
            addr.clone(),
            job_id,
            announced,
            nodes,
            modeler_side,
            self.modeler_for(believed),
        )
        .telemetry(telemetry.clone())
        .retry(cfg.retry);
        if let Some(plan) = &cfg.faults {
            // Independent per-job schedule: same spec, salted seed, own
            // frame counter — deterministic across runs with one seed.
            b = b.faults(plan.fork(job_id.0));
        }
        if let Some(t) = &cfg.tracer {
            b = b.tracer(t);
        }
        b.connect()
    }

    fn run(&self, setups: &[JobSetup], mode: PowerMode, trace: bool) -> Result<RunReport> {
        if setups.is_empty() {
            return Ok(RunReport {
                jobs: Vec::new(),
                tracking_p90: None,
                tracking_within_30: None,
                power_trace: Vec::new(),
                reports: Vec::new(),
            });
        }
        let cfg = &self.cfg;
        let variation = if cfg.variation_sigma > 0.0 {
            PerformanceVariation::with_sigma(cfg.nodes as usize, cfg.variation_sigma, cfg.seed)
        } else {
            PerformanceVariation::none(cfg.nodes as usize)
        };
        // Node pool.
        let mut pool: Vec<Node> = (0..cfg.nodes)
            .map(|i| {
                Node::new(
                    NodeId(i),
                    anor_platform::NodeConfig::paper(),
                    variation.coeff(NodeId(i)),
                )
            })
            .collect();
        // Budgeter daemon on an in-process listener. It stays on the
        // blocking plane: reactor shards read on their own schedule, not
        // the virtual clock's, so a frame could land a pass late.
        let telemetry = cfg.telemetry.clone();
        let tick_hist = telemetry.histogram("emulator_tick_seconds", &[]);
        let active_gauge = telemetry.gauge("emulator_active_jobs", &[]);
        let free_gauge = telemetry.gauge("emulator_free_nodes", &[]);
        let measured_gauge = telemetry.gauge("emulator_measured_watts", &[]);
        let mut bcfg = BudgeterConfig::new(cfg.policy, cfg.feedback);
        bcfg.catalog = cfg.catalog.clone();
        let mut builder = ClusterBudgeter::builder(bcfg)
            .listener(Listener::in_process())
            .telemetry(telemetry.clone())
            .lease(cfg.lease);
        if let Some(t) = &cfg.tracer {
            builder = builder.tracer(t);
        }
        if let Some(rec) = &cfg.recorder {
            builder = builder.recorder(rec.clone());
        }
        let (mut budgeter, addr) = builder.bind()?;
        telemetry.event(
            "run_started",
            &[
                ("policy", cfg.policy.name().into()),
                ("feedback", cfg.feedback.into()),
                ("jobs", setups.len().into()),
                ("nodes", u64::from(cfg.nodes).into()),
            ],
        );
        // Sort submissions by time (stable: preserves input order for ties).
        let mut order: Vec<usize> = (0..setups.len()).collect();
        order.sort_by(|&a, &b| {
            setups[a]
                .submit
                .value()
                .total_cmp(&setups[b].submit.value())
        });
        let mut next_arrival = 0usize;
        let mut pending: Vec<usize> = Vec::new();
        let mut active: Vec<ActiveJob> = Vec::new();
        let mut starting: Vec<HeldJob> = Vec::new();
        let mut finishing: Vec<HeldJob> = Vec::new();
        let mut results: Vec<Option<JobResult>> = vec![None; setups.len()];
        let mut reports: Vec<Option<JobReport>> = vec![None; setups.len()];
        let reserve = match &mode {
            PowerMode::Target(t) => t.reserve.max(Watts(1.0)),
            PowerMode::StaticBusyBudget(_) => Watts(1.0),
        };
        let mut tracking = TrackingRecorder::new(reserve);
        tracking.attach_telemetry(&telemetry);
        let mut power_trace = Vec::new();
        let mut now = Seconds::ZERO;
        let mut done_count = 0usize;
        // Generous runaway guard: total serial work × slowdown margin.
        let total_work: f64 = setups
            .iter()
            .map(|s| {
                self.true_spec(s)
                    .map(|t| t.time_uncapped.value() * 3.0)
                    .unwrap_or(0.0)
            })
            .sum();
        let max_time = 7200.0
            + total_work
            + setups.len() as f64 * 2.0 * cfg.setup_teardown.value()
            + setups.iter().map(|s| s.submit.value()).fold(0.0, f64::max);
        while done_count < setups.len() {
            if now.value() > max_time {
                return Err(AnorError::config(format!(
                    "emulation exceeded {max_time} virtual seconds; {} jobs unfinished",
                    setups.len() - done_count
                )));
            }
            let tick_timer = Timer::start(tick_hist.clone());
            // 1. Arrivals.
            while next_arrival < order.len()
                && setups[order[next_arrival]].submit.value() <= now.value()
            {
                let idx = order[next_arrival];
                telemetry.event(
                    "job_submitted",
                    &[
                        ("t_virtual", now.value().into()),
                        ("job", (idx as u64).into()),
                        ("type", setups[idx].true_type.as_str().into()),
                        ("announced", setups[idx].announced.as_str().into()),
                    ],
                );
                pending.push(idx);
                next_arrival += 1;
            }
            // 2. Start pending jobs when nodes are free (FCFS).
            let mut still_pending = Vec::new();
            for idx in pending.drain(..) {
                let setup = &setups[idx];
                let spec = self.true_spec(setup)?;
                let mut spec = spec.clone();
                if let Some(n) = setup.nodes {
                    spec.nodes = n;
                }
                if (spec.nodes as usize) <= pool.len() {
                    let nodes: Vec<Node> = pool.drain(..spec.nodes as usize).collect();
                    if cfg.setup_teardown.value() > 0.0 {
                        starting.push(HeldJob {
                            setup_idx: idx,
                            nodes,
                            remaining: cfg.setup_teardown,
                            held_since: now,
                        });
                        continue;
                    }
                    let job_id = JobId(idx as u64);
                    let (mut runtime, modeler_side) = match &setup.phases {
                        Some(phases) => JobRuntime::launch_phased(
                            job_id,
                            spec.clone(),
                            phases,
                            nodes,
                            cfg.seed ^ (idx as u64),
                        )?,
                        None => JobRuntime::launch(
                            job_id,
                            spec.clone(),
                            nodes,
                            cfg.seed ^ (idx as u64),
                        )?,
                    };
                    runtime.attach_telemetry(&telemetry);
                    let believed = cfg.catalog.find(&setup.announced).unwrap_or(&spec).clone();
                    let endpoint = self.connect_endpoint(
                        &addr,
                        job_id,
                        &setup.announced,
                        spec.nodes,
                        modeler_side,
                        &believed,
                        &telemetry,
                    )?;
                    if let Some(t) = &cfg.tracer {
                        runtime.attach_tracer(t);
                    }
                    telemetry.event(
                        "job_started",
                        &[
                            ("t_virtual", now.value().into()),
                            ("job", job_id.0.into()),
                            ("type", setup.true_type.as_str().into()),
                            ("nodes", u64::from(spec.nodes).into()),
                        ],
                    );
                    active.push(ActiveJob {
                        runtime,
                        endpoint,
                        setup_idx: idx,
                        started_at: now,
                    });
                } else {
                    still_pending.push(idx);
                }
            }
            pending = still_pending;
            // 2b. Advance batch setup/teardown holds.
            let mut still_starting = Vec::new();
            for mut h in starting.drain(..) {
                h.remaining -= cfg.tick;
                if h.remaining.value() > 0.0 {
                    still_starting.push(h);
                    continue;
                }
                let idx = h.setup_idx;
                let setup = &setups[idx];
                let spec = self.true_spec(setup)?;
                let mut spec = spec.clone();
                spec.nodes = h.nodes.len() as u32;
                let job_id = JobId(idx as u64);
                let (mut runtime, modeler_side) = match &setup.phases {
                    Some(phases) => JobRuntime::launch_phased(
                        job_id,
                        spec.clone(),
                        phases,
                        h.nodes,
                        cfg.seed ^ (idx as u64),
                    )?,
                    None => {
                        JobRuntime::launch(job_id, spec.clone(), h.nodes, cfg.seed ^ (idx as u64))?
                    }
                };
                runtime.attach_telemetry(&telemetry);
                let believed = cfg.catalog.find(&setup.announced).unwrap_or(&spec).clone();
                let endpoint = self.connect_endpoint(
                    &addr,
                    job_id,
                    &setup.announced,
                    spec.nodes,
                    modeler_side,
                    &believed,
                    &telemetry,
                )?;
                if let Some(t) = &cfg.tracer {
                    runtime.attach_tracer(t);
                }
                telemetry.event(
                    "job_started",
                    &[
                        ("t_virtual", now.value().into()),
                        ("job", job_id.0.into()),
                        ("type", setup.true_type.as_str().into()),
                        ("nodes", u64::from(spec.nodes).into()),
                    ],
                );
                active.push(ActiveJob {
                    runtime,
                    endpoint,
                    setup_idx: idx,
                    started_at: h.held_since,
                });
            }
            starting = still_starting;
            let mut still_finishing = Vec::new();
            for mut h in finishing.drain(..) {
                h.remaining -= cfg.tick;
                if h.remaining.value() > 0.0 {
                    still_finishing.push(h);
                } else {
                    pool.extend(h.nodes);
                }
            }
            finishing = still_finishing;
            // 3. Advance hardware and workloads.
            for a in &mut active {
                a.runtime.step(cfg.tick)?;
            }
            now += cfg.tick;
            // 4. Pump job-tier endpoints.
            for a in &mut active {
                a.endpoint.pump(now)?;
            }
            // 5. Cluster power accounting and budgeting.
            let busy_power: Watts = active.iter().map(|a| a.runtime.power()).sum();
            let held_nodes: usize = starting
                .iter()
                .chain(&finishing)
                .map(|h| h.nodes.len())
                .sum();
            let idle_power = cfg.idle_power * (pool.len() + held_nodes) as f64;
            let measured = busy_power + idle_power;
            measured_gauge.set(measured.value());
            let busy_budget = match &mode {
                PowerMode::StaticBusyBudget(b) => *b,
                PowerMode::Target(t) => {
                    let target_now = t.at(now);
                    tracking.push(target_now, measured);
                    if trace {
                        power_trace.push((now, target_now, measured));
                    }
                    (target_now - idle_power).max(Watts::ZERO)
                }
            };
            budgeter.pump(busy_budget)?;
            // 6. Let endpoints see fresh caps promptly.
            for a in &mut active {
                a.endpoint.pump(now)?;
            }
            // 7. Retire finished jobs.
            let mut still_active = Vec::new();
            for mut a in active.drain(..) {
                if a.runtime.is_done() {
                    let elapsed = a.runtime.elapsed();
                    a.endpoint.finish(elapsed)?;
                    reports[a.setup_idx] = Some(a.runtime.report());
                    let setup = &setups[a.setup_idx];
                    let spec = self.true_spec(setup)?;
                    telemetry.event(
                        "job_done",
                        &[
                            ("t_virtual", now.value().into()),
                            ("job", (a.setup_idx as u64).into()),
                            ("type", setup.true_type.as_str().into()),
                            ("elapsed_s", elapsed.value().into()),
                            (
                                "slowdown",
                                (elapsed.value() / spec.time_uncapped.value()).into(),
                            ),
                        ],
                    );
                    results[a.setup_idx] = Some(JobResult {
                        job: JobId(a.setup_idx as u64),
                        true_type: setup.true_type.clone(),
                        announced: setup.announced.clone(),
                        submit: setup.submit,
                        start: a.started_at,
                        elapsed,
                        slowdown: elapsed.value() / spec.time_uncapped.value(),
                    });
                    let idx = a.setup_idx;
                    let nodes = a.runtime.into_nodes();
                    if cfg.setup_teardown.value() > 0.0 {
                        finishing.push(HeldJob {
                            setup_idx: idx,
                            nodes,
                            remaining: cfg.setup_teardown,
                            held_since: now,
                        });
                    } else {
                        pool.extend(nodes);
                    }
                    done_count += 1;
                } else {
                    still_active.push(a);
                }
            }
            active = still_active;
            active_gauge.set(active.len() as f64);
            free_gauge.set(pool.len() as f64);
            drop(tick_timer);
        }
        telemetry.event(
            "run_finished",
            &[
                ("t_virtual", now.value().into()),
                ("jobs", setups.len().into()),
            ],
        );
        // Every setup slot must have completed by now; a hole means the
        // scheduler lost a job, which is a reportable failure of the run,
        // not grounds for aborting the process.
        let jobs = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or_else(|| AnorError::schedule(format!("job {i} never finished emulation")))
            })
            .collect::<Result<Vec<_>>>()?;
        let reports = reports
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.ok_or_else(|| AnorError::schedule(format!("job {i} never produced a report")))
            })
            .collect::<Result<Vec<_>>>()?;
        let (p90, within) = match mode {
            PowerMode::Target(_) if !tracking.is_empty() => (
                Some(tracking.percentile_error(90.0)),
                Some(tracking.fraction_within(0.30)),
            ),
            _ => (None, None),
        };
        Ok(RunReport {
            jobs,
            tracking_p90: p90,
            tracking_within_30: within,
            power_trace,
            reports,
        })
    }

    fn true_spec<'a>(&'a self, setup: &JobSetup) -> Result<&'a anor_types::JobTypeSpec> {
        self.cfg.catalog.find(&setup.true_type).ok_or_else(|| {
            AnorError::config(format!("unknown true job type `{}`", setup.true_type))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_aqa::RegulationSignal;

    fn cluster(policy: BudgetPolicy, feedback: bool) -> EmulatedCluster {
        EmulatedCluster::new(EmulatorConfig::paper(policy, feedback))
    }

    #[test]
    fn single_job_uncapped_runs_at_nominal_speed() {
        let c = cluster(BudgetPolicy::Uniform, false);
        let report = c
            .run_static(&[JobSetup::known("is.D.32")], Watts(10_000.0))
            .unwrap();
        assert_eq!(report.jobs.len(), 1);
        let s = report.jobs[0].slowdown;
        assert!((0.9..1.15).contains(&s), "uncapped slowdown {s}");
    }

    #[test]
    fn shared_budget_slows_sensitive_job_more_under_uniform() {
        // BT + SP under 840 W / 4 nodes, performance-agnostic: BT (high
        // sensitivity) slows more than SP (low sensitivity) — Fig. 6's
        // "Performance Agnostic" bar.
        let c = cluster(BudgetPolicy::Uniform, false);
        let report = c
            .run_static(
                &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
                Watts(840.0),
            )
            .unwrap();
        let bt = report.mean_slowdown("bt.D.81").unwrap();
        let sp = report.mean_slowdown("sp.D.81").unwrap();
        assert!(bt > sp, "bt {bt} vs sp {sp}");
        assert!(bt > 1.05, "bt must visibly slow down: {bt}");
    }

    #[test]
    fn even_slowdown_narrows_the_gap() {
        let agnostic = cluster(BudgetPolicy::Uniform, false)
            .run_static(
                &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
                Watts(840.0),
            )
            .unwrap();
        let aware = cluster(BudgetPolicy::EvenSlowdown, false)
            .run_static(
                &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
                Watts(840.0),
            )
            .unwrap();
        let bt_agnostic = agnostic.mean_slowdown("bt.D.81").unwrap();
        let bt_aware = aware.mean_slowdown("bt.D.81").unwrap();
        assert!(
            bt_aware < bt_agnostic,
            "performance-aware must help BT: {bt_aware} vs {bt_agnostic}"
        );
    }

    #[test]
    fn misclassification_hurts_and_feedback_recovers() {
        let jobs = [
            JobSetup::misclassified("bt.D.81", "is.D.32"),
            JobSetup::known("sp.D.81"),
        ];
        let known = cluster(BudgetPolicy::EvenSlowdown, false)
            .run_static(
                &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
                Watts(840.0),
            )
            .unwrap()
            .mean_slowdown("bt.D.81")
            .unwrap();
        let mis = cluster(BudgetPolicy::EvenSlowdown, false)
            .run_static(&jobs, Watts(840.0))
            .unwrap()
            .mean_slowdown("bt.D.81")
            .unwrap();
        let fed = cluster(BudgetPolicy::EvenSlowdown, true)
            .run_static(&jobs, Watts(840.0))
            .unwrap()
            .mean_slowdown("bt.D.81")
            .unwrap();
        assert!(
            mis > known + 0.01,
            "misclassification must hurt BT: {mis} vs {known}"
        );
        assert!(fed < mis, "feedback must recover: {fed} vs {mis}");
    }

    #[test]
    fn demand_response_tracks_target() {
        let c = cluster(BudgetPolicy::EvenSlowdown, false);
        // Keep the target inside the achievable band: 2×BT (2 nodes each)
        // + LU keep 5 nodes busy (1690–2346 W incl. 11 idle nodes).
        let jobs = [
            JobSetup::known("bt.D.81"),
            JobSetup::known("bt.D.81"),
            JobSetup::known("lu.D.42").at(Seconds(10.0)),
        ];
        let target = PowerTarget {
            avg: Watts(1950.0),
            reserve: Watts(250.0),
            signal: RegulationSignal::Sinusoid {
                period: Seconds(120.0),
                amplitude: 0.8,
            },
        };
        let report = c.run_demand_response(&jobs, target, true).unwrap();
        assert_eq!(report.jobs.len(), 3);
        let within = report.tracking_within_30.unwrap();
        assert!(within > 0.55, "tracking within 30% only {within}");
        assert!(!report.power_trace.is_empty());
    }

    #[test]
    fn queueing_when_nodes_exhausted() {
        // 16 nodes, nine 2-node jobs: one must queue.
        let c = cluster(BudgetPolicy::Uniform, false);
        let jobs: Vec<JobSetup> = (0..9).map(|_| JobSetup::known("ft.D.64")).collect();
        let report = c.run_static(&jobs, Watts(100_000.0)).unwrap();
        assert_eq!(report.jobs.len(), 9);
        let max_start = report
            .jobs
            .iter()
            .map(|j| j.start.value())
            .fold(0.0f64, f64::max);
        assert!(
            max_start > 60.0,
            "ninth job must wait for nodes: {max_start}"
        );
    }

    #[test]
    fn phased_job_runs_through_the_full_stack() {
        use anor_platform::Phase;
        // A two-phase job: insensitive first half, highly sensitive
        // second half, co-scheduled with SP under a tight budget.
        let phased = JobSetup::known("bt.D.81").with_phases(vec![
            Phase {
                fraction: 0.5,
                sensitivity: 0.1,
                max_draw: Watts(225.0),
            },
            Phase {
                fraction: 0.5,
                sensitivity: 0.8,
                max_draw: Watts(278.0),
            },
        ]);
        let jobs = [phased, JobSetup::known("sp.D.81")];
        let run = |feedback: bool| {
            cluster(BudgetPolicy::EvenSlowdown, feedback)
                .run_static(&jobs, Watts(840.0))
                .unwrap()
                .mean_slowdown("bt.D.81")
                .unwrap()
        };
        let static_model = run(false);
        let adaptive = run(true);
        // Both complete; the adaptive run must not be slower — drift
        // detection re-learns the sensitive phase and wins it more power.
        assert!(static_model.is_finite() && adaptive.is_finite());
        assert!(
            adaptive <= static_model + 0.02,
            "adaptive {adaptive} vs static {static_model}"
        );
    }

    #[test]
    fn run_report_includes_geopm_reports() {
        let c = cluster(BudgetPolicy::Uniform, false);
        let report = c
            .run_static(
                &[JobSetup::known("is.D.32"), JobSetup::known("mg.D.32")],
                Watts(2000.0),
            )
            .unwrap();
        assert_eq!(report.reports.len(), 2);
        let is_report = &report.reports[0];
        assert_eq!(is_report.type_name, "is.D.32");
        assert_eq!(is_report.epoch_count, 40);
        assert!(is_report.energy.value() > 0.0);
        assert!(is_report.render().contains("Application Totals"));
    }

    #[test]
    fn setup_teardown_extends_occupancy_but_not_app_time() {
        let mut cfg = EmulatorConfig::paper(BudgetPolicy::Uniform, false);
        cfg.setup_teardown = Seconds(15.0);
        let c = EmulatedCluster::new(cfg);
        // Two sequential 1-node jobs on a deliberately tiny pool force
        // the second to wait through the first's teardown.
        let mut small = EmulatorConfig::paper(BudgetPolicy::Uniform, false);
        small.nodes = 1;
        small.setup_teardown = Seconds(15.0);
        let c_small = EmulatedCluster::new(small);
        let report = c_small
            .run_static(
                &[JobSetup::known("is.D.32"), JobSetup::known("is.D.32")],
                Watts(10_000.0),
            )
            .unwrap();
        // App elapsed stays ~20 s, but the second job starts only after
        // the first's app time + both holds (~>35 s in).
        for job in &report.jobs {
            assert!(
                (15.0..30.0).contains(&job.elapsed.value()),
                "{:?}",
                job.elapsed
            );
        }
        let second_start = report.jobs[1].start.value();
        assert!(
            second_start >= 45.0,
            "second job must wait through setup+teardown: started {second_start}"
        );
        // And the 16-node variant still completes normally.
        let report = c
            .run_static(&[JobSetup::known("is.D.32")], Watts(10_000.0))
            .unwrap();
        assert_eq!(report.jobs.len(), 1);
    }

    #[test]
    fn telemetry_captures_lifecycle_and_rebalances() {
        let telemetry = Telemetry::new();
        let mut cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true);
        cfg = cfg.with_telemetry(telemetry.clone());
        let c = EmulatedCluster::new(cfg);
        c.run_static(
            &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
            Watts(840.0),
        )
        .unwrap();
        let lines = telemetry.memory_event_lines();
        for needed in [
            "\"event\":\"run_started\"",
            "\"event\":\"job_submitted\"",
            "\"event\":\"job_started\"",
            "\"event\":\"job_done\"",
            "\"event\":\"run_finished\"",
        ] {
            assert!(
                lines.iter().any(|l| l.contains(needed)),
                "missing {needed} in event log"
            );
        }
        assert!(
            telemetry
                .histogram("budgeter_rebalance_seconds", &[])
                .count()
                >= 1,
            "budgeter rebalances must flow into the shared handle"
        );
        assert!(
            telemetry.histogram("emulator_tick_seconds", &[]).count() >= 10,
            "tick durations must be observed"
        );
        assert!(
            telemetry
                .counter("transport_frames_rx_total", &[("role", "budgeter")])
                .get()
                >= 2,
            "endpoint traffic must be counted"
        );
    }

    #[test]
    fn empty_job_list_is_trivial() {
        let c = cluster(BudgetPolicy::Uniform, false);
        let report = c.run_static(&[], Watts(1000.0)).unwrap();
        assert!(report.jobs.is_empty());
    }

    #[test]
    fn unknown_true_type_is_an_error() {
        let c = cluster(BudgetPolicy::Uniform, false);
        let err = c
            .run_static(&[JobSetup::known("not-a-benchmark")], Watts(1000.0))
            .unwrap_err();
        assert!(err.to_string().contains("unknown true job type"));
    }
}
