//! `sim_100k`: a 100k-node `TabularSim` under even-slowdown capping,
//! with 75%-utilization Poisson arrivals, a random-walk power target, 5%
//! per-node performance variation and serial re-capping. The event
//! queue and the 100k-row node and job tables dominate; its working set
//! outgrows L2, unlike the other two workloads.

use crate::harness::{check_goldens, exact, median, quantile, Outcome, Spans};
use crate::{EndToEnd, Layers, Opts, Scale};
use anor_aqa::{poisson_schedule, JobSubmission, PowerTarget, RegulationSignal};
use anor_bench::analyze::analyze;
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, SimPowerPolicy, TabularSim};
use anor_telemetry::{TraceStage, Tracer};
use anor_types::{standard_catalog, QosConstraint, Seconds, Watts};
use std::time::Instant;

/// Set-ups timed before the loop (inputs, then `TabularSim::new`);
/// `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Schedules a run cycles through (see [`crate::SCHEDULE_SEED`]).
const VARIANTS: usize = 4;
/// The simulator's tick, in virtual seconds.
const TICK_S: f64 = 1.0;
/// Trace ring depth: holds every event of one run.
const TRACE_RING: usize = 1 << 18;

/// Golden behaviour of [`crate::DEFAULT_SEED`] at full scale; the state
/// hash folds the four inputs' final hashes.
pub const GOLDEN: &[(&str, &str)] = &[
    ("state_hash", "6fd1b38378e14cf5"),
    ("tracking_p90_pct", "27.678535299796224"),
    ("mean_slowdown_pct", "40.38020079496995"),
];

/// Problem size.
#[derive(Debug, Clone, Copy)]
struct Size {
    nodes: u32,
    ticks: u64,
    /// Tracking is judged from this tick on, once the cluster has filled.
    warmup: u64,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Full => Size {
            nodes: 100_000,
            ticks: 2400,
            warmup: 400,
        },
        Scale::Small => Size {
            nodes: 2_000,
            ticks: 600,
            warmup: 100,
        },
    }
}

/// Everything `TabularSim::new` takes, generated from the seed.
struct Inputs {
    cfg: SimConfig,
    target: PowerTarget,
    variation: PerformanceVariation,
    schedule: Vec<JobSubmission>,
}

/// The program set-up before the first step: the scaled catalog, the
/// schedule, the target, the variation draw and `TabularSim::new`.
/// Returns the simulator, its config and the seconds it all took.
fn set_up(seed: u64, k: usize, size: Size) -> (TabularSim, SimConfig, f64) {
    let started = Instant::now();
    let i = inputs(seed, k, size);
    let cfg = i.cfg.clone();
    let sim = TabularSim::new(i.cfg, i.target, &i.variation, i.schedule, None);
    (sim, cfg, started.elapsed().as_secs_f64())
}

/// Inputs of schedule `k`, with the power target and the per-node
/// variation drawn from `seed`.
fn inputs(seed: u64, k: usize, size: Size) -> Inputs {
    let nodes = size.nodes;
    let catalog = standard_catalog().scale_nodes((nodes / 40).max(1));
    let types = catalog.long_running();
    let cfg = SimConfig {
        total_nodes: nodes,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(TICK_S),
        policy: SimPowerPolicy::EvenSlowdown,
        qos: QosConstraint::default(),
        qos_risk_threshold: 0.8,
    };
    let schedule = poisson_schedule(
        &cfg.catalog,
        &cfg.types,
        0.75,
        nodes,
        Seconds(size.ticks as f64),
        crate::variant_seed(crate::SCHEDULE_SEED, k),
    );
    let mean_draw = cfg
        .types
        .iter()
        .map(|&id| cfg.catalog[id].max_draw.value())
        .sum::<f64>()
        / cfg.types.len() as f64;
    let avg = Watts(f64::from(nodes) * (0.75 * mean_draw + 0.25 * 90.0)) * 0.85;
    let target = PowerTarget {
        avg,
        reserve: avg * 0.12,
        signal: RegulationSignal::random_walk(
            Seconds(4.0),
            0.35,
            Seconds(size.ticks as f64 * 2.0),
            seed ^ 0x51a,
        ),
    };
    let variation = PerformanceVariation::with_sigma(nodes as usize, 0.05, seed ^ 0x7a6);
    Inputs {
        cfg,
        target,
        variation,
        schedule,
    }
}

/// One run of `size.ticks` steps on a fresh simulator.
struct Iteration {
    build_s: f64,
    /// Jobs in the schedule.
    jobs: usize,
    step_s: Vec<f64>,
    wall_s: f64,
    hash_s: f64,
    state_hash: u64,
    tracking_p90_pct: f64,
    mean_slowdown_pct: f64,
    /// Broken table invariants (empty in a healthy run).
    broken: Vec<String>,
    tracer: Option<Tracer>,
}

impl Iteration {
    fn behaviour(&self) -> Vec<(&'static str, String)> {
        vec![
            ("state_hash", format!("{:016x}", self.state_hash)),
            ("tracking_p90_pct", exact(self.tracking_p90_pct)),
            ("mean_slowdown_pct", exact(self.mean_slowdown_pct)),
        ]
    }
}

fn iterate(
    seed: u64,
    k: usize,
    size: Size,
    tracer: Option<Tracer>,
    spans: &mut Spans,
) -> Iteration {
    let span = spans.open("TabularSim::new");
    let (mut sim, cfg, build_s) = set_up(seed, k, size);
    spans.close(span);
    if let Some(t) = &tracer {
        sim.attach_tracer(t);
    }
    let mut step_s = Vec::with_capacity(size.ticks as usize);
    let started = Instant::now();
    for tick in 1..=size.ticks {
        if tick == size.warmup + 1 {
            sim.reset_tracking();
        }
        let step_started = Instant::now();
        if tracer.is_some() {
            let span = spans.open("TabularSim::step");
            sim.step();
            spans.close(span);
        } else {
            sim.step();
        }
        step_s.push(step_started.elapsed().as_secs_f64());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let span = spans.open("TabularSim::state_hash");
    let hash_started = Instant::now();
    let state_hash = sim.state_hash();
    let hash_s = hash_started.elapsed().as_secs_f64();
    spans.close(span);
    let (mean_slowdown_pct, broken) = audit(&cfg, &sim);
    Iteration {
        build_s,
        jobs: sim.jobs().len(),
        step_s,
        wall_s,
        hash_s,
        state_hash,
        tracking_p90_pct: sim.tracking().percentile_error(90.0) * 100.0,
        mean_slowdown_pct,
        broken,
        tracer,
    }
}

/// Mean slowdown of the completed jobs, and the table invariants the
/// simulator maintains incrementally, checked against a recount.
fn audit(cfg: &SimConfig, sim: &TabularSim) -> (f64, Vec<String>) {
    let nodes = sim.nodes();
    let jobs = sim.jobs();
    let mut broken = Vec::new();
    let idle = nodes.iter().filter(|n| n.is_idle()).count();
    if idle != sim.idle_nodes() as usize {
        broken.push(format!(
            "idle count {} but {idle} idle rows",
            sim.idle_nodes()
        ));
    }
    let mut usage = vec![0u32; cfg.catalog.len()];
    for j in jobs.iter().filter(|j| j.start.is_some() && j.end.is_none()) {
        usage[j.type_id.index()] += j.nodes.len() as u32;
    }
    if usage != sim.type_usage() {
        broken.push(format!(
            "type usage {:?} but running jobs hold {usage:?}",
            sim.type_usage()
        ));
    }
    let slowdowns: Vec<f64> = jobs
        .iter()
        .filter_map(|j| {
            let run = j.end?.value() - j.start?.value();
            let nominal = cfg.catalog[j.type_id].time_uncapped.value();
            Some((run / nominal - 1.0) * 100.0)
        })
        .collect();
    if slowdowns.is_empty() {
        broken.push("no job completed".to_string());
    }
    let mean = slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64;
    (mean, broken)
}

/// Run the workload: timed set-ups, then whole runs back to back for
/// `opts.seconds`, cycling through [`VARIANTS`] seeded inputs.
pub fn run(opts: &Opts, scale: Scale) -> Outcome {
    let size = size(scale);
    let mut out = Outcome::default();
    let seeds: Vec<u64> = (0..VARIANTS)
        .map(|k| crate::variant_seed(opts.seed, k))
        .collect();
    let mut setup: Vec<f64> = (0..SETUP_REPS)
        .map(|i| set_up(seeds[i % VARIANTS], i % VARIANTS, size).2)
        .collect();
    let mut spans = Spans::default();
    let mut kept = false;
    let (plain, traced) = crate::timed_loop(opts, VARIANTS, |trace, v| {
        let tracer = trace.then(|| Tracer::with_capacity(TRACE_RING));
        let mut it = iterate(seeds[v], v, size, tracer, &mut spans);
        if !trace || std::mem::replace(&mut kept, true) {
            it.tracer = None;
        }
        it
    });
    setup.extend(plain.iter().map(|(_, i)| i.build_s));
    let all: Vec<&(usize, Iteration)> = plain.iter().chain(&traced).collect();
    for (_, it) in &all {
        out.attempted += it.step_s.len() as u64;
        if !it.broken.is_empty() {
            out.failed += it.step_s.len() as u64;
            out.gate.extend(it.broken.iter().cloned());
        }
    }
    crate::check_repeats(&all, Iteration::behaviour, &mut out);
    let firsts: Vec<&Iteration> = plain.iter().take(VARIANTS).map(|(_, i)| i).collect();
    let n = firsts.len() as f64;
    let tracking = firsts.iter().map(|i| i.tracking_p90_pct).sum::<f64>() / n;
    let slowdown = firsts.iter().map(|i| i.mean_slowdown_pct).sum::<f64>() / n;
    let hashes = firsts
        .iter()
        .fold(0u64, |h, i| h.rotate_left(17) ^ i.state_hash);
    let behaviour = vec![
        ("state_hash", format!("{hashes:016x}")),
        ("tracking_p90_pct", exact(tracking)),
        ("mean_slowdown_pct", exact(slowdown)),
    ];
    if opts.seed == crate::DEFAULT_SEED && scale == Scale::Full {
        out.gate.extend(check_goldens(&behaviour, GOLDEN));
    }
    out.notes.push(format!(
        "sim_100k: {} nodes, {VARIANTS} inputs of {:?} jobs, {} untraced run(s) of each, {} \
         steps a run; pass_p99_ms is the p99 over every step of an input's runs; behaviour \
         {behaviour:?}",
        size.nodes,
        firsts.iter().map(|i| i.jobs).collect::<Vec<_>>(),
        plain.len() / VARIANTS,
        size.ticks,
    ));
    if !opts.trace {
        let rate: Vec<(usize, f64)> = plain
            .iter()
            .map(|(v, i)| (*v, i.step_s.len() as f64 * TICK_S / i.wall_s))
            .collect();
        let p99: Vec<(usize, f64)> = (0..VARIANTS)
            .map(|v| {
                let steps: Vec<f64> = plain
                    .iter()
                    .filter(|(w, _)| *w == v)
                    .flat_map(|(_, i)| i.step_s.iter().copied())
                    .collect();
                (v, quantile(&steps, 0.99) * 1e3)
            })
            .collect();
        out.notes
            .push(crate::harness::series("sim_100k", &rate, &p99));
        EndToEnd {
            setup_s: median(&setup),
            virtual_s_per_s: crate::variant_mean(&rate, crate::RATE_QUANTILE),
            pass_p99_ms: crate::variant_mean(&p99, 0.5),
            tracking_p90_pct: tracking,
            mean_slowdown_pct: slowdown,
        }
        .report(&mut out);
        return out;
    }
    let mut layers = Layers::default();
    let (_, t) = &traced[0];
    layers.set("sim.step_us.p50", quantile(&t.step_s, 0.5) * 1e6);
    layers.set("sim.step_ms.p99", quantile(&t.step_s, 0.99) * 1e3);
    layers.set("sim.build_s", median(&setup));
    layers.set("sim.state_hash_ms", t.hash_s * 1e3);
    if let Some(tracer) = &t.tracer {
        if tracer.recorded() > TRACE_RING as u64 {
            out.gate.push(format!(
                "trace ring overflowed: {} events for {TRACE_RING} slots",
                tracer.recorded()
            ));
        }
        let events = tracer.ring_snapshot();
        let decisions = events
            .iter()
            .filter(|e| e.stage == TraceStage::Decision)
            .count();
        layers.set("sim.recap_ticks", decisions as f64);
        let report = analyze(&events);
        layers.set(
            "trace.decision_to_msr_ms.p50",
            report.decision_to_msr.p50 * 1e3,
        );
        layers.set(
            "trace.decision_to_msr_ms.p99",
            report.decision_to_msr.p99 * 1e3,
        );
    }
    let wall =
        |calls: &[(usize, Iteration)]| calls.iter().map(|(_, i)| i.wall_s).collect::<Vec<_>>();
    layers.set(
        "trace.overhead_pct",
        crate::overhead_pct(&wall(&plain), &wall(&traced)),
    );
    crate::finish_traced(&mut layers, &spans, "sim_100k", opts, &mut out);
    out
}
