//! The `anor-load` synthetic-endpoint harness: N endpoints × reconnect
//! storms × fault specs against a live budgeter.
//!
//! The harness answers the capacity question behind ROADMAP item 2: how
//! many concurrent job endpoints can one budgeter observe and re-cap per
//! pump while keeping control-loop latency predictable? It drives a real
//! daemon (default: the sharded reactor plane) with driver threads full
//! of scripted endpoints that register, stream samples, absorb caps, and
//! — on every storm — drop their sockets en masse and resume, exactly
//! the session dance a cluster-wide network blip would cause.
//!
//! The run is stage-gated so the numbers mean something: all endpoints
//! registered, all capped, then per storm all resumed again. The report
//! carries sustained endpoint (re)connects per second, pump latency
//! percentiles overall and per pump phase, backpressure drops, and the
//! invariant auditor's verdict on watts conservation.

use crate::budgeter::{BudgetPolicy, BudgeterConfig, ClusterBudgeter, LeaseConfig};
use crate::codec::{FramedStream, StreamOptions, TransportMetrics};
use crate::session::{FaultPlan, SessionState};
use crate::status::PhaseStat;
use crate::transport::{Addr, TransportKind, TransportOptions};
use anor_telemetry::Telemetry;
use anor_types::msg::{ClusterToJob, EpochSample, JobToCluster};
use anor_types::{AnorError, JobId, Joules, Result, Seconds, Watts};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Job type names the synthetic endpoints announce, rotated per index so
/// non-uniform policies see a realistic type mix.
const TYPE_NAMES: [&str; 6] = [
    "bt.D.81", "sp.D.81", "is.D.32", "mg.D.32", "lu.D.42", "cg.D.32",
];

/// How many driver sweeps (~0.5 ms apart) between `Sample` messages per
/// endpoint — steady inbound traffic without drowning a single core.
const SAMPLE_EVERY_SWEEPS: u64 = 50;

/// `anor-load` run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent synthetic endpoints.
    pub endpoints: usize,
    /// Reconnect storms: each drops every endpoint's socket at once and
    /// resumes them all.
    pub storms: usize,
    /// Server-side chaos: each accepted connection gets its own fork of
    /// this plan (so `drop@17` kills every conn at its 17th outbound
    /// frame, forcing organic reconnects on top of the storms).
    pub faults: Option<FaultPlan>,
    /// Busy power budget. `Watts::ZERO` means auto: 200 W per endpoint —
    /// comfortably above the standard catalog's 140 W per-node cap floor,
    /// so the assignment stays feasible and caps have room to move.
    pub budget: Watts,
    /// Distribution policy under test.
    pub policy: BudgetPolicy,
    /// Connection plane for the daemon (default: reactor).
    pub transport: TransportOptions,
    /// Driver threads sharing the endpoints. Each driver connects its
    /// endpoints serially, which also keeps concurrent pending connects
    /// below the listener backlog.
    pub drivers: usize,
    /// Budgeter lease miss budget (pumps a dropped endpoint may stay
    /// disconnected before its watts are reclaimed).
    pub lease_miss_pumps: u32,
    /// Record into a shared telemetry handle (default: private).
    pub telemetry: Option<Telemetry>,
    /// Per-stage deadline before the run is declared stalled.
    pub stage_deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            endpoints: 64,
            storms: 1,
            faults: None,
            budget: Watts::ZERO,
            policy: BudgetPolicy::Uniform,
            transport: TransportOptions {
                kind: TransportKind::Reactor,
                ..TransportOptions::default()
            },
            drivers: 2,
            lease_miss_pumps: 5_000,
            telemetry: None,
            stage_deadline: Duration::from_secs(60),
        }
    }
}

/// What an `anor-load` run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Configured endpoint count.
    pub endpoints: usize,
    /// Configured storm count.
    pub storms: usize,
    /// Endpoints registered and holding a lease when the run ended.
    pub connected: usize,
    /// Connections the daemon accepted in total.
    pub accepted: u64,
    /// Endpoint re-establishments (storm resumes + fault-driven).
    pub reconnects: u64,
    /// Sustained endpoint (re)connects per second over the whole run:
    /// (initial registrations + reconnects) / elapsed.
    pub endpoints_per_sec: f64,
    /// Budgeter pump latency, milliseconds.
    pub pump_p50_ms: f64,
    /// Budgeter pump latency, milliseconds.
    pub pump_p99_ms: f64,
    /// Latency of each named pump phase at the end of the run, as the
    /// budgeter's status snapshot reports it (seconds).
    pub phases: Vec<PhaseStat>,
    /// Outbound frames dropped to egress backpressure.
    pub backpressure_drops: u64,
    /// Continuous-auditor violations (watts conservation and friends);
    /// must be zero for a healthy run.
    pub invariant_violations: u64,
    /// Σ cap × nodes over lease holders at the end of the run.
    pub allocated_watts: f64,
    /// The busy budget the run distributed.
    pub budget_watts: f64,
    /// Wall-clock for the whole gated run.
    pub elapsed_s: f64,
    /// Control passes executed.
    pub pumps: u64,
    /// Stages that hit their deadline (empty for a clean run).
    pub stalled_stages: Vec<String>,
}

impl LoadReport {
    /// Did the run hold the line: every stage completed, every endpoint
    /// connected at the end, zero invariant violations?
    pub fn ok(&self) -> bool {
        self.stalled_stages.is_empty()
            && self.connected == self.endpoints
            && self.invariant_violations == 0
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "anor-load: {} endpoint(s), {} storm(s), {:.1} endpoints/s sustained",
            self.endpoints, self.storms, self.endpoints_per_sec
        )?;
        writeln!(
            f,
            "  connected {}/{}  accepted {}  reconnects {}",
            self.connected, self.endpoints, self.accepted, self.reconnects
        )?;
        writeln!(
            f,
            "  pump p50 {:.3} ms  p99 {:.3} ms  over {} pump(s) in {:.2} s",
            self.pump_p50_ms, self.pump_p99_ms, self.pumps, self.elapsed_s
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "    phase {:<15} p50 {:.3} ms  p99 {:.3} ms",
                p.phase,
                p.p50 * 1e3,
                p.p99 * 1e3
            )?;
        }
        writeln!(
            f,
            "  watts: allocated {:.1} of budget {:.1}  backpressure drops {}",
            self.allocated_watts, self.budget_watts, self.backpressure_drops
        )?;
        if self.stalled_stages.is_empty() {
            write!(f, "  invariant violations: {}", self.invariant_violations)
        } else {
            write!(
                f,
                "  invariant violations: {}  STALLED: {}",
                self.invariant_violations,
                self.stalled_stages.join(", ")
            )
        }
    }
}

/// One synthetic endpoint's driver-side state machine.
struct Endpoint {
    job: JobId,
    type_name: &'static str,
    stream: Option<FramedStream>,
    registered: bool,
    last_cap: Watts,
    sweeps: u64,
    samples_sent: u64,
}

impl Endpoint {
    /// (Re)establish the connection: `Hello` on first contact, `Resume`
    /// (carrying the believed cap) afterwards. Connect failures are left
    /// for the next sweep — under a storm the listener backlog may need
    /// a moment to drain.
    fn ensure_connected(
        &mut self,
        addr: &Addr,
        metrics: &TransportMetrics,
        reconnects: &AtomicU64,
    ) {
        if self.stream.as_ref().is_some_and(|s| !s.is_closed()) {
            return;
        }
        self.stream = None;
        let opts = StreamOptions::default().metrics(metrics.clone());
        let Ok(mut stream) = addr.dial(opts) else {
            return;
        };
        let intro = if self.registered {
            JobToCluster::Resume {
                job: self.job,
                type_name: self.type_name.to_string(),
                nodes: 1,
                believed_cap: self.last_cap,
                cause: 0,
            }
        } else {
            JobToCluster::Hello {
                job: self.job,
                type_name: self.type_name.to_string(),
                nodes: 1,
            }
        };
        if stream.send(intro.encode()).is_err() {
            return;
        }
        if self.registered {
            reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.registered = true;
        self.stream = Some(stream);
    }

    /// One sweep: drain caps, stream the periodic sample, keep the
    /// outbound buffer moving. Transport errors mark the stream closed
    /// and the next sweep reconnects.
    fn sweep(&mut self) {
        self.sweeps += 1;
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let frames = match stream.recv_frames() {
            Ok(frames) => frames,
            Err(_) => {
                stream.shutdown_now();
                return;
            }
        };
        for body in frames {
            match ClusterToJob::decode(body) {
                Ok(ClusterToJob::SetPowerCap { cap, .. }) => self.last_cap = cap,
                Ok(ClusterToJob::ResumeAck { cap, .. }) if cap.value() >= 0.0 => {
                    self.last_cap = cap;
                }
                // Corrupt-fault debris: the frame is noise, the session
                // machinery recovers via reconnect when the daemon cuts
                // the conn.
                _ => {}
            }
        }
        if self.sweeps.is_multiple_of(SAMPLE_EVERY_SWEEPS) {
            let draw = if self.last_cap.value() > 0.0 {
                self.last_cap * 0.9
            } else {
                Watts(100.0)
            };
            self.samples_sent += 1;
            let sample = JobToCluster::Sample(EpochSample {
                job: self.job,
                epoch_count: self.samples_sent,
                energy: Joules(draw.value()),
                avg_power: draw,
                avg_cap: self.last_cap.max(Watts::ZERO),
                timestamp: Seconds(self.samples_sent as f64),
                cause: 0,
            });
            let _ = stream.send(sample.encode());
        }
        let _ = stream.flush_some();
    }
}

/// Shared driver coordination.
struct DriverCtl {
    stop: AtomicBool,
    /// Bumped once per storm; drivers drop every socket when it moves.
    storm_epoch: AtomicUsize,
    reconnects: AtomicU64,
}

fn run_driver(
    ctl: &DriverCtl,
    addr: &Addr,
    metrics: &TransportMetrics,
    mut endpoints: Vec<Endpoint>,
) {
    let mut seen_epoch = 0usize;
    while !ctl.stop.load(Ordering::SeqCst) {
        let epoch = ctl.storm_epoch.load(Ordering::SeqCst);
        if epoch != seen_epoch {
            seen_epoch = epoch;
            for ep in endpoints.iter_mut() {
                if let Some(stream) = ep.stream.as_mut() {
                    stream.shutdown_now();
                }
                ep.stream = None;
            }
        }
        for ep in endpoints.iter_mut() {
            ep.ensure_connected(addr, metrics, &ctl.reconnects);
            ep.sweep();
        }
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// Pump the daemon until `done` holds or the deadline lapses; parks on
/// transport readiness between passes. Alternates the budget ±5% every
/// 20 pumps so caps keep moving — real cap traffic is what loads the
/// egress path (and what trips `drop@N` fault schedules).
fn pump_stage(
    b: &mut ClusterBudgeter,
    budget: Watts,
    deadline: Duration,
    mut done: impl FnMut(&ClusterBudgeter) -> bool,
) -> Result<bool> {
    let started = Instant::now();
    let mut pump_no = 0u64;
    loop {
        pump_no += 1;
        let wobble = if (pump_no / 20).is_multiple_of(2) {
            budget
        } else {
            budget * 1.05
        };
        b.pump(wobble)?;
        if done(b) {
            return Ok(true);
        }
        if started.elapsed() > deadline {
            return Ok(false);
        }
        b.wait_readable(Duration::from_millis(1));
    }
}

/// Run the harness: build a budgeter on the configured plane, storm it,
/// and report. A stalled stage is reported, not an error — the report's
/// [`LoadReport::ok`] is the pass/fail verdict.
pub fn run_load(cfg: &LoadConfig) -> Result<LoadReport> {
    if cfg.endpoints == 0 {
        return Err(AnorError::config("anor-load needs at least one endpoint"));
    }
    let telemetry = cfg.telemetry.clone().unwrap_or_default();
    let budget = if cfg.budget.value() > 0.0 {
        cfg.budget
    } else {
        Watts(200.0 * cfg.endpoints as f64)
    };
    let mut builder = ClusterBudgeter::builder(BudgeterConfig::new(cfg.policy, false))
        .telemetry(telemetry.clone())
        .lease(LeaseConfig::after_misses(cfg.lease_miss_pumps))
        .transport(cfg.transport.kind)
        .shards(cfg.transport.shards);
    if let Some(plan) = cfg.faults.clone() {
        builder = builder.faults(plan);
    }
    let (mut b, addr) = builder.bind()?;
    let ctl = Arc::new(DriverCtl {
        stop: AtomicBool::new(false),
        storm_epoch: AtomicUsize::new(0),
        reconnects: AtomicU64::new(0),
    });
    let client_metrics = TransportMetrics::new(&telemetry, "load-endpoint");
    let drivers = cfg.drivers.clamp(1, cfg.endpoints);
    let mut threads = Vec::new();
    for d in 0..drivers {
        let endpoints: Vec<Endpoint> = (0..cfg.endpoints)
            .filter(|i| i % drivers == d)
            .map(|i| Endpoint {
                job: JobId(i as u64 + 1),
                type_name: TYPE_NAMES[i % TYPE_NAMES.len()],
                stream: None,
                registered: false,
                last_cap: Watts(-1.0),
                sweeps: 0,
                samples_sent: 0,
            })
            .collect();
        let ctl = Arc::clone(&ctl);
        let metrics = client_metrics.clone();
        let addr = addr.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("anor-load-driver{d}"))
                .spawn(move || run_driver(&ctl, &addr, &metrics, endpoints))?,
        );
    }
    let started = Instant::now();
    let mut stalled: Vec<String> = Vec::new();
    let want = cfg.endpoints;
    // Stage: every endpoint registered and holding a lease.
    if !pump_stage(&mut b, budget, cfg.stage_deadline, |b| {
        b.active_jobs() == want
    })? {
        stalled.push("register".to_string());
    }
    // Stage: every endpoint capped at least once.
    if stalled.is_empty()
        && !pump_stage(&mut b, budget, cfg.stage_deadline, |b| {
            b.job_caps().iter().all(|(_, cap)| cap.is_some())
        })?
    {
        stalled.push("cap".to_string());
    }
    // Stages: reconnect storms. Each bumps the epoch (drivers cut every
    // socket) and waits until every session is Connected again.
    for storm in 1..=cfg.storms {
        if !stalled.is_empty() {
            break;
        }
        ctl.storm_epoch.store(storm, Ordering::SeqCst);
        let floor = ctl.reconnects.load(Ordering::SeqCst) + want as u64;
        let ok = pump_stage(&mut b, budget, cfg.stage_deadline, |b| {
            ctl.reconnects.load(Ordering::SeqCst) >= floor
                && b.session_states()
                    .iter()
                    .all(|(_, s)| *s == SessionState::Connected)
        })?;
        if !ok {
            stalled.push(format!("storm{storm}"));
        }
    }
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    ctl.stop.store(true, Ordering::SeqCst);
    for t in threads {
        let _ = t.join();
    }
    let pump_h = telemetry.histogram("budgeter_pump_seconds", &[]);
    let snapshot = b.status_snapshot();
    let reconnects = ctl.reconnects.load(Ordering::SeqCst);
    Ok(LoadReport {
        endpoints: cfg.endpoints,
        storms: cfg.storms,
        connected: b.active_jobs(),
        accepted: snapshot.accepted,
        reconnects,
        endpoints_per_sec: (cfg.endpoints as u64 + reconnects) as f64 / elapsed,
        pump_p50_ms: pump_h.quantile(0.5) * 1e3,
        pump_p99_ms: pump_h.quantile(0.99) * 1e3,
        phases: snapshot.phases,
        backpressure_drops: b.backpressure_drops(),
        invariant_violations: b.invariant_violations(),
        allocated_watts: snapshot.allocated_watts,
        budget_watts: budget.value(),
        elapsed_s: elapsed,
        pumps: b.pump_count(),
        stalled_stages: stalled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_prints_one_line_per_pump_phase() {
        let phase = |name: &str, p50: f64, p99: f64| PhaseStat {
            phase: name.to_string(),
            p50,
            p90: p99,
            p99,
        };
        let report = LoadReport {
            endpoints: 4,
            storms: 1,
            connected: 4,
            accepted: 8,
            reconnects: 4,
            endpoints_per_sec: 80.0,
            pump_p50_ms: 0.1,
            pump_p99_ms: 0.9,
            phases: vec![phase("ingest", 2e-5, 4e-4), phase("decide", 1e-4, 3e-3)],
            backpressure_drops: 0,
            invariant_violations: 0,
            allocated_watts: 800.0,
            budget_watts: 800.0,
            elapsed_s: 0.1,
            pumps: 12,
            stalled_stages: Vec::new(),
        };
        let text = report.to_string();
        let phase_lines: Vec<&str> = text.lines().filter(|l| l.contains("phase ")).collect();
        assert_eq!(
            phase_lines,
            [
                "    phase ingest          p50 0.020 ms  p99 0.400 ms",
                "    phase decide          p50 0.100 ms  p99 3.000 ms",
            ]
        );
        assert!(text.ends_with("invariant violations: 0"), "{text}");
    }
}
