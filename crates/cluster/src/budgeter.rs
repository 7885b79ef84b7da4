//! The head-node cluster power budgeter daemon.
//!
//! Section 4: "The cluster-tier manager periodically reads cluster power
//! targets..., receives messages from nodes running jobs, calculates how
//! to distribute available power to jobs, and sends messages to inform
//! each job-tier endpoint of the job's new power cap."
//!
//! The daemon listens on TCP, or on an in-process accept queue when the
//! emulated cluster runs both tiers in one process; each job's endpoint
//! connects and introduces itself with `Hello { job, type_name, nodes }`.
//! The budgeter builds its *believed* [`JobView`] from the announced type
//! name — which may be wrong (misclassification) or unknown (then a
//! configurable default assumption applies, Section 6.1.2). With feedback
//! enabled, incoming `Model` messages replace the believed curve.
//!
//! ## Leases
//!
//! A registered job holds a *power lease*: when its connection drops the
//! budgeter keeps the job's watts reserved for [`LeaseConfig::miss_pumps`]
//! control passes so a quick endpoint reconnect resumes with an identical
//! cap. Once the lease expires the watts are reclaimed into the pool and
//! redistributed; a later `Resume` restores the registration (and is
//! answered with a `ResumeAck` carrying the last cap on record, or a
//! negative cap when there is none).

use crate::codec::TransportMetrics;
use crate::session::{FaultPlan, SessionState};
use crate::status::{JobStatus, PhaseStat, StatusBoard, StatusSnapshot};
use crate::transport::{
    build_transport, Addr, ConnId, Listener, Transport, TransportKind, TransportOptions,
};
use anor_policy::JobView;
use anor_telemetry::{
    BuildInfo, CauseId, Counter, FlightRecorder, Gauge, Histogram, RecEvent, Telemetry, Timer,
    TraceStage, Tracer,
};
use anor_types::msg::{ClusterToJob, JobToCluster};
use anor_types::{AnorError, Catalog, JobId, Result, Seconds, Watts};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// The policy table the daemon selects from. [`BudgeterBuilder::bind`]
/// refuses a policy that reads at-risk flags: the daemon projects none.
pub use anor_policy::BudgetPolicy;

/// Default identity assumed for job types the budgeter does not know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownDefault {
    /// Assume the least power-sensitive known type (under-prediction).
    LeastSensitive,
    /// Assume the most power-sensitive known type (over-prediction).
    MostSensitive,
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct BudgeterConfig {
    /// Distribution policy.
    pub policy: BudgetPolicy,
    /// Fold job-tier `Model` messages back into views?
    pub feedback: bool,
    /// Known job types (for resolving announced names).
    pub catalog: Catalog,
    /// Assumption for unknown names.
    pub unknown_default: UnknownDefault,
    /// Re-send a job's cap only when it moved by more than this.
    pub recap_threshold: Watts,
}

impl BudgeterConfig {
    /// A sensible default configuration over the standard catalog.
    pub fn new(policy: BudgetPolicy, feedback: bool) -> Self {
        BudgeterConfig {
            policy,
            feedback,
            catalog: anor_types::standard_catalog(),
            unknown_default: UnknownDefault::LeastSensitive,
            recap_threshold: Watts(1.0),
        }
    }
}

/// Power-lease liveness settings: how long a disconnected job keeps its
/// watts reserved before the budgeter reclaims them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Track per-job leases at all? When off, a lost connection removes
    /// its jobs immediately (the pre-lease behaviour).
    pub enabled: bool,
    /// Control passes a job may spend disconnected before its lease
    /// expires and its watts return to the pool.
    pub miss_pumps: u32,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig {
            enabled: true,
            miss_pumps: 200,
        }
    }
}

impl LeaseConfig {
    /// Leases off: a disconnect strands its jobs immediately.
    pub fn disabled() -> Self {
        LeaseConfig {
            enabled: false,
            miss_pumps: u32::MAX,
        }
    }

    /// Leases on with an explicit miss budget.
    pub fn after_misses(miss_pumps: u32) -> Self {
        LeaseConfig {
            enabled: true,
            miss_pumps: miss_pumps.max(1),
        }
    }
}

#[derive(Debug)]
struct JobEntry {
    view: JobView,
    conn: ConnId,
    last_cap: Option<Watts>,
    samples_seen: u64,
    models_seen: u64,
    /// `job_retrains{job}`, registered by the job's first `Model` frame.
    retrains: Option<Gauge>,
    /// Highest per-node power ever observed for the job. With feedback
    /// enabled this corrects a misclassified believed power window: a job
    /// labelled as a low-power type that is seen drawing more clearly can
    /// use more.
    peak_node_power: Watts,
    /// Consecutive samples with draw far below the assigned cap.
    under_draw_streak: u32,
    done: Option<Seconds>,
    /// Budgeter-side belief about the session carrying this job.
    state: SessionState,
    /// Control passes spent disconnected (lease countdown).
    missed_pumps: u32,
    /// Watts taken back when the lease expired — still owed to the job
    /// should it resume, and exactly what the reclaim counters reported.
    reclaimed: Option<Watts>,
}

impl JobEntry {
    fn new(view: JobView, conn: ConnId) -> Self {
        JobEntry {
            view,
            conn,
            last_cap: None,
            samples_seen: 0,
            models_seen: 0,
            retrains: None,
            peak_node_power: Watts::ZERO,
            under_draw_streak: 0,
            done: None,
            state: SessionState::Connected,
            missed_pumps: 0,
            reclaimed: None,
        }
    }

    /// Counted into the assignment? Done jobs and expired leases are not.
    fn holds_lease(&self) -> bool {
        self.done.is_none() && !self.state.is_gone()
    }
}

/// Cached metric handles for the daemon's own control loop (the
/// transport series live in [`TransportMetrics`]).
#[derive(Debug)]
struct BudgeterMetrics {
    rebalance: Histogram,
    pump: Histogram,
    /// `pump_phase_seconds{phase=...}` — the pump split into its named
    /// stages, in execution order.
    phase_ingest: Histogram,
    phase_lease_audit: Histogram,
    phase_model_observe: Histogram,
    phase_decide: Histogram,
    phase_actuate: Histogram,
    phase_invariant_audit: Histogram,
    msgs_hello: Counter,
    msgs_sample: Counter,
    msgs_model: Counter,
    msgs_done: Counter,
    msgs_resume: Counter,
    active_jobs: Gauge,
    leases_expired: Counter,
    watts_reclaimed: Gauge,
    conns_quarantined: Counter,
    audit_conservation: Counter,
    audit_double_count: Counter,
    audit_gauge_drift: Counter,
    audit_stale_session: Counter,
}

impl BudgeterMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let audit =
            |inv: &str| telemetry.counter("anor_invariant_violations_total", &[("invariant", inv)]);
        let phase = |p: &str| telemetry.histogram("pump_phase_seconds", &[("phase", p)]);
        BudgeterMetrics {
            rebalance: telemetry.histogram("budgeter_rebalance_seconds", &[]),
            pump: telemetry.histogram("budgeter_pump_seconds", &[]),
            phase_ingest: phase("ingest"),
            phase_lease_audit: phase("lease-audit"),
            phase_model_observe: phase("model-observe"),
            phase_decide: phase("decide"),
            phase_actuate: phase("actuate"),
            phase_invariant_audit: phase("invariant-audit"),
            msgs_hello: telemetry.counter("budgeter_msgs_total", &[("kind", "hello")]),
            msgs_sample: telemetry.counter("budgeter_msgs_total", &[("kind", "sample")]),
            msgs_model: telemetry.counter("budgeter_msgs_total", &[("kind", "model")]),
            msgs_done: telemetry.counter("budgeter_msgs_total", &[("kind", "done")]),
            msgs_resume: telemetry.counter("budgeter_msgs_total", &[("kind", "resume")]),
            active_jobs: telemetry.gauge("budgeter_active_jobs", &[]),
            leases_expired: telemetry.counter("leases_expired_total", &[]),
            watts_reclaimed: telemetry.gauge("watts_reclaimed", &[]),
            conns_quarantined: telemetry.counter("budgeter_conns_quarantined_total", &[]),
            audit_conservation: audit("watts_conservation"),
            audit_double_count: audit("lease_double_count"),
            audit_gauge_drift: audit("reclaim_gauge_drift"),
            audit_stale_session: audit("stale_session"),
        }
    }

    fn violations(&self) -> u64 {
        self.audit_conservation.get()
            + self.audit_double_count.get()
            + self.audit_gauge_drift.get()
            + self.audit_stale_session.get()
    }

    /// The pump phases in execution order, for the status snapshot.
    fn phases(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("ingest", &self.phase_ingest),
            ("lease-audit", &self.phase_lease_audit),
            ("model-observe", &self.phase_model_observe),
            ("decide", &self.phase_decide),
            ("actuate", &self.phase_actuate),
            ("invariant-audit", &self.phase_invariant_audit),
        ]
    }
}

/// Builder for [`ClusterBudgeter`] — its one construction path.
///
/// ```no_run
/// # use anor_cluster::budgeter::{BudgetPolicy, BudgeterConfig, ClusterBudgeter, LeaseConfig};
/// let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true);
/// let (daemon, addr) = ClusterBudgeter::builder(cfg)
///     .addr("127.0.0.1:0")
///     .lease(LeaseConfig::after_misses(50))
///     .bind()?;
/// # let _ = (daemon, addr); Ok::<(), anor_types::AnorError>(())
/// ```
#[derive(Debug)]
pub struct BudgeterBuilder {
    cfg: BudgeterConfig,
    addr: String,
    listener: Option<Listener>,
    telemetry: Option<Telemetry>,
    tracer: Option<Tracer>,
    lease: LeaseConfig,
    faults: Option<FaultPlan>,
    status: Option<StatusBoard>,
    recorder: Option<FlightRecorder>,
    transport: TransportOptions,
}

impl BudgeterBuilder {
    fn new(cfg: BudgeterConfig) -> Self {
        BudgeterBuilder {
            cfg,
            addr: "127.0.0.1:0".to_string(),
            listener: None,
            telemetry: None,
            tracer: None,
            lease: LeaseConfig::default(),
            faults: None,
            status: None,
            recorder: None,
            transport: TransportOptions::default(),
        }
    }

    /// Listen address (default `127.0.0.1:0`, an ephemeral port).
    pub fn addr(mut self, addr: &str) -> Self {
        self.addr = addr.to_string();
        self
    }

    /// Adopt a listener instead of binding `addr`: an already-bound
    /// `TcpListener`, which is how a restarted daemon keeps its port (and
    /// how tests kill and revive a budgeter without racing `TIME_WAIT`),
    /// or [`Listener::in_process`], which binds no port at all.
    pub fn listener(mut self, listener: impl Into<Listener>) -> Self {
        self.listener = Some(listener.into());
        self
    }

    /// Record into a shared [`Telemetry`] handle instead of a private
    /// in-memory one.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// Trace every rebalance decision, cap send, inbound sample, and
    /// lease transition into `tracer`; on peer failures the flight
    /// recorder is dumped to disk.
    pub fn tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = Some(tracer.clone());
        self
    }

    /// Power-lease liveness settings (default: [`LeaseConfig::default`]).
    pub fn lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = lease;
        self
    }

    /// Inject chaos into every accepted connection: each gets its own
    /// [`FaultPlan::fork`] of `plan`, salted by accept order.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Publish a [`StatusSnapshot`] into `board` at the end of every
    /// control pass (the live `GET /status` surface).
    pub fn status(mut self, board: StatusBoard) -> Self {
        self.status = Some(board);
        self
    }

    /// Flight-record every inbound wire frame, connection and lease
    /// transition, pump trigger and emitted cap decision into `recorder`
    /// so `anor-replay` can reproduce the run offline bit-for-bit. Use
    /// [`crate::replay::recorder_meta`] to stamp the recording with a
    /// replay-compatible config description.
    pub fn recorder(mut self, recorder: FlightRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Which connection plane to run (default [`TransportKind::Blocking`]).
    /// The recorded decision stream is byte-identical across planes —
    /// [`TransportKind::Reactor`] changes fan-in capacity, not decisions.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport.kind = kind;
        self
    }

    /// Reactor shard count (ignored by the blocking plane; clamped to at
    /// least 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.transport.shards = shards.max(1);
        self
    }

    /// Per-connection bounded-queue depth: ingress pauses reads past this
    /// many undrained frames, egress drops (and counts) frames past
    /// `depth × 256` unflushed bytes. See [`crate::transport`].
    pub fn conn_queue_depth(mut self, depth: usize) -> Self {
        self.transport.conn_queue_depth = depth.max(1);
        self
    }

    /// Bind (or adopt the supplied listener) and construct the daemon.
    /// Returns the daemon and the address endpoints should dial.
    /// Fails with a config error for a policy that reads at-risk flags
    /// ([`BudgetPolicy::reads_at_risk`]): the daemon projects none.
    pub fn bind(self) -> Result<(ClusterBudgeter, Addr)> {
        if self.cfg.policy.reads_at_risk() {
            return Err(AnorError::config(format!(
                "policy `{}` needs at-risk projections the daemon does not make; \
                 it runs only in the simulator",
                self.cfg.policy.name()
            )));
        }
        let listener = match self.listener {
            Some(l) => l,
            None => TcpListener::bind(self.addr.as_str())?.into(),
        };
        let addr = listener.addr()?;
        let telemetry = self.telemetry.unwrap_or_default();
        let transport_metrics = TransportMetrics::new(&telemetry, "budgeter");
        let metrics = BudgeterMetrics::new(&telemetry);
        let transport = build_transport(
            &self.transport,
            listener,
            &telemetry,
            transport_metrics,
            self.faults,
        )?;
        Ok((
            ClusterBudgeter {
                cfg: self.cfg,
                transport,
                jobs: BTreeMap::new(),
                completed: Vec::new(),
                telemetry,
                metrics,
                tracer: self.tracer,
                lease: self.lease,
                accepted: 0,
                status: self.status,
                pumps: 0,
                last_budget: Watts::ZERO,
                audit_dumped: AuditDumped::default(),
                recorder: self.recorder,
                replay: None,
                model_observe_s: 0.0,
            },
            addr,
        ))
    }
}

/// The invariant families the continuous auditor checks each pump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AuditKind {
    Conservation,
    DoubleCount,
    GaugeDrift,
    StaleSession,
}

impl AuditKind {
    fn name(self) -> &'static str {
        match self {
            AuditKind::Conservation => "watts_conservation",
            AuditKind::DoubleCount => "lease_double_count",
            AuditKind::GaugeDrift => "reclaim_gauge_drift",
            AuditKind::StaleSession => "stale_session",
        }
    }
}

/// Tracks which invariant kinds already dumped a postmortem, so a
/// persistent violation costs one flight-recorder dump, not one per pump.
#[derive(Debug, Default)]
struct AuditDumped {
    conservation: bool,
    double_count: bool,
    gauge_drift: bool,
    stale_session: bool,
}

/// Replay-mode I/O substitution: when attached, the budgeter reads no
/// sockets — the replayer injects recorded frames and connection
/// transitions directly, outbound frames are captured instead of sent,
/// and decision cause ids come from the recorded feed rather than the
/// tracer (tracer counters are shared across components, so re-minting
/// would not reproduce the recorded wire bytes).
#[derive(Debug, Default)]
pub(crate) struct ReplayIo {
    /// Virtual connection liveness, by recorded slot index.
    open: Vec<bool>,
    /// Captured outbound frames `(conn, body)` in emission order.
    out: Vec<(usize, bytes::Bytes)>,
    /// Recorded decision cause ids, consumed in mint order.
    causes: VecDeque<u64>,
}

/// The budgeter daemon (pump-driven).
#[derive(Debug)]
pub struct ClusterBudgeter {
    cfg: BudgeterConfig,
    /// The connection plane: blocking sweeps or the sharded reactor.
    /// Session logic above this seam addresses peers by [`ConnId`] only.
    transport: Box<dyn Transport>,
    // Ordered so every pump-phase walk (lease ticks, redistribution,
    // audits, status snapshots) visits jobs in JobId order: the audit's
    // float sums and the recorded decision stream must not depend on
    // hasher seeding.
    jobs: BTreeMap<JobId, JobEntry>,
    completed: Vec<(JobId, Seconds)>,
    telemetry: Telemetry,
    metrics: BudgeterMetrics,
    tracer: Option<Tracer>,
    lease: LeaseConfig,
    accepted: u64,
    status: Option<StatusBoard>,
    pumps: u64,
    last_budget: Watts,
    audit_dumped: AuditDumped,
    recorder: Option<FlightRecorder>,
    replay: Option<ReplayIo>,
    /// Seconds spent in `Sample`/`Model` handling during the current
    /// pump (the model-observe phase, carved out of ingest).
    model_observe_s: f64,
}

impl ClusterBudgeter {
    /// Start building a daemon over `cfg`. See [`BudgeterBuilder`].
    pub fn builder(cfg: BudgeterConfig) -> BudgeterBuilder {
        BudgeterBuilder::new(cfg)
    }

    /// The telemetry handle this daemon records into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Tear the daemon down but keep its listener: a restarted budgeter
    /// built with [`BudgeterBuilder::listener`] keeps the same address,
    /// so endpoints' reconnect loops find it again. All session state
    /// (jobs, leases, caps) dies with the daemon — resuming endpoints
    /// re-register via `Resume`. Reactor shard threads are stopped and
    /// joined before the listener is handed back.
    pub fn into_listener(self) -> Listener {
        self.transport.into_listener()
    }

    /// Park until inbound traffic is plausibly available or `timeout`
    /// elapses (at most one millisecond on the blocking plane, which has
    /// no readiness signal). `true` means input arrived. Callers pumping
    /// in a loop should wait here between passes instead of sleeping.
    pub fn wait_readable(&self, timeout: Duration) -> bool {
        self.transport.wait_readable(timeout)
    }

    /// Outbound frames dropped to egress backpressure so far (slow or
    /// stalled endpoints; always zero on the blocking plane).
    pub fn backpressure_drops(&self) -> u64 {
        self.transport.backpressure_drops()
    }

    /// Which connection plane this daemon runs.
    pub fn transport_kind(&self) -> TransportKind {
        self.transport.kind()
    }

    /// One control pass: accept connections, ingest messages, advance
    /// lease countdowns, recompute the assignment over active jobs for
    /// `busy_budget` (total CPU watts for all job-occupied nodes), send
    /// changed caps, audit the watts-conservation invariants, and publish
    /// a status snapshot when a [`StatusBoard`] is attached.
    pub fn pump(&mut self, busy_budget: Watts) -> Result<()> {
        let _timer = Timer::start(self.metrics.pump.clone());
        self.pumps += 1;
        self.last_budget = busy_budget;
        if let Some(r) = &self.recorder {
            r.record(&RecEvent::PumpStart {
                pump: self.pumps,
                budget: busy_budget.value(),
            });
        }
        // Phase: ingest (minus the model-observe time carved out below).
        self.model_observe_s = 0.0;
        let ingest_started = Instant::now();
        if self.replay.is_none() {
            self.accept_new()?;
            self.ingest()?;
        }
        let ingest_s = (ingest_started.elapsed().as_secs_f64() - self.model_observe_s).max(0.0);
        self.metrics.phase_ingest.observe(ingest_s);
        self.metrics
            .phase_model_observe
            .observe(self.model_observe_s);
        // Phase: lease-audit.
        let lease_started = Instant::now();
        self.tick_leases();
        self.metrics
            .phase_lease_audit
            .observe(lease_started.elapsed().as_secs_f64());
        // Phases decide + actuate are observed inside redistribute.
        let out = self.redistribute(busy_budget);
        self.metrics.active_jobs.set(self.active_jobs() as f64);
        // Phase: invariant-audit (including status publication).
        let audit_started = Instant::now();
        self.audit(busy_budget);
        self.publish_status();
        self.metrics
            .phase_invariant_audit
            .observe(audit_started.elapsed().as_secs_f64());
        out
    }

    fn accept_new(&mut self) -> Result<()> {
        for id in self.transport.accept()? {
            self.accepted += 1;
            if let Some(r) = &self.recorder {
                r.record(&RecEvent::ConnOpen { conn: id.value() });
            }
        }
        Ok(())
    }

    fn resolve_view(&self, job: JobId, type_name: &str, nodes: u32) -> Result<JobView> {
        let fallback = || match self.cfg.unknown_default {
            UnknownDefault::LeastSensitive => self.cfg.catalog.least_sensitive(),
            UnknownDefault::MostSensitive => self.cfg.catalog.most_sensitive(),
        };
        let spec = match self.cfg.catalog.find(type_name).or_else(fallback) {
            Some(spec) => spec,
            None => {
                // An empty catalog cannot resolve anything — a daemon
                // configuration error, not grounds for a panic mid-pump.
                return Err(AnorError::config(
                    "budgeter catalog is empty; cannot resolve any job type",
                ));
            }
        };
        let mut view = JobView::from_spec(job, spec);
        // A job announcing zero nodes still holds one: budgeting, the
        // lease reclaim, sample normalisation and the auditor all read
        // this count.
        view.nodes = nodes.max(1);
        Ok(view)
    }

    fn ingest(&mut self) -> Result<()> {
        // `poll_readable` yields ids in ascending accept order on every
        // plane — the deterministic drain order the recorded decision
        // stream depends on.
        for id in self.transport.poll_readable() {
            // A misbehaving peer (malformed frames, oversized length
            // prefix) must not take the daemon down — and must not spin
            // the pump loop either: quarantine the connection (hard
            // shutdown + counter + postmortem) so a reject-storm from a
            // hostile or corrupted peer costs one pass, not every pass.
            let (frames, mut closed) = match self.transport.read_frames(id) {
                Ok(drained) => drained,
                Err(AnorError::Protocol(e)) => {
                    self.transport.shutdown(id);
                    self.metrics.conns_quarantined.inc();
                    // Length-prefix corruption is caught below decode, so
                    // no FrameIn exists for the replayer to re-trip on —
                    // the quarantine is recorded as its own event and
                    // applied as such on replay.
                    if let Some(r) = &self.recorder {
                        r.record(&RecEvent::ConnQuarantined { conn: id.value() });
                    }
                    if let Some(t) = &self.tracer {
                        t.record_detail(TraceStage::TransportError, CauseId::NONE, &e);
                        t.dump_postmortem("budgeter-protocol-error");
                    }
                    (Vec::new(), true)
                }
                Err(e) => return Err(e),
            };
            for body in frames {
                if self.process_frame(id, body)? {
                    closed = true;
                    break;
                }
            }
            if closed {
                self.disconnect_conn(id);
            }
        }
        Ok(())
    }

    /// Handle one decoded-or-rejected inbound frame body on `conn`.
    /// Returns `true` when the frame poisoned its connection (malformed:
    /// the conn is quarantined and must be torn down by the caller).
    /// This is the single code path for live ingest *and* replay
    /// injection, so a recording replays through exactly the logic that
    /// produced it.
    fn process_frame(&mut self, id: ConnId, body: bytes::Bytes) -> Result<bool> {
        if let Some(r) = &self.recorder {
            r.record(&RecEvent::FrameIn {
                conn: id.value(),
                body: body.to_vec(),
            });
        }
        let msg = match JobToCluster::decode(body) {
            Ok(m) => m,
            Err(e) => {
                self.transport.shutdown(id);
                // On replay the recorded ConnQuarantined event drives the
                // counter, so re-tripping here must not double-count.
                if self.replay.is_none() {
                    self.metrics.conns_quarantined.inc();
                    if let Some(r) = &self.recorder {
                        r.record(&RecEvent::ConnQuarantined { conn: id.value() });
                    }
                }
                if let Some(t) = &self.tracer {
                    t.record_detail(
                        TraceStage::TransportError,
                        CauseId::NONE,
                        &format!("malformed frame: {e}"),
                    );
                    t.dump_postmortem("budgeter-malformed-frame");
                }
                return Ok(true);
            }
        };
        match msg {
            JobToCluster::Hello {
                job,
                type_name,
                nodes,
            } => {
                self.metrics.msgs_hello.inc();
                self.telemetry.event(
                    "budgeter_hello",
                    &[
                        ("job", job.0.into()),
                        ("type", type_name.as_str().into()),
                        ("nodes", u64::from(nodes).into()),
                    ],
                );
                let view = self.resolve_view(job, &type_name, nodes)?;
                self.jobs.insert(job, JobEntry::new(view, id));
            }
            JobToCluster::Resume {
                job,
                type_name,
                nodes,
                believed_cap,
                cause,
            } => {
                self.metrics.msgs_resume.inc();
                self.telemetry.event(
                    "budgeter_resume",
                    &[
                        ("job", job.0.into()),
                        ("believed_cap", believed_cap.value().into()),
                    ],
                );
                if let Some(t) = &self.tracer {
                    t.record_job(
                        TraceStage::Resume,
                        CauseId(cause),
                        job.0,
                        Some(believed_cap.value()),
                    );
                }
                if !self.jobs.contains_key(&job) {
                    // No record of this job (the daemon restarted,
                    // or it was evicted): re-register from the
                    // resume announcement as if it were a Hello.
                    let view = self.resolve_view(job, &type_name, nodes)?;
                    self.jobs.insert(job, JobEntry::new(view, id));
                }
                let mut restored = None;
                let mut ack_cap = Watts(-1.0);
                if let Some(e) = self.jobs.get_mut(&job) {
                    e.conn = id;
                    e.missed_pumps = 0;
                    e.state = SessionState::Connected;
                    restored = e.reclaimed.take();
                    if let Some(cap) = e.last_cap {
                        ack_cap = cap;
                    }
                }
                if let Some(w) = restored {
                    let g = &self.metrics.watts_reclaimed;
                    g.set((g.get() - w.value()).max(0.0));
                    if let Some(r) = &self.recorder {
                        r.record(&RecEvent::LeaseRestored {
                            job: job.0,
                            watts: w.value(),
                        });
                    }
                    if let Some(t) = &self.tracer {
                        t.record_full(
                            TraceStage::LeaseRestored,
                            CauseId(cause),
                            Some(job.0),
                            Some(w.value()),
                            Some(format!("{w} restored to resumed job")),
                        );
                    }
                }
                self.send_to_conn(
                    id,
                    ClusterToJob::ResumeAck {
                        cap: ack_cap,
                        cause,
                    }
                    .encode(),
                )?;
            }
            JobToCluster::Sample(s) => {
                self.metrics.msgs_sample.inc();
                let observe_started = Instant::now();
                if let Some(t) = &self.tracer {
                    t.record_job(
                        TraceStage::SampleRx,
                        CauseId(s.cause),
                        s.job.0,
                        Some(s.avg_power.value()),
                    );
                }
                if let Some(e) = self.jobs.get_mut(&s.job) {
                    e.missed_pumps = 0;
                    e.samples_seen += 1;
                    let per_node = s.avg_power / e.view.nodes as f64;
                    e.peak_node_power = e.peak_node_power.max(per_node);
                    if self.cfg.feedback {
                        if per_node.value() > e.view.max_draw.value() + 1.0 {
                            // Observation contradicts the believed
                            // power window: widen it.
                            e.view.max_draw = per_node;
                        }
                        // Slack reclaim (Section 7.2): a job whose
                        // draw sits far below its assigned cap
                        // (setup/teardown, I/O stall) donates its
                        // headroom back to the pool; a job pinned
                        // at its cap probes upward so a shrunken
                        // window can recover.
                        if let Some(cap) = e.last_cap {
                            let ratio = per_node / cap;
                            if ratio < 0.7 {
                                e.under_draw_streak += 1;
                                if e.under_draw_streak >= 3 {
                                    e.view.max_draw = (per_node * 1.05).max(e.view.cap_range.min);
                                }
                            } else {
                                e.under_draw_streak = 0;
                                if ratio > 0.98 && e.view.max_draw.value() <= cap.value() * 1.05 {
                                    e.view.max_draw =
                                        (e.view.max_draw + Watts(10.0)).min(e.view.cap_range.max);
                                }
                            }
                        }
                    }
                }
                self.model_observe_s += observe_started.elapsed().as_secs_f64();
            }
            JobToCluster::Model {
                job, curve, cause, ..
            } => {
                self.metrics.msgs_model.inc();
                let observe_started = Instant::now();
                if let Some(t) = &self.tracer {
                    t.record_job(TraceStage::ModelRx, CauseId(cause), job.0, None);
                }
                if let Some(e) = self.jobs.get_mut(&job) {
                    e.missed_pumps = 0;
                    e.models_seen += 1;
                    // The "per-job retrain count" the summary
                    // table reports: every Model push is one
                    // retrain at the job tier.
                    let telemetry = &self.telemetry;
                    e.retrains
                        .get_or_insert_with(|| {
                            telemetry.gauge("job_retrains", &[("job", &job.0.to_string())])
                        })
                        .set(e.models_seen as f64);
                    if self.cfg.feedback {
                        e.view = e.view.clone().with_curve(curve);
                    }
                }
                self.model_observe_s += observe_started.elapsed().as_secs_f64();
            }
            JobToCluster::Done { job, elapsed } => {
                self.metrics.msgs_done.inc();
                self.telemetry.event(
                    "budgeter_job_done",
                    &[("job", job.0.into()), ("elapsed_s", elapsed.value().into())],
                );
                if let Some(e) = self.jobs.get_mut(&job) {
                    e.missed_pumps = 0;
                    e.done = Some(elapsed);
                }
                self.completed.push((job, elapsed));
            }
        }
        Ok(false)
    }

    /// Tear down connection `conn`'s session bookkeeping: postmortem any
    /// jobs it carried, start their lease countdowns (or strand them when
    /// leases are off), and free the slot. Shared between live ingest and
    /// replayed `ConnClosed` events.
    fn disconnect_conn(&mut self, conn: ConnId) {
        if let Some(r) = &self.recorder {
            r.record(&RecEvent::ConnClosed { conn: conn.value() });
        }
        let lost: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, e)| e.conn == conn && e.done.is_none() && e.state.is_connected())
            .map(|(&id, _)| id)
            .collect();
        if !lost.is_empty() {
            if let Some(t) = &self.tracer {
                t.record_detail(
                    TraceStage::Disconnect,
                    CauseId::NONE,
                    &format!("conn {conn} lost with {} active job(s)", lost.len()),
                );
                t.dump_postmortem("endpoint-disconnect");
            }
        }
        if self.lease.enabled {
            // The lease keeps these jobs' watts reserved: mark them
            // reconnecting and start the miss countdown.
            for id in lost {
                if let Some(e) = self.jobs.get_mut(&id) {
                    e.state = SessionState::Reconnecting { attempt: 0 };
                }
            }
        } else {
            // Pre-lease behaviour: a lost connection strands its jobs
            // immediately.
            self.jobs.retain(|_, e| e.conn != conn || e.done.is_some());
        }
        self.transport.release(conn);
    }

    /// Is connection `conn` live? In replay mode liveness comes from
    /// the recorded connection transitions, not real sockets.
    fn conn_slot_live(&self, conn: ConnId) -> bool {
        match &self.replay {
            Some(rio) => rio.open.get(conn.index()).copied().unwrap_or(false),
            None => self.transport.is_open(conn),
        }
    }

    /// Send `frame` (an un-length-prefixed message body) to `conn`,
    /// recording it as a `DecisionTx` exactly when a send really happens.
    /// In replay mode the frame is captured for byte-comparison instead
    /// of being written to a socket.
    fn send_to_conn(&mut self, conn: ConnId, frame: bytes::Bytes) -> Result<()> {
        if let Some(rio) = self.replay.as_mut() {
            if rio.open.get(conn.index()).copied().unwrap_or(false) {
                rio.out.push((conn.index(), frame));
            }
            return Ok(());
        }
        if self.transport.is_open(conn) {
            if let Some(r) = &self.recorder {
                r.record(&RecEvent::DecisionTx {
                    conn: conn.value(),
                    frame: frame.to_vec(),
                });
            }
            // The decision is recorded above even if the transport then
            // drops the frame to egress backpressure: recordings are the
            // *decision* stream, and delivery is the transport's problem.
            self.transport.write_frame(conn, frame)?;
        }
        Ok(())
    }

    /// Advance the lease countdown for every disconnected job; expire
    /// leases whose miss budget ran out, reclaiming their watts into the
    /// pool (the very next redistribute pass hands them to the surviving
    /// jobs).
    fn tick_leases(&mut self) {
        if !self.lease.enabled {
            return;
        }
        let mut expired: Vec<(JobId, Watts)> = Vec::new();
        for (&id, e) in self.jobs.iter_mut() {
            if !e.holds_lease() {
                continue;
            }
            let connected = match &self.replay {
                Some(rio) => rio.open.get(e.conn.index()).copied().unwrap_or(false),
                None => self.transport.is_live(e.conn),
            };
            if connected {
                continue;
            }
            e.missed_pumps = e.missed_pumps.saturating_add(1);
            e.state = SessionState::Reconnecting {
                attempt: e.missed_pumps,
            };
            if e.missed_pumps >= self.lease.miss_pumps {
                let watts = e.last_cap.unwrap_or(Watts::ZERO) * f64::from(e.view.nodes);
                e.state = SessionState::Gone;
                e.reclaimed = Some(watts);
                expired.push((id, watts));
            }
        }
        for (id, watts) in expired {
            self.metrics.leases_expired.inc();
            let g = &self.metrics.watts_reclaimed;
            g.set(g.get() + watts.value());
            if let Some(r) = &self.recorder {
                r.record(&RecEvent::LeaseExpired {
                    job: id.0,
                    watts: watts.value(),
                });
            }
            self.telemetry.event(
                "budgeter_lease_expired",
                &[("job", id.0.into()), ("watts", watts.value().into())],
            );
            if let Some(t) = &self.tracer {
                let cause = t.next_cause();
                t.record_full(
                    TraceStage::LeaseExpired,
                    cause,
                    Some(id.0),
                    Some(watts.value()),
                    Some(format!(
                        "lease expired after {} missed pump(s); {watts} reclaimed",
                        self.lease.miss_pumps
                    )),
                );
                t.dump_postmortem("lease-expired");
            }
        }
    }

    fn redistribute(&mut self, busy_budget: Watts) -> Result<()> {
        let decide_started = Instant::now();
        // Ids and views in one pass over the map, so they stay aligned
        // and come out in `JobId` order. Expired leases are excluded:
        // their watts are back in the pool.
        let (ids, views): (Vec<JobId>, Vec<JobView>) = self
            .jobs
            .iter()
            .filter(|(_, e)| e.holds_lease())
            .map(|(&id, e)| (id, e.view.clone()))
            .unzip();
        if ids.is_empty() {
            self.metrics
                .phase_decide
                .observe(decide_started.elapsed().as_secs_f64());
            self.metrics.phase_actuate.observe(0.0);
            return Ok(());
        }
        // Latency of an actual rebalance; empty passes are not observed
        // so the percentiles describe real redistribution work.
        let _timer = Timer::start(self.metrics.rebalance.clone());
        let caps = self.cfg.policy.assign(busy_budget, &views, &[]);
        // Which caps moved enough to resend?
        let changed: Vec<(JobId, Watts)> = ids
            .iter()
            .zip(caps)
            .filter(|(id, cap)| {
                self.jobs.get(id).is_some_and(|e| {
                    e.last_cap.is_none_or(|prev| {
                        (prev - *cap).abs().value() > self.cfg.recap_threshold.value()
                    })
                })
            })
            .map(|(id, cap)| (*id, cap))
            .collect();
        if changed.is_empty() {
            self.metrics
                .phase_decide
                .observe(decide_started.elapsed().as_secs_f64());
            self.metrics.phase_actuate.observe(0.0);
            return Ok(());
        }
        // One decision id covers every cap this rebalance re-issues; a
        // pass that re-sends nothing mints nothing (no phantom orphans).
        // The tracer's cause counter is shared across components, so its
        // value depends on interleaving a replay cannot reproduce: the
        // mint is recorded, and replay consumes the recorded feed so the
        // re-emitted cap frames stay byte-identical.
        let cause = if let Some(rio) = self.replay.as_mut() {
            CauseId(rio.causes.pop_front().unwrap_or(0))
        } else {
            let c = match &self.tracer {
                Some(t) => {
                    let c = t.next_cause();
                    t.record_full(
                        TraceStage::Decision,
                        c,
                        None,
                        Some(busy_budget.value()),
                        Some(format!("{} cap(s) re-issued", changed.len())),
                    );
                    c
                }
                None => CauseId::NONE,
            };
            if let Some(r) = &self.recorder {
                r.record(&RecEvent::CauseMinted { cause: c.0 });
            }
            c
        };
        self.metrics
            .phase_decide
            .observe(decide_started.elapsed().as_secs_f64());
        let actuate_started = Instant::now();
        for (id, cap) in changed {
            let Some(entry) = self.jobs.get_mut(&id) else {
                continue;
            };
            entry.last_cap = Some(cap);
            let conn = entry.conn;
            if self.conn_slot_live(conn) {
                if let Some(t) = &self.tracer {
                    t.record_job(TraceStage::CapTx, cause, id.0, Some(cap.value()));
                }
                self.send_to_conn(
                    conn,
                    ClusterToJob::SetPowerCap {
                        cap,
                        cause: cause.0,
                    }
                    .encode(),
                )?;
            }
        }
        self.metrics
            .phase_actuate
            .observe(actuate_started.elapsed().as_secs_f64());
        Ok(())
    }

    /// Continuous invariant audit, run at the tail of every control pass
    /// (the pump is single-threaded, so auditing inline *is* continuous —
    /// every pass is checked, and the checks are O(jobs) over state the
    /// pass just touched).
    ///
    /// Invariants:
    ///
    /// 1. **watts conservation** — Σ last-cap × nodes over lease holders
    ///    stays within the busy budget (or the Σ of per-job minimum-cap
    ///    floors when the budget is infeasible), plus one
    ///    `recap_threshold` of slack per job (caps within the threshold
    ///    of their ideal assignment are deliberately not re-sent);
    /// 2. **lease double-count** — watts owed on an expired lease imply
    ///    the job is `Gone`: a job that is simultaneously owed reclaimed
    ///    watts *and* holding a lease would be counted twice;
    /// 3. **reclaim gauge drift** — the `watts_reclaimed` gauge equals
    ///    the Σ of per-job owed watts;
    /// 4. **stale session** — a `Connected` job's conn slot exists, and a
    ///    `Reconnecting` job has not out-lived its lease miss budget.
    ///
    /// Each violation increments `anor_invariant_violations_total`
    /// (labelled by invariant), emits an `invariant_violation` event and
    /// trace record, and dumps one postmortem per invariant kind.
    fn audit(&mut self, busy_budget: Watts) {
        let mut violations: Vec<(AuditKind, String)> = Vec::new();
        for (&id, e) in &self.jobs {
            if e.reclaimed.is_some() && !e.state.is_gone() {
                violations.push((
                    AuditKind::DoubleCount,
                    format!(
                        "job {} owed reclaimed watts while its session is {}",
                        id.0,
                        e.state.label()
                    ),
                ));
            }
            if !e.holds_lease() {
                continue;
            }
            match e.state {
                SessionState::Connected => {
                    if !self.conn_slot_live(e.conn) {
                        violations.push((
                            AuditKind::StaleSession,
                            format!(
                                "job {} believed connected but conn slot {} is closed",
                                id.0, e.conn
                            ),
                        ));
                    }
                }
                SessionState::Reconnecting { .. } => {
                    if self.lease.enabled && e.missed_pumps >= self.lease.miss_pumps {
                        violations.push((
                            AuditKind::StaleSession,
                            format!(
                                "job {} reconnecting past its lease budget ({} >= {})",
                                id.0, e.missed_pumps, self.lease.miss_pumps
                            ),
                        ));
                    }
                }
                SessionState::Gone => {}
            }
        }
        let owed: f64 = self
            .jobs
            .values()
            .filter_map(|e| e.reclaimed)
            .fold(0.0, |acc, w| acc + w.value());
        let gauge = self.metrics.watts_reclaimed.get();
        if (owed - gauge).abs() > 0.5 {
            violations.push((
                AuditKind::GaugeDrift,
                format!("watts_reclaimed gauge reads {gauge:.2} W but {owed:.2} W owed on leases"),
            ));
        }
        let (allocated, floor, nodes) = self.allocation();
        // Caps are per node and a cap within `recap_threshold` of its
        // ideal assignment is deliberately not re-sent, so the tolerated
        // drift scales with the node count, not the job count.
        let slack = nodes * self.cfg.recap_threshold.value() + 1e-6;
        let allowed = busy_budget.value().max(floor) + slack;
        if allocated > allowed {
            violations.push((
                AuditKind::Conservation,
                format!(
                    "allocated {allocated:.2} W across {nodes} leased node(s) exceeds \
                     budget {:.2} W (min-cap floor {floor:.2} W, slack {slack:.2} W)",
                    busy_budget.value()
                ),
            ));
        }
        for (kind, detail) in violations {
            self.flag_violation(kind, &detail);
        }
    }

    /// (Σ last-cap × nodes, Σ min-cap × nodes, Σ nodes) over jobs
    /// holding a live lease.
    fn allocation(&self) -> (f64, f64, f64) {
        let mut allocated = 0.0;
        let mut floor = 0.0;
        let mut nodes_total = 0.0;
        for e in self.jobs.values().filter(|e| e.holds_lease()) {
            let nodes = f64::from(e.view.nodes);
            nodes_total += nodes;
            floor += e.view.cap_range.min.value() * nodes;
            if let Some(cap) = e.last_cap {
                allocated += cap.value() * nodes;
            }
        }
        (allocated, floor, nodes_total)
    }

    fn flag_violation(&mut self, kind: AuditKind, detail: &str) {
        let (counter, dumped) = match kind {
            AuditKind::Conservation => (
                &self.metrics.audit_conservation,
                &mut self.audit_dumped.conservation,
            ),
            AuditKind::DoubleCount => (
                &self.metrics.audit_double_count,
                &mut self.audit_dumped.double_count,
            ),
            AuditKind::GaugeDrift => (
                &self.metrics.audit_gauge_drift,
                &mut self.audit_dumped.gauge_drift,
            ),
            AuditKind::StaleSession => (
                &self.metrics.audit_stale_session,
                &mut self.audit_dumped.stale_session,
            ),
        };
        counter.inc();
        self.telemetry.event(
            "invariant_violation",
            &[("invariant", kind.name().into()), ("detail", detail.into())],
        );
        if let Some(t) = &self.tracer {
            t.record_detail(TraceStage::InvariantViolation, CauseId::NONE, detail);
            if !*dumped {
                *dumped = true;
                t.dump_postmortem(&format!("invariant-{}", kind.name()));
            }
        }
    }

    /// Build the live status snapshot served on `GET /status`: cheap
    /// reads over state the pump already maintains (no recomputation, no
    /// message traffic).
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let mut jobs: Vec<JobStatus> = self
            .jobs
            .iter()
            .map(|(&id, e)| JobStatus {
                job: id.0,
                state: e.state.label().to_string(),
                missed_pumps: e.missed_pumps,
                cap: e.last_cap.map(|w| w.value()),
                nodes: e.view.nodes,
                samples: e.samples_seen,
                models: e.models_seen,
                reclaimed: e.reclaimed.map(|w| w.value()),
                done: e.done.is_some(),
            })
            .collect();
        jobs.sort_unstable_by_key(|j| j.job);
        let (allocated, _, _) = self.allocation();
        let info = BuildInfo::current();
        let mut phases: Vec<PhaseStat> = self
            .metrics
            .phases()
            .iter()
            .map(|(name, h)| PhaseStat {
                phase: (*name).to_string(),
                p50: h.quantile(0.5),
                p90: h.quantile(0.9),
                p99: h.quantile(0.99),
            })
            .collect();
        // The reactor contributes one ingest row per shard, so the PHASE
        // pane shows where fan-in time is going.
        phases.extend(self.transport.shard_phases());
        StatusSnapshot {
            budget: self.last_budget.value(),
            pumps: self.pumps,
            active_jobs: self.active_jobs(),
            conns_open: match &self.replay {
                Some(rio) => rio.open.iter().filter(|o| **o).count(),
                None => self.transport.open_conns(),
            },
            accepted: self.accepted,
            completed: self.completed.len(),
            allocated_watts: allocated,
            reclaimed_watts: self.reclaimed_watts().value(),
            invariant_violations: self.metrics.violations(),
            pump_p50: self.metrics.pump.quantile(0.5),
            pump_p90: self.metrics.pump.quantile(0.9),
            pump_p99: self.metrics.pump.quantile(0.99),
            ring_depth: self.tracer.as_ref().map_or(0, Tracer::ring_depth),
            trace_recorded: self.tracer.as_ref().map_or(0, Tracer::recorded),
            postmortems: self.tracer.as_ref().map_or(0, Tracer::postmortems),
            build_version: info.version.clone(),
            git_hash: info.git_hash.clone(),
            phases,
            jobs,
        }
    }

    fn publish_status(&self) {
        if let Some(board) = &self.status {
            board.publish(&self.status_snapshot());
        }
    }

    /// Control passes executed so far.
    pub fn pump_count(&self) -> u64 {
        self.pumps
    }

    // ---- replay-mode hooks (driven by `crate::replay`) ---------------

    /// Detach the daemon from its sockets: all subsequent I/O comes from
    /// replayed events, and outbound frames are captured for comparison.
    pub(crate) fn replay_begin(&mut self) {
        self.replay = Some(ReplayIo::default());
    }

    /// Apply a recorded `ConnOpen`: slot `conn` becomes virtually live.
    pub(crate) fn replay_conn_open(&mut self, conn: usize) {
        self.accepted += 1;
        if let Some(rio) = self.replay.as_mut() {
            if rio.open.len() <= conn {
                rio.open.resize(conn + 1, false);
            }
            if let Some(slot) = rio.open.get_mut(conn) {
                *slot = true;
            }
        }
    }

    /// Apply a recorded `ConnClosed`: mark the slot dead and run the
    /// live disconnect bookkeeping (lease countdowns, postmortems).
    pub(crate) fn replay_conn_closed(&mut self, conn: usize) {
        if let Some(rio) = self.replay.as_mut() {
            if let Some(slot) = rio.open.get_mut(conn) {
                *slot = false;
            }
        }
        self.disconnect_conn(ConnId::new(conn as u32));
    }

    /// Apply a recorded `ConnQuarantined`: count it. (Recordings pair a
    /// quarantine with a `ConnClosed`, which does the teardown; frame-
    /// level quarantines additionally re-trip inside `process_frame`,
    /// which skips the counter in replay mode to avoid double-counting.)
    pub(crate) fn replay_conn_quarantined(&mut self, _conn: usize) {
        self.metrics.conns_quarantined.inc();
    }

    /// Inject a recorded inbound frame body through the real decode and
    /// session paths. Returns `true` when the frame was malformed (the
    /// recording carries the resulting quarantine/close as events).
    pub(crate) fn replay_inject(&mut self, conn: usize, body: bytes::Bytes) -> Result<bool> {
        self.process_frame(ConnId::new(conn as u32), body)
    }

    /// Queue a recorded decision cause id for the next cap-reissuing
    /// redistribute pass.
    pub(crate) fn replay_feed_cause(&mut self, cause: u64) {
        if let Some(rio) = self.replay.as_mut() {
            rio.causes.push_back(cause);
        }
    }

    /// Drain the outbound frames captured since the last call, in
    /// emission order.
    pub(crate) fn replay_take_out(&mut self) -> Vec<(usize, bytes::Bytes)> {
        self.replay
            .as_mut()
            .map(|rio| std::mem::take(&mut rio.out))
            .unwrap_or_default()
    }

    /// Invariant-auditor violations observed so far (all kinds).
    pub fn invariant_violations(&self) -> u64 {
        self.metrics.violations()
    }

    /// Test-only corruption hook: skew a job's accounting (phantom
    /// reclaimed watts plus an inflated cap) so the continuous auditor's
    /// tripwires can be exercised end-to-end. Never call this outside a
    /// test harness.
    #[doc(hidden)]
    pub fn corrupt_for_audit(&mut self, job: JobId, skew: Watts) {
        if let Some(e) = self.jobs.get_mut(&job) {
            e.reclaimed = Some(skew);
            e.last_cap = Some(e.last_cap.unwrap_or(Watts::ZERO) + skew);
        }
    }

    /// Test-only: run the auditor against the *current* state, without
    /// the pump's redistribute pass first. An inflated cap planted by
    /// [`ClusterBudgeter::corrupt_for_audit`] is corrected by the next
    /// redistribute (which is itself the conservation mechanism working),
    /// so proving the conservation tripwire fires requires presenting the
    /// corrupted state to the auditor directly.
    #[doc(hidden)]
    pub fn audit_now(&mut self, busy_budget: Watts) {
        self.audit(busy_budget);
    }

    /// Jobs currently registered, not done, and holding a live lease.
    pub fn active_jobs(&self) -> usize {
        self.jobs.values().filter(|e| e.holds_lease()).count()
    }

    /// The last cap sent per job, sorted by job id.
    pub fn job_caps(&self) -> Vec<(JobId, Option<Watts>)> {
        let mut v: Vec<(JobId, Option<Watts>)> =
            self.jobs.iter().map(|(&id, e)| (id, e.last_cap)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Samples and models ingested for a job (telemetry for tests).
    pub fn job_traffic(&self, job: JobId) -> Option<(u64, u64)> {
        self.jobs.get(&job).map(|e| (e.samples_seen, e.models_seen))
    }

    /// The believed curve currently used for a job.
    pub fn believed_view(&self, job: JobId) -> Option<&JobView> {
        self.jobs.get(&job).map(|e| &e.view)
    }

    /// The budgeter's belief about the session carrying a job.
    pub fn job_session(&self, job: JobId) -> Option<SessionState> {
        self.jobs.get(&job).map(|e| e.state)
    }

    /// Session belief per registered job, sorted by job id.
    pub fn session_states(&self) -> Vec<(JobId, SessionState)> {
        let mut v: Vec<(JobId, SessionState)> =
            self.jobs.iter().map(|(&id, e)| (id, e.state)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Watts currently reclaimed from expired leases and not yet restored
    /// (the double-count invariant: reclaimed + allocated == budget is
    /// checked by summing this against live assignments).
    pub fn reclaimed_watts(&self) -> Watts {
        self.jobs
            .values()
            .filter_map(|e| e.reclaimed)
            .fold(Watts::ZERO, |acc, w| acc + w)
    }

    /// Completed jobs with their reported elapsed times.
    pub fn completed(&self) -> &[(JobId, Seconds)] {
        &self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{FramedStream, StreamOptions};
    use anor_types::msg::EpochSample;
    use anor_types::{Joules, PowerCurve};

    fn connect(addr: &Addr) -> FramedStream {
        addr.dial(StreamOptions::default()).unwrap()
    }

    /// The default test daemon runs the reactor plane so the whole
    /// session suite exercises it; the blocking plane keeps its own
    /// coverage via `default_builder_binds_the_blocking_plane` and the
    /// `reactor_equiv` integration tests.
    fn bind(cfg: BudgeterConfig) -> (ClusterBudgeter, Addr) {
        ClusterBudgeter::builder(cfg)
            .transport(TransportKind::Reactor)
            .shards(2)
            .bind()
            .unwrap()
    }

    fn hello(job: u64, name: &str, nodes: u32) -> bytes::Bytes {
        JobToCluster::Hello {
            job: JobId(job),
            type_name: name.into(),
            nodes,
        }
        .encode()
    }

    /// Pump the daemon until a predicate holds, parking on transport
    /// readiness between passes (localhost TCP is fast but not
    /// instantaneous).
    fn pump_until(
        b: &mut ClusterBudgeter,
        budget: Watts,
        mut done: impl FnMut(&ClusterBudgeter) -> bool,
    ) {
        for _ in 0..1000 {
            b.pump(budget).unwrap();
            if done(b) {
                return;
            }
            b.wait_readable(Duration::from_millis(1));
        }
        panic!("budgeter pump_until timed out");
    }

    #[test]
    fn hello_registers_job_and_cap_is_sent() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false));
        let mut client = connect(&addr);
        client.send(hello(1, "bt.D.81", 2)).unwrap();
        pump_until(&mut b, Watts(400.0), |b| b.active_jobs() == 1);
        // The endpoint should receive a SetPowerCap.
        let mut got = Vec::new();
        pump_until(&mut b, Watts(400.0), |_| {
            client.flush_some().unwrap();
            got.extend(client.recv_frames().unwrap());
            !got.is_empty()
        });
        let ClusterToJob::SetPowerCap { cap, .. } = ClusterToJob::decode(got.remove(0)).unwrap()
        else {
            panic!("expected a cap message");
        };
        // 400 W over 2 nodes -> 200 W/node.
        assert!((cap.value() - 200.0).abs() < 2.0, "cap {cap}");
        assert_eq!(b.job_session(JobId(1)), Some(SessionState::Connected));
    }

    #[test]
    fn two_jobs_split_budget_by_policy() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false));
        let mut bt = connect(&addr);
        let mut sp = connect(&addr);
        bt.send(hello(1, "bt.D.81", 2)).unwrap();
        sp.send(hello(2, "sp.D.81", 2)).unwrap();
        pump_until(&mut b, Watts(840.0), |b| b.active_jobs() == 2);
        pump_until(&mut b, Watts(840.0), |b| {
            b.job_caps().iter().all(|(_, c)| c.is_some())
        });
        let caps = b.job_caps();
        let bt_cap = caps[0].1.unwrap();
        let sp_cap = caps[1].1.unwrap();
        assert!(
            bt_cap.value() > sp_cap.value() + 10.0,
            "even-slowdown steers power to BT: {bt_cap} vs {sp_cap}"
        );
        // Budget approximately spent.
        let total = 2.0 * bt_cap.value() + 2.0 * sp_cap.value();
        assert!((total - 840.0).abs() < 5.0, "total {total}");
    }

    #[test]
    fn unknown_type_uses_configured_default() {
        for (default, expect_most) in [
            (UnknownDefault::LeastSensitive, false),
            (UnknownDefault::MostSensitive, true),
        ] {
            let mut cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
            cfg.unknown_default = default;
            let (mut b, addr) = bind(cfg);
            let mut client = connect(&addr);
            client.send(hello(9, "mystery.X.1", 1)).unwrap();
            pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
            let view = b.believed_view(JobId(9)).unwrap();
            let cat = anor_types::standard_catalog();
            let expected = if expect_most {
                cat.most_sensitive().unwrap().curve()
            } else {
                cat.least_sensitive().unwrap().curve()
            };
            assert_eq!(view.curve, expected);
            assert_eq!(view.nodes, 1, "nodes come from Hello, not the default");
        }
    }

    #[test]
    fn feedback_updates_view_only_when_enabled() {
        for feedback in [false, true] {
            let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, feedback));
            let mut client = connect(&addr);
            client.send(hello(3, "is.D.32", 1)).unwrap();
            pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
            let original = b.believed_view(JobId(3)).unwrap().curve;
            let fitted = PowerCurve::new(3.0e-5, -0.02, 7.7);
            client
                .send(
                    JobToCluster::Model {
                        job: JobId(3),
                        curve: fitted,
                        samples: 24,
                        cause: 0,
                    }
                    .encode(),
                )
                .unwrap();
            pump_until(&mut b, Watts(200.0), |b| {
                b.job_traffic(JobId(3)).unwrap().1 == 1
            });
            let now = b.believed_view(JobId(3)).unwrap().curve;
            if feedback {
                assert_eq!(now, fitted, "feedback on: model replaces view");
            } else {
                assert_eq!(now, original, "feedback off: model ignored");
            }
        }
    }

    #[test]
    fn done_and_disconnect_deactivate_job() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::Uniform, false));
        let mut client = connect(&addr);
        client.send(hello(5, "mg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        client
            .send(
                JobToCluster::Done {
                    job: JobId(5),
                    elapsed: Seconds(123.0),
                }
                .encode(),
            )
            .unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 0);
        assert_eq!(b.completed(), &[(JobId(5), Seconds(123.0))]);
        drop(client);
        // Pumping after the disconnect is harmless.
        b.pump(Watts(200.0)).unwrap();
    }

    #[test]
    fn abrupt_disconnect_expires_the_lease_and_reclaims_watts() {
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
                .lease(LeaseConfig::after_misses(10))
                .bind()
                .unwrap();
        let mut client = connect(&addr);
        client.send(hello(6, "cg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        pump_until(&mut b, Watts(200.0), |b| b.job_caps()[0].1.is_some());
        drop(client);
        // Disconnect first parks the job on its lease...
        pump_until(&mut b, Watts(200.0), |b| {
            matches!(
                b.job_session(JobId(6)),
                Some(SessionState::Reconnecting { .. })
            )
        });
        assert_eq!(b.active_jobs(), 1, "leased job still holds its watts");
        // ...then the miss budget runs out and the watts come back.
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 0);
        assert_eq!(b.job_session(JobId(6)), Some(SessionState::Gone));
        assert!(b.reclaimed_watts().value() > 0.0, "watts were reclaimed");
        assert_eq!(b.telemetry().counter("leases_expired_total", &[]).get(), 1);
    }

    #[test]
    fn lease_disabled_strands_jobs_immediately() {
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
                .lease(LeaseConfig::disabled())
                .bind()
                .unwrap();
        let mut client = connect(&addr);
        client.send(hello(6, "cg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        drop(client);
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 0);
        assert_eq!(b.job_session(JobId(6)), None, "entry removed outright");
    }

    #[test]
    fn resume_restores_the_lease_and_acks_the_last_cap() {
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
                .lease(LeaseConfig::after_misses(5))
                .bind()
                .unwrap();
        let mut client = connect(&addr);
        client.send(hello(4, "mg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        pump_until(&mut b, Watts(200.0), |b| b.job_caps()[0].1.is_some());
        let cap_before = b.job_caps()[0].1.unwrap();
        drop(client);
        // Let the lease fully expire so restore has something to undo.
        pump_until(&mut b, Watts(200.0), |b| {
            b.job_session(JobId(4)) == Some(SessionState::Gone)
        });
        assert!(b.reclaimed_watts().value() > 0.0);
        // A new connection resumes the same job id.
        let mut revived = connect(&addr);
        revived
            .send(
                JobToCluster::Resume {
                    job: JobId(4),
                    type_name: "mg.D.32".into(),
                    nodes: 1,
                    believed_cap: cap_before,
                    cause: 77,
                }
                .encode(),
            )
            .unwrap();
        pump_until(&mut b, Watts(200.0), |b| {
            b.job_session(JobId(4)) == Some(SessionState::Connected)
        });
        assert_eq!(b.active_jobs(), 1, "resumed job holds its lease again");
        assert_eq!(
            b.reclaimed_watts(),
            Watts::ZERO,
            "restored, not double-counted"
        );
        // The ack carries the cap on record.
        let mut acks = Vec::new();
        pump_until(&mut b, Watts(200.0), |_| {
            revived.flush_some().unwrap();
            for f in revived.recv_frames().unwrap() {
                if let Ok(ClusterToJob::ResumeAck { cap, cause }) = ClusterToJob::decode(f) {
                    acks.push((cap, cause));
                }
            }
            !acks.is_empty()
        });
        assert_eq!(acks[0], (cap_before, 77));
    }

    #[test]
    fn resume_of_an_unknown_job_registers_like_hello() {
        // A restarted budgeter has no record: the Resume re-registers the
        // job and the ack's negative cap says "nothing on file".
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::Uniform, false));
        let mut client = connect(&addr);
        client
            .send(
                JobToCluster::Resume {
                    job: JobId(12),
                    type_name: "bt.D.81".into(),
                    nodes: 2,
                    believed_cap: Watts(190.0),
                    cause: 5,
                }
                .encode(),
            )
            .unwrap();
        pump_until(&mut b, Watts(400.0), |b| b.active_jobs() == 1);
        assert_eq!(b.believed_view(JobId(12)).unwrap().nodes, 2);
        let mut acks = Vec::new();
        pump_until(&mut b, Watts(400.0), |_| {
            client.flush_some().unwrap();
            for f in client.recv_frames().unwrap() {
                if let Ok(ClusterToJob::ResumeAck { cap, cause }) = ClusterToJob::decode(f) {
                    acks.push((cap, cause));
                }
            }
            !acks.is_empty()
        });
        let (cap, cause) = acks[0];
        assert!(cap.value() < 0.0, "no cap on file after a restart");
        assert_eq!(cause, 5);
    }

    #[test]
    fn samples_are_counted() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::Uniform, false));
        let mut client = connect(&addr);
        client.send(hello(7, "lu.D.42", 1)).unwrap();
        for i in 0..5u64 {
            client
                .send(
                    JobToCluster::Sample(EpochSample {
                        job: JobId(7),
                        epoch_count: i,
                        energy: Joules(10.0 * i as f64),
                        avg_power: Watts(150.0),
                        avg_cap: Watts(160.0),
                        timestamp: Seconds(i as f64),
                        cause: 0,
                    })
                    .encode(),
                )
                .unwrap();
        }
        pump_until(&mut b, Watts(200.0), |b| {
            b.job_traffic(JobId(7)).is_some_and(|(s, _)| s == 5)
        });
    }

    #[test]
    fn malformed_peer_is_quarantined_without_killing_the_daemon() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false));
        // A healthy job...
        let mut good = connect(&addr);
        good.send(hello(1, "bt.D.81", 2)).unwrap();
        pump_until(&mut b, Watts(500.0), |b| b.active_jobs() == 1);
        // ...and a hostile peer sending garbage: a plausible length
        // prefix followed by junk, then an oversized length prefix.
        let mut evil = connect(&addr);
        let mut junk = bytes::BytesMut::new();
        bytes::BufMut::put_u32(&mut junk, 3);
        bytes::BufMut::put_slice(&mut junk, &[0xde, 0xad, 0xbe]);
        bytes::BufMut::put_u32(&mut junk, u32::MAX);
        evil.send(junk.freeze()).unwrap();
        // The daemon keeps running and the healthy job stays active.
        for _ in 0..100 {
            evil.flush_some().unwrap();
            b.pump(Watts(500.0)).unwrap();
            b.wait_readable(Duration::from_millis(1));
        }
        assert_eq!(b.active_jobs(), 1, "healthy job must survive");
        // The hostile connection was quarantined, not just ignored.
        assert!(
            b.telemetry()
                .counter("budgeter_conns_quarantined_total", &[])
                .get()
                >= 1,
            "quarantine must be counted"
        );
        // And the healthy job still gets budget updates.
        pump_until(&mut b, Watts(560.0), |b| b.job_caps()[0].1.is_some());
    }

    #[test]
    fn telemetry_records_rebalances_messages_and_retrains() {
        let telemetry = Telemetry::new();
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true))
                .telemetry(telemetry.clone())
                .bind()
                .unwrap();
        let mut client = connect(&addr);
        client.send(hello(11, "bt.D.81", 2)).unwrap();
        pump_until(&mut b, Watts(400.0), |b| b.active_jobs() == 1);
        client
            .send(
                JobToCluster::Model {
                    job: JobId(11),
                    curve: PowerCurve::new(3.0e-5, -0.02, 7.7),
                    samples: 24,
                    cause: 0,
                }
                .encode(),
            )
            .unwrap();
        pump_until(&mut b, Watts(400.0), |b| {
            b.job_traffic(JobId(11)).unwrap().1 == 1
        });
        let h = telemetry.histogram("budgeter_rebalance_seconds", &[]);
        assert!(h.count() >= 1, "rebalances must be timed");
        assert_eq!(
            telemetry
                .counter("budgeter_msgs_total", &[("kind", "hello")])
                .get(),
            1
        );
        assert_eq!(
            telemetry.gauge("job_retrains", &[("job", "11")]).get(),
            1.0,
            "per-job retrain count published"
        );
        assert!(
            telemetry
                .counter("transport_frames_rx_total", &[("role", "budgeter")])
                .get()
                >= 2,
            "accepted connections must count frames"
        );
        let lines = telemetry.memory_event_lines();
        assert!(lines
            .iter()
            .any(|l| l.contains("\"event\":\"budgeter_hello\"")));
    }

    #[test]
    fn caps_resent_only_on_material_change() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::Uniform, false));
        let mut client = connect(&addr);
        client.send(hello(8, "mg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        let mut frames = Vec::new();
        // Wait for the first cap to land, then pump many more times at
        // the same budget: still only one cap message.
        pump_until(&mut b, Watts(200.0), |_| {
            client.flush_some().unwrap();
            frames.extend(client.recv_frames().unwrap());
            !frames.is_empty()
        });
        for _ in 0..50 {
            b.pump(Watts(200.0)).unwrap();
            b.wait_readable(Duration::from_millis(1));
            client.flush_some().unwrap();
            frames.extend(client.recv_frames().unwrap());
        }
        assert_eq!(frames.len(), 1, "redundant caps must be elided");
        // A real budget change triggers a resend.
        for _ in 0..50 {
            b.pump(Watts(260.0)).unwrap();
            client.flush_some().unwrap();
            frames.extend(client.recv_frames().unwrap());
            if frames.len() == 2 {
                break;
            }
            b.wait_readable(Duration::from_millis(1));
        }
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn bind_refuses_policies_that_read_at_risk_flags() {
        for policy in BudgetPolicy::ALL {
            let bound = ClusterBudgeter::builder(BudgeterConfig::new(policy, false)).bind();
            if policy.reads_at_risk() {
                let refused = matches!(bound, Err(AnorError::Config(_)));
                assert!(refused, "the daemon must refuse {}", policy.name());
            } else {
                assert!(bound.is_ok(), "{}", policy.name());
            }
        }
    }

    #[test]
    fn zero_node_hello_is_budgeted_as_one_node() {
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::Uniform, false));
        let mut client = connect(&addr);
        client.send(hello(1, "mg.D.32", 0)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        for _ in 0..5 {
            b.pump(Watts(200.0)).unwrap();
        }
        assert_eq!(b.job_caps(), vec![(JobId(1), Some(Watts(200.0)))]);
        assert_eq!(b.invariant_violations(), 0);
    }

    #[test]
    fn default_builder_binds_the_blocking_plane() {
        let telemetry = Telemetry::new();
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
                .telemetry(telemetry.clone())
                .bind()
                .unwrap();
        assert_eq!(b.transport_kind(), TransportKind::Blocking);
        let mut client = connect(&addr);
        client.send(hello(2, "mg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        // The daemon records into the caller's telemetry handle.
        b.telemetry().counter("shared_probe", &[]).inc();
        assert_eq!(telemetry.counter("shared_probe", &[]).get(), 1);
    }
}
