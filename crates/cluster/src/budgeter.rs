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
//! name — which may be wrong (misclassification) or unknown (then the
//! least power-sensitive known type is assumed, Section 6.1.2). With
//! feedback enabled, incoming `Model` messages replace the believed curve.
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
    BuildInfo, CauseId, Counter, FlightRecorder, Gauge, Histogram, RecEvent, Telemetry, TraceStage,
    Tracer,
};
use anor_types::msg::{ClusterToJob, JobToCluster};
use anor_types::{AnorError, CapRange, Catalog, JobId, PowerCurve, Result, Seconds, Watts};
use std::collections::BTreeMap;
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// The policy table the daemon selects from. [`BudgeterBuilder::bind`]
/// refuses a policy that reads at-risk flags: the daemon projects none.
pub use anor_policy::BudgetPolicy;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct BudgeterConfig {
    /// Distribution policy.
    pub policy: BudgetPolicy,
    /// Fold job-tier `Model` messages back into views?
    pub feedback: bool,
    /// Known job types (for resolving announced names; an unknown name
    /// resolves to the least power-sensitive type).
    pub catalog: Catalog,
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
            recap_threshold: Watts(1.0),
        }
    }
}

/// Power-lease liveness settings: how long a disconnected job keeps its
/// watts reserved before the budgeter reclaims them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConfig {
    /// Control passes a job may spend disconnected before its lease
    /// expires and its watts return to the pool.
    pub miss_pumps: u32,
}

impl Default for LeaseConfig {
    fn default() -> Self {
        LeaseConfig { miss_pumps: 200 }
    }
}

impl LeaseConfig {
    /// An explicit miss budget (at least one pass).
    pub fn after_misses(miss_pumps: u32) -> Self {
        LeaseConfig {
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

/// Every registered job, split so that the per-pump walks (lease ticks,
/// redistribution, audits) visit live jobs only, however many have
/// finished. Each id sits in at most one of the two tables.
#[derive(Debug, Default)]
struct JobTable {
    /// Jobs still running, plus any done job owed reclaimed watts (the
    /// audit must keep counting those).
    live: BTreeMap<JobId, JobEntry>,
    /// Done jobs owed nothing: read by id and by `/status` only.
    finished: BTreeMap<JobId, JobEntry>,
}

impl JobTable {
    fn get(&self, job: JobId) -> Option<&JobEntry> {
        self.live.get(&job).or_else(|| self.finished.get(&job))
    }

    /// The job's entry, live or finished: a late frame for a finished
    /// job still updates it.
    fn get_mut(&mut self, job: JobId) -> Option<&mut JobEntry> {
        match self.live.get_mut(&job) {
            Some(e) => Some(e),
            None => self.finished.get_mut(&job),
        }
    }

    /// Register `job` live, replacing any entry under its id.
    fn register(&mut self, job: JobId, entry: JobEntry) {
        self.finished.remove(&job);
        self.live.insert(job, entry);
    }

    /// Move `job` to the finished table once it is done and owed no
    /// reclaimed watts.
    fn retire(&mut self, job: JobId) {
        let settled = self
            .live
            .get(&job)
            .is_some_and(|e| e.done.is_some() && e.reclaimed.is_none());
        if settled {
            if let Some(e) = self.live.remove(&job) {
                self.finished.insert(job, e);
            }
        }
    }

    /// Every entry, live ones first (callers sort by id).
    fn all(&self) -> impl Iterator<Item = (&JobId, &JobEntry)> {
        self.live.iter().chain(&self.finished)
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
    /// Per invariant kind, indexed by [`AuditKind`]:
    /// `anor_invariant_violations_total{invariant}`, and whether that
    /// kind already dumped a postmortem (a persistent violation costs one
    /// flight-recorder dump, not one per pump).
    audits: [(Counter, bool); AuditKind::ALL.len()],
}

impl BudgeterMetrics {
    fn new(telemetry: &Telemetry) -> Self {
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
            audits: AuditKind::ALL.map(|kind| {
                let labels = [("invariant", kind.name())];
                (
                    telemetry.counter("anor_invariant_violations_total", &labels),
                    false,
                )
            }),
        }
    }

    fn violations(&self) -> u64 {
        self.audits.iter().map(|(counter, _)| counter.get()).sum()
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
    tracer: Tracer,
    lease: LeaseConfig,
    faults: Option<FaultPlan>,
    status: Option<StatusBoard>,
    recorder: FlightRecorder,
    transport: TransportOptions,
}

impl BudgeterBuilder {
    fn new(cfg: BudgeterConfig) -> Self {
        BudgeterBuilder {
            cfg,
            addr: "127.0.0.1:0".to_string(),
            listener: None,
            telemetry: None,
            tracer: Tracer::off(),
            lease: LeaseConfig::default(),
            faults: None,
            status: None,
            recorder: FlightRecorder::off(),
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
        self.tracer = tracer.clone();
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
        self.recorder = recorder;
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

    /// Bind (or adopt the supplied listener) and construct the daemon.
    /// Returns the daemon and the address endpoints should dial.
    /// Fails with a config error for a policy that reads at-risk flags
    /// ([`BudgetPolicy::reads_at_risk`]): the daemon projects none.
    pub fn bind(mut self) -> Result<(ClusterBudgeter, Addr)> {
        let listener = match self.listener.take() {
            Some(l) => l,
            None => TcpListener::bind(self.addr.as_str())?.into(),
        };
        let addr = listener.addr()?;
        let telemetry = self.telemetry.get_or_insert_with(Telemetry::default);
        let transport = build_transport(
            &self.transport,
            listener,
            telemetry,
            TransportMetrics::new(telemetry, "budgeter"),
            self.faults.take(),
        )?;
        Ok((self.over(transport)?, addr))
    }

    /// Construct the daemon over an already-built connection plane (how
    /// replay puts it on a recording).
    pub(crate) fn over(self, transport: Box<dyn Transport>) -> Result<ClusterBudgeter> {
        if self.cfg.policy.reads_at_risk() {
            return Err(AnorError::config(format!(
                "policy `{}` needs at-risk projections the daemon does not make; \
                 it runs only in the simulator",
                self.cfg.policy.name()
            )));
        }
        let telemetry = self.telemetry.unwrap_or_default();
        Ok(ClusterBudgeter {
            cfg: self.cfg,
            transport,
            jobs: JobTable::default(),
            completed: Vec::new(),
            metrics: BudgeterMetrics::new(&telemetry),
            telemetry,
            tracer: self.tracer,
            lease: self.lease,
            accepted: 0,
            status: self.status,
            pumps: 0,
            last_budget: Watts::ZERO,
            assigned: AssignMemo::default(),
            recorder: self.recorder,
            model_observe_s: 0.0,
        })
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
    /// Every kind, in [`BudgeterMetrics::audits`] order.
    const ALL: [AuditKind; 4] = [
        AuditKind::Conservation,
        AuditKind::DoubleCount,
        AuditKind::GaugeDrift,
        AuditKind::StaleSession,
    ];

    fn name(self) -> &'static str {
        match self {
            AuditKind::Conservation => "watts_conservation",
            AuditKind::DoubleCount => "lease_double_count",
            AuditKind::GaugeDrift => "reclaim_gauge_drift",
            AuditKind::StaleSession => "stale_session",
        }
    }
}

/// The last assignment and the exact inputs it was computed from. The
/// policies' `assign` is a pure function of the budget and the lease
/// holders' views, so a pass whose inputs are bit-identical to the last
/// pass's reuses its caps. Most passes are such passes: a view changes
/// only on a `Hello`, `Model`, widening `Sample`, `Done` or lease expiry,
/// and a demand-response budget holds for several passes between steps.
#[derive(Debug, Default)]
struct AssignMemo {
    budget: Watts,
    views: Vec<JobView>,
    caps: Vec<Watts>,
}

impl AssignMemo {
    /// `policy.assign(budget, &views, &[])`, reusing the last caps when
    /// `budget` and every view have the last call's bits. Bits, not `==`:
    /// 0.0 and −0.0 compare equal and a NaN equals nothing, yet either
    /// can steer the inversion differently.
    fn assign(&mut self, policy: BudgetPolicy, budget: Watts, views: Vec<JobView>) -> &[Watts] {
        let hit = budget.value().to_bits() == self.budget.value().to_bits()
            && views
                .iter()
                .map(view_bits)
                .eq(self.views.iter().map(view_bits));
        if hit {
            debug_assert!(
                bits(&policy.assign(budget, &views, &[])).eq(bits(&self.caps)),
                "a reused assignment must equal a fresh one"
            );
        } else {
            self.caps = policy.assign(budget, &views, &[]);
            self.budget = budget;
            self.views = views;
        }
        &self.caps
    }
}

/// Every input a view gives `assign`, as bits. The pattern names every
/// field, so a field added to `JobView` does not compile here until the
/// memo's key covers it.
fn view_bits(view: &JobView) -> (JobId, u32, [u64; 6]) {
    let JobView {
        job,
        nodes,
        curve: PowerCurve { a, b, c },
        cap_range: CapRange { min, max },
        max_draw,
    } = *view;
    let floats = [a, b, c, min.value(), max.value(), max_draw.value()];
    (job, nodes, floats.map(f64::to_bits))
}

fn bits(caps: &[Watts]) -> impl Iterator<Item = u64> + '_ {
    caps.iter().map(|c| c.value().to_bits())
}

/// What a control pass's decide phase concluded.
enum Decision {
    /// No job holds a lease: nothing to assign.
    Idle,
    /// Caps assigned, but none moved past the resend threshold.
    Hold,
    /// These caps moved past the threshold and go out under the cause.
    Resend(CauseId, Vec<(JobId, Watts)>),
}

/// The budgeter daemon (pump-driven).
#[derive(Debug)]
pub struct ClusterBudgeter {
    cfg: BudgeterConfig,
    /// The connection plane: blocking sweeps, the sharded reactor, or a
    /// recording on replay. Session logic above this seam addresses peers
    /// by [`ConnId`] only.
    transport: Box<dyn Transport>,
    // Ordered so every pump-phase walk (lease ticks, redistribution,
    // audits, status snapshots) visits jobs in JobId order: the audit's
    // float sums and the recorded decision stream must not depend on
    // hasher seeding.
    jobs: JobTable,
    completed: Vec<(JobId, Seconds)>,
    telemetry: Telemetry,
    metrics: BudgeterMetrics,
    tracer: Tracer,
    lease: LeaseConfig,
    accepted: u64,
    status: Option<StatusBoard>,
    pumps: u64,
    last_budget: Watts,
    /// The last decide pass's inputs and caps.
    assigned: AssignMemo,
    recorder: FlightRecorder,
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

    /// One control pass: accept connections, ingest messages, advance
    /// lease countdowns, recompute the assignment over active jobs for
    /// `busy_budget` (total CPU watts for all job-occupied nodes), send
    /// changed caps, audit the watts-conservation invariants, and publish
    /// a status snapshot when a [`StatusBoard`] is attached.
    pub fn pump(&mut self, busy_budget: Watts) -> Result<()> {
        // One clock read per phase boundary: consecutive stamps, so the
        // six phases partition the pump time.
        let started = Instant::now();
        self.pumps += 1;
        self.last_budget = busy_budget;
        self.recorder.record(&RecEvent::PumpStart {
            pump: self.pumps,
            budget: busy_budget.value(),
        });
        // Phase: ingest (minus the model-observe time carved out below).
        self.model_observe_s = 0.0;
        if let Err(e) = self.accept_new().and_then(|()| self.ingest()) {
            self.metrics.pump.observe(started.elapsed().as_secs_f64());
            return Err(e);
        }
        let ingested = Instant::now();
        let ingest_s = ((ingested - started).as_secs_f64() - self.model_observe_s).max(0.0);
        self.metrics.phase_ingest.observe(ingest_s);
        self.metrics
            .phase_model_observe
            .observe(self.model_observe_s);
        // Phase: lease-audit.
        self.tick_leases();
        let leased = Instant::now();
        self.metrics
            .phase_lease_audit
            .observe((leased - ingested).as_secs_f64());
        // Phase: decide.
        let decision = self.decide(busy_budget);
        let decided = Instant::now();
        self.metrics
            .phase_decide
            .observe((decided - leased).as_secs_f64());
        // Phase: actuate (nothing to do unless a cap moved).
        let rebalanced = !matches!(decision, Decision::Idle);
        let (out, actuated) = match decision {
            Decision::Resend(cause, changed) => (self.actuate(cause, changed), Instant::now()),
            Decision::Idle | Decision::Hold => (Ok(()), decided),
        };
        self.metrics
            .phase_actuate
            .observe((actuated - decided).as_secs_f64());
        // Latency of an actual rebalance (decide plus actuate); passes
        // with no lease holder are not observed, so the percentiles
        // describe real redistribution work.
        if rebalanced {
            self.metrics
                .rebalance
                .observe((actuated - leased).as_secs_f64());
        }
        // Phase: invariant-audit (including status publication).
        self.metrics.active_jobs.set(self.active_jobs() as f64);
        self.audit(busy_budget);
        self.publish_status();
        let audited = Instant::now();
        self.metrics
            .phase_invariant_audit
            .observe((audited - actuated).as_secs_f64());
        self.metrics.pump.observe((audited - started).as_secs_f64());
        out
    }

    fn accept_new(&mut self) -> Result<()> {
        for id in self.transport.accept()? {
            self.accepted += 1;
            self.recorder
                .record(&RecEvent::ConnOpen { conn: id.value() });
        }
        Ok(())
    }

    fn resolve_view(&self, job: JobId, type_name: &str, nodes: u32) -> Result<JobView> {
        let catalog = &self.cfg.catalog;
        let Some(spec) = catalog
            .find(type_name)
            .or_else(|| catalog.least_sensitive())
        else {
            // An empty catalog cannot resolve anything — a daemon
            // configuration error, not grounds for a panic mid-pump.
            return Err(AnorError::config(
                "budgeter catalog is empty; cannot resolve any job type",
            ));
        };
        let mut view = JobView::from_spec(job, spec);
        // A job announcing zero nodes still holds one: budgeting, the
        // lease reclaim, sample normalisation and the auditor all read
        // this count.
        view.nodes = nodes.max(1);
        Ok(view)
    }

    fn ingest(&mut self) -> Result<()> {
        // `poll_readable` yields ids in ascending accept order on the live
        // planes, and in recorded order on replay — the deterministic
        // drain order the recorded decision stream depends on.
        for id in self.transport.poll_readable() {
            let (frames, mut closed) = match self.transport.read_frames(id) {
                Ok(drained) => drained,
                Err(AnorError::Protocol(e)) => {
                    // Length-prefix corruption is caught below decode, so
                    // no FrameIn precedes this quarantine in the recording;
                    // the recorded plane turns such a quarantine back into
                    // this error on replay.
                    self.quarantine(id, "budgeter-protocol-error", || e);
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

    /// Quarantine a misbehaving peer (malformed frames, oversized length
    /// prefix): hard shutdown, count, record, trace `detail` and dump a
    /// `reason` postmortem. It must not take the daemon down, nor spin the
    /// pump loop: a reject-storm from a hostile or corrupted peer costs
    /// one pass, not every pass.
    fn quarantine(&mut self, id: ConnId, reason: &str, detail: impl FnOnce() -> String) {
        self.transport.shutdown(id);
        self.metrics.conns_quarantined.inc();
        self.recorder
            .record(&RecEvent::ConnQuarantined { conn: id.value() });
        self.tracer.record_with(
            TraceStage::TransportError,
            CauseId::NONE,
            None,
            None,
            detail,
        );
        self.tracer.dump_postmortem(reason);
    }

    /// Handle one decoded-or-rejected inbound frame body on `conn`.
    /// Returns `true` when the frame poisoned its connection (malformed:
    /// the conn is quarantined and must be torn down by the caller).
    fn process_frame(&mut self, id: ConnId, body: bytes::Bytes) -> Result<bool> {
        self.recorder.record_with(|| RecEvent::FrameIn {
            conn: id.value(),
            body: body.to_vec(),
        });
        let msg = match JobToCluster::decode(body) {
            Ok(m) => m,
            Err(e) => {
                self.quarantine(id, "budgeter-malformed-frame", || {
                    format!("malformed frame: {e}")
                });
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
                self.jobs.register(job, JobEntry::new(view, id));
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
                self.tracer.record_job(
                    TraceStage::Resume,
                    CauseId(cause),
                    job.0,
                    Some(believed_cap.value()),
                );
                if self.jobs.get(job).is_none() {
                    // No record of this job (the daemon restarted,
                    // or it was evicted): re-register from the
                    // resume announcement as if it were a Hello.
                    let view = self.resolve_view(job, &type_name, nodes)?;
                    self.jobs.register(job, JobEntry::new(view, id));
                }
                let mut restored = None;
                let mut ack_cap = Watts(-1.0);
                if let Some(e) = self.jobs.get_mut(job) {
                    e.conn = id;
                    e.missed_pumps = 0;
                    e.state = SessionState::Connected;
                    restored = e.reclaimed.take();
                    if let Some(cap) = e.last_cap {
                        ack_cap = cap;
                    }
                }
                // A done job that was owed watts is owed nothing now.
                self.jobs.retire(job);
                if let Some(w) = restored {
                    let g = &self.metrics.watts_reclaimed;
                    g.set((g.get() - w.value()).max(0.0));
                    self.recorder.record(&RecEvent::LeaseRestored {
                        job: job.0,
                        watts: w.value(),
                    });
                    self.tracer.record_with(
                        TraceStage::LeaseRestored,
                        CauseId(cause),
                        Some(job.0),
                        Some(w.value()),
                        || format!("{w} restored to resumed job"),
                    );
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
                self.tracer.record_job(
                    TraceStage::SampleRx,
                    CauseId(s.cause),
                    s.job.0,
                    Some(s.avg_power.value()),
                );
                if let Some(e) = self.jobs.get_mut(s.job) {
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
                self.tracer
                    .record_job(TraceStage::ModelRx, CauseId(cause), job.0, None);
                if let Some(e) = self.jobs.get_mut(job) {
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
                if let Some(e) = self.jobs.get_mut(job) {
                    e.missed_pumps = 0;
                    e.done = Some(elapsed);
                }
                self.jobs.retire(job);
                self.completed.push((job, elapsed));
            }
        }
        Ok(false)
    }

    /// Tear down connection `conn`'s session bookkeeping: postmortem any
    /// jobs it carried, start their lease countdowns, and free the slot.
    fn disconnect_conn(&mut self, conn: ConnId) {
        self.recorder
            .record(&RecEvent::ConnClosed { conn: conn.value() });
        let lost: Vec<JobId> = self
            .jobs
            .live
            .iter()
            .filter(|(_, e)| e.conn == conn && e.done.is_none() && e.state.is_connected())
            .map(|(&id, _)| id)
            .collect();
        if !lost.is_empty() {
            self.tracer
                .record_with(TraceStage::Disconnect, CauseId::NONE, None, None, || {
                    format!("conn {conn} lost with {} active job(s)", lost.len())
                });
            self.tracer.dump_postmortem("endpoint-disconnect");
        }
        // The lease keeps these jobs' watts reserved: mark them
        // reconnecting and start the miss countdown.
        for id in lost {
            if let Some(e) = self.jobs.live.get_mut(&id) {
                e.state = SessionState::Reconnecting { attempt: 0 };
            }
        }
        self.transport.release(conn);
    }

    /// Send `frame` (an encoded, length-prefixed message) to `conn`,
    /// recording it as a `DecisionTx` exactly when a send really happens.
    fn send_to_conn(&mut self, conn: ConnId, frame: bytes::Bytes) -> Result<()> {
        if self.transport.is_open(conn) {
            self.recorder.record_with(|| RecEvent::DecisionTx {
                conn: conn.value(),
                frame: frame.to_vec(),
            });
            // The decision is recorded above even if the transport then
            // drops the frame to egress backpressure: recordings are the
            // *decision* stream, and delivery is the transport's problem.
            self.transport.write_frame(conn, frame)?;
        }
        Ok(())
    }

    /// Advance the lease countdown for every disconnected job; expire
    /// leases whose miss budget ran out, reclaiming their watts into the
    /// pool (the same pass's decide phase hands them to the surviving
    /// jobs).
    fn tick_leases(&mut self) {
        let mut expired: Vec<(JobId, Watts)> = Vec::new();
        for (&id, e) in self.jobs.live.iter_mut() {
            if !e.holds_lease() {
                continue;
            }
            if self.transport.is_live(e.conn) {
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
            self.recorder.record(&RecEvent::LeaseExpired {
                job: id.0,
                watts: watts.value(),
            });
            self.telemetry.event(
                "budgeter_lease_expired",
                &[("job", id.0.into()), ("watts", watts.value().into())],
            );
            self.tracer.record_with(
                TraceStage::LeaseExpired,
                self.tracer.next_cause(),
                Some(id.0),
                Some(watts.value()),
                || {
                    format!(
                        "lease expired after {} missed pump(s); {watts} reclaimed",
                        self.lease.miss_pumps
                    )
                },
            );
            self.tracer.dump_postmortem("lease-expired");
        }
    }

    /// The decide phase: assign `busy_budget` over the lease holders and
    /// pick the caps that moved past the resend threshold.
    fn decide(&mut self, busy_budget: Watts) -> Decision {
        // Ids, last caps and views in one pass over the live table, so
        // they stay aligned and come out in `JobId` order. Expired leases
        // are excluded: their watts are back in the pool.
        let mut held: Vec<(JobId, Option<Watts>)> = Vec::with_capacity(self.jobs.live.len());
        let mut views: Vec<JobView> = Vec::with_capacity(self.jobs.live.len());
        for (&id, e) in self.jobs.live.iter().filter(|(_, e)| e.holds_lease()) {
            held.push((id, e.last_cap));
            views.push(e.view.clone());
        }
        if views.is_empty() {
            return Decision::Idle;
        }
        let caps = self.assigned.assign(self.cfg.policy, busy_budget, views);
        // Which caps moved enough to resend?
        let threshold = self.cfg.recap_threshold.value();
        let changed: Vec<(JobId, Watts)> = held
            .into_iter()
            .zip(caps.iter().copied())
            .filter(|((_, last), cap)| {
                last.is_none_or(|prev| (prev - *cap).abs().value() > threshold)
            })
            .map(|((id, _), cap)| (id, cap))
            .collect();
        if changed.is_empty() {
            return Decision::Hold;
        }
        // One decision id covers every cap this rebalance re-issues; a
        // pass that re-sends nothing mints nothing (no phantom orphans).
        // The tracer's cause counter is shared across components, so its
        // value depends on interleaving a replay cannot reproduce: the
        // mint is recorded, and a replay takes the recorded id from its
        // plane so the re-emitted cap frames stay byte-identical.
        // An off tracer mints `CauseId::NONE`, so untraced caps go out
        // with cause 0.
        let cause = match self.transport.recorded_cause() {
            Some(c) => CauseId(c),
            None => {
                let c = self.tracer.next_cause();
                self.tracer.record_with(
                    TraceStage::Decision,
                    c,
                    None,
                    Some(busy_budget.value()),
                    || format!("{} cap(s) re-issued", changed.len()),
                );
                c
            }
        };
        self.recorder
            .record(&RecEvent::CauseMinted { cause: cause.0 });
        Decision::Resend(cause, changed)
    }

    /// The actuate phase: record and send each moved cap under `cause`.
    fn actuate(&mut self, cause: CauseId, changed: Vec<(JobId, Watts)>) -> Result<()> {
        for (id, cap) in changed {
            let Some(entry) = self.jobs.live.get_mut(&id) else {
                continue;
            };
            entry.last_cap = Some(cap);
            let conn = entry.conn;
            if self.transport.is_open(conn) {
                self.tracer
                    .record_job(TraceStage::CapTx, cause, id.0, Some(cap.value()));
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
        for (&id, e) in &self.jobs.live {
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
                    if !self.transport.is_open(e.conn) {
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
                    if e.missed_pumps >= self.lease.miss_pumps {
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
            .live
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
        for e in self.jobs.live.values().filter(|e| e.holds_lease()) {
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
        let Some((counter, dumped)) = self.metrics.audits.get_mut(kind as usize) else {
            return;
        };
        counter.inc();
        self.telemetry.event(
            "invariant_violation",
            &[("invariant", kind.name().into()), ("detail", detail.into())],
        );
        self.tracer
            .record_detail(TraceStage::InvariantViolation, CauseId::NONE, detail);
        if !*dumped {
            *dumped = true;
            self.tracer
                .dump_postmortem(&format!("invariant-{}", kind.name()));
        }
    }

    /// Build the live status snapshot served on `GET /status`: cheap
    /// reads over state the pump already maintains (no recomputation, no
    /// message traffic).
    pub fn status_snapshot(&self) -> StatusSnapshot {
        let mut jobs: Vec<JobStatus> = self
            .jobs
            .all()
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
            conns_open: self.transport.open_conns(),
            accepted: self.accepted,
            completed: self.completed.len(),
            allocated_watts: allocated,
            reclaimed_watts: self.reclaimed_watts().value(),
            invariant_violations: self.metrics.violations(),
            pump_p50: self.metrics.pump.quantile(0.5),
            pump_p90: self.metrics.pump.quantile(0.9),
            pump_p99: self.metrics.pump.quantile(0.99),
            ring_depth: self.tracer.ring_depth(),
            trace_recorded: self.tracer.recorded(),
            postmortems: self.tracer.postmortems(),
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
        // Owed watts keep an entry live, where the audit walks.
        if let Some(e) = self.jobs.finished.remove(&job) {
            self.jobs.live.insert(job, e);
        }
        if let Some(e) = self.jobs.live.get_mut(&job) {
            e.reclaimed = Some(skew);
            e.last_cap = Some(e.last_cap.unwrap_or(Watts::ZERO) + skew);
        }
    }

    /// Test-only: run the auditor against the *current* state, without
    /// the pump's decide and actuate phases first. An inflated cap
    /// planted by [`ClusterBudgeter::corrupt_for_audit`] is corrected by
    /// the next rebalance (which is itself the conservation mechanism working),
    /// so proving the conservation tripwire fires requires presenting the
    /// corrupted state to the auditor directly.
    #[doc(hidden)]
    pub fn audit_now(&mut self, busy_budget: Watts) {
        self.audit(busy_budget);
    }

    /// Jobs currently registered, not done, and holding a live lease.
    pub fn active_jobs(&self) -> usize {
        self.jobs.live.values().filter(|e| e.holds_lease()).count()
    }

    /// The last cap sent per job, sorted by job id.
    pub fn job_caps(&self) -> Vec<(JobId, Option<Watts>)> {
        let mut v: Vec<(JobId, Option<Watts>)> =
            self.jobs.all().map(|(&id, e)| (id, e.last_cap)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Samples and models ingested for a job (telemetry for tests).
    pub fn job_traffic(&self, job: JobId) -> Option<(u64, u64)> {
        self.jobs.get(job).map(|e| (e.samples_seen, e.models_seen))
    }

    /// The believed curve currently used for a job.
    pub fn believed_view(&self, job: JobId) -> Option<&JobView> {
        self.jobs.get(job).map(|e| &e.view)
    }

    /// The budgeter's belief about the session carrying a job.
    pub fn job_session(&self, job: JobId) -> Option<SessionState> {
        self.jobs.get(job).map(|e| e.state)
    }

    /// Session belief per registered job, sorted by job id.
    pub fn session_states(&self) -> Vec<(JobId, SessionState)> {
        let mut v: Vec<(JobId, SessionState)> =
            self.jobs.all().map(|(&id, e)| (id, e.state)).collect();
        v.sort_unstable_by_key(|(id, _)| *id);
        v
    }

    /// Watts currently reclaimed from expired leases and not yet restored
    /// (the double-count invariant: reclaimed + allocated == budget is
    /// checked by summing this against live assignments). Only live
    /// entries can be owed any.
    pub fn reclaimed_watts(&self) -> Watts {
        self.jobs
            .live
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
    use anor_types::Joules;

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
        let (mut b, addr) = bind(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false));
        let mut client = connect(&addr);
        client.send(hello(9, "mystery.X.1", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        let view = b.believed_view(JobId(9)).unwrap();
        let cat = anor_types::standard_catalog();
        assert_eq!(view.curve, cat.least_sensitive().unwrap().curve());
        assert_eq!(view.nodes, 1, "nodes come from Hello, not the default");
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
    fn untraced_budgeter_sends_cause_zero_and_reports_no_trace() {
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false))
                .listener(Listener::in_process())
                .bind()
                .unwrap();
        let mut bt = connect(&addr);
        let mut sp = connect(&addr);
        bt.send(hello(1, "bt.D.81", 2)).unwrap();
        sp.send(hello(2, "sp.D.81", 2)).unwrap();
        // Two budgets, so the second pass re-issues caps under a decision
        // of its own.
        let mut causes = Vec::new();
        for budget in [840.0, 700.0] {
            b.pump(Watts(budget)).unwrap();
            for client in [&mut bt, &mut sp] {
                for f in client.recv_frames().unwrap() {
                    let ClusterToJob::SetPowerCap { cause, .. } = ClusterToJob::decode(f).unwrap()
                    else {
                        panic!("expected a cap message");
                    };
                    causes.push(cause);
                }
            }
        }
        assert_eq!(causes, vec![0; 4], "an off tracer mints no cause ids");
        let snap = b.status_snapshot();
        assert_eq!(
            (snap.ring_depth, snap.trace_recorded, snap.postmortems),
            (0, 0, 0)
        );
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
    fn finished_jobs_leave_the_pump_walks_but_stay_on_record() {
        let (mut b, addr) =
            ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
                .listener(Listener::in_process())
                .bind()
                .unwrap();
        let budget = Watts(600.0);
        let mut clients: Vec<FramedStream> = (1..=3).map(|_| connect(&addr)).collect();
        for (job, client) in (1..).zip(&mut clients) {
            client.send(hello(job, "mg.D.32", 1)).unwrap();
        }
        b.pump(budget).unwrap();
        assert_eq!(b.active_jobs(), 3);
        let sample = |job: u64| {
            JobToCluster::Sample(EpochSample {
                job: JobId(job),
                epoch_count: 1,
                energy: Joules(10.0),
                avg_power: Watts(150.0),
                avg_cap: Watts(160.0),
                timestamp: Seconds(1.0),
                cause: 0,
            })
            .encode()
        };
        let done = |job: u64, elapsed: f64| {
            JobToCluster::Done {
                job: JobId(job),
                elapsed: Seconds(elapsed),
            }
            .encode()
        };
        let cap_of_1 = b.job_caps()[0].1;
        assert!(cap_of_1.is_some());
        clients[0].send(sample(1)).unwrap();
        clients[0].send(done(1, 50.0)).unwrap();
        b.pump(budget).unwrap();
        let finished_only = |b: &ClusterBudgeter| {
            !b.jobs.live.contains_key(&JobId(1)) && b.jobs.get(JobId(1)).is_some()
        };
        assert!(finished_only(&b), "a done job leaves the live table");
        assert_eq!(b.active_jobs(), 2);

        // Every by-id and listing read still reports the finished job.
        let caps = b.job_caps();
        assert_eq!(
            caps.iter().map(|(id, _)| id.0).collect::<Vec<_>>(),
            [1, 2, 3]
        );
        assert_eq!(caps[0].1, cap_of_1, "a finished job keeps its last cap");
        assert_eq!(
            b.session_states(),
            [1, 2, 3].map(|j| (JobId(j), SessionState::Connected))
        );
        assert_eq!(b.job_traffic(JobId(1)), Some((1, 0)));
        assert_eq!(b.believed_view(JobId(1)).map(|v| v.nodes), Some(1));
        let snap = b.status_snapshot();
        let listed: Vec<(u64, bool)> = snap.jobs.iter().map(|j| (j.job, j.done)).collect();
        assert_eq!(listed, [(1, true), (2, false), (3, false)]);
        assert_eq!((snap.active_jobs, snap.completed), (2, 1));

        // A late sample and a duplicate Done update the finished entry.
        clients[0].send(sample(1)).unwrap();
        clients[0].send(done(1, 60.0)).unwrap();
        b.pump(budget).unwrap();
        assert_eq!(b.job_traffic(JobId(1)), Some((2, 0)));
        assert_eq!(
            b.completed(),
            &[(JobId(1), Seconds(50.0)), (JobId(1), Seconds(60.0))]
        );
        assert!(finished_only(&b));

        // A Resume for the finished job is acked with its last cap and
        // leaves it finished.
        let mut revived = connect(&addr);
        revived
            .send(
                JobToCluster::Resume {
                    job: JobId(1),
                    type_name: "mg.D.32".into(),
                    nodes: 1,
                    believed_cap: Watts(100.0),
                    cause: 9,
                }
                .encode(),
            )
            .unwrap();
        b.pump(budget).unwrap();
        let acks: Vec<ClusterToJob> = revived
            .recv_frames()
            .unwrap()
            .into_iter()
            .map(|f| ClusterToJob::decode(f).unwrap())
            .collect();
        let cap = cap_of_1.unwrap();
        assert_eq!(acks, [ClusterToJob::ResumeAck { cap, cause: 9 }]);
        assert!(finished_only(&b));
        assert_eq!(b.active_jobs(), 2);

        // Owed watts planted on a finished job bring it back where the
        // audit walks.
        let violations = b.invariant_violations();
        b.corrupt_for_audit(JobId(1), Watts(5.0));
        b.audit_now(budget);
        assert!(b.invariant_violations() > violations);
        assert!(b.jobs.live.contains_key(&JobId(1)));

        // A Hello that reuses the id registers a fresh, live job.
        revived.send(hello(1, "mg.D.32", 1)).unwrap();
        b.pump(budget).unwrap();
        assert!(b.jobs.live.contains_key(&JobId(1)) && !b.jobs.finished.contains_key(&JobId(1)));
        assert_eq!(b.active_jobs(), 3);
        assert_eq!(b.job_traffic(JobId(1)), Some((0, 0)));
        assert!(!b.status_snapshot().jobs[0].done);
    }

    /// One control pass at `budget`, checked bit for bit against a
    /// from-scratch `BudgetPolicy::assign` over the `holders`' believed
    /// views: the connected endpoints receive exactly the caps that moved
    /// past the resend threshold, and every holder keeps either its
    /// re-sent cap or the one it held before the pass. Returns the jobs
    /// whose cap was re-sent.
    fn checked_pass(
        b: &mut ClusterBudgeter,
        budget: Watts,
        holders: &[u64],
        clients: &mut BTreeMap<u64, FramedStream>,
    ) -> Vec<u64> {
        let before: BTreeMap<JobId, Option<Watts>> = b.job_caps().into_iter().collect();
        b.pump(budget).unwrap();
        assert_eq!(b.active_jobs(), holders.len());
        let ids: Vec<JobId> = holders.iter().map(|&j| JobId(j)).collect();
        let views: Vec<JobView> = ids
            .iter()
            .map(|&id| b.believed_view(id).unwrap().clone())
            .collect();
        let fresh = b.cfg.policy.assign(budget, &views, &[]);
        let threshold = b.cfg.recap_threshold.value();
        let resent: Vec<(JobId, Watts)> = ids
            .iter()
            .copied()
            .zip(fresh.iter().copied())
            .filter(|(id, cap)| {
                let prev = before.get(id).copied().flatten();
                prev.is_none_or(|prev| (prev - *cap).abs().value() > threshold)
            })
            .collect();
        let mut received = Vec::new();
        for (&job, client) in clients.iter_mut() {
            for frame in client.recv_frames().unwrap() {
                if let ClusterToJob::SetPowerCap { cap, .. } = ClusterToJob::decode(frame).unwrap()
                {
                    received.push((JobId(job), cap.value().to_bits()));
                }
            }
        }
        let delivered: Vec<(JobId, u64)> = resent
            .iter()
            .filter(|(id, _)| clients.contains_key(&id.0))
            .map(|(id, cap)| (*id, cap.value().to_bits()))
            .collect();
        assert_eq!(received, delivered, "caps sent at {budget}");
        let after: BTreeMap<JobId, Option<Watts>> = b.job_caps().into_iter().collect();
        for (id, cap) in ids.iter().zip(&fresh) {
            let kept = match resent.iter().any(|(r, _)| r == id) {
                true => Some(*cap),
                false => before.get(id).copied().flatten(),
            };
            let bits = |c: Option<Watts>| c.map(|c| c.value().to_bits());
            assert_eq!(bits(after[id]), bits(kept), "cap held by {id}");
        }
        resent.into_iter().map(|(id, _)| id.0).collect()
    }

    /// The decide pass may reuse the last pass's caps, so every input
    /// that can change an assignment must reach it. One input per pass;
    /// each must move a cap past the resend threshold, so a reuse keyed
    /// on too little fails here in release builds too, where the reuse's
    /// own debug check is compiled out.
    #[test]
    fn every_assignment_input_reaches_the_decide_pass() {
        let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true);
        let (mut b, addr) = ClusterBudgeter::builder(cfg)
            .listener(Listener::in_process())
            .lease(LeaseConfig::after_misses(2))
            .bind()
            .unwrap();
        let mut clients = BTreeMap::new();
        for (job, name) in [(1, "bt.D.81"), (2, "sp.D.81")] {
            let mut client = connect(&addr);
            client.send(hello(job, name, 2)).unwrap();
            clients.insert(job, client);
        }
        let mut budget = Watts(800.0);
        assert_eq!(checked_pass(&mut b, budget, &[1, 2], &mut clients), [1, 2]);
        let quiet = checked_pass(&mut b, budget, &[1, 2], &mut clients);
        assert!(quiet.is_empty(), "no input, yet {quiet:?} re-sent");

        budget = Watts(760.0);
        assert!(!checked_pass(&mut b, budget, &[1, 2], &mut clients).is_empty());

        let model = JobToCluster::Model {
            job: JobId(1),
            curve: PowerCurve::from_anchor(Seconds(100.0), 0.3, CapRange::paper_node()),
            samples: 12,
            cause: 0,
        };
        clients.get_mut(&1).unwrap().send(model.encode()).unwrap();
        assert!(!checked_pass(&mut b, budget, &[1, 2], &mut clients).is_empty());

        // 279 W per node is past sp's believed 230 W draw: feedback
        // widens its window.
        let sample = JobToCluster::Sample(EpochSample {
            job: JobId(2),
            epoch_count: 3,
            energy: Joules(1000.0),
            avg_power: Watts(558.0),
            avg_cap: Watts(560.0),
            timestamp: Seconds(3.0),
            cause: 0,
        });
        clients.get_mut(&2).unwrap().send(sample.encode()).unwrap();
        assert!(!checked_pass(&mut b, budget, &[1, 2], &mut clients).is_empty());
        assert_eq!(b.believed_view(JobId(2)).unwrap().max_draw, Watts(279.0));

        let mut client = connect(&addr);
        client.send(hello(3, "is.D.32", 1)).unwrap();
        clients.insert(3, client);
        assert!(!checked_pass(&mut b, budget, &[1, 2, 3], &mut clients).is_empty());

        let done = JobToCluster::Done {
            job: JobId(2),
            elapsed: Seconds(60.0),
        };
        clients.get_mut(&2).unwrap().send(done.encode()).unwrap();
        assert!(!checked_pass(&mut b, budget, &[1, 3], &mut clients).is_empty());

        // A lost connection keeps the lease for one more pass, changing
        // nothing; then the lease expires and the watts move.
        clients.remove(&1);
        let quiet = checked_pass(&mut b, budget, &[1, 3], &mut clients);
        assert!(quiet.is_empty(), "a held lease re-sent {quiet:?}");
        assert_eq!(checked_pass(&mut b, budget, &[3], &mut clients), [3]);
        assert_eq!(b.job_session(JobId(1)), Some(SessionState::Gone));

        let quiet = checked_pass(&mut b, budget, &[3], &mut clients);
        assert!(quiet.is_empty(), "no input, yet {quiet:?} re-sent");
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
        // Only the reactor adds per-shard ingest rows to the PHASE pane.
        let phases = b.status_snapshot().phases;
        assert!(
            phases.iter().all(|p| !p.phase.starts_with("ingest/shard")),
            "{phases:?}"
        );
        let mut client = connect(&addr);
        client.send(hello(2, "mg.D.32", 1)).unwrap();
        pump_until(&mut b, Watts(200.0), |b| b.active_jobs() == 1);
        // The daemon records into the caller's telemetry handle.
        b.telemetry().counter("shared_probe", &[]).inc();
        assert_eq!(telemetry.counter("shared_probe", &[]).get(), 1);
    }
}
