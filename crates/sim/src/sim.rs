//! The event-driven tabular simulation engine.
//!
//! Section 5.6's update order is followed exactly: "Each simulated
//! second, the simulator updates the state of the node table, then
//! updates the view of the cluster seen by the job scheduler and power
//! manager, then schedules jobs and caps power. The policy updates inputs
//! to the node table that will be processed in the node-update stage of
//! the next time step. Lastly, before starting the next iteration, we
//! append the current state of all tables to a file."
//!
//! Power is steered two ways, as the paper observes of AQA (Section 6.4):
//! primarily by *refraining from scheduling* jobs to idle nodes when
//! starting them would exceed the instantaneous target, and secondarily
//! by capping the nodes of running jobs. Jobs whose queue wait approaches
//! the QoS limit are started regardless of the target, so the power
//! objective cannot starve a job forever.
//!
//! # Event-driven stepping
//!
//! Nothing in the cluster changes between *events* — a completion, an
//! arrival, a power-target change, a forced-start threshold crossing —
//! so the engine does per-tick work only when one is due. Node progress
//! is *anchored* (see [`crate::table::progress_at`]): each node stores
//! the progress it had at its last state transition, and job completions
//! are scheduled ahead of time on a binary heap ([`EventQueue`]) from
//! the closed-form crossing of that law. The scheduling and capping
//! stages are pure functions of state that only events change, so they
//! are memoized between events; an event-free [`step`](TabularSim::step)
//! costs O(1) instead of O(nodes). [`run_to`](TabularSim::run_to)
//! additionally jumps over event-free tick stretches when no per-tick
//! observer (tracking, history, telemetry, tracer) is attached.

use crate::event::{Event, EventQueue};
use crate::history::HistoryRow;
use crate::table::{
    add_repeated, crossing_ticks, node_power, nominal_rate, state_hash, JobRow, JobTable, NodeRow,
    NodeTable,
};
use anor_aqa::{JobSubmission, PendingView, PowerTarget, QueueScheduler, TrackingRecorder};
use anor_platform::PerformanceVariation;
use anor_policy::{BudgetPolicy, JobView};
use anor_telemetry::{CauseId, Gauge, Histogram, Telemetry, TraceStage, Tracer};
use anor_types::{
    Catalog, JobId, JobTypeId, Joules, NodeId, QosConstraint, QosDegradation, Seconds, Watts,
};
use std::collections::VecDeque;
use std::time::Instant;

/// Static configuration of a simulated cluster.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster size (paper: 1000).
    pub total_nodes: u32,
    /// Average idle power per node.
    pub idle_power: Watts,
    /// Job-type catalog (scaled for the cluster size).
    pub catalog: Catalog,
    /// Types admitted to the queues.
    pub types: Vec<JobTypeId>,
    /// Simulation tick (paper: one second).
    pub tick: Seconds,
    /// Power-capping policy.
    pub policy: BudgetPolicy,
    /// The QoS constraint all types share.
    pub qos: QosConstraint,
    /// Fraction of the QoS limit at which a job is considered at risk
    /// (for forced starts and the QoS-aware capping exemption).
    pub qos_risk_threshold: f64,
}

/// The aggregate result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Completed jobs' QoS degradations, grouped per type id.
    pub qos_by_type: Vec<(JobTypeId, Vec<QosDegradation>)>,
    /// Jobs completed.
    pub completed: u32,
    /// Jobs still running or queued at the end.
    pub unfinished: u32,
    /// Completed jobs whose `type_id` is not in `cfg.types`: they have a
    /// QoS row but no `qos_by_type` slot to aggregate it into. Also
    /// counted into the `sim_qos_rows_dropped_total` telemetry counter.
    pub dropped: u32,
    /// 90th-percentile tracking error.
    pub tracking_p90: f64,
    /// Fraction of samples within the 30% error limit.
    pub tracking_within_30: f64,
    /// Total electrical energy the cluster consumed over the run
    /// (measured power integrated over every tick).
    pub energy: Joules,
}

/// Cached telemetry handles for the per-tick hot path.
#[derive(Debug, Clone)]
struct SimInstruments {
    tick: Histogram,
    jobs_rows: Gauge,
    pending_jobs: Gauge,
    running_jobs: Gauge,
    history_rows: Gauge,
    measured_watts: Gauge,
}

/// The simulator.
///
/// The hot path is event-driven: idle/busy node counts, the per-type
/// busy-node usage table, the pending-queue views and the total
/// busy-node power draw are all maintained at state transitions (job
/// start, job completion, re-cap), node progress is evaluated lazily
/// from per-node anchors, and completions pop off a binary heap instead
/// of being detected by per-tick scans. The scheduling and capping
/// stages re-run only when an event or a power-target change invalidates
/// their memoized outcome, so a steady-state tick between events is
/// O(1) — not the 3–4 full node-table walks the naive loop needed, and
/// not even the O(busy nodes) integration pass of the incremental loop.
#[derive(Debug)]
pub struct TabularSim {
    cfg: SimConfig,
    target: PowerTarget,
    scheduler: QueueScheduler,
    nodes: NodeTable,
    jobs: JobTable,
    schedule: VecDeque<JobSubmission>,
    pending: Vec<JobId>,
    /// Scheduler views parallel to `pending` (same order, same length).
    pending_views: Vec<PendingView>,
    running: Vec<JobId>,
    /// Nodes with no job assigned. Invariant: equals a from-scratch
    /// recount of idle rows after every public call.
    idle_count: u32,
    /// Busy nodes per type (indexed by `JobTypeId::index()`). Invariant:
    /// equals a recount over running jobs after every public call.
    type_usage: Vec<u32>,
    /// Sum of node draw over busy nodes (idle nodes draw
    /// `cfg.idle_power` each, accounted separately via `idle_count`).
    busy_power: Watts,
    /// Platform-wide minimum cap (admission floor), cached from the
    /// catalog at construction.
    min_cap: Watts,
    time: Seconds,
    /// Tick counter: `time == tick × cfg.tick` up to float accumulation.
    /// All event scheduling is in tick space, never in float seconds.
    tick: u64,
    events: EventQueue,
    /// The target value observed last tick: a change is the authoritative
    /// re-cap trigger (the heap's `RecapBoundary` entries only bound
    /// fast-forward jumps).
    last_target: Option<Watts>,
    /// Re-run the scheduling stage this tick (an event changed its
    /// inputs).
    sched_dirty: bool,
    /// Re-run the capping stage this tick.
    caps_dirty: bool,
    /// Tick of the earliest outstanding `AdmissionRetry`, if any.
    retry_tick: Option<u64>,
    /// A `JobArrival` wake-up is on the heap for the schedule front.
    arrival_queued: bool,
    /// A `RecapBoundary` wake-up is on the heap for the signal's next
    /// piecewise-constant boundary.
    boundary_queued: bool,
    /// Measured power integrated over every elapsed tick.
    energy: Joules,
    tracking: TrackingRecorder,
    history: VecDeque<HistoryRow>,
    history_cap: Option<usize>,
    record_history: bool,
    completed: u32,
    measured_power: Watts,
    tracking_frozen: bool,
    instruments: Option<SimInstruments>,
    telemetry: Option<Telemetry>,
    tracer: Tracer,
    cause: u64,
    observe_pending: bool,
    /// Differential-testing mode: run the legacy per-tick algorithm
    /// (completion scans, unconditional admission/capping recompute)
    /// instead of the event queue and memoization. See
    /// `set_tick_oracle`.
    tick_oracle: bool,
}

impl TabularSim {
    /// Build a simulator. `schedule` must be sorted by submission time.
    /// `weights` are the AQA queue weights (uniform when `None`),
    /// indexed like the catalog.
    pub fn new(
        cfg: SimConfig,
        target: PowerTarget,
        variation: &PerformanceVariation,
        schedule: Vec<JobSubmission>,
        weights: Option<Vec<f64>>,
    ) -> Self {
        assert!(cfg.total_nodes > 0, "cluster needs nodes");
        for &id in &cfg.types {
            assert!(
                cfg.catalog[id].nodes <= cfg.total_nodes,
                "{} needs more nodes than the cluster has",
                cfg.catalog[id].name
            );
        }
        // A job's slowest node answers for all of its nodes, so every
        // job the schedule can start must hold one.
        for spec in cfg.catalog.iter() {
            assert!(spec.nodes > 0, "{} runs on no nodes", spec.name);
        }
        let tdp = cfg
            .catalog
            .iter()
            .next()
            .map_or(Watts(280.0), |t| t.cap_range.max);
        let min_cap = cfg
            .catalog
            .iter()
            .next()
            .map_or(Watts(140.0), |t| t.cap_range.min);
        let nodes = NodeTable::build(cfg.total_nodes, tdp, |i| variation.coeff(i));
        let scheduler = QueueScheduler::new(
            weights.unwrap_or_else(|| vec![1.0; cfg.catalog.len()]),
            cfg.total_nodes,
        );
        let reserve = target.reserve.max(Watts(1.0));
        TabularSim {
            scheduler,
            nodes,
            jobs: JobTable::new(),
            schedule: schedule.into(),
            pending: Vec::new(),
            pending_views: Vec::new(),
            running: Vec::new(),
            idle_count: cfg.total_nodes,
            type_usage: vec![0; cfg.catalog.len()],
            busy_power: Watts::ZERO,
            min_cap,
            time: Seconds::ZERO,
            tick: 0,
            events: EventQueue::new(),
            last_target: None,
            sched_dirty: false,
            caps_dirty: false,
            retry_tick: None,
            arrival_queued: false,
            boundary_queued: false,
            energy: Joules::ZERO,
            tracking: TrackingRecorder::new(reserve),
            history: VecDeque::new(),
            history_cap: None,
            record_history: false,
            completed: 0,
            measured_power: Watts::ZERO,
            tracking_frozen: false,
            instruments: None,
            telemetry: None,
            tracer: Tracer::off(),
            cause: 0,
            observe_pending: false,
            tick_oracle: false,
            cfg,
            target,
        }
    }

    /// Report per-tick wall time (`sim_tick_seconds`), table sizes
    /// (`sim_jobs_rows`, `sim_pending_jobs`, `sim_running_jobs`,
    /// `sim_history_rows`) and measured power (`sim_measured_watts`)
    /// into `telemetry`. The tracking-error stream is attached too.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.instruments = Some(SimInstruments {
            tick: telemetry.histogram("sim_tick_seconds", &[]),
            jobs_rows: telemetry.gauge("sim_jobs_rows", &[]),
            pending_jobs: telemetry.gauge("sim_pending_jobs", &[]),
            running_jobs: telemetry.gauge("sim_running_jobs", &[]),
            history_rows: telemetry.gauge("sim_history_rows", &[]),
            measured_watts: telemetry.gauge("sim_measured_watts", &[]),
        });
        self.tracking.attach_telemetry(telemetry);
        self.telemetry = Some(telemetry.clone());
    }

    /// Record causal trace events into `tracer`: a `decision` each tick
    /// the capping stage changes at least one job's cap, an `msr_write`
    /// per re-capped job (the table write is the simulator's actuation),
    /// and a `sample_rx` for the first measured-power observation taken
    /// under the new caps. The tabular simulator has no wire, so its
    /// chains never contain `cap_tx`/`cap_rx` hops.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Switch the engine into (or out of) *tick-oracle* mode: the
    /// legacy per-tick algorithm — completion scans over every node of
    /// every running job, at-risk projections over every node, and
    /// unconditional admission/capping recomputation each tick — with
    /// the event queue, memoization and slowest-node reads disabled. The two modes are
    /// required to produce bit-identical trajectories; property tests
    /// drive them in lockstep to prove it. Enable only on a fresh
    /// simulator (events scheduled before the switch would linger).
    #[doc(hidden)]
    pub fn set_tick_oracle(&mut self, on: bool) {
        self.tick_oracle = on;
    }

    /// Enable per-tick history retention (off by default to keep long
    /// runs lean). Retention is unbounded; the buffer is pre-sized so
    /// steady-state appends don't reallocate.
    pub fn record_history(&mut self, on: bool) {
        self.record_history = on;
        if on && self.history.capacity() == 0 {
            self.history.reserve(4096);
        }
    }

    /// Enable history retention bounded to the most recent `cap` rows
    /// (a ring buffer: older rows are discarded as new ticks arrive).
    /// `history()` still yields rows in chronological order.
    ///
    /// `cap == 0` fully disables retention: recording stops, buffered
    /// rows are dropped and the buffer is deallocated, so large runs pay
    /// no per-tick history cost at all.
    pub fn record_history_capped(&mut self, cap: usize) {
        if cap == 0 {
            self.record_history = false;
            self.history_cap = None;
            self.history = VecDeque::new();
            return;
        }
        self.record_history = true;
        self.history_cap = Some(cap);
        self.history
            .reserve(cap.saturating_sub(self.history.capacity()));
        while self.history.len() > cap {
            self.history.pop_front();
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Seconds {
        self.time
    }

    /// Total cluster power during the last tick.
    pub fn measured_power(&self) -> Watts {
        self.measured_power
    }

    /// Measured power integrated over every elapsed tick: the cluster's
    /// total energy consumption so far.
    pub fn energy(&self) -> Joules {
        self.energy
    }

    /// The tracking recorder (error statistics so far).
    pub fn tracking(&self) -> &TrackingRecorder {
        &self.tracking
    }

    /// Replace the power target mid-run (a facility tier re-allocating
    /// the shared envelope, or a new hourly bid taking effect). Tracking
    /// statistics continue against the new target with the original
    /// reserve normalization.
    pub fn set_target(&mut self, target: PowerTarget) {
        self.target = target;
        // Force both policy stages to observe the new target next tick,
        // and let the fast-forward planner re-queue a boundary wake-up
        // for the new signal (a stale queued boundary pops harmlessly).
        self.last_target = None;
        self.boundary_queued = false;
    }

    /// Discard tracking-error history collected so far (e.g. a warm-up
    /// window while the cluster fills; the paper's evaluation starts from
    /// a warm cluster).
    pub fn reset_tracking(&mut self) {
        self.tracking = TrackingRecorder::new(self.target.reserve.max(Watts(1.0)));
        if let Some(t) = &self.telemetry {
            self.tracking.attach_telemetry(t);
        }
    }

    /// Stop recording tracking errors from now on (e.g. during a drain
    /// tail after arrivals stop, when power necessarily decays away from
    /// the target).
    pub fn freeze_tracking(&mut self) {
        self.tracking_frozen = true;
    }

    /// Run with tracking judged only over `[warmup, horizon]`: the
    /// fill-up ramp is discarded and the drain tail is not recorded,
    /// matching how the paper evaluates an in-steady-state hour.
    pub fn run_with_warmup(&mut self, warmup: Seconds, horizon: Seconds, max_drain: Seconds) {
        while self.time.value() < warmup.value() {
            self.step();
        }
        self.reset_tracking();
        while self.time.value() < horizon.value() {
            self.step();
        }
        self.freeze_tracking();
        self.run(horizon, max_drain);
    }

    /// Retained history rows in chronological order (empty unless
    /// enabled). A `VecDeque` because capped retention drops from the
    /// front; it indexes and iterates like a slice.
    pub fn history(&self) -> &VecDeque<HistoryRow> {
        &self.history
    }

    /// All job rows (queued, running and completed), materialized from
    /// the struct-of-arrays table.
    pub fn jobs(&self) -> Vec<JobRow> {
        self.jobs.rows()
    }

    /// Node rows, materialized from the struct-of-arrays table with
    /// progress evaluated at the current tick.
    pub fn nodes(&self) -> Vec<NodeRow> {
        self.nodes.rows(
            &self.jobs,
            &self.cfg.catalog,
            self.cfg.idle_power,
            self.tick,
            self.cfg.tick.value(),
        )
    }

    /// FNV-1a fingerprint of the current node and job tables (see
    /// [`crate::table::state_hash`]): a cheap whole-state identity for
    /// determinism checks across worker counts and repeat runs.
    pub fn state_hash(&self) -> u64 {
        state_hash(&self.nodes(), &self.jobs())
    }

    /// Incrementally-maintained count of idle nodes. Always equals
    /// `self.nodes().iter().filter(|n| n.is_idle()).count()`; the
    /// property tests assert this invariant under random schedules.
    pub fn idle_nodes(&self) -> u32 {
        self.idle_count
    }

    /// Incrementally-maintained busy-node count per type (indexed like
    /// the catalog). Always equals a recount over running jobs.
    pub fn type_usage(&self) -> &[u32] {
        &self.type_usage
    }

    /// The incrementally-maintained cluster power aggregate as of the
    /// latest table state (unlike [`measured_power`](Self::measured_power),
    /// which is the start-of-tick snapshot the tracking loop observes).
    /// Always equals the sum of node draw over the node table, modulo
    /// float rounding; the property tests assert this invariant.
    pub fn aggregate_power(&self) -> Watts {
        self.cfg.idle_power * self.idle_count as f64 + self.busy_power
    }

    /// Advance one tick: drain the events due at it, then run exactly
    /// the stages those events invalidated (all stages, in the legacy
    /// order, when anything is dirty; nearly none on a quiet tick).
    pub fn step(&mut self) {
        let tick_start = self.instruments.as_ref().map(|_| Instant::now());
        let dt = self.cfg.tick;
        self.time += dt;
        self.tick += 1;
        // --- Stage 1: node update. Idle nodes draw constant idle power
        // and a busy node's draw only changes when its cap does, so
        // measured power is an O(1) read of the maintained aggregates.
        let measured = self.cfg.idle_power * self.idle_count as f64 + self.busy_power;
        self.measured_power = measured;
        self.energy += measured * dt;
        if self.observe_pending {
            self.observe_pending = false;
            self.tracer.record_full(
                TraceStage::SampleRx,
                CauseId(self.cause),
                None,
                Some(measured.value()),
                None,
            );
        }
        // Drain events due at this tick. Completions are validated
        // against the job's generation (a re-cap since scheduling makes
        // the event stale) and stamped due, then processed below in
        // running order — the same order the legacy per-tick scan used.
        let mut completions_due = false;
        if self.tick_oracle {
            // Oracle mode: the legacy per-tick completion scan instead
            // of the event queue (`running` is swapped out so the scan
            // can stamp jobs due without aliasing the list).
            let running = std::mem::take(&mut self.running);
            for &job_id in &running {
                if self.job_done_now(job_id) {
                    self.jobs.mark_due(job_id, self.tick);
                    completions_due = true;
                }
            }
            self.running = running;
        }
        while let Some(ev) = self.events.pop_due(self.tick) {
            match ev {
                Event::JobCompletion { job, gen } => {
                    if self.jobs.gen(job) == gen && self.jobs.is_running(job) {
                        if self.job_done_now(job) {
                            self.jobs.mark_due(job, self.tick);
                            completions_due = true;
                        } else {
                            // Checks are conservative-early (scheduled
                            // where the headroom rate estimate crosses
                            // 1.0): not done yet means re-arm from
                            // current progress. The sequence of checks
                            // is strictly increasing and lands on the
                            // exact completion tick.
                            self.schedule_completion(job);
                        }
                    }
                }
                Event::JobArrival => self.arrival_queued = false,
                Event::RecapBoundary => self.boundary_queued = false,
                Event::AdmissionRetry => {
                    self.retry_tick = None;
                    self.sched_dirty = true;
                }
            }
        }
        if completions_due {
            let running = std::mem::take(&mut self.running);
            let mut still_running = Vec::with_capacity(running.len());
            for &job_id in &running {
                if self.jobs.is_due(job_id, self.tick) {
                    self.jobs.set_end(job_id, self.time);
                    let type_id = self.jobs.type_id(job_id);
                    let n_nodes = self.jobs.node_count(job_id);
                    self.type_usage[type_id.index()] =
                        self.type_usage[type_id.index()].saturating_sub(n_nodes);
                    self.idle_count += n_nodes;
                    // The job's draw comes off once per node, in node
                    // order (`x - p` is `x + (-p)`, bit for bit).
                    let (power, cap) = (self.jobs.power(job_id), self.jobs.cap(job_id));
                    for r in self.jobs.ranges_of(job_id) {
                        self.nodes.release(r.clone(), cap);
                    }
                    self.busy_power = Watts(add_repeated(
                        self.busy_power.value(),
                        -power.value(),
                        n_nodes as u64,
                    ));
                    self.completed += 1;
                } else {
                    still_running.push(job_id);
                }
            }
            self.running = still_running;
            if self.running.is_empty() {
                // Re-anchor the float aggregate whenever the cluster
                // drains so incremental add/sub rounding can never
                // accumulate.
                self.busy_power = Watts::ZERO;
            }
            self.sched_dirty = true;
            self.caps_dirty = true;
        }
        // --- Stage 2: cluster view. A target-value change is the
        // authoritative re-cap trigger; the heap's RecapBoundary entries
        // only bound fast-forward jumps.
        let target_now = self.target.at(self.time);
        if !self.tracking_frozen {
            self.tracking.push(target_now, measured);
        }
        if self.last_target != Some(target_now) {
            self.last_target = Some(target_now);
            self.sched_dirty = true;
            self.caps_dirty = true;
        }
        // Admit arrivals (the scheduler view is maintained alongside the
        // queue so the policy stage never rebuilds it).
        while self
            .schedule
            .front()
            .is_some_and(|s| s.time.value() <= self.time.value())
        {
            let Some(s) = self.schedule.pop_front() else {
                break; // front() just matched, but never panic the tick
            };
            let id = self.jobs.push_queued(s.type_id, s.time);
            self.pending.push(id);
            self.pending_views.push(PendingView {
                type_id: s.type_id,
                nodes: self.cfg.catalog[s.type_id].nodes,
                submit: s.time,
            });
            self.sched_dirty = true;
        }
        // --- Stage 3: schedule jobs, then cap power (effective next
        // tick). Both are pure functions of state that only events
        // change, so they re-run only when an event invalidated their
        // memoized outcome — except the QoS-aware policy, whose at-risk
        // inputs drift with time itself.
        if self.tick_oracle {
            self.sched_dirty = true;
            self.caps_dirty = true;
        }
        if self.sched_dirty {
            self.sched_dirty = false;
            self.schedule_jobs(target_now);
        }
        if self.caps_dirty || self.cfg.policy.reads_at_risk() {
            self.caps_dirty = false;
            self.cap_power(target_now);
        }
        // --- Stage 4: history append.
        if self.record_history {
            if let Some(cap) = self.history_cap {
                if self.history.len() >= cap {
                    self.history.pop_front();
                }
            }
            self.history.push_back(HistoryRow {
                time: self.time,
                target: target_now,
                measured,
                busy_nodes: self.cfg.total_nodes - self.idle_count,
                pending_jobs: self.pending.len() as u32,
                running_jobs: self.running.len() as u32,
                completed_jobs: self.completed,
            });
        }
        if let Some(i) = &self.instruments {
            i.jobs_rows.set(self.jobs.len() as f64);
            i.pending_jobs.set(self.pending.len() as f64);
            i.running_jobs.set(self.running.len() as f64);
            i.history_rows.set(self.history.len() as f64);
            i.measured_watts.set(measured.value());
            if let Some(start) = tick_start {
                i.tick.observe(start.elapsed().as_secs_f64());
            }
        }
    }

    /// Advance to `horizon`, jumping over event-free tick stretches when
    /// nothing observes individual ticks (no tracking, history,
    /// telemetry or tracer, and a policy without per-tick inputs).
    /// Exactly equivalent to `while now < horizon { step() }`: a jumped
    /// tick performs the identical float operations (measured-power
    /// snapshot, energy accumulation) a quiet `step()` would, and any
    /// tick an event *could* touch is stepped normally — arrival and
    /// target-boundary wake-ups are queued conservatively early to bound
    /// every jump.
    pub fn run_to(&mut self, horizon: Seconds) {
        while self.time.value() < horizon.value() {
            if !self.can_fast_forward() {
                self.step();
                continue;
            }
            self.queue_wakeups();
            let limit = self.events.next_tick();
            let dt = self.cfg.tick;
            let measured = self.cfg.idle_power * self.idle_count as f64 + self.busy_power;
            while limit.is_none_or(|k| self.tick + 1 < k) && self.time.value() < horizon.value() {
                self.time += dt;
                self.tick += 1;
                self.measured_power = measured;
                self.energy += measured * dt;
            }
            if self.time.value() < horizon.value() {
                self.step();
            }
        }
    }

    /// May ticks be jumped right now? Requires that no per-tick observer
    /// is attached and both policy stages are memoized-clean.
    fn can_fast_forward(&self) -> bool {
        self.tracking_frozen
            && !self.record_history
            && self.instruments.is_none()
            && !self.tracer.is_on()
            && !self.observe_pending
            && !self.sched_dirty
            && !self.caps_dirty
            && !self.tick_oracle
            && !self.cfg.policy.reads_at_risk()
    }

    /// Queue wake-ups bounding the next fast-forward jump: one for the
    /// schedule front, one for the regulation signal's next
    /// piecewise-constant boundary. Estimates are conservative-early
    /// (an early wake-up is a no-op step; a late one would change
    /// semantics), and each is queued at most once at a time.
    fn queue_wakeups(&mut self) {
        if !self.arrival_queued {
            if let Some(s) = self.schedule.front() {
                let k = self.tick_for_time(s.time);
                self.events.push(k, Event::JobArrival);
                self.arrival_queued = true;
            }
        }
        if !self.boundary_queued {
            if let Some(b) = self.target.signal.next_change_after(self.time) {
                let k = self.tick_for_time(b);
                self.events.push(k, Event::RecapBoundary);
                self.boundary_queued = true;
            }
        }
    }

    /// A tick at or before the one where simulated time first reaches
    /// `t`, never earlier than the next tick. Conservative-early by a
    /// full tick so float accumulation in `time` can never make a
    /// wake-up land *after* the moment it guards.
    fn tick_for_time(&self, t: Seconds) -> u64 {
        let dtv = self.cfg.tick.value();
        let ahead = t.value() - self.time.value();
        let measurable = ahead > 0.0 && dtv > 0.0; // NaN falls through to +1
        if !measurable {
            return self.tick + 1;
        }
        let steps = (ahead / dtv).floor() - 1.0;
        if steps >= 1.0 && steps.is_finite() {
            // `steps as u64` saturates for a wake-up ~1.8e19 ticks out.
            self.tick.saturating_add(steps as u64)
        } else {
            self.tick + 1
        }
    }

    /// Node `n`'s progress as of this tick, running job `job_id`.
    fn progress_now(&self, job_id: JobId, n: NodeId) -> f64 {
        let ticks = self.jobs.ticks_since_anchor(job_id, self.tick);
        let dtv = self.cfg.tick.value();
        self.nodes
            .progress(n, self.jobs.nominal(job_id), dtv, ticks)
    }

    /// Are all of the job's nodes at full progress as of this tick? Its
    /// slowest node's progress is the least of them, bit for bit
    /// ([`JobTable::slowest`]), so that node answers alone; the tick
    /// oracle scans every node as the reference.
    fn job_done_now(&self, job_id: JobId) -> bool {
        let done = |n| self.progress_now(job_id, n) >= 1.0;
        if self.tick_oracle {
            self.jobs.node_ids(job_id).all(done)
        } else {
            done(self.jobs.slowest(job_id))
        }
    }

    /// Headroom factor for completion-check scheduling: checks are
    /// scheduled as if the job ran this much faster than it currently
    /// does (clamped to its type's uncapped maximum). Larger values mean
    /// earlier, more frequent checks but fewer re-cap reschedules;
    /// smaller values the reverse. 2× halves the remaining work between
    /// consecutive checks, so a job of any length costs O(log ticks)
    /// checks while rate increases below 2× stay reschedule-free.
    const CHECK_RATE_HEADROOM: f64 = 2.0;

    /// Schedule the job's next completion *check*: the earliest tick at
    /// which every node could have crossed full progress running at a
    /// conservative rate ceiling. The ceiling is one nominal rate per
    /// job, `m = min(CHECK_RATE_HEADROOM × nominal, nominal_max)`, and a
    /// node of coefficient `c` is checked at `m / c`. The job's slowest
    /// node crosses last ([`JobTable::slowest`]), so the check lands
    /// where it crosses, and none is queued if it never does. Rounding is
    /// monotone, so while the job's nominal rate stays at or below `m`,
    /// every node's rate `nominal / c` stays at or below its ceiling: the
    /// check can only land early (never after the true completion tick)
    /// and re-caps leave the queue untouched. A re-cap that lifts the
    /// nominal rate above `m` reschedules, and the generation stamp
    /// invalidates the superseded event. An early check simply finds the
    /// job unfinished and re-arms; the check sequence is strictly
    /// increasing and lands exactly on the completion tick.
    fn schedule_completion(&mut self, job_id: JobId) {
        if self.tick_oracle {
            return;
        }
        let spec = &self.cfg.catalog[self.jobs.type_id(job_id)];
        let nominal_max = nominal_rate(spec, spec.cap_range.max);
        let nominal = self.jobs.nominal(job_id);
        let ceiling = (nominal * Self::CHECK_RATE_HEADROOM).min(nominal_max);
        self.jobs.set_ceiling(job_id, ceiling);
        self.jobs.bump_gen(job_id);
        let slow = self.jobs.slowest(job_id);
        let rate_est = ceiling / self.nodes.perf_coeff(slow);
        let progress = self.progress_now(job_id, slow);
        let Some(k) = crossing_ticks(progress, rate_est, self.cfg.tick.value()) else {
            return;
        };
        self.events.push(
            self.tick.saturating_add(k).max(self.tick + 1),
            Event::JobCompletion {
                job: job_id,
                gen: self.jobs.gen(job_id),
            },
        );
    }

    /// Queue wait at which a pending job must start regardless of power.
    fn forced_start_wait(&self, type_id: JobTypeId) -> f64 {
        let spec = &self.cfg.catalog[type_id];
        self.cfg.qos_risk_threshold * self.cfg.qos.limit * spec.time_uncapped.value()
    }

    /// Wake the scheduling stage when the power-blocked queue head's
    /// forced-start wait will cross its threshold — the one admission
    /// input that changes with time alone. The estimate is
    /// conservative-early; a premature wake-up re-evaluates exactly and
    /// re-arms. Only the earliest outstanding retry is kept.
    fn queue_admission_retry(&mut self, job_id: JobId, type_id: JobTypeId) {
        if self.tick_oracle {
            return;
        }
        let cross = self.jobs.submit(job_id).value() + self.forced_start_wait(type_id);
        let k = self.tick_for_time(Seconds(cross));
        if self.retry_tick.is_none_or(|r| k < r) {
            self.events.push(k, Event::AdmissionRetry);
            self.retry_tick = Some(k);
        }
    }

    fn schedule_jobs(&mut self, target_now: Watts) {
        // Admission rule: a job may start if the cluster could still be
        // capped down to the current target afterwards — i.e. with every
        // busy node at the platform's minimum cap. Anything above that is
        // absorbed by the capping stage, so admission never blocks a
        // reachable target (the paper's "high degree of power sharing"),
        // while a genuinely low target defers scheduling (AQA's primary
        // power lever, Section 6.4). The idle count, per-type usage and
        // pending views are maintained incrementally, so one admission
        // attempt costs the scheduler's O(pending) selection — not a
        // rebuild of every table.
        let min_cap = self.min_cap;
        loop {
            let idle = self.idle_count;
            if idle == 0 || self.pending.is_empty() {
                return;
            }
            let Some(pick) = self
                .scheduler
                .select(&self.pending_views, &self.type_usage, idle)
            else {
                return;
            };
            let job_id = self.pending[pick];
            let type_id = self.jobs.type_id(job_id);
            let spec = &self.cfg.catalog[type_id];
            let busy_after = (self.cfg.total_nodes - self.idle_count) + spec.nodes;
            let idle_after = self.cfg.total_nodes - busy_after;
            let floor_after = min_cap * busy_after as f64 + self.cfg.idle_power * idle_after as f64;
            let wait = (self.time - self.jobs.submit(job_id)).value();
            let forced = wait >= self.forced_start_wait(type_id);
            if !forced && floor_after.value() > target_now.value() {
                // Refrain from scheduling (primary power lever). The
                // selection is time-independent, so only the forced-start
                // clock can change this outcome without an event: arm it.
                self.queue_admission_retry(job_id, type_id);
                return;
            }
            // Start the job on the first idle nodes. Each node keeps its
            // previous cap until this tick's capping stage gives the job
            // its first cap, so its draw is seeded from that cap. No
            // tick passes before that first cap, so the job's first
            // completion check is scheduled there.
            let mut assigned = Vec::new();
            let found = self.nodes.collect_idle(spec.nodes as usize, &mut assigned);
            debug_assert_eq!(found, spec.nodes as usize);
            let mut started_power = Watts::ZERO;
            for n in assigned.iter().flat_map(|r| r.clone().map(NodeId)) {
                started_power += node_power(spec, self.nodes.cap(n));
            }
            let slow = self.nodes.assign(&assigned);
            self.idle_count -= found as u32;
            self.type_usage[type_id.index()] += found as u32;
            self.busy_power += started_power;
            self.jobs
                .set_started(job_id, self.time, &assigned, slow, self.tick);
            self.pending.remove(pick);
            self.pending_views.remove(pick);
            self.running.push(job_id);
            self.caps_dirty = true;
        }
    }

    /// Is a running job at risk of blowing its QoS limit if slowed
    /// further? Projected from nominal remaining time at full power, from
    /// the least progress of its nodes: its slowest node's
    /// ([`JobTable::slowest`]), or a scan of every node in the tick
    /// oracle.
    fn job_at_risk(&self, job_id: JobId) -> bool {
        let spec = &self.cfg.catalog[self.jobs.type_id(job_id)];
        // A job started this tick is not yet capped: no tick has passed,
        // so every node reads its anchor progress (0).
        let progress = |n| self.progress_now(job_id, n);
        let min_progress = if self.tick_oracle {
            self.jobs
                .node_ids(job_id)
                .map(progress)
                .fold(1.0f64, f64::min)
        } else {
            1.0f64.min(progress(self.jobs.slowest(job_id)))
        };
        let remaining = (1.0 - min_progress) * spec.time_uncapped.value();
        let projected_sojourn = (self.time - self.jobs.submit(job_id)).value() + remaining;
        let q = projected_sojourn / spec.time_uncapped.value() - 1.0;
        q >= self.cfg.qos_risk_threshold * self.cfg.qos.limit
    }

    /// Re-cap one job to `cap` and report whether any of its nodes
    /// changed cap. Draw and nominal rate depend on the job type and cap
    /// alone, so they are computed once and stored on the job row; a job
    /// whose cap did not move costs O(1).
    ///
    /// - The first cap runs the same tick the job started, so every
    ///   anchor is still (0, now) and only the draw moves: each node
    ///   whose kept cap differs adds its own draw delta to `busy_power`,
    ///   in node order. The job's first completion check is scheduled
    ///   from the rates after this cap.
    /// - A later re-cap is one slice loop per node range: each node is
    ///   re-anchored under the old rate, and the one draw delta is added
    ///   to `busy_power` once per node, in node order, in closed form
    ///   ([`add_repeated`]). The outstanding completion check stays valid
    ///   unless the new nominal rate exceeds the job's check ceiling; then
    ///   it is rescheduled (the common case, rates wandering below the
    ///   ceiling, is heap-free).
    fn recap_job(&mut self, job_id: JobId, cap: Watts) -> bool {
        let old = self.jobs.cap(job_id);
        if old == Some(cap) {
            return false;
        }
        let spec = &self.cfg.catalog[self.jobs.type_id(job_id)];
        let power = node_power(spec, cap);
        let nominal = nominal_rate(spec, cap);
        let mut changed = old.is_some();
        if old.is_none() {
            debug_assert_eq!(self.jobs.ticks_since_anchor(job_id, self.tick), 0);
            for n in self.jobs.node_ids(job_id) {
                let kept = self.nodes.cap(n);
                if kept != cap {
                    self.busy_power += power - node_power(spec, kept);
                    changed = true;
                }
            }
        } else {
            let delta = power - self.jobs.power(job_id);
            let old_nominal = self.jobs.nominal(job_id);
            let dtv = self.cfg.tick.value();
            let ticks = self.jobs.ticks_since_anchor(job_id, self.tick);
            self.busy_power = self.nodes.reanchor(
                self.jobs.ranges_of(job_id),
                old_nominal,
                dtv,
                ticks,
                self.busy_power,
                delta,
            );
        }
        self.jobs.recap(job_id, cap, power, nominal, self.tick);
        if old.is_none() || nominal > self.jobs.ceiling(job_id) {
            self.schedule_completion(job_id);
        }
        changed
    }

    fn cap_power(&mut self, target_now: Watts) {
        let busy_budget =
            (target_now - self.cfg.idle_power * self.idle_count as f64).max(Watts::ZERO);
        if self.running.is_empty() {
            return;
        }
        let qos_aware = self.cfg.policy.reads_at_risk();
        let mut job_views = Vec::with_capacity(self.running.len());
        let mut at_risk = Vec::with_capacity(self.running.len());
        for &job_id in &self.running {
            let spec = &self.cfg.catalog[self.jobs.type_id(job_id)];
            let mut view = JobView::from_spec(job_id, spec);
            view.nodes = self.jobs.node_count(job_id);
            job_views.push(view);
            // At-risk projection is only computed for the policy that
            // reads it; the others ignore the vector entirely.
            at_risk.push(qos_aware && self.job_at_risk(job_id));
        }
        let caps = self.cfg.policy.assign(busy_budget, &job_views, &at_risk);
        // One job at a time, in running order. Running jobs own disjoint
        // nodes, so re-capping job j writes nothing a later job reads.
        let running = std::mem::take(&mut self.running);
        let mut changed: Vec<(JobId, Watts)> = Vec::new();
        for (&job_id, &cap) in running.iter().zip(&caps) {
            if self.recap_job(job_id, cap) {
                changed.push((job_id, cap));
            }
        }
        self.running = running;
        if changed.is_empty() {
            return;
        }
        if self.tracer.is_on() {
            let t = &self.tracer;
            let cause = t.next_cause();
            self.cause = cause.0;
            self.observe_pending = true;
            t.record_full(
                TraceStage::Decision,
                cause,
                None,
                Some(busy_budget.value()),
                Some(format!("{} cap(s) changed", changed.len())),
            );
            for (job_id, cap) in &changed {
                t.record_job(TraceStage::MsrWrite, cause, job_id.0, Some(cap.value()));
            }
        }
    }

    /// Run until `horizon`, then keep stepping (up to `max_drain` more)
    /// until every submitted job completes.
    pub fn run(&mut self, horizon: Seconds, max_drain: Seconds) {
        while self.time.value() < horizon.value() {
            self.step();
        }
        let drain_end = horizon + max_drain;
        while (self.completed as usize) < self.jobs.len() + self.schedule.len()
            && !self.schedule.is_empty()
        {
            // Arrivals beyond the horizon are still admitted so the
            // accounting stays consistent.
            if self.time.value() >= drain_end.value() {
                break;
            }
            self.step();
        }
        while self.completed as usize != self.jobs.len() && self.time.value() < drain_end.value() {
            self.step();
        }
    }

    /// Summarize the run.
    ///
    /// Each call increments `sim_qos_rows_dropped_total` by the number of
    /// completed rows whose type has no `cfg.types` slot (also reported
    /// in [`SimOutcome::dropped`]), when telemetry is attached.
    pub fn outcome(&self) -> SimOutcome {
        let mut qos_by_type: Vec<(JobTypeId, Vec<QosDegradation>)> =
            self.cfg.types.iter().map(|&id| (id, Vec::new())).collect();
        // Type-indexed slot lookup instead of a linear scan per row.
        let mut slot_of: Vec<Option<usize>> = vec![None; self.cfg.catalog.len()];
        for (slot, &id) in self.cfg.types.iter().enumerate() {
            if let Some(s) = slot_of.get_mut(id.index()) {
                *s = Some(slot);
            }
        }
        let mut unfinished = 0;
        let mut dropped: u32 = 0;
        for j in 0..self.jobs.len() as u64 {
            let id = JobId(j);
            let type_id = self.jobs.type_id(id);
            let qos = self.jobs.end(id).map(|end| {
                QosDegradation::from_timestamps(
                    self.jobs.submit(id),
                    end,
                    self.cfg.catalog[type_id].time_uncapped,
                )
            });
            match qos {
                Some(q) => {
                    let slot = slot_of.get(type_id.index()).copied().flatten();
                    match slot.and_then(|s| qos_by_type.get_mut(s)) {
                        Some((_, qs)) => qs.push(q),
                        None => dropped += 1,
                    }
                }
                None => unfinished += 1,
            }
        }
        if dropped > 0 {
            if let Some(t) = &self.telemetry {
                t.counter("sim_qos_rows_dropped_total", &[])
                    .add(dropped as u64);
            }
        }
        SimOutcome {
            qos_by_type,
            completed: self.completed,
            unfinished,
            dropped,
            tracking_p90: self.tracking.percentile_error(90.0),
            tracking_within_30: self.tracking.fraction_within(0.30),
            energy: self.energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_aqa::{poisson_schedule, RegulationSignal};
    use anor_types::standard_catalog;

    /// A small 16-node cluster config for fast tests.
    fn small_cfg(policy: BudgetPolicy) -> SimConfig {
        let catalog = standard_catalog();
        let types = catalog.long_running();
        SimConfig {
            total_nodes: 16,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy,
            qos: QosConstraint::default(),
            qos_risk_threshold: 0.8,
        }
    }

    fn flat_target(watts: f64) -> PowerTarget {
        PowerTarget {
            avg: Watts(watts),
            reserve: Watts(watts * 0.25),
            signal: RegulationSignal::Constant(0.0),
        }
    }

    fn quick_schedule(
        cfg: &SimConfig,
        utilization: f64,
        horizon: f64,
        seed: u64,
    ) -> Vec<JobSubmission> {
        poisson_schedule(
            &cfg.catalog,
            &cfg.types,
            utilization,
            cfg.total_nodes,
            Seconds(horizon),
            seed,
        )
    }

    #[test]
    fn idle_cluster_draws_idle_power() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        sim.step();
        assert_eq!(sim.measured_power(), Watts(16.0 * 90.0));
        assert_eq!(sim.jobs().len(), 0);
    }

    #[test]
    fn jobs_get_scheduled_run_and_complete() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let sched = vec![
            JobSubmission {
                time: Seconds(0.0),
                type_id: cfg.catalog.find("mg").unwrap().id,
            },
            JobSubmission {
                time: Seconds(5.0),
                type_id: cfg.catalog.find("cg").unwrap().id,
            },
        ];
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4500.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.run(Seconds(600.0), Seconds(600.0));
        let out = sim.outcome();
        assert_eq!(out.completed, 2);
        assert_eq!(out.unfinished, 0);
        // Uncapped and unqueued: QoS degradation near zero.
        for (_, qs) in &out.qos_by_type {
            for q in qs {
                assert!(q.degradation() < 0.2, "Q = {}", q.degradation());
            }
        }
    }

    #[test]
    fn completion_time_matches_linear_model() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mg = cfg.catalog.find("mg").unwrap().id;
        let sched = vec![JobSubmission {
            time: Seconds(0.0),
            type_id: mg,
        }];
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4500.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.run(Seconds(400.0), Seconds(0.0));
        let jobs = sim.jobs();
        let row = &jobs[0];
        assert!(row.is_done());
        // mg runs 120 s uncapped; allow tick quantization + start latency.
        let elapsed = (row.end.unwrap() - row.start.unwrap()).value();
        assert!((elapsed - 120.0).abs() <= 3.0, "elapsed {elapsed}");
    }

    #[test]
    fn tight_target_defers_scheduling() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let bt = cfg.catalog.find("bt").unwrap().id;
        let sched = vec![
            JobSubmission {
                time: Seconds(0.0),
                type_id: bt,
            },
            JobSubmission {
                time: Seconds(1.0),
                type_id: bt,
            },
            JobSubmission {
                time: Seconds(2.0),
                type_id: bt,
            },
        ];
        // Admission floor: idle 16×90 = 1440 W; each busy node adds at
        // least 50 W (140 W min cap vs 90 W idle). A 1600 W target admits
        // only one 2-node BT (a second would need 1440 + 4×50 = 1640 W).
        let mut sim = TabularSim::new(
            cfg,
            flat_target(1600.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        for _ in 0..30 {
            sim.step();
        }
        let running = sim.jobs().iter().filter(|j| j.is_running()).count();
        let pending = sim.jobs().iter().filter(|j| j.is_pending()).count();
        assert!(running >= 1, "at least one job runs");
        assert!(pending >= 1, "the power target must defer some jobs");
    }

    #[test]
    fn starved_jobs_eventually_force_start() {
        let mut cfg = small_cfg(BudgetPolicy::Uniform);
        cfg.qos_risk_threshold = 0.01; // force-start almost immediately
        let mg = cfg.catalog.find("mg").unwrap().id;
        let sched = vec![JobSubmission {
            time: Seconds(0.0),
            type_id: mg,
        }];
        // Target below idle power: no job would ever be admissible.
        let mut sim = TabularSim::new(
            cfg,
            flat_target(1000.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.run(Seconds(300.0), Seconds(300.0));
        assert_eq!(sim.outcome().completed, 1, "QoS forcing must admit the job");
    }

    #[test]
    fn performance_variation_degrades_qos() {
        let run = |sigma: f64, seed: u64| -> f64 {
            let cfg = small_cfg(BudgetPolicy::Uniform);
            let sched = quick_schedule(&cfg, 0.75, 2400.0, seed);
            let variation = PerformanceVariation::with_sigma(16, sigma, seed ^ 0xfeed);
            let mut sim =
                TabularSim::new(cfg.clone(), flat_target(4200.0), &variation, sched, None);
            sim.run(Seconds(2400.0), Seconds(2400.0));
            let out = sim.outcome();
            let all: Vec<QosDegradation> = out
                .qos_by_type
                .iter()
                .flat_map(|(_, qs)| qs.iter().copied())
                .collect();
            cfg.qos.percentile_degradation(&all).unwrap_or(0.0)
        };
        // Average over a few seeds to tame scheduling noise.
        let q_none: f64 = (0..3).map(|s| run(0.0, s)).sum::<f64>() / 3.0;
        let q_heavy: f64 = (0..3).map(|s| run(0.25, s)).sum::<f64>() / 3.0;
        assert!(
            q_heavy > q_none,
            "variation must worsen QoS: {q_heavy} vs {q_none}"
        );
    }

    #[test]
    fn tracking_error_recorded_every_tick() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(2000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        for _ in 0..50 {
            sim.step();
        }
        assert_eq!(sim.tracking().len(), 50);
        // Idle cluster draws 1440 W vs the 2000 W target: error = 560/500.
        let e = sim.tracking().mean_error();
        assert!((e - 560.0 / 500.0).abs() < 1e-9, "error {e}");
    }

    #[test]
    fn history_recording_is_optional_and_complete() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(2000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        for _ in 0..5 {
            sim.step();
        }
        assert!(sim.history().is_empty());
        sim.record_history(true);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.history().len(), 5);
        assert_eq!(sim.history()[0].busy_nodes, 0);
    }

    #[test]
    fn multi_node_job_waits_for_slowest_node() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let ft = cfg.catalog.find("ft").unwrap().id; // 2 nodes, 180 s
        let sched = vec![JobSubmission {
            time: Seconds(0.0),
            type_id: ft,
        }];
        // Node 1 is 1.5x slower than node 0.
        let mut coeffs = PerformanceVariation::none(16);
        // Build a variation with one slow node via with_sigma replacement:
        // simplest is to construct nodes manually through the public API.
        let mut sim = TabularSim::new(cfg, flat_target(4500.0), &coeffs, sched.clone(), None);
        sim.run(Seconds(400.0), Seconds(0.0));
        let nominal = (sim.jobs()[0].end.unwrap() - sim.jobs()[0].start.unwrap()).value();
        // Now the same run with heavy variation: completion gated by the
        // slowest assigned node, so it takes at least as long.
        coeffs = PerformanceVariation::with_sigma(16, 0.3, 99);
        let worst = coeffs.iter().take(2).fold(1.0f64, f64::max);
        let mut sim2 = TabularSim::new(
            small_cfg(BudgetPolicy::Uniform),
            flat_target(4500.0),
            &coeffs,
            sched,
            None,
        );
        sim2.run(Seconds(1000.0), Seconds(500.0));
        let varied = (sim2.jobs()[0].end.unwrap() - sim2.jobs()[0].start.unwrap()).value();
        assert!(
            varied + 2.0 >= nominal * worst.min(1.0),
            "varied {varied} vs nominal {nominal} (worst coeff {worst})"
        );
    }

    #[test]
    fn attached_telemetry_times_ticks_and_tracks_table_sizes() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mg = cfg.catalog.find("mg").unwrap().id;
        let sched = vec![JobSubmission {
            time: Seconds(0.0),
            type_id: mg,
        }];
        let telemetry = Telemetry::new();
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4500.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.attach_telemetry(&telemetry);
        for _ in 0..20 {
            sim.step();
        }
        assert_eq!(telemetry.histogram("sim_tick_seconds", &[]).count(), 20);
        assert_eq!(telemetry.gauge("sim_jobs_rows", &[]).get(), 1.0);
        assert_eq!(telemetry.gauge("sim_running_jobs", &[]).get(), 1.0);
        // Tracking errors stream into the shared registry too.
        assert_eq!(telemetry.histogram("tracking_error", &[]).count(), 20);
        // reset_tracking keeps streaming into the same histogram.
        sim.reset_tracking();
        sim.step();
        assert_eq!(telemetry.histogram("tracking_error", &[]).count(), 21);
    }

    #[test]
    fn completed_rows_of_unlisted_types_are_counted_not_lost() {
        // A type present in the schedule but absent from cfg.types has
        // no qos_by_type slot; it must surface in `dropped`, not vanish.
        let mut cfg = small_cfg(BudgetPolicy::Uniform);
        let mg = cfg.catalog.find("mg").unwrap().id;
        let cg = cfg.catalog.find("cg").unwrap().id;
        cfg.types = vec![cg]; // mg completes but has no slot
        let sched = vec![
            JobSubmission {
                time: Seconds(0.0),
                type_id: mg,
            },
            JobSubmission {
                time: Seconds(1.0),
                type_id: cg,
            },
        ];
        let telemetry = Telemetry::new();
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4500.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.attach_telemetry(&telemetry);
        sim.run(Seconds(600.0), Seconds(600.0));
        let out = sim.outcome();
        assert_eq!(out.completed, 2);
        assert_eq!(out.unfinished, 0);
        assert_eq!(out.dropped, 1, "the mg row must be counted as dropped");
        let counted: usize = out.qos_by_type.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(counted, 1, "only the cg row aggregates");
        assert_eq!(
            telemetry.counter("sim_qos_rows_dropped_total", &[]).get(),
            1
        );
    }

    #[test]
    fn capped_history_is_a_chronological_ring() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(2000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        sim.record_history_capped(3);
        for _ in 0..10 {
            sim.step();
        }
        assert_eq!(sim.history().len(), 3);
        let times: Vec<f64> = sim.history().iter().map(|r| r.time.value()).collect();
        assert_eq!(times, vec![8.0, 9.0, 10.0], "most recent rows, in order");
    }

    #[test]
    fn zero_history_cap_disables_retention_entirely() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(2000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        sim.record_history_capped(2);
        for _ in 0..5 {
            sim.step();
        }
        assert_eq!(sim.history().len(), 2);
        // cap 0 turns recording off, drops the rows and frees the buffer.
        sim.record_history_capped(0);
        assert!(sim.history().is_empty());
        assert_eq!(sim.history().capacity(), 0, "no per-tick allocation");
        for _ in 0..5 {
            sim.step();
        }
        assert!(sim.history().is_empty());
        assert_eq!(sim.history().capacity(), 0);
    }

    #[test]
    fn incremental_counters_match_recounts_through_a_full_run() {
        let cfg = small_cfg(BudgetPolicy::EvenSlowdown);
        let sched = quick_schedule(&cfg, 0.8, 600.0, 23);
        let mut sim = TabularSim::new(
            cfg.clone(),
            flat_target(3600.0),
            &PerformanceVariation::with_sigma(16, 0.1, 5),
            sched,
            None,
        );
        for _ in 0..800 {
            sim.step();
            let idle_recount = sim.nodes().iter().filter(|n| n.is_idle()).count() as u32;
            assert_eq!(sim.idle_nodes(), idle_recount);
            let mut usage = vec![0u32; cfg.catalog.len()];
            for job in sim.jobs().iter().filter(|j| j.is_running()) {
                usage[job.type_id.index()] += job.nodes.len() as u32;
            }
            assert_eq!(sim.type_usage(), &usage[..]);
        }
    }

    #[test]
    fn qos_aware_policy_runs_end_to_end() {
        let cfg = small_cfg(BudgetPolicy::EvenSlowdownQosAware);
        let sched = quick_schedule(&cfg, 0.5, 1200.0, 17);
        let n = sched.len();
        let mut sim = TabularSim::new(
            cfg,
            flat_target(3800.0),
            &PerformanceVariation::with_sigma(16, 0.1, 3),
            sched,
            None,
        );
        sim.run(Seconds(1200.0), Seconds(2400.0));
        let out = sim.outcome();
        assert!(out.completed > 0);
        assert_eq!(out.completed as usize + out.unfinished as usize, n);
    }

    #[test]
    fn run_to_matches_stepping_exactly() {
        // run_to's fast-forward must be bit-identical to plain stepping:
        // same hash, same energy, same outcome — including across an
        // arrival, a trace-signal boundary and completions.
        let build = || {
            let cfg = small_cfg(BudgetPolicy::EvenSlowdown);
            let sched = quick_schedule(&cfg, 0.6, 900.0, 41);
            let target = PowerTarget {
                avg: Watts(3600.0),
                reserve: Watts(900.0),
                signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(1800.0), 7),
            };
            let mut sim = TabularSim::new(
                cfg,
                target,
                &PerformanceVariation::with_sigma(16, 0.1, 9),
                sched,
                None,
            );
            sim.freeze_tracking(); // tracking observes ticks; disable it
            sim
        };
        let mut stepped = build();
        while stepped.now().value() < 1800.0 {
            stepped.step();
        }
        let mut jumped = build();
        jumped.run_to(Seconds(1800.0));
        assert_eq!(jumped.now(), stepped.now());
        assert_eq!(jumped.state_hash(), stepped.state_hash());
        assert_eq!(jumped.energy(), stepped.energy());
        assert_eq!(jumped.measured_power(), stepped.measured_power());
        assert_eq!(jumped.outcome().completed, stepped.outcome().completed);
    }

    #[test]
    fn far_future_wakeup_saturates_instead_of_overflowing() {
        // An arrival ~1e20 s out lies beyond u64::MAX ticks: its wake-up
        // tick must saturate, not overflow (debug) or wrap to a past tick
        // that re-queues the wake-up every tick (release).
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mg = cfg.catalog.find("mg").unwrap().id;
        let sched = vec![JobSubmission {
            time: Seconds(1e20),
            type_id: mg,
        }];
        let mut sim = TabularSim::new(
            cfg,
            flat_target(4500.0),
            &PerformanceVariation::none(16),
            sched,
            None,
        );
        sim.freeze_tracking();
        sim.step();
        sim.run_to(Seconds(100.0));
        assert_eq!(sim.now(), Seconds(100.0));
        assert!(sim.jobs().is_empty(), "the far arrival is not admitted yet");
    }

    /// Steps a traced cluster and checks, tick by tick, that every job
    /// whose node rows changed cap has an `MsrWrite` under that tick's
    /// `Decision` cause. Returns how many changed node rows were checked.
    fn assert_every_recap_is_traced(policy: BudgetPolicy, seed: u64) -> usize {
        let cfg = small_cfg(policy);
        let sched = quick_schedule(&cfg, 0.9, 1200.0, seed);
        let target = PowerTarget {
            avg: Watts(3200.0),
            reserve: Watts(800.0),
            signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(2400.0), seed),
        };
        let variation = PerformanceVariation::with_sigma(16, 0.1, seed ^ 0x7);
        let mut sim = TabularSim::new(cfg, target, &variation, sched, None);
        let tracer = Tracer::with_capacity(32);
        sim.attach_tracer(&tracer);
        let mut checked = 0;
        for tick in 1..=1200 {
            let before = sim.nodes();
            let seen = tracer.recorded();
            sim.step();
            let events: Vec<_> = tracer
                .ring_snapshot()
                .into_iter()
                .filter(|e| e.span.0 >= seen)
                .collect();
            let decision = events
                .iter()
                .find(|e| e.stage == TraceStage::Decision)
                .map(|e| e.cause);
            let written: Vec<u64> = events
                .iter()
                .filter(|e| e.stage == TraceStage::MsrWrite && Some(e.cause) == decision)
                .filter_map(|e| e.job)
                .collect();
            for (i, (old, new)) in before.iter().zip(sim.nodes()).enumerate() {
                let Some(job) = new.job else { continue };
                if new.cap != old.cap {
                    assert!(
                        written.contains(&job.0),
                        "{policy:?} seed {seed} tick {tick}: node {i} of job {} \
                         moved {} -> {} with no msr_write",
                        job.0,
                        old.cap.value(),
                        new.cap.value()
                    );
                    checked += 1;
                }
            }
        }
        checked
    }

    #[test]
    fn every_recapped_job_is_traced() {
        let mut checked = 0;
        for policy in BudgetPolicy::ALL {
            for seed in 0..12 {
                checked += assert_every_recap_is_traced(policy, seed);
            }
        }
        assert!(checked > 0, "the fixture must re-cap some jobs");
    }

    #[test]
    fn energy_integrates_measured_power() {
        let cfg = small_cfg(BudgetPolicy::Uniform);
        let mut sim = TabularSim::new(
            cfg,
            flat_target(2000.0),
            &PerformanceVariation::none(16),
            vec![],
            None,
        );
        for _ in 0..10 {
            sim.step();
        }
        // Idle cluster: 1440 W × 10 s.
        assert_eq!(sim.energy(), Joules(1440.0 * 10.0));
        assert_eq!(sim.outcome().energy, Joules(1440.0 * 10.0));
    }
}
