//! The simulator's node and job tables.
//!
//! Section 5.6: "The node table indicates whether a given node is idle,
//! or which job it is executing, and tracks the current power consumption
//! and current cap applied to each node. The job table keeps track of
//! timestamps for queue entry, job start, and job end, as well as the
//! type of job... The simulator also tracks the minimum and maximum power
//! and time of each job type, to simulate a simple linear
//! power-performance relationship."
//!
//! Since the event-engine rewrite the live tables are struct-of-arrays
//! ([`NodeTable`], [`JobTable`]): each attribute is its own dense column
//! so the event-time hot loops (re-anchoring a job's nodes at a re-cap
//! boundary, releasing them at completion) stream cache-linear memory
//! instead of striding over wide row structs. [`NodeRow`] and [`JobRow`]
//! remain the materialized row views every external consumer sees.
//!
//! Progress is *anchored*, not integrated: a node stores the progress it
//! had at the last state transition (job start or re-cap) plus the tick
//! that anchor was taken at, and [`progress_at`] evaluates the linear law
//! analytically for any later tick. That closed form is what lets the
//! engine schedule a completion *event* instead of walking every busy
//! node every simulated second.

use anor_types::{JobId, JobTypeId, JobTypeSpec, NodeId, QosDegradation, Seconds, Watts};

/// One row of the node table.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRow {
    /// The executing job, or `None` when idle.
    pub job: Option<JobId>,
    /// Cap currently applied to the node.
    pub cap: Watts,
    /// Power the node consumed during the last tick.
    pub power: Watts,
    /// This node's performance-variation coefficient (> 1 = slower).
    pub perf_coeff: f64,
    /// Local progress of the node's share of its job, in `[0, 1]`.
    pub progress: f64,
    /// Cached progress per second under the current cap (0 when idle).
    /// Only changes at state transitions (job start, re-cap), so the
    /// per-tick integration is a single multiply-add.
    pub rate: f64,
}

impl NodeRow {
    /// A fresh idle node with the given coefficient.
    pub fn idle(perf_coeff: f64, tdp_cap: Watts) -> Self {
        NodeRow {
            job: None,
            cap: tdp_cap,
            power: Watts::ZERO,
            perf_coeff,
            progress: 0.0,
            rate: 0.0,
        }
    }

    /// Is the node free for scheduling?
    pub fn is_idle(&self) -> bool {
        self.job.is_none()
    }
}

/// One row of the job table.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRow {
    /// Stable identifier.
    pub id: JobId,
    /// Which queue / type the job belongs to.
    pub type_id: JobTypeId,
    /// Queue-entry timestamp.
    pub submit: Seconds,
    /// Start timestamp (None while queued).
    pub start: Option<Seconds>,
    /// End timestamp (None while queued or running).
    pub end: Option<Seconds>,
    /// Nodes allocated to the job (empty while queued).
    pub nodes: Vec<NodeId>,
}

impl JobRow {
    /// A freshly submitted job.
    pub fn queued(id: JobId, type_id: JobTypeId, submit: Seconds) -> Self {
        JobRow {
            id,
            type_id,
            submit,
            start: None,
            end: None,
            nodes: Vec::new(),
        }
    }

    /// Is the job still waiting in the queue?
    pub fn is_pending(&self) -> bool {
        self.start.is_none()
    }

    /// Is the job currently executing?
    pub fn is_running(&self) -> bool {
        self.start.is_some() && self.end.is_none()
    }

    /// Has the job completed?
    pub fn is_done(&self) -> bool {
        self.end.is_some()
    }

    /// QoS degradation of a completed job relative to its type's nominal
    /// uncapped execution time.
    pub fn qos(&self, spec: &JobTypeSpec) -> Option<QosDegradation> {
        self.end
            .map(|end| QosDegradation::from_timestamps(self.submit, end, spec.time_uncapped))
    }
}

/// Linear rate-of-progress model (Section 5.6): progress per second at a
/// given cap on a nominal node, interpolated between the type's fastest
/// and slowest precharacterized rates. It depends on the job type and cap
/// alone, so a re-cap computes it once per job.
pub fn nominal_rate(spec: &JobTypeSpec, cap: Watts) -> f64 {
    let t_fast = spec.time_uncapped.value();
    let t_slow = t_fast * (1.0 + spec.sensitivity);
    let r_fast = 1.0 / t_fast;
    let r_slow = 1.0 / t_slow;
    let window =
        anor_types::CapRange::new(spec.cap_range.min, spec.effective_cap(spec.cap_range.max));
    let f = window.fraction(window.clamp(cap)).clamp(0.0, 1.0);
    r_slow + (r_fast - r_slow) * f
}

/// A node's progress per second at a given cap: the [`nominal_rate`]
/// divided by the node's performance coefficient.
pub fn progress_rate(spec: &JobTypeSpec, cap: Watts, perf_coeff: f64) -> f64 {
    nominal_rate(spec, cap) / perf_coeff
}

/// Per-node power draw while running a job under a cap.
pub fn node_power(spec: &JobTypeSpec, cap: Watts) -> Watts {
    spec.draw_at(cap)
}

/// The shared progress law: a node anchored at `anchor_progress` with a
/// constant per-second `rate` reaches
/// `min(1, anchor_progress + rate·dt·ticks)` after `ticks` simulation
/// steps of length `dt`. Both the event engine and the equivalence-test
/// oracle evaluate exactly this closed form, so a completion tick
/// computed ahead of time agrees bit-for-bit with a tick-by-tick replay
/// that re-evaluates it each step.
#[inline]
pub fn progress_at(anchor_progress: f64, rate: f64, dt: f64, ticks: u64) -> f64 {
    if ticks == 0 {
        return anchor_progress;
    }
    (anchor_progress + rate * dt * ticks as f64).min(1.0)
}

/// The minimal number of ticks after the anchor at which [`progress_at`]
/// reaches 1.0, or `None` when it never does (zero, negative or
/// non-finite rate, or a crossing too far out to represent). The closed
/// form gives an estimate that is then walked to the exact boundary of
/// `progress_at` itself, so a completion event scheduled from this value
/// agrees bit-for-bit with a tick-by-tick evaluation of the same law.
pub fn crossing_ticks(anchor_progress: f64, rate: f64, dt: f64) -> Option<u64> {
    if anchor_progress >= 1.0 {
        return Some(0);
    }
    let per = rate * dt;
    let usable = per > 0.0 && per.is_finite(); // NaN/zero/negative: never
    if !usable {
        return None;
    }
    let est = ((1.0 - anchor_progress) / per).ceil();
    if !est.is_finite() || est < 0.0 || est >= u64::MAX as f64 {
        return None;
    }
    let mut k = est as u64;
    while k > 0 && progress_at(anchor_progress, rate, dt, k - 1) >= 1.0 {
        k -= 1;
    }
    while progress_at(anchor_progress, rate, dt, k) < 1.0 {
        k += 1;
    }
    Some(k)
}

/// Sentinel in the node table's job column for "idle".
const NO_JOB: u64 = u64::MAX;

/// Struct-of-arrays node table: one dense column per attribute plus an
/// idle-node bitset. All indexing is confined to this type; callers pass
/// [`NodeId`]s minted by the table itself.
#[derive(Debug, Clone)]
pub struct NodeTable {
    /// Executing job per node (`NO_JOB` = idle).
    job: Vec<u64>,
    /// Applied cap per node.
    cap: Vec<Watts>,
    /// Current draw per node (idle nodes hold the idle draw).
    power: Vec<Watts>,
    /// Performance-variation coefficient per node.
    perf_coeff: Vec<f64>,
    /// Progress at the node's last state transition.
    anchor_progress: Vec<f64>,
    /// Tick the anchor was taken at.
    anchor_tick: Vec<u64>,
    /// Progress per second under the current cap (0 when idle).
    rate: Vec<f64>,
    /// Conservative rate ceiling the outstanding completion check was
    /// scheduled against (0 when idle). The engine reschedules a job's
    /// check only when a re-cap pushes a node's actual rate above this
    /// estimate, so the column is a scheduling aid, not physics: it never
    /// enters progress/power arithmetic or the state hash.
    rate_est: Vec<f64>,
    /// Bitset of idle nodes (bit set = idle), scanned ascending so the
    /// "first idle nodes" assignment matches a linear row scan.
    idle_bits: Vec<u64>,
}

impl NodeTable {
    /// Build an all-idle table of `n` nodes with per-node coefficients
    /// from `coeff`, every cap at `tdp` and every draw at `idle_power`.
    pub fn build(n: u32, tdp: Watts, idle_power: Watts, coeff: impl Fn(NodeId) -> f64) -> Self {
        let n = n as usize;
        let words = n.div_ceil(64);
        let mut idle_bits = vec![u64::MAX; words];
        // Clear the tail bits beyond n so scans never mint ghost nodes.
        if !n.is_multiple_of(64) {
            if let Some(last) = idle_bits.last_mut() {
                *last = (1u64 << (n % 64)) - 1;
            }
        }
        NodeTable {
            job: vec![NO_JOB; n],
            cap: vec![tdp; n],
            power: vec![idle_power; n],
            perf_coeff: (0..n).map(|i| coeff(NodeId(i as u32))).collect(),
            anchor_progress: vec![0.0; n],
            anchor_tick: vec![0; n],
            rate: vec![0.0; n],
            rate_est: vec![0.0; n],
            idle_bits,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.job.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.job.is_empty()
    }

    /// Is the node idle?
    pub fn is_idle(&self, n: NodeId) -> bool {
        self.job[n.index()] == NO_JOB
    }

    /// The node's current cap.
    pub fn cap(&self, n: NodeId) -> Watts {
        self.cap[n.index()]
    }

    /// The node's current draw.
    pub fn power(&self, n: NodeId) -> Watts {
        self.power[n.index()]
    }

    /// The node's performance coefficient.
    pub fn perf_coeff(&self, n: NodeId) -> f64 {
        self.perf_coeff[n.index()]
    }

    /// The conservative rate ceiling of the node's outstanding
    /// completion check (see the field docs).
    pub fn rate_est(&self, n: NodeId) -> f64 {
        self.rate_est[n.index()]
    }

    /// Record the rate ceiling a completion check was scheduled against.
    pub fn set_rate_est(&mut self, n: NodeId, v: f64) {
        self.rate_est[n.index()] = v;
    }

    /// Progress per second under the node's current cap.
    pub fn rate(&self, n: NodeId) -> f64 {
        self.rate[n.index()]
    }

    /// The node's anchor (progress at the last transition, and the tick
    /// it was taken at).
    pub fn anchor(&self, n: NodeId) -> (f64, u64) {
        (self.anchor_progress[n.index()], self.anchor_tick[n.index()])
    }

    /// The node's progress materialized at `tick` via [`progress_at`].
    pub fn progress_at_tick(&self, n: NodeId, tick: u64, dt: f64) -> f64 {
        let i = n.index();
        progress_at(
            self.anchor_progress[i],
            self.rate[i],
            dt,
            tick.saturating_sub(self.anchor_tick[i]),
        )
    }

    /// Collect the first `want` idle nodes in ascending id order into
    /// `out` (cleared first). Returns how many were found.
    pub fn collect_idle(&self, want: usize, out: &mut Vec<NodeId>) -> usize {
        out.clear();
        if want == 0 {
            return 0;
        }
        for (w, &word) in self.idle_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros();
                out.push(NodeId((w * 64) as u32 + b));
                if out.len() == want {
                    return want;
                }
                bits &= bits - 1;
            }
        }
        out.len()
    }

    /// Start `job` on node `n` at `tick`: the anchor resets to zero
    /// progress and the node keeps its previous cap (the capping stage
    /// reassigns it later the same tick), so draw and rate are seeded
    /// from that stale cap by the caller.
    pub fn assign(&mut self, n: NodeId, job: JobId, power: Watts, rate: f64, tick: u64) {
        let i = n.index();
        self.job[i] = job.0;
        self.power[i] = power;
        self.rate[i] = rate;
        self.rate_est[i] = rate;
        self.anchor_progress[i] = 0.0;
        self.anchor_tick[i] = tick;
        self.idle_bits[i / 64] &= !(1u64 << (i % 64));
    }

    /// Re-cap node `n` at `tick`: the caller materializes the node's
    /// progress under the old rate into `anchor_progress` first, then the
    /// new cap/draw/rate take effect from the next tick — exactly the
    /// legacy ordering, where caps written in the policy stage of tick
    /// `t` first influence the node-update stage of tick `t+1`.
    pub fn recap(
        &mut self,
        n: NodeId,
        cap: Watts,
        power: Watts,
        rate: f64,
        anchor_progress: f64,
        tick: u64,
    ) {
        let i = n.index();
        self.cap[i] = cap;
        self.power[i] = power;
        self.rate[i] = rate;
        self.anchor_progress[i] = anchor_progress;
        self.anchor_tick[i] = tick;
    }

    /// Release node `n` at completion: idle again at `idle_power`, zero
    /// progress, zero rate. The cap is kept, as on real hardware.
    pub fn release(&mut self, n: NodeId, idle_power: Watts, tick: u64) {
        let i = n.index();
        self.job[i] = NO_JOB;
        self.power[i] = idle_power;
        self.rate[i] = 0.0;
        self.rate_est[i] = 0.0;
        self.anchor_progress[i] = 0.0;
        self.anchor_tick[i] = tick;
        self.idle_bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Materialize the full table as rows, with progress evaluated at
    /// `tick`.
    pub fn rows(&self, tick: u64, dt: f64) -> Vec<NodeRow> {
        (0..self.len())
            .map(|i| {
                let n = NodeId(i as u32);
                NodeRow {
                    job: (self.job[i] != NO_JOB).then(|| JobId(self.job[i])),
                    cap: self.cap[i],
                    power: self.power[i],
                    perf_coeff: self.perf_coeff[i],
                    progress: self.progress_at_tick(n, tick, dt),
                    rate: self.rate[i],
                }
            })
            .collect()
    }
}

/// Sentinel timestamp for "not yet" in the job table's start/end columns.
const NO_TIME: f64 = f64::NAN;

/// Struct-of-arrays job table. Node allocations live in a shared
/// append-only arena (`node_ids`) addressed by per-job offset and length,
/// so completed jobs keep their allocation history without per-row Vecs.
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    type_id: Vec<JobTypeId>,
    submit: Vec<Seconds>,
    start: Vec<f64>,
    end: Vec<f64>,
    node_off: Vec<usize>,
    node_len: Vec<u32>,
    /// Shared node-allocation arena.
    node_ids: Vec<NodeId>,
    /// Event generation: bumped whenever the job's rates change (start or
    /// re-cap), so stale completion events can be discarded on pop.
    gen: Vec<u32>,
    /// Tick at which the job's completion event fired (u64::MAX = none):
    /// the node-update stage completes exactly the jobs stamped with the
    /// current tick, in running order.
    due: Vec<u64>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Number of rows (queued, running and completed).
    pub fn len(&self) -> usize {
        self.type_id.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.type_id.is_empty()
    }

    /// Append a freshly submitted job; returns its id (dense, minted by
    /// the table).
    pub fn push_queued(&mut self, type_id: JobTypeId, submit: Seconds) -> JobId {
        let id = JobId(self.type_id.len() as u64);
        self.type_id.push(type_id);
        self.submit.push(submit);
        self.start.push(NO_TIME);
        self.end.push(NO_TIME);
        self.node_off.push(self.node_ids.len());
        self.node_len.push(0);
        self.gen.push(0);
        self.due.push(u64::MAX);
        id
    }

    /// The job's type.
    pub fn type_id(&self, j: JobId) -> JobTypeId {
        self.type_id[j.0 as usize]
    }

    /// The job's queue-entry timestamp.
    pub fn submit(&self, j: JobId) -> Seconds {
        self.submit[j.0 as usize]
    }

    /// The job's start timestamp, if started.
    pub fn start(&self, j: JobId) -> Option<Seconds> {
        let v = self.start[j.0 as usize];
        (!v.is_nan()).then_some(Seconds(v))
    }

    /// The job's end timestamp, if completed.
    pub fn end(&self, j: JobId) -> Option<Seconds> {
        let v = self.end[j.0 as usize];
        (!v.is_nan()).then_some(Seconds(v))
    }

    /// Is the job started and not yet completed?
    pub fn is_running(&self, j: JobId) -> bool {
        !self.start[j.0 as usize].is_nan() && self.end[j.0 as usize].is_nan()
    }

    /// Record the job's start: timestamp plus its node allocation
    /// (appended to the shared arena).
    pub fn set_started(&mut self, j: JobId, at: Seconds, nodes: &[NodeId]) {
        let i = j.0 as usize;
        self.start[i] = at.value();
        self.node_off[i] = self.node_ids.len();
        self.node_len[i] = nodes.len() as u32;
        self.node_ids.extend_from_slice(nodes);
    }

    /// Record the job's completion timestamp.
    pub fn set_end(&mut self, j: JobId, at: Seconds) {
        self.end[j.0 as usize] = at.value();
    }

    /// The job's allocated nodes (empty while queued).
    pub fn nodes_of(&self, j: JobId) -> &[NodeId] {
        let i = j.0 as usize;
        let off = self.node_off[i];
        &self.node_ids[off..off + self.node_len[i] as usize]
    }

    /// How many nodes the job holds (0 while queued).
    pub fn node_count(&self, j: JobId) -> u32 {
        self.node_len[j.0 as usize]
    }

    /// The job's current event generation.
    pub fn gen(&self, j: JobId) -> u32 {
        self.gen[j.0 as usize]
    }

    /// Invalidate outstanding completion events for the job (rates
    /// changed); returns the new generation.
    pub fn bump_gen(&mut self, j: JobId) -> u32 {
        let g = &mut self.gen[j.0 as usize];
        *g = g.wrapping_add(1);
        *g
    }

    /// Stamp the job as due to complete at `tick`.
    pub fn mark_due(&mut self, j: JobId, tick: u64) {
        self.due[j.0 as usize] = tick;
    }

    /// Was the job stamped due at exactly `tick`?
    pub fn is_due(&self, j: JobId, tick: u64) -> bool {
        self.due[j.0 as usize] == tick
    }

    /// Materialize one row.
    pub fn row(&self, j: JobId) -> JobRow {
        JobRow {
            id: j,
            type_id: self.type_id(j),
            submit: self.submit(j),
            start: self.start(j),
            end: self.end(j),
            nodes: self.nodes_of(j).to_vec(),
        }
    }

    /// Materialize the full table as rows.
    pub fn rows(&self) -> Vec<JobRow> {
        (0..self.len() as u64).map(|i| self.row(JobId(i))).collect()
    }
}

/// FNV-1a over the materialized node and job tables: a cheap,
/// order-sensitive fingerprint of final simulator state. Two runs that
/// agree on every table bit agree on this hash; the perfsuite asserts it
/// is identical across stepping modes and repeat runs.
pub fn state_hash(nodes: &[NodeRow], jobs: &[JobRow]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(nodes.len() as u64);
    for n in nodes {
        h.write_u64(n.job.map_or(u64::MAX, |j| j.0));
        h.write_f64(n.cap.value());
        h.write_f64(n.power.value());
        h.write_f64(n.perf_coeff);
        h.write_f64(n.progress);
        h.write_f64(n.rate);
    }
    h.write_u64(jobs.len() as u64);
    for j in jobs {
        h.write_u64(j.id.0);
        h.write_u64(j.type_id.index() as u64);
        h.write_f64(j.submit.value());
        h.write_u64(j.start.map_or(u64::MAX, |s| s.value().to_bits()));
        h.write_u64(j.end.map_or(u64::MAX, |e| e.value().to_bits()));
        h.write_u64(j.nodes.len() as u64);
        for n in &j.nodes {
            h.write_u64(n.index() as u64);
        }
    }
    h.finish()
}

/// Incremental 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::standard_catalog;

    #[test]
    fn node_row_lifecycle() {
        let mut n = NodeRow::idle(1.0, Watts(280.0));
        assert!(n.is_idle());
        n.job = Some(JobId(1));
        assert!(!n.is_idle());
    }

    #[test]
    fn job_row_state_machine() {
        let mut j = JobRow::queued(JobId(1), JobTypeId(0), Seconds(10.0));
        assert!(j.is_pending() && !j.is_running() && !j.is_done());
        j.start = Some(Seconds(20.0));
        assert!(!j.is_pending() && j.is_running() && !j.is_done());
        j.end = Some(Seconds(120.0));
        assert!(j.is_done() && !j.is_running());
    }

    #[test]
    fn qos_uses_submit_to_end() {
        let cat = standard_catalog();
        let spec = cat.find("mg").unwrap(); // 120 s uncapped
        let mut j = JobRow::queued(JobId(1), spec.id, Seconds(0.0));
        j.start = Some(Seconds(120.0));
        j.end = Some(Seconds(240.0));
        let q = j.qos(spec).unwrap();
        // Sojourn 240 s over a 120 s nominal -> Q = 1.
        assert!((q.degradation() - 1.0).abs() < 1e-12);
        // Pending job: no QoS yet.
        let j2 = JobRow::queued(JobId(2), spec.id, Seconds(0.0));
        assert!(j2.qos(spec).is_none());
    }

    #[test]
    fn progress_rate_linear_in_cap() {
        let cat = standard_catalog();
        let spec = cat.find("bt").unwrap(); // 600 s, sens 0.75
        let r_max = progress_rate(spec, Watts(272.0), 1.0);
        let r_min = progress_rate(spec, Watts(140.0), 1.0);
        assert!((r_max - 1.0 / 600.0).abs() < 1e-12);
        assert!((r_min - 1.0 / 1050.0).abs() < 1e-12);
        // Midpoint of the effective window is the mean rate.
        let mid = progress_rate(spec, Watts(206.0), 1.0);
        assert!((mid - 0.5 * (r_max + r_min)).abs() < 1e-12);
    }

    #[test]
    fn progress_rate_saturates_beyond_window() {
        let cat = standard_catalog();
        let spec = cat.find("sp").unwrap(); // max draw 230 W
        assert_eq!(
            progress_rate(spec, Watts(280.0), 1.0),
            progress_rate(spec, Watts(230.0), 1.0),
            "caps above the job's draw do not speed it up"
        );
        assert_eq!(
            progress_rate(spec, Watts(100.0), 1.0),
            progress_rate(spec, Watts(140.0), 1.0)
        );
    }

    #[test]
    fn perf_coeff_divides_rate() {
        let cat = standard_catalog();
        let spec = cat.find("lu").unwrap();
        let nominal = progress_rate(spec, Watts(268.0), 1.0);
        let slow = progress_rate(spec, Watts(268.0), 1.25);
        assert!((slow * 1.25 - nominal).abs() < 1e-15);
    }

    #[test]
    fn node_power_tracks_cap_until_draw() {
        let cat = standard_catalog();
        let spec = cat.find("is").unwrap(); // draws 225 W max
        assert_eq!(node_power(spec, Watts(280.0)), Watts(225.0));
        assert_eq!(node_power(spec, Watts(180.0)), Watts(180.0));
        assert_eq!(
            node_power(spec, Watts(100.0)),
            Watts(140.0),
            "platform floor"
        );
    }

    #[test]
    fn progress_at_matches_single_step_and_saturates() {
        let (p, r, dt) = (0.25, 0.001, 1.0);
        // One tick of the closed form is exactly one fused step.
        assert_eq!(progress_at(p, r, dt, 1), (p + r * dt * 1.0).min(1.0));
        // Zero ticks returns the anchor untouched.
        assert_eq!(progress_at(p, r, dt, 0), p);
        // Far future saturates at 1.
        assert_eq!(progress_at(p, r, dt, 10_000_000), 1.0);
        // Monotone in ticks.
        let mut prev = 0.0;
        for k in 0..2000 {
            let v = progress_at(p, r, dt, k);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn crossing_ticks_is_the_exact_minimal_crossing() {
        // Sweep awkward float rates: the returned k must be the first
        // tick where the closed form reaches 1.0.
        for &(a, r, dt) in &[
            (0.0, 1.0 / 600.0, 1.0),
            (0.37, 1.0 / 1050.0, 1.0),
            (0.999999, 0.1, 1.0),
            (0.25, 0.003, 0.5),
            (0.0, 1.7, 1.0), // faster than one tick
        ] {
            let k = crossing_ticks(a, r, dt).unwrap();
            assert!(progress_at(a, r, dt, k) >= 1.0, "a={a} r={r}");
            if k > 0 {
                assert!(progress_at(a, r, dt, k - 1) < 1.0, "a={a} r={r}");
            }
        }
        // Already done: zero ticks.
        assert_eq!(crossing_ticks(1.0, 0.1, 1.0), Some(0));
        // Degenerate rates never cross.
        assert_eq!(crossing_ticks(0.5, 0.0, 1.0), None);
        assert_eq!(crossing_ticks(0.5, -0.1, 1.0), None);
        assert_eq!(crossing_ticks(0.5, f64::NAN, 1.0), None);
        assert_eq!(crossing_ticks(0.5, 1e-300, 1.0), None, "too far out");
    }

    #[test]
    fn node_table_assign_recap_release_roundtrip() {
        let mut t = NodeTable::build(130, Watts(280.0), Watts(90.0), |_| 1.0);
        assert_eq!(t.len(), 130);
        let mut picked = Vec::new();
        assert_eq!(t.collect_idle(3, &mut picked), 3);
        assert_eq!(picked, vec![NodeId(0), NodeId(1), NodeId(2)]);
        for &n in &picked {
            t.assign(n, JobId(7), Watts(200.0), 0.002, 5);
        }
        assert!(!t.is_idle(NodeId(0)));
        // The idle scan now starts at node 3.
        assert_eq!(t.collect_idle(1, &mut picked), 1);
        assert_eq!(picked, vec![NodeId(3)]);
        // Progress accrues from the anchor.
        let p = t.progress_at_tick(NodeId(0), 10, 1.0);
        assert!((p - 0.01).abs() < 1e-12);
        // Re-cap re-anchors: progress continues from the materialized
        // value under the new rate.
        t.recap(NodeId(0), Watts(150.0), Watts(150.0), 0.001, p, 10);
        let p2 = t.progress_at_tick(NodeId(0), 12, 1.0);
        assert!((p2 - (p + 0.002)).abs() < 1e-12);
        // Release: idle again, cap kept, zero progress.
        t.release(NodeId(0), Watts(90.0), 12);
        assert!(t.is_idle(NodeId(0)));
        assert_eq!(t.cap(NodeId(0)), Watts(150.0));
        assert_eq!(t.power(NodeId(0)), Watts(90.0));
        assert_eq!(t.progress_at_tick(NodeId(0), 99, 1.0), 0.0);
    }

    #[test]
    fn idle_bitset_tail_is_exact() {
        // 130 nodes = 2 full words + 2 tail bits; the scan must find
        // exactly 130 and never a ghost node.
        let t = NodeTable::build(130, Watts(280.0), Watts(90.0), |_| 1.0);
        let mut all = Vec::new();
        assert_eq!(t.collect_idle(usize::MAX, &mut all), 130);
        assert_eq!(all.len(), 130);
        assert_eq!(all.last(), Some(&NodeId(129)));
    }

    #[test]
    fn job_table_lifecycle_and_rows() {
        let mut t = JobTable::new();
        let a = t.push_queued(JobTypeId(0), Seconds(1.0));
        let b = t.push_queued(JobTypeId(1), Seconds(2.0));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert!(!t.is_running(a));
        t.set_started(a, Seconds(3.0), &[NodeId(4), NodeId(5)]);
        assert!(t.is_running(a));
        assert_eq!(t.nodes_of(a), &[NodeId(4), NodeId(5)]);
        assert_eq!(t.node_count(a), 2);
        assert_eq!(t.node_count(b), 0);
        t.set_end(a, Seconds(10.0));
        assert!(!t.is_running(a));
        // Generations and due stamps drive event validity.
        assert_eq!(t.gen(a), 0);
        assert_eq!(t.bump_gen(a), 1);
        t.mark_due(a, 9);
        assert!(t.is_due(a, 9) && !t.is_due(a, 10));
        // Materialized rows match the legacy shape.
        let rows = t.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].start, Some(Seconds(3.0)));
        assert_eq!(rows[0].end, Some(Seconds(10.0)));
        assert_eq!(rows[0].nodes, vec![NodeId(4), NodeId(5)]);
        assert_eq!(rows[1].start, None);
        assert!(rows[1].is_pending());
    }

    #[test]
    fn state_hash_is_stable_and_sensitive() {
        let nodes = vec![NodeRow::idle(1.0, Watts(280.0)); 4];
        let jobs = vec![JobRow::queued(JobId(0), JobTypeId(2), Seconds(5.0))];
        let h1 = state_hash(&nodes, &jobs);
        let h2 = state_hash(&nodes, &jobs);
        assert_eq!(h1, h2, "hash is a pure function of the tables");
        let mut jobs2 = jobs.clone();
        jobs2[0].start = Some(Seconds(6.0));
        assert_ne!(h1, state_hash(&nodes, &jobs2));
        let mut nodes2 = nodes.clone();
        nodes2[3].progress = 0.5;
        assert_ne!(h1, state_hash(&nodes2, &jobs));
    }
}
