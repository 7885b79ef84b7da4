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
//! instead of striding over wide row structs. A job holds its nodes as
//! ascending runs of consecutive node ids, taken straight from the idle
//! bitset, so those loops walk column slices, and the draw a job adds or
//! removes once per node is summed in closed form ([`add_repeated`]).
//! [`NodeRow`] and [`JobRow`] remain the materialized row views every
//! external consumer sees.
//!
//! The simulator caps jobs, not nodes: every node of a running job runs
//! at the job's cap. So the job table holds a running job's cap, per-node
//! draw, nominal progress rate, anchor tick, completion-check ceiling and
//! slowest node, and the node table holds only what differs per node: the
//! performance coefficient, the anchored progress, the cap the node keeps
//! while idle, and the idle bit. A node's rate is its job's nominal rate
//! over its coefficient ([`progress_rate`]), recomputed when read, so a
//! re-cap rewrites one job row and one progress column. Which job a busy
//! node runs is read from the job table's allocations.
//!
//! Progress is *anchored*, not integrated: a node stores the progress it
//! had at its job's last state transition (job start or re-cap), the job
//! stores the tick that anchor was taken at, and [`progress_at`]
//! evaluates the linear law analytically for any later tick. That closed
//! form is what lets the engine schedule a completion *event* instead of
//! walking every busy node every simulated second.

use anor_types::{Catalog, JobId, JobTypeId, JobTypeSpec, NodeId, QosDegradation, Seconds, Watts};
use std::ops::Range;

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
    /// Progress per second under the current cap (0 when idle): the
    /// job's nominal rate over the node's coefficient. It only changes at
    /// state transitions (job start, re-cap).
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

/// Significand bit of a normal `f64`: significands of one binade run
/// from `HIDDEN` to `2·HIDDEN − 1`.
const HIDDEN: u64 = 1 << 52;

/// `x` after `n` steps of `x += d`, bit for bit, taking in one multiply
/// every run of steps whose result is known in closed form.
///
/// The doubles of one binade `[2^e, 2^(e+1))` are the multiples of its
/// ulp `u`, and `x` is one of them. So while the exact sum `x + d` stays
/// inside the binade and `d/u` is not a tie (an odd multiple of one
/// half), each step rounds to exactly `x + k·u` with `k = round(d/u)`,
/// and `j` steps from significand `m` land on `(m + j·k)·u`. Steps that
/// could leave the binade, ties, and zero, subnormal and non-finite
/// operands are taken plainly; a step that leaves `x` unchanged ends the
/// walk, since every later step would repeat it. Negative `x` is the
/// mirror image: round-to-nearest-even gives `x + d = −((−x) + (−d))`.
/// The cost is O(1) per binade crossed; the last 32 steps or fewer
/// (`SHORT_RUN`) are taken plainly.
pub fn add_repeated(mut x: f64, d: f64, mut n: u64) -> f64 {
    while n > SHORT_RUN {
        match binade_run(x, d, n) {
            Some((after, steps)) => {
                x = after;
                n -= steps;
            }
            None => {
                let next = x + d;
                n -= 1;
                if next.to_bits() == x.to_bits() {
                    return next;
                }
                x = next;
            }
        }
    }
    for _ in 0..n {
        x += d;
    }
    x
}

/// Runs of at most this many steps are cheaper taken one add at a time
/// than solved: on a 2-vCPU KVM VM one closed-form run costs about as
/// much as 30–40 dependent adds, and small clusters re-cap many jobs of
/// a few dozen nodes.
const SHORT_RUN: u64 = 32;

/// The longest closed-form run of [`add_repeated`]'s steps from `x`, at
/// most `n`: `Some((x after the run, its length ≥ 1))`, or `None` when
/// the next step has to be taken plainly.
fn binade_run(x: f64, d: f64, n: u64) -> Option<(f64, u64)> {
    if !x.is_normal() || !d.is_finite() {
        return None;
    }
    let (ax, ad) = if x < 0.0 { (-x, -d) } else { (x, d) };
    let exp = ax.to_bits() >> 52; // biased, 1..=2046
    let m = (ax.to_bits() & (HIDDEN - 1)) | HIDDEN;
    // u = 2^(exp − 1075): normal from exp 53 up, subnormal below.
    let ulp = if exp > 52 {
        f64::from_bits((exp - 52) << 52)
    } else {
        f64::from_bits(1 << (exp - 1))
    };
    // Exact, the divisor being a power of two: an overflow fails the
    // range check below and an underflow is far below a tie (k = 0).
    let q = ad / ulp;
    if q.abs() >= HIDDEN as f64 || (q - q.trunc()).abs() == 0.5 {
        return None;
    }
    // The exact sums stay strictly inside the binade while every
    // significand reached lies in [HIDDEN + 1, 2·HIDDEN − 1]: then each
    // sum is within u/2 of a multiple of u, on the binade's own spacing.
    // k = 0 rounds every step back to x, which the plain step detects.
    let (lo, hi) = (HIDDEN + 1, 2 * HIDDEN - 1);
    let k = q.round() as i64;
    let room = match k {
        0 => 0,
        1.. => (hi - m) / k.unsigned_abs(),
        _ => m.saturating_sub(lo) / k.unsigned_abs(),
    };
    let steps = room.min(n);
    if steps == 0 {
        return None;
    }
    let m_after = (m as i64 + k * steps as i64) as u64;
    let after = f64::from_bits((exp << 52) | (m_after - HIDDEN));
    Some((if x < 0.0 { -after } else { after }, steps))
}

/// The column indices of a node-id range.
fn span(nodes: &Range<u32>) -> Range<usize> {
    nodes.start as usize..nodes.end as usize
}

/// Struct-of-arrays node table: one dense column per attribute plus an
/// idle-node bitset. All indexing is confined to this type; callers pass
/// [`NodeId`]s, or ranges of them, minted by the table itself
/// ([`collect_idle`](Self::collect_idle)). A busy node's job, cap, draw,
/// rate and anchor tick are its job's, read from the [`JobTable`].
#[derive(Debug, Clone)]
pub struct NodeTable {
    /// The cap the node keeps while idle: its last job's cap, or TDP
    /// before its first job. A busy node runs at its job's cap instead.
    cap: Vec<Watts>,
    /// Performance-variation coefficient per node.
    perf_coeff: Vec<f64>,
    /// Progress at the job's anchor tick (0 when idle).
    anchor_progress: Vec<f64>,
    /// Bitset of idle nodes (bit set = idle), scanned ascending so the
    /// "first idle nodes" assignment matches a linear row scan.
    idle_bits: Vec<u64>,
}

impl NodeTable {
    /// Build an all-idle table of `n` nodes with per-node coefficients
    /// from `coeff` and every cap at `tdp`.
    pub fn build(n: u32, tdp: Watts, coeff: impl Fn(NodeId) -> f64) -> Self {
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
            cap: vec![tdp; n],
            perf_coeff: (0..n).map(|i| coeff(NodeId(i as u32))).collect(),
            anchor_progress: vec![0.0; n],
            idle_bits,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.perf_coeff.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.perf_coeff.is_empty()
    }

    /// Is the node idle?
    pub fn is_idle(&self, n: NodeId) -> bool {
        let i = n.index();
        self.idle_bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// The cap the node keeps while idle (see the field docs). A job that
    /// starts on the node runs at this cap until the job is first capped.
    pub fn cap(&self, n: NodeId) -> Watts {
        self.cap[n.index()]
    }

    /// The node's performance coefficient.
    pub fn perf_coeff(&self, n: NodeId) -> f64 {
        self.perf_coeff[n.index()]
    }

    /// The node's progress `ticks` after its anchor, running at its job's
    /// `nominal` rate: [`progress_at`] at the node's [`progress_rate`].
    #[inline]
    pub fn progress(&self, n: NodeId, nominal: f64, dt: f64, ticks: u64) -> f64 {
        let i = n.index();
        progress_at(
            self.anchor_progress[i],
            nominal / self.perf_coeff[i],
            dt,
            ticks,
        )
    }

    /// Re-cap pass over one job's node `ranges`, before the job's rate
    /// changes: move each node's anchor to its
    /// [`progress`](Self::progress) `ticks` after the old anchor at the
    /// job's old `nominal` rate. Each range is one [`progress_at`] loop
    /// over two column slices with the zero-tick case (every anchor
    /// unchanged) hoisted out, which the compiler turns into packed
    /// divides. Returns `busy_power` plus the job's per-node draw change
    /// `delta` once per node, in node order: [`add_repeated`], bit for
    /// bit the per-node running sum.
    pub fn reanchor(
        &mut self,
        ranges: &[Range<u32>],
        nominal: f64,
        dt: f64,
        ticks: u64,
        busy_power: Watts,
        delta: Watts,
    ) -> Watts {
        let mut nodes = 0;
        for r in ranges {
            let s = span(r);
            nodes += s.len() as u64;
            if ticks == 0 {
                continue;
            }
            let anchor = &mut self.anchor_progress[s.clone()];
            for (a, &c) in anchor.iter_mut().zip(&self.perf_coeff[s]) {
                *a = progress_at(*a, nominal / c, dt, ticks);
            }
        }
        Watts(add_repeated(busy_power.value(), delta.value(), nodes))
    }

    /// Collect the first `want` idle nodes, in ascending id order, into
    /// `out` (cleared first) as maximal ranges of consecutive ids, read
    /// from the idle bitset a run of set bits at a time. Returns how many
    /// nodes the ranges hold.
    pub fn collect_idle(&self, want: usize, out: &mut Vec<Range<u32>>) -> usize {
        out.clear();
        let mut found = 0;
        for (w, &word) in self.idle_bits.iter().enumerate() {
            let mut bits = word;
            while bits != 0 && found < want {
                let lo = bits.trailing_zeros();
                let run = ((bits >> lo).trailing_ones() as usize).min(want - found);
                let start = (w * 64) as u32 + lo;
                let end = start + run as u32;
                match out.last_mut() {
                    Some(last) if last.end == start => last.end = end,
                    _ => out.push(start..end),
                }
                found += run;
                bits &= u64::MAX.checked_shl(lo + run as u32).unwrap_or(0);
            }
            if found == want {
                break;
            }
        }
        found
    }

    /// Start a job on the nodes of `ranges` from zero progress. Each node
    /// keeps its cap until the job is first capped. Returns the job's
    /// slowest node, found in the same pass: the largest coefficient, the
    /// first in node order on ties (see [`JobTable::slowest`]). An empty
    /// allocation has no slowest node; it returns node 0.
    pub fn assign(&mut self, ranges: &[Range<u32>]) -> NodeId {
        let (mut slow, mut slow_coeff) = (0, f64::NEG_INFINITY);
        for r in ranges {
            let s = span(r);
            self.anchor_progress[s.clone()].fill(0.0);
            for i in s {
                self.idle_bits[i / 64] &= !(1u64 << (i % 64));
                if self.perf_coeff[i] > slow_coeff {
                    (slow, slow_coeff) = (i, self.perf_coeff[i]);
                }
            }
        }
        NodeId(slow as u32)
    }

    /// Release the nodes of `range` at completion: idle again with zero
    /// progress, keeping their job's `cap` as on real hardware (`None`, a
    /// job never capped, leaves each node's cap as it was).
    pub fn release(&mut self, range: Range<u32>, cap: Option<Watts>) {
        let s = span(&range);
        if let Some(cap) = cap {
            self.cap[s.clone()].fill(cap);
        }
        self.anchor_progress[s.clone()].fill(0.0);
        for i in s {
            self.idle_bits[i / 64] |= 1u64 << (i % 64);
        }
    }

    /// Materialize the full table as rows, with progress evaluated at
    /// `tick`: every row idle first, at its kept cap and `idle_power`,
    /// then each running job's nodes overwritten. A busy row takes its
    /// cap and draw from `jobs`, or, for a job not yet capped, from the
    /// cap the node kept and the job's type in `catalog`.
    pub fn rows(
        &self,
        jobs: &JobTable,
        catalog: &Catalog,
        idle_power: Watts,
        tick: u64,
        dt: f64,
    ) -> Vec<NodeRow> {
        let mut rows: Vec<NodeRow> = self
            .cap
            .iter()
            .zip(&self.perf_coeff)
            .map(|(&cap, &perf_coeff)| NodeRow {
                power: idle_power,
                ..NodeRow::idle(perf_coeff, cap)
            })
            .collect();
        for j in (0..jobs.len() as u64).map(JobId) {
            if !jobs.is_running(j) {
                continue;
            }
            let ticks = jobs.ticks_since_anchor(j, tick);
            let spec = &catalog[jobs.type_id(j)];
            for i in jobs.node_ids(j).map(NodeId::index) {
                let (cap, power, nominal) = match jobs.cap(j) {
                    Some(cap) => (cap, jobs.power(j), jobs.nominal(j)),
                    None => {
                        let kept = self.cap[i];
                        (kept, node_power(spec, kept), nominal_rate(spec, kept))
                    }
                };
                let row = &mut rows[i];
                row.rate = nominal / row.perf_coeff;
                row.progress = progress_at(self.anchor_progress[i], row.rate, dt, ticks);
                (row.job, row.cap, row.power) = (Some(j), cap, power);
            }
        }
        rows
    }
}

/// Sentinel timestamp for "not yet" in the job table's start/end columns.
const NO_TIME: f64 = f64::NAN;

/// Struct-of-arrays job table. Node allocations live in a shared
/// append-only arena of ascending node-id ranges (`ranges`) addressed by
/// per-job offset and length, so completed jobs keep their allocation
/// history without per-row Vecs, at one entry per run of consecutive
/// nodes rather than one per node. A running job's cap, per-node draw,
/// nominal rate and anchor tick live here too: every node of the job
/// shares them. So does its slowest node, which answers the job's
/// completion checks and QoS-risk reads alone ([`slowest`](Self::slowest)).
#[derive(Debug, Clone, Default)]
pub struct JobTable {
    type_id: Vec<JobTypeId>,
    submit: Vec<Seconds>,
    start: Vec<f64>,
    end: Vec<f64>,
    range_off: Vec<usize>,
    range_len: Vec<u32>,
    /// Shared node-allocation arena.
    ranges: Vec<Range<u32>>,
    /// Event generation: bumped whenever the job's rates change (start or
    /// re-cap), so stale completion events can be discarded on pop.
    gen: Vec<u32>,
    /// Tick at which the job's completion event fired (u64::MAX = none):
    /// the node-update stage completes exactly the jobs stamped with the
    /// current tick, in running order.
    due: Vec<u64>,
    /// Cap every node of the job runs at (NaN until the job is first
    /// capped).
    cap: Vec<Watts>,
    /// Per-node draw under `cap`.
    power: Vec<Watts>,
    /// Nominal-node progress per second under `cap` ([`nominal_rate`]).
    nominal: Vec<f64>,
    /// Tick the job's node anchors were taken at (start or re-cap).
    anchor_tick: Vec<u64>,
    /// Nominal rate ceiling the outstanding completion check was
    /// scheduled against. The engine reschedules the check only when a
    /// re-cap lifts `nominal` above it, so the column is a scheduling
    /// aid, not physics: it never enters progress/power arithmetic or the
    /// state hash.
    ceiling: Vec<f64>,
    /// The job's slowest node (see [`slowest`](Self::slowest)); node 0
    /// until the job starts.
    slow: Vec<NodeId>,
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
        self.range_off.push(self.ranges.len());
        self.range_len.push(0);
        self.gen.push(0);
        self.due.push(u64::MAX);
        self.cap.push(Watts(f64::NAN));
        self.power.push(Watts::ZERO);
        self.nominal.push(0.0);
        self.anchor_tick.push(0);
        self.ceiling.push(0.0);
        self.slow.push(NodeId(0));
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

    /// Record the job's start at `tick`: timestamp, its node allocation
    /// as ascending node-id `ranges` (appended to the shared arena) and
    /// its `slow`est node, as [`NodeTable::assign`] returned it. The
    /// nodes' anchors are taken now; the job stays uncapped until the
    /// capping stage first caps it.
    pub fn set_started(
        &mut self,
        j: JobId,
        at: Seconds,
        ranges: &[Range<u32>],
        slow: NodeId,
        tick: u64,
    ) {
        let i = j.0 as usize;
        self.start[i] = at.value();
        self.anchor_tick[i] = tick;
        self.slow[i] = slow;
        self.range_off[i] = self.ranges.len();
        self.range_len[i] = ranges.len() as u32;
        self.ranges.extend_from_slice(ranges);
    }

    /// Record the job's completion timestamp.
    pub fn set_end(&mut self, j: JobId, at: Seconds) {
        self.end[j.0 as usize] = at.value();
    }

    /// The job's allocated nodes as ascending node-id ranges (empty
    /// while queued).
    pub fn ranges_of(&self, j: JobId) -> &[Range<u32>] {
        let i = j.0 as usize;
        let off = self.range_off[i];
        &self.ranges[off..off + self.range_len[i] as usize]
    }

    /// The job's allocated nodes, one by one in ascending order.
    pub fn node_ids(&self, j: JobId) -> impl Iterator<Item = NodeId> + '_ {
        self.ranges_of(j).iter().flat_map(|r| r.clone().map(NodeId))
    }

    /// How many nodes the job holds (0 while queued).
    pub fn node_count(&self, j: JobId) -> u32 {
        self.ranges_of(j).iter().map(|r| r.end - r.start).sum()
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

    /// The cap the job's nodes run at, or `None` before it is first
    /// capped.
    pub fn cap(&self, j: JobId) -> Option<Watts> {
        let v = self.cap[j.0 as usize];
        (!v.value().is_nan()).then_some(v)
    }

    /// Per-node draw under the job's cap.
    pub fn power(&self, j: JobId) -> Watts {
        self.power[j.0 as usize]
    }

    /// Nominal-node progress per second under the job's cap.
    pub fn nominal(&self, j: JobId) -> f64 {
        self.nominal[j.0 as usize]
    }

    /// Ticks elapsed from the job's anchor tick to `tick`.
    pub fn ticks_since_anchor(&self, j: JobId, tick: u64) -> u64 {
        tick.saturating_sub(self.anchor_tick[j.0 as usize])
    }

    /// Re-cap the job at `tick`: the caller re-anchors its nodes under
    /// the old rate first, then the new cap, draw and nominal rate take
    /// effect from the next tick — exactly the legacy ordering, where
    /// caps written in the policy stage of tick `t` first influence the
    /// node-update stage of tick `t+1`.
    pub fn recap(&mut self, j: JobId, cap: Watts, power: Watts, nominal: f64, tick: u64) {
        let i = j.0 as usize;
        self.cap[i] = cap;
        self.power[i] = power;
        self.nominal[i] = nominal;
        self.anchor_tick[i] = tick;
    }

    /// The nominal rate ceiling of the job's outstanding completion check
    /// (see the field docs).
    pub fn ceiling(&self, j: JobId) -> f64 {
        self.ceiling[j.0 as usize]
    }

    /// Record the ceiling a completion check was scheduled against.
    pub fn set_ceiling(&mut self, j: JobId, v: f64) {
        self.ceiling[j.0 as usize] = v;
    }

    /// The job's slowest node: the largest performance coefficient in its
    /// allocation, the first in node order on ties. Every node of a job
    /// is anchored at 0 on the same tick, and every re-anchor applies the
    /// same nominal rate, step and tick count to all of them. A larger
    /// coefficient gives a rate no higher (rounding is monotone), and
    /// [`progress_at`] is non-decreasing in its anchor and its rate. So
    /// at every tick this node's progress is, bit for bit, the least of
    /// the job's nodes, and its [`crossing_ticks`] at any one nominal
    /// rate ceiling is the latest (`None` if any node's is).
    pub fn slowest(&self, j: JobId) -> NodeId {
        self.slow[j.0 as usize]
    }

    /// Materialize one row.
    pub fn row(&self, j: JobId) -> JobRow {
        let mut nodes = Vec::with_capacity(self.node_count(j) as usize);
        nodes.extend(self.node_ids(j));
        JobRow {
            id: j,
            type_id: self.type_id(j),
            submit: self.submit(j),
            start: self.start(j),
            end: self.end(j),
            nodes,
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
    use proptest::prelude::*;

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

    /// Node-id ranges from `(start, end)` pairs.
    fn runs(bounds: &[(u32, u32)]) -> Vec<Range<u32>> {
        bounds.iter().map(|&(start, end)| start..end).collect()
    }

    #[test]
    fn node_table_assign_recap_release_roundtrip() {
        let cat = standard_catalog();
        let spec = cat.find("mg").unwrap();
        let mut t = NodeTable::build(130, Watts(280.0), |_| 1.0);
        let mut jobs = JobTable::new();
        let j = jobs.push_queued(spec.id, Seconds(0.0));
        assert_eq!(t.len(), 130);
        let mut picked = Vec::new();
        assert_eq!(t.collect_idle(3, &mut picked), 3);
        assert_eq!(picked, runs(&[(0, 3)]));
        // Equal coefficients: the first node is the slowest.
        let slow = t.assign(&picked);
        assert_eq!(slow, NodeId(0));
        jobs.set_started(j, Seconds(5.0), &picked, slow, 5);
        assert_eq!(jobs.slowest(j), NodeId(0));
        assert!(!t.is_idle(NodeId(0)) && !t.is_idle(NodeId(2)));
        // The idle scan now starts at node 3.
        assert_eq!(t.collect_idle(1, &mut picked), 1);
        assert_eq!(picked, runs(&[(3, 4)]));
        // Before its first cap the job runs at the cap each node kept.
        assert_eq!(jobs.cap(j), None);
        let rows = t.rows(&jobs, &cat, Watts(90.0), 5, 1.0);
        assert_eq!(rows[0].cap, Watts(280.0));
        assert_eq!(rows[0].power, node_power(spec, Watts(280.0)));
        assert_eq!(rows[0].rate, nominal_rate(spec, Watts(280.0)));
        // Progress accrues from the anchor at the job's rate.
        jobs.recap(j, Watts(200.0), Watts(200.0), 0.002, 5);
        let p = t.progress(
            NodeId(0),
            jobs.nominal(j),
            1.0,
            jobs.ticks_since_anchor(j, 10),
        );
        assert!((p - 0.01).abs() < 1e-12);
        // Re-cap re-anchors: progress continues from the materialized
        // value under the new rate, and the draw delta is summed per node.
        let busy = t.reanchor(jobs.ranges_of(j), 0.002, 1.0, 5, Watts(600.0), Watts(-50.0));
        assert_eq!(busy, Watts(450.0));
        jobs.recap(j, Watts(150.0), Watts(150.0), 0.001, 10);
        let rows = t.rows(&jobs, &cat, Watts(90.0), 12, 1.0);
        assert!((rows[0].progress - (p + 0.002)).abs() < 1e-12);
        assert_eq!(
            (rows[0].cap, rows[0].power, rows[0].rate),
            (Watts(150.0), Watts(150.0), 0.001)
        );
        // Completion: idle again, the job's cap kept, zero progress.
        jobs.set_end(j, Seconds(12.0));
        t.release(0..3, jobs.cap(j));
        assert!(t.is_idle(NodeId(0)) && t.is_idle(NodeId(2)));
        assert_eq!(t.cap(NodeId(0)), Watts(150.0));
        let rows = t.rows(&jobs, &cat, Watts(90.0), 99, 1.0);
        assert_eq!(rows[0].job, None);
        assert_eq!(rows[0].power, Watts(90.0));
        assert_eq!((rows[0].progress, rows[0].rate), (0.0, 0.0));
        // A job released before any cap leaves its nodes' caps alone.
        let k = jobs.push_queued(spec.id, Seconds(20.0));
        let slow = t.assign(&runs(&[(3, 4)]));
        jobs.set_started(k, Seconds(20.0), &runs(&[(3, 4)]), slow, 20);
        assert_eq!(t.rows(&jobs, &cat, Watts(90.0), 20, 1.0)[3].job, Some(k));
        jobs.set_end(k, Seconds(21.0));
        t.release(3..4, None);
        assert_eq!(t.cap(NodeId(3)), Watts(280.0));
        // Released nodes are the first idle run again.
        assert_eq!(t.collect_idle(usize::MAX, &mut picked), 130);
        assert_eq!(picked, runs(&[(0, 130)]));
    }

    #[test]
    fn idle_bitset_tail_is_exact() {
        // 130 nodes = 2 full words + 2 tail bits; the scan must find
        // exactly 130 and never a ghost node.
        let t = NodeTable::build(130, Watts(280.0), |_| 1.0);
        let mut all = Vec::new();
        assert_eq!(t.collect_idle(usize::MAX, &mut all), 130);
        assert_eq!(
            all,
            runs(&[(0, 130)]),
            "one run across both word boundaries"
        );
    }

    #[test]
    fn job_table_lifecycle_and_rows() {
        let mut t = JobTable::new();
        let a = t.push_queued(JobTypeId(0), Seconds(1.0));
        let b = t.push_queued(JobTypeId(1), Seconds(2.0));
        assert_eq!((a, b), (JobId(0), JobId(1)));
        assert!(!t.is_running(a));
        t.set_started(a, Seconds(3.0), &[4..6, 9..10], NodeId(5), 3);
        assert!(t.is_running(a));
        // Uncapped until first capped, anchored at the start tick.
        assert_eq!(t.cap(a), None);
        assert_eq!(t.ticks_since_anchor(a, 7), 4);
        t.recap(a, Watts(200.0), Watts(190.0), 0.002, 5);
        assert_eq!(
            (t.cap(a), t.power(a), t.nominal(a)),
            (Some(Watts(200.0)), Watts(190.0), 0.002)
        );
        assert_eq!(t.ticks_since_anchor(a, 7), 2);
        t.set_ceiling(a, 0.004);
        assert_eq!(t.ceiling(a), 0.004);
        assert_eq!(t.ranges_of(a), &[4..6, 9..10]);
        assert_eq!(t.slowest(a), NodeId(5));
        assert_eq!(t.node_count(a), 3);
        assert_eq!(t.node_count(b), 0);
        assert!(t.ranges_of(b).is_empty());
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
        assert_eq!(rows[0].nodes, vec![NodeId(4), NodeId(5), NodeId(9)]);
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

    /// The loop [`add_repeated`] stands in for.
    fn add_loop(mut x: f64, d: f64, n: u64) -> f64 {
        for _ in 0..n {
            x += d;
        }
        x
    }

    fn assert_adds_match(x: f64, d: f64, n: u64) {
        let (fast, slow) = (add_repeated(x, d, n), add_loop(x, d, n));
        assert_eq!(
            fast.to_bits(),
            slow.to_bits(),
            "x {x:e}, d {d:e}, n {n}: {fast:e} vs the loop's {slow:e}"
        );
    }

    /// `m · 2^e` with the sign taken from bit 0 of `sign`.
    fn scaled(m: f64, e: i32, sign: u8) -> f64 {
        let v = m * 2f64.powi(e);
        if sign & 1 == 1 {
            -v
        } else {
            v
        }
    }

    proptest! {
        /// Random magnitudes, with d from far below x's ulp to above x.
        #[test]
        fn add_repeated_matches_the_loop(
            xm in 1.0f64..2.0,
            xe in -40i32..40,
            dm in 1.0f64..2.0,
            rel in -60i32..6,
            signs in 0u8..4,
            n in 0u64..10_000,
        ) {
            assert_adds_match(scaled(xm, xe, signs), scaled(dm, xe + rel, signs >> 1), n);
        }

        /// x a few ulps from ±2^k, stepping across it in either
        /// direction, including steps that land on the edge itself.
        #[test]
        fn add_repeated_crosses_binade_edges(
            k in -30i32..50,
            ulps in 0u32..40,
            dm in 1.0f64..2.0,
            rel in -3i32..4,
            signs in 0u8..4,
            n in 0u64..10_000,
        ) {
            let edge = 2f64.powi(k);
            let u = 2f64.powi(k - 52);
            let x = if signs & 1 == 1 { edge - ulps as f64 * u / 2.0 } else { edge + ulps as f64 * u };
            let d = scaled(dm, k - 52 + rel, signs >> 1);
            assert_adds_match(x, d, n);
            assert_adds_match(-x, -d, n);
            // Steps of exact whole ulps land on the edge exactly.
            assert_adds_match(x, -(ulps as f64) * u, n);
        }

        /// Sums that run through zero and out the other side.
        #[test]
        fn add_repeated_crosses_zero(
            xm in 1.0f64..2.0,
            xe in -20i32..30,
            to_zero in 1u64..5_000,
            jitter in 0.9f64..1.1,
            sign in 0u8..2,
            n in 0u64..10_000,
        ) {
            let x = scaled(xm, xe, sign);
            assert_adds_match(x, -x / to_zero as f64 * jitter, n);
        }

        /// d an exact odd multiple of half x's ulp: every step is a tie.
        #[test]
        fn add_repeated_breaks_ties_like_the_loop(
            xm in 1.0f64..2.0,
            xe in -20i32..30,
            halves in 0u64..1_000_000,
            signs in 0u8..4,
            n in 0u64..10_000,
        ) {
            let x = scaled(xm, xe, signs);
            let d = scaled((2 * halves + 1) as f64, xe - 53, signs >> 1);
            assert_adds_match(x, d, n);
        }
    }

    #[test]
    fn add_repeated_steps_plainly_on_special_operands() {
        let tiny = f64::from_bits(1); // smallest subnormal
        let specials = [
            0.0,
            -0.0,
            tiny,
            -tiny,
            3.0 * tiny,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MIN_POSITIVE - tiny, // largest subnormal
            1e-310,
            1.0,
            -1.5,
            f64::MAX,
            -f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for &x in &specials {
            for &d in &specials {
                for n in [0, 1, 2, 3, 64, 1000] {
                    assert_adds_match(x, d, n);
                }
            }
        }
    }

    /// Assign `0..n` to one job, then release random runs, so idle runs
    /// start and end anywhere, cross word boundaries and reach the tail.
    fn fragmented(n: u32, seed: u64) -> NodeTable {
        let mut rng = proptest::test_runner::TestRng::new(seed);
        let mut t = NodeTable::build(n, Watts(280.0), |_| 1.0);
        t.assign(&runs(&[(0, n)]));
        let mut i = 0;
        while i < n {
            let len = (1 + rng.below(150) as u32).min(n - i);
            if rng.below(2) == 0 {
                t.release(i..i + len, None);
            }
            i += len;
        }
        t
    }

    /// Ascending, disjoint node-id runs within `0..n`, with gaps: empty
    /// only when the random first id is `n` or more.
    fn random_runs(n: u32, rng: &mut proptest::test_runner::TestRng) -> Vec<Range<u32>> {
        let mut ranges = Vec::new();
        let mut i = rng.below(4) as u32;
        while i < n {
            let end = (i + 1 + rng.below(90) as u32).min(n);
            ranges.push(i..end);
            i = end + 1 + rng.below(40) as u32;
        }
        ranges
    }

    proptest! {
        /// The range scan holds exactly the first `want` idle nodes of a
        /// per-bit scan, as maximal runs.
        #[test]
        fn collect_idle_matches_a_per_bit_scan(
            n in 1u32..600,
            seed in any::<u64>(),
            want in 0usize..700,
        ) {
            let t = fragmented(n, seed);
            let ids: Vec<u32> = (0..n).filter(|&i| t.is_idle(NodeId(i))).take(want).collect();
            let mut expect: Vec<Range<u32>> = Vec::new();
            for &i in &ids {
                match expect.last_mut() {
                    Some(r) if r.end == i => r.end += 1,
                    _ => expect.push(i..i + 1),
                }
            }
            let mut out = runs(&[(7, 9)]); // cleared first
            assert_eq!(t.collect_idle(want, &mut out), ids.len());
            assert_eq!(out, expect);
        }

        /// The range re-anchor and its closed-form draw sum match the
        /// per-node `progress_at` loop and running sum, bit for bit.
        #[test]
        fn range_reanchor_matches_the_per_node_loop(
            n in 1u32..400,
            seed in any::<u64>(),
            nominal in 1e-5f64..1e-2,
            dt in 0.05f64..2.0,
            ticks in 0u64..3_000,
            busy in 0.0f64..5e7,
            delta in -80.0f64..80.0,
        ) {
            let mut rng = proptest::test_runner::TestRng::new(seed);
            let coeff: Vec<f64> = (0..n).map(|_| 0.8 + 0.4 * rng.unit_f64()).collect();
            let mut t = NodeTable::build(n, Watts(280.0), |i| coeff[i.index()]);
            for a in &mut t.anchor_progress {
                *a = if rng.below(8) == 0 { 1.0 } else { rng.unit_f64() };
            }
            let ranges = random_runs(n, &mut rng);
            let before = t.anchor_progress.clone();
            let mut expect = before.clone();
            let mut expect_busy = Watts(busy);
            for id in ranges.iter().flat_map(|r| r.clone()) {
                let i = id as usize;
                expect[i] = progress_at(before[i], nominal / t.perf_coeff[i], dt, ticks);
                expect_busy += Watts(delta);
            }
            let got = t.reanchor(&ranges, nominal, dt, ticks, Watts(busy), Watts(delta));
            assert_eq!(got.value().to_bits(), expect_busy.value().to_bits());
            for (i, (a, e)) in t.anchor_progress.iter().zip(&expect).enumerate() {
                assert_eq!(a.to_bits(), e.to_bits(), "node {i}");
            }
        }

        /// The node `assign` picks is the first of the largest
        /// coefficient, and after any sequence of re-anchors its progress
        /// is, bit for bit, the least of the job's nodes, and its crossing
        /// at a rate ceiling the latest: `None` exactly when some node's
        /// is. Coefficients include 0.1 floors and copies of the maximum;
        /// re-anchors include zero-tick steps; ceilings include zero and
        /// ones whose crossings lie near `u64::MAX` ticks.
        #[test]
        fn slowest_node_reads_the_least_progress_and_latest_crossing(
            n in 1u32..300,
            seed in any::<u64>(),
            dt in 0.05f64..2.0,
            reanchors in 0u64..12,
            query in 0u64..600,
        ) {
            let mut rng = proptest::test_runner::TestRng::new(seed);
            let mut coeff: Vec<f64> = (0..n)
                .map(|_| if rng.below(6) == 0 { 0.1 } else { 0.1 + 2.9 * rng.unit_f64() })
                .collect();
            let top = coeff.iter().copied().fold(0.1, f64::max);
            for _ in 0..rng.below(4) {
                coeff[rng.below(n as u64) as usize] = top;
            }
            let mut t = NodeTable::build(n, Watts(280.0), |i| coeff[i.index()]);
            let mut ranges = random_runs(n, &mut rng);
            if ranges.is_empty() {
                ranges.push(0..n);
            }
            let ids: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).map(|i| i as usize).collect();
            let slow = t.assign(&ranges).index();
            let largest = ids.iter().map(|&i| coeff[i]).fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(Some(&slow), ids.iter().find(|&&i| coeff[i] == largest));
            for _ in 0..reanchors {
                let nominal = 1e-5 + 1e-3 * rng.unit_f64();
                let ticks = if rng.below(4) == 0 { 0 } else { rng.below(300) };
                t.reanchor(&ranges, nominal, dt, ticks, Watts::ZERO, Watts::ZERO);
            }
            let nominal = 1e-5 + 1e-3 * rng.unit_f64();
            let progress = |i: usize| t.progress(NodeId(i as u32), nominal, dt, query);
            let least = ids.iter().map(|&i| progress(i)).fold(f64::INFINITY, f64::min);
            assert_eq!(progress(slow).to_bits(), least.to_bits());
            let ceiling = match rng.below(6) {
                0 => 0.0,
                1 => 1e-20 + 2e-19 * rng.unit_f64(),
                _ => 1e-5 + 2e-2 * rng.unit_f64(),
            };
            let crossing = |i: usize| crossing_ticks(progress(i), ceiling / coeff[i], dt);
            let every: Option<Vec<u64>> = ids.iter().map(|&i| crossing(i)).collect();
            assert_eq!(crossing(slow), every.and_then(|ks| ks.into_iter().max()));
        }
    }
}
