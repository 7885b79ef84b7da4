//! Causal tracing: trace identifiers, a flight-recorder ring buffer and
//! a JSONL trace sink.
//!
//! The metrics registry answers *how often* and *how long* each tier
//! ticks; this module answers *which* budgeter decision caused which MSR
//! write and which epoch sample closed the loop. Every rebalance decision
//! mints a [`CauseId`]; the id rides the wire inside `SetPowerCap`, is
//! carried through the GEOPM policy mailbox down to the simulated MSR
//! write, and comes back up stamped on epoch samples and model retrains.
//! The offline `anor-trace` analyzer joins these events into per-decision
//! causal chains.
//!
//! Recording is always cheap: a [`Tracer`] keeps a bounded ring of the
//! most recent [`TraceEvent`]s (the **flight recorder**) behind one short
//! mutex hold, and optionally streams every event to `trace.jsonl` when
//! built with [`Tracer::to_dir`]. [`Tracer::off`] records nothing, and
//! [`Tracer::record_with`] formats its detail only when the tracer is
//! on, so components trace unconditionally. On an endpoint disconnect or
//! protocol error the owner calls [`Tracer::dump_postmortem`], which
//! snapshots the ring to a `postmortem-*.jsonl` file so failures come
//! with the last few thousand events of context.

use crate::sink::{parse_line, Event, Value};
use parking_lot::Mutex;
use std::fmt;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Identifies one tracing session (one `Tracer`); all events it records
/// carry the same trace id so files from different runs can be told
/// apart after the fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Identifies one recorded event within a trace (monotonically
/// assigned; also the total-order sequence number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// Links an effect back to the budgeter rebalance decision that caused
/// it. `CauseId::NONE` (zero) means "cause unknown" — what pre-trace
/// wire frames decode to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CauseId(pub u64);

impl CauseId {
    /// The absent cause: samples taken before any cap arrived, or frames
    /// from a peer speaking the pre-trace codec.
    pub const NONE: CauseId = CauseId(0);

    /// Whether this is a real (non-zero) cause.
    #[inline]
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace-{:016x}", self.0)
    }
}

impl fmt::Display for CauseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cause-{}", self.0)
    }
}

/// Where in the control loop an event was recorded. The stages map
/// one-to-one onto the paper's Fig. 2 data flow: decisions and caps flow
/// down the left column, samples and models flow back up the right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceStage {
    /// Budgeter computed a new budget split (one per rebalance pass).
    Decision,
    /// `SetPowerCap` frame queued onto the wire for one job.
    CapTx,
    /// Endpoint received the `SetPowerCap` frame.
    CapRx,
    /// Endpoint wrote an `AgentPolicy` into the GEOPM mailbox.
    PolicyWrite,
    /// A tree agent actually programmed `PKG_POWER_LIMIT` (the MSR
    /// actuation point).
    MsrWrite,
    /// Endpoint forwarded an `EpochSample` up the wire.
    SampleTx,
    /// Budgeter ingested an `EpochSample`.
    SampleRx,
    /// The job-tier power modeler retrained on samples taken under this
    /// cause's cap.
    Retrain,
    /// Budgeter ingested a retrained model.
    ModelRx,
    /// A transport-layer protocol error (malformed frame, oversized
    /// length prefix).
    TransportError,
    /// A peer connection closed or died.
    Disconnect,
    /// An endpoint re-established its budgeter connection.
    Reconnect,
    /// A session resumed: the endpoint re-registered (`Resume`) or the
    /// budgeter acknowledged one (`ResumeAck`).
    Resume,
    /// The budgeter's power lease on a disconnected job ran out and its
    /// watts were reclaimed into the pool.
    LeaseExpired,
    /// A reclaimed lease was handed back to a resuming job.
    LeaseRestored,
    /// The continuous invariant auditor caught a broken budgeter
    /// invariant (watts conservation, lease double-count, session-state
    /// consistency); the detail names the invariant and the observed
    /// values.
    InvariantViolation,
}

impl TraceStage {
    /// Stable string used in the JSONL `stage` field.
    pub fn as_str(self) -> &'static str {
        match self {
            TraceStage::Decision => "decision",
            TraceStage::CapTx => "cap_tx",
            TraceStage::CapRx => "cap_rx",
            TraceStage::PolicyWrite => "policy_write",
            TraceStage::MsrWrite => "msr_write",
            TraceStage::SampleTx => "sample_tx",
            TraceStage::SampleRx => "sample_rx",
            TraceStage::Retrain => "retrain",
            TraceStage::ModelRx => "model_rx",
            TraceStage::TransportError => "transport_error",
            TraceStage::Disconnect => "disconnect",
            TraceStage::Reconnect => "reconnect",
            TraceStage::Resume => "resume",
            TraceStage::LeaseExpired => "lease_expired",
            TraceStage::LeaseRestored => "lease_restored",
            TraceStage::InvariantViolation => "invariant_violation",
        }
    }

    /// Inverse of [`TraceStage::as_str`].
    pub fn parse(s: &str) -> Option<TraceStage> {
        Some(match s {
            "decision" => TraceStage::Decision,
            "cap_tx" => TraceStage::CapTx,
            "cap_rx" => TraceStage::CapRx,
            "policy_write" => TraceStage::PolicyWrite,
            "msr_write" => TraceStage::MsrWrite,
            "sample_tx" => TraceStage::SampleTx,
            "sample_rx" => TraceStage::SampleRx,
            "retrain" => TraceStage::Retrain,
            "model_rx" => TraceStage::ModelRx,
            "transport_error" => TraceStage::TransportError,
            "disconnect" => TraceStage::Disconnect,
            "reconnect" => TraceStage::Reconnect,
            "resume" => TraceStage::Resume,
            "lease_expired" => TraceStage::LeaseExpired,
            "lease_restored" => TraceStage::LeaseRestored,
            "invariant_violation" => TraceStage::InvariantViolation,
            _ => return None,
        })
    }
}

impl fmt::Display for TraceStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Sequence number / span id within the trace.
    pub span: SpanId,
    /// Seconds since the tracer was created (wall clock).
    pub ts: f64,
    /// Control-loop stage.
    pub stage: TraceStage,
    /// Causal link back to a budgeter decision (`CauseId::NONE` when
    /// unknown).
    pub cause: CauseId,
    /// Job the event concerns, when job-scoped.
    pub job: Option<u64>,
    /// A watts value when the stage carries one (cap or power).
    pub watts: Option<f64>,
    /// Free-form annotation (error text, stage-specific notes).
    pub detail: Option<String>,
}

impl TraceEvent {
    /// Serialize as one flat-JSON trace line (no trailing newline).
    /// The shape is parseable by [`crate::parse_line`].
    pub fn render(&self, trace: TraceId) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"ts\":{:.6},\"event\":\"trace\",\"trace\":{},\"span\":{},\"stage\":\"{}\",\"cause\":{}",
            self.ts, trace.0, self.span.0, self.stage, self.cause.0
        );
        if let Some(job) = self.job {
            let _ = write!(out, ",\"job\":{job}");
        }
        if let Some(w) = self.watts {
            if w.is_finite() {
                let _ = write!(out, ",\"watts\":{w}");
            }
        }
        if let Some(d) = &self.detail {
            out.push_str(",\"detail\":");
            crate::json::push_str(&mut out, d);
        }
        out.push('}');
        out
    }

    /// Build a trace event back out of a parsed JSONL [`Event`]. Returns
    /// `None` when the line is not a trace event or lacks the required
    /// fields.
    pub fn from_event(ev: &Event) -> Option<TraceEvent> {
        if ev.event != "trace" {
            return None;
        }
        let stage = TraceStage::parse(ev.str("stage")?)?;
        let span = SpanId(ev.num("span")? as u64);
        let cause = CauseId(ev.num("cause")? as u64);
        Some(TraceEvent {
            span,
            ts: ev.ts,
            stage,
            cause,
            job: ev.num("job").map(|j| j as u64),
            watts: ev.num("watts"),
            detail: ev.str("detail").map(str::to_string),
        })
    }
}

/// Default flight-recorder depth. At the emulator's ~1 Hz budgeter tick
/// with two jobs, a full decision chain is ~10 events, so 4096 events is
/// several minutes of history — enough context around a failure while
/// bounding the recorder at a few hundred KiB.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    /// Total events ever pushed (so overwrites are countable).
    pushed: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity.max(1)),
            head: 0,
            pushed: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        let cap = self.buf.capacity();
        if self.buf.len() < cap {
            self.buf.push(ev);
        } else if let Some(slot) = self.buf.get_mut(self.head) {
            *slot = ev;
            self.head = (self.head + 1) % cap;
        }
        self.pushed += 1;
    }

    /// Oldest-to-newest copy of the ring contents.
    fn snapshot(&self) -> Vec<TraceEvent> {
        // `head` is always within bounds; clamp anyway so the flight
        // recorder can never panic while dumping a postmortem.
        let (newest, oldest) = self.buf.split_at(self.head.min(self.buf.len()));
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(oldest);
        out.extend_from_slice(newest);
        out
    }
}

#[derive(Debug)]
struct TracerInner {
    trace_id: TraceId,
    start: Instant,
    epoch: f64,
    span_seq: AtomicU64,
    cause_seq: AtomicU64,
    ring: Mutex<Ring>,
    sink: Mutex<Option<BufWriter<File>>>,
    dir: Option<PathBuf>,
    postmortems: AtomicU64,
    sink_errors: AtomicU64,
}

/// The shared tracing handle. Cloning is an `Arc` bump. A tracer is
/// either on ([`Tracer::new`], [`Tracer::with_capacity`],
/// [`Tracer::to_dir`]) or off ([`Tracer::off`], also its `Default`). An
/// off tracer records nothing, mints [`CauseId::NONE`], dumps no
/// postmortem and reads 0 on every counter, so every component holds a
/// `Tracer` and records unconditionally.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    /// `None` when off.
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The off tracer: every recording call returns at once.
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    /// In-memory tracer: flight recorder only, no file sink.
    pub fn new() -> Self {
        Tracer::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// In-memory tracer with an explicit ring depth.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer::on(capacity, None, None)
    }

    /// Tracer streaming every event to `<dir>/trace.jsonl` (created if
    /// absent) in addition to the flight recorder; postmortem dumps land
    /// in the same directory.
    pub fn to_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let sink = BufWriter::new(File::create(dir.join("trace.jsonl"))?);
        Ok(Tracer::on(DEFAULT_RING_CAPACITY, Some(sink), Some(dir)))
    }

    fn on(capacity: usize, sink: Option<BufWriter<File>>, dir: Option<PathBuf>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                trace_id: TraceId(seed_id()),
                start: Instant::now(),
                epoch: unix_now(),
                span_seq: AtomicU64::new(0),
                cause_seq: AtomicU64::new(0),
                ring: Mutex::new(Ring::new(capacity)),
                sink: Mutex::new(sink),
                dir,
                postmortems: AtomicU64::new(0),
                sink_errors: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this tracer records (`false` only for [`Tracer::off`]).
    pub fn is_on(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace directory, when configured via [`Tracer::to_dir`].
    pub fn dir(&self) -> Option<&Path> {
        self.inner.as_ref()?.dir.as_deref()
    }

    /// This tracer's session id (`TraceId(0)` when off).
    pub fn trace_id(&self) -> TraceId {
        self.inner.as_ref().map_or(TraceId(0), |i| i.trace_id)
    }

    /// Seconds since the tracer was created (0 when off).
    pub fn elapsed(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |i| i.start.elapsed().as_secs_f64())
    }

    /// Mint the next cause id (stamped on a budgeter rebalance
    /// decision). Never [`CauseId::NONE`] when on; always it when off.
    pub fn next_cause(&self) -> CauseId {
        self.inner.as_ref().map_or(CauseId::NONE, |i| {
            CauseId(i.cause_seq.fetch_add(1, Ordering::Relaxed) + 1)
        })
    }

    /// Record an event with no job/watts payload.
    pub fn record(&self, stage: TraceStage, cause: CauseId) -> SpanId {
        self.push(stage, cause, None, None, || None)
    }

    /// Record a job-scoped event carrying an optional watts value.
    pub fn record_job(
        &self,
        stage: TraceStage,
        cause: CauseId,
        job: u64,
        watts: Option<f64>,
    ) -> SpanId {
        self.push(stage, cause, Some(job), watts, || None)
    }

    /// Record an annotated event (errors, disconnect reasons).
    pub fn record_detail(&self, stage: TraceStage, cause: CauseId, detail: &str) -> SpanId {
        self.push(stage, cause, None, None, || Some(detail.to_string()))
    }

    /// The fully general recording entry point.
    pub fn record_full(
        &self,
        stage: TraceStage,
        cause: CauseId,
        job: Option<u64>,
        watts: Option<f64>,
        detail: Option<String>,
    ) -> SpanId {
        self.push(stage, cause, job, watts, || detail)
    }

    /// [`Tracer::record_full`] with a detail that is formatted only when
    /// the tracer is on: the form for annotations built per event.
    pub fn record_with(
        &self,
        stage: TraceStage,
        cause: CauseId,
        job: Option<u64>,
        watts: Option<f64>,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        self.push(stage, cause, job, watts, || Some(detail()))
    }

    /// Every recording call lands here. Returns the event's span id
    /// (`SpanId(0)` when off, without calling `detail`).
    fn push(
        &self,
        stage: TraceStage,
        cause: CauseId,
        job: Option<u64>,
        watts: Option<f64>,
        detail: impl FnOnce() -> Option<String>,
    ) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId(0);
        };
        let span = SpanId(inner.span_seq.fetch_add(1, Ordering::Relaxed));
        let ev = TraceEvent {
            span,
            // The event timestamp: UNIX seconds, advanced by the
            // monotonic clock since creation. Wall-anchored so traces
            // written by separate processes on one host (`anord` +
            // `anor-job`) join into meaningful cross-process latencies,
            // monotonic so in-process deltas never go backwards on clock
            // adjustment.
            ts: inner.epoch + inner.start.elapsed().as_secs_f64(),
            stage,
            cause,
            job,
            watts,
            detail: detail(),
        };
        if let Some(w) = &mut *inner.sink.lock() {
            if writeln!(w, "{}", ev.render(inner.trace_id)).is_err() {
                inner.sink_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.ring.lock().push(ev);
        span
    }

    /// Events recorded so far (including any the ring has overwritten).
    pub fn recorded(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.ring.lock().pushed)
    }

    /// Lines that failed to reach the file sink.
    pub fn sink_errors(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.sink_errors.load(Ordering::Relaxed))
    }

    /// Oldest-to-newest copy of the flight-recorder contents.
    pub fn ring_snapshot(&self) -> Vec<TraceEvent> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.ring.lock().snapshot())
    }

    /// Events currently held by the flight recorder (≤ its capacity).
    /// One short lock hold and a length read — cheap enough for a
    /// status endpoint to poll.
    pub fn ring_depth(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.ring.lock().buf.len())
    }

    /// Flush the streaming sink (no-op for in-memory and off tracers).
    pub fn flush(&self) -> std::io::Result<()> {
        if let Some(inner) = &self.inner {
            if let Some(w) = &mut *inner.sink.lock() {
                w.flush()?;
            }
        }
        Ok(())
    }

    /// Dump the flight-recorder ring to
    /// `<dir>/postmortem-<n>-<reason>.jsonl`. Called by transport owners
    /// on endpoint disconnects and protocol errors so every failure
    /// comes with its recent event history. Returns the file written, or
    /// `None` when the tracer has no directory (the dump is still
    /// counted) or is off (nothing is counted).
    pub fn dump_postmortem(&self, reason: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        let n = inner.postmortems.fetch_add(1, Ordering::Relaxed);
        let dir = inner.dir.as_ref()?;
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let path = dir.join(format!("postmortem-{n}-{safe}.jsonl"));
        let snapshot = self.ring_snapshot();
        let mut out = String::with_capacity(snapshot.len() * 96);
        for ev in &snapshot {
            out.push_str(&ev.render(inner.trace_id));
            out.push('\n');
        }
        // Keep trace.jsonl current too, so the postmortem and the main
        // trace can be correlated immediately.
        let _ = self.flush();
        match std::fs::write(&path, out) {
            Ok(()) => Some(path),
            Err(_) => {
                inner.sink_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Postmortem dumps requested so far.
    pub fn postmortems(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.postmortems.load(Ordering::Relaxed))
    }
}

impl Drop for TracerInner {
    fn drop(&mut self) {
        if let Some(w) = &mut *self.sink.lock() {
            let _ = w.flush();
        }
    }
}

/// UNIX seconds at the time of the call (0.0 before the epoch, which
/// only a badly broken clock reports).
fn unix_now() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Derive a process-unique trace id without an RNG dependency: hash the
/// wall clock and pid through splitmix64.
fn seed_id() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut z = nanos ^ ((std::process::id() as u64) << 32);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Result of scanning a trace JSONL file: the parsed events plus counts
/// of lines that were malformed or not trace events (the analyzer
/// reports both instead of aborting).
#[derive(Debug, Default)]
pub struct TraceScan {
    /// Parsed trace events, in file order.
    pub events: Vec<TraceEvent>,
    /// Lines that failed to parse as flat JSON or lacked trace fields.
    pub malformed: u64,
    /// Well-formed lines that were not trace events (e.g. telemetry
    /// events sharing the file).
    pub other: u64,
}

/// Scan one JSONL file for trace events.
pub fn read_trace(path: &Path) -> std::io::Result<TraceScan> {
    let reader = BufReader::new(File::open(path)?);
    let mut scan = TraceScan::default();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(&line, i + 1) {
            Ok(ev) => match TraceEvent::from_event(&ev) {
                Some(t) => scan.events.push(t),
                None if ev.event == "trace" => scan.malformed += 1,
                None => scan.other += 1,
            },
            Err(_) => scan.malformed += 1,
        }
    }
    Ok(scan)
}

/// Helper for [`TraceEvent::from_event`] consumers: a `Value` view of a
/// cause for telemetry events.
impl From<CauseId> for Value {
    fn from(c: CauseId) -> Self {
        Value::U64(c.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_ids_are_unique_and_nonzero() {
        let t = Tracer::new();
        let a = t.next_cause();
        let b = t.next_cause();
        assert!(a.is_some() && b.is_some());
        assert_ne!(a, b);
        assert!(!CauseId::NONE.is_some());
    }

    #[test]
    fn stage_strings_round_trip() {
        for stage in [
            TraceStage::Decision,
            TraceStage::CapTx,
            TraceStage::CapRx,
            TraceStage::PolicyWrite,
            TraceStage::MsrWrite,
            TraceStage::SampleTx,
            TraceStage::SampleRx,
            TraceStage::Retrain,
            TraceStage::ModelRx,
            TraceStage::TransportError,
            TraceStage::Disconnect,
            TraceStage::Reconnect,
            TraceStage::Resume,
            TraceStage::LeaseExpired,
            TraceStage::LeaseRestored,
            TraceStage::InvariantViolation,
        ] {
            assert_eq!(TraceStage::parse(stage.as_str()), Some(stage));
        }
        assert_eq!(TraceStage::parse("nope"), None);
    }

    #[test]
    fn events_render_and_parse_round_trip() {
        let t = Tracer::new();
        let cause = t.next_cause();
        t.record_job(TraceStage::CapTx, cause, 3, Some(210.0));
        t.record_detail(TraceStage::TransportError, CauseId::NONE, "bad tag 9");
        let ring = t.ring_snapshot();
        assert_eq!(ring.len(), 2);
        for ev in &ring {
            let line = ev.render(t.trace_id());
            let parsed = parse_line(&line, 1).unwrap();
            let back = TraceEvent::from_event(&parsed).expect("trace event");
            // `ts` is rendered at microsecond precision; everything else
            // must survive exactly.
            assert!((back.ts - ev.ts).abs() < 1e-6);
            assert_eq!(
                (
                    back.span,
                    back.stage,
                    back.cause,
                    back.job,
                    back.watts,
                    &back.detail
                ),
                (ev.span, ev.stage, ev.cause, ev.job, ev.watts, &ev.detail)
            );
        }
    }

    #[test]
    fn ring_overwrites_oldest() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.record_job(TraceStage::MsrWrite, CauseId(i + 1), i, None);
        }
        let ring = t.ring_snapshot();
        assert_eq!(ring.len(), 4);
        assert_eq!(t.recorded(), 10);
        // Oldest-to-newest: jobs 6..=9 survive.
        let jobs: Vec<u64> = ring.iter().filter_map(|e| e.job).collect();
        assert_eq!(jobs, vec![6, 7, 8, 9]);
        assert!(ring.windows(2).all(|w| w[0].span < w[1].span));
    }

    #[test]
    fn dir_tracer_streams_and_dumps_postmortem() {
        let dir = std::env::temp_dir().join(format!(
            "anor-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Tracer::to_dir(&dir).unwrap();
        let cause = t.next_cause();
        t.record(TraceStage::Decision, cause);
        t.record_job(TraceStage::CapTx, cause, 0, Some(120.0));
        t.flush().unwrap();

        let scan = read_trace(&dir.join("trace.jsonl")).unwrap();
        assert_eq!(scan.events.len(), 2);
        assert_eq!(scan.malformed, 0);
        assert_eq!(scan.events[0].stage, TraceStage::Decision);

        let pm = t.dump_postmortem("peer gone").expect("postmortem path");
        assert!(pm
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("peer-gone"));
        let pm_scan = read_trace(&pm).unwrap();
        assert_eq!(pm_scan.events.len(), 2);
        assert_eq!(t.postmortems(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn off_tracer_records_nothing_and_builds_no_detail() {
        let built = std::cell::Cell::new(0);
        let detail = || {
            built.set(built.get() + 1);
            "obs=12 r2=0.9".to_string()
        };
        let t = Tracer::default();
        assert!(!t.is_on());
        assert_eq!(t.next_cause(), CauseId::NONE);
        t.record(TraceStage::Decision, CauseId(1));
        t.record_job(TraceStage::CapTx, CauseId(1), 3, Some(210.0));
        t.record_detail(TraceStage::TransportError, CauseId::NONE, "bad tag 9");
        t.record_with(TraceStage::Retrain, CauseId(1), None, None, detail);
        assert_eq!(built.get(), 0, "an off tracer must not build details");
        assert_eq!((t.recorded(), t.ring_depth()), (0, 0));
        assert!(t.ring_snapshot().is_empty());
        assert!(t.dump_postmortem("peer gone").is_none());
        assert_eq!(t.postmortems(), 0, "an off tracer counts no dump");
        assert!(t.dir().is_none());
        t.flush().unwrap();
        // The same calls on an on tracer record, and build the detail once.
        let on = Tracer::new();
        on.record_with(TraceStage::Retrain, on.next_cause(), None, None, detail);
        assert_eq!(built.get(), 1);
        assert_eq!(
            on.ring_snapshot()[0].detail.as_deref(),
            Some("obs=12 r2=0.9")
        );
    }

    #[test]
    fn memory_tracer_postmortem_is_counted_but_unwritten() {
        let t = Tracer::new();
        t.record(TraceStage::Disconnect, CauseId::NONE);
        assert!(t.dump_postmortem("x").is_none());
        assert_eq!(t.postmortems(), 1);
    }

    #[test]
    fn read_trace_counts_malformed_and_foreign_lines() {
        let dir = std::env::temp_dir().join(format!(
            "anor-trace-scan-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mixed.jsonl");
        std::fs::write(
            &path,
            "{\"ts\":0.1,\"event\":\"trace\",\"trace\":1,\"span\":0,\"stage\":\"decision\",\"cause\":1}\n\
             {\"ts\":0.2,\"event\":\"job_started\",\"job\":1}\n\
             not json at all\n\
             {\"ts\":0.3,\"event\":\"trace\",\"stage\":\"bogus\"}\n",
        )
        .unwrap();
        let scan = read_trace(&path).unwrap();
        assert_eq!(scan.events.len(), 1);
        assert_eq!(scan.other, 1);
        assert_eq!(scan.malformed, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
