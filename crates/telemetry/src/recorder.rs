//! Deterministic flight recording: an append-only, length-prefixed
//! binary event log capturing everything the budgeter saw and did.
//!
//! Post-hoc artifacts (`events.jsonl`, postmortems) describe a run;
//! a *recording* reproduces one: every inbound wire frame, connection
//! transition, lease event, pump trigger and emitted cap decision is
//! appended with a monotonic timestamp, so `anor-replay` can feed the
//! same bytes through the real decode/budget/lease code paths and
//! recompute every decision bit-for-bit.
//!
//! ## File format (version 1)
//!
//! ```text
//! header  := magic "ANORREC\0" | u32 version | u64 seed
//!            | u64 config_digest | u32 segment
//!            | str build_version | str git_hash | str config | str role
//! str     := u16 len | len bytes of UTF-8
//! record  := u32 len | u8 tag | u64 ts_nanos | payload
//! ```
//!
//! All integers are big-endian. `ts_nanos` is monotonic time since the
//! recorder was created (never wall clock: replay must not depend on
//! it). Unknown tags are skipped on read, so a newer writer degrades to
//! partial replay rather than a parse error; a bumped `version` field
//! signals an incompatible layout and readers must refuse it.
//!
//! ## Writer discipline
//!
//! [`FlightRecorder::record`] never blocks the control loop: the sink
//! mutex is only ever `try_lock`ed and a contended or failed append is
//! *dropped and counted* ([`FlightRecorder::dropped`]), mirroring the
//! JSONL sink's drop accounting. An off recorder ([`FlightRecorder::off`])
//! returns at once, and [`FlightRecorder::record_with`] builds its event
//! only when the recorder is on. Files are size-rotated like the JSONL
//! sink; each rotation segment restarts with a fresh header whose
//! `segment` index increments, and replay refuses to `--verify` a
//! recording whose first available segment is not 0 (state before the
//! rotation horizon is unrecoverable).

use parking_lot::Mutex;
use std::fs::File;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// First eight bytes of every recording segment.
pub const RECORDING_MAGIC: [u8; 8] = *b"ANORREC\0";

/// Current recording format version. Bump on incompatible layout change;
/// readers refuse versions they do not know.
pub const RECORDING_VERSION: u32 = 1;

/// Upper bound on a single record's encoded length: anything larger is a
/// corrupt or hostile file (wire frames themselves are capped at 64 KiB).
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Default rotation threshold for recording files (matches the JSONL
/// sink's 64 MiB).
pub const DEFAULT_RECORDING_ROTATE_BYTES: u64 = crate::sink::DEFAULT_ROTATE_BYTES;

/// Build identity baked into binaries, the `anor_build_info` gauge, the
/// `/status` snapshot, and every recording header — so an artifact is
/// always attributable to the binary that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildInfo {
    /// Crate version (`CARGO_PKG_VERSION`).
    pub version: String,
    /// Short git commit hash: `ANOR_GIT_HASH` at compile time when set,
    /// else a best-effort read of `.git/HEAD` at first use, else
    /// `"unknown"`.
    pub git_hash: String,
}

impl BuildInfo {
    /// The process-wide build identity (computed once, then cached).
    pub fn current() -> &'static BuildInfo {
        static INFO: OnceLock<BuildInfo> = OnceLock::new();
        INFO.get_or_init(|| BuildInfo {
            version: env!("CARGO_PKG_VERSION").to_string(),
            git_hash: detect_git_hash(),
        })
    }
}

/// Best-effort git hash: prefer the compile-time override, else walk up
/// from the working directory looking for a `.git` checkout.
fn detect_git_hash() -> String {
    if let Some(h) = option_env!("ANOR_GIT_HASH") {
        return short_hash(h);
    }
    let Ok(cwd) = std::env::current_dir() else {
        return "unknown".to_string();
    };
    for dir in cwd.ancestors() {
        let head = dir.join(".git").join("HEAD");
        let Ok(content) = std::fs::read_to_string(&head) else {
            continue;
        };
        let content = content.trim();
        if let Some(reference) = content.strip_prefix("ref: ") {
            if let Ok(hash) = std::fs::read_to_string(dir.join(".git").join(reference.trim())) {
                return short_hash(hash.trim());
            }
            return "unknown".to_string();
        }
        return short_hash(content);
    }
    "unknown".to_string()
}

fn short_hash(h: &str) -> String {
    let h = h.trim();
    if h.is_empty() || !h.chars().all(|c| c.is_ascii_hexdigit()) {
        return "unknown".to_string();
    }
    h.chars().take(12).collect()
}

/// FNV-1a digest of a canonical configuration description. Stored in the
/// header so replay can refuse a recording whose config string was
/// tampered with or mis-transcribed.
pub fn config_digest(config: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in config.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Caller-supplied identity for a new recording: what produced it and
/// under which seed/configuration. Build info is attached automatically.
#[derive(Debug, Clone)]
pub struct RecordingMeta {
    /// Determinism seed of the run being recorded.
    pub seed: u64,
    /// Canonical configuration description (digested into the header;
    /// replay parses it to reconstruct the budgeter).
    pub config: String,
    /// Producing role: `"budgeter"` recordings replay and verify;
    /// `"endpoint"` recordings are inspect-only.
    pub role: String,
}

/// Parsed recording header (one per rotation segment).
#[derive(Debug, Clone, PartialEq)]
pub struct RecordingHeader {
    /// Format version (see [`RECORDING_VERSION`]).
    pub version: u32,
    /// Determinism seed of the recorded run.
    pub seed: u64,
    /// FNV-1a digest of `config` as written.
    pub config_digest: u64,
    /// Rotation segment index; 0 is the genesis segment.
    pub segment: u32,
    /// Producing binary's crate version.
    pub build_version: String,
    /// Producing binary's git hash (or `"unknown"`).
    pub git_hash: String,
    /// Canonical configuration description.
    pub config: String,
    /// Producing role (`"budgeter"` / `"endpoint"`).
    pub role: String,
}

/// One recorded control-plane event. `FrameIn` and `DecisionTx` carry
/// raw wire bytes so replay exercises the real codec and verification is
/// byte-exact: `FrameIn` the inbound frame *body* (no length prefix),
/// `DecisionTx` the whole outbound frame, length prefix included.
#[derive(Debug, Clone, PartialEq)]
pub enum RecEvent {
    /// A control pass began (`pump` is 1-based, `budget` in watts).
    PumpStart {
        /// Pump sequence number.
        pump: u64,
        /// Busy budget handed to the pass, in watts.
        budget: f64,
    },
    /// An inbound wire frame was ingested on connection `conn`.
    FrameIn {
        /// Connection slot index.
        conn: u32,
        /// Raw frame body (tag + payload, no length prefix).
        body: Vec<u8>,
    },
    /// A connection was accepted into slot `conn`.
    ConnOpen {
        /// Connection slot index.
        conn: u32,
    },
    /// A connection's slot was closed (peer EOF or post-quarantine).
    ConnClosed {
        /// Connection slot index.
        conn: u32,
    },
    /// A connection was quarantined (protocol error / malformed frame).
    ConnQuarantined {
        /// Connection slot index.
        conn: u32,
    },
    /// An outbound decision frame was emitted on connection `conn`.
    DecisionTx {
        /// Connection slot index.
        conn: u32,
        /// The encoded frame as handed to the transport: the 4-byte
        /// length prefix, then the body.
        frame: Vec<u8>,
    },
    /// A job's power lease expired and its watts were reclaimed.
    LeaseExpired {
        /// Job id.
        job: u64,
        /// Watts reclaimed into the pool.
        watts: f64,
    },
    /// A resumed job's reclaimed watts were restored.
    LeaseRestored {
        /// Job id.
        job: u64,
        /// Watts restored to the job.
        watts: f64,
    },
    /// A decision cause id was minted for this pass's re-issued caps.
    /// Recorded even when tracing is off (`cause` 0) so the replay-side
    /// cause feed stays aligned with the decision stream.
    CauseMinted {
        /// The minted cause id (0 = none).
        cause: u64,
    },
}

impl RecEvent {
    fn tag(&self) -> u8 {
        match self {
            RecEvent::PumpStart { .. } => 1,
            RecEvent::FrameIn { .. } => 2,
            RecEvent::ConnOpen { .. } => 3,
            RecEvent::ConnClosed { .. } => 4,
            RecEvent::ConnQuarantined { .. } => 5,
            RecEvent::DecisionTx { .. } => 6,
            RecEvent::LeaseExpired { .. } => 7,
            RecEvent::LeaseRestored { .. } => 8,
            RecEvent::CauseMinted { .. } => 9,
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            RecEvent::PumpStart { pump, budget } => {
                out.extend_from_slice(&pump.to_be_bytes());
                out.extend_from_slice(&budget.to_bits().to_be_bytes());
            }
            RecEvent::FrameIn { conn, body } => {
                out.extend_from_slice(&conn.to_be_bytes());
                out.extend_from_slice(body);
            }
            RecEvent::ConnOpen { conn }
            | RecEvent::ConnClosed { conn }
            | RecEvent::ConnQuarantined { conn } => {
                out.extend_from_slice(&conn.to_be_bytes());
            }
            RecEvent::DecisionTx { conn, frame } => {
                out.extend_from_slice(&conn.to_be_bytes());
                out.extend_from_slice(frame);
            }
            RecEvent::LeaseExpired { job, watts } | RecEvent::LeaseRestored { job, watts } => {
                out.extend_from_slice(&job.to_be_bytes());
                out.extend_from_slice(&watts.to_bits().to_be_bytes());
            }
            RecEvent::CauseMinted { cause } => {
                out.extend_from_slice(&cause.to_be_bytes());
            }
        }
    }

    /// Decode a payload for `tag`; `None` for an unknown tag (skipped by
    /// readers) or a malformed payload.
    fn decode(tag: u8, payload: &[u8]) -> Option<RecEvent> {
        let mut cur = Cur::new(payload);
        let ev = match tag {
            1 => RecEvent::PumpStart {
                pump: cur.u64()?,
                budget: f64::from_bits(cur.u64()?),
            },
            2 => RecEvent::FrameIn {
                conn: cur.u32()?,
                body: cur.rest().to_vec(),
            },
            3 => RecEvent::ConnOpen { conn: cur.u32()? },
            4 => RecEvent::ConnClosed { conn: cur.u32()? },
            5 => RecEvent::ConnQuarantined { conn: cur.u32()? },
            6 => RecEvent::DecisionTx {
                conn: cur.u32()?,
                frame: cur.rest().to_vec(),
            },
            7 => RecEvent::LeaseExpired {
                job: cur.u64()?,
                watts: f64::from_bits(cur.u64()?),
            },
            8 => RecEvent::LeaseRestored {
                job: cur.u64()?,
                watts: f64::from_bits(cur.u64()?),
            },
            9 => RecEvent::CauseMinted { cause: cur.u64()? },
            _ => return None,
        };
        Some(ev)
    }
}

/// A decoded record: monotonic timestamp plus event.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Nanoseconds since the recorder was created.
    pub ts_nanos: u64,
    /// The event.
    pub event: RecEvent,
}

/// A fully parsed recording segment.
#[derive(Debug, Clone)]
pub struct Recording {
    /// The segment header.
    pub header: RecordingHeader,
    /// Every decoded record, in append order.
    pub events: Vec<RecordedEvent>,
    /// Records carrying a tag this reader does not know (skipped).
    pub unknown_skipped: u64,
}

// ---- writer ---------------------------------------------------------

#[derive(Debug)]
struct BinWriter {
    writer: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
    max_bytes: u64,
    segment: u32,
    meta: RecordingMeta,
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let len = bytes.len().min(usize::from(u16::MAX));
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.extend_from_slice(bytes.get(..len).unwrap_or_default());
}

fn encode_header(meta: &RecordingMeta, segment: u32) -> Vec<u8> {
    let info = BuildInfo::current();
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&RECORDING_MAGIC);
    out.extend_from_slice(&RECORDING_VERSION.to_be_bytes());
    out.extend_from_slice(&meta.seed.to_be_bytes());
    out.extend_from_slice(&config_digest(&meta.config).to_be_bytes());
    out.extend_from_slice(&segment.to_be_bytes());
    push_str(&mut out, &info.version);
    push_str(&mut out, &info.git_hash);
    push_str(&mut out, &meta.config);
    push_str(&mut out, &meta.role);
    out
}

impl BinWriter {
    fn create(path: &Path, meta: RecordingMeta, max_bytes: u64) -> std::io::Result<Self> {
        let file = File::create(path)?;
        let mut w = BinWriter {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            bytes: 0,
            max_bytes: max_bytes.max(1),
            segment: 0,
            meta,
        };
        w.write_header()?;
        Ok(w)
    }

    fn write_header(&mut self) -> std::io::Result<()> {
        let header = encode_header(&self.meta, self.segment);
        self.writer.write_all(&header)?;
        self.bytes += header.len() as u64;
        Ok(())
    }

    /// The JSONL sink's chain shift ([`crate::sink::rotate_chain`]):
    /// flush, shift the chain, then start a fresh segment with an
    /// incremented header.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        self.writer = BufWriter::new(crate::sink::rotate_chain(&self.path)?);
        self.bytes = 0;
        self.segment = self.segment.saturating_add(1);
        self.write_header()
    }

    fn write_record(&mut self, ts_nanos: u64, event: &RecEvent) -> std::io::Result<()> {
        let mut body = Vec::with_capacity(32);
        body.push(event.tag());
        body.extend_from_slice(&ts_nanos.to_be_bytes());
        event.encode_payload(&mut body);
        let total = 4 + body.len() as u64;
        if self.bytes + total > self.max_bytes && self.bytes > 0 {
            // A failed rotation must not cost the in-flight record: keep
            // appending to the oversized active segment instead.
            let _ = self.rotate();
        }
        self.writer.write_all(&(body.len() as u32).to_be_bytes())?;
        self.writer.write_all(&body)?;
        self.bytes += total;
        Ok(())
    }
}

#[derive(Debug)]
struct RecorderInner {
    recsink: Mutex<BinWriter>,
    written: AtomicU64,
    dropped: AtomicU64,
    start: Instant,
    path: PathBuf,
}

/// Shared handle to a flight recording. Cloning is an `Arc` bump;
/// [`FlightRecorder::record`] never blocks (see module docs). A recorder
/// is either on ([`FlightRecorder::create`]) or off
/// ([`FlightRecorder::off`], also its `Default`): an off recorder writes
/// nothing, reads 0 on its counters and has no path.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// `None` when off.
    inner: Option<Arc<RecorderInner>>,
}

impl FlightRecorder {
    /// The off recorder: every recording call returns at once.
    pub fn off() -> Self {
        FlightRecorder { inner: None }
    }

    /// Create a recording at `path` with the default rotation threshold.
    pub fn create(path: impl AsRef<Path>, meta: RecordingMeta) -> std::io::Result<Self> {
        FlightRecorder::create_with_rotation(path, meta, DEFAULT_RECORDING_ROTATE_BYTES)
    }

    /// Create a recording that rotates once the active segment would
    /// exceed `max_bytes`.
    pub fn create_with_rotation(
        path: impl AsRef<Path>,
        meta: RecordingMeta,
        max_bytes: u64,
    ) -> std::io::Result<Self> {
        let path = path.as_ref();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let writer = BinWriter::create(path, meta, max_bytes)?;
        Ok(FlightRecorder {
            inner: Some(Arc::new(RecorderInner {
                recsink: Mutex::new(writer),
                written: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                start: Instant::now(),
                path: path.to_path_buf(),
            })),
        })
    }

    /// Append one event, stamped with monotonic time. Never blocks: a
    /// contended sink or failed write drops the record and counts it.
    pub fn record(&self, event: &RecEvent) {
        let Some(inner) = &self.inner else {
            return;
        };
        let ts = inner.start.elapsed().as_nanos() as u64;
        let Some(mut recsink) = inner.recsink.try_lock() else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let ok = recsink.write_record(ts, event).is_ok();
        drop(recsink);
        if ok {
            inner.written.fetch_add(1, Ordering::Relaxed);
        } else {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// [`FlightRecorder::record`] with an event that is built only when
    /// the recorder is on: the form for events that copy wire bytes.
    pub fn record_with(&self, event: impl FnOnce() -> RecEvent) {
        if self.inner.is_some() {
            self.record(&event());
        }
    }

    /// Flush buffered records to disk (a no-op when off).
    pub fn flush(&self) -> std::io::Result<()> {
        match &self.inner {
            Some(inner) => inner.recsink.lock().writer.flush(),
            None => Ok(()),
        }
    }

    /// Records appended successfully.
    pub fn written(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.written.load(Ordering::Relaxed))
    }

    /// Records dropped (sink contention or I/O failure).
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// The active segment's path (`None` when off).
    pub fn path(&self) -> Option<&Path> {
        self.inner.as_ref().map(|i| i.path.as_path())
    }
}

impl Drop for RecorderInner {
    /// Buffered records must reach disk even when the owner exits on an
    /// error path without flushing.
    fn drop(&mut self) {
        let _ = self.recsink.lock().writer.flush();
    }
}

// ---- reader ---------------------------------------------------------

struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).and_then(|s| s.first().copied())
    }

    fn u16(&mut self) -> Option<u16> {
        self.take(2)
            .and_then(|s| s.try_into().ok())
            .map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .and_then(|s| s.try_into().ok())
            .map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .and_then(|s| s.try_into().ok())
            .map(u64::from_be_bytes)
    }

    fn str(&mut self) -> Option<String> {
        let len = usize::from(self.u16()?);
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        s
    }

    fn at_end(&self) -> bool {
        self.pos >= self.buf.len()
    }
}

fn bad(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

fn parse_header(cur: &mut Cur<'_>) -> std::io::Result<RecordingHeader> {
    let magic = cur.take(8).ok_or_else(|| bad("truncated magic"))?;
    if magic != RECORDING_MAGIC {
        return Err(bad("not an ANOR recording (bad magic)"));
    }
    let version = cur.u32().ok_or_else(|| bad("truncated version"))?;
    if version != RECORDING_VERSION {
        return Err(bad(format!(
            "unsupported recording version {version} (this reader understands {RECORDING_VERSION})"
        )));
    }
    let seed = cur.u64().ok_or_else(|| bad("truncated seed"))?;
    let config_digest = cur.u64().ok_or_else(|| bad("truncated config digest"))?;
    let segment = cur.u32().ok_or_else(|| bad("truncated segment index"))?;
    let build_version = cur.str().ok_or_else(|| bad("truncated build version"))?;
    let git_hash = cur.str().ok_or_else(|| bad("truncated git hash"))?;
    let config = cur.str().ok_or_else(|| bad("truncated config string"))?;
    let role = cur.str().ok_or_else(|| bad("truncated role string"))?;
    Ok(RecordingHeader {
        version,
        seed,
        config_digest,
        segment,
        build_version,
        git_hash,
        config,
        role,
    })
}

/// Read and decode one recording segment. Unknown event tags are counted
/// and skipped; a truncated trailing record (the writer died mid-append)
/// ends the stream without an error, matching the crash-tolerant intent
/// of a flight recorder.
pub fn read_recording(path: impl AsRef<Path>) -> std::io::Result<Recording> {
    let mut buf = Vec::new();
    File::open(path.as_ref())?.read_to_end(&mut buf)?;
    let mut cur = Cur::new(&buf);
    let header = parse_header(&mut cur)?;
    if header.config_digest != config_digest(&header.config) {
        return Err(bad("config digest mismatch: recording header is corrupt"));
    }
    let mut events = Vec::new();
    let mut unknown_skipped = 0u64;
    while !cur.at_end() {
        let Some(len) = cur.u32() else {
            break; // truncated length prefix: writer died mid-append
        };
        let len = len as usize;
        if !(9..=MAX_RECORD_LEN).contains(&len) {
            return Err(bad(format!("record length {len} out of bounds")));
        }
        let Some(body) = cur.take(len) else {
            break; // truncated body
        };
        let mut rcur = Cur::new(body);
        let (Some(tag), Some(ts_nanos)) = (rcur.u8(), rcur.u64()) else {
            break;
        };
        match RecEvent::decode(tag, rcur.rest()) {
            Some(event) => events.push(RecordedEvent { ts_nanos, event }),
            None => unknown_skipped += 1,
        }
    }
    Ok(Recording {
        header,
        events,
        unknown_skipped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> RecordingMeta {
        RecordingMeta {
            seed: 42,
            config: "policy=uniform feedback=false".to_string(),
            role: "budgeter".to_string(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("anor-rec-{}-{name}", std::process::id()))
    }

    #[test]
    fn round_trips_every_event_kind() {
        let path = tmp("roundtrip.rec");
        let rec = FlightRecorder::create(&path, meta()).unwrap();
        let events = vec![
            RecEvent::PumpStart {
                pump: 1,
                budget: 840.0,
            },
            RecEvent::ConnOpen { conn: 0 },
            RecEvent::FrameIn {
                conn: 0,
                body: vec![1, 2, 3, 4],
            },
            RecEvent::CauseMinted { cause: 7 },
            RecEvent::DecisionTx {
                conn: 0,
                frame: vec![4, 0, 0],
            },
            RecEvent::LeaseExpired {
                job: 9,
                watts: 210.0,
            },
            RecEvent::LeaseRestored {
                job: 9,
                watts: 210.0,
            },
            RecEvent::ConnQuarantined { conn: 1 },
            RecEvent::ConnClosed { conn: 1 },
        ];
        for e in &events {
            rec.record(e);
        }
        rec.flush().unwrap();
        assert_eq!(rec.written(), events.len() as u64);
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.path(), Some(path.as_path()));

        let loaded = read_recording(&path).unwrap();
        assert_eq!(loaded.header.version, RECORDING_VERSION);
        assert_eq!(loaded.header.seed, 42);
        assert_eq!(loaded.header.role, "budgeter");
        assert_eq!(loaded.header.segment, 0);
        assert_eq!(loaded.header.build_version, env!("CARGO_PKG_VERSION"));
        assert_eq!(
            loaded.header.config_digest,
            config_digest(&loaded.header.config)
        );
        let got: Vec<RecEvent> = loaded.events.iter().map(|r| r.event.clone()).collect();
        assert_eq!(got, events);
        // Timestamps are monotone non-decreasing.
        let ts: Vec<u64> = loaded.events.iter().map(|r| r.ts_nanos).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "{ts:?}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn off_recorder_writes_nothing_and_builds_no_event() {
        let rec = FlightRecorder::default();
        let built = std::cell::Cell::new(0);
        rec.record(&RecEvent::ConnOpen { conn: 0 });
        rec.record_with(|| {
            built.set(built.get() + 1);
            RecEvent::FrameIn {
                conn: 0,
                body: vec![1, 2, 3],
            }
        });
        assert_eq!(built.get(), 0, "an off recorder must not build events");
        assert_eq!((rec.written(), rec.dropped()), (0, 0));
        assert_eq!(rec.path(), None);
        rec.flush().unwrap();
    }

    #[test]
    fn rotation_starts_a_fresh_segment_with_incremented_header() {
        let path = tmp("rotate.rec");
        let rec = FlightRecorder::create_with_rotation(&path, meta(), 256).unwrap();
        for i in 0..200u64 {
            rec.record(&RecEvent::CauseMinted { cause: i });
        }
        rec.flush().unwrap();
        let active = read_recording(&path).unwrap();
        assert!(
            active.header.segment > 0,
            "active segment must have rotated"
        );
        let mut shifted = path.as_os_str().to_os_string();
        shifted.push(".1");
        let prev = read_recording(PathBuf::from(shifted)).unwrap();
        assert_eq!(prev.header.segment + 1, active.header.segment);
        assert_eq!(prev.header.seed, active.header.seed);
        let _ = std::fs::remove_file(&path);
        for n in 1..=crate::sink::ROTATE_KEEP {
            let mut p = path.as_os_str().to_os_string();
            p.push(format!(".{n}"));
            let _ = std::fs::remove_file(PathBuf::from(p));
        }
    }

    #[test]
    fn rejects_foreign_and_corrupt_files() {
        let path = tmp("garbage.rec");
        std::fs::write(&path, b"definitely not a recording").unwrap();
        let err = read_recording(&path).unwrap_err();
        assert!(err.to_string().contains("bad magic"), "{err}");
        // A version from the future is refused, not misparsed.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&RECORDING_MAGIC);
        bytes.extend_from_slice(&(RECORDING_VERSION + 1).to_be_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let err = read_recording(&path).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_record_is_tolerated() {
        let path = tmp("truncated.rec");
        let rec = FlightRecorder::create(&path, meta()).unwrap();
        rec.record(&RecEvent::PumpStart {
            pump: 1,
            budget: 100.0,
        });
        rec.record(&RecEvent::CauseMinted { cause: 3 });
        rec.flush().unwrap();
        drop(rec);
        // Chop mid-record: the reader keeps everything before the tear.
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let loaded = read_recording(&path).unwrap();
        assert_eq!(loaded.events.len(), 1);
        assert!(matches!(
            loaded.events[0].event,
            RecEvent::PumpStart { pump: 1, .. }
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn build_info_is_stable_and_digest_is_fnv() {
        let a = BuildInfo::current();
        let b = BuildInfo::current();
        assert_eq!(a, b);
        assert!(!a.version.is_empty());
        assert!(!a.git_hash.is_empty());
        // FNV-1a reference vector.
        assert_eq!(config_digest(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(config_digest("a"), config_digest("b"));
    }
}
