//! Structured event sinks: the JSONL event log and its reader.
//!
//! Events are flat JSON objects, one per line:
//!
//! ```json
//! {"ts":1.042,"event":"job_started","job":"1","nodes":81}
//! ```
//!
//! `ts` is seconds since telemetry start (wall clock); emitters on a
//! virtual clock add their own `t_virtual` field. [`parse_line`] reads
//! this flat shape — no nesting, no arrays — through [`crate::json`],
//! which keeps the crate dependency-free while still giving experiments
//! a machine-readable trail.

use crate::json::{self, Json};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A field value in a structured event.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Str(String),
    F64(f64),
    U64(u64),
    I64(i64),
    Bool(bool),
}

impl Value {
    /// Numeric view, when the value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(v) => Some(*v),
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A parsed event from the JSONL log.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Seconds since telemetry start.
    pub ts: f64,
    /// The event name.
    pub event: String,
    /// Remaining fields, sorted by key.
    pub fields: BTreeMap<String, Value>,
}

impl Event {
    pub fn num(&self, key: &str) -> Option<f64> {
        self.fields.get(key).and_then(Value::as_f64)
    }

    pub fn str(&self, key: &str) -> Option<&str> {
        self.fields.get(key).and_then(Value::as_str)
    }
}

fn value_into(out: &mut String, v: &Value) {
    match v {
        Value::Str(s) => json::push_str(out, s),
        Value::F64(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        // JSON has no NaN/Inf; encode as null.
        Value::F64(_) => out.push_str("null"),
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Serialize one event line (no trailing newline).
pub fn render_line(ts: f64, event: &str, fields: &[(&str, Value)]) -> String {
    let mut out = String::with_capacity(64);
    let _ = write!(out, "{{\"ts\":{ts:.6},\"event\":");
    json::push_str(&mut out, event);
    for (k, v) in fields {
        out.push(',');
        json::push_str(&mut out, k);
        out.push(':');
        value_into(&mut out, v);
    }
    out.push('}');
    out
}

/// A size-rotated JSONL file writer. When the active file would exceed
/// `max_bytes` the writer closes it, shifts `events.jsonl.N` →
/// `events.jsonl.N+1` (dropping the oldest beyond [`ROTATE_KEEP`]) and
/// starts a fresh file, so long `anorsim` runs keep a bounded on-disk
/// footprint.
#[derive(Debug)]
pub(crate) struct RotatingFile {
    writer: BufWriter<File>,
    path: PathBuf,
    bytes: u64,
    max_bytes: u64,
}

/// How many rotated files to keep next to the active one.
pub const ROTATE_KEEP: usize = 3;

/// Shift the rotated chain next to `path` — `path.N` → `path.N+1`,
/// dropping the oldest beyond [`ROTATE_KEEP`], then `path` → `path.1` —
/// and create a fresh, empty `path`. Shared by the JSONL event sink and
/// the flight recorder. On any failure the caller keeps its current
/// writer, which stays usable (an open fd survives a rename on POSIX),
/// so it can keep appending rather than dropping records.
pub(crate) fn rotate_chain(path: &Path) -> std::io::Result<File> {
    let rotated = |n: usize| {
        let mut s = path.as_os_str().to_os_string();
        s.push(format!(".{n}"));
        PathBuf::from(s)
    };
    let _ = std::fs::remove_file(rotated(ROTATE_KEEP));
    for n in (1..ROTATE_KEEP).rev() {
        let _ = std::fs::rename(rotated(n), rotated(n + 1));
    }
    std::fs::rename(path, rotated(1))?;
    File::create(path)
}

/// Default rotation threshold for file event sinks (64 MiB).
pub const DEFAULT_ROTATE_BYTES: u64 = 64 * 1024 * 1024;

impl RotatingFile {
    fn create(path: &Path, max_bytes: u64) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(RotatingFile {
            writer: BufWriter::new(file),
            path: path.to_path_buf(),
            bytes: 0,
            max_bytes: max_bytes.max(1),
        })
    }

    /// Flush the outgoing file, shift the rotated chain and open a fresh
    /// active file ([`rotate_chain`]). Buffered lines are flushed
    /// *before* any rename so a rotated file is always complete; on any
    /// failure the current writer stays usable.
    fn rotate(&mut self) -> std::io::Result<()> {
        self.writer.flush()?;
        self.writer = BufWriter::new(rotate_chain(&self.path)?);
        self.bytes = 0;
        Ok(())
    }

    fn write_line(&mut self, line: &str) -> std::io::Result<()> {
        let len = line.len() as u64 + 1;
        if self.bytes + len > self.max_bytes && self.bytes > 0 {
            // A failed rotation (rename or create error) must never cost
            // the in-flight record: fall through and append it to the
            // writer we still hold, letting the active file exceed the
            // cap until a later rotation succeeds.
            let _ = self.rotate();
        }
        writeln!(self.writer, "{line}")?;
        self.bytes += len;
        Ok(())
    }
}

/// Where serialized event lines go.
#[derive(Debug)]
pub(crate) enum EventSink {
    /// Append to a size-rotated JSONL file.
    File(RotatingFile),
    /// Keep in memory (default; bounded by [`MEMORY_EVENT_CAP`]).
    Memory(Vec<String>),
}

/// Cap on buffered in-memory events; beyond it lines are counted but
/// dropped so an unconfigured `Telemetry` can't grow without bound.
pub const MEMORY_EVENT_CAP: usize = 65_536;

/// Shared, thread-safe event writer.
#[derive(Debug)]
pub struct EventLog {
    sink: Mutex<EventSink>,
    dropped: Mutex<u64>,
    written: Mutex<u64>,
}

impl EventLog {
    pub fn memory() -> Self {
        EventLog {
            sink: Mutex::new(EventSink::Memory(Vec::new())),
            dropped: Mutex::new(0),
            written: Mutex::new(0),
        }
    }

    pub fn file(path: &Path) -> std::io::Result<Self> {
        EventLog::file_with_rotation(path, DEFAULT_ROTATE_BYTES)
    }

    /// A file sink that rotates once the active file would exceed
    /// `max_bytes`.
    pub fn file_with_rotation(path: &Path, max_bytes: u64) -> std::io::Result<Self> {
        let file = RotatingFile::create(path, max_bytes)?;
        Ok(EventLog {
            sink: Mutex::new(EventSink::File(file)),
            dropped: Mutex::new(0),
            written: Mutex::new(0),
        })
    }

    pub fn push(&self, line: String) {
        let mut sink = self.sink.lock();
        match &mut *sink {
            EventSink::File(f) => {
                let ok = f.write_line(&line).is_ok();
                drop(sink);
                if ok {
                    *self.written.lock() += 1;
                } else {
                    *self.dropped.lock() += 1;
                }
            }
            EventSink::Memory(lines) => {
                if lines.len() < MEMORY_EVENT_CAP {
                    lines.push(line);
                    drop(sink);
                    *self.written.lock() += 1;
                } else {
                    drop(sink);
                    *self.dropped.lock() += 1;
                }
            }
        }
    }

    pub fn flush(&self) -> std::io::Result<()> {
        if let EventSink::File(f) = &mut *self.sink.lock() {
            f.writer.flush()?;
        }
        Ok(())
    }

    pub fn written(&self) -> u64 {
        *self.written.lock()
    }

    pub fn dropped(&self) -> u64 {
        *self.dropped.lock()
    }

    /// In-memory lines (empty for file sinks); for tests.
    pub fn memory_lines(&self) -> Vec<String> {
        match &*self.sink.lock() {
            EventSink::Memory(lines) => lines.clone(),
            EventSink::File(_) => Vec::new(),
        }
    }
}

impl Drop for EventLog {
    /// Buffered events must reach disk even when the owner forgets to
    /// call [`EventLog::flush`] (e.g. a runner exiting on error).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

fn bad(line_no: usize, msg: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("events.jsonl line {line_no}: {msg}"),
    )
}

/// Parse one flat JSON object line: a numeric `ts`, a string `event`
/// and scalar fields. A whole number below 9e15 reads back as `U64`, or
/// `I64` when negative; `null` reads back as `F64(NaN)`.
pub fn parse_line(line: &str, line_no: usize) -> std::io::Result<Event> {
    let Json::Obj(pairs) = json::parse(line).map_err(|e| bad(line_no, &e))? else {
        return Err(bad(line_no, "not a JSON object"));
    };
    let mut fields: BTreeMap<String, Value> = BTreeMap::new();
    for (key, v) in pairs {
        let value = match v {
            Json::Str(s) => Value::Str(s),
            Json::Bool(b) => Value::Bool(b),
            Json::Null => Value::F64(f64::NAN),
            Json::Num(x) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
                if x.is_sign_negative() {
                    Value::I64(x as i64)
                } else {
                    Value::U64(x as u64)
                }
            }
            Json::Num(x) => Value::F64(x),
            Json::Arr(_) | Json::Obj(_) => {
                return Err(bad(line_no, &format!("field `{key}` is not a scalar")))
            }
        };
        fields.insert(key, value);
    }
    let ts = fields
        .remove("ts")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| bad(line_no, "missing numeric `ts`"))?;
    let event = match fields.remove("event") {
        Some(Value::Str(s)) => s,
        _ => return Err(bad(line_no, "missing string `event`")),
    };
    Ok(Event { ts, event, fields })
}

/// Read every event from a JSONL file.
pub fn read_events(path: &Path) -> std::io::Result<Vec<Event>> {
    let reader = BufReader::new(File::open(path)?);
    let mut out = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(&line, i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let line = render_line(
            1.25,
            "job_done",
            &[
                ("job", 7u64.into()),
                ("type", "bt.D.81".into()),
                ("elapsed_s", 12.5f64.into()),
                ("ok", true.into()),
            ],
        );
        let ev = parse_line(&line, 1).unwrap();
        assert_eq!(ev.event, "job_done");
        assert!((ev.ts - 1.25).abs() < 1e-9);
        assert_eq!(ev.num("job"), Some(7.0));
        assert_eq!(ev.str("type"), Some("bt.D.81"));
        assert_eq!(ev.num("elapsed_s"), Some(12.5));
        assert_eq!(ev.fields["ok"], Value::Bool(true));
    }

    #[test]
    fn escaping_survives_round_trip() {
        let nasty = "he said \"hi\\there\"\n\tok\u{1}";
        let line = render_line(0.0, nasty, &[("k", nasty.into())]);
        let ev = parse_line(&line, 1).unwrap();
        assert_eq!(ev.event, nasty);
        assert_eq!(ev.str("k"), Some(nasty));
    }

    #[test]
    fn malformed_lines_are_typed_errors() {
        for bad_line in [
            "",
            "{",
            "{}",
            "not json",
            "{\"ts\":1.0}",
            "{\"event\":\"x\"}",
            "{\"ts\":\"nope\",\"event\":\"x\"}",
            "{\"ts\":1,\"event\":\"x\"} trailing",
            "{\"ts\":1,\"event\":\"x\",\"v\":12..5}",
        ] {
            assert!(parse_line(bad_line, 1).is_err(), "accepted: {bad_line:?}");
        }
    }

    #[test]
    fn memory_sink_caps_and_counts_drops() {
        let log = EventLog::memory();
        for i in 0..(MEMORY_EVENT_CAP + 10) {
            log.push(format!("{{\"ts\":{i},\"event\":\"e\"}}"));
        }
        assert_eq!(log.written(), MEMORY_EVENT_CAP as u64);
        assert_eq!(log.dropped(), 10);
        assert_eq!(log.memory_lines().len(), MEMORY_EVENT_CAP);
    }

    #[test]
    fn file_sink_rotates_by_size() {
        let dir = std::env::temp_dir().join(format!(
            "anor-telemetry-rotate-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        // ~40-byte lines, 128-byte cap: rotation every ~3 lines.
        let log = EventLog::file_with_rotation(&path, 128).unwrap();
        for i in 0..20 {
            log.push(render_line(i as f64, "tick", &[("n", (i as u64).into())]));
        }
        log.flush().unwrap();
        assert_eq!(log.written(), 20);
        assert!(path.exists());
        let mut rotated = PathBuf::from(path.as_os_str().to_os_string());
        rotated.set_extension("jsonl.1");
        assert!(rotated.exists(), "first rotated file present");
        // Bounded: never more than ROTATE_KEEP rotated files.
        let count = std::fs::read_dir(&dir).unwrap().count();
        assert!(count <= 1 + ROTATE_KEEP, "{count} files on disk");
        // Active file respects the cap and still parses.
        assert!(std::fs::metadata(&path).unwrap().len() <= 128);
        for ev in read_events(&path).unwrap() {
            assert_eq!(ev.event, "tick");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_boundary_loses_no_records() {
        let dir = std::env::temp_dir().join(format!(
            "anor-telemetry-rotate-boundary-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let lines: Vec<String> = (0..20u64)
            .map(|i| render_line(0.0, "tick", &[("n", i.into())]))
            .collect();
        // Cap sized so exactly one rotation fires, mid-stream: the first
        // 12 records fill the file and record 13 lands on the boundary.
        let cap: u64 = lines.iter().take(12).map(|l| l.len() as u64 + 1).sum();
        let log = EventLog::file_with_rotation(&path, cap).unwrap();
        for l in &lines {
            log.push(l.clone());
        }
        log.flush().unwrap();
        assert_eq!(log.written(), 20);
        assert_eq!(log.dropped(), 0);
        // Rotated file + active file together hold every record exactly
        // once, in order: nothing dropped or duplicated at the boundary.
        let rotated = PathBuf::from(format!("{}.1", path.display()));
        let mut ns = Vec::new();
        for p in [&rotated, &path] {
            for ev in read_events(p).unwrap() {
                ns.push(ev.num("n").unwrap() as u64);
            }
        }
        assert_eq!(ns, (0..20).collect::<Vec<u64>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_rotation_never_drops_the_in_flight_record() {
        let dir = std::env::temp_dir().join(format!(
            "anor-telemetry-rotate-fail-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        // Block every slot in the rotation chain with a non-empty
        // directory so each rename inside rotate() fails.
        for n in 1..=ROTATE_KEEP {
            let block = PathBuf::from(format!("{}.{n}", path.display()));
            std::fs::create_dir_all(&block).unwrap();
            std::fs::write(block.join("occupied"), "x").unwrap();
        }
        let log = EventLog::file_with_rotation(&path, 64).unwrap();
        for i in 0..10u64 {
            log.push(render_line(0.0, "tick", &[("n", i.into())]));
        }
        log.flush().unwrap();
        assert_eq!(log.written(), 10, "rotation failure must not drop records");
        assert_eq!(log.dropped(), 0);
        let events = read_events(&path).unwrap();
        assert_eq!(
            events.len(),
            10,
            "every record lands in the (oversized) active file"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_flushes_buffered_events() {
        let dir = std::env::temp_dir().join(format!(
            "anor-telemetry-dropflush-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            let log = EventLog::file(&path).unwrap();
            log.push(render_line(0.0, "unflushed", &[]));
            // No explicit flush: Drop must get the line to disk.
        }
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "unflushed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_sink_round_trips_through_reader() {
        let dir = std::env::temp_dir().join(format!(
            "anor-telemetry-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let log = EventLog::file(&path).unwrap();
        log.push(render_line(0.5, "a", &[("n", 1u64.into())]));
        log.push(render_line(1.5, "b", &[("s", "x".into())]));
        log.flush().unwrap();
        let events = read_events(&path).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].event, "a");
        assert_eq!(events[1].str("s"), Some("x"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
