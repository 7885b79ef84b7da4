//! `anor-telemetry` — observability for every tier of the ANOR stack.
//!
//! The paper's debugging story (§7.2) leans on GEOPM's per-node trace
//! files; this crate gives the reproduction the equivalent for the
//! cluster tier and above: a lock-cheap metrics registry, RAII timers
//! for control-loop stages, and pluggable sinks (a JSONL event log, a
//! Prometheus-style text exposition dump, and an end-of-run summary
//! table).
//!
//! # Usage
//!
//! ```
//! use anor_telemetry::{Telemetry, Timer};
//!
//! let t = Telemetry::new(); // in-memory; Telemetry::to_dir(..) adds a JSONL file
//! let frames = t.counter("transport_frames_total", &[("dir", "rx")]);
//! frames.inc();
//! {
//!     let _timer = Timer::start(t.histogram("budgeter_rebalance_seconds", &[]));
//!     // ... redistribute ...
//! }
//! t.event("job_started", &[("job", 7u64.into()), ("type", "bt.D.81".into())]);
//! let summary = t.render_summary();
//! assert!(summary.contains("transport_frames_total"));
//! ```
//!
//! `Telemetry` is an `Arc`-backed handle: clone it freely into every
//! component. Handles returned by `counter`/`gauge`/`histogram` are
//! themselves cheap atomics meant to be cached at construction time, so
//! steady-state recording takes no lock. The causal [`Tracer`] and the
//! [`FlightRecorder`] follow the same idiom: every component holds one,
//! off by default ([`Tracer::off`], [`FlightRecorder::off`]), never an
//! `Option`.
//!
//! [`json`] is the workspace's one JSON codec: the event and trace
//! lines, the budgeter's `/status` snapshot and the bench ledgers are
//! written with its string escaper and read back with its parser.

pub mod json;
pub mod ops;
pub mod recorder;
mod registry;
mod render;
mod sink;
mod span;
pub mod trace;

pub use ops::{http_get, OpsServer, StatusProvider};
pub use recorder::{
    config_digest, read_recording, BuildInfo, FlightRecorder, RecEvent, RecordedEvent, Recording,
    RecordingHeader, RecordingMeta, DEFAULT_RECORDING_ROTATE_BYTES, MAX_RECORD_LEN,
    RECORDING_MAGIC, RECORDING_VERSION,
};
pub use registry::{Counter, Gauge, Histogram, MetricId, Registry, Snapshot};
pub use sink::{
    parse_line, read_events, render_line, Event, EventLog, Value, DEFAULT_ROTATE_BYTES,
    MEMORY_EVENT_CAP, ROTATE_KEEP,
};
pub use span::Timer;
pub use trace::{
    read_trace, CauseId, SpanId, TraceEvent, TraceId, TraceScan, TraceStage, Tracer,
    DEFAULT_RING_CAPACITY,
};

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug)]
struct Inner {
    registry: Registry,
    events: EventLog,
    start: Instant,
    dir: Option<PathBuf>,
}

/// The shared telemetry handle. Cloning is an `Arc` bump.
#[derive(Clone, Debug)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// In-memory telemetry: metrics always on, events buffered (capped
    /// at [`MEMORY_EVENT_CAP`]). This is the default every component
    /// gets, so instrumentation never needs an `Option`.
    pub fn new() -> Self {
        let t = Telemetry {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                events: EventLog::memory(),
                start: Instant::now(),
                dir: None,
            }),
        };
        t.register_build_info();
        t
    }

    /// Telemetry writing `events.jsonl` into `dir` (created if absent);
    /// [`Telemetry::write_artifacts`] later adds `metrics.prom` and
    /// `summary.txt` next to it.
    pub fn to_dir(dir: impl AsRef<Path>) -> std::io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let events = EventLog::file(&dir.join("events.jsonl"))?;
        let t = Telemetry {
            inner: Arc::new(Inner {
                registry: Registry::new(),
                events,
                start: Instant::now(),
                dir: Some(dir),
            }),
        };
        t.register_build_info();
        Ok(t)
    }

    /// Every registry answers "which binary produced these numbers":
    /// `anor_build_info` is a constant-1 gauge carrying the version and
    /// git hash as labels (the standard Prometheus build-info idiom).
    fn register_build_info(&self) {
        let info = BuildInfo::current();
        self.inner
            .registry
            .gauge(
                "anor_build_info",
                &[
                    ("version", info.version.as_str()),
                    ("git_hash", info.git_hash.as_str()),
                ],
            )
            .set(1.0);
    }

    /// The artifact directory, when configured via [`Telemetry::to_dir`].
    pub fn dir(&self) -> Option<&Path> {
        self.inner.dir.as_deref()
    }

    /// Seconds since this handle was created (the `ts` of events).
    pub fn elapsed(&self) -> f64 {
        self.inner.start.elapsed().as_secs_f64()
    }

    // ---- metrics ----------------------------------------------------

    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter(name, labels)
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge(name, labels)
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.inner.registry.histogram(name, labels)
    }

    pub fn histogram_with_bounds(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bounds: Vec<f64>,
    ) -> Histogram {
        self.inner
            .registry
            .histogram_with_bounds(name, labels, bounds)
    }

    /// Snapshot every registered series.
    pub fn snapshot(&self) -> Vec<Snapshot> {
        self.inner.registry.snapshot()
    }

    // ---- events -----------------------------------------------------

    /// Emit a structured event to the JSONL sink.
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        let line = render_line(self.elapsed(), name, fields);
        self.inner.events.push(line);
    }

    /// Events written / dropped so far.
    pub fn event_counts(&self) -> (u64, u64) {
        (self.inner.events.written(), self.inner.events.dropped())
    }

    /// Buffered event lines when running in-memory (tests).
    pub fn memory_event_lines(&self) -> Vec<String> {
        self.inner.events.memory_lines()
    }

    // ---- sinks ------------------------------------------------------

    /// Prometheus-style text exposition of the current registry.
    pub fn render_prometheus(&self) -> String {
        render::prometheus(&self.snapshot())
    }

    /// The end-of-run summary table.
    pub fn render_summary(&self) -> String {
        let (written, dropped) = self.event_counts();
        render::summary(&self.snapshot(), written, dropped)
    }

    /// Flush the event log and, when a directory is configured, write
    /// `metrics.prom` and `summary.txt`. Returns the rendered summary
    /// (so runners can also print it).
    pub fn write_artifacts(&self) -> std::io::Result<String> {
        self.inner.events.flush()?;
        let summary = self.render_summary();
        if let Some(dir) = &self.inner.dir {
            std::fs::write(dir.join("metrics.prom"), self.render_prometheus())?;
            std::fs::write(dir.join("summary.txt"), &summary)?;
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let a = Telemetry::new();
        let b = a.clone();
        a.counter("c", &[]).inc();
        b.counter("c", &[]).inc();
        assert_eq!(a.counter("c", &[]).get(), 2);
        b.event("e", &[]);
        assert_eq!(a.event_counts().0, 1);
    }

    #[test]
    fn build_info_gauge_is_registered_on_construction() {
        let t = Telemetry::new();
        let info = BuildInfo::current();
        let prom = t.render_prometheus();
        assert!(prom.contains("anor_build_info{"), "{prom}");
        assert!(
            prom.contains(&format!("version=\"{}\"", info.version)),
            "{prom}"
        );
        assert!(
            prom.contains(&format!("git_hash=\"{}\"", info.git_hash)),
            "{prom}"
        );
    }

    #[test]
    fn dir_mode_writes_all_artifacts() {
        let dir =
            std::env::temp_dir().join(format!("anor-telemetry-artifacts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let t = Telemetry::to_dir(&dir).unwrap();
        t.counter("transport_frames_total", &[("dir", "tx")]).add(3);
        t.histogram("budgeter_rebalance_seconds", &[]).observe(0.01);
        t.event("job_started", &[("job", 1u64.into())]);
        let summary = t.write_artifacts().unwrap();
        assert!(summary.contains("transport_frames_total"));

        let events = read_events(&dir.join("events.jsonl")).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event, "job_started");
        let prom = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(prom.contains("transport_frames_total{dir=\"tx\"} 3"));
        let text = std::fs::read_to_string(dir.join("summary.txt")).unwrap();
        assert!(text.contains("budgeter_rebalance_seconds"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
