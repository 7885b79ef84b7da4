//! The budgeter's live status surface.
//!
//! The budgeter publishes a [`StatusSnapshot`] of its session, lease and
//! pool state into a [`StatusBoard`] once per control pass; the ops
//! endpoint (`anord --status-addr`) serves the board's pre-rendered JSON
//! on `GET /status` and `anor-top` polls it. Publishing renders the JSON
//! *outside* the board lock and swaps a `String` under it, so neither the
//! pump hot path nor a slow scraper ever holds the lock for more than a
//! pointer swap or a clone.
//!
//! `anor-top` and the integration tests read the JSON back with
//! [`anor_telemetry::json::parse`].

use anor_telemetry::json;
use parking_lot::Mutex;
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-job row in a [`StatusSnapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: u64,
    /// Session-state label: `connected`, `reconnecting` or `gone`.
    pub state: String,
    /// Control passes spent disconnected (lease countdown).
    pub missed_pumps: u32,
    /// Last cap sent, watts per node (absent before the first cap).
    pub cap: Option<f64>,
    /// Nodes the job occupies.
    pub nodes: u32,
    /// Samples ingested from the job tier.
    pub samples: u64,
    /// Models ingested from the job tier.
    pub models: u64,
    /// Watts reclaimed from this job's expired lease, still owed on resume.
    pub reclaimed: Option<f64>,
    /// Has the job reported completion?
    pub done: bool,
}

/// Latency percentiles for one named pump phase (the
/// `pump_phase_seconds{phase=...}` histogram family, snapshotted).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`ingest`, `lease-audit`, `model-observe`, `decide`,
    /// `actuate`, `invariant-audit`).
    pub phase: String,
    /// Median phase latency, seconds.
    pub p50: f64,
    /// 90th-percentile phase latency, seconds.
    pub p90: f64,
    /// 99th-percentile phase latency, seconds.
    pub p99: f64,
}

/// One coherent, cheap-to-take snapshot of a running budgeter: pool and
/// lease watts, per-connection session state, pump-latency percentiles,
/// flight-recorder depth and the invariant-auditor verdict. Rendered to
/// JSON for `GET /status`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusSnapshot {
    /// Busy budget handed to the most recent pump (watts).
    pub budget: f64,
    /// Control passes executed so far.
    pub pumps: u64,
    /// Jobs registered, not done, holding a live lease.
    pub active_jobs: usize,
    /// Connection slots currently open.
    pub conns_open: usize,
    /// Connections accepted over the daemon's lifetime.
    pub accepted: u64,
    /// Jobs that reported completion.
    pub completed: usize,
    /// Σ last-cap × nodes over lease holders (watts allocated out of the pool).
    pub allocated_watts: f64,
    /// Watts reclaimed from expired leases, not yet restored.
    pub reclaimed_watts: f64,
    /// Invariant-auditor violations observed so far (0 in a healthy run).
    pub invariant_violations: u64,
    /// Pump latency percentiles, seconds.
    pub pump_p50: f64,
    /// 90th-percentile pump latency, seconds.
    pub pump_p90: f64,
    /// 99th-percentile pump latency, seconds.
    pub pump_p99: f64,
    /// Events currently buffered in the trace flight recorder.
    pub ring_depth: usize,
    /// Trace events recorded over the run.
    pub trace_recorded: u64,
    /// Postmortem dumps written so far.
    pub postmortems: u64,
    /// Version of the binary that produced this snapshot.
    pub build_version: String,
    /// Git hash of the binary that produced this snapshot.
    pub git_hash: String,
    /// Pump-phase latency percentiles, in execution order.
    pub phases: Vec<PhaseStat>,
    /// Per-job rows, sorted by job id.
    pub jobs: Vec<JobStatus>,
}

/// A JSON number for `v`: JSON cannot carry a non-finite value, so
/// `/status` renders one as `0`.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl StatusSnapshot {
    /// Render the snapshot as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(256 + self.jobs.len() * 128);
        let _ = write!(
            o,
            "{{\"budget\":{},\"pumps\":{},\"active_jobs\":{},\"conns_open\":{},\
             \"accepted\":{},\"completed\":{},",
            finite(self.budget),
            self.pumps,
            self.active_jobs,
            self.conns_open,
            self.accepted,
            self.completed
        );
        let _ = write!(
            o,
            "\"allocated_watts\":{},\"reclaimed_watts\":{},\"invariant_violations\":{},",
            finite(self.allocated_watts),
            finite(self.reclaimed_watts),
            self.invariant_violations
        );
        let _ = write!(
            o,
            "\"pump_p50\":{},\"pump_p90\":{},\"pump_p99\":{},",
            finite(self.pump_p50),
            finite(self.pump_p90),
            finite(self.pump_p99)
        );
        let _ = write!(
            o,
            "\"ring_depth\":{},\"trace_recorded\":{},\"postmortems\":{},",
            self.ring_depth, self.trace_recorded, self.postmortems
        );
        o.push_str("\"build_version\":");
        json::push_str(&mut o, &self.build_version);
        o.push_str(",\"git_hash\":");
        json::push_str(&mut o, &self.git_hash);
        o.push_str(",\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str("{\"phase\":");
            json::push_str(&mut o, &p.phase);
            let _ = write!(
                o,
                ",\"p50\":{},\"p90\":{},\"p99\":{}}}",
                finite(p.p50),
                finite(p.p90),
                finite(p.p99)
            );
        }
        o.push_str("],\"jobs\":[");
        for (i, j) in self.jobs.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"job\":{},\"state\":", j.job);
            json::push_str(&mut o, &j.state);
            let _ = write!(o, ",\"missed_pumps\":{},\"cap\":", j.missed_pumps);
            let _ = match j.cap {
                Some(c) => write!(o, "{}", finite(c)),
                None => write!(o, "null"),
            };
            let _ = write!(
                o,
                ",\"nodes\":{},\"samples\":{},\"models\":{},\"reclaimed\":",
                j.nodes, j.samples, j.models
            );
            let _ = match j.reclaimed {
                Some(w) => write!(o, "{}", finite(w)),
                None => write!(o, "null"),
            };
            let _ = write!(o, ",\"done\":{}}}", j.done);
        }
        o.push_str("]}");
        o
    }
}

/// Shared hand-off point between the budgeter (writer, once per pump) and
/// the ops endpoint (reader, once per `GET /status`). Clone freely — all
/// clones share the same board.
#[derive(Debug, Clone)]
pub struct StatusBoard {
    board: Arc<Mutex<String>>,
}

impl Default for StatusBoard {
    fn default() -> Self {
        StatusBoard::new()
    }
}

impl StatusBoard {
    /// An empty board (renders a default snapshot until first publish).
    pub fn new() -> Self {
        StatusBoard {
            board: Arc::new(Mutex::new(StatusSnapshot::default().to_json())),
        }
    }

    /// Render `snapshot` and swap it in. Rendering happens outside the
    /// lock; the hold is a single `String` swap.
    pub fn publish(&self, snapshot: &StatusSnapshot) {
        let json = snapshot.to_json();
        *self.board.lock() = json;
    }

    /// The most recently published JSON (a clone; the lock hold is short).
    pub fn render_json(&self) -> String {
        self.board.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_telemetry::json::Json;

    fn snapshot() -> StatusSnapshot {
        StatusSnapshot {
            budget: 400.0,
            pumps: 17,
            active_jobs: 2,
            conns_open: 2,
            accepted: 3,
            completed: 1,
            allocated_watts: 399.5,
            reclaimed_watts: 120.0,
            invariant_violations: 0,
            pump_p50: 0.0004,
            pump_p90: 0.0011,
            pump_p99: 0.0032,
            ring_depth: 812,
            trace_recorded: 2048,
            postmortems: 1,
            build_version: "0.1.0".to_string(),
            git_hash: "abc123def456".to_string(),
            phases: vec![
                PhaseStat {
                    phase: "ingest".to_string(),
                    p50: 0.0001,
                    p90: 0.0002,
                    p99: 0.0009,
                },
                PhaseStat {
                    phase: "decide".to_string(),
                    p50: 0.0002,
                    p90: 0.0004,
                    p99: 0.0013,
                },
            ],
            jobs: vec![
                JobStatus {
                    job: 1,
                    state: "connected".to_string(),
                    missed_pumps: 0,
                    cap: Some(199.75),
                    nodes: 2,
                    samples: 40,
                    models: 3,
                    reclaimed: None,
                    done: false,
                },
                JobStatus {
                    job: 2,
                    state: "gone".to_string(),
                    missed_pumps: 8,
                    cap: Some(120.0),
                    nodes: 1,
                    samples: 12,
                    models: 1,
                    reclaimed: Some(120.0),
                    done: false,
                },
            ],
        }
    }

    #[test]
    fn snapshot_round_trips_through_the_parser() {
        let snap = snapshot();
        let v = json::parse(&snap.to_json()).unwrap();
        assert_eq!(v.get("budget").and_then(Json::as_f64), Some(400.0));
        assert_eq!(v.get("pumps").and_then(Json::as_u64), Some(17));
        assert_eq!(
            v.get("invariant_violations").and_then(Json::as_u64),
            Some(0)
        );
        assert_eq!(v.get("reclaimed_watts").and_then(Json::as_f64), Some(120.0));
        assert_eq!(v.get("build_version").and_then(Json::as_str), Some("0.1.0"));
        assert_eq!(
            v.get("git_hash").and_then(Json::as_str),
            Some("abc123def456")
        );
        let phases = v.get("phases").and_then(Json::as_array).unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0].get("phase").and_then(Json::as_str),
            Some("ingest")
        );
        assert_eq!(phases[1].get("p99").and_then(Json::as_f64), Some(0.0013));
        let jobs = v.get("jobs").and_then(Json::as_array).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(
            jobs[0].get("state").and_then(Json::as_str),
            Some("connected")
        );
        assert_eq!(jobs[0].get("cap").and_then(Json::as_f64), Some(199.75));
        assert_eq!(jobs[1].get("reclaimed").and_then(Json::as_f64), Some(120.0));
        assert_eq!(jobs[1].get("done").and_then(Json::as_bool), Some(false));
        assert_eq!(jobs[0].get("reclaimed"), Some(&Json::Null));
    }

    #[test]
    fn snapshot_json_is_pinned() {
        // `/status` consumers (anor-top, scripts) read these bytes; a
        // non-finite number renders as 0, not as JSON's absent NaN.
        let mut snap = snapshot();
        snap.phases[1].p90 = f64::NAN;
        assert_eq!(
            snap.to_json(),
            "{\"budget\":400,\"pumps\":17,\"active_jobs\":2,\"conns_open\":2,\"accepted\":3,\
             \"completed\":1,\"allocated_watts\":399.5,\"reclaimed_watts\":120,\
             \"invariant_violations\":0,\"pump_p50\":0.0004,\"pump_p90\":0.0011,\
             \"pump_p99\":0.0032,\"ring_depth\":812,\"trace_recorded\":2048,\"postmortems\":1,\
             \"build_version\":\"0.1.0\",\"git_hash\":\"abc123def456\",\"phases\":[\
             {\"phase\":\"ingest\",\"p50\":0.0001,\"p90\":0.0002,\"p99\":0.0009},\
             {\"phase\":\"decide\",\"p50\":0.0002,\"p90\":0,\"p99\":0.0013}],\"jobs\":[\
             {\"job\":1,\"state\":\"connected\",\"missed_pumps\":0,\"cap\":199.75,\"nodes\":2,\
             \"samples\":40,\"models\":3,\"reclaimed\":null,\"done\":false},\
             {\"job\":2,\"state\":\"gone\",\"missed_pumps\":8,\"cap\":120,\"nodes\":1,\
             \"samples\":12,\"models\":1,\"reclaimed\":120,\"done\":false}]}"
        );
    }

    #[test]
    fn board_swaps_published_snapshots() {
        let board = StatusBoard::new();
        let empty = json::parse(&board.render_json()).unwrap();
        assert_eq!(empty.get("pumps").and_then(Json::as_u64), Some(0));
        board.publish(&snapshot());
        let v = json::parse(&board.render_json()).unwrap();
        assert_eq!(v.get("pumps").and_then(Json::as_u64), Some(17));
        // Clones share the board.
        let clone = board.clone();
        assert_eq!(clone.render_json(), board.render_json());
    }
}
