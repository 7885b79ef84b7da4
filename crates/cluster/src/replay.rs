//! Offline replay of budgeter flight recordings.
//!
//! A recording (see `anor_telemetry::recorder`) captures everything the
//! budgeter saw — inbound wire frames, connection and lease transitions,
//! pump triggers, minted decision cause ids — plus everything it emitted.
//! [`replay`] reconstructs a [`ClusterBudgeter`] from the recorded
//! header's config string, puts it on a recorded connection plane that
//! serves the recorded events and captures its writes, and calls the live
//! `pump` once per recorded pump: accept, ingest, decode, session and
//! budget code all run as in the daemon, with the recorded pump
//! boundaries standing in for the wall clock (no sleeps). A replay binds
//! no port.
//!
//! In `--verify` mode every re-emitted decision frame is compared
//! byte-for-byte against the recorded one — the same guarantee as the
//! golden decision-stream tests, but against a production artifact.
//! [`diff_recordings`] compares two recordings (timestamps ignored) and
//! reports the first divergence, which is how a chaos run is triaged
//! against a clean same-seed run.

use crate::budgeter::{BudgetPolicy, BudgeterConfig, ClusterBudgeter, LeaseConfig};
use crate::status::StatusSnapshot;
use crate::transport::{ConnId, ConnSlab, Listener, Transport};
use anor_telemetry::{RecEvent, RecordedEvent, Recording, RecordingMeta};
use anor_types::msg::{take_frame, ClusterToJob};
use anor_types::{AnorError, Result, Watts};
use bytes::{Bytes, BytesMut};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Render a budgeter configuration as the canonical `key=value` string
/// stored in a recording header. [`parse_config`] inverts it; the pair
/// is what makes a recording self-describing. The daemon always assumes
/// the least power-sensitive type for an unknown name and always holds
/// leases; the string still says so, so a header's `config_digest`
/// stays what older builds wrote.
pub fn describe_config(cfg: &BudgeterConfig, lease: &LeaseConfig) -> String {
    format!(
        "policy={} feedback={} unknown_default=least-sensitive recap_threshold={} \
         catalog=standard lease=on miss_pumps={}",
        cfg.policy.name(),
        cfg.feedback,
        cfg.recap_threshold.value(),
        lease.miss_pumps,
    )
}

/// Parse a [`describe_config`] string back into a budgeter + lease
/// configuration (over the standard catalog). Unknown keys are ignored
/// for forward compatibility; a malformed known key returns `None`, and
/// so does a behaviour this build no longer has (`lease=off`,
/// `unknown_default=most-sensitive`).
pub fn parse_config(s: &str) -> Option<(BudgeterConfig, LeaseConfig)> {
    let mut cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
    let mut lease = LeaseConfig::default();
    for tok in s.split_whitespace() {
        let (key, value) = tok.split_once('=')?;
        match key {
            "policy" => cfg.policy = value.parse().ok()?,
            "feedback" => cfg.feedback = value.parse().ok()?,
            "recap_threshold" => cfg.recap_threshold = Watts(value.parse().ok()?),
            "unknown_default" if value != "least-sensitive" => return None,
            "catalog" if value != "standard" => return None,
            "lease" if value != "on" => return None,
            "miss_pumps" => lease.miss_pumps = value.parse().ok()?,
            _ => {}
        }
    }
    Some((cfg, lease))
}

/// Build the [`RecordingMeta`] a budgeter-side recorder should be
/// created with: role `budgeter` and a replay-compatible config string.
pub fn recorder_meta(cfg: &BudgeterConfig, lease: &LeaseConfig, seed: u64) -> RecordingMeta {
    RecordingMeta {
        seed,
        config: describe_config(cfg, lease),
        role: "budgeter".to_string(),
    }
}

/// Replay controls.
#[derive(Debug, Clone, Default)]
pub struct ReplayOptions {
    /// Compare every re-emitted decision frame byte-for-byte against the
    /// recorded one; replay stops at the first divergence.
    pub verify: bool,
    /// Stop after replaying this pump (1-based, inclusive); the outcome
    /// snapshot then describes the budgeter's state at that pump.
    pub until: Option<u64>,
}

/// A point where the replay (or a second recording) stopped matching.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Pump during which the divergence occurred (0 = before any pump).
    pub pump: u64,
    /// Decision index within the pump ([`replay`]) or event index within
    /// the recording ([`diff_recordings`]).
    pub index: usize,
    /// What the recording said happened.
    pub expected: String,
    /// What the replay (or the other recording) produced instead.
    pub actual: String,
}

/// What a replay pass established.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Control passes re-executed.
    pub pumps_replayed: u64,
    /// Decision frames compared (verify) or captured (plain replay).
    pub decisions_checked: u64,
    /// First mismatch between recorded and recomputed decisions, if any.
    pub first_divergence: Option<Divergence>,
    /// Invariant-auditor violations flagged across the replayed pumps.
    pub invariant_violations: u64,
    /// Virtual duration of the recording (last event timestamp), seconds.
    pub recorded_wall_s: f64,
    /// Budgeter state at the stop point (`--until` or end of recording).
    pub snapshot: StatusSnapshot,
}

/// First-divergence comparison of two recordings.
#[derive(Debug, Clone, Default)]
pub struct RecordingDiff {
    /// Header-level differences (seed, config, build) — informational.
    pub notes: Vec<String>,
    /// First event at which the streams disagree (timestamps ignored).
    pub first_divergence: Option<Divergence>,
    /// Event count of the first recording.
    pub events_a: usize,
    /// Event count of the second recording.
    pub events_b: usize,
}

/// Reconstruct the recorded budgeter and drive it through the recording.
///
/// The recording must be a genesis (`segment` 0) budgeter-role segment:
/// a rotation continuation has lost the state that preceded it, and an
/// endpoint-side recording has no budgeter to reconstruct.
pub fn replay(rec: &Recording, opts: &ReplayOptions) -> Result<ReplayOutcome> {
    if rec.header.role != "budgeter" {
        return Err(AnorError::config(format!(
            "cannot replay a `{}`-role recording; only budgeter recordings \
             carry reconstructible state",
            rec.header.role
        )));
    }
    if rec.header.segment != 0 {
        return Err(AnorError::config(format!(
            "recording is rotation segment {}; replay needs the genesis segment \
             (state before a rotation is not recoverable)",
            rec.header.segment
        )));
    }
    let Some((cfg, lease)) = parse_config(&rec.header.config) else {
        return Err(AnorError::config(format!(
            "recorded config `{}` is not parseable by this build \
             (recorded by {} {})",
            rec.header.config, rec.header.build_version, rec.header.git_hash
        )));
    };
    let plane = RecordedPlane::default();
    let tape = Arc::clone(&plane.tape);
    let mut budgeter = ClusterBudgeter::builder(cfg)
        .lease(lease)
        .over(Box::new(plane))?;

    let mut outcome = ReplayOutcome {
        pumps_replayed: 0,
        decisions_checked: 0,
        first_divergence: None,
        invariant_violations: 0,
        recorded_wall_s: rec
            .events
            .last()
            .map_or(0.0, |e| e.ts_nanos as f64 / 1_000_000_000.0),
        snapshot: StatusSnapshot::default(),
    };
    let mut expected = Vec::new();
    // Events between two PumpStarts belong to the first of them (its pass
    // was running when they were recorded); events ahead of the first
    // PumpStart join the first pass.
    let pumps = rec
        .events
        .chunk_by(|_, next| !matches!(next.event, RecEvent::PumpStart { .. }));
    for events in pumps {
        lock(&tape).stage(events, &mut expected);
        let Some(&RecEvent::PumpStart { pump, budget }) = events.first().map(|e| &e.event) else {
            continue;
        };
        budgeter.pump(Watts(budget))?;
        outcome.pumps_replayed += 1;
        let actual = std::mem::take(&mut lock(&tape).writes);
        if !opts.verify {
            outcome.decisions_checked += actual.len() as u64;
        } else {
            let div = first_mismatch(pump, budgeter.pump_count(), &expected, &actual);
            outcome.decisions_checked += div.as_ref().map_or(actual.len(), |d| d.index) as u64;
            outcome.first_divergence = div;
        }
        expected.clear();
        if outcome.first_divergence.is_some() || opts.until.is_some_and(|u| pump >= u) {
            break;
        }
    }
    outcome.invariant_violations = budgeter.invariant_violations();
    outcome.snapshot = budgeter.status_snapshot();
    Ok(outcome)
}

/// Where a replayed pump first differs from its recording: its pump
/// counter, then its written frames against the recorded decisions, in
/// emission order.
fn first_mismatch(
    pump: u64,
    replayed_pump: u64,
    expected: &[(u32, &[u8])],
    actual: &[(ConnId, Bytes)],
) -> Option<Divergence> {
    if replayed_pump != pump {
        return Some(Divergence {
            pump,
            index: 0,
            expected: format!("pump counter {pump}"),
            actual: format!("pump counter {replayed_pump} (recording did not start at pump 1?)"),
        });
    }
    let recorded = |i: usize| expected.get(i).copied();
    let replayed = |i: usize| actual.get(i).map(|(conn, f)| (conn.value(), f.as_ref()));
    let index = (0..expected.len().max(actual.len())).find(|&i| recorded(i) != replayed(i))?;
    let describe = |frame: Option<(u32, &[u8])>, none: &str| {
        frame.map_or_else(|| none.to_string(), |(conn, f)| describe_frame(conn, f))
    };
    Some(Divergence {
        pump,
        index,
        expected: describe(recorded(index), "<no frame recorded>"),
        actual: describe(replayed(index), "<no frame emitted>"),
    })
}

/// One connection's recorded input within a pump, served by one
/// `read_frames`: its frames in order, then maybe a close.
#[derive(Debug)]
struct Read {
    conn: ConnId,
    frames: usize,
    closed: bool,
    /// Quarantined before any frame (a rejected length prefix): served as
    /// the protocol error a live plane raises.
    broken: bool,
}

/// What [`replay`] and its [`RecordedPlane`] share: the next pump's
/// recorded inputs, and the frames the budgeter wrote.
#[derive(Debug, Default)]
struct Tape {
    /// Recorded `ConnOpen` ids, all accepted when the pump starts.
    opens: Vec<u32>,
    /// Reads in recorded order.
    reads: VecDeque<Read>,
    /// The reads' frame bodies back to back, where each one ends, and
    /// where the next one to serve starts.
    bodies: Vec<u8>,
    ends: VecDeque<usize>,
    served: usize,
    /// Recorded decision cause ids, in mint order.
    causes: VecDeque<u64>,
    /// `(conn, frame)` in emission order.
    writes: Vec<(ConnId, Bytes)>,
}

impl Tape {
    /// Stage one pump's recorded inputs, and collect its recorded decision
    /// frames into `expected`. Consecutive inputs on one connection form
    /// one read, which a close ends.
    fn stage<'r>(&mut self, events: &'r [RecordedEvent], expected: &mut Vec<(u32, &'r [u8])>) {
        if self.reads.is_empty() {
            self.bodies.clear();
            self.ends.clear();
            self.served = 0;
        }
        let mut read = None;
        for ev in events {
            match &ev.event {
                RecEvent::ConnOpen { conn } => self.opens.push(*conn),
                RecEvent::FrameIn { conn, body } => {
                    self.bodies.extend_from_slice(body);
                    self.ends.push_back(self.bodies.len());
                    self.read_on(&mut read, *conn).frames += 1;
                }
                RecEvent::ConnClosed { conn } => self.read_on(&mut read, *conn).closed = true,
                RecEvent::ConnQuarantined { conn } => {
                    // After a frame, the quarantine is that malformed
                    // frame's, which decoding it again re-trips.
                    let r = self.read_on(&mut read, *conn);
                    r.broken |= r.frames == 0;
                }
                RecEvent::CauseMinted { cause } => self.causes.push_back(*cause),
                RecEvent::DecisionTx { conn, frame } => expected.push((*conn, frame)),
                RecEvent::PumpStart { .. }
                | RecEvent::LeaseExpired { .. }
                | RecEvent::LeaseRestored { .. } => {}
            }
        }
        self.reads.extend(read);
    }

    /// The read `conn`'s next input joins: the open one, unless it is on
    /// another connection or closed, in which case that one is queued.
    fn read_on<'a>(&mut self, read: &'a mut Option<Read>, conn: u32) -> &'a mut Read {
        let conn = ConnId::new(conn);
        if read.as_ref().is_some_and(|r| r.conn != conn || r.closed) {
            self.reads.extend(read.take());
        }
        read.get_or_insert_with(|| Read {
            conn,
            frames: 0,
            closed: false,
            broken: false,
        })
    }

    /// The next staged frame body.
    fn next_body(&mut self) -> Bytes {
        let start = self.served;
        self.served = self.ends.pop_front().unwrap_or(start);
        Bytes::copy_from_slice(self.bodies.get(start..self.served).unwrap_or_default())
    }
}

fn lock(tape: &Mutex<Tape>) -> MutexGuard<'_, Tape> {
    tape.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The connection plane a replay runs on: each pump accepts its staged
/// `ConnOpen`s, serves its reads in recorded order and its cause ids in
/// mint order, and writes onto the tape.
#[derive(Debug, Default)]
struct RecordedPlane {
    tape: Arc<Mutex<Tape>>,
    conns: ConnSlab<()>,
}

impl Transport for RecordedPlane {
    /// Ids are allocated in accept order and never reused, so a recorded
    /// id that is not the next accept index marks a corrupt recording.
    fn accept(&mut self) -> Result<Vec<ConnId>> {
        let opens = std::mem::take(&mut lock(&self.tape).opens);
        let mut ids = Vec::new();
        for conn in opens {
            if conn as usize != self.conns.allocated() {
                let e = format!("recorded connection {conn} opens out of accept order");
                return Err(AnorError::config(e));
            }
            ids.push(self.conns.insert(()));
        }
        Ok(ids)
    }

    fn poll_readable(&mut self) -> Vec<ConnId> {
        lock(&self.tape).reads.iter().map(|r| r.conn).collect()
    }

    /// Serves the front read: ingest reads each listed id once, in list
    /// order.
    fn read_frames(&mut self, _id: ConnId) -> Result<(Vec<Bytes>, bool)> {
        let mut tape = lock(&self.tape);
        let Some(read) = tape.reads.pop_front() else {
            return Ok((Vec::new(), false));
        };
        let frames = (0..read.frames).map(|_| tape.next_body()).collect();
        if read.broken {
            return Err(AnorError::protocol("recorded quarantine"));
        }
        Ok((frames, read.closed))
    }

    fn write_frame(&mut self, id: ConnId, frame: Bytes) -> Result<()> {
        lock(&self.tape).writes.push((id, frame));
        Ok(())
    }

    fn shutdown(&mut self, _id: ConnId) {}

    fn release(&mut self, id: ConnId) {
        self.conns.remove(id);
    }

    fn is_open(&self, id: ConnId) -> bool {
        self.conns.contains(id)
    }

    /// A recorded close is served with its read and released in the same
    /// ingest, so an open connection is a live one.
    fn is_live(&self, id: ConnId) -> bool {
        self.conns.contains(id)
    }

    fn open_conns(&self) -> usize {
        self.conns.open()
    }

    fn wait_readable(&self, _timeout: Duration) -> bool {
        false
    }

    /// An exhausted feed hands back `CauseId::NONE`.
    fn recorded_cause(&mut self) -> Option<u64> {
        Some(lock(&self.tape).causes.pop_front().unwrap_or(0))
    }

    fn into_listener(self: Box<Self>) -> Listener {
        Listener::in_process()
    }
}

/// Compare two recordings event-by-event (timestamps ignored) and report
/// the first divergence. Two same-seed runs of a deterministic harness
/// must diff clean; a chaos run diffed against a clean run pinpoints the
/// first pump the faults perturbed.
pub fn diff_recordings(a: &Recording, b: &Recording) -> RecordingDiff {
    let mut diff = RecordingDiff {
        events_a: a.events.len(),
        events_b: b.events.len(),
        ..RecordingDiff::default()
    };
    if a.header.seed != b.header.seed {
        diff.notes
            .push(format!("seed: {} vs {}", a.header.seed, b.header.seed));
    }
    if a.header.config != b.header.config {
        diff.notes.push(format!(
            "config: `{}` vs `{}`",
            a.header.config, b.header.config
        ));
    }
    if a.header.build_version != b.header.build_version || a.header.git_hash != b.header.git_hash {
        diff.notes.push(format!(
            "build: {} ({}) vs {} ({})",
            a.header.build_version, a.header.git_hash, b.header.build_version, b.header.git_hash
        ));
    }
    let mut pump = 0u64;
    let n = a.events.len().max(b.events.len());
    for i in 0..n {
        match (a.events.get(i), b.events.get(i)) {
            (Some(ea), Some(eb)) => {
                if let RecEvent::PumpStart { pump: p, .. } = ea.event {
                    pump = p;
                }
                if ea.event != eb.event {
                    diff.first_divergence = Some(Divergence {
                        pump,
                        index: i,
                        expected: describe_event(&ea.event),
                        actual: describe_event(&eb.event),
                    });
                    break;
                }
            }
            (Some(ea), None) => {
                diff.first_divergence = Some(Divergence {
                    pump,
                    index: i,
                    expected: describe_event(&ea.event),
                    actual: "<end of recording>".to_string(),
                });
                break;
            }
            (None, Some(eb)) => {
                diff.first_divergence = Some(Divergence {
                    pump,
                    index: i,
                    expected: "<end of recording>".to_string(),
                    actual: describe_event(&eb.event),
                });
                break;
            }
            (None, None) => break,
        }
    }
    diff
}

/// Human-readable one-liner for a decision frame as handed to the
/// transport, length prefix included: the decoded message when the codec
/// accepts it, byte count either way.
fn describe_frame(conn: u32, frame: &[u8]) -> String {
    let body = take_frame(&mut BytesMut::from(frame)).ok().flatten();
    match body.map(ClusterToJob::decode) {
        Some(Ok(msg)) => format!("conn {conn}, {} byte(s): {msg:?}", frame.len()),
        _ => format!(
            "conn {conn}, {} byte(s): <undecodable> {}",
            frame.len(),
            hex_prefix(frame)
        ),
    }
}

/// Human-readable one-liner for a recorded event.
fn describe_event(ev: &RecEvent) -> String {
    match ev {
        RecEvent::PumpStart { pump, budget } => format!("PumpStart pump={pump} budget={budget}"),
        RecEvent::FrameIn { conn, body } => format!(
            "FrameIn conn={conn} {} byte(s) {}",
            body.len(),
            hex_prefix(body)
        ),
        RecEvent::ConnOpen { conn } => format!("ConnOpen conn={conn}"),
        RecEvent::ConnClosed { conn } => format!("ConnClosed conn={conn}"),
        RecEvent::ConnQuarantined { conn } => format!("ConnQuarantined conn={conn}"),
        RecEvent::DecisionTx { conn, frame } => {
            format!("DecisionTx {}", describe_frame(*conn, frame))
        }
        RecEvent::LeaseExpired { job, watts } => format!("LeaseExpired job={job} watts={watts}"),
        RecEvent::LeaseRestored { job, watts } => {
            format!("LeaseRestored job={job} watts={watts}")
        }
        RecEvent::CauseMinted { cause } => format!("CauseMinted cause={cause}"),
    }
}

fn hex_prefix(body: &[u8]) -> String {
    let mut s = String::with_capacity(2 * body.len().min(12) + 1);
    for b in body.iter().take(12) {
        let _ = std::fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
    }
    if body.len() > 12 {
        s.push('…');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::StreamOptions;
    use crate::transport::Addr;
    use anor_telemetry::{read_recording, FlightRecorder, RecordingHeader};
    use anor_types::msg::JobToCluster;
    use anor_types::JobId;
    use std::path::PathBuf;

    #[test]
    fn config_string_round_trips() {
        let mut cfg = BudgeterConfig::new(BudgetPolicy::EvenPower, true);
        cfg.recap_threshold = Watts(2.5);
        let lease = LeaseConfig::after_misses(17);
        let s = describe_config(&cfg, &lease);
        let (cfg2, lease2) = parse_config(&s).unwrap();
        assert_eq!(cfg2.policy, BudgetPolicy::EvenPower);
        assert!(cfg2.feedback);
        assert_eq!(cfg2.recap_threshold, Watts(2.5));
        assert_eq!(lease2, lease);
        // Unknown keys are tolerated, malformed known keys are not.
        assert!(parse_config(&format!("{s} future_knob=7")).is_some());
        assert!(parse_config("policy=quantum").is_none());
        assert!(parse_config("feedback=sometimes").is_none());
    }

    #[test]
    fn config_string_is_pinned_and_refuses_removed_behaviour() {
        // Recording headers digest this string, so it must not move.
        let s = describe_config(
            &BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true),
            &LeaseConfig::default(),
        );
        assert_eq!(
            s,
            "policy=even-slowdown feedback=true unknown_default=least-sensitive \
             recap_threshold=1 catalog=standard lease=on miss_pumps=200"
        );
        // The daemon always holds leases and always assumes the least
        // sensitive type, so a header asking otherwise cannot replay.
        assert!(parse_config(&s.replace("lease=on", "lease=off")).is_none());
        assert!(parse_config(&s.replace("least-sensitive", "most-sensitive")).is_none());
    }

    fn genesis_header(role: &str, segment: u32) -> RecordingHeader {
        let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
        let config = describe_config(&cfg, &LeaseConfig::default());
        RecordingHeader {
            version: 1,
            seed: 7,
            config_digest: anor_telemetry::config_digest(&config),
            segment,
            build_version: "test".to_string(),
            git_hash: "unknown".to_string(),
            config,
            role: role.to_string(),
        }
    }

    #[test]
    fn replay_refuses_endpoint_and_rotated_recordings() {
        let empty = |header| Recording {
            header,
            events: Vec::new(),
            unknown_skipped: 0,
        };
        let opts = ReplayOptions::default();
        assert!(replay(&empty(genesis_header("endpoint", 0)), &opts).is_err());
        assert!(replay(&empty(genesis_header("budgeter", 3)), &opts).is_err());
        assert!(replay(&empty(genesis_header("budgeter", 0)), &opts).is_ok());
    }

    #[test]
    fn recorded_live_session_replays_byte_identically() {
        let dir = std::env::temp_dir().join(format!("anor-replay-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.rec");

        let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
        let lease = LeaseConfig::after_misses(3);
        let recorder = FlightRecorder::create(&path, recorder_meta(&cfg, &lease, 42)).unwrap();
        let (mut b, addr) = ClusterBudgeter::builder(cfg)
            .lease(lease)
            .listener(Listener::in_process())
            .recorder(recorder.clone())
            .bind()
            .unwrap();
        let mut client = addr.dial(StreamOptions::default()).unwrap();
        client
            .send(
                JobToCluster::Hello {
                    job: JobId(1),
                    type_name: "bt.D.81".into(),
                    nodes: 2,
                }
                .encode(),
            )
            .unwrap();
        // The in-process link delivers the Hello to the very next pump.
        b.pump(Watts(400.0)).unwrap();
        assert!(b.job_caps().iter().any(|(_, c)| c.is_some()));
        // Drop the client mid-run so the recording carries a disconnect
        // and a full lease expiry as well.
        drop(client);
        for _ in 0..20 {
            b.pump(Watts(400.0)).unwrap();
        }
        recorder.flush().unwrap();
        let live_pumps = b.pump_count();
        drop(b);

        let rec = read_recording(&path).unwrap();
        let out = replay(
            &rec,
            &ReplayOptions {
                verify: true,
                until: None,
            },
        )
        .unwrap();
        assert_eq!(out.first_divergence, None);
        assert_eq!(out.pumps_replayed, live_pumps);
        assert!(out.decisions_checked >= 1, "{out:?}");
        assert_eq!(out.invariant_violations, 0);
        assert_eq!(out.snapshot.pumps, live_pumps);

        // --until stops early and snapshots that pump.
        let early = replay(
            &rec,
            &ReplayOptions {
                verify: true,
                until: Some(3),
            },
        )
        .unwrap();
        assert_eq!(early.snapshot.pumps, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diff_reports_first_divergence_and_clean_match() {
        let ev = |event| RecordedEvent { ts_nanos: 0, event };
        let a = Recording {
            header: genesis_header("budgeter", 0),
            events: vec![
                ev(RecEvent::PumpStart {
                    pump: 1,
                    budget: 100.0,
                }),
                ev(RecEvent::ConnOpen { conn: 0 }),
                ev(RecEvent::CauseMinted { cause: 4 }),
            ],
            unknown_skipped: 0,
        };
        // Identical streams (differing timestamps) diff clean.
        let mut same = a.clone();
        for e in &mut same.events {
            e.ts_nanos += 1_000;
        }
        assert_eq!(diff_recordings(&a, &same).first_divergence, None);
        // A perturbed event is pinned to its index and pump.
        let mut b = a.clone();
        b.events[1] = ev(RecEvent::ConnOpen { conn: 9 });
        let d = diff_recordings(&a, &b);
        let div = d.first_divergence.unwrap();
        assert_eq!(div.index, 1);
        assert_eq!(div.pump, 1);
        assert!(div.expected.contains("conn=0"), "{div:?}");
        assert!(div.actual.contains("conn=9"), "{div:?}");
        // A truncated stream diverges at the missing tail.
        let mut short = a.clone();
        short.events.pop();
        let d = diff_recordings(&a, &short);
        assert_eq!(d.first_divergence.unwrap().index, 2);
        assert_eq!(d.events_a, 3);
        assert_eq!(d.events_b, 2);
    }

    /// A budgeter flight-recording into `<tmp>/<name>.rec`, on the default
    /// blocking plane over in-process links.
    fn recorded_budgeter(
        name: &str,
        lease: LeaseConfig,
    ) -> (ClusterBudgeter, Addr, FlightRecorder, PathBuf) {
        let path = std::env::temp_dir().join(format!("anor-{name}-{}.rec", std::process::id()));
        let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
        let recorder = FlightRecorder::create(&path, recorder_meta(&cfg, &lease, 42)).unwrap();
        let (b, addr) = ClusterBudgeter::builder(cfg)
            .lease(lease)
            .listener(Listener::in_process())
            .recorder(recorder.clone())
            .bind()
            .unwrap();
        (b, addr, recorder, path)
    }

    fn hello(job: u64) -> Bytes {
        JobToCluster::Hello {
            job: JobId(job),
            type_name: "bt.D.81".into(),
            nodes: 2,
        }
        .encode()
    }

    fn verify() -> ReplayOptions {
        ReplayOptions {
            verify: true,
            until: None,
        }
    }

    fn synthetic(events: Vec<RecEvent>) -> Recording {
        Recording {
            header: genesis_header("budgeter", 0),
            events: events
                .into_iter()
                .map(|event| RecordedEvent { ts_nanos: 0, event })
                .collect(),
            unknown_skipped: 0,
        }
    }

    #[test]
    fn conn_open_at_u32_max_is_refused() {
        // Ids are checked against the next accept index, never used to
        // size a table: this recording once asked for 4 GiB.
        let rec = synthetic(vec![
            RecEvent::PumpStart {
                pump: 1,
                budget: 400.0,
            },
            RecEvent::ConnOpen { conn: u32::MAX },
        ]);
        assert!(replay(&rec, &ReplayOptions::default()).is_err());
    }

    #[test]
    fn conn_one_opening_before_conn_zero_is_refused() {
        let rec = synthetic(vec![
            RecEvent::PumpStart {
                pump: 1,
                budget: 400.0,
            },
            RecEvent::ConnOpen { conn: 1 },
            RecEvent::ConnOpen { conn: 0 },
        ]);
        assert!(replay(&rec, &ReplayOptions::default()).is_err());
    }

    #[test]
    fn the_recorded_plane_serves_reads_in_recorded_order() {
        let events = [
            RecEvent::FrameIn {
                conn: 2,
                body: vec![1],
            },
            RecEvent::FrameIn {
                conn: 2,
                body: vec![2],
            },
            RecEvent::ConnClosed { conn: 2 },
            RecEvent::FrameIn {
                conn: 2,
                body: vec![4],
            },
            RecEvent::FrameIn {
                conn: 0,
                body: vec![3],
            },
            RecEvent::ConnQuarantined { conn: 0 },
            RecEvent::ConnClosed { conn: 0 },
            RecEvent::ConnQuarantined { conn: 1 },
            RecEvent::ConnClosed { conn: 1 },
        ]
        .map(|event| RecordedEvent { ts_nanos: 0, event });
        let mut plane = RecordedPlane::default();
        lock(&plane.tape).stage(&events, &mut Vec::new());
        assert_eq!(plane.poll_readable(), [2, 2, 0, 1].map(ConnId::new));
        let (frames, closed) = plane.read_frames(ConnId::new(2)).unwrap();
        assert_eq!(frames, [Bytes::from(vec![1]), Bytes::from(vec![2])]);
        assert!(closed);
        // A close ends a read: a later frame is served after it.
        let (frames, closed) = plane.read_frames(ConnId::new(2)).unwrap();
        assert_eq!(frames, [Bytes::from(vec![4])]);
        assert!(!closed);
        // A quarantine after a frame is that frame's: decoding re-trips it.
        let (frames, closed) = plane.read_frames(ConnId::new(0)).unwrap();
        assert_eq!(frames, [Bytes::from(vec![3])]);
        assert!(closed);
        // One with no frame before it is a rejected length prefix.
        let broken = plane.read_frames(ConnId::new(1));
        assert!(matches!(broken, Err(AnorError::Protocol(_))), "{broken:?}");
    }

    #[test]
    fn a_tampered_cap_is_reported_decoded_on_both_sides() {
        let (mut b, addr, recorder, path) =
            recorded_budgeter("replay-tampered", LeaseConfig::default());
        let mut client = addr.dial(StreamOptions::default()).unwrap();
        client.send(hello(1)).unwrap();
        for _ in 0..3 {
            b.pump(Watts(400.0)).unwrap();
        }
        recorder.flush().unwrap();
        let mut rec = read_recording(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let frame = rec
            .events
            .iter_mut()
            .find_map(|e| match &mut e.event {
                RecEvent::DecisionTx { frame, .. } => Some(frame),
                _ => None,
            })
            .unwrap();
        // Length prefix, tag 4, then the cap's big-endian bits: flip the
        // lowest, past the 12 bytes the undecodable fallback prints.
        assert_eq!(frame.get(4), Some(&4), "a SetPowerCap frame");
        frame[12] ^= 1;
        let div = replay(&rec, &verify()).unwrap().first_divergence.unwrap();
        assert!(div.expected.contains("SetPowerCap"), "{div:?}");
        assert!(div.actual.contains("SetPowerCap"), "{div:?}");
        assert_ne!(div.expected, div.actual);
    }

    #[test]
    fn quarantines_a_lease_expiry_and_a_resume_replay_like_the_live_run() {
        let (mut b, addr, recorder, path) =
            recorded_budgeter("replay-three-peers", LeaseConfig::after_misses(3));
        let dial = || addr.dial(StreamOptions::default()).unwrap();
        let (mut malformed, mut oversized, mut leaver) = (dial(), dial(), dial());
        malformed.send(hello(1)).unwrap();
        oversized.send(hello(2)).unwrap();
        leaver.send(hello(3)).unwrap();
        for _ in 0..2 {
            b.pump(Watts(1200.0)).unwrap();
        }
        // A framed body with no valid tag fails decode; a length prefix
        // past `MAX_FRAME_LEN` fails below it; the leaver just goes.
        malformed
            .send(Bytes::from(vec![0, 0, 0, 3, 0xde, 0xad, 0xbe]))
            .unwrap();
        oversized.send(Bytes::from(vec![0xff; 4])).unwrap();
        drop(leaver);
        for _ in 0..6 {
            b.pump(Watts(1200.0)).unwrap();
        }
        let mut resumed = dial();
        resumed
            .send(
                JobToCluster::Resume {
                    job: JobId(3),
                    type_name: "bt.D.81".into(),
                    nodes: 2,
                    believed_cap: Watts(200.0),
                    cause: 9,
                }
                .encode(),
            )
            .unwrap();
        for _ in 0..3 {
            b.pump(Watts(1200.0)).unwrap();
        }
        recorder.flush().unwrap();
        let live = b.status_snapshot();
        let rec = read_recording(&path).unwrap();
        std::fs::remove_file(&path).unwrap();

        let count =
            |want: &dyn Fn(&RecEvent) -> bool| rec.events.iter().filter(|e| want(&e.event)).count();
        assert_eq!(count(&|e| matches!(e, RecEvent::ConnQuarantined { .. })), 2);
        // Conn 0's malformed body was recorded; conn 1's prefix never
        // reached decode, so only its Hello was.
        assert_eq!(
            count(&|e| matches!(e, RecEvent::FrameIn { conn: 0, .. })),
            2
        );
        assert_eq!(
            count(&|e| matches!(e, RecEvent::FrameIn { conn: 1, .. })),
            1
        );
        assert_eq!(
            count(&|e| matches!(e, RecEvent::LeaseExpired { job: 3, .. })),
            1
        );
        let resume_ack = |e: &RecEvent| matches!(e, RecEvent::DecisionTx { conn: 3, frame } if frame.get(4) == Some(&5));
        assert_eq!(count(&resume_ack), 1);

        let out = replay(&rec, &verify()).unwrap();
        assert_eq!(out.first_divergence, None);
        assert_eq!(out.invariant_violations, 0);
        let replayed = out.snapshot;
        assert!(live.reclaimed_watts > 0.0, "leases expired live");
        assert_eq!(replayed.pumps, live.pumps);
        assert_eq!(replayed.jobs, live.jobs);
        assert_eq!(replayed.accepted, live.accepted);
        assert_eq!(replayed.conns_open, live.conns_open);
        assert_eq!(replayed.allocated_watts, live.allocated_watts);
        assert_eq!(replayed.reclaimed_watts, live.reclaimed_watts);
    }
}
