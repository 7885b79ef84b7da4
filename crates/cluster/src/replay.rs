//! Offline replay of budgeter flight recordings.
//!
//! A recording (see `anor_telemetry::recorder`) captures everything the
//! budgeter saw — inbound wire frames, connection and lease transitions,
//! pump triggers, minted decision cause ids — plus everything it emitted.
//! [`replay`] reconstructs a [`ClusterBudgeter`] from the recorded
//! header's config string and drives it through the *real* decode,
//! session and budget code paths, with recorded events standing in for
//! the links and the recorded timestamps standing in for the wall clock
//! (no sleeps: virtual time only orders events, it never waits). The
//! replayed budgeter sits on an in-process listener, so a replay binds
//! no port.
//!
//! In `--verify` mode every re-emitted decision frame is compared
//! byte-for-byte against the recorded one — the same guarantee as the
//! golden decision-stream tests, but against a production artifact.
//! [`diff_recordings`] compares two recordings (timestamps ignored) and
//! reports the first divergence, which is how a chaos run is triaged
//! against a clean same-seed run.

use crate::budgeter::{BudgetPolicy, BudgeterConfig, ClusterBudgeter, LeaseConfig, UnknownDefault};
use crate::status::StatusSnapshot;
use crate::transport::Listener;
use anor_telemetry::{RecEvent, Recording, RecordingMeta};
use anor_types::msg::ClusterToJob;
use anor_types::{AnorError, Result, Watts};

/// Render a budgeter configuration as the canonical `key=value` string
/// stored in a recording header. [`parse_config`] inverts it; the pair
/// is what makes a recording self-describing.
pub fn describe_config(cfg: &BudgeterConfig, lease: &LeaseConfig) -> String {
    let unknown = match cfg.unknown_default {
        UnknownDefault::LeastSensitive => "least-sensitive",
        UnknownDefault::MostSensitive => "most-sensitive",
    };
    format!(
        "policy={} feedback={} unknown_default={} recap_threshold={} catalog=standard \
         lease={} miss_pumps={}",
        cfg.policy.name(),
        cfg.feedback,
        unknown,
        cfg.recap_threshold.value(),
        if lease.enabled { "on" } else { "off" },
        lease.miss_pumps,
    )
}

/// Parse a [`describe_config`] string back into a budgeter + lease
/// configuration (over the standard catalog). Unknown keys are ignored
/// for forward compatibility; a malformed known key returns `None`.
pub fn parse_config(s: &str) -> Option<(BudgeterConfig, LeaseConfig)> {
    let mut cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
    let mut lease = LeaseConfig::default();
    for tok in s.split_whitespace() {
        let (key, value) = tok.split_once('=')?;
        match key {
            "policy" => cfg.policy = value.parse().ok()?,
            "feedback" => cfg.feedback = value.parse().ok()?,
            "unknown_default" => {
                cfg.unknown_default = match value {
                    "least-sensitive" => UnknownDefault::LeastSensitive,
                    "most-sensitive" => UnknownDefault::MostSensitive,
                    _ => return None,
                };
            }
            "recap_threshold" => cfg.recap_threshold = Watts(value.parse().ok()?),
            "catalog" if value != "standard" => return None,
            "catalog" => {}
            "lease" => {
                lease.enabled = match value {
                    "on" => true,
                    "off" => false,
                    _ => return None,
                };
            }
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
    let (mut budgeter, _addr) = ClusterBudgeter::builder(cfg)
        .lease(lease)
        .listener(Listener::in_process())
        .bind()?;
    budgeter.replay_begin();

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
    // Events between two PumpStarts belong to the *first* of them (the
    // pump was running when they were recorded), so each pump executes
    // when its successor begins — by then all of its injections have
    // been applied, exactly as live ingest had before lease/decide.
    let mut pending: Option<(u64, f64)> = None;
    let mut expected: Vec<(u32, Vec<u8>)> = Vec::new();
    let mut stopped = false;
    for ev in &rec.events {
        match &ev.event {
            RecEvent::PumpStart { pump, budget } => {
                if let Some((p, bud)) = pending.take() {
                    run_pump(&mut budgeter, p, bud, &mut expected, opts, &mut outcome)?;
                    if outcome.first_divergence.is_some() || opts.until.is_some_and(|u| p >= u) {
                        stopped = true;
                    }
                }
                if stopped {
                    break;
                }
                pending = Some((*pump, *budget));
            }
            RecEvent::ConnOpen { conn } => budgeter.replay_conn_open(*conn as usize),
            RecEvent::ConnClosed { conn } => budgeter.replay_conn_closed(*conn as usize),
            RecEvent::ConnQuarantined { conn } => {
                budgeter.replay_conn_quarantined(*conn as usize);
            }
            RecEvent::FrameIn { conn, body } => {
                let _poisoned =
                    budgeter.replay_inject(*conn as usize, bytes::Bytes::from(body.clone()))?;
                // The recording carries the resulting quarantine/close as
                // their own events; nothing more to do here.
            }
            RecEvent::DecisionTx { conn, frame } => expected.push((*conn, frame.clone())),
            RecEvent::CauseMinted { cause } => budgeter.replay_feed_cause(*cause),
            RecEvent::LeaseExpired { .. } | RecEvent::LeaseRestored { .. } => {
                // Informational: replayed tick_leases re-derives both.
            }
        }
    }
    if let Some((p, bud)) = pending.take() {
        if !stopped {
            run_pump(&mut budgeter, p, bud, &mut expected, opts, &mut outcome)?;
        }
    }
    outcome.invariant_violations = budgeter.invariant_violations();
    outcome.snapshot = budgeter.status_snapshot();
    Ok(outcome)
}

/// Execute one replayed pump and (in verify mode) compare its captured
/// decision frames against the recorded ones, in emission order.
fn run_pump(
    budgeter: &mut ClusterBudgeter,
    pump_no: u64,
    budget: f64,
    expected: &mut Vec<(u32, Vec<u8>)>,
    opts: &ReplayOptions,
    outcome: &mut ReplayOutcome,
) -> Result<()> {
    budgeter.pump(Watts(budget))?;
    outcome.pumps_replayed += 1;
    let actual = budgeter.replay_take_out();
    if !opts.verify {
        outcome.decisions_checked += actual.len() as u64;
        expected.clear();
        return Ok(());
    }
    if budgeter.pump_count() != pump_no && outcome.first_divergence.is_none() {
        outcome.first_divergence = Some(Divergence {
            pump: pump_no,
            index: 0,
            expected: format!("pump counter {pump_no}"),
            actual: format!(
                "pump counter {} (recording did not start at pump 1?)",
                budgeter.pump_count()
            ),
        });
    }
    let n = expected.len().max(actual.len());
    for i in 0..n {
        if outcome.first_divergence.is_some() {
            break;
        }
        match (expected.get(i), actual.get(i)) {
            (Some((ec, ef)), Some((ac, af))) => {
                if *ec as usize != *ac || ef.as_slice() != af.as_ref() {
                    outcome.first_divergence = Some(Divergence {
                        pump: pump_no,
                        index: i,
                        expected: describe_frame(*ec, ef),
                        actual: describe_frame(*ac as u32, af),
                    });
                } else {
                    outcome.decisions_checked += 1;
                }
            }
            (Some((ec, ef)), None) => {
                outcome.first_divergence = Some(Divergence {
                    pump: pump_no,
                    index: i,
                    expected: describe_frame(*ec, ef),
                    actual: "<no frame emitted>".to_string(),
                });
            }
            (None, Some((ac, af))) => {
                outcome.first_divergence = Some(Divergence {
                    pump: pump_no,
                    index: i,
                    expected: "<no frame recorded>".to_string(),
                    actual: describe_frame(*ac as u32, af),
                });
            }
            (None, None) => break,
        }
    }
    expected.clear();
    Ok(())
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

/// Human-readable one-liner for an outbound frame body: decoded message
/// when the codec accepts it, byte count either way.
fn describe_frame(conn: u32, body: &[u8]) -> String {
    match ClusterToJob::decode(bytes::Bytes::copy_from_slice(body)) {
        Ok(msg) => format!("conn {conn}, {} byte(s): {msg:?}", body.len()),
        Err(_) => format!(
            "conn {conn}, {} byte(s): <undecodable> {}",
            body.len(),
            hex_prefix(body)
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
    use anor_telemetry::{read_recording, FlightRecorder, RecordedEvent, RecordingHeader};
    use anor_types::msg::JobToCluster;
    use anor_types::JobId;

    #[test]
    fn config_string_round_trips() {
        let mut cfg = BudgeterConfig::new(BudgetPolicy::EvenPower, true);
        cfg.unknown_default = UnknownDefault::MostSensitive;
        cfg.recap_threshold = Watts(2.5);
        let lease = LeaseConfig::after_misses(17);
        let s = describe_config(&cfg, &lease);
        let (cfg2, lease2) = parse_config(&s).unwrap();
        assert_eq!(cfg2.policy, BudgetPolicy::EvenPower);
        assert!(cfg2.feedback);
        assert_eq!(cfg2.unknown_default, UnknownDefault::MostSensitive);
        assert_eq!(cfg2.recap_threshold, Watts(2.5));
        assert_eq!(lease2, lease);
        // Unknown keys are tolerated, malformed known keys are not.
        assert!(parse_config(&format!("{s} future_knob=7")).is_some());
        assert!(parse_config("policy=quantum").is_none());
        assert!(parse_config("feedback=sometimes").is_none());
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
}
