//! Live-ops-plane acceptance tests: the continuous invariant auditor
//! stays silent across a seeded chaos run with a full lease
//! expiry/resume cycle, provably fires (with a postmortem dump) on
//! injected accounting corruption, and the introspection endpoint serves
//! `/health`, `/metrics` and `/status` off a live budgeter.

use anor_cluster::budgeter::{BudgeterConfig, ClusterBudgeter};
use anor_cluster::status::{parse_json, Json};
use anor_cluster::{
    BudgetPolicy, EmulatedCluster, EmulatorConfig, FaultPlan, JobSetup, LeaseConfig, RetryPolicy,
    SessionState, StatusBoard, StreamOptions,
};
use anor_telemetry::ops::{http_get, OpsServer, StatusProvider};
use anor_telemetry::{Telemetry, Tracer};
use anor_types::msg::JobToCluster;
use anor_types::{JobId, Seconds, Watts};
use std::sync::Arc;
use std::time::Duration;

const INVARIANTS: [&str; 4] = [
    "watts_conservation",
    "lease_double_count",
    "reclaim_gauge_drift",
    "stale_session",
];

fn violation_counts(telemetry: &Telemetry) -> Vec<(&'static str, u64)> {
    INVARIANTS
        .iter()
        .map(|inv| {
            (
                *inv,
                telemetry
                    .counter("anor_invariant_violations_total", &[("invariant", inv)])
                    .get(),
            )
        })
        .collect()
}

/// The ISSUE acceptance scenario, emulator form: a seeded
/// `drop@17,corrupt@42` chaos plan forces disconnects and corrupted
/// frames mid-run; both jobs still finish, sessions resume, and the
/// continuous auditor reports **zero** violations of any invariant.
#[test]
fn chaos_run_with_resume_has_zero_invariant_violations() {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::parse("drop@17,corrupt@42")
        .unwrap()
        .seeded(0xA11D);
    let mut cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true)
        .with_telemetry(telemetry.clone())
        .with_faults(plan)
        .with_lease(LeaseConfig::after_misses(50))
        .with_retry(RetryPolicy {
            base_delay: Seconds(0.5),
            jitter: 0.0,
            ..RetryPolicy::default()
        });
    cfg.seed = 11;
    let report = EmulatedCluster::new(cfg)
        .run_static(
            &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
            Watts(840.0),
        )
        .expect("chaos run must complete");
    assert_eq!(report.jobs.len(), 2, "both jobs must finish under chaos");
    let reconnects = telemetry
        .counter("endpoint_session_reconnects_total", &[])
        .get();
    assert!(reconnects >= 1, "drop@17 must force a reconnect");
    for (invariant, count) in violation_counts(&telemetry) {
        assert_eq!(count, 0, "invariant `{invariant}` violated {count}x");
    }
}

/// Direct budgeter form of the lease cycle: a connection dies, its lease
/// expires (watts reclaimed), the job resumes (watts restored) — and the
/// auditor, running every pump throughout, never fires. The status board
/// tracks the cycle: the job's row goes `connected` → `gone` (with
/// reclaimed watts on record) → `connected`.
#[test]
fn lease_expiry_and_resume_stay_audit_clean() {
    let telemetry = Telemetry::new();
    let board = StatusBoard::new();
    let (mut b, addr) = ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
        .telemetry(telemetry.clone())
        .lease(LeaseConfig::after_misses(8))
        .status(board.clone())
        .bind()
        .unwrap();
    let budget = Watts(540.0);
    let pump_until = |b: &mut ClusterBudgeter, done: &mut dyn FnMut(&ClusterBudgeter) -> bool| {
        for _ in 0..1000 {
            b.pump(budget).unwrap();
            if done(b) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("pump_until timed out");
    };
    let connect = || addr.dial(StreamOptions::default()).unwrap();
    let hello = |job: u64, nodes: u32| {
        JobToCluster::Hello {
            job: JobId(job),
            type_name: "cg.D.32".into(),
            nodes,
        }
        .encode()
    };
    let job_row = |job: u64| -> Json {
        let v = parse_json(&board.render_json()).unwrap();
        v.get("jobs")
            .and_then(Json::as_array)
            .and_then(|jobs| {
                jobs.iter()
                    .find(|j| j.get("job").and_then(Json::as_u64) == Some(job))
            })
            .cloned()
            .expect("job row on the board")
    };

    let mut c1 = connect();
    let mut c2 = connect();
    c1.send(hello(1, 1)).unwrap();
    c2.send(hello(2, 2)).unwrap();
    pump_until(&mut b, &mut |b| {
        b.active_jobs() == 2 && b.job_caps().iter().all(|(_, c)| c.is_some())
    });
    assert_eq!(
        job_row(1).get("state").and_then(Json::as_str),
        Some("connected")
    );

    // Outage: job 1's endpoint dies and its lease runs out.
    drop(c1);
    pump_until(&mut b, &mut |b| {
        b.job_session(JobId(1)) == Some(SessionState::Gone)
    });
    let row = job_row(1);
    assert_eq!(row.get("state").and_then(Json::as_str), Some("gone"));
    assert!(
        row.get("reclaimed").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
        "board must show the reclaimed watts"
    );
    let v = parse_json(&board.render_json()).unwrap();
    assert!(
        v.get("reclaimed_watts")
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
            > 0.0
    );

    // Resume: the watts are restored and redistribution converges again.
    let mut c1b = connect();
    c1b.send(
        JobToCluster::Resume {
            job: JobId(1),
            type_name: "cg.D.32".into(),
            nodes: 1,
            believed_cap: Watts(180.0),
            cause: 9,
        }
        .encode(),
    )
    .unwrap();
    pump_until(&mut b, &mut |b| {
        b.job_session(JobId(1)) == Some(SessionState::Connected)
    });
    assert_eq!(
        job_row(1).get("state").and_then(Json::as_str),
        Some("connected")
    );
    assert_eq!(b.reclaimed_watts(), Watts::ZERO);

    // The whole cycle ran with the auditor active on every pump.
    assert!(b.pump_count() > 0);
    assert_eq!(b.invariant_violations(), 0);
    for (invariant, count) in violation_counts(&telemetry) {
        assert_eq!(count, 0, "invariant `{invariant}` violated {count}x");
    }
    let v = parse_json(&board.render_json()).unwrap();
    assert_eq!(
        v.get("invariant_violations").and_then(Json::as_u64),
        Some(0)
    );
    assert_eq!(v.get("budget").and_then(Json::as_f64), Some(540.0));
}

/// Injected corruption must trip the auditor: skewing a connected job's
/// accounting (phantom reclaimed watts + inflated cap) fires the
/// double-count, gauge-drift and conservation tripwires, emits the
/// violation counter, and dumps a postmortem to disk.
#[test]
fn injected_corruption_fires_the_auditor_and_dumps_postmortem() {
    let dir = std::env::temp_dir().join(format!("anor-audit-postmortem-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let telemetry = Telemetry::new();
    let tracer = Tracer::to_dir(&dir).unwrap();
    let (mut b, addr) = ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
        .telemetry(telemetry.clone())
        .tracer(&tracer)
        .bind()
        .unwrap();
    let mut client = addr.dial(StreamOptions::default()).unwrap();
    client
        .send(
            JobToCluster::Hello {
                job: JobId(1),
                type_name: "cg.D.32".into(),
                nodes: 2,
            }
            .encode(),
        )
        .unwrap();
    for _ in 0..1000 {
        b.pump(Watts(400.0)).unwrap();
        if b.job_caps().iter().any(|(_, c)| c.is_some()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(b.invariant_violations(), 0, "clean before corruption");
    let dumps_before = tracer.postmortems();

    b.corrupt_for_audit(JobId(1), Watts(500.0));
    // Present the corrupted state to the auditor directly: a full pump's
    // redistribute would repair the inflated cap before the audit (which
    // is itself conservation working), hiding the conservation tripwire.
    b.audit_now(Watts(400.0));

    assert!(
        b.invariant_violations() >= 3,
        "double-count, gauge-drift and conservation must all fire: {}",
        b.invariant_violations()
    );
    let counts = violation_counts(&telemetry);
    let get = |inv: &str| {
        counts
            .iter()
            .find(|(i, _)| *i == inv)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert!(get("lease_double_count") >= 1);
    assert!(get("reclaim_gauge_drift") >= 1);
    assert!(get("watts_conservation") >= 1);
    assert!(
        tracer.postmortems() > dumps_before,
        "a violation must dump a postmortem"
    );
    // A full pump with the same persistent corruption: the phantom
    // reclaim keeps firing (and keeps counting), but redistribute repairs
    // the inflated cap so conservation self-heals — and no invariant
    // dumps a second postmortem (one per kind).
    let dumps_after_first = tracer.postmortems();
    let conservation_after_first = get("watts_conservation");
    let violations_after_first = b.invariant_violations();
    b.pump(Watts(400.0)).unwrap();
    assert!(b.invariant_violations() > violations_after_first);
    let counts = violation_counts(&telemetry);
    let get = |inv: &str| {
        counts
            .iter()
            .find(|(i, _)| *i == inv)
            .map(|(_, c)| *c)
            .unwrap_or(0)
    };
    assert_eq!(
        get("watts_conservation"),
        conservation_after_first,
        "redistribute must repair the inflated cap"
    );
    assert_eq!(tracer.postmortems(), dumps_after_first);

    tracer.flush().unwrap();
    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy().to_string();
            name.starts_with("postmortem-") && name.contains("invariant")
        })
        .collect();
    assert!(!dumps.is_empty(), "no invariant postmortem file on disk");
    let body = std::fs::read_to_string(dumps[0].path()).unwrap();
    assert!(
        body.contains("invariant_violation"),
        "postmortem must carry the violation event"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// End-to-end introspection: a live budgeter publishing to a board that
/// an [`OpsServer`] serves. `/health` answers, `/metrics` carries the
/// budgeter's own series, `/status` is the board's JSON.
#[test]
fn ops_endpoint_serves_live_budgeter_state() {
    let telemetry = Telemetry::new();
    let board = StatusBoard::new();
    let provider: StatusProvider = {
        let board = board.clone();
        Arc::new(move || board.render_json())
    };
    let server = OpsServer::bind("127.0.0.1:0", telemetry.clone(), provider).unwrap();
    let ops_addr = server.local_addr().to_string();
    let (mut b, addr) = ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
        .telemetry(telemetry.clone())
        .status(board)
        .bind()
        .unwrap();
    let mut client = addr.dial(StreamOptions::default()).unwrap();
    client
        .send(
            JobToCluster::Hello {
                job: JobId(7),
                type_name: "bt.D.81".into(),
                nodes: 2,
            }
            .encode(),
        )
        .unwrap();
    for _ in 0..1000 {
        b.pump(Watts(400.0)).unwrap();
        if b.job_caps().iter().any(|(_, c)| c.is_some()) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let timeout = Duration::from_secs(2);
    let (code, body) = http_get(&ops_addr, "/health", timeout).unwrap();
    assert_eq!((code, body.as_str()), (200, "ok\n"));

    let (code, body) = http_get(&ops_addr, "/metrics", timeout).unwrap();
    assert_eq!(code, 200);
    assert!(
        body.contains("# TYPE budgeter_pump_seconds histogram"),
        "{body}"
    );
    assert!(body.contains("budgeter_active_jobs 1"), "{body}");

    let (code, body) = http_get(&ops_addr, "/status", timeout).unwrap();
    assert_eq!(code, 200);
    let v = parse_json(&body).unwrap();
    assert!(v.get("pumps").and_then(Json::as_u64).unwrap_or(0) > 0);
    assert_eq!(v.get("active_jobs").and_then(Json::as_u64), Some(1));
    assert_eq!(
        v.get("invariant_violations").and_then(Json::as_u64),
        Some(0)
    );
    let jobs = v.get("jobs").and_then(Json::as_array).unwrap();
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].get("job").and_then(Json::as_u64), Some(7));
    assert_eq!(
        jobs[0].get("state").and_then(Json::as_str),
        Some("connected")
    );
    assert!(jobs[0].get("cap").and_then(Json::as_f64).unwrap_or(0.0) > 0.0);
}
