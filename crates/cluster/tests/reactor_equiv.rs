//! Reactor/blocking equivalence tests: the sharded reactor must emit a
//! byte-identical decision stream to the blocking plane at any shard
//! count, survive a chaos-injected reconnect storm with a clean
//! invariant audit, count (never deadlock on) egress backpressure
//! drops, and deliver ingress frames losslessly in order.

use anor_cluster::budgeter::{BudgeterConfig, ClusterBudgeter, LeaseConfig};
use anor_cluster::{
    recorder_meta, replay, run_load, Addr, BudgetPolicy, FaultPlan, FramedStream, LoadConfig,
    ReactorTransport, ReplayOptions, SessionState, StreamOptions, Transport, TransportKind,
    TransportMetrics, TransportOptions,
};
use anor_telemetry::{read_recording, FlightRecorder, RecEvent, Telemetry};
use anor_types::msg::JobToCluster;
use anor_types::{JobId, Watts};
use bytes::Bytes;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

const BUDGET: Watts = Watts(840.0);

/// Everything one scripted run produced that must not depend on the
/// connection plane.
#[derive(Debug)]
struct Scenario {
    /// `(conn, frame bytes)` of every recorded decision, in order.
    decisions: Vec<(u32, Vec<u8>)>,
    caps: Vec<(JobId, Option<Watts>)>,
    sessions: Vec<(JobId, SessionState)>,
}

fn connect(addr: &Addr) -> FramedStream {
    addr.dial(StreamOptions::default()).unwrap()
}

/// Wrap an opaque payload in the wire framing (`encode()` does this for
/// real messages): u32 big-endian length prefix, then the body.
fn framed(body: &[u8]) -> Bytes {
    let mut wire = Vec::with_capacity(4 + body.len());
    wire.extend_from_slice(&(body.len() as u32).to_be_bytes());
    wire.extend_from_slice(body);
    Bytes::from(wire)
}

fn send_all(c: &mut FramedStream, frame: Bytes) {
    c.send(frame).unwrap();
    while c.pending_out() > 0 {
        c.flush_some().unwrap();
    }
}

fn pump_until(b: &mut ClusterBudgeter, mut done: impl FnMut(&ClusterBudgeter) -> bool) {
    for _ in 0..5000 {
        b.pump(BUDGET).unwrap();
        if done(b) {
            return;
        }
        b.wait_readable(Duration::from_millis(1));
    }
    panic!("pump_until timed out ({:?} plane)", b.transport_kind());
}

/// Run the stage-gated scripted trace — three endpoints register, one
/// dies and loses its lease, then resumes — on the given plane, and
/// return the recorded decision stream plus the final budgeter state.
/// Every stage is gated on observed budgeter state, so the sequencing
/// of session events is identical regardless of how the plane
/// interleaves socket I/O.
fn run_scenario(kind: TransportKind, shards: usize, dir: &Path) -> Scenario {
    let cfg = BudgeterConfig::new(BudgetPolicy::EvenSlowdown, false);
    let lease = LeaseConfig::after_misses(5);
    let path = dir.join(format!("{}-{shards}.rec", kind.name()));
    let recorder = FlightRecorder::create(&path, recorder_meta(&cfg, &lease, 11)).unwrap();
    let (mut b, addr) = ClusterBudgeter::builder(cfg)
        .lease(lease)
        .recorder(recorder.clone())
        .transport(kind)
        .shards(shards)
        .bind()
        .unwrap();

    let hello = |job: u64, type_name: &str, nodes: u32| {
        JobToCluster::Hello {
            job: JobId(job),
            type_name: type_name.into(),
            nodes,
        }
        .encode()
    };
    let cap_of = |b: &ClusterBudgeter, job: u64| {
        b.job_caps()
            .iter()
            .find(|(j, _)| *j == JobId(job))
            .and_then(|(_, c)| *c)
    };

    // Stage 1-3: three endpoints register one at a time (fixed accept
    // order => fixed conn ids), each gated on its cap landing.
    let _c1 = {
        let mut c = connect(&addr);
        send_all(&mut c, hello(1, "bt.D.81", 2));
        pump_until(&mut b, |b| cap_of(b, 1).is_some());
        c
    };
    let mut c2 = {
        let mut c = connect(&addr);
        send_all(&mut c, hello(2, "sp.D.81", 2));
        pump_until(&mut b, |b| cap_of(b, 2).is_some());
        c
    };
    let _c3 = {
        let mut c = connect(&addr);
        send_all(&mut c, hello(3, "cg.D.32", 1));
        pump_until(&mut b, |b| cap_of(b, 3).is_some());
        c
    };

    // Stage 4: endpoint 2 dies; its lease expires (5 missed pumps) and
    // the watts are redistributed to the survivors.
    c2.shutdown_now();
    drop(c2);
    pump_until(&mut b, |b| {
        b.job_session(JobId(2)) == Some(SessionState::Gone)
    });

    // Stage 5: endpoint 2 resumes on a fresh connection with its
    // believed cap; the budgeter restores the lease and re-balances.
    let mut c2b = connect(&addr);
    send_all(
        &mut c2b,
        JobToCluster::Resume {
            job: JobId(2),
            type_name: "sp.D.81".into(),
            nodes: 2,
            believed_cap: Watts(200.0),
            cause: 0,
        }
        .encode(),
    );
    pump_until(&mut b, |b| {
        b.job_session(JobId(2)) == Some(SessionState::Connected) && cap_of(b, 2).is_some()
    });

    // Settle: constant budget, no state change — must emit nothing new.
    for _ in 0..20 {
        b.pump(BUDGET).unwrap();
    }

    let caps = b.job_caps();
    let sessions = b.session_states();
    recorder.flush().unwrap();
    drop(b);

    let rec = read_recording(&path).unwrap();
    // Each plane's recording must replay byte-identically on its own.
    let out = replay(
        &rec,
        &ReplayOptions {
            verify: true,
            until: None,
        },
    )
    .unwrap();
    assert_eq!(
        out.first_divergence,
        None,
        "{} plane recording failed replay --verify",
        kind.name()
    );
    assert_eq!(out.invariant_violations, 0);

    let decisions = rec
        .events
        .iter()
        .filter_map(|e| match &e.event {
            RecEvent::DecisionTx { conn, frame } => Some((*conn, frame.clone())),
            _ => None,
        })
        .collect();
    Scenario {
        decisions,
        caps,
        sessions,
    }
}

/// The tentpole acceptance: at any shard count, the reactor's recorded
/// decision stream is byte-for-byte the blocking plane's, and the final
/// caps and session states agree.
#[test]
fn decision_streams_are_byte_identical_across_planes() {
    let dir = std::env::temp_dir().join(format!("anor-reactor-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let blocking = run_scenario(TransportKind::Blocking, 1, &dir);
    let reactor1 = run_scenario(TransportKind::Reactor, 1, &dir);
    let reactor3 = run_scenario(TransportKind::Reactor, 3, &dir);

    assert!(
        !blocking.decisions.is_empty(),
        "scenario must emit decisions"
    );
    assert_eq!(
        blocking.decisions, reactor1.decisions,
        "reactor(1 shard) decision stream diverged from blocking"
    );
    assert_eq!(
        blocking.decisions, reactor3.decisions,
        "reactor(3 shards) decision stream diverged from blocking"
    );
    assert_eq!(blocking.caps, reactor1.caps);
    assert_eq!(blocking.caps, reactor3.caps);
    assert_eq!(blocking.sessions, reactor1.sessions);
    assert_eq!(blocking.sessions, reactor3.sessions);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A chaos storm — seeded drops and corruption over a 40-endpoint,
/// two-storm load run on the reactor — must complete with every session
/// re-established and a clean invariant audit.
#[test]
fn chaos_storm_audits_clean_on_the_reactor() {
    let cfg = LoadConfig {
        endpoints: 40,
        storms: 2,
        faults: Some(FaultPlan::parse("drop@17,corrupt@42").unwrap().seeded(0xA5)),
        transport: TransportOptions {
            kind: TransportKind::Reactor,
            shards: 3,
            conn_queue_depth: 64,
        },
        ..LoadConfig::default()
    };
    let report = run_load(&cfg).unwrap();
    assert!(report.ok(), "chaos load run failed:\n{report}");
    assert_eq!(report.invariant_violations, 0);
    assert_eq!(report.connected, 40);
    // Two storms over 40 endpoints: at least one full storm's worth of
    // reconnects, plus whatever the drop faults force on top.
    assert!(report.reconnects >= 40, "reconnects {}", report.reconnects);
}

/// A peer that never reads gets its egress frames dropped once the
/// bounded queue fills — counted, with the transport (and this test)
/// never blocking on the dead endpoint.
#[test]
fn backpressure_drops_are_counted_and_never_deadlock() {
    let telemetry = Telemetry::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let metrics = TransportMetrics::new(&telemetry, "budgeter");
    // depth 2 => egress bound of 2 * 256 bytes per connection.
    let mut t = ReactorTransport::new(listener, &telemetry, metrics, None, 1, 2).unwrap();
    let _stuck = TcpStream::connect(addr).unwrap(); // never reads

    let id = loop {
        let ids = t.accept().unwrap();
        if let Some(&id) = ids.first() {
            break id;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    // Far more bytes than the socket buffer plus the queue bound can
    // absorb. write_frame must stay non-blocking throughout: the test
    // finishing at all is the no-deadlock assertion.
    let frame = framed(&[0x5Au8; 300]);
    for _ in 0..4000 {
        t.write_frame(id, frame.clone()).unwrap();
    }
    assert!(
        t.backpressure_drops() > 0,
        "slow peer must shed frames, not queue unboundedly"
    );
    assert!(t.is_open(id), "backpressure must not kill the connection");
    // The drop counter is also the `transport_backpressure_drops_total`
    // telemetry counter the load report surfaces.
    assert_eq!(
        telemetry
            .counter(
                "transport_backpressure_drops_total",
                &[("role", "budgeter")]
            )
            .get(),
        t.backpressure_drops()
    );
}

/// Ingress is lossless and ordered: a client pushing frames faster than
/// the pump drains them loses nothing (the shard stops reading at the
/// inbox bound and TCP pushes back), and `wait_readable` wakes for the
/// arrivals instead of spinning.
#[test]
fn ingress_is_lossless_in_order_and_wakes_wait_readable() {
    let telemetry = Telemetry::new();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = Addr::from(listener.local_addr().unwrap());
    let metrics = TransportMetrics::new(&telemetry, "budgeter");
    // Tiny inbox bound so the lossless path actually engages.
    let mut t = ReactorTransport::new(listener, &telemetry, metrics, None, 2, 4).unwrap();
    let mut client = connect(&addr);

    let _id = loop {
        let ids = t.accept().unwrap();
        if let Some(&id) = ids.first() {
            break id;
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    const N: usize = 200;
    let writer = std::thread::spawn(move || {
        for i in 0..N {
            send_all(&mut client, framed(format!("frame-{i:04}").as_bytes()));
        }
        client
    });

    let mut got: Vec<Bytes> = Vec::new();
    let mut waits_signalled = 0u32;
    for _ in 0..20_000 {
        if t.wait_readable(Duration::from_millis(1)) {
            waits_signalled += 1;
        }
        for ready in t.poll_readable() {
            let (frames, _closed) = t.read_frames(ready).unwrap();
            got.extend(frames);
        }
        if got.len() >= N {
            break;
        }
    }
    let _client = writer.join().unwrap();
    assert_eq!(got.len(), N, "ingress dropped frames");
    for (i, frame) in got.iter().enumerate() {
        assert_eq!(
            frame.as_ref(),
            format!("frame-{i:04}").as_bytes(),
            "ingress reordered frames"
        );
    }
    assert!(waits_signalled > 0, "wait_readable never reported arrivals");
}
