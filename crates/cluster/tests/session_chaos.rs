//! End-to-end fault-tolerance tests: budgeter kill/restart with session
//! resume, chaos-injected emulator runs that must stay deterministic,
//! and property tests over arbitrary fault plans (codec never panics)
//! and lease accounting (reclaimed watts are never double-counted).

use anor_cluster::budgeter::{BudgeterConfig, ClusterBudgeter};
use anor_cluster::{
    BudgetPolicy, EmulatedCluster, EmulatorConfig, FaultPlan, JobEndpoint, JobSetup, LeaseConfig,
    RetryPolicy, SessionState,
};
use anor_geopm::endpoint_pair;
use anor_model::{ModelerConfig, PowerModeler};
use anor_telemetry::Telemetry;
use anor_types::{CapRange, JobId, PowerCurve, Seconds, Watts};
use proptest::prelude::*;
use std::time::Duration;

fn modeler() -> PowerModeler {
    let mut cfg = ModelerConfig::paper();
    cfg.dither_fraction = 0.0;
    let default = PowerCurve::from_anchor(Seconds(0.5), 0.1, CapRange::paper_node());
    PowerModeler::with_default(cfg, default)
}

/// The tentpole end-to-end scenario: the budgeter process dies mid-run
/// and is restarted on the same listening socket; the endpoint must ride
/// out the outage on its believed cap, resume the session, and end up
/// with an identical cap once the restarted budgeter rebalances.
#[test]
fn budgeter_restart_resumes_with_identical_cap() {
    let cfg = || BudgeterConfig::new(BudgetPolicy::Uniform, false);
    let telemetry = Telemetry::new();
    let (mut budgeter, addr) = ClusterBudgeter::builder(cfg())
        .telemetry(telemetry.clone())
        .bind()
        .unwrap();
    let (modeler_side, _agent) = endpoint_pair();
    let retry = RetryPolicy {
        base_delay: Seconds(0.5),
        jitter: 0.0,
        ..RetryPolicy::default()
    };
    let mut je = JobEndpoint::builder(addr, JobId(1), "bt.D.81", 2, modeler_side, modeler())
        .retry(retry)
        .telemetry(telemetry.clone())
        .connect()
        .unwrap();
    // Drive both sides until the cap lands: 400 W over 2 nodes = 200 W.
    let mut now = Seconds(0.0);
    for _ in 0..1000 {
        budgeter.pump(Watts(400.0)).unwrap();
        je.pump(now).unwrap();
        now += Seconds(0.1);
        if je.budget_cap().is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let cap_before = je.budget_cap().expect("cap never arrived");
    assert!((cap_before.value() - 200.0).abs() < 2.0, "cap {cap_before}");

    // Kill the budgeter but keep its socket: exactly a daemon restart.
    let listener = budgeter.into_listener();
    for _ in 0..1000 {
        je.pump(now).unwrap();
        now += Seconds(0.1);
        if !je.session_state().is_connected() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        matches!(je.session_state(), SessionState::Reconnecting { .. }),
        "{:?}",
        je.session_state()
    );
    // The silent-stranding fix: a believed cap stays in force while
    // reconnecting, so power safety does not lapse with the daemon.
    assert_eq!(je.budget_cap(), Some(cap_before));

    let (mut budgeter, _) = ClusterBudgeter::builder(cfg())
        .listener(listener)
        .telemetry(telemetry.clone())
        .bind()
        .unwrap();
    // The endpoint redials, sends Resume, and the restarted budgeter
    // (which has nothing on record) re-registers it and rebalances to
    // an identical cap under the same budget.
    for _ in 0..1000 {
        budgeter.pump(Watts(400.0)).unwrap();
        je.pump(now).unwrap();
        now += Seconds(0.1);
        if je.session_state().is_connected() && budgeter.active_jobs() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(je.session_state().is_connected(), "endpoint never resumed");
    assert_eq!(
        budgeter.job_session(JobId(1)),
        Some(SessionState::Connected)
    );
    // Believed cap survived the restart...
    assert_eq!(je.budget_cap(), Some(cap_before));
    // ...and the fresh rebalance re-derives the identical value.
    for _ in 0..1000 {
        budgeter.pump(Watts(400.0)).unwrap();
        je.pump(now).unwrap();
        now += Seconds(0.1);
        if budgeter.job_caps()[0].1.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(je.budget_cap(), Some(cap_before));
    assert_eq!(
        telemetry
            .counter("endpoint_session_reconnects_total", &[])
            .get(),
        1
    );
}

/// One chaos-injected emulator run; returns the integer session counters
/// the determinism assertion compares.
fn chaos_counters(seed: u64) -> (usize, u64, u64, u64, u64) {
    let telemetry = Telemetry::new();
    let plan = FaultPlan::parse("drop@3,drop@9,drop@15")
        .unwrap()
        .seeded(0xC0FFEE);
    let mut cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, false)
        .with_telemetry(telemetry.clone())
        .with_faults(plan)
        .with_retry(RetryPolicy {
            base_delay: Seconds(0.5),
            jitter: 0.0,
            ..RetryPolicy::default()
        });
    cfg.seed = seed;
    let report = EmulatedCluster::new(cfg)
        .run_static(
            &[JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")],
            Watts(840.0),
        )
        .expect("chaos run must still complete");
    (
        report.jobs.len(),
        telemetry
            .counter("endpoint_session_reconnects_total", &[])
            .get(),
        telemetry
            .counter("transport_faults_injected_total", &[("role", "endpoint")])
            .get(),
        telemetry.counter("endpoint_sessions_gone_total", &[]).get(),
        telemetry.counter("leases_expired_total", &[]).get(),
    )
}

/// A seeded fault plan forces ≥3 disconnects mid-run; the run still
/// completes, every session ends Connected or Gone (all jobs finish),
/// and — the determinism acceptance — the same seed yields identical
/// integer session counters across two full runs.
#[test]
fn chaos_run_completes_and_is_deterministic() {
    let a = chaos_counters(7);
    let b = chaos_counters(7);
    assert_eq!(a, b, "same seed must give identical session counters");
    let (jobs, reconnects, injected, gone, _expired) = a;
    assert_eq!(jobs, 2, "both jobs must finish under chaos");
    assert!(
        reconnects >= 3,
        "plan schedules 3 drops per job: {reconnects} reconnect(s)"
    );
    assert!(injected >= 3, "faults must actually fire: {injected}");
    assert_eq!(gone, 0, "retry budget is ample; no session should die");
}

/// Watts conservation around lease expiry and resume: the busy budget is
/// fully allocated across lease-holding jobs before the outage, after
/// the reclaim, and after the resume; the `watts_reclaimed` gauge always
/// equals the per-entry ground truth (so nothing is double-counted) and
/// returns to zero when the lease is restored.
#[test]
fn reclaimed_watts_are_conserved_across_expiry_and_resume() {
    use anor_types::msg::{ClusterToJob, JobToCluster};
    let telemetry = Telemetry::new();
    let (mut b, addr) = ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
        .telemetry(telemetry.clone())
        .lease(LeaseConfig::after_misses(8))
        .bind()
        .unwrap();
    // 540 W over 3 nodes = 180 W/node before the outage and 270 W/node
    // after it — both inside the paper cap range, so clamping never
    // hides watts from the conservation sums below.
    let budget = Watts(540.0);
    let gauge = telemetry.gauge("watts_reclaimed", &[]);
    let allocated = |b: &ClusterBudgeter| -> f64 {
        b.session_states()
            .iter()
            .filter(|(_, s)| !s.is_gone())
            .filter_map(|(job, _)| {
                let nodes = b.believed_view(*job)?.nodes as f64;
                let cap = b.job_caps().iter().find(|(j, _)| j == job)?.1?;
                Some(cap.value() * nodes)
            })
            .sum()
    };
    let check_gauge = |b: &ClusterBudgeter| {
        let g = gauge.get();
        let truth = b.reclaimed_watts().value();
        assert!((g - truth).abs() < 1e-9, "gauge {g} vs entries {truth}");
    };

    let mut c1 = addr.dial(anor_cluster::StreamOptions::default()).unwrap();
    let mut c2 = addr.dial(anor_cluster::StreamOptions::default()).unwrap();
    let hello = |job: u64, nodes: u32| {
        JobToCluster::Hello {
            job: JobId(job),
            type_name: "cg.D.32".into(),
            nodes,
        }
        .encode()
    };
    c1.send(hello(1, 1)).unwrap();
    c2.send(hello(2, 2)).unwrap();
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
    pump_until(&mut b, &mut |b| {
        b.active_jobs() == 2 && b.job_caps().iter().all(|(_, c)| c.is_some())
    });
    check_gauge(&b);
    let total = allocated(&b);
    assert!((total - budget.value()).abs() < 3.0, "pre-outage {total}");

    // Job 1's endpoint dies; its lease expires and the watts come back.
    drop(c1);
    pump_until(&mut b, &mut |b| {
        b.job_session(JobId(1)) == Some(SessionState::Gone)
    });
    check_gauge(&b);
    let reclaimed = b.reclaimed_watts().value();
    assert!(reclaimed > 0.0, "expiry must reclaim watts");
    // Extra pumps must not double-count the reclaim.
    for _ in 0..20 {
        b.pump(budget).unwrap();
    }
    check_gauge(&b);
    assert_eq!(b.reclaimed_watts().value(), reclaimed, "no double count");
    assert_eq!(telemetry.counter("leases_expired_total", &[]).get(), 1);
    // The survivor re-absorbs the whole budget.
    pump_until(&mut b, &mut |b| (allocated(b) - budget.value()).abs() < 3.0);

    // Job 1 resumes: reclaimed watts return to the pool and the gauge
    // drains back to zero.
    let mut c1b = addr.dial(anor_cluster::StreamOptions::default()).unwrap();
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
    check_gauge(&b);
    assert_eq!(b.reclaimed_watts(), Watts::ZERO, "lease restored");
    pump_until(&mut b, &mut |b| {
        (allocated(b) - budget.value()).abs() < 3.0 && b.active_jobs() == 2
    });
    // The resume ack is addressed to the rejoining connection.
    let mut acked = false;
    for _ in 0..1000 {
        b.pump(budget).unwrap();
        c1b.flush_some().unwrap();
        for body in c1b.recv_frames().unwrap() {
            if matches!(
                ClusterToJob::decode(body),
                Ok(ClusterToJob::ResumeAck { .. })
            ) {
                acked = true;
            }
        }
        if acked {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(acked, "resume must be acknowledged");
}

/// Strategy: an arbitrary fault plan of up to 6 scheduled faults over
/// the first 24 frames.
fn arb_plan() -> impl Strategy<Value = Vec<(u8, u64, u32)>> {
    proptest::collection::vec((0u8..5, 1u64..24, 1u32..4), 0..6)
}

fn build_plan(raw: &[(u8, u64, u32)], seed: u64) -> FaultPlan {
    use anor_cluster::{FaultKind, FaultSpec};
    let specs = raw
        .iter()
        .map(|&(k, at, arg)| FaultSpec {
            at,
            kind: match k {
                0 => FaultKind::Drop,
                1 => FaultKind::Delay(arg),
                2 => FaultKind::Duplicate,
                3 => FaultKind::Truncate,
                _ => FaultKind::Corrupt,
            },
        })
        .collect();
    FaultPlan::new(specs).seeded(seed)
}

proptest! {
    /// Any fault plan — any mix of drops, delays, duplicates,
    /// truncations and corruptions at any frames — must never panic the
    /// codec on either side. The receiver may see errors (that is the
    /// point) but must keep returning typed results.
    #[test]
    fn arbitrary_fault_plans_never_panic_the_codec(
        raw in arb_plan(),
        seed in 0u64..u64::MAX,
    ) {
        use anor_cluster::{FramedStream, StreamOptions};
        use anor_types::msg::JobToCluster;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::net::TcpStream::connect(addr).unwrap();
        let (server_raw, _) = listener.accept().unwrap();
        let plan = build_plan(&raw, seed);
        let mut client =
            FramedStream::new(client, StreamOptions::default().faults(plan.clone())).unwrap();
        let mut server = FramedStream::new(server_raw, StreamOptions::default()).unwrap();
        for i in 0..24u64 {
            // Send errors are tolerated (a Drop/Truncate fault cuts the
            // link mid-run) — what is forbidden is a panic.
            let _ = client.send(
                JobToCluster::Hello {
                    job: JobId(i),
                    type_name: "bt.D.81".into(),
                    nodes: 2,
                }
                .encode(),
            );
            let _ = client.flush_some();
            match server.recv_frames() {
                Ok(bodies) => {
                    for body in bodies {
                        // Corrupt frames may or may not decode; both
                        // outcomes are fine, panics are not.
                        let _ = JobToCluster::decode(body);
                    }
                }
                Err(_) => break, // oversize reject closed the stream
            }
        }
        // The plan's counters stayed coherent.
        prop_assert!(plan.injected() <= raw.len() as u64);
        prop_assert!(plan.frames_seen() <= 24);
    }
}
