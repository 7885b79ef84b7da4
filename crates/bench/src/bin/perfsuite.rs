//! The benchmark trajectory harness: times the workloads this PR's
//! optimizations target and appends the medians to a `BENCH_PR<N>.json`
//! at the repo root, so successive PRs accumulate a perf trajectory
//! (schema documented in DESIGN.md § Performance).
//!
//! ```text
//! perfsuite [--quick] [--out PATH] [--runs K] [--baseline PATH]
//! ```
//!
//! Benches:
//! - `fig11_small` at `--jobs 1` and `--jobs 8`: the level × trial
//!   fan-out plus the embedded hourly-bid grid search, end to end. The
//!   jobs=8/jobs=1 ratio is the executor's measured speedup and scales
//!   with the host's cores (1.0 on a single-core machine).
//! - `fig4`: the analytic budget sweep.
//! - `sim_step_1000x600`: 600 simulated seconds of a 1000-node
//!   `TabularSim` at 75% utilization — the per-tick hot path.
//! - `sim_step_100k`: the same workload at 100,000 nodes, exercising the
//!   event-driven engine at ROADMAP scale (60 simulated seconds with
//!   `--quick`). The run's final state hash is also checked for equality
//!   between per-tick stepping and the fast-forward path.
//! - `sim_state_hash`: one FNV-1a fingerprint pass over the final
//!   100k-node node/job tables (the determinism-check primitive).
//! - `status_snapshot`: 10k snapshot+render passes over a live budgeter
//!   with 8 registered job sessions — the per-pump cost the ops plane
//!   adds when `--status-addr` is active.
//! - `load_1k_endpoints`: a full `anor-load` pass — 1000 scripted
//!   endpoints (200 with `--quick`) registering, absorbing caps and
//!   riding out a reconnect storm against the sharded reactor. The run
//!   must finish clean (all sessions re-established, zero invariant
//!   violations) and its pump p99 is reported against the 10 ms target.
//! - `emulator_dr_600s`: one `EmulatedCluster::run_demand_response` over
//!   the first 600 s of Fig. 10's seed-10 schedule (95% utilization) and
//!   regulation signal, as its Adjusted cell runs it: even-slowdown with
//!   job-tier feedback, BT announced as IS. The whole emulated control
//!   loop: job tier, GEOPM runtimes, retrains and the in-process links.
//! - `replay_dr_600s`: `replay` with `verify` over a flight recording of
//!   that same run, made once before the timed runs: the daemon's
//!   accept, ingest, decide and actuate code over the recorded plane. A
//!   divergence fails the run; the auditor's count is printed (Fig. 10's
//!   band trips its watts-conservation check live, see ROADMAP item 1).
//! - `policy_assign_<policy>_<n>`: `BudgetPolicy::assign` over `n` = 16,
//!   1k and 10k jobs for each policy that reads no at-risk flags, at
//!   210 W per node (inside every job's window, so even-slowdown
//!   bisects) — the decide phase of every pump and every re-cap.
//! - `codec_roundtrip`: encode and decode one `Sample` and one
//!   `SetPowerCap` frame, the two messages of every control round.
//! - `model_retrain`: a fresh `PowerModeler` at the paper config fed 60
//!   epochs across two caps: the epoch window and a retrain every 10
//!   epochs (quadratic fit, anchored fallback).
//!
//! A single call of the last three families is below the wall clock's
//! useful resolution, so each run repeats it a fixed number of times
//! (printed with the row), sized so one run takes at least about a
//! millisecond on a 2-vCPU KVM VM.
//!
//! Each bench reports the min, median and run-to-run standard deviation
//! of K runs' wall-clock time (default 5; 3 with `--quick`, which also
//! shrinks the fig11 scenario), plus the mean CPU time per run: user +
//! system time of every thread, read from `/proc/self/stat` around the
//! K-run batch (10 ms resolution over the batch, 0 where unavailable).
//! `--out` defaults to `BENCH_PR<N+1>.json` and `--baseline` to
//! `BENCH_PR<N>.json`, where `BENCH_PR<N>.json` is the newest trajectory
//! file in the working directory. When the baseline exists, medians that
//! slowed by more than 10% are flagged as `PERF REGRESSION` lines.

use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor_bench::analyze::{flag_regressions, newest_ledger, parse_bench_file, BenchRow};
use anor_bench::{args, or_exit};
use anor_cluster::budgeter::{BudgeterConfig, ClusterBudgeter};
use anor_cluster::{
    recorder_meta, replay, run_load, BudgetPolicy, EmulatedCluster, EmulatorConfig, FramedStream,
    JobSetup, LoadConfig, ReplayOptions, StreamOptions, TransportKind, TransportOptions,
};
use anor_core::experiments::{fig11, fig4};
use anor_model::{ModelerConfig, PowerModeler};
use anor_platform::PerformanceVariation;
use anor_policy::JobView;
use anor_sim::{SimConfig, TabularSim};
use anor_telemetry::{json, read_recording, FlightRecorder};
use anor_types::msg::{ClusterToJob, EpochSample, JobToCluster};
use anor_types::stats::std_dev;
use anor_types::{CapRange, JobId, Joules, PowerCurve};
use anor_types::{QosConstraint, Seconds, Watts};
use std::hint::black_box;
use std::time::Instant;

struct BenchResult {
    bench: String,
    min_s: f64,
    median_s: f64,
    stddev_s: f64,
    cpu_s: f64,
    runs: usize,
    jobs: usize,
}

impl BenchResult {
    /// One-line rendering of the row's timings.
    fn summary(&self) -> String {
        format!(
            "median {:.3} s (min {:.3}, \u{3c3} {:.3}, cpu {:.3} s/run) over {} run(s)",
            self.median_s, self.min_s, self.stddev_s, self.cpu_s, self.runs
        )
    }
}

/// User plus system CPU seconds this process (all threads) has used so
/// far: `utime + stime` of `/proc/self/stat`, in clock ticks of 1/100 s.
/// 0 where the file is unavailable.
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; fields resume after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After ')': state is field 3 of the full line, utime 14, stime 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// Time `runs` invocations of `f` as the `bench` row at `jobs` workers:
/// min / median / standard deviation of wall-clock seconds, and the
/// mean CPU seconds per run.
fn timed_runs(bench: &str, jobs: usize, runs: usize, mut f: impl FnMut()) -> BenchResult {
    let cpu_start = cpu_seconds();
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    let cpu_s = (cpu_seconds() - cpu_start) / runs as f64;
    samples.sort_by(f64::total_cmp);
    BenchResult {
        bench: bench.to_string(),
        min_s: samples[0],
        median_s: samples[samples.len() / 2],
        stddev_s: std_dev(&samples),
        cpu_s,
        runs,
        jobs,
    }
}

fn fig11_small(quick: bool, jobs: usize) -> fig11::Fig11Config {
    if quick {
        fig11::Fig11Config {
            nodes: 40,
            trials: 2,
            levels: vec![0.0, 30.0],
            horizon: Seconds(600.0),
            jobs,
            ..fig11::Fig11Config::default()
        }
    } else {
        fig11::Fig11Config {
            nodes: 150,
            trials: 4,
            levels: vec![0.0, 10.0, 20.0, 30.0],
            horizon: Seconds(900.0),
            jobs,
            ..fig11::Fig11Config::default()
        }
    }
}

/// The `sim_step` bench scenario: 75% utilization, a ±35% random-walk
/// regulation signal, 5% performance variation.
fn sim_build(nodes: u32, ticks: usize) -> TabularSim {
    let catalog = anor_types::standard_catalog().scale_nodes((nodes / 40).max(1));
    let types = catalog.long_running();
    let cfg = SimConfig {
        total_nodes: nodes,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(1.0),
        policy: BudgetPolicy::EvenSlowdown,
        qos: QosConstraint::default(),
        qos_risk_threshold: 0.8,
    };
    let schedule = poisson_schedule(
        &cfg.catalog,
        &cfg.types,
        0.75,
        nodes,
        Seconds(ticks as f64),
        42,
    );
    let mean_draw: f64 = cfg
        .types
        .iter()
        .map(|&id| cfg.catalog[id].max_draw.value())
        .sum::<f64>()
        / cfg.types.len() as f64;
    let avg = Watts(nodes as f64 * (0.75 * mean_draw + 0.25 * 90.0)) * 0.85;
    let target = PowerTarget {
        avg,
        reserve: avg * 0.12,
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, Seconds(7200.0), 7),
    };
    let variation = PerformanceVariation::with_sigma(nodes as usize, 0.05, 13);
    TabularSim::new(cfg, target, &variation, schedule, None)
}

/// One `nodes`-node, `ticks`-tick simulator run (the hot-path bench body).
fn sim_step_loop(nodes: u32, ticks: usize) {
    let mut sim = sim_build(nodes, ticks);
    for _ in 0..ticks {
        sim.step();
    }
    assert!(sim.measured_power().value() > 0.0);
}

/// One full run returning the final state hash. `fast_forward` drives
/// the run through `run_to` (tracking frozen) instead of per-tick
/// stepping. Both must produce the same hash — that is the engine's
/// determinism contract.
fn sim_hash_run(nodes: u32, ticks: usize, fast_forward: bool) -> u64 {
    let mut sim = sim_build(nodes, ticks);
    if fast_forward {
        sim.freeze_tracking();
        sim.run_to(Seconds(ticks as f64));
    } else {
        for _ in 0..ticks {
            sim.step();
        }
    }
    sim.state_hash()
}

/// A live budgeter with `sessions` registered jobs, for the snapshot
/// bench. The returned streams keep the sessions connected.
fn snapshot_fixture(sessions: u64) -> (ClusterBudgeter, Vec<FramedStream>) {
    let (mut b, addr) = ClusterBudgeter::builder(BudgeterConfig::new(BudgetPolicy::Uniform, false))
        .bind()
        .expect("bind budgeter");
    let mut streams = Vec::new();
    for job in 1..=sessions {
        let mut s = addr.dial(StreamOptions::default()).expect("dial budgeter");
        s.send(
            JobToCluster::Hello {
                job: JobId(job),
                type_name: "cg.D.32".into(),
                nodes: 2,
            }
            .encode(),
        )
        .expect("hello");
        streams.push(s);
    }
    // Pump until every session is registered and capped.
    for _ in 0..1000 {
        b.pump(Watts(840.0)).expect("pump");
        if b.status_snapshot().active_jobs == sessions as usize {
            return (b, streams);
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    panic!("sessions never registered");
}

/// `n` job views cycling through the standard catalog, and a busy
/// budget of 210 W per node.
fn assign_fixture(n: usize) -> (Vec<JobView>, Watts) {
    let catalog = anor_types::standard_catalog();
    let specs: Vec<_> = catalog.iter().collect();
    let jobs: Vec<JobView> = (0..n)
        .map(|i| JobView::from_spec(JobId(i as u64), specs[i % specs.len()]))
        .collect();
    let nodes: f64 = jobs.iter().map(|j| f64::from(j.nodes)).sum();
    (jobs, Watts(210.0 * nodes))
}

/// [`timed_runs`] for a call far below the clock's resolution: each run
/// repeats `f` `reps` times. Prints the row with its per-call time.
fn timed_calls(bench: &str, runs: usize, reps: usize, mut f: impl FnMut()) -> BenchResult {
    let r = timed_runs(bench, 1, runs, || {
        for _ in 0..reps {
            f();
        }
    });
    println!(
        "{bench}: {} per {reps} call(s) ({:.3} µs/call)",
        r.summary(),
        r.median_s / reps as f64 * 1e6
    );
    r
}

/// Encode one `Sample` and one `SetPowerCap` frame, strip each length
/// prefix and decode them back.
fn codec_roundtrip() {
    let sample = JobToCluster::Sample(EpochSample {
        job: JobId(42),
        epoch_count: 1234,
        energy: Joules(9999.5),
        avg_power: Watts(201.0),
        avg_cap: Watts(210.0),
        timestamp: Seconds(77.7),
        cause: 7,
    });
    let cap = ClusterToJob::SetPowerCap {
        cap: Watts(195.5),
        cause: 7,
    };
    let body = |mut frame: bytes::Bytes| {
        bytes::Buf::advance(&mut frame, 4);
        black_box(frame)
    };
    let back = JobToCluster::decode(body(sample.encode()));
    assert_eq!(back.ok().as_ref(), Some(&sample));
    let back = ClusterToJob::decode(body(cap.encode()));
    assert_eq!(back.ok().as_ref(), Some(&cap));
}

/// The `emulator_dr_600s` scenario: Fig. 10's Adjusted configuration,
/// and its seed-10 schedule and target over a 600 s horizon with BT
/// announced as IS.
fn emulator_dr_fixture() -> (EmulatorConfig, Vec<JobSetup>, PowerTarget) {
    const SEED: u64 = 10;
    let horizon = Seconds(600.0);
    let mut cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true);
    cfg.seed = SEED;
    let types = cfg.catalog.long_running();
    let jobs = poisson_schedule(&cfg.catalog, &types, 0.95, cfg.nodes, horizon, SEED)
        .iter()
        .map(|s| {
            let name = &cfg.catalog[s.type_id].name;
            let announced = if name.starts_with("bt") {
                "is.D.32"
            } else {
                name
            };
            JobSetup::misclassified(name, announced).at(s.time)
        })
        .collect();
    let target = PowerTarget {
        avg: Watts(3200.0),
        reserve: Watts(900.0),
        signal: RegulationSignal::random_walk(
            Seconds(4.0),
            0.35,
            horizon + Seconds(3600.0),
            SEED ^ 0x515,
        ),
    };
    (cfg, jobs, target)
}

/// One modeler lifetime: 30 epochs at each of two caps into a fresh
/// `PowerModeler`, which must end up with a fitted curve.
fn model_retrain() {
    let default = PowerCurve::from_anchor(Seconds(2.4), 0.75, CapRange::paper_node());
    let mut m = PowerModeler::with_default(ModelerConfig::paper(), default);
    let mut t = 0.0;
    let mut count = 0;
    for (cap, tau) in [(Watts(170.0), 3.0), (Watts(250.0), 2.5)] {
        for _ in 0..30 {
            t += tau;
            count += 1;
            m.observe(count, Seconds(t), cap);
        }
    }
    assert!(black_box(&m).is_fitted());
}

fn write_json(path: &str, results: &[BenchResult]) -> std::io::Result<()> {
    let mut out = String::from("[\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str("  {\"bench\": ");
        json::push_str(&mut out, &r.bench);
        out.push_str(&format!(
            ", \"min_s\": {:.6}, \"median_s\": {:.6}, \
             \"stddev_s\": {:.6}, \"cpu_s\": {:.6}, \"runs\": {}, \"jobs\": {}}}{}\n",
            r.min_s,
            r.median_s,
            r.stddev_s,
            r.cpu_s,
            r.runs,
            r.jobs,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    std::fs::write(path, out)
}

fn main() {
    let args = args();
    let quick = args.flag("quick");
    // Defaults: compare against the newest ledger in the working
    // directory and write the next one.
    let newest = std::fs::read_dir(".").map_or(0, |dir| {
        newest_ledger(dir.filter_map(|e| e.ok()?.file_name().into_string().ok()))
    });
    let out_path = args
        .get("out")
        .map_or_else(|| format!("BENCH_PR{}.json", newest + 1), String::from);
    let baseline_path = args
        .get("baseline")
        .map_or_else(|| format!("BENCH_PR{newest}.json"), String::from);
    let runs: usize = or_exit(args.get_or("runs", if quick { 3 } else { 5 }));
    if runs == 0 {
        eprintln!("option --runs: must be at least 1");
        std::process::exit(2);
    }
    or_exit(args.finish());

    anor_bench::header(
        "perfsuite",
        &format!("Benchmark trajectory harness (stats land in {out_path})"),
    );
    let mut results = Vec::new();
    for jobs in [1usize, 8] {
        let cfg = fig11_small(quick, jobs);
        let r = timed_runs("fig11_small", jobs, runs, || {
            fig11::run(&cfg).expect("fig11 run failed");
        });
        println!("fig11_small --jobs {jobs}: {}", r.summary());
        results.push(r);
    }
    let serial = results[0].median_s;
    let parallel = results[1].median_s;
    println!(
        "fig11_small speedup at --jobs 8: {:.2}x (scales with available cores)",
        serial / parallel.max(1e-9)
    );

    let r = timed_runs("fig4", 1, runs, || {
        let out = fig4::run(1);
        assert_eq!(out.even_slowdown.len(), 8);
    });
    println!("fig4: {}", r.summary());
    results.push(r);

    let (nodes, ticks) = if quick { (1000, 200) } else { (1000, 600) };
    let bench = format!("sim_step_{nodes}x{ticks}");
    let r = timed_runs(&bench, 1, runs, || sim_step_loop(nodes, ticks));
    println!("{bench}: {}", r.summary());
    results.push(r);

    let ticks_100k = if quick { 60 } else { 600 };
    let r = timed_runs("sim_step_100k", 1, runs, || {
        sim_step_loop(100_000, ticks_100k)
    });
    println!(
        "sim_step_100k: {} at {ticks_100k} simulated second(s)",
        r.summary()
    );
    results.push(r);

    // The determinism contract behind the bench: the identical scenario
    // must hash the same under per-tick stepping and the fast-forward
    // stepping mode.
    let h_stepped = sim_hash_run(100_000, ticks_100k, false);
    let h_jumped = sim_hash_run(100_000, ticks_100k, true);
    assert_eq!(
        h_stepped, h_jumped,
        "state hash must not depend on stepping mode"
    );
    println!("sim_state_hash determinism: {h_stepped:#018x} stepped and under fast-forward");

    let mut hashed_sim = sim_build(100_000, ticks_100k);
    for _ in 0..ticks_100k {
        hashed_sim.step();
    }
    let r = timed_runs("sim_state_hash", 1, runs, || {
        assert_ne!(hashed_sim.state_hash(), 0);
    });
    println!(
        "sim_state_hash: {} for a 100k-node table fingerprint",
        r.summary()
    );
    results.push(r);

    let (b, _streams) = snapshot_fixture(8);
    let iters = 10_000usize;
    let r = timed_runs("status_snapshot", 1, runs, || {
        for _ in 0..iters {
            let snap = b.status_snapshot();
            assert_eq!(snap.jobs.len(), 8);
            assert!(!snap.to_json().is_empty());
        }
    });
    println!(
        "status_snapshot: {} per {iters} snapshot+render passes ({:.1} µs/pass)",
        r.summary(),
        r.median_s / iters as f64 * 1e6
    );
    results.push(r);

    // The connection-plane bench: a full anor-load pass on the sharded
    // reactor — register N endpoints, land caps on all of them, drop
    // every socket at once and resume. The run must finish clean; the
    // timing is the trajectory metric, the pump p99 is checked against
    // the 10 ms design target.
    let endpoints = if quick { 200 } else { 1000 };
    let mut last_p99 = 0.0f64;
    let mut last_eps = 0.0f64;
    let r = timed_runs("load_1k_endpoints", 1, runs, || {
        let cfg = LoadConfig {
            endpoints,
            storms: 1,
            transport: TransportOptions {
                kind: TransportKind::Reactor,
                shards: 4,
            },
            drivers: 4,
            ..LoadConfig::default()
        };
        let report = run_load(&cfg).expect("load run failed");
        assert!(report.ok(), "load run must finish clean:\n{report}");
        last_p99 = report.pump_p99_ms;
        last_eps = report.endpoints_per_sec;
    });
    println!(
        "load_1k_endpoints: {} at {endpoints} endpoint(s); {last_eps:.0} endpoints/s, pump p99 \
         {last_p99:.3} ms (target < 10 ms)",
        r.summary()
    );
    if last_p99 >= 10.0 {
        println!("PERF WARNING: pump p99 {last_p99:.3} ms exceeds the 10 ms reactor target");
    }
    results.push(r);

    // Each assign run evaluates a million job views (62 500 calls at 16
    // jobs, 100 at 10k), so every size does the same per-view work.
    for (n, size) in [(16usize, "16"), (1_000, "1k"), (10_000, "10k")] {
        let (jobs, budget) = assign_fixture(n);
        for policy in BudgetPolicy::ALL.iter().filter(|p| !p.reads_at_risk()) {
            let bench = format!("policy_assign_{}_{size}", policy.name().replace('-', "_"));
            results.push(timed_calls(&bench, runs, 1_000_000 / n, || {
                let caps = policy.assign(budget, black_box(&jobs), &[]);
                assert_eq!(black_box(caps).len(), n);
            }));
        }
    }
    results.push(timed_calls(
        "codec_roundtrip",
        runs,
        10_000,
        codec_roundtrip,
    ));
    results.push(timed_calls("model_retrain", runs, 100, model_retrain));

    let (cfg, jobs, target) = emulator_dr_fixture();
    let r = timed_runs("emulator_dr_600s", 1, runs, || {
        let report = EmulatedCluster::new(cfg.clone())
            .run_demand_response(&jobs, target.clone(), false)
            .expect("emulated run failed");
        assert_eq!(report.jobs.len(), jobs.len());
    });
    println!(
        "emulator_dr_600s: {} for {} job(s) over 600 virtual s",
        r.summary(),
        jobs.len()
    );
    results.push(r);

    let path = std::env::temp_dir().join(format!("perfsuite-dr-{}.rec", std::process::id()));
    let bcfg = BudgeterConfig::new(cfg.policy, cfg.feedback);
    let recorder = FlightRecorder::create(&path, recorder_meta(&bcfg, &cfg.lease, cfg.seed))
        .expect("cannot create the flight recording");
    EmulatedCluster::new(cfg.clone().with_recorder(recorder.clone()))
        .run_demand_response(&jobs, target.clone(), false)
        .expect("recorded emulated run failed");
    recorder.flush().expect("flight recording not flushed");
    let rec = read_recording(&path).expect("cannot read the flight recording");
    let _ = std::fs::remove_file(&path);
    let verify = ReplayOptions {
        verify: true,
        until: None,
    };
    let (mut pumps, mut violations) = (0, 0);
    let r = timed_runs("replay_dr_600s", 1, runs, || {
        let out = replay(&rec, &verify).expect("replay failed");
        assert_eq!(out.first_divergence, None, "replay --verify diverged");
        (pumps, violations) = (out.pumps_replayed, out.invariant_violations);
    });
    println!(
        "replay_dr_600s: {} for {pumps} verified pump(s) of {} event(s), {violations} \
         invariant violation(s)",
        r.summary(),
        rec.events.len()
    );
    results.push(r);

    match write_json(&out_path, &results) {
        Ok(()) => println!("\nwrote {} result(s) to {out_path}", results.len()),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }

    // Compare against the prior PR's trajectory file, when present:
    // medians more than 10% slower are operator-visible regressions
    // (advisory — perf on shared CI machines is noisy, so the exit
    // status stays 0).
    match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match parse_bench_file(&text) {
            Ok(prior) => {
                let current: Vec<BenchRow> = results
                    .iter()
                    .map(|r| BenchRow {
                        bench: r.bench.clone(),
                        jobs: r.jobs as u64,
                        median_s: r.median_s,
                        min_s: Some(r.min_s),
                        stddev_s: Some(r.stddev_s),
                    })
                    .collect();
                let flags = flag_regressions(&prior, &current, 0.10);
                if flags.is_empty() {
                    println!("no >10% median regressions vs {baseline_path}");
                } else {
                    for f in &flags {
                        println!("PERF REGRESSION vs {baseline_path}: {f}");
                    }
                }
            }
            Err(e) => eprintln!("{baseline_path}: unparseable baseline ({e}); skipping comparison"),
        },
        Err(_) => println!("baseline {baseline_path} not found; skipping regression comparison"),
    }
}
