//! `anord` — the standalone ANOR cluster power budgeter daemon.
//!
//! The head-node process of Fig. 2: listens for job-tier endpoint
//! connections over TCP, reads power targets (a constant budget or a
//! time/watts ladder file, Section 4.1), and continuously redistributes
//! the busy-node power budget across connected jobs.
//!
//! ```text
//! anord --listen 127.0.0.1:0 --policy even-slowdown --feedback \
//!       --budget 840 --expect-jobs 2
//! anord --listen 127.0.0.1:5533 --targets targets.txt --duration-secs 3600
//! ```
//!
//! `--policy` is `uniform`, `even-power` or `even-slowdown` (the default).
//! `even-slowdown+qos` runs only in the simulator (`anorsim`): it reads
//! at-risk flags the daemon does not project, so `anord` exits 1 with a
//! config error on it.
//!
//! With `--telemetry <dir>`, events stream to `<dir>/events.jsonl` and a
//! Prometheus exposition plus summary table are written on exit. With
//! `--trace <dir>`, each rebalance decision and every cap/sample hop is
//! recorded to `<dir>/trace.jsonl` for `anor-trace`. With
//! `--faults drop@17,corrupt@42` (and optional `--fault-seed N`), a
//! seeded chaos schedule is injected into each accepted connection's
//! send path. With `--status-addr host:port`, a dependency-free HTTP
//! introspection endpoint serves `/metrics` (Prometheus text), `/health`
//! and `/status` (live JSON snapshot: sessions, leases, pool watts, pump
//! latency, auditor verdict) — poll it with `anor-top`. With
//! `--record <dir>` (and optional `--seed N` stamped into the header),
//! every inbound frame, connection/lease transition and emitted cap
//! decision is flight-recorded to `<dir>/anord.rec` for `anor-replay`.
//! With `--transport reactor` (plus optional `--shards N`), the
//! connection plane is the sharded non-blocking reactor for
//! thousands-of-endpoints fan-in; decisions are byte-identical to the
//! default blocking plane.
//!
//! Prints `anord listening on <addr>` once ready (machine-readable for
//! launchers, ditto `anord status on <addr>`), then a completion line
//! per job.

use anor_cluster::budgeter::{BudgeterConfig, ClusterBudgeter, LeaseConfig};
use anor_cluster::{BudgetPolicy, FaultPlan, StatusBoard, TransportKind};
use anor_telemetry::ops::{OpsServer, StatusProvider};
use anor_telemetry::{close_sinks, open_sinks, FlightRecorder};
use anor_types::{Args, Seconds, Watts};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    if let Err(e) = run() {
        eprintln!("anord: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let listen = args.get("listen").unwrap_or("127.0.0.1:0");
    let policy: BudgetPolicy = args.get("policy").unwrap_or("even-slowdown").parse()?;
    let feedback = args.flag("feedback");
    let tick_ms: u64 = args.get_or("tick-ms", 10)?;
    let expect_jobs: usize = args.get_or("expect-jobs", 0)?;
    let duration_secs: f64 = args.get_or("duration-secs", 0.0)?;
    // Power objective: a targets file ladder, or else a constant budget.
    let targets: Vec<(Seconds, Watts)> = match args.get("targets") {
        Some(path) => {
            let file = std::fs::File::open(path)?;
            anor_aqa::schedule::parse_power_targets(std::io::BufReader::new(file))?
        }
        None => Vec::new(),
    };
    let budget: f64 = if targets.is_empty() {
        args.get_or("budget", 0.0)?
    } else {
        0.0
    };
    if budget <= 0.0 && targets.is_empty() {
        return Err("need --budget WATTS or --targets FILE".into());
    }

    let (telemetry, tracer) = open_sinks(args.get("telemetry"), args.get("trace"))?;
    // Connection plane: --transport reactor --shards N runs the sharded
    // reactor for high endpoint fan-in; the default blocking plane polls
    // sockets inline on the pump thread.
    let transport: TransportKind = args.get("transport").unwrap_or("blocking").parse()?;
    let shards: usize = match transport {
        TransportKind::Reactor => args.get_or("shards", 2)?,
        TransportKind::Blocking => 1,
    };
    let cfg = BudgeterConfig::new(policy, feedback);
    let mut builder = ClusterBudgeter::builder(cfg.clone())
        .addr(listen)
        .telemetry(telemetry.clone())
        .transport(transport)
        .shards(shards)
        .tracer(&tracer);
    if let Some(plan) = FaultPlan::from_args(&args)? {
        builder = builder.faults(plan);
    }
    // --record <dir>: flight-record every inbound frame and emitted
    // decision into <dir>/anord.rec for `anor-replay`.
    let mut recorder = FlightRecorder::off();
    if let Some(dir) = args.get("record") {
        let seed: u64 = args.get_or("seed", 0)?;
        let meta = anor_cluster::recorder_meta(&cfg, &LeaseConfig::default(), seed);
        recorder = FlightRecorder::create(std::path::Path::new(dir).join("anord.rec"), meta)?;
        builder = builder.recorder(recorder.clone());
    }
    // The live ops plane: --status-addr starts the introspection endpoint
    // (`/metrics`, `/health`, `/status`) and has the budgeter publish a
    // status snapshot each control pass.
    let status_addr = args.get("status-addr");
    args.finish()?;
    let mut ops = None;
    if let Some(status_addr) = status_addr {
        let board = StatusBoard::new();
        builder = builder.status(board.clone());
        let provider: StatusProvider = Arc::new(move || board.render_json());
        ops = Some(OpsServer::bind(status_addr, telemetry.clone(), provider)?);
    }
    let (mut daemon, addr) = builder.bind()?;
    println!("anord listening on {addr}");
    if let Some(server) = &ops {
        println!("anord status on {}", server.local_addr());
    }
    std::io::stdout().flush()?;

    let start = Instant::now();
    let mut reported = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if duration_secs > 0.0 && elapsed >= duration_secs {
            break;
        }
        let target = if targets.is_empty() {
            Watts(budget)
        } else {
            // Piecewise-constant ladder relative to daemon start.
            targets
                .iter()
                .rev()
                .find(|(t, _)| t.value() <= elapsed)
                .map(|&(_, w)| w)
                .unwrap_or(targets[0].1)
        };
        daemon.pump(target)?;
        while reported < daemon.completed().len() {
            let (job, elapsed_s) = daemon.completed()[reported];
            println!("anord: {job} done after {elapsed_s:.1}");
            std::io::stdout().flush()?;
            reported += 1;
        }
        if expect_jobs > 0 && daemon.completed().len() >= expect_jobs {
            println!("anord: all {expect_jobs} expected jobs completed");
            break;
        }
        std::thread::sleep(Duration::from_millis(tick_ms));
    }
    print!("{}", close_sinks(&telemetry, &tracer)?);
    recorder.flush()?;
    if let Some(path) = recorder.path() {
        println!(
            "anord: recording written to {} ({} event(s), {} dropped)",
            path.display(),
            recorder.written(),
            recorder.dropped()
        );
    }
    Ok(())
}
