//! `anorsim` — the standalone tabular cluster simulator.
//!
//! Runs the Section 5.6 simulator from the command line: a cluster of
//! `--nodes` at `--utilization`, tracking a demand-response commitment
//! for `--horizon-secs`, with optional per-node performance variation.
//! Appends per-tick summary rows to `--history FILE` (CSV) and, with
//! `--tables FILE`, the full node/job table dumps the paper describes.
//!
//! ```text
//! anorsim --nodes 1000 --utilization 0.75 --variation-pct 15 \
//!         --horizon-secs 7200 --history run.csv --tables tables.txt
//! ```
//!
//! `--policy` is `uniform` (the default), `even-power`, `even-slowdown`
//! or `even-slowdown+qos`. The last exempts jobs projected to miss their
//! QoS bound from capping and runs only here: the daemon projects no
//! at-risk flags.
//!
//! With `--telemetry <dir>`, per-tick timing and table-size metrics
//! stream to JSONL/Prometheus/summary artifacts in the directory. With
//! `--trace <dir>`, capping decisions and their first observed effect
//! stream to `<dir>/trace.jsonl` for `anor-trace`.
//!
//! Large clusters: `--history-cap K` bounds history to the last K rows
//! (`0` disables retention entirely).

use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal};
use anor_cluster::Args;
use anor_platform::PerformanceVariation;
use anor_policy::BudgetPolicy;
use anor_sim::{dump_tables, write_history_csv, SimConfig, TabularSim};
use anor_telemetry::{Telemetry, Tracer};
use anor_types::{QosDegradation, Seconds, Watts};
use std::io::Write;

fn main() {
    if let Err(e) = run() {
        eprintln!("anorsim: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let nodes: u32 = args.get_or("nodes", 1000)?;
    let utilization: f64 = args.get_or("utilization", 0.75)?;
    let horizon = Seconds(args.get_or("horizon-secs", 7200.0)?);
    let variation_pct: f64 = args.get_or("variation-pct", 0.0)?;
    let seed: u64 = args.get_or("seed", 11)?;
    let policy: BudgetPolicy = args.get("policy").unwrap_or("uniform").parse()?;
    // Scale job footprints with cluster size, like the paper's 25×.
    let scale = (nodes as f64 / 40.0).round().max(1.0) as u32;
    let catalog = anor_types::standard_catalog().scale_nodes(scale);
    let types = catalog.long_running();
    let cfg = SimConfig {
        total_nodes: nodes,
        idle_power: Watts(90.0),
        catalog,
        types,
        tick: Seconds(1.0),
        policy,
        qos: Default::default(),
        qos_risk_threshold: 0.8,
    };
    let mean_draw: f64 = cfg
        .types
        .iter()
        .map(|&id| cfg.catalog[id].max_draw.value())
        .sum::<f64>()
        / cfg.types.len() as f64;
    let avg = Watts(args.get_or(
        "avg-watts",
        0.88 * nodes as f64 * (utilization * mean_draw + (1.0 - utilization) * 90.0),
    )?);
    let reserve = Watts(args.get_or("reserve-watts", avg.value() * 0.12)?);
    let schedule = poisson_schedule(&cfg.catalog, &cfg.types, utilization, nodes, horizon, seed);
    let target = PowerTarget {
        avg,
        reserve,
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, horizon * 3.0, seed ^ 0x51),
    };
    let variation =
        PerformanceVariation::with_level_percent(nodes as usize, variation_pct, seed ^ 0xfe);
    let telemetry = match args.get("telemetry") {
        Some(dir) => Telemetry::to_dir(dir)?,
        None => Telemetry::new(),
    };
    let tracer = match args.get("trace") {
        Some(dir) => Some(Tracer::to_dir(dir)?),
        None => None,
    };
    let mut sim = TabularSim::new(cfg.clone(), target, &variation, schedule, None);
    sim.attach_telemetry(&telemetry);
    if let Some(t) = &tracer {
        sim.attach_tracer(t);
    }
    match args.get("history-cap") {
        Some(cap) => sim.record_history_capped(cap.parse::<usize>()?),
        None => sim.record_history(true),
    }

    let tables_path = args.get("tables").map(String::from);
    let mut tables_out: Option<std::io::BufWriter<std::fs::File>> = match &tables_path {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => None,
    };
    let dump_every: u64 = args.get_or("tables-every", 60)?;

    eprintln!(
        "anorsim: {nodes} nodes, util {utilization}, policy {}, bid {avg:.0} ± {reserve:.0}",
        policy.name()
    );
    let warmup = horizon * 0.1;
    let mut tick: u64 = 0;
    let mut warm = false;
    while sim.now().value() < horizon.value() {
        sim.step();
        tick += 1;
        if !warm && sim.now().value() >= warmup.value() {
            sim.reset_tracking();
            warm = true;
        }
        if let Some(out) = tables_out.as_mut() {
            if tick.is_multiple_of(dump_every) {
                dump_tables(out, sim.now(), &sim.nodes(), &sim.jobs())?;
            }
        }
    }
    sim.freeze_tracking();
    // Drain.
    let drain_end = horizon * 3.0;
    while sim.outcome().unfinished > 0 && sim.now().value() < drain_end.value() {
        sim.step();
    }
    if let Some(mut out) = tables_out {
        out.flush()?;
    }
    if let Some(path) = args.get("history") {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        write_history_csv(&mut f, sim.history())?;
        f.flush()?;
    }

    // Summary to stdout.
    let out = sim.outcome();
    println!(
        "completed {} jobs, {} unfinished",
        out.completed, out.unfinished
    );
    println!(
        "tracking: p90 error {:.1}% of reserve, within-30% {:.1}%",
        out.tracking_p90 * 100.0,
        out.tracking_within_30 * 100.0
    );
    for (id, qs) in &out.qos_by_type {
        let p90 = cfg.qos.percentile_degradation(qs);
        println!(
            "qos[{}]: n={} p90={}",
            cfg.catalog[*id].name,
            qs.len(),
            p90.map_or("-".to_string(), |q| format!("{q:.2}")),
        );
    }
    let all: Vec<QosDegradation> = out
        .qos_by_type
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    println!(
        "qos[all]: p90={} (target Q <= {} at {:.0}%)",
        cfg.qos
            .percentile_degradation(&all)
            .map_or("-".to_string(), |q| format!("{q:.2}")),
        cfg.qos.limit,
        cfg.qos.probability * 100.0
    );
    if telemetry.dir().is_some() {
        let summary = telemetry.write_artifacts()?;
        println!("{summary}");
    }
    if let Some(t) = &tracer {
        t.flush()?;
        if let Some(dir) = t.dir() {
            println!(
                "anorsim: trace written to {}",
                dir.join("trace.jsonl").display()
            );
        }
    }
    Ok(())
}
