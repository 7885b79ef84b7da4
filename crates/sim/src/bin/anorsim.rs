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
use anor_platform::PerformanceVariation;
use anor_policy::BudgetPolicy;
use anor_sim::{dump_tables, write_history_csv, SimConfig, TabularSim};
use anor_telemetry::{close_sinks, open_sinks};
use anor_types::{AnorError, Args, QosDegradation, Seconds, Watts};
use std::io::Write;

fn main() {
    if let Err(e) = run() {
        eprintln!("anorsim: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let positive = |v: f64| v.is_finite() && v > 0.0;
    let non_negative = |v: f64| v.is_finite() && v >= 0.0;
    let nodes: u32 = option(&args, "nodes", 1000, "at least 1", |n| n >= 1)?;
    let in_unit = |u: f64| (0.0..=1.0).contains(&u);
    let utilization = option(&args, "utilization", 0.75, "in [0, 1]", in_unit)?;
    let horizon = Seconds(option(
        &args,
        "horizon-secs",
        7200.0,
        "finite and > 0",
        positive,
    )?);
    let variation_pct = option(&args, "variation-pct", 0.0, "finite and >= 0", non_negative)?;
    let seed: u64 = args.get_or("seed", 11)?;
    let policy: BudgetPolicy = args.get("policy").unwrap_or("uniform").parse()?;
    // Scale job footprints with cluster size, like the paper's 25×.
    let scale = (nodes as f64 / 40.0).round().max(1.0) as u32;
    let catalog = anor_types::standard_catalog().scale_nodes(scale);
    let types = catalog.long_running();
    if let Some(spec) = types
        .iter()
        .map(|&id| &catalog[id])
        .find(|t| t.nodes > nodes)
    {
        return Err(AnorError::config(format!(
            "option --nodes: {nodes} nodes cannot hold a {} job ({} nodes)",
            spec.name, spec.nodes
        ))
        .into());
    }
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
    let avg_default = 0.88 * nodes as f64 * (utilization * mean_draw + (1.0 - utilization) * 90.0);
    let avg = Watts(option(
        &args,
        "avg-watts",
        avg_default,
        "finite and > 0",
        positive,
    )?);
    let reserve_default = avg.value() * 0.12;
    let reserve = Watts(option(
        &args,
        "reserve-watts",
        reserve_default,
        "finite and >= 0",
        non_negative,
    )?);
    let schedule = poisson_schedule(&cfg.catalog, &cfg.types, utilization, nodes, horizon, seed);
    let target = PowerTarget {
        avg,
        reserve,
        signal: RegulationSignal::random_walk(Seconds(4.0), 0.35, horizon * 3.0, seed ^ 0x51),
    };
    let variation =
        PerformanceVariation::with_level_percent(nodes as usize, variation_pct, seed ^ 0xfe);
    let (telemetry_dir, trace_dir) = (args.get("telemetry"), args.get("trace"));
    let history_cap: Option<usize> = match args.get("history-cap") {
        Some(_) => Some(args.get_or("history-cap", 0)?),
        None => None,
    };
    let tables_path = args.get("tables");
    let dump_every: u64 = match tables_path {
        Some(_) => option(&args, "tables-every", 60, "at least 1", |k| k >= 1)?,
        None => 60,
    };
    let history_path = args.get("history");
    // Refuse the command line before creating any sink or output file.
    args.finish()?;

    let (telemetry, tracer) = open_sinks(telemetry_dir, trace_dir)?;
    let mut sim = TabularSim::new(cfg.clone(), target, &variation, schedule, None);
    sim.attach_telemetry(&telemetry);
    sim.attach_tracer(&tracer);
    match history_cap {
        Some(cap) => sim.record_history_capped(cap),
        None => sim.record_history(true),
    }
    let mut tables_out: Option<std::io::BufWriter<std::fs::File>> = match tables_path {
        Some(p) => Some(std::io::BufWriter::new(std::fs::File::create(p)?)),
        None => None,
    };

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
    if let Some(path) = history_path {
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
    print!("{}", close_sinks(&telemetry, &tracer)?);
    Ok(())
}

/// Option `--{key}` parsed (`default` when absent), or a config error
/// saying it must be `need` unless `ok` accepts it.
fn option<T: std::str::FromStr + std::fmt::Display + Copy>(
    args: &Args,
    key: &str,
    default: T,
    need: &str,
    ok: impl Fn(T) -> bool,
) -> Result<T, AnorError> {
    let value = args.get_or(key, default)?;
    if ok(value) {
        return Ok(value);
    }
    Err(AnorError::config(format!(
        "option --{key}: {value} is out of range (must be {need})"
    )))
}
