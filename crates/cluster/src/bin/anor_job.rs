//! `anor-job` — a standalone job-tier process.
//!
//! Runs one job end-to-end: simulated compute nodes under a GEOPM
//! runtime, the per-job power modeler, and the endpoint process that
//! connects to `anord` over TCP (Fig. 2's compute-node column). Virtual
//! time is paced at `--speedup`× real time so hour-long benchmarks replay
//! in seconds while the daemon interaction happens over real sockets.
//!
//! ```text
//! anor-job --connect 127.0.0.1:5533 --job-id 1 --type bt.D.81 \
//!          --announce is.D.32 --seed 3 --speedup 200
//! ```
//!
//! On completion, prints the job's GEOPM-style report to stdout. With
//! `--telemetry <dir>`, events stream to `<dir>/events.jsonl` and a
//! Prometheus exposition plus summary table are written on exit. With
//! `--trace <dir>`, cap receipts, policy/MSR writes and sample sends are
//! recorded to `<dir>/trace.jsonl` for `anor-trace`. With
//! `--faults drop@17,corrupt@42` (and optional `--fault-seed N`), a
//! seeded chaos schedule is injected into the endpoint's send path; the
//! endpoint reconnects with backoff and resumes its session. With
//! `--record <dir>`, the endpoint's wire traffic (inbound caps, outbound
//! samples/models, session transitions) is flight-recorded to
//! `<dir>/job-<id>.rec` for inspection with `anor-replay`.

use anor_cluster::{Args, JobEndpoint};
use anor_geopm::JobRuntime;
use anor_model::{ModelerConfig, PowerModeler};
use anor_platform::Node;
use anor_telemetry::{FlightRecorder, RecordingMeta, Telemetry, Tracer};
use anor_types::{standard_catalog, JobId, NodeId, Seconds};
use std::time::Duration;

fn main() {
    if let Err(e) = run() {
        eprintln!("anor-job: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::from_env()?;
    let connect: std::net::SocketAddr = args.required("connect")?.parse()?;
    let job = JobId(args.get_or("job-id", 0u64)?);
    let type_name = args.required("type")?.to_string();
    let announced = args.get("announce").unwrap_or(&type_name).to_string();
    let seed: u64 = args.get_or("seed", 1)?;
    let speedup: f64 = args.get_or("speedup", 200.0)?;
    let tick_ms: u64 = args.get_or("tick-ms", 5)?;
    let dither = !args.flag("no-dither");

    let catalog = standard_catalog();
    let spec = catalog
        .find(&type_name)
        .ok_or_else(|| format!("unknown job type `{type_name}`"))?
        .clone();
    let nodes_wanted: u32 = args.get_or("nodes", spec.nodes)?;
    let believed = catalog.find(&announced).unwrap_or(&spec).clone();

    let telemetry = match args.get("telemetry") {
        Some(dir) => Telemetry::to_dir(dir)?,
        None => Telemetry::new(),
    };
    let nodes: Vec<Node> = (0..nodes_wanted).map(|i| Node::paper(NodeId(i))).collect();
    let (mut runtime, modeler_side) = JobRuntime::launch(job, spec.clone(), nodes, seed)?;
    runtime.attach_telemetry(&telemetry);
    let mut mcfg = ModelerConfig::paper();
    if !dither {
        mcfg.dither_fraction = 0.0;
    }
    let mut modeler = PowerModeler::with_precharacterized(mcfg, believed.epoch_curve());
    modeler.attach_telemetry(&telemetry);
    let tracer = match args.get("trace") {
        Some(dir) => Some(Tracer::to_dir(dir)?),
        None => None,
    };
    let mut builder = JobEndpoint::builder(
        connect.into(),
        job,
        &announced,
        nodes_wanted,
        modeler_side,
        modeler,
    )
    .telemetry(telemetry.clone());
    if let Some(plan) = args.fault_plan()? {
        builder = builder.faults(plan);
    }
    if let Some(t) = &tracer {
        builder = builder.tracer(t);
    }
    // --record <dir>: flight-record the endpoint's wire traffic into
    // <dir>/job-<id>.rec (role "endpoint" — inspectable, not replayable).
    let mut recorder = None;
    if let Some(dir) = args.get("record") {
        let meta = RecordingMeta {
            seed,
            config: format!(
                "job={} type={type_name} announced={announced} nodes={nodes_wanted}",
                job.0
            ),
            role: "endpoint".to_string(),
        };
        let path = std::path::Path::new(dir).join(format!("job-{}.rec", job.0));
        let rec = FlightRecorder::create(path, meta)?;
        builder = builder.recorder(rec.clone());
        recorder = Some(rec);
    }
    let mut endpoint = builder.connect()?;
    if let Some(t) = &tracer {
        runtime.attach_tracer(t);
    }

    let dt = Seconds(0.5);
    let mut now = Seconds::ZERO;
    let real_tick = Duration::from_millis(tick_ms);
    let virtual_per_tick = speedup * real_tick.as_secs_f64();
    loop {
        // Advance virtual time in dt steps to match the wall tick.
        let mut advanced = 0.0;
        let mut done = runtime.is_done();
        while advanced < virtual_per_tick && !done {
            done = runtime.step(dt)?;
            now += dt;
            advanced += dt.value();
            endpoint.pump(now)?;
        }
        if done || endpoint.shutdown_requested() {
            break;
        }
        std::thread::sleep(real_tick);
    }
    endpoint.finish(runtime.elapsed())?;
    print!("{}", runtime.report().render());
    if telemetry.dir().is_some() {
        let summary = telemetry.write_artifacts()?;
        println!("{summary}");
    }
    if let Some(t) = &tracer {
        t.flush()?;
        if let Some(dir) = t.dir() {
            println!(
                "anor-job: trace written to {}",
                dir.join("trace.jsonl").display()
            );
        }
    }
    if let Some(rec) = &recorder {
        rec.flush()?;
        println!(
            "anor-job: recording written to {} ({} event(s), {} dropped)",
            rec.path().display(),
            rec.written(),
            rec.dropped()
        );
    }
    Ok(())
}
