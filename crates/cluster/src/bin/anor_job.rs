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

use anor_cluster::{FaultPlan, JobEndpoint};
use anor_geopm::JobRuntime;
use anor_model::{ModelerConfig, PowerModeler};
use anor_platform::Node;
use anor_telemetry::{close_sinks, open_sinks, FlightRecorder, RecordingMeta};
use anor_types::{standard_catalog, Args, JobId, NodeId, Seconds};
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
    let (telemetry_dir, trace_dir) = (args.get("telemetry"), args.get("trace"));
    let faults = FaultPlan::from_args(&args)?;
    let record_dir = args.get("record");
    // Refuse the command line before creating any sink or recording.
    args.finish()?;

    let (telemetry, tracer) = open_sinks(telemetry_dir, trace_dir)?;
    let nodes: Vec<Node> = (0..nodes_wanted).map(|i| Node::paper(NodeId(i))).collect();
    let (mut runtime, modeler_side) = JobRuntime::launch(job, spec.clone(), nodes, seed)?;
    runtime.attach_telemetry(&telemetry);
    let mut mcfg = ModelerConfig::paper();
    if !dither {
        mcfg.dither_fraction = 0.0;
    }
    let mut modeler = PowerModeler::with_precharacterized(mcfg, believed.epoch_curve());
    modeler.attach_telemetry(&telemetry);
    let mut builder = JobEndpoint::builder(
        connect.into(),
        job,
        &announced,
        nodes_wanted,
        modeler_side,
        modeler,
    )
    .telemetry(telemetry.clone())
    .tracer(&tracer);
    if let Some(plan) = faults {
        builder = builder.faults(plan);
    }
    // --record <dir>: flight-record the endpoint's wire traffic into
    // <dir>/job-<id>.rec (role "endpoint" — inspectable, not replayable).
    let mut recorder = FlightRecorder::off();
    if let Some(dir) = record_dir {
        let meta = RecordingMeta {
            seed,
            config: format!(
                "job={} type={type_name} announced={announced} nodes={nodes_wanted}",
                job.0
            ),
            role: "endpoint".to_string(),
        };
        let path = std::path::Path::new(dir).join(format!("job-{}.rec", job.0));
        recorder = FlightRecorder::create(path, meta)?;
        builder = builder.recorder(recorder.clone());
    }
    let mut endpoint = builder.connect()?;
    runtime.attach_tracer(&tracer);

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
    print!("{}", close_sinks(&telemetry, &tracer)?);
    recorder.flush()?;
    if let Some(path) = recorder.path() {
        println!(
            "anor-job: recording written to {} ({} event(s), {} dropped)",
            path.display(),
            recorder.written(),
            recorder.dropped()
        );
    }
    Ok(())
}
