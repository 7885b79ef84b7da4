//! `fleet_replay`: 4096 synthetic job endpoints replayed without sockets
//! through `anor_cluster::replay`, from a seeded, generated budgeter
//! recording. The budgeter runs even-slowdown with feedback on; the
//! fleet registers with `Hello`, then sends the per-job `Sample`,
//! `Model` and `Done` mix `dr_emulated` measures, rides out a reconnect
//! storm with lease expiries and resumes, and sees a busy budget that
//! random-walks between loose and near the 140 W/node min-cap floor.
//! Policy `assign` and the O(jobs) pass phases dominate; no physics, no
//! sockets.

use crate::harness::{check_goldens, median, out_dir, quantile, Outcome, Spans};
use crate::{EndToEnd, Layers, Opts, Scale};
use anor_cluster::{
    describe_config, replay, BudgetPolicy, BudgeterConfig, LeaseConfig, ReplayOptions,
    ReplayOutcome,
};
use anor_policy::{Budgeter, EvenSlowdownBudgeter, JobView};
use anor_telemetry::{
    config_digest, read_recording, RecEvent, Recording, RECORDING_MAGIC, RECORDING_VERSION,
};
use anor_types::msg::{EpochSample, JobToCluster};
use anor_types::{standard_catalog, JobId, JobTypeSpec, Joules, PowerCurve, Seconds, Watts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-job traffic mix, per pass a job holds a session, taken from
/// `dr_emulated`'s own counters on seed 10 (its traced run prints the
/// derivation as its `dr_emulated mix:` line, for Fig. 10's schedule):
/// 48,991 Sample, 2,254 Model and 198 Done frames over 97,897 job-passes
/// (199 jobs, 9,067 passes). A finished job is replaced by a new one,
/// which registers with `Hello`, so the fleet keeps its size.
pub const SAMPLE_PER_JOB_PASS: f64 = 0.50043;
pub const MODEL_PER_JOB_PASS: f64 = 0.02302;
pub const DONE_PER_JOB_PASS: f64 = 0.002023;

/// The control tick the recording's timestamps advance by.
const TICK_S: f64 = 0.5;
/// Recording reads timed before the loop; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Budgets `policy.assign` is timed at, spread over the recording.
const ASSIGN_BUDGETS: usize = 64;

/// Size of a generated fleet.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Job endpoints holding a session at once.
    pub jobs: usize,
    /// Control passes recorded.
    pub passes: u64,
    /// Lease miss budget, in passes.
    pub miss_pumps: u32,
}

impl FleetSpec {
    pub fn at(scale: Scale) -> Self {
        match scale {
            Scale::Full => FleetSpec {
                jobs: 4096,
                passes: 600,
                miss_pumps: 20,
            },
            Scale::Small => FleetSpec {
                jobs: 256,
                passes: 120,
                miss_pumps: 20,
            },
        }
    }
}

/// What the generator wrote, as the benchmark needs it later.
#[derive(Debug, Clone)]
pub struct Fleet {
    pub path: PathBuf,
    /// FNV-1a of the file: the same seed must give the same bytes.
    pub digest: u64,
    pub bytes: u64,
    /// Σ over passes of jobs holding a lease when the pass decides.
    pub job_passes: u64,
    /// `Resume` frames, each answered by a `ResumeAck` decision frame.
    pub resumes: u64,
    /// The job types the fleet draws from.
    pub specs: Vec<JobTypeSpec>,
    /// Index into `specs` of every job id the recording registers.
    pub job_types: Vec<usize>,
    /// Views of the fleet's first registrations, for `policy.assign`.
    pub views: Vec<JobView>,
    /// Busy budget of every pass, in order.
    pub budgets: Vec<f64>,
}

enum Session {
    Up,
    /// Disconnected at pass `since`, reconnecting at pass `back_at`.
    Down {
        since: u64,
        back_at: u64,
    },
}

struct Endpoint {
    job: u64,
    spec: usize,
    conn: u32,
    session: Session,
    epochs: u64,
}

/// Streams recorded events in the flight-recorder file format.
struct Writer {
    out: BufWriter<std::fs::File>,
    ts_nanos: u64,
}

impl Writer {
    fn record(&mut self, tag: u8, payload: &[u8]) -> std::io::Result<()> {
        let len = (1 + 8 + payload.len()) as u32;
        self.out.write_all(&len.to_be_bytes())?;
        self.out.write_all(&[tag])?;
        self.out.write_all(&self.ts_nanos.to_be_bytes())?;
        self.out.write_all(payload)
    }

    fn conn(&mut self, tag: u8, conn: u32) -> std::io::Result<()> {
        self.record(tag, &conn.to_be_bytes())
    }

    /// A `FrameIn`: the message body without the 4-byte length prefix
    /// `encode()` adds.
    fn frame(&mut self, conn: u32, msg: &JobToCluster) -> std::io::Result<()> {
        let framed = msg.encode();
        let mut payload = conn.to_be_bytes().to_vec();
        payload.extend_from_slice(&framed[4..]);
        self.record(2, &payload)
    }
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u16).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// The recording's budgeter configuration.
fn config(miss_pumps: u32) -> String {
    describe_config(
        &BudgeterConfig::new(BudgetPolicy::EvenSlowdown, true),
        &LeaseConfig::after_misses(miss_pumps),
    )
}

/// Generate the fleet's recording at `path`. The same seed and spec give
/// a byte-identical file.
pub fn generate(spec: FleetSpec, seed: u64, path: &Path) -> std::io::Result<Fleet> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let catalog = standard_catalog();
    let specs: Vec<JobTypeSpec> = catalog
        .long_running()
        .into_iter()
        .map(|id| catalog[id].clone())
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf1ee7);
    // The budget trace is part of the fleet's definition, like a grid
    // signal: the same walk for every seed, so the seed varies the fleet
    // and its traffic while the checkpoints see the same budgets.
    let mut walk = StdRng::seed_from_u64(0xb0d6e7);
    let config = config(spec.miss_pumps);
    let mut header = Vec::new();
    header.extend_from_slice(&RECORDING_MAGIC);
    header.extend_from_slice(&RECORDING_VERSION.to_be_bytes());
    header.extend_from_slice(&seed.to_be_bytes());
    header.extend_from_slice(&config_digest(&config).to_be_bytes());
    header.extend_from_slice(&0u32.to_be_bytes());
    push_str(&mut header, env!("CARGO_PKG_VERSION"));
    push_str(&mut header, "unknown");
    push_str(&mut header, &config);
    push_str(&mut header, "budgeter");
    let mut w = Writer {
        out: BufWriter::new(std::fs::File::create(path)?),
        ts_nanos: 0,
    };
    w.out.write_all(&header)?;

    let mut next_job = 0u64;
    let mut next_conn = 0u32;
    let mut fleet: Vec<Endpoint> = (0..spec.jobs)
        .map(|_| {
            let ep = Endpoint {
                job: next_job,
                spec: rng.gen_range(0..specs.len()),
                conn: next_conn,
                session: Session::Up,
                epochs: 0,
            };
            next_job += 1;
            next_conn += 1;
            ep
        })
        .collect();
    let views: Vec<JobView> = fleet
        .iter()
        .map(|e| JobView::from_spec(JobId(e.job), &specs[e.spec]))
        .collect();
    let storm_pass = spec.passes * 2 / 5;
    let mut per_node = 260.0f64;
    let mut out = Fleet {
        path: path.to_path_buf(),
        digest: 0,
        bytes: 0,
        job_passes: 0,
        resumes: 0,
        specs: Vec::new(),
        job_types: fleet.iter().map(|e| e.spec).collect(),
        views,
        budgets: Vec::with_capacity(spec.passes as usize),
    };
    for pass in 1..=spec.passes {
        w.ts_nanos = (pass as f64 * TICK_S * 1e9) as u64;
        // Lease holders at this pass's decide: connected, or disconnected
        // for fewer passes than the lease allows.
        let holds = |e: &Endpoint| match e.session {
            Session::Up => true,
            Session::Down { since, .. } => pass + 1 - since < u64::from(spec.miss_pumps),
        };
        out.job_passes += fleet.iter().filter(|e| holds(e)).count() as u64;
        let nodes: u32 = fleet
            .iter()
            .filter(|e| holds(e))
            .map(|e| specs[e.spec].nodes)
            .sum();
        // Budget per leased node: a bounded random walk from loose
        // (TDP) down to just above the 140 W floor.
        per_node = (per_node + walk.gen_range(-12.0f64..12.0)).clamp(145.0, 285.0);
        let budget = per_node * f64::from(nodes);
        out.budgets.push(budget);
        let mut payload = pass.to_be_bytes().to_vec();
        payload.extend_from_slice(&budget.to_bits().to_be_bytes());
        w.record(1, &payload)?;
        if pass == 1 {
            for e in &fleet {
                w.conn(3, e.conn)?;
                w.frame(e.conn, &hello(e, &specs))?;
            }
            continue;
        }
        if pass == storm_pass {
            // Reconnect storm: a fifth of the fleet drops at once. Most
            // resume within a few passes; a quarter stay away past their
            // lease, are reclaimed, then resume and are restored.
            for e in fleet.iter_mut() {
                if rng.gen::<f64>() < 0.2 {
                    let away = if rng.gen::<f64>() < 0.75 {
                        rng.gen_range(1u64..6)
                    } else {
                        u64::from(spec.miss_pumps) + rng.gen_range(5u64..25)
                    };
                    w.conn(4, e.conn)?;
                    e.session = Session::Down {
                        since: pass,
                        back_at: pass + away,
                    };
                }
            }
        }
        for e in fleet.iter_mut() {
            if let Session::Down { back_at, .. } = e.session {
                if back_at != pass {
                    continue;
                }
                // `ConnSlab` never reuses ids: a resume takes a fresh one.
                e.conn = next_conn;
                next_conn += 1;
                e.session = Session::Up;
                w.conn(3, e.conn)?;
                let s = &specs[e.spec];
                w.frame(
                    e.conn,
                    &JobToCluster::Resume {
                        job: JobId(e.job),
                        type_name: s.name.clone(),
                        nodes: s.nodes,
                        believed_cap: Watts(-1.0),
                        cause: 0,
                    },
                )?;
                out.resumes += 1;
                continue;
            }
            let s = &specs[e.spec];
            if rng.gen::<f64>() < SAMPLE_PER_JOB_PASS {
                e.epochs += 1;
                let draw = s.cap_range.min.value()
                    + (s.max_draw.value() - s.cap_range.min.value()) * rng.gen::<f64>();
                let avg_power = draw * f64::from(s.nodes);
                w.frame(
                    e.conn,
                    &JobToCluster::Sample(EpochSample {
                        job: JobId(e.job),
                        epoch_count: e.epochs,
                        energy: Joules(avg_power * pass as f64 * TICK_S),
                        avg_power: Watts(avg_power),
                        avg_cap: Watts(s.max_draw.value() * f64::from(s.nodes)),
                        timestamp: Seconds(pass as f64 * TICK_S),
                        cause: 0,
                    }),
                )?;
            }
            if rng.gen::<f64>() < MODEL_PER_JOB_PASS {
                let t_epoch = s.time_uncapped.value() / s.epochs as f64;
                let sensitivity = s.sensitivity * rng.gen_range(0.8..1.2);
                w.frame(
                    e.conn,
                    &JobToCluster::Model {
                        job: JobId(e.job),
                        curve: PowerCurve::from_anchor(Seconds(t_epoch), sensitivity, s.cap_range),
                        samples: rng.gen_range(10..40),
                        cause: 0,
                    },
                )?;
            }
            if rng.gen::<f64>() < DONE_PER_JOB_PASS {
                // The job finishes and closes; a new one takes its place.
                w.frame(
                    e.conn,
                    &JobToCluster::Done {
                        job: JobId(e.job),
                        elapsed: Seconds(pass as f64 * TICK_S),
                    },
                )?;
                w.conn(4, e.conn)?;
                let kind = rng.gen_range(0..specs.len());
                out.job_types.push(kind);
                *e = Endpoint {
                    job: next_job,
                    spec: kind,
                    conn: next_conn,
                    session: Session::Up,
                    epochs: 0,
                };
                next_job += 1;
                next_conn += 1;
                w.conn(3, e.conn)?;
                w.frame(e.conn, &hello(e, &specs))?;
            }
        }
    }
    w.out.flush()?;
    drop(w);
    let bytes = std::fs::read(path)?;
    out.bytes = bytes.len() as u64;
    out.digest = config_digest_bytes(&bytes);
    out.specs = specs;
    Ok(out)
}

fn hello(e: &Endpoint, specs: &[JobTypeSpec]) -> JobToCluster {
    JobToCluster::Hello {
        job: JobId(e.job),
        type_name: specs[e.spec].name.clone(),
        nodes: specs[e.spec].nodes,
    }
}

/// FNV-1a over raw bytes.
fn config_digest_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Read a budgeter recording (timed) and fill the recorder and codec
/// rows: events, bytes, read time, and the time `JobToCluster::decode`
/// takes per inbound frame body. Returns the recording and its count of
/// `SetPowerCap` decision frames.
pub fn recording_rows(
    path: &Path,
    spans: &mut Spans,
    layers: &mut Layers,
) -> std::io::Result<(Recording, u64)> {
    let span = spans.open("read_recording");
    let started = Instant::now();
    let rec = read_recording(path)?;
    layers.set("recorder.read_s", started.elapsed().as_secs_f64());
    spans.close(span);
    layers.set("recorder.events", rec.events.len() as f64);
    layers.set("recorder.bytes", std::fs::metadata(path)?.len() as f64);
    let bodies: Vec<bytes::Bytes> = rec
        .events
        .iter()
        .filter_map(|e| match &e.event {
            RecEvent::FrameIn { body, .. } => Some(bytes::Bytes::from(body.clone())),
            _ => None,
        })
        .collect();
    let frames = bodies.len();
    let span = spans.open("JobToCluster::decode");
    let started = Instant::now();
    let decoded = bodies
        .into_iter()
        .filter(|b| JobToCluster::decode(b.clone()).is_ok())
        .count();
    let decode_s = started.elapsed().as_secs_f64();
    spans.close(span);
    layers.set(
        "codec.decode_ns_per_frame",
        decode_s * 1e9 / frames.max(1) as f64,
    );
    if decoded != frames {
        return Err(std::io::Error::other(format!(
            "{} of {frames} recorded frames do not decode",
            frames - decoded
        )));
    }
    // Decision frames are recorded as handed to the transport, length
    // prefix included: the tag is byte 4, and 4 is `SetPowerCap`.
    let cap_frames = rec
        .events
        .iter()
        .filter(
            |e| matches!(&e.event, RecEvent::DecisionTx { frame, .. } if frame.get(4) == Some(&4)),
        )
        .count() as u64;
    Ok((rec, cap_frames))
}

/// FNV-1a over the final per-job caps of a replay, in job order.
fn caps_digest(o: &ReplayOutcome) -> u64 {
    let mut bytes = Vec::with_capacity(o.snapshot.jobs.len() * 16);
    for j in &o.snapshot.jobs {
        bytes.extend_from_slice(&j.job.to_be_bytes());
        bytes.extend_from_slice(&j.cap.unwrap_or(-1.0).to_bits().to_be_bytes());
    }
    config_digest_bytes(&bytes)
}

/// One replay of the whole recording.
struct Iteration {
    wall_s: f64,
    outcome: Result<ReplayOutcome, String>,
}

impl Iteration {
    fn behaviour(&self) -> Vec<(&'static str, String)> {
        match &self.outcome {
            Ok(o) => vec![
                ("passes", o.pumps_replayed.to_string()),
                ("cap_frames", o.decisions_checked.to_string()),
                ("caps_digest", format!("{:016x}", caps_digest(o))),
            ],
            Err(e) => vec![("error", e.clone())],
        }
    }
}

/// Golden behaviour of [`crate::DEFAULT_SEED`] at full scale.
pub const GOLDEN: &[(&str, &str)] = &[
    ("recording_digest", "8c123b18ce110a89"),
    ("passes", "600"),
    ("cap_frames", "900402"),
    ("caps_digest", "aa038de49a9fc2f3"),
];

fn replay_once(rec: &Recording, until: Option<u64>) -> Result<ReplayOutcome, String> {
    replay(
        rec,
        &ReplayOptions {
            verify: false,
            until,
        },
    )
    .map_err(|e| e.to_string())
}

/// Grid-facing allocation error and job-facing slowdown at a replay's
/// stop point: `|allocated − budget| / budget`, and the mean slowdown
/// the lease-holding jobs' true curves give at their caps.
fn quality_at(o: &ReplayOutcome, fleet: &Fleet) -> (f64, f64) {
    let s = &o.snapshot;
    let error = (s.allocated_watts - s.budget).abs() / s.budget.max(1.0) * 100.0;
    let slowdowns: Vec<f64> = s
        .jobs
        .iter()
        .filter(|j| !j.done && j.state != "gone")
        .filter_map(|j| {
            let spec = &fleet.specs[*fleet.job_types.get(j.job as usize)?];
            let view = JobView::from_spec(JobId(j.job), spec);
            Some((view.believed_slowdown(Watts(j.cap?)) - 1.0) * 100.0)
        })
        .collect();
    (
        error,
        slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64,
    )
}

/// Run the workload: generate the recording, time its reads, replay it
/// back to back for `opts.seconds`.
pub fn run(opts: &Opts, scale: Scale) -> Outcome {
    let mut out = Outcome::default();
    let spec = FleetSpec::at(scale);
    let path = out_dir().join(format!("fleet-{}-{}.rec", std::process::id(), opts.seed));
    let fleet = match generate(spec, opts.seed, &path) {
        Ok(f) => f,
        Err(e) => {
            out.gate
                .push(format!("cannot generate the fleet recording: {e}"));
            out.failed = 1;
            out.attempted = 1;
            return out;
        }
    };
    let mut spans = Spans::default();
    let mut setup = Vec::new();
    let mut rec = None;
    for _ in 0..SETUP_REPS {
        drop(rec.take());
        let span = spans.open("read_recording");
        let started = Instant::now();
        let read = read_recording(&fleet.path);
        setup.push(started.elapsed().as_secs_f64());
        spans.close(span);
        match read {
            Ok(r) => rec = Some(r),
            Err(e) => out
                .gate
                .push(format!("cannot read the fleet recording: {e}")),
        }
    }
    let Some(rec) = rec else {
        let _ = std::fs::remove_file(&fleet.path);
        out.failed = 1;
        out.attempted = 1;
        return out;
    };
    // Grid- and job-facing quality, judged at four stop points spread
    // over the recording (the last one is every timed replay's end).
    let mut checkpoints: Vec<(f64, f64)> = [1, 2, 3]
        .iter()
        .filter_map(|k| {
            let span = spans.open("replay");
            let o = replay_once(&rec, Some(spec.passes * k / 4));
            spans.close(span);
            o.ok().map(|o| quality_at(&o, &fleet))
        })
        .collect();
    let (plain, traced) = crate::timed_loop(opts, 1, |_, _| {
        let span = spans.open("replay");
        let started = Instant::now();
        let outcome = replay_once(&rec, None);
        let wall_s = started.elapsed().as_secs_f64();
        spans.close(span);
        Iteration { wall_s, outcome }
    });
    let (plain, traced): (Vec<Iteration>, Vec<Iteration>) = (
        plain.into_iter().map(|(_, i)| i).collect(),
        traced.into_iter().map(|(_, i)| i).collect(),
    );
    let first = &plain[0];
    if let Ok(o) = &first.outcome {
        checkpoints.push(quality_at(o, &fleet));
    }
    for it in plain.iter().chain(&traced) {
        match &it.outcome {
            Ok(o) => {
                out.attempted += o.pumps_replayed;
                if o.invariant_violations > 0 {
                    out.failed += o.pumps_replayed;
                    out.gate
                        .push(format!("{} invariant violation(s)", o.invariant_violations));
                } else if o.pumps_replayed != spec.passes {
                    out.failed += spec.passes - o.pumps_replayed.min(spec.passes);
                    out.gate.push(format!(
                        "replayed {} of {} passes",
                        o.pumps_replayed, spec.passes
                    ));
                } else if it.behaviour() != first.behaviour() {
                    out.gate
                        .push("repeated replays disagree: the run is not deterministic".into());
                }
            }
            Err(e) => {
                out.attempted += spec.passes;
                out.failed += spec.passes;
                out.gate.push(format!("replay failed: {e}"));
            }
        }
    }
    if checkpoints.len() != 4 {
        out.gate.push("a checkpoint replay failed".to_string());
    }
    let mut behaviour = vec![("recording_digest", format!("{:016x}", fleet.digest))];
    behaviour.extend(first.behaviour());
    if opts.seed == crate::DEFAULT_SEED && scale == Scale::Full {
        out.gate.extend(check_goldens(&behaviour, GOLDEN));
    }
    out.notes.push(format!(
        "fleet_replay: {} endpoints, {} passes, {} bytes, {} resumes; {} untraced replay(s); \
         pass_p99_ms is the median over replays of each replay's p99 over {} passes; \
         behaviour {:?}",
        spec.jobs,
        spec.passes,
        fleet.bytes,
        fleet.resumes,
        plain.len(),
        spec.passes,
        behaviour
    ));
    let ok: Vec<(&Iteration, &ReplayOutcome)> = plain
        .iter()
        .filter_map(|i| i.outcome.as_ref().ok().map(|o| (i, o)))
        .collect();
    if !opts.trace {
        let rate: Vec<(usize, f64)> = ok
            .iter()
            .map(|(i, o)| (0, o.recorded_wall_s / i.wall_s))
            .collect();
        let p99: Vec<(usize, f64)> = ok
            .iter()
            .map(|(_, o)| (0, o.snapshot.pump_p99 * 1e3))
            .collect();
        out.notes
            .push(crate::harness::series("fleet_replay", &rate, &p99));
        let errors: Vec<f64> = checkpoints.iter().map(|c| c.0).collect();
        let slowdowns: Vec<f64> = checkpoints.iter().map(|c| c.1).collect();
        EndToEnd {
            setup_s: median(&setup),
            virtual_s_per_s: crate::variant_mean(&rate, crate::RATE_QUANTILE),
            pass_p99_ms: crate::variant_mean(&p99, 0.5),
            tracking_p90_pct: quantile(&errors, 0.9),
            mean_slowdown_pct: slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64,
        }
        .report(&mut out);
        let _ = std::fs::remove_file(&fleet.path);
        return out;
    }
    let mut layers = Layers::default();
    if let Some(Ok(o)) = traced.first().map(|i| &i.outcome) {
        let phase = |name: &str, p99: bool| {
            o.snapshot
                .phases
                .iter()
                .find(|p| p.phase == name)
                .map_or(0.0, |p| if p99 { p.p99 } else { p.p50 } * 1e6)
        };
        layers.set("budgeter.ingest_us.p50", phase("ingest", false));
        layers.set("budgeter.ingest_us.p99", phase("ingest", true));
        layers.set("budgeter.lease_audit_us.p50", phase("lease-audit", false));
        layers.set(
            "budgeter.model_observe_us.p50",
            phase("model-observe", false),
        );
        layers.set("budgeter.decide_us.p50", phase("decide", false));
        layers.set("budgeter.decide_us.p99", phase("decide", true));
        layers.set("budgeter.actuate_us.p50", phase("actuate", false));
        layers.set(
            "budgeter.invariant_audit_us.p50",
            phase("invariant-audit", false),
        );
        let cap_frames = o.decisions_checked.saturating_sub(fleet.resumes);
        layers.set(
            "budgeter.resend_frac",
            cap_frames as f64 / fleet.job_passes.max(1) as f64,
        );
    }
    // The policy alone, on the fleet's views at budgets spread over the
    // recording.
    let policy = EvenSlowdownBudgeter::default();
    let step = (fleet.budgets.len() / ASSIGN_BUDGETS).max(1);
    let assign_ms: Vec<f64> = fleet
        .budgets
        .iter()
        .step_by(step)
        .map(|&b| {
            let span = spans.open("EvenSlowdownBudgeter::assign");
            let started = Instant::now();
            std::hint::black_box(policy.assign(Watts(b), std::hint::black_box(&fleet.views)));
            let s = started.elapsed().as_secs_f64();
            spans.close(span);
            s * 1e3
        })
        .collect();
    layers.set(
        "policy.assign_even_slowdown_ms.p50",
        quantile(&assign_ms, 0.5),
    );
    layers.set(
        "policy.assign_even_slowdown_ms.p99",
        quantile(&assign_ms, 0.99),
    );
    drop(rec);
    if let Err(e) = recording_rows(&fleet.path, &mut spans, &mut layers) {
        out.gate
            .push(format!("cannot re-read the fleet recording: {e}"));
    }
    let wall = |v: &[Iteration]| v.iter().map(|i| i.wall_s).collect::<Vec<_>>();
    layers.set(
        "trace.overhead_pct",
        crate::overhead_pct(&wall(&plain), &wall(&traced)),
    );
    crate::finish_traced(&mut layers, &spans, "fleet_replay", opts, &mut out);
    let _ = std::fs::remove_file(&fleet.path);
    out
}
