//! The repository benchmark: three seeded, closed-loop workloads that
//! drive the program only through its public functions, each on one
//! thread of one process, as fast as it goes.
//!
//! - `dr_emulated` ([`dr`]): the paper's whole loop on the 16-node
//!   emulated cluster (`EmulatedCluster::run_demand_response`).
//! - `fleet_replay` ([`fleet`]): 4096 synthetic job endpoints replayed
//!   without sockets from a generated budgeter recording
//!   (`read_recording` + `replay`).
//! - `sim_100k` ([`sim`]): a 100k-node `TabularSim` (`new` + `step`).
//!
//! An untraced run (`--trace 0`) reports the [`END_TO_END`] metrics; a
//! traced run (`--trace 1`) reports the [`PER_LAYER`] metrics, read from
//! spans around the benchmark's calls and from what each layer already
//! publishes. Every run checks the program's outputs: a run whose gate
//! fails reports `correct: false` and exits non-zero.

pub mod dr;
pub mod fleet;
pub mod harness;
pub mod sim;

use harness::Outcome;

/// The seed whose outputs are pinned by golden values.
pub const DEFAULT_SEED: u64 = 10;

/// The workloads, in the order the benchmark documents them.
pub const WORKLOADS: [&str; 3] = ["dr_emulated", "fleet_replay", "sim_100k"];

/// Run options shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    pub trace: bool,
    /// When the process started.
    pub started: std::time::Instant,
    /// The host reference kernel, timed just before the workload.
    pub host_ref_ms: f64,
}

impl Opts {
    pub fn new(seed: u64, seconds: u64, trace: bool) -> Self {
        Opts {
            seed,
            seconds,
            trace,
            started: std::time::Instant::now(),
            host_ref_ms: harness::host_ref_ms(),
        }
    }
}

/// Problem size: the benchmark's own, or a small one for self-tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// A reported metric and what it should track.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// For a per-layer metric: the end-to-end metric and workload it
    /// should move.
    pub moves: &'static str,
}

const fn def(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        moves,
    }
}

/// What a user of the system sees; measured with tracing off.
#[rustfmt::skip]
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower", "program set-up before the first pass"),
    def("virtual_s_per_s", "s/s", "higher", "virtual control-loop seconds per wall second"),
    def("pass_p99_ms", "ms", "lower", "99th-percentile host time of one control pass"),
    def("peak_rss_mb", "MB", "lower", "peak resident memory of the process"),
    def("tracking_p90_pct", "%", "lower", "grid-facing 90th-percentile tracking error"),
    def("mean_slowdown_pct", "%", "lower", "job-facing mean slowdown"),
];

/// Per-layer metrics of the traced run. A workload that does not use a
/// layer reports 0 for it.
#[rustfmt::skip]
pub const PER_LAYER: &[MetricDef] = &[
    def("emulator.tick_us.p50", "us", "lower", "virtual_s_per_s on dr_emulated"),
    def("emulator.tick_us.p99", "us", "lower", "virtual_s_per_s on dr_emulated"),
    def("geopm.runtime_step_us.p50", "us", "lower", "virtual_s_per_s on dr_emulated"),
    def("geopm.runtime_steps", "count", "lower", "virtual_s_per_s on dr_emulated"),
    def("model.retrains", "count", "lower", "virtual_s_per_s on dr_emulated"),
    def("trace.observed_to_retrain_ms.p50", "ms", "lower", "virtual_s_per_s on dr_emulated"),
    def("trace.observed_to_retrain_ms.p99", "ms", "lower", "virtual_s_per_s on dr_emulated"),
    def("budgeter.ingest_us.p50", "us", "lower", "virtual_s_per_s and pass_p99_ms on dr_emulated"),
    def("budgeter.ingest_us.p99", "us", "lower", "virtual_s_per_s and pass_p99_ms on dr_emulated"),
    def("codec.frames_rx", "count", "lower", "virtual_s_per_s and pass_p99_ms on dr_emulated"),
    def("codec.bytes_rx", "bytes", "lower", "virtual_s_per_s and pass_p99_ms on dr_emulated"),
    def("codec.decode_ns_per_frame", "ns", "lower", "virtual_s_per_s on fleet_replay"),
    def("recorder.read_s", "s", "lower", "setup_s and peak_rss_mb on fleet_replay"),
    def("recorder.events", "count", "lower", "setup_s and peak_rss_mb on fleet_replay"),
    def("recorder.bytes", "bytes", "lower", "setup_s and peak_rss_mb on fleet_replay"),
    def("budgeter.lease_audit_us.p50", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.model_observe_us.p50", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.decide_us.p50", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.decide_us.p99", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.actuate_us.p50", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.invariant_audit_us.p50", "us", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("budgeter.resend_frac", "ratio", "lower", "pass_p99_ms and virtual_s_per_s on fleet_replay"),
    def("policy.assign_even_slowdown_ms.p50", "ms", "lower", "pass_p99_ms on fleet_replay"),
    def("policy.assign_even_slowdown_ms.p99", "ms", "lower", "pass_p99_ms on fleet_replay"),
    def("trace.decision_to_msr_ms.p50", "ms", "lower", "virtual_s_per_s on dr_emulated"),
    def("trace.decision_to_msr_ms.p99", "ms", "lower", "virtual_s_per_s on dr_emulated"),
    def("trace.complete_frac", "ratio", "higher", "virtual_s_per_s on dr_emulated"),
    def("sim.step_us.p50", "us", "lower", "virtual_s_per_s on sim_100k"),
    def("sim.step_ms.p99", "ms", "lower", "pass_p99_ms on sim_100k"),
    def("sim.recap_ticks", "count", "lower", "virtual_s_per_s and pass_p99_ms on sim_100k"),
    def("sim.build_s", "s", "lower", "setup_s on sim_100k"),
    def("sim.state_hash_ms", "ms", "lower", "virtual_s_per_s on sim_100k"),
    def("process.cpu_s", "s", "lower", "every workload: CPU time of the traced run"),
    def("process.wall_s", "s", "lower", "every workload: wall time of the traced run"),
    def("host.ref_ms", "ms", "lower", "every workload: host speed before the run"),
    def("trace.overhead_pct", "%", "lower", "every workload: traced wall / untraced wall - 1"),
];

/// The per-layer values of one traced run, all zero until set.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<(&'static str, f64)>,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: PER_LAYER.iter().map(|d| (d.name, 0.0)).collect(),
        }
    }
}

impl Layers {
    /// Set a per-layer metric; the name must be one of [`PER_LAYER`].
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .values
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        slot.1 = value;
    }

    /// Report every per-layer metric into `out`, in table order.
    pub fn report(&self, out: &mut Outcome) {
        for (d, (_, v)) in PER_LAYER.iter().zip(&self.values) {
            out.metric(d.name, *v, d.unit);
        }
    }
}

/// The end-to-end values of one untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub virtual_s_per_s: f64,
    pub pass_p99_ms: f64,
    pub tracking_p90_pct: f64,
    pub mean_slowdown_pct: f64,
}

impl EndToEnd {
    /// Report every end-to-end metric into `out`, peak memory included.
    pub fn report(&self, out: &mut Outcome) {
        out.metric("setup_s", self.setup_s, "s");
        out.metric("virtual_s_per_s", self.virtual_s_per_s, "s/s");
        out.metric("pass_p99_ms", self.pass_p99_ms, "ms");
        out.metric("peak_rss_mb", harness::peak_rss_mb(), "MB");
        out.metric("tracking_p90_pct", self.tracking_p90_pct, "%");
        out.metric("mean_slowdown_pct", self.mean_slowdown_pct, "%");
    }
}

/// Seed of the job schedules `dr_emulated` and `sim_100k` replay; 10 is
/// Fig. 10's. The schedules are fixed because how full the queue runs
/// swings tracking error and pass rate more than any program change the
/// benchmark should see; the run seed draws the grid target and the
/// program's noise (emulator noise, per-node variation) instead.
pub const SCHEDULE_SEED: u64 = 10;

/// The seed of input variant `k` of a run seeded `seed`; variant 0 is
/// the seed itself.
pub fn variant_seed(seed: u64, k: usize) -> u64 {
    seed ^ ((k as u64) << 48)
}

/// Results of a timed loop: `(variant, result)` per call.
pub type Calls<T> = Vec<(usize, T)>;

/// Call `iterate(traced, variant)` back to back for `opts.seconds`, after
/// one untimed call that lets caches fill and lazy set-up finish.
///
/// Untraced calls cycle through the `variants` input variants and the
/// loop ends on a whole cycle, so every variant runs equally often. A
/// traced run follows each untraced call with a traced call on the same
/// variant, so its overhead compares like with like. Returns the
/// (untraced, traced) calls.
pub fn timed_loop<T>(
    opts: &Opts,
    variants: usize,
    mut iterate: impl FnMut(bool, usize) -> T,
) -> (Calls<T>, Calls<T>) {
    drop(iterate(false, 0));
    let started = std::time::Instant::now();
    let (mut plain, mut traced): (Calls<T>, Calls<T>) = (Vec::new(), Vec::new());
    loop {
        let paired = !opts.trace || traced.len() == plain.len();
        if paired
            && !plain.is_empty()
            && plain.len() % variants == 0
            && started.elapsed().as_secs_f64() >= opts.seconds as f64
        {
            return (plain, traced);
        }
        if paired {
            let v = plain.len() % variants;
            plain.push((v, iterate(false, v)));
        } else {
            let v = plain[traced.len()].0;
            traced.push((v, iterate(true, v)));
        }
    }
}

/// Mean over variants of the `q`-quantile of each variant's values, so
/// every variant weighs alike.
pub fn variant_mean(values: &[(usize, f64)], q: f64) -> f64 {
    let variants: std::collections::BTreeSet<usize> = values.iter().map(|(v, _)| *v).collect();
    let medians: Vec<f64> = variants
        .iter()
        .map(|&v| {
            let xs: Vec<f64> = values
                .iter()
                .filter(|(w, _)| *w == v)
                .map(|(_, x)| *x)
                .collect();
            harness::quantile(&xs, q)
        })
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Gate: every call must behave exactly like the first call on its
/// variant.
pub fn check_repeats<T>(
    calls: &[&(usize, T)],
    behaviour: impl Fn(&T) -> Vec<(&'static str, String)>,
    out: &mut Outcome,
) {
    for (v, value) in calls {
        let first = calls
            .iter()
            .find(|(w, _)| w == v)
            .map(|(_, f)| behaviour(f));
        if first != Some(behaviour(value)) {
            out.gate.push(format!(
                "repeated calls on variant {v} disagree: not deterministic"
            ));
            return;
        }
    }
}

/// Which quantile of a variant's per-call pass rates stands for it.
/// Every call on a variant repeats identical work, so their spread is
/// the host's: it shifts for seconds at a time and only ever slows a
/// call down, so the fast end of the calls tracks the program more
/// steadily than their median does.
pub const RATE_QUANTILE: f64 = 0.9;

/// Traced wall over untraced wall, minus one, in percent.
pub fn overhead_pct(untraced_wall: &[f64], traced_wall: &[f64]) -> f64 {
    (harness::median(traced_wall) / harness::median(untraced_wall) - 1.0) * 100.0
}

/// Close a traced run: add the process rows, write the spans out and
/// report every per-layer metric.
pub fn finish_traced(
    layers: &mut Layers,
    spans: &harness::Spans,
    workload: &str,
    opts: &Opts,
    out: &mut Outcome,
) {
    layers.set("process.cpu_s", harness::cpu_seconds());
    layers.set("process.wall_s", opts.started.elapsed().as_secs_f64());
    layers.set("host.ref_ms", opts.host_ref_ms);
    let path = harness::out_dir().join(format!("spans-{workload}-{}.jsonl", opts.seed));
    match spans.write_jsonl(&path) {
        Ok(()) => out.notes.push(format!(
            "{workload}: {} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out
            .notes
            .push(format!("{workload}: spans not written: {e}")),
    }
    layers.report(out);
}

/// Run one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &Opts, scale: Scale) -> Option<Outcome> {
    match name {
        "dr_emulated" => Some(dr::run(opts, scale)),
        "fleet_replay" => Some(fleet::run(opts, scale)),
        "sim_100k" => Some(sim::run(opts, scale)),
        _ => None,
    }
}
