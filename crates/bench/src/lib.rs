#![warn(missing_docs)]
//! # anor-bench
//!
//! The benchmark harness: one `fig*` binary per figure of the paper's
//! evaluation (regenerating the figure's rows/series as text tables), the
//! ablation binaries DESIGN.md calls out, and `perfsuite`, the
//! performance trajectory harness.
//!
//! Run a figure:
//!
//! ```text
//! cargo run --release -p anor-bench --bin fig9
//! ```
//!
//! Set `ANOR_QUICK=1` to shrink trial counts / horizons for smoke runs.
//!
//! Every binary parses its command line once ([`args`], the workspace's
//! one parser, [`anor_types::Args`]), reads only the options it honours
//! (the shared ones through [`jobs`], [`finish_with_sinks`] and
//! [`finish_with_run_options`]) and then calls [`Args::finish`] through
//! [`or_exit`], which refuses any other option: a malformed, unusable or
//! unread option exits 2 with the error before the run starts, and
//! before any `--telemetry`, `--trace` or `--record` path is created. [`run_hw_figure`] is the whole `main` of the
//! emulated-hardware figures (Figs. 6–8). The harness imports the
//! workspace crates it uses directly; the root `anor` crate is the
//! facade for everyone else.

pub mod analyze;

use anor_cluster::FaultPlan;
use anor_core::experiments::hw::{HwBar, HwRunOptions};
use anor_core::render::render_bars;
use anor_telemetry::{close_sinks, open_sinks, Telemetry, Tracer};
use anor_types::Args;
use std::path::PathBuf;

/// True when the `ANOR_QUICK` environment variable requests a scaled-down
/// run.
pub fn quick_mode() -> bool {
    std::env::var("ANOR_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Pick between the paper-scale and quick values.
pub fn scaled<T>(full: T, quick: T) -> T {
    if quick_mode() {
        quick
    } else {
        full
    }
}

/// Print a standard header for a figure binary.
pub fn header(figure: &str, summary: &str) {
    println!("=== {figure} ===");
    println!("{summary}");
    if quick_mode() {
        println!("(ANOR_QUICK set: reduced trials/horizon)");
    }
    println!();
}

/// The process's command line, parsed once by the workspace's one
/// parser; a malformed command line exits 2 with the error.
pub fn args() -> Args {
    or_exit(Args::from_env())
}

/// The value of `result`, or exit 2 with its error: a malformed or
/// unusable option value, or a sink that cannot be written, ends the run
/// instead of falling back to a default.
pub fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Refuse every option the binary did not read ([`Args::finish`]
/// through [`or_exit`]), then open the run's telemetry and tracer from
/// `--telemetry <dir>` and `--trace <dir>`
/// ([`anor_telemetry::open_sinks`]): directory-backed when given,
/// in-memory and off otherwise. It takes the command line last, after
/// every other read, so a refused command line creates no file.
pub fn finish_with_sinks(args: Args) -> (Telemetry, Tracer) {
    let (telemetry_dir, trace_dir) = (args.get("telemetry"), args.get("trace"));
    or_exit(args.finish());
    or_exit(open_sinks(telemetry_dir, trace_dir))
}

/// The experiment fan-out's worker count from `--jobs N`; 0 when absent,
/// which lets [`anor_exec`] fall back to `ANOR_JOBS` and then the
/// machine's available parallelism. Output is identical for every value
/// — `--jobs` only changes wall-clock time.
pub fn jobs(args: &Args) -> usize {
    or_exit(args.get_or("jobs", 0))
}

/// The five options of the emulated-hardware figures (Figs. 6–8 and 10)
/// as one [`HwRunOptions`]: the [`jobs`] count, the `--faults` chaos plan
/// ([`FaultPlan::from_args`]), then [`finish_with_sinks`], then the
/// `--record` directory, created here so a typo'd path fails the run
/// before hours of emulation and a refused command line creates none.
pub fn finish_with_run_options(args: Args) -> HwRunOptions {
    let jobs = jobs(&args);
    let faults = or_exit(FaultPlan::from_args(&args));
    let record_dir = args.get("record").map(PathBuf::from);
    let (telemetry, tracer) = finish_with_sinks(args);
    if let Some(dir) = &record_dir {
        or_exit(
            std::fs::create_dir_all(dir).map_err(|e| format!("--record {}: {e}", dir.display())),
        );
    }
    HwRunOptions {
        telemetry,
        tracer,
        jobs,
        faults,
        record_dir,
    }
}

/// Close an emulated-hardware run: the chaos summary when a fault plan
/// was active, then the sinks, then where the flight recordings went and
/// how to verify them.
pub fn close_run(opts: &HwRunOptions) {
    if opts.faults.is_some() {
        chaos_summary(&opts.telemetry);
    }
    print!("{}", or_exit(close_sinks(&opts.telemetry, &opts.tracer)));
    if let Some(dir) = &opts.record_dir {
        println!();
        println!(
            "flight recordings written to {}; verify with: anor-replay --rec <file> --verify",
            dir.display()
        );
    }
}

/// Print the greppable end-of-run chaos summary (only meaningful when a
/// fault plan was active): session reconnects, injected faults, expired
/// leases and currently reclaimed watts, all read from the shared
/// telemetry handle.
fn chaos_summary(telemetry: &Telemetry) {
    let reconnects = telemetry
        .counter("endpoint_session_reconnects_total", &[])
        .get();
    let injected = telemetry
        .counter("transport_faults_injected_total", &[("role", "endpoint")])
        .get()
        + telemetry
            .counter("transport_faults_injected_total", &[("role", "budgeter")])
            .get();
    let expired = telemetry.counter("leases_expired_total", &[]).get();
    let reclaimed = telemetry.gauge("watts_reclaimed", &[]).get();
    println!(
        "chaos: reconnects={reconnects} faults_injected={injected} \
         leases_expired={expired} watts_reclaimed={reclaimed:.1}"
    );
}

/// The whole `main` of the emulated-hardware figure binaries (Figs. 6–8):
/// read the five shared options into one [`HwRunOptions`], print the
/// header, run the figure for `trials` trials from `seed`, render each
/// bar and the paper `anchors`, then close the run ([`close_run`]).
pub fn run_hw_figure(
    figure: &str,
    summary: &str,
    run: fn(usize, u64, &HwRunOptions) -> anor_types::Result<Vec<HwBar>>,
    trials: usize,
    seed: u64,
    anchors: &str,
) {
    let opts = finish_with_run_options(args());
    header(figure, summary);
    let bars = run(trials, seed, &opts).expect("emulated run failed");
    for bar in &bars {
        println!("{}", render_bars(&bar.label, &bar.jobs));
    }
    println!("{anchors}");
    close_run(&opts);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_picks_by_env() {
        // The env var is process-global; only assert consistency.
        if quick_mode() {
            assert_eq!(scaled(10, 2), 2);
        } else {
            assert_eq!(scaled(10, 2), 10);
        }
    }
}
