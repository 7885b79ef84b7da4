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
//! The `*_from_args` helpers parse the flags the figure binaries share
//! (`--telemetry`, `--trace`, `--jobs`, `--faults`, `--record`), and
//! [`run_hw_figure`] is the whole `main` of the emulated-hardware
//! figures (Figs. 6–8). The harness imports the
//! workspace crates it uses directly; the root `anor` crate is the
//! facade for everyone else.

pub mod analyze;

use anor_core::experiments::hw::{HwBar, HwRunOptions};
use anor_core::render::render_bars;

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

/// Parse a `--jobs N` command-line option for the experiment fan-out
/// worker count. Returns 0 when absent or malformed, which lets
/// [`anor_exec`] fall back to `ANOR_JOBS` and then the machine's
/// available parallelism. Output is identical for every value — `--jobs`
/// only changes wall-clock time.
pub fn jobs_from_args() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--jobs" {
            if let Some(n) = args.next() {
                match n.parse::<usize>() {
                    Ok(n) => return n,
                    Err(_) => {
                        eprintln!("--jobs {n}: not a number; using automatic worker count");
                        return 0;
                    }
                }
            }
        }
    }
    0
}

/// Build the run's [`Telemetry`](anor_telemetry::Telemetry) sink from a
/// `--telemetry <dir>` command-line option: directory-backed when the
/// option is present (events stream to `<dir>/events.jsonl`), in-memory
/// otherwise. Unknown options are ignored so figure binaries stay
/// permissive.
pub fn telemetry_from_args() -> anor_telemetry::Telemetry {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--telemetry" {
            if let Some(dir) = args.next() {
                match anor_telemetry::Telemetry::to_dir(&dir) {
                    Ok(t) => return t,
                    Err(e) => {
                        eprintln!("--telemetry {dir}: {e}; falling back to in-memory telemetry");
                        break;
                    }
                }
            }
        }
    }
    anor_telemetry::Telemetry::new()
}

/// Flush telemetry artifacts and, when directory-backed, print the
/// end-of-run summary table and where the artifacts went.
pub fn finish_telemetry(telemetry: &anor_telemetry::Telemetry) {
    if let Some(dir) = telemetry.dir() {
        let dir = dir.to_path_buf();
        match telemetry.write_artifacts() {
            Ok(summary) => {
                println!();
                println!("{summary}");
                println!("telemetry artifacts written to {}", dir.display());
            }
            Err(e) => eprintln!("failed to write telemetry artifacts: {e}"),
        }
    }
}

/// Build a chaos [`FaultPlan`](anor_cluster::FaultPlan) from a
/// `--faults <spec>` command-line option (e.g.
/// `--faults drop@17,corrupt@42,delay@5:3`), seeded from an optional
/// `--fault-seed N`. Returns `None` when absent; a malformed spec is an
/// operator error and aborts the run rather than silently running
/// fault-free.
pub fn faults_from_args() -> Option<anor_cluster::FaultPlan> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = {
        let mut it = argv.iter();
        let mut found = None;
        while let Some(arg) = it.next() {
            if arg == "--faults" {
                found = it.next();
                break;
            }
        }
        found?
    };
    let seed = {
        let mut it = argv.iter();
        let mut seed = 0x5eed_u64;
        while let Some(arg) = it.next() {
            if arg == "--fault-seed" {
                if let Some(s) = it.next() {
                    match s.parse() {
                        Ok(n) => seed = n,
                        Err(_) => {
                            eprintln!("--fault-seed {s}: not a number");
                            std::process::exit(2);
                        }
                    }
                }
            }
        }
        seed
    };
    match anor_cluster::FaultPlan::parse(spec) {
        Ok(plan) => Some(plan.seeded(seed)),
        Err(e) => {
            eprintln!("--faults {spec}: {e}");
            std::process::exit(2);
        }
    }
}

/// Print the greppable end-of-run chaos summary (only meaningful when a
/// fault plan was active): session reconnects, injected faults, expired
/// leases and currently reclaimed watts, all read from the shared
/// telemetry handle.
pub fn chaos_summary(telemetry: &anor_telemetry::Telemetry) {
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

/// Parse a `--record <dir>` command-line option for budgeter flight
/// recording. Creates the directory eagerly so a typo'd path fails the
/// run before hours of emulation; returns `None` when the option is
/// absent. The figure runners write one `.rec` per emulated cell,
/// replayable with `anor-replay --verify`.
pub fn record_dir_from_args() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--record" {
            if let Some(dir) = args.next() {
                let dir = std::path::PathBuf::from(dir);
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("--record {}: {e}", dir.display());
                    std::process::exit(2);
                }
                return Some(dir);
            }
        }
    }
    None
}

/// Print where a `--record` run's flight recordings went and how to
/// verify them.
pub fn finish_recording(record_dir: &Option<std::path::PathBuf>) {
    if let Some(dir) = record_dir {
        println!();
        println!(
            "flight recordings written to {}; verify with: anor-replay --rec <file> --verify",
            dir.display()
        );
    }
}

/// Build the run's causal [`Tracer`](anor_telemetry::Tracer) from a
/// `--trace <dir>` command-line option: directory-backed when present
/// (events stream to `<dir>/trace.jsonl`, flight-recorder postmortems
/// land beside it), off otherwise. Unknown options are ignored so
/// figure binaries stay permissive.
pub fn tracer_from_args() -> anor_telemetry::Tracer {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            if let Some(dir) = args.next() {
                match anor_telemetry::Tracer::to_dir(&dir) {
                    Ok(t) => return t,
                    Err(e) => {
                        eprintln!("--trace {dir}: {e}; tracing disabled");
                        return anor_telemetry::Tracer::off();
                    }
                }
            }
        }
    }
    anor_telemetry::Tracer::off()
}

/// Flush the tracer and print where the trace went and how to analyze it.
pub fn finish_tracer(tracer: &anor_telemetry::Tracer) {
    if let Err(e) = tracer.flush() {
        eprintln!("failed to flush trace sink: {e}");
    }
    if let Some(dir) = tracer.dir() {
        println!();
        println!(
            "trace written to {} ({} event(s)); analyze with: anor-trace {}",
            dir.join("trace.jsonl").display(),
            tracer.recorded(),
            dir.display()
        );
    }
}

/// The whole `main` of the emulated-hardware figure binaries (Figs. 6–8):
/// print the header, parse the five shared flags (`--telemetry`,
/// `--trace`, `--faults`, `--record`, `--jobs`) into one
/// [`HwRunOptions`], run the figure for `trials` trials from `seed`,
/// render each bar and the paper `anchors`, then close the sinks.
pub fn run_hw_figure(
    figure: &str,
    summary: &str,
    run: fn(usize, u64, &HwRunOptions) -> anor_types::Result<Vec<HwBar>>,
    trials: usize,
    seed: u64,
    anchors: &str,
) {
    header(figure, summary);
    let opts = HwRunOptions {
        telemetry: telemetry_from_args(),
        tracer: tracer_from_args(),
        faults: faults_from_args(),
        record_dir: record_dir_from_args(),
        jobs: jobs_from_args(),
    };
    let bars = run(trials, seed, &opts).expect("emulated run failed");
    for bar in &bars {
        println!("{}", render_bars(&bar.label, &bar.jobs));
    }
    println!("{anchors}");
    if opts.faults.is_some() {
        chaos_summary(&opts.telemetry);
    }
    finish_telemetry(&opts.telemetry);
    finish_tracer(&opts.tracer);
    finish_recording(&opts.record_dir);
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
