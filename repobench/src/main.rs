//! Run one benchmark workload and print its result.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <dr_emulated|fleet_replay|sim_100k> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is 0 only when the
//! run's correctness gate passed.

use repobench::{harness, run_workload, Opts, Scale, DEFAULT_SEED, WORKLOADS};

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: repobench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10u64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            usage(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag}: not a number: {value}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number(),
            "--seconds" => seconds = number(),
            "--trace" => trace = number() != 0,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let Some(workload) = workload else {
        usage("--workload is required");
    };
    let opts = Opts::new(seed, seconds, trace);
    let Some(outcome) = run_workload(&workload, &opts, Scale::Full) else {
        usage(&format!("unknown workload {workload}"));
    };
    for note in &outcome.notes {
        println!("# {note}");
    }
    for gate in &outcome.gate {
        println!("# GATE FAILED: {gate}");
    }
    // Run diagnostics, printed beside every timing and never gated: how
    // fast the host was just before the run, and the process's CPU time
    // against its wall time.
    println!(
        "# {workload}: host.ref_ms {:.3}, process.cpu_s {:.3}, process.wall_s {:.3}",
        opts.host_ref_ms,
        harness::cpu_seconds(),
        opts.started.elapsed().as_secs_f64()
    );
    println!("{}", outcome.result_line());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
