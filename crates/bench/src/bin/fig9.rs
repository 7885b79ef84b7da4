//! Regenerates Fig. 9: time-varying cluster power targets and measured
//! power over an hour of job arrivals, plus the Section 6.3 tracking
//! error summary.

use anor_bench::{args, finish_with_sinks, header, or_exit, scaled};
use anor_core::experiments::fig9::{self, Fig9Config};
use anor_telemetry::close_sinks;
use anor_types::Seconds;

fn main() {
    let (telemetry, tracer) = finish_with_sinks(args());
    header(
        "Fig. 9",
        "Power target vs measured power over a 1-hour schedule",
    );
    let cfg = Fig9Config {
        horizon: scaled(Seconds(3600.0), Seconds(600.0)),
        telemetry: telemetry.clone(),
        tracer: tracer.clone(),
        ..Fig9Config::default()
    };
    let out = fig9::run(&cfg).expect("demand-response run failed");
    // Print a downsampled trace (one row per ~30 s) — the figure's series.
    println!("{:>8} {:>12} {:>12}", "time_s", "target_w", "measured_w");
    let stride = (out.trace.len() / 120).max(1);
    for (t, target, measured) in out.trace.iter().step_by(stride) {
        println!(
            "{:>8.0} {:>12.1} {:>12.1}",
            t.value(),
            target.value(),
            measured.value()
        );
    }
    println!();
    println!(
        "tracking: p90 error {:.1}% of reserve (constraint: <=30% for 90% of time)",
        out.p90_error * 100.0
    );
    println!(
        "          within-30%% fraction {:.1}% (constraint: >=90%)",
        out.within_30 * 100.0
    );
    println!(
        "          mean |measured-target|/target = {:.1}% (paper abstract: ~8%)",
        out.mean_relative_miss * 100.0
    );
    print!("{}", or_exit(close_sinks(&telemetry, &tracer)));
}
