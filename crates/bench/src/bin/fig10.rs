//! Regenerates Fig. 10: mean execution-time slowdown per job type under
//! a 1-hour schedule with time-varying power caps, across the Uniform /
//! Characterized / Misclassified / Adjusted policies, plus the tracking
//! error summary of Section 6.3.

use anor_bench::{args, close_run, header, or_exit, run_options, scaled};
use anor_core::experiments::fig10::{self, Fig10Config, Fig10Policy};
use anor_types::Seconds;

fn main() {
    let args = args();
    let cfg = Fig10Config {
        horizon: scaled(Seconds(3600.0), Seconds(900.0)),
        options: run_options(&args),
        ..Fig10Config::default()
    };
    or_exit(args.finish());
    header(
        "Fig. 10",
        "Mean slowdown (%) per job type, 4 capping policies (95% CI)",
    );
    let out = fig10::run(&cfg).expect("demand-response run failed");
    println!(
        "{:>14} {:>10} {:>12} {:>9} {:>6}",
        "policy", "job type", "slowdown_%", "ci95_%", "n"
    );
    for c in &out.cells {
        println!(
            "{:>14} {:>10} {:>12.2} {:>9.2} {:>6}",
            c.policy.label(),
            c.type_name,
            c.mean_slowdown,
            c.ci95,
            c.instances
        );
    }
    println!();
    println!(
        "worst-type slowdown: uniform {:.1}% -> characterized {:.1}% (paper: 11.6% -> 8.0%)",
        out.worst(Fig10Policy::Uniform),
        out.worst(Fig10Policy::Characterized)
    );
    for (policy, p90) in &out.tracking_p90 {
        println!(
            "tracking p90 error [{}]: {:.1}% of reserve (paper: worst 24%, others <17%)",
            policy.label(),
            p90 * 100.0
        );
    }
    close_run(&cfg.options);
}
