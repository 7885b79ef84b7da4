//! Regenerates Fig. 4: estimated job slowdown when 8 job types each run
//! one instance under a range of shared power budgets, comparing the
//! even-slowdown (ideal) and even-power-caps budgeters.

use anor_bench::{args, header, jobs, or_exit, sinks};
use anor_core::experiments::fig4;
use anor_core::render::render_table;
use anor_telemetry::{close_sinks, TraceStage};

fn main() {
    let args = args();
    let (telemetry, tracer) = sinks(&args);
    let jobs = jobs(&args);
    or_exit(args.finish());
    header(
        "Fig. 4",
        "Job slowdown (%) vs shared cluster budget, two budgeters",
    );
    let out = fig4::run(jobs);
    println!(
        "{}",
        render_table(
            "Even Slowdown (Ideal) budgeter",
            "budget_w",
            &out.even_slowdown
        )
    );
    println!(
        "{}",
        render_table("Even Power Caps budgeter", "budget_w", &out.even_power)
    );
    // One event/trace record per (policy, budget) point, carrying the
    // worst per-type slowdown — the quantity the figure argues about.
    for (policy, series) in [
        ("even_slowdown", &out.even_slowdown),
        ("even_power", &out.even_power),
    ] {
        for &budget in &fig4::budgets() {
            let worst = series
                .iter()
                .map(|s| s.y_at(budget).unwrap_or(0.0))
                .fold(0.0, f64::max);
            telemetry.event(
                "fig4_point",
                &[
                    ("policy", policy.into()),
                    ("budget_w", budget.into()),
                    ("worst_slowdown_pct", worst.into()),
                ],
            );
            tracer.record_with(
                TraceStage::Decision,
                tracer.next_cause(),
                None,
                Some(budget),
                || format!("fig4 {policy} worst {worst:.2}%"),
            );
        }
    }
    // Paper anchor: even-slowdown reduces the worst job's slowdown in the
    // mid-range; no flexibility at the extremes.
    for budget in [1500.0, 2100.0, 2700.0, 3000.0] {
        let worst = |series: &[anor_core::render::Series]| {
            series
                .iter()
                .map(|s| s.y_at(budget).unwrap_or(0.0))
                .fold(0.0, f64::max)
        };
        println!(
            "budget {budget:>6.0} W: worst slowdown even-power {:>6.2}% vs even-slowdown {:>6.2}%",
            worst(&out.even_power),
            worst(&out.even_slowdown)
        );
    }
    print!("{}", or_exit(close_sinks(&telemetry, &tracer)));
}
