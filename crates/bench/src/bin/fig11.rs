//! Regenerates Fig. 11: 90th-percentile QoS degradation vs per-node
//! performance-variation level on the simulated 1000-node cluster.

use anor_bench::{args, header, jobs, or_exit, quick_mode, sinks};
use anor_core::experiments::fig11::{self, Fig11Config};
use anor_core::render::render_table;
use anor_telemetry::{close_sinks, TraceStage};

fn main() {
    let args = args();
    let (telemetry, tracer) = sinks(&args);
    let mut cfg = if quick_mode() {
        Fig11Config::quick()
    } else {
        Fig11Config::default()
    };
    cfg.jobs = jobs(&args);
    or_exit(args.finish());
    header(
        "Fig. 11",
        "90th-percentile QoS degradation vs performance variation (1000 nodes)",
    );
    let out = fig11::run(&cfg).expect("simulation failed");
    println!(
        "{}",
        render_table(
            "90th-percentile QoS degradation (err = 90% CI over trials)",
            "level_pct",
            &out.series
        )
    );
    println!("QoS target: Q = 5 (dashed line in the figure)");
    for (level, frac) in &out.tracking_ok_fraction {
        println!(
            "tracking constraint met at ±{level}%: {:.0}% of trials (paper: all levels within constraint)",
            frac * 100.0
        );
        // One event/trace record per variation level: the mean p90 QoS
        // across types and the tracking-constraint pass fraction.
        let mean_qos = {
            let ys: Vec<f64> = out.series.iter().filter_map(|s| s.y_at(*level)).collect();
            if ys.is_empty() {
                0.0
            } else {
                ys.iter().sum::<f64>() / ys.len() as f64
            }
        };
        telemetry.event(
            "fig11_level",
            &[
                ("level_pct", (*level).into()),
                ("mean_p90_qos", mean_qos.into()),
                ("tracking_ok_fraction", (*frac).into()),
            ],
        );
        tracer.record_with(
            TraceStage::Decision,
            tracer.next_cause(),
            None,
            None,
            || {
                format!(
                    "fig11 level ±{level}%: mean p90 QoS {mean_qos:.2}, tracking ok {:.0}%",
                    frac * 100.0
                )
            },
        );
    }
    print!("{}", or_exit(close_sinks(&telemetry, &tracer)));
}
