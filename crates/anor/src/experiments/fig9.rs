//! Fig. 9: time-varying cluster power targets and measurements over an
//! hour of job arrivals from 6 job types (Section 6.3). The power target
//! changes once every 4 seconds; the objective is to *follow* the target,
//! not merely stay below it.

use anor_aqa::{poisson_schedule, PowerTarget, RegulationSignal, TrackingRecorder};
use anor_cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
use anor_telemetry::{Telemetry, Tracer};
use anor_types::{Result, Seconds, Watts};

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct Fig9Config {
    /// Schedule horizon (paper: 1 hour).
    pub horizon: Seconds,
    /// Target node utilization of the arrivals (paper: 95%).
    pub utilization: f64,
    /// Committed average power P̄.
    pub avg: Watts,
    /// Committed reserve R.
    pub reserve: Watts,
    /// Determinism seed.
    pub seed: u64,
    /// Tracking statistics exclude this initial fill-up window (the
    /// paper's hour starts from a warm cluster).
    pub warmup: Seconds,
    /// Telemetry sink for the emulated cluster (in-memory by default;
    /// the `fig9` binary passes a directory-backed sink for
    /// `--telemetry <dir>`).
    pub telemetry: Telemetry,
    /// Causal tracer (off by default; the `--trace <dir>` path of the
    /// `fig9` binary).
    pub tracer: Tracer,
}

impl Default for Fig9Config {
    fn default() -> Self {
        // The committed band is sized to the emulated cluster's
        // achievable range (paper: 2.3–4.5 kW on hardware whose job mix
        // reaches closer to TDP; see EXPERIMENTS.md).
        Fig9Config {
            horizon: Seconds(3600.0),
            utilization: 0.95,
            avg: Watts(3200.0),
            reserve: Watts(900.0),
            seed: 9,
            warmup: Seconds(180.0),
            telemetry: Telemetry::new(),
            tracer: Tracer::off(),
        }
    }
}

/// The tracking results.
#[derive(Debug, Clone)]
pub struct Fig9Output {
    /// `(time, target, measured)` per tick, within the horizon.
    pub trace: Vec<(Seconds, Watts, Watts)>,
    /// 90th-percentile tracking error (fraction of reserve).
    pub p90_error: f64,
    /// Fraction of ticks within the 30% error limit.
    pub within_30: f64,
    /// Mean |measured − target| / target — the "within 8% of target"
    /// claim in the paper's abstract is this quantity.
    pub mean_relative_miss: f64,
}

/// Run the scenario.
pub fn run(cfg: &Fig9Config) -> Result<Fig9Output> {
    let ecfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, false)
        .with_telemetry(cfg.telemetry.clone())
        .with_tracer(cfg.tracer.clone());
    let catalog = ecfg.catalog.clone();
    let types = catalog.long_running();
    let submissions = poisson_schedule(
        &catalog,
        &types,
        cfg.utilization,
        ecfg.nodes,
        cfg.horizon,
        cfg.seed,
    );
    let jobs: Vec<JobSetup> = submissions
        .iter()
        .map(|s| JobSetup::known(&catalog[s.type_id].name).at(s.time))
        .collect();
    let target = PowerTarget {
        avg: cfg.avg,
        reserve: cfg.reserve,
        signal: RegulationSignal::random_walk(
            Seconds(4.0),
            0.35,
            cfg.horizon + Seconds(3600.0),
            cfg.seed ^ 0x5157,
        ),
    };
    let cluster = EmulatedCluster::new(ecfg);
    let report = cluster.run_demand_response(&jobs, target, true)?;
    // Evaluate tracking within the schedule horizon only (the paper's
    // hour), not the drain tail.
    let trace: Vec<(Seconds, Watts, Watts)> = report
        .power_trace
        .iter()
        .copied()
        .filter(|(t, _, _)| t.value() <= cfg.horizon.value())
        .collect();
    let mut recorder = TrackingRecorder::new(cfg.reserve);
    let mut rel_miss = 0.0;
    let mut n = 0usize;
    for &(t, target, measured) in &trace {
        if t.value() < cfg.warmup.value() {
            continue;
        }
        recorder.push(target, measured);
        rel_miss += (measured - target).abs().value() / target.value();
        n += 1;
    }
    let n = n.max(1) as f64;
    Ok(Fig9Output {
        p90_error: recorder.percentile_error(90.0),
        within_30: recorder.fraction_within(0.30),
        mean_relative_miss: rel_miss / n,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_tracks_target() {
        let cfg = Fig9Config {
            horizon: Seconds(600.0),
            seed: 4,
            ..Fig9Config::default()
        };
        let out = run(&cfg).unwrap();
        assert!(!out.trace.is_empty());
        // After warm-up the cluster should follow the target most of the
        // time; the constraint is 30% error for 90% of time — a short
        // window with cold start won't hit 90%, but must clear half.
        assert!(
            out.within_30 > 0.5,
            "within-30% fraction {} too low",
            out.within_30
        );
        assert!(
            out.mean_relative_miss < 0.25,
            "mean relative miss {}",
            out.mean_relative_miss
        );
        // Trace stays within the horizon.
        assert!(out.trace.iter().all(|(t, _, _)| t.value() <= 600.0 + 1e-9));
    }
}
