//! Multi-hour demand response with hourly re-bidding.
//!
//! Section 4.4.1: "The bidding decision is made once per hour,
//! influencing the range of power targets that will be received until
//! the next bid. ... New power targets arrive once every few seconds."
//! This runner chains hours over one continuous simulated cluster: at
//! each hour boundary the bidder re-searches (P̄, R) against the coming
//! hour's forecast utilization, the commitment switches, and tracking is
//! scored per hour.

use crate::bidding::{choose_hourly_bid, BiddingConfig};
use anor_aqa::{poisson_schedule, Bid, JobSubmission, PowerTarget, RegulationSignal};
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, TabularSim};
use anor_types::{Result, Seconds, Watts};

/// Per-hour forecast and outcome.
#[derive(Debug, Clone)]
pub struct HourSummary {
    /// Hour index from the start of the run.
    pub hour: usize,
    /// Forecast utilization the bid was chosen against.
    pub utilization: f64,
    /// The committed bid (None = the cluster declined; it then holds the
    /// previous commitment).
    pub bid: Option<Bid>,
    /// 90th-percentile tracking error within the hour.
    pub tracking_p90: f64,
    /// Fraction of the hour within the 30% error limit.
    pub within_30: f64,
    /// Jobs completed by the end of this hour (cumulative).
    pub completed: u32,
}

/// Scenario parameters.
#[derive(Debug, Clone)]
pub struct MultiHourConfig {
    /// The simulated cluster.
    pub sim: SimConfig,
    /// Forecast utilization per hour (also drives the arrivals).
    pub hourly_utilization: Vec<f64>,
    /// Determinism seed.
    pub seed: u64,
    /// Tracking probability required of candidate bids (relax for small
    /// clusters whose power granularity is coarse).
    pub bid_tracking_probability: f64,
}

/// Run the scenario: one continuous cluster, re-bid at each hour.
pub fn run(cfg: &MultiHourConfig) -> Result<Vec<HourSummary>> {
    assert!(!cfg.hourly_utilization.is_empty(), "need at least one hour");
    let hour = Seconds(3600.0);
    // Build the full arrival schedule hour by hour at each hour's
    // utilization.
    let mut schedule: Vec<JobSubmission> = Vec::new();
    for (h, &util) in cfg.hourly_utilization.iter().enumerate() {
        let base = hour * h as f64;
        let mut part = poisson_schedule(
            &cfg.sim.catalog,
            &cfg.sim.types,
            util,
            cfg.sim.total_nodes,
            hour,
            cfg.seed ^ ((h as u64 + 1) << 8),
        );
        for s in &mut part {
            s.time += base;
        }
        schedule.extend(part);
    }
    let variation = PerformanceVariation::none(cfg.sim.total_nodes as usize);
    // Placeholder commitment until the first bid lands.
    let initial = PowerTarget {
        avg: Watts(cfg.sim.total_nodes as f64 * 200.0),
        reserve: Watts(cfg.sim.total_nodes as f64 * 25.0),
        signal: RegulationSignal::Constant(0.0),
    };
    let mut sim = TabularSim::new(cfg.sim.clone(), initial, &variation, schedule, None);
    let mut out = Vec::with_capacity(cfg.hourly_utilization.len());
    let mut previous_bid: Option<Bid> = None;
    for (h, &util) in cfg.hourly_utilization.iter().enumerate() {
        // Hourly bidding decision against the coming hour's forecast.
        let mut bcfg = BiddingConfig::new(cfg.sim.clone(), util, cfg.seed ^ (h as u64));
        bcfg.horizon = Seconds(900.0);
        bcfg.grid_steps = 3;
        bcfg.tracking.probability = cfg.bid_tracking_probability;
        let bid = choose_hourly_bid(&bcfg)?;
        let committed = bid.or(previous_bid);
        if let Some(b) = committed {
            sim.set_target(PowerTarget {
                avg: b.avg_power,
                reserve: b.reserve,
                signal: RegulationSignal::random_walk(
                    Seconds(4.0),
                    0.35,
                    hour,
                    cfg.seed ^ ((h as u64) << 16),
                ),
            });
            previous_bid = Some(b);
        }
        sim.reset_tracking();
        let end = hour * (h as f64 + 1.0);
        while sim.now().value() < end.value() {
            sim.step();
        }
        let o = sim.outcome();
        out.push(HourSummary {
            hour: h,
            utilization: util,
            bid,
            tracking_p90: o.tracking_p90,
            within_30: o.tracking_within_30,
            completed: o.completed,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_policy::BudgetPolicy;
    use anor_types::standard_catalog;

    #[test]
    fn three_hour_run_rebids_and_tracks() {
        let catalog = standard_catalog();
        let types = catalog.long_running();
        let sim = SimConfig {
            total_nodes: 32,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        let cfg = MultiHourConfig {
            sim,
            hourly_utilization: vec![0.5, 0.8, 0.6],
            seed: 7,
            bid_tracking_probability: 0.6,
        };
        let hours = run(&cfg).unwrap();
        assert_eq!(hours.len(), 3);
        // Bids exist (directly or carried over) and completion grows.
        assert!(hours.iter().any(|h| h.bid.is_some()), "no hour ever bid");
        assert!(hours[2].completed > hours[0].completed);
        // The higher-utilization hour's committed average exceeds the
        // low-utilization hour's (when both bid).
        if let (Some(b0), Some(b1)) = (hours[0].bid, hours[1].bid) {
            assert!(
                b1.avg_power.value() > b0.avg_power.value(),
                "hour-1 bid {:?} should exceed hour-0 bid {:?}",
                b1.avg_power,
                b0.avg_power
            );
        }
        // Tracking stays sane after warm-up hours.
        assert!(hours[2].within_30 > 0.4, "{:?}", hours[2]);
    }

    #[test]
    #[should_panic(expected = "at least one hour")]
    fn empty_hours_rejected() {
        let catalog = standard_catalog();
        let types = catalog.long_running();
        let sim = SimConfig {
            total_nodes: 16,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        let _ = run(&MultiHourConfig {
            sim,
            hourly_utilization: vec![],
            seed: 1,
            bid_tracking_probability: 0.5,
        });
    }
}
