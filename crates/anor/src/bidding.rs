//! The hourly bidding loop, wired to the tabular simulator.
//!
//! Section 4.4.1: "the resource-forecasting policy determines how much
//! average power the cluster should request and what range of power
//! flexibility the cluster should offer as reserve for demand response.
//! The bidding decision is made once per hour." AQA judges candidate
//! bids by simulating "expected power-constraint and job-submission
//! scenarios" (Section 4.4.2) — here, by running [`TabularSim`] over a
//! forecast schedule and checking the QoS and tracking constraints.

use anor_aqa::{
    candidate_grid, poisson_schedule, search_bid, Bid, BidEvaluation, CostModel, PowerTarget,
    RegulationSignal, TrackingConstraint,
};
use anor_exec::ExecPool;
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, TabularSim};
use anor_types::{QosDegradation, Result, Seconds, Watts};

/// Configuration of one bidding decision.
#[derive(Debug, Clone)]
pub struct BiddingConfig {
    /// Simulated cluster the bid is evaluated on.
    pub sim: SimConfig,
    /// Expected node utilization of the next hour's submissions.
    pub utilization: f64,
    /// Evaluation horizon per candidate (shorter than an hour is fine —
    /// the constraints bind early).
    pub horizon: Seconds,
    /// Electricity price model.
    pub cost: CostModel,
    /// The tracking constraint bids must satisfy.
    pub tracking: TrackingConstraint,
    /// Grid resolution per axis.
    pub grid_steps: usize,
    /// Determinism seed.
    pub seed: u64,
    /// Worker threads for the candidate-grid search (0 = resolve from
    /// `ANOR_JOBS` / available parallelism). The chosen bid is identical
    /// for every value — candidates are evaluated with independent seeds
    /// and compared in grid order.
    pub jobs: usize,
}

impl BiddingConfig {
    /// A bidding decision over a given simulated cluster.
    pub fn new(sim: SimConfig, utilization: f64, seed: u64) -> Self {
        BiddingConfig {
            sim,
            utilization,
            horizon: Seconds(1200.0),
            cost: CostModel::default(),
            tracking: TrackingConstraint::default(),
            grid_steps: 4,
            seed,
            jobs: 0,
        }
    }

    /// The candidate (average, reserve) ranges, derived from the
    /// cluster's physical power envelope at the expected utilization.
    pub fn candidate_ranges(&self) -> ((Watts, Watts), (Watts, Watts)) {
        let nodes = self.sim.total_nodes as f64;
        let idle = self.sim.idle_power.value();
        let mean_draw: f64 = self
            .sim
            .types
            .iter()
            .map(|&id| self.sim.catalog[id].max_draw.value())
            .sum::<f64>()
            / self.sim.types.len().max(1) as f64;
        let expected = nodes * (self.utilization * mean_draw + (1.0 - self.utilization) * idle);
        // Realized utilization runs below offered utilization whenever
        // the queue momentarily empties, so candidate averages extend
        // well below the naive expectation.
        (
            (Watts(expected * 0.70), Watts(expected * 1.0)),
            (Watts(expected * 0.05), Watts(expected * 0.25)),
        )
    }
}

/// Evaluate one candidate bid by simulation.
pub fn evaluate_bid(cfg: &BiddingConfig, bid: &Bid) -> Result<BidEvaluation> {
    let schedule = poisson_schedule(
        &cfg.sim.catalog,
        &cfg.sim.types,
        cfg.utilization,
        cfg.sim.total_nodes,
        cfg.horizon,
        cfg.seed,
    );
    let target = PowerTarget {
        avg: bid.avg_power,
        reserve: bid.reserve,
        signal: RegulationSignal::random_walk(
            Seconds(4.0),
            0.35,
            cfg.horizon * 3.0,
            cfg.seed ^ 0xb1d,
        ),
    };
    let variation = PerformanceVariation::none(cfg.sim.total_nodes as usize);
    let mut sim = TabularSim::new(cfg.sim.clone(), target, &variation, schedule, None);
    // Judge tracking from a warm cluster: the first quarter of the
    // horizon is fill-up ramp, which every candidate shares.
    sim.run_with_warmup(cfg.horizon * 0.25, cfg.horizon, cfg.horizon * 2.0);
    let out = sim.outcome();
    let all: Vec<QosDegradation> = out
        .qos_by_type
        .iter()
        .flat_map(|(_, v)| v.iter().copied())
        .collect();
    Ok(BidEvaluation {
        qos_ok: cfg.sim.qos.satisfied_by(&all),
        tracking_ok: out.tracking_within_30 >= cfg.tracking.probability,
    })
}

/// Choose the cheapest feasible bid for the next hour, or `None` when no
/// candidate satisfies both constraints (the cluster then declines to
/// offer reserve this hour).
///
/// Candidate evaluations are independent simulations, so they fan out
/// over [`ExecPool`] (`cfg.jobs` workers); results come back in grid
/// order and the cheapest-feasible comparison runs serially over them,
/// so the chosen bid does not depend on the worker count.
pub fn choose_hourly_bid(cfg: &BiddingConfig) -> Result<Option<Bid>> {
    let (avg_range, reserve_range) = cfg.candidate_ranges();
    let candidates = candidate_grid(avg_range, reserve_range, cfg.grid_steps);
    let evals = ExecPool::new(cfg.jobs).map(&candidates, |bid| evaluate_bid(cfg, bid));
    let mut failure: Option<anor_types::AnorError> = None;
    let mut next = evals.into_iter();
    let chosen = search_bid(&candidates, &cfg.cost, |_| {
        match next.next().expect("one evaluation per candidate") {
            Ok(e) => e,
            Err(e) => {
                failure = Some(e);
                BidEvaluation {
                    qos_ok: false,
                    tracking_ok: false,
                }
            }
        }
    });
    match failure {
        Some(e) => Err(e),
        None => Ok(chosen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_policy::BudgetPolicy;
    use anor_types::standard_catalog;

    fn small_sim() -> SimConfig {
        let catalog = standard_catalog();
        let types = catalog.long_running();
        SimConfig {
            total_nodes: 24,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        }
    }

    #[test]
    fn candidate_ranges_scale_with_cluster() {
        let cfg = BiddingConfig::new(small_sim(), 0.75, 1);
        let ((avg_lo, avg_hi), (res_lo, res_hi)) = cfg.candidate_ranges();
        assert!(avg_lo.value() < avg_hi.value());
        assert!(res_lo.value() < res_hi.value());
        // Expected power for 24 nodes at 75% utilization lands between
        // all-idle and all-max.
        assert!(avg_lo.value() > 24.0 * 90.0);
        assert!(avg_hi.value() < 24.0 * 280.0);
    }

    #[test]
    fn hourly_bid_is_feasible_and_deterministic() {
        let mut cfg = BiddingConfig::new(small_sim(), 0.7, 5);
        cfg.horizon = Seconds(700.0);
        cfg.grid_steps = 3;
        // A 24-node cluster has coarse power granularity relative to its
        // reserve; the paper's 30%-for-90%-of-time constraint is tuned
        // for 16 nodes at 95% utilization. Relax the probability for the
        // small test scenario.
        cfg.tracking.probability = 0.75;
        let bid = choose_hourly_bid(&cfg).unwrap();
        let bid = bid.expect("a moderate-utilization cluster can always bid");
        // The chosen bid itself passes evaluation.
        let e = evaluate_bid(&cfg, &bid).unwrap();
        assert!(e.feasible());
        // Deterministic.
        let again = choose_hourly_bid(&cfg).unwrap().unwrap();
        assert_eq!(bid, again);
        // ...including across worker counts.
        cfg.jobs = 3;
        let parallel = choose_hourly_bid(&cfg).unwrap().unwrap();
        assert_eq!(bid, parallel, "worker count must not change the bid");
    }

    #[test]
    fn chosen_bid_maximizes_reserve_among_feasible() {
        // With the default cost model, reserve is revenue: the chosen bid
        // should not leave obviously-feasible reserve on the table.
        let mut cfg = BiddingConfig::new(small_sim(), 0.7, 9);
        cfg.horizon = Seconds(700.0);
        cfg.grid_steps = 3;
        cfg.tracking.probability = 0.75;
        let bid = choose_hourly_bid(&cfg).unwrap().unwrap();
        let (_, (res_lo, _)) = cfg.candidate_ranges();
        assert!(
            bid.reserve.value() > res_lo.value(),
            "picked the minimum reserve {:?}",
            bid.reserve
        );
    }
}
