//! AQA queue-weight training, wired to the tabular simulator.
//!
//! Section 4.4.2: "Each queue is assigned a weight of node allocations
//! that is tuned over simulations of expected power-constraint and
//! job-submission scenarios." Candidate weight vectors come from
//! [`anor_aqa::weight_candidates`]; each is judged by replaying the
//! expected scenario in [`TabularSim`] and checking the QoS constraint
//! per queue plus the tracking constraint, minimizing the mean QoS
//! degradation among feasible candidates.
//!
//! Unknown job types in the forecast are stood in by
//! [`anor_aqa::UnknownJobSampler`] (declared time kept, power identity
//! sampled from known types), exactly as the paper trains AQA before
//! those types have been characterized.

use anor_aqa::{
    poisson_schedule, search_weights, weight_candidates, PowerTarget, RegulationSignal,
    TrackingConstraint, WeightEvaluation,
};
use anor_platform::PerformanceVariation;
use anor_sim::{SimConfig, TabularSim};
use anor_types::{QosDegradation, Result, Seconds};

/// Configuration of a weight-training pass.
#[derive(Debug, Clone)]
pub struct TrainingConfig {
    /// The simulated cluster scenario.
    pub sim: SimConfig,
    /// Expected utilization of the scenario.
    pub utilization: f64,
    /// The committed demand-response operating point during training.
    pub target: PowerTarget,
    /// Evaluation horizon per candidate.
    pub horizon: Seconds,
    /// Number of random candidate perturbations around uniform.
    pub candidates: usize,
    /// Perturbation spread in `[0, 1)`.
    pub spread: f64,
    /// Tracking constraint candidates must satisfy.
    pub tracking: TrackingConstraint,
    /// Determinism seed.
    pub seed: u64,
}

impl TrainingConfig {
    /// A training pass over a simulated cluster at a given utilization.
    pub fn new(sim: SimConfig, utilization: f64, seed: u64) -> Self {
        let nodes = sim.total_nodes as f64;
        TrainingConfig {
            sim,
            utilization,
            target: PowerTarget {
                avg: anor_types::Watts(nodes * 180.0),
                reserve: anor_types::Watts(nodes * 25.0),
                signal: RegulationSignal::random_walk(
                    Seconds(4.0),
                    0.35,
                    Seconds(20_000.0),
                    seed ^ 0x7e1,
                ),
            },
            horizon: Seconds(1500.0),
            candidates: 12,
            spread: 0.6,
            tracking: TrackingConstraint::default(),
            seed,
        }
    }
}

/// Evaluate one candidate weight vector by simulation.
pub fn evaluate_weights(cfg: &TrainingConfig, weights: &[f64]) -> WeightEvaluation {
    let schedule = poisson_schedule(
        &cfg.sim.catalog,
        &cfg.sim.types,
        cfg.utilization,
        cfg.sim.total_nodes,
        cfg.horizon,
        cfg.seed,
    );
    let variation = PerformanceVariation::none(cfg.sim.total_nodes as usize);
    let mut sim = TabularSim::new(
        cfg.sim.clone(),
        cfg.target.clone(),
        &variation,
        schedule,
        Some(weights.to_vec()),
    );
    sim.run_with_warmup(cfg.horizon * 0.2, cfg.horizon, cfg.horizon * 2.0);
    let out = sim.outcome();
    // QoS must hold for *every* queue (AQA's per-type assurance).
    let mut qos_ok = true;
    let mut degradations: Vec<f64> = Vec::new();
    for (_, qs) in &out.qos_by_type {
        if !cfg.sim.qos.satisfied_by(qs) {
            qos_ok = false;
        }
        degradations.extend(qs.iter().map(QosDegradation::degradation));
    }
    let mean_q = if degradations.is_empty() {
        0.0
    } else {
        degradations.iter().sum::<f64>() / degradations.len() as f64
    };
    WeightEvaluation {
        qos_ok,
        tracking_ok: out.tracking_within_30 >= cfg.tracking.probability,
        cost: mean_q,
    }
}

/// Train queue weights for the scenario. Returns the winning weight
/// vector, or uniform weights when no candidate is feasible (with a
/// `false` flag so the caller can react).
pub fn train_weights(cfg: &TrainingConfig) -> Result<(Vec<f64>, bool)> {
    let candidates = weight_candidates(
        cfg.sim.catalog.len(),
        cfg.candidates,
        cfg.spread,
        cfg.seed ^ 0x77,
    );
    match search_weights(&candidates, |w| evaluate_weights(cfg, w)) {
        Some(w) => Ok((w, true)),
        None => Ok((vec![1.0; cfg.sim.catalog.len()], false)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_aqa::UnknownJobSampler;
    use anor_policy::BudgetPolicy;
    use anor_types::{standard_catalog, Watts};

    fn small_cfg(seed: u64) -> TrainingConfig {
        let catalog = standard_catalog();
        let types = catalog.long_running();
        let sim = SimConfig {
            total_nodes: 24,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        let mut cfg = TrainingConfig::new(sim, 0.6, seed);
        cfg.horizon = Seconds(900.0);
        cfg.candidates = 6;
        // Small-cluster granularity: relax tracking as in bidding tests.
        cfg.tracking.probability = 0.5;
        cfg
    }

    #[test]
    fn training_returns_feasible_weights() {
        let cfg = small_cfg(3);
        let (weights, feasible) = train_weights(&cfg).unwrap();
        assert_eq!(weights.len(), cfg.sim.catalog.len());
        assert!(weights.iter().all(|&w| w > 0.0));
        assert!(feasible, "a moderate scenario must be trainable");
        // The winner's evaluation is indeed feasible.
        let e = evaluate_weights(&cfg, &weights);
        assert!(e.qos_ok && e.tracking_ok);
    }

    #[test]
    fn infeasible_scenario_falls_back_to_uniform() {
        let mut cfg = small_cfg(5);
        // Impossible tracking bar.
        cfg.tracking = TrackingConstraint {
            limit: 0.0001,
            probability: 1.0,
        };
        let (weights, feasible) = train_weights(&cfg).unwrap();
        assert!(!feasible);
        assert!(weights.iter().all(|&w| w == 1.0));
    }

    #[test]
    fn unknown_types_can_join_the_training_catalog() {
        // The paper's unknown-type flow: sample a stand-in, add it to the
        // catalog, and train over the extended queue set.
        let mut catalog = standard_catalog();
        let mut sampler = UnknownJobSampler::new(&catalog, 9).unwrap();
        let stand_in = sampler.sample("userapp.X.32", Seconds(200.0), 1);
        let new_id = catalog.push(stand_in);
        let mut types = catalog.long_running();
        if !types.contains(&new_id) {
            types.push(new_id);
        }
        let sim = SimConfig {
            total_nodes: 24,
            idle_power: Watts(90.0),
            catalog,
            types,
            tick: Seconds(1.0),
            policy: BudgetPolicy::Uniform,
            qos: Default::default(),
            qos_risk_threshold: 0.8,
        };
        let mut cfg = TrainingConfig::new(sim, 0.6, 11);
        cfg.horizon = Seconds(700.0);
        cfg.candidates = 3;
        cfg.tracking.probability = 0.3;
        let (weights, _) = train_weights(&cfg).unwrap();
        // One weight per catalog entry, including the synthetic type.
        assert_eq!(weights.len(), cfg.sim.catalog.len());
    }
}
