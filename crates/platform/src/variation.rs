//! Per-node performance-variation coefficients.
//!
//! Section 6.4: "we generate performance coefficients from a normal
//! distribution with a mean of 1, and adjust the standard deviation to
//! change the level of performance variation. The performance coefficients
//! are randomly generated for each of 1000 compute nodes at the start of
//! each of 10 simulations per variation level."
//!
//! Fig. 11's x axis labels variation levels as "99% of performance within
//! ±X%"; for a normal distribution, 99% of mass lies within ±2.576σ, so a
//! level of ±15% corresponds to σ = 0.15 / 2.576.

use anor_types::stats::truncated_normal;
use anor_types::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// z-score containing 99% of a standard normal (two-sided).
pub const Z_99: f64 = 2.576;

/// A drawn set of per-node performance coefficients.
#[derive(Debug, Clone)]
pub struct PerformanceVariation {
    coeffs: Vec<f64>,
    sigma: f64,
}

impl PerformanceVariation {
    /// No variation: every node nominal.
    pub fn none(nodes: usize) -> Self {
        PerformanceVariation {
            coeffs: vec![1.0; nodes],
            sigma: 0.0,
        }
    }

    /// Draw coefficients for `nodes` nodes from `N(1, sigma)`, floored at
    /// 0.1 so no node is pathologically fast. `sigma` must be finite and
    /// non-negative, so every coefficient is finite and at least 0.1.
    pub fn with_sigma(nodes: usize, sigma: f64, seed: u64) -> Self {
        assert!(
            sigma >= 0.0 && sigma.is_finite(),
            "sigma must be finite and non-negative"
        );
        if sigma == 0.0 {
            return PerformanceVariation::none(nodes);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs = (0..nodes)
            .map(|_| truncated_normal(&mut rng, 1.0, sigma, 0.1))
            .collect();
        PerformanceVariation { coeffs, sigma }
    }

    /// Draw coefficients for a Fig. 11 "99% within ±`percent`%" level.
    pub fn with_level_percent(nodes: usize, percent: f64, seed: u64) -> Self {
        Self::with_sigma(nodes, percent / 100.0 / Z_99, seed)
    }

    /// The coefficient for a node (1.0 for ids beyond the drawn set, so a
    /// variation set can be safely applied to a smaller cluster).
    pub fn coeff(&self, node: NodeId) -> f64 {
        self.coeffs.get(node.index()).copied().unwrap_or(1.0)
    }

    /// Standard deviation this set was drawn with.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.coeffs.len()
    }

    /// True when no nodes are covered.
    pub fn is_empty(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Iterate over all coefficients in node order.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.coeffs.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::stats::{mean, std_dev};

    #[test]
    fn none_is_all_ones() {
        let v = PerformanceVariation::none(16);
        assert_eq!(v.len(), 16);
        assert!(v.iter().all(|c| c == 1.0));
        assert_eq!(v.sigma(), 0.0);
    }

    #[test]
    fn sigma_zero_short_circuits() {
        let v = PerformanceVariation::with_sigma(10, 0.0, 99);
        assert!(v.iter().all(|c| c == 1.0));
    }

    #[test]
    fn drawn_moments_match() {
        let v = PerformanceVariation::with_sigma(20_000, 0.1, 7);
        let xs: Vec<f64> = v.iter().collect();
        assert!((mean(&xs) - 1.0).abs() < 0.01);
        assert!((std_dev(&xs) - 0.1).abs() < 0.01);
    }

    #[test]
    fn level_percent_maps_to_sigma() {
        let v = PerformanceVariation::with_level_percent(1000, 15.0, 3);
        assert!((v.sigma() - 0.15 / Z_99).abs() < 1e-12);
        // Roughly 99% of nodes within ±15%.
        let within = v.iter().filter(|c| (c - 1.0).abs() <= 0.15).count();
        assert!(within >= 975, "only {within}/1000 within ±15%");
    }

    #[test]
    fn coeff_out_of_range_defaults_to_nominal() {
        let v = PerformanceVariation::with_sigma(4, 0.2, 1);
        assert_eq!(v.coeff(NodeId(100)), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_sigma_is_rejected() {
        PerformanceVariation::with_sigma(4, f64::INFINITY, 1);
    }

    #[test]
    fn coefficients_floored() {
        let v = PerformanceVariation::with_sigma(10_000, 0.5, 11);
        assert!(v.iter().all(|c| c >= 0.1));
    }

    #[test]
    fn deterministic_by_seed() {
        let a = PerformanceVariation::with_sigma(100, 0.1, 5);
        let b = PerformanceVariation::with_sigma(100, 0.1, 5);
        let c = PerformanceVariation::with_sigma(100, 0.1, 6);
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));
        assert!(a.iter().zip(c.iter()).any(|(x, y)| x != y));
    }
}
