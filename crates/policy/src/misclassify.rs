//! Misclassification scenarios (paper Section 6.1.2, Figs. 5–8).
//!
//! "Some jobs may execute before they are characterized, or may be
//! misclassified as a job type with different characteristics." A
//! [`MisclassifyScenario`] pairs the *true* job views with the views the
//! budgeter *believes* (one or more jobs carrying another type's power
//! identity), assigns caps from the believed views, and evaluates the
//! true slowdowns that result.

use crate::budgeter::Budgeter;
use crate::job_view::JobView;
use crate::slowdown::slowdowns_under_caps;
use anor_types::{JobId, JobTypeSpec, Watts};

/// A co-scheduled job set where belief may diverge from truth.
#[derive(Debug, Clone)]
pub struct MisclassifyScenario {
    /// Ground-truth views (what the jobs actually are).
    pub truths: Vec<JobView>,
    /// What the budgeter believes about each job, same order.
    pub believed: Vec<JobView>,
}

/// The result of running a budgeter over a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Assigned per-node caps, in job order.
    pub caps: Vec<Watts>,
    /// True slowdown each job experiences under those caps.
    pub slowdowns: Vec<f64>,
}

impl ScenarioOutcome {
    /// The worst (largest) slowdown across jobs.
    pub fn worst(&self) -> f64 {
        self.slowdowns.iter().copied().fold(1.0, f64::max)
    }
}

impl MisclassifyScenario {
    /// All jobs correctly characterized. `jobs` supplies the spec and the
    /// node count for each instance (node counts may differ from the
    /// spec's default — Fig. 5 varies them).
    pub fn fully_known(jobs: &[(&JobTypeSpec, u32)]) -> Self {
        let truths: Vec<JobView> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(spec, nodes))| {
                let mut v = JobView::from_spec(JobId(i as u64), spec);
                v.nodes = nodes;
                v
            })
            .collect();
        MisclassifyScenario {
            believed: truths.clone(),
            truths,
        }
    }

    /// Like [`MisclassifyScenario::fully_known`], but job `unknown_idx` is
    /// believed to be `assumed` (carrying the assumed type's curve and
    /// power window) while actually behaving as its true spec.
    pub fn with_unknown(
        jobs: &[(&JobTypeSpec, u32)],
        unknown_idx: usize,
        assumed: &JobTypeSpec,
    ) -> Self {
        let mut s = Self::fully_known(jobs);
        assert!(unknown_idx < s.truths.len(), "unknown index out of range");
        let (true_spec, nodes) = jobs[unknown_idx];
        let mut mis = JobView::misclassified(JobId(unknown_idx as u64), true_spec, assumed);
        mis.nodes = nodes;
        s.believed[unknown_idx] = mis;
        s
    }

    /// Feedback applied: the unknown job's believed curve is replaced by
    /// the true curve (as an online fit converges to), while its believed
    /// power window stays learned-from-observation (we use the true one —
    /// observed draw converges to it too).
    pub fn with_feedback(mut self, job_idx: usize) -> Self {
        assert!(job_idx < self.truths.len(), "job index out of range");
        self.believed[job_idx] = self.truths[job_idx].clone();
        self
    }

    /// Assign caps from the believed views; evaluate slowdowns from truth.
    pub fn evaluate(&self, budgeter: &dyn Budgeter, budget: Watts) -> ScenarioOutcome {
        let caps = budgeter.assign(budget, &self.believed);
        let slowdowns = slowdowns_under_caps(&self.truths, &caps);
        ScenarioOutcome { caps, slowdowns }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budgeter::{EvenPowerBudgeter, EvenSlowdownBudgeter};
    use anor_types::standard_catalog;

    /// Fig. 5's cast: EP (high sensitivity), FT (medium, the unknown), IS
    /// (low sensitivity).
    fn fig5_jobs(
        cat: &anor_types::Catalog,
        ft_nodes: u32,
        known_nodes: u32,
    ) -> MisclassifyScenario {
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        MisclassifyScenario::fully_known(&[(ep, known_nodes), (ft, ft_nodes), (is, known_nodes)])
    }

    #[test]
    fn ideal_scenario_has_equal_belief_and_truth() {
        let cat = standard_catalog();
        let s = fig5_jobs(&cat, 2, 4);
        assert_eq!(s.truths.len(), 3);
        for (t, b) in s.truths.iter().zip(&s.believed) {
            assert_eq!(t, b);
        }
    }

    #[test]
    fn underprediction_slows_the_unknown_job() {
        // Believe FT is IS (insensitive) -> FT gets starved -> FT slows
        // down vs the ideal budgeter. First takeaway of Section 6.1.2.
        let cat = standard_catalog();
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        let jobs = [(ep, 4u32), (ft, 2u32), (is, 4u32)];
        let budget = Watts(2000.0);
        let budgeter = EvenSlowdownBudgeter;
        let ideal = MisclassifyScenario::fully_known(&jobs).evaluate(&budgeter, budget);
        let under = MisclassifyScenario::with_unknown(&jobs, 1, is).evaluate(&budgeter, budget);
        assert!(
            under.slowdowns[1] > ideal.slowdowns[1] + 0.02,
            "underprediction must hurt FT: {} vs ideal {}",
            under.slowdowns[1],
            ideal.slowdowns[1]
        );
    }

    #[test]
    fn overprediction_slows_the_sensitive_coscheduled_job() {
        // Believe FT is EP (highly sensitive) -> FT hoards power -> the
        // truly sensitive EP loses power and slows down.
        let cat = standard_catalog();
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        let jobs = [(ep, 1u32), (ft, 8u32), (is, 1u32)];
        let budget = Watts(1800.0);
        let budgeter = EvenSlowdownBudgeter;
        let ideal = MisclassifyScenario::fully_known(&jobs).evaluate(&budgeter, budget);
        let over = MisclassifyScenario::with_unknown(&jobs, 1, ep).evaluate(&budgeter, budget);
        assert!(
            over.slowdowns[0] > ideal.slowdowns[0] + 0.01,
            "overprediction must hurt EP: {} vs ideal {}",
            over.slowdowns[0],
            ideal.slowdowns[0]
        );
    }

    #[test]
    fn large_unknown_job_amplifies_misclassification() {
        // Second takeaway: the impact scales with the relative size of the
        // misclassified job.
        let cat = standard_catalog();
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        let budgeter = EvenSlowdownBudgeter;
        let harm = |ft_nodes: u32, known_nodes: u32, budget: f64| -> f64 {
            let jobs = [(ep, known_nodes), (ft, ft_nodes), (is, known_nodes)];
            let ideal = MisclassifyScenario::fully_known(&jobs).evaluate(&budgeter, Watts(budget));
            let over =
                MisclassifyScenario::with_unknown(&jobs, 1, ep).evaluate(&budgeter, Watts(budget));
            over.slowdowns[0] - ideal.slowdowns[0]
        };
        // Equal total node counts at the same per-node budget level.
        let small = harm(2, 4, 2000.0); // unknown is 2 of 10 nodes
        let large = harm(8, 1, 2000.0); // unknown is 8 of 10 nodes
        assert!(
            large > small,
            "8-node unknown harm {large} should exceed 2-node harm {small}"
        );
    }

    #[test]
    fn feedback_restores_ideal_assignment() {
        let cat = standard_catalog();
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        let jobs = [(ep, 4u32), (ft, 2u32), (is, 4u32)];
        let budgeter = EvenSlowdownBudgeter;
        let ideal = MisclassifyScenario::fully_known(&jobs).evaluate(&budgeter, Watts(2000.0));
        let fixed = MisclassifyScenario::with_unknown(&jobs, 1, is)
            .with_feedback(1)
            .evaluate(&budgeter, Watts(2000.0));
        for (a, b) in ideal.slowdowns.iter().zip(&fixed.slowdowns) {
            assert!((a - b).abs() < 1e-9, "feedback should equal ideal");
        }
    }

    #[test]
    fn outcome_worst_is_max() {
        let o = ScenarioOutcome {
            caps: vec![Watts(1.0); 3],
            slowdowns: vec![1.1, 1.6, 1.2],
        };
        assert_eq!(o.worst(), 1.6);
    }

    #[test]
    fn even_power_is_immune_to_curve_misclassification_but_not_ideal() {
        // The performance-agnostic policy ignores curves, so curve
        // misclassification only enters through the believed power window.
        let cat = standard_catalog();
        let ep = cat.find("ep").unwrap();
        let ft = cat.find("ft").unwrap();
        let is = cat.find("is").unwrap();
        let jobs = [(ep, 4u32), (ft, 2u32), (is, 4u32)];
        let b = EvenPowerBudgeter;
        let ideal = MisclassifyScenario::fully_known(&jobs).evaluate(&b, Watts(2000.0));
        let mis = MisclassifyScenario::with_unknown(&jobs, 1, is).evaluate(&b, Watts(2000.0));
        // Caps differ only because IS's power window differs from FT's.
        for (i, (a, c)) in ideal.caps.iter().zip(&mis.caps).enumerate() {
            if i != 1 {
                assert!((a.value() - c.value()).abs() < 30.0, "job {i} cap shift");
            }
        }
    }
}
