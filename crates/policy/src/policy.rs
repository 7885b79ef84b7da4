//! The one table of cluster-tier budgeting policies.
//!
//! The head-node daemon, the tabular simulator, the experiments and every
//! CLI select from [`BudgetPolicy`]: the three budgeters of Section 4.4.3
//! plus the QoS-feedback variant Section 6.4 discusses ("we are able to
//! avoid capping power on jobs that application feedback indicates are at
//! risk of QoS degradation").

use crate::budgeter::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, UniformBudgeter};
use crate::job_view::JobView;
use anor_types::{AnorError, Watts};

/// Which capping rule the cluster tier applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetPolicy {
    /// AQA's rule: caps applied uniformly across active nodes.
    Uniform,
    /// The performance-unaware even-power balancer.
    EvenPower,
    /// The performance-aware even-slowdown balancer.
    EvenSlowdown,
    /// Even-slowdown, but jobs flagged as at-risk of missing QoS are
    /// exempted from capping (they get their full useful power) before
    /// the remaining budget is balanced over the rest.
    EvenSlowdownQosAware,
}

impl BudgetPolicy {
    /// Every policy, in table order.
    pub const ALL: [BudgetPolicy; 4] = [
        BudgetPolicy::Uniform,
        BudgetPolicy::EvenPower,
        BudgetPolicy::EvenSlowdown,
        BudgetPolicy::EvenSlowdownQosAware,
    ];

    /// Human-readable name (also the CLI and recording-header spelling).
    pub fn name(&self) -> &'static str {
        match self {
            BudgetPolicy::Uniform => "uniform",
            BudgetPolicy::EvenPower => "even-power",
            BudgetPolicy::EvenSlowdown => "even-slowdown",
            BudgetPolicy::EvenSlowdownQosAware => "even-slowdown+qos",
        }
    }

    /// Does [`Self::assign`] read its `at_risk` flags? Only a caller that
    /// projects them can run such a policy, and since the projections
    /// drift with time itself, the simulator re-caps every tick for it.
    pub fn reads_at_risk(&self) -> bool {
        matches!(self, BudgetPolicy::EvenSlowdownQosAware)
    }

    /// Assign per-job node caps given the busy-node power budget.
    /// `at_risk[i]` marks jobs the feedback path flagged; only a policy
    /// whose [`Self::reads_at_risk`] is true reads it, and the others
    /// accept `&[]`. Returns caps in job order.
    pub fn assign(&self, budget: Watts, jobs: &[JobView], at_risk: &[bool]) -> Vec<Watts> {
        match self {
            BudgetPolicy::Uniform => UniformBudgeter.assign(budget, jobs),
            BudgetPolicy::EvenPower => EvenPowerBudgeter.assign(budget, jobs),
            BudgetPolicy::EvenSlowdown => EvenSlowdownBudgeter.assign(budget, jobs),
            BudgetPolicy::EvenSlowdownQosAware => {
                debug_assert_eq!(jobs.len(), at_risk.len());
                // Exempt at-risk jobs at full power, balance the rest.
                let mut caps = vec![Watts::ZERO; jobs.len()];
                let mut exempt_power = Watts::ZERO;
                let mut rest = Vec::new();
                let mut rest_idx = Vec::new();
                for (i, j) in jobs.iter().enumerate() {
                    if at_risk[i] {
                        caps[i] = j.p_max();
                        exempt_power += j.p_max() * j.nodes as f64;
                    } else {
                        rest.push(j.clone());
                        rest_idx.push(i);
                    }
                }
                let rest_budget = (budget - exempt_power).max(Watts::ZERO);
                let rest_caps = EvenSlowdownBudgeter.assign(rest_budget, &rest);
                for (slot, cap) in rest_idx.into_iter().zip(rest_caps) {
                    caps[slot] = cap;
                }
                caps
            }
        }
    }
}

impl std::str::FromStr for BudgetPolicy {
    type Err = AnorError;

    fn from_str(s: &str) -> Result<Self, AnorError> {
        BudgetPolicy::ALL
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                let names = BudgetPolicy::ALL.map(|p| p.name()).join(" | ");
                AnorError::config(format!("unknown policy `{s}` (use {names})"))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::{standard_catalog, JobId};

    fn views(names: &[&str]) -> Vec<JobView> {
        let cat = standard_catalog();
        names
            .iter()
            .enumerate()
            .map(|(i, n)| JobView::from_spec(JobId(i as u64), cat.find(n).unwrap()))
            .collect()
    }

    #[test]
    fn names_are_distinct() {
        let names: Vec<&str> = BudgetPolicy::ALL.iter().map(|p| p.name()).collect();
        // `dedup` only drops adjacent repeats, so sort first.
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn names_round_trip() {
        for policy in BudgetPolicy::ALL {
            assert_eq!(policy.name().parse::<BudgetPolicy>().unwrap(), policy);
        }
        let err = "nonsense".parse::<BudgetPolicy>().unwrap_err();
        assert!(err.to_string().contains("unknown policy"), "{err}");
    }

    #[test]
    fn qos_aware_exempts_flagged_jobs() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let at_risk = [false, true];
        let budget = Watts(700.0);
        let caps = BudgetPolicy::EvenSlowdownQosAware.assign(budget, &jobs, &at_risk);
        // SP (flagged) runs at its full useful power.
        assert_eq!(caps[1], jobs[1].p_max());
        // BT absorbs the squeeze: compare against the unexempt variant.
        let plain = BudgetPolicy::EvenSlowdown.assign(budget, &jobs, &[]);
        assert!(caps[0].value() <= plain[0].value() + 1e-9);
    }

    #[test]
    fn qos_aware_with_no_flags_matches_even_slowdown() {
        let jobs = views(&["bt.D.81", "ft.D.64", "cg.D.32"]);
        let flags = [false, false, false];
        let a = BudgetPolicy::EvenSlowdownQosAware.assign(Watts(1200.0), &jobs, &flags);
        let b = BudgetPolicy::EvenSlowdown.assign(Watts(1200.0), &jobs, &flags);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.value() - y.value()).abs() < 1e-6);
        }
    }

    #[test]
    fn all_flagged_means_everyone_uncapped() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let caps = BudgetPolicy::EvenSlowdownQosAware.assign(Watts(100.0), &jobs, &[true, true]);
        assert_eq!(caps[0], jobs[0].p_max());
        assert_eq!(caps[1], jobs[1].p_max());
    }

    #[test]
    fn uniform_policy_delegates() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let caps = BudgetPolicy::Uniform.assign(Watts(840.0), &jobs, &[]);
        assert_eq!(caps[0], caps[1]);
    }
}
