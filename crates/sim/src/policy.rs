//! Power capping inside the simulated cluster tier.
//!
//! Given the instantaneous power target and the set of running jobs, pick
//! per-job node caps. Two policies from Section 4.4.3 plus the
//! QoS-feedback variant Section 6.4 discusses ("we are able to avoid
//! capping power on jobs that application feedback indicates are at risk
//! of QoS degradation").

use anor_policy::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, JobView, UniformBudgeter};
use anor_types::Watts;

/// Which capping rule the simulated cluster tier applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPowerPolicy {
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

impl SimPowerPolicy {
    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            SimPowerPolicy::Uniform => "uniform",
            SimPowerPolicy::EvenPower => "even-power",
            SimPowerPolicy::EvenSlowdown => "even-slowdown",
            SimPowerPolicy::EvenSlowdownQosAware => "even-slowdown+qos",
        }
    }

    /// Does this policy consume per-tick inputs (the at-risk
    /// projections, which drift with simulated time itself)? When true
    /// the engine re-runs the capping stage every tick instead of
    /// memoizing it between events.
    pub fn per_tick_recompute(&self) -> bool {
        matches!(self, SimPowerPolicy::EvenSlowdownQosAware)
    }

    /// Assign per-job node caps given the busy-node power budget.
    /// `at_risk[i]` marks jobs the feedback path flagged (ignored except
    /// by the QoS-aware variant). Returns caps in job order.
    pub fn assign(&self, budget: Watts, jobs: &[JobView], at_risk: &[bool]) -> Vec<Watts> {
        debug_assert_eq!(jobs.len(), at_risk.len());
        match self {
            SimPowerPolicy::Uniform => UniformBudgeter.assign(budget, jobs),
            SimPowerPolicy::EvenPower => EvenPowerBudgeter.assign(budget, jobs),
            SimPowerPolicy::EvenSlowdown => EvenSlowdownBudgeter::default().assign(budget, jobs),
            SimPowerPolicy::EvenSlowdownQosAware => {
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
                let rest_caps = EvenSlowdownBudgeter::default().assign(rest_budget, &rest);
                for (slot, cap) in rest_idx.into_iter().zip(rest_caps) {
                    caps[slot] = cap;
                }
                caps
            }
        }
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
        let names: Vec<&str> = [
            SimPowerPolicy::Uniform,
            SimPowerPolicy::EvenPower,
            SimPowerPolicy::EvenSlowdown,
            SimPowerPolicy::EvenSlowdownQosAware,
        ]
        .iter()
        .map(|p| p.name())
        .collect();
        // `dedup` only drops adjacent repeats, so sort first.
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }

    #[test]
    fn qos_aware_exempts_flagged_jobs() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let at_risk = [false, true];
        let budget = Watts(700.0);
        let caps = SimPowerPolicy::EvenSlowdownQosAware.assign(budget, &jobs, &at_risk);
        // SP (flagged) runs at its full useful power.
        assert_eq!(caps[1], jobs[1].p_max());
        // BT absorbs the squeeze: compare against the unexempt variant.
        let plain = SimPowerPolicy::EvenSlowdown.assign(budget, &jobs, &[false, false]);
        assert!(caps[0].value() <= plain[0].value() + 1e-9);
    }

    #[test]
    fn qos_aware_with_no_flags_matches_even_slowdown() {
        let jobs = views(&["bt.D.81", "ft.D.64", "cg.D.32"]);
        let flags = [false, false, false];
        let a = SimPowerPolicy::EvenSlowdownQosAware.assign(Watts(1200.0), &jobs, &flags);
        let b = SimPowerPolicy::EvenSlowdown.assign(Watts(1200.0), &jobs, &flags);
        for (x, y) in a.iter().zip(&b) {
            assert!((x.value() - y.value()).abs() < 1e-6);
        }
    }

    #[test]
    fn all_flagged_means_everyone_uncapped() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let caps = SimPowerPolicy::EvenSlowdownQosAware.assign(Watts(100.0), &jobs, &[true, true]);
        assert_eq!(caps[0], jobs[0].p_max());
        assert_eq!(caps[1], jobs[1].p_max());
    }

    #[test]
    fn uniform_policy_delegates() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let caps = SimPowerPolicy::Uniform.assign(Watts(840.0), &jobs, &[false, false]);
        assert_eq!(caps[0], caps[1]);
    }
}
