//! The three power-budgeting policies of Section 4.4.3.
//!
//! All budgeters answer the same question: given a total power budget for
//! the active jobs' nodes and a view of each job, what per-node cap does
//! each job get? Budgets outside the feasible window saturate at the
//! platform limits — "neither policy has flexibility to assign power caps
//! beyond the range allowed by the power-capping interface"
//! (Section 6.1.1).

use crate::job_view::JobView;
use anor_types::Watts;

/// A cluster-tier power-budget distribution policy.
pub trait Budgeter {
    /// Split `budget` (total CPU watts for all listed jobs' nodes) into a
    /// per-node cap for each job, in input order.
    fn assign(&self, budget: Watts, jobs: &[JobView]) -> Vec<Watts>;
}

/// Total nodes across views.
fn total_nodes(jobs: &[JobView]) -> f64 {
    jobs.iter().map(|j| j.nodes as f64).sum()
}

/// Total power if every job runs at the given per-job caps.
fn total_power(jobs: &[JobView], caps: &[Watts]) -> Watts {
    jobs.iter()
        .zip(caps)
        .map(|(j, &c)| c * j.nodes as f64)
        .sum()
}

// ---------------------------------------------------------------------------

/// The performance-agnostic baseline: the same cap on every active node,
/// clamped to the platform range (AQA's uniform capping).
#[derive(Debug, Clone, Copy, Default)]
pub struct UniformBudgeter;

impl Budgeter for UniformBudgeter {
    fn assign(&self, budget: Watts, jobs: &[JobView]) -> Vec<Watts> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let per_node = budget / total_nodes(jobs);
        jobs.iter().map(|j| j.cap_range.clamp(per_node)).collect()
    }
}

// ---------------------------------------------------------------------------

/// The performance-unaware balancer: a single γ places every job at the
/// same fraction of its achievable power window,
/// `p_cap = γ·(p_max − p_min) + p_min` (Section 4.4.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenPowerBudgeter;

impl Budgeter for EvenPowerBudgeter {
    fn assign(&self, budget: Watts, jobs: &[JobView]) -> Vec<Watts> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // Σ nodes·(γ·(pmax−pmin) + pmin) = budget  →  γ closed form.
        let base: f64 = jobs
            .iter()
            .map(|j| j.p_min().value() * j.nodes as f64)
            .sum();
        let span: f64 = jobs
            .iter()
            .map(|j| (j.p_max() - j.p_min()).value() * j.nodes as f64)
            .sum();
        let gamma = if span <= 0.0 {
            1.0
        } else {
            ((budget.value() - base) / span).clamp(0.0, 1.0)
        };
        jobs.iter()
            .map(|j| j.p_min() + (j.p_max() - j.p_min()) * gamma)
            .collect()
    }
}

// ---------------------------------------------------------------------------

/// The performance-aware balancer: a single expected slowdown `s` is
/// imposed on every job through its believed model,
/// `p_cap = P_j(s·T_j(p_max))`, found by bisection on `s` (Section 4.4.3).
///
/// ```
/// use anor_policy::{Budgeter, EvenSlowdownBudgeter, JobView};
/// use anor_types::{standard_catalog, JobId, Watts};
///
/// let cat = standard_catalog();
/// let jobs = vec![
///     JobView::from_spec(JobId(0), cat.find("bt").unwrap()), // sensitive
///     JobView::from_spec(JobId(1), cat.find("sp").unwrap()), // insensitive
/// ];
/// let caps = EvenSlowdownBudgeter.assign(Watts(840.0), &jobs);
/// // Power is steered toward the job that converts it into speed.
/// assert!(caps[0].value() > caps[1].value());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct EvenSlowdownBudgeter;

impl EvenSlowdownBudgeter {
    /// Bisection convergence tolerance on total watts.
    const TOLERANCE: Watts = Watts(0.5);
    /// Bisection iteration bound.
    const MAX_ITERS: u32 = 64;

    fn caps_at(&self, s: f64, jobs: &[JobView]) -> Vec<Watts> {
        jobs.iter().map(|j| j.cap_for_slowdown(s)).collect()
    }

    /// [`Self::caps_at`] into an existing buffer: the bisection loop
    /// re-evaluates caps up to `MAX_ITERS` times per assignment and this
    /// is the budgeter's per-pump (and the simulator's per-tick) hot
    /// path, so it must not allocate per iteration.
    fn fill_caps(&self, s: f64, jobs: &[JobView], caps: &mut [Watts]) {
        for (j, c) in jobs.iter().zip(caps.iter_mut()) {
            *c = j.cap_for_slowdown(s);
        }
    }
}

impl Budgeter for EvenSlowdownBudgeter {
    fn assign(&self, budget: Watts, jobs: &[JobView]) -> Vec<Watts> {
        if jobs.is_empty() {
            return Vec::new();
        }
        // Feasible window.
        let at_max = self.caps_at(1.0, jobs);
        if total_power(jobs, &at_max).value() <= budget.value() {
            return at_max;
        }
        // Upper bound on useful s: the worst believed slowdown any job
        // reaches at its minimum cap (beyond that everyone saturates).
        let s_hi = jobs
            .iter()
            .map(|j| j.believed_slowdown(j.p_min()))
            .fold(1.0f64, f64::max)
            .max(1.0 + 1e-9);
        let at_min = self.caps_at(s_hi, jobs);
        if total_power(jobs, &at_min).value() >= budget.value() {
            return at_min;
        }
        // Bisect: total power is non-increasing in s.
        let (mut lo, mut hi) = (1.0, s_hi);
        let mut caps = at_min;
        for _ in 0..Self::MAX_ITERS {
            let mid = 0.5 * (lo + hi);
            self.fill_caps(mid, jobs, &mut caps);
            let total = total_power(jobs, &caps);
            if (total - budget).abs().value() <= Self::TOLERANCE.value() {
                return caps;
            }
            if total.value() > budget.value() {
                lo = mid; // too much power -> allow more slowdown
            } else {
                hi = mid;
            }
            // Once the bracket is a ULP wide the midpoint reproduces an
            // endpoint and further iterations re-evaluate the same s
            // forever; stop refining.
            if hi - lo <= hi * f64::EPSILON {
                break;
            }
        }
        // A believed curve with flat spans makes total power
        // discontinuous in s, so the budget crossing can sit inside a
        // jump the tolerance never meets and the final midpoint may land
        // on the over-budget side. Take the under-budget side (`hi` only
        // ever adopts midpoints whose total fit) — the budgeter must
        // never assign more watts than it was given — then spend the
        // stranded gap performance-agnostically: jobs whose flat spans
        // caused the jump are belief-indifferent across it, so the only
        // defensible split of the leftover watts is uniform per node.
        if total_power(jobs, &caps).value() > budget.value() + Self::TOLERANCE.value() {
            caps = self.caps_at(hi, jobs);
        }
        let mut spare = (budget - total_power(jobs, &caps)).value();
        // Equal watts per node among every job still below its p_max,
        // saturating and redistributing until the gap is spent. Each
        // round saturates at least one job, so the loop is bounded.
        for _ in 0..=jobs.len() {
            if spare <= 1e-9 {
                break;
            }
            let taker_nodes: f64 = jobs
                .iter()
                .zip(&caps)
                .filter(|&(j, &c)| c < j.p_max())
                .map(|(j, _)| f64::from(j.nodes))
                .sum();
            if taker_nodes <= 0.0 {
                break;
            }
            let per_node = Watts(spare / taker_nodes);
            for (j, c) in jobs.iter().zip(caps.iter_mut()) {
                let grant = per_node.min(j.p_max() - *c).max(Watts::ZERO);
                spare -= grant.value() * f64::from(j.nodes);
                *c += grant;
            }
        }
        caps
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

    fn total(jobs: &[JobView], caps: &[Watts]) -> f64 {
        total_power(jobs, caps).value()
    }

    #[test]
    fn empty_job_list_is_empty_assignment() {
        for b in [
            &UniformBudgeter as &dyn Budgeter,
            &EvenPowerBudgeter,
            &EvenSlowdownBudgeter,
        ] {
            assert!(b.assign(Watts(1000.0), &[]).is_empty());
        }
    }

    #[test]
    fn uniform_gives_same_cap_everywhere() {
        let jobs = views(&["bt.D.81", "sp.D.81"]); // 2 + 2 nodes
        let caps = UniformBudgeter.assign(Watts(840.0), &jobs);
        assert_eq!(caps[0], Watts(210.0));
        assert_eq!(caps[1], Watts(210.0));
    }

    #[test]
    fn uniform_clamps_to_platform_range() {
        let jobs = views(&["bt.D.81"]);
        let caps = UniformBudgeter.assign(Watts(100.0), &jobs);
        assert_eq!(caps[0], Watts(140.0), "clamped up to platform min");
        let caps = UniformBudgeter.assign(Watts(2000.0), &jobs);
        assert_eq!(caps[0], Watts(280.0), "clamped down to platform max");
    }

    #[test]
    fn even_power_meets_budget_in_window() {
        let jobs = views(&["bt.D.81", "is.D.32", "ep.D.43"]); // 2+1+1 nodes
        let budget = Watts(800.0);
        let caps = EvenPowerBudgeter.assign(budget, &jobs);
        assert!((total(&jobs, &caps) - 800.0).abs() < 1e-6);
        // All jobs sit at the same fraction of their window.
        let f0 = jobs[0].power_window().fraction(caps[0]);
        let f1 = jobs[1].power_window().fraction(caps[1]);
        let f2 = jobs[2].power_window().fraction(caps[2]);
        assert!((f0 - f1).abs() < 1e-9 && (f1 - f2).abs() < 1e-9);
    }

    #[test]
    fn even_power_saturates_outside_window() {
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        // Below everyone's floor.
        let caps = EvenPowerBudgeter.assign(Watts(100.0), &jobs);
        assert!(caps.iter().zip(&jobs).all(|(c, j)| *c == j.p_min()));
        // Above everyone's ceiling (gamma = 1 -> p_max per job).
        let caps = EvenPowerBudgeter.assign(Watts(5000.0), &jobs);
        assert_eq!(caps[0], jobs[0].p_max());
        assert_eq!(caps[1], jobs[1].p_max());
    }

    #[test]
    fn even_slowdown_meets_budget_and_equalizes() {
        let jobs = views(&["bt.D.81", "ep.D.43"]); // both sensitive
        let budget = Watts(650.0);
        let caps = EvenSlowdownBudgeter.assign(budget, &jobs);
        assert!(
            (total(&jobs, &caps) - 650.0).abs() < 1.0,
            "total {}",
            total(&jobs, &caps)
        );
        let s0 = jobs[0].believed_slowdown(caps[0]);
        let s1 = jobs[1].believed_slowdown(caps[1]);
        assert!((s0 - s1).abs() < 0.01, "slowdowns {s0} vs {s1}");
        assert!(s0 > 1.0);
    }

    #[test]
    fn even_slowdown_steers_power_to_sensitive_jobs() {
        // BT (sensitive) + SP (insensitive) at a tight shared budget:
        // BT must receive a higher cap than SP.
        let jobs = views(&["bt.D.81", "sp.D.81"]);
        let budget = Watts(840.0); // 210 W/node average over 4 nodes
        let caps = EvenSlowdownBudgeter.assign(budget, &jobs);
        assert!(
            caps[0].value() > caps[1].value() + 10.0,
            "bt {} vs sp {}",
            caps[0],
            caps[1]
        );
        // Compare with even-power: the gap between policies is the Fig. 4
        // mid-range opportunity.
        let ep_caps = EvenPowerBudgeter.assign(budget, &jobs);
        let worst_aware = jobs
            .iter()
            .zip(&caps)
            .map(|(j, &c)| j.believed_slowdown(c))
            .fold(0.0f64, f64::max);
        let worst_unaware = jobs
            .iter()
            .zip(&ep_caps)
            .map(|(j, &c)| j.believed_slowdown(c))
            .fold(0.0f64, f64::max);
        assert!(
            worst_aware < worst_unaware,
            "even-slowdown should improve the worst job: {worst_aware} vs {worst_unaware}"
        );
    }

    #[test]
    fn even_slowdown_low_sensitivity_jobs_level_off() {
        // At a very tight budget, IS saturates at the minimum cap while
        // EP keeps more power (Section 6.1.1's "level off").
        let jobs = views(&["is.D.32", "ep.D.43"]);
        let budget = Watts(360.0);
        let caps = EvenSlowdownBudgeter.assign(budget, &jobs);
        assert_eq!(caps[0], jobs[0].p_min(), "IS pinned at min cap");
        assert!(caps[1].value() > jobs[1].p_min().value() + 20.0);
    }

    #[test]
    fn even_slowdown_saturates_at_budget_extremes() {
        let jobs = views(&["bt.D.81", "cg.D.32"]);
        let caps = EvenSlowdownBudgeter.assign(Watts(10_000.0), &jobs);
        assert_eq!(caps[0], jobs[0].p_max());
        assert_eq!(caps[1], jobs[1].p_max());
        let caps = EvenSlowdownBudgeter.assign(Watts(10.0), &jobs);
        assert_eq!(caps[0], jobs[0].p_min());
        assert_eq!(caps[1], jobs[1].p_min());
    }

    #[test]
    fn even_slowdown_never_over_allocates_on_flat_curves() {
        use anor_types::{CapRange, PowerCurve, Seconds};
        // A feedback-retrained believed curve can be perfectly flat
        // (zero sensitivity): total power is then discontinuous in s and
        // the bisection tolerance can never be met at the crossing. The
        // assignment must exit on the under-budget side — handing out
        // more watts than the budget breaks cluster conservation.
        let mut jobs = views(&["bt.D.81", "sp.D.81"]); // 2 + 2 nodes
        let flat = PowerCurve::from_anchor(Seconds(100.0), 0.0, CapRange::paper_node());
        jobs[1] = jobs[1].clone().with_curve(flat);
        let floor: f64 = jobs
            .iter()
            .map(|j| j.p_min().value() * j.nodes as f64)
            .sum();
        for budget in [600.0, 700.0, 840.0, 900.0, 1000.0] {
            let caps = EvenSlowdownBudgeter.assign(Watts(budget), &jobs);
            let spent = total(&jobs, &caps);
            assert!(
                spent <= budget.max(floor) + 1.0,
                "budget {budget}: assigned {spent}"
            );
        }
    }

    #[test]
    fn node_counts_weight_the_budget() {
        // A 2-node job consumes twice its cap from the budget.
        let jobs = views(&["ft.D.64", "mg.D.32"]); // 2 + 1 nodes
        let caps = EvenPowerBudgeter.assign(Watts(600.0), &jobs);
        let spent = caps[0].value() * 2.0 + caps[1].value();
        assert!((spent - 600.0).abs() < 1e-6, "spent {spent}");
    }
}
