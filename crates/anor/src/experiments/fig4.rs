//! Fig. 4: estimated slowdown when one instance of each of the 8 job
//! types runs under a shared cluster power budget, comparing the
//! even-slowdown (ideal) budgeter against even power caps.

use crate::render::Series;
use anor_exec::ExecPool;
use anor_policy::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, JobView};
use anor_types::{standard_catalog, JobId, Watts};

/// Data for one budgeter: a slowdown-vs-budget series per job type.
#[derive(Debug, Clone)]
pub struct Fig4Output {
    /// Even-slowdown ("Even Slowdown (Ideal)" in the figure legend).
    pub even_slowdown: Vec<Series>,
    /// Even power caps.
    pub even_power: Vec<Series>,
}

/// The budgets swept in the figure (x axis 1500–3000 W).
pub fn budgets() -> Vec<f64> {
    (0..=15).map(|i| 1500.0 + 100.0 * i as f64).collect()
}

/// Run the analysis fanning the budget sweep out over `jobs` workers
/// (0 = resolve from `ANOR_JOBS` / available parallelism). Each budget
/// point is an independent assignment; results come back in sweep order
/// and series assembly is serial, so output is identical for any count.
pub fn run(jobs: usize) -> Fig4Output {
    let catalog = standard_catalog();
    let views: Vec<JobView> = catalog
        .iter()
        .map(|spec| JobView::from_spec(JobId(spec.id.0 as u64), spec))
        .collect();
    let pool = ExecPool::new(jobs);
    let budget_points = budgets();
    let sweep = |b: &(dyn Budgeter + Sync)| -> Vec<Series> {
        let rows = pool.map(&budget_points, |&budget| {
            let caps = b.assign(Watts(budget), &views);
            views
                .iter()
                .zip(&caps)
                // Slowdown as % above uncapped, like the figure's y axis.
                .map(|(view, cap)| (view.believed_slowdown(*cap) - 1.0) * 100.0)
                .collect::<Vec<f64>>()
        });
        let mut per_type: Vec<Series> = catalog
            .iter()
            .map(|s| Series::new(s.name.clone()))
            .collect();
        for (&budget, row) in budget_points.iter().zip(rows) {
            for (slowdown, series) in row.into_iter().zip(&mut per_type) {
                series.push(budget, slowdown, 0.0);
            }
        }
        per_type
    };
    Fig4Output {
        even_slowdown: sweep(&EvenSlowdownBudgeter),
        even_power: sweep(&EvenPowerBudgeter),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_at(series: &[Series], budget: f64) -> f64 {
        series
            .iter()
            .map(|s| s.y_at(budget).unwrap())
            .fold(0.0, f64::max)
    }

    #[test]
    fn even_slowdown_reduces_worst_job_in_midrange() {
        let out = run(0);
        // Mid-range budgets: clear win for even-slowdown (Section 6.1.1).
        for budget in [1800.0, 2100.0, 2400.0] {
            let worst_es = max_at(&out.even_slowdown, budget);
            let worst_ep = max_at(&out.even_power, budget);
            assert!(
                worst_es < worst_ep,
                "at {budget} W: even-slowdown worst {worst_es} vs even-power {worst_ep}"
            );
        }
    }

    #[test]
    fn slowdown_range_widens_as_budget_decreases_under_even_power() {
        let out = run(0);
        let spread = |budget: f64| {
            let ys: Vec<f64> = out
                .even_power
                .iter()
                .map(|s| s.y_at(budget).unwrap())
                .collect();
            ys.iter().cloned().fold(0.0, f64::max) - ys.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(spread(1500.0) > spread(2500.0));
    }

    #[test]
    fn no_opportunity_at_extreme_budgets() {
        let out = run(0);
        // At the top budget every job is (nearly) uncapped under both.
        let hi = budgets().last().copied().unwrap();
        assert!(max_at(&out.even_slowdown, hi) < 12.0);
        assert!((max_at(&out.even_slowdown, hi) - max_at(&out.even_power, hi)).abs() < 10.0);
    }

    #[test]
    fn equal_slowdown_across_unsaturated_jobs() {
        let out = run(0);
        // At a mid budget, jobs not pinned at min cap share one slowdown.
        let ys: Vec<f64> = out
            .even_slowdown
            .iter()
            .map(|s| s.y_at(2400.0).unwrap())
            .collect();
        let max = ys.iter().cloned().fold(0.0, f64::max);
        // Every job is either at the common slowdown or below it
        // (leveled off at min cap with a *smaller* slowdown).
        for y in ys {
            assert!(y <= max + 1e-6);
        }
        assert!(max > 0.5, "some slowdown must exist at 2400 W: {max}");
    }
}
