//! Fig. 5: performance impact when a medium-sensitivity job (FT) is
//! misclassified as higher (EP) or lower (IS) sensitivity than its true
//! behaviour, co-scheduled with a high-sensitivity (EP) and a
//! low-sensitivity (IS) job. Upper quadrants: the unknown job is smaller
//! (2 nodes vs 4-node known jobs); lower: larger (8 nodes vs 1-node
//! known jobs).

use crate::render::Series;
use anor_policy::{Budgeter, EvenPowerBudgeter, EvenSlowdownBudgeter, MisclassifyScenario};
use anor_types::{standard_catalog, Watts};

/// Direction of the misclassification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// FT assumed to be IS (its sensitivity is under-predicted).
    Underpredict,
    /// FT assumed to be EP (over-predicted).
    Overpredict,
}

/// Relative size of the unknown job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnknownSize {
    /// Unknown FT on 2 nodes, known jobs on 4 nodes each.
    Small,
    /// Unknown FT on 8 nodes, known jobs on 1 node each.
    Large,
}

/// One quadrant's data: for each of the three jobs, slowdown-vs-budget
/// series under the ideal, even-power, and mischaracterized budgeters.
#[derive(Debug, Clone)]
pub struct Quadrant {
    /// Which direction was simulated.
    pub direction: Direction,
    /// Which size was simulated.
    pub size: UnknownSize,
    /// Series labelled `"<job>/<budgeter>"`.
    pub series: Vec<Series>,
}

/// The budgets swept (x axis 1400–2800 W).
pub fn budgets() -> Vec<f64> {
    (0..=14).map(|i| 1400.0 + 100.0 * i as f64).collect()
}

/// Job labels in scenario order.
pub const JOBS: [&str; 3] = ["ep.D.x", "ft.D.x (unknown)", "is.D.x"];

/// Run one quadrant.
pub fn quadrant(direction: Direction, size: UnknownSize) -> Quadrant {
    let catalog = standard_catalog();
    let ep = catalog.find("ep").unwrap();
    let ft = catalog.find("ft").unwrap();
    let is = catalog.find("is").unwrap();
    let (ft_nodes, known_nodes) = match size {
        UnknownSize::Small => (2, 4),
        UnknownSize::Large => (8, 1),
    };
    let jobs = [(ep, known_nodes), (ft, ft_nodes), (is, known_nodes)];
    let assumed = match direction {
        Direction::Underpredict => is,
        Direction::Overpredict => ep,
    };
    let ideal = MisclassifyScenario::fully_known(&jobs);
    let mischaracterized = MisclassifyScenario::with_unknown(&jobs, 1, assumed);
    let even_slowdown = EvenSlowdownBudgeter;
    let mut series: Vec<Series> = Vec::new();
    for (label, scenario, budgeter) in [
        ("Ideal", &ideal, &even_slowdown as &dyn Budgeter),
        ("Even Power Caps", &ideal, &EvenPowerBudgeter),
        ("Mischaracterized", &mischaracterized, &even_slowdown),
    ] {
        let mut per_job: Vec<Series> = JOBS
            .iter()
            .map(|j| Series::new(format!("{j}/{label}")))
            .collect();
        for budget in budgets() {
            let outcome = scenario.evaluate(budgeter, Watts(budget));
            for (s, &slow) in per_job.iter_mut().zip(&outcome.slowdowns) {
                s.push(budget, (slow - 1.0) * 100.0, 0.0);
            }
        }
        series.extend(per_job);
    }
    Quadrant {
        direction,
        size,
        series,
    }
}

/// Run all four quadrants.
pub fn run() -> Vec<Quadrant> {
    let mut out = Vec::new();
    for size in [UnknownSize::Small, UnknownSize::Large] {
        for direction in [Direction::Underpredict, Direction::Overpredict] {
            out.push(quadrant(direction, size));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series<'a>(q: &'a Quadrant, job: &str, budgeter: &str) -> &'a Series {
        q.series
            .iter()
            .find(|s| s.label == format!("{job}/{budgeter}"))
            .unwrap()
    }

    /// Mean over the mid-range budgets, where the policies differ.
    fn midrange_mean(s: &Series) -> f64 {
        let xs = [1600.0, 1800.0, 2000.0, 2200.0];
        xs.iter().map(|&x| s.y_at(x).unwrap()).sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn underprediction_slows_unknown_job() {
        for size in [UnknownSize::Small, UnknownSize::Large] {
            let q = quadrant(Direction::Underpredict, size);
            let ft_mis = midrange_mean(series(&q, "ft.D.x (unknown)", "Mischaracterized"));
            let ft_ideal = midrange_mean(series(&q, "ft.D.x (unknown)", "Ideal"));
            assert!(
                ft_mis > ft_ideal + 1.0,
                "{size:?}: FT mis {ft_mis}% vs ideal {ft_ideal}%"
            );
        }
    }

    #[test]
    fn overprediction_slows_sensitive_coscheduled_job() {
        for size in [UnknownSize::Small, UnknownSize::Large] {
            let q = quadrant(Direction::Overpredict, size);
            let ep_mis = midrange_mean(series(&q, "ep.D.x", "Mischaracterized"));
            let ep_ideal = midrange_mean(series(&q, "ep.D.x", "Ideal"));
            assert!(
                ep_mis > ep_ideal + 0.5,
                "{size:?}: EP mis {ep_mis}% vs ideal {ep_ideal}%"
            );
        }
    }

    #[test]
    fn larger_unknown_job_amplifies_harm() {
        let small = quadrant(Direction::Overpredict, UnknownSize::Small);
        let large = quadrant(Direction::Overpredict, UnknownSize::Large);
        let harm = |q: &Quadrant| {
            midrange_mean(series(q, "ep.D.x", "Mischaracterized"))
                - midrange_mean(series(q, "ep.D.x", "Ideal"))
        };
        assert!(
            harm(&large) > harm(&small),
            "large {} vs small {}",
            harm(&large),
            harm(&small)
        );
    }

    #[test]
    fn all_quadrants_have_nine_series() {
        for q in run() {
            assert_eq!(q.series.len(), 9);
            for s in &q.series {
                assert_eq!(s.points.len(), budgets().len());
            }
        }
    }
}
