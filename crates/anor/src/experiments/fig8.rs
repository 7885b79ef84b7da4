//! Fig. 8: two instances of SP (low power sensitivity) co-scheduled
//! under the shared 840 W budget, with one instance potentially
//! misclassified as EP. The paper uses 6 back-to-back trials.

use super::hw::{run_configs, HwBar, HwConfig, HwRunOptions};
use anor_cluster::{BudgetPolicy, JobSetup};
use anor_types::Result;

/// The four configuration rows of the figure.
pub fn configs() -> Vec<HwConfig> {
    let known = || [JobSetup::known("sp.D.81"), JobSetup::known("sp.D.81")];
    let one_as_ep = || {
        [
            JobSetup::known("sp.D.81"),
            JobSetup::misclassified("sp.D.81", "ep.D.43"),
        ]
    };
    vec![
        HwConfig::new(
            "Performance Agnostic",
            BudgetPolicy::Uniform,
            false,
            known(),
        ),
        HwConfig::new(
            "Performance Aware",
            BudgetPolicy::EvenSlowdown,
            false,
            known(),
        ),
        HwConfig::new(
            "Over-estimate sp",
            BudgetPolicy::EvenSlowdown,
            false,
            one_as_ep(),
        ),
        HwConfig::new(
            "Over-estimate sp, with feedback",
            BudgetPolicy::EvenSlowdown,
            true,
            one_as_ep(),
        ),
    ]
}

/// Run the figure with `trials` trials (paper: 6) and every optional
/// knob — telemetry, tracing, workers, chaos, recording, connection
/// plane — in `opts`.
pub fn run(trials: usize, seed: u64, opts: &HwRunOptions) -> Result<Vec<HwBar>> {
    run_configs(&configs(), trials, seed, opts)
}

#[cfg(test)]
mod tests {
    use super::super::hw::bar;
    use super::*;

    #[test]
    fn overestimating_one_sp_slows_its_coscheduled_sibling() {
        let bars = run(1, 5, &HwRunOptions::default()).unwrap();
        // Misclassifying one low-sensitivity job steals power from the
        // correctly classified sibling (small slowdown shift, Fig. 8).
        let aware = bar(&bars, "Performance Aware");
        let over = bar(&bars, "Over-estimate sp");
        let fed = bar(&bars, "Over-estimate sp, with feedback");
        let correctly_classified = |b: &super::super::hw::HwBar| {
            b.jobs.iter().find(|(n, _, _)| !n.contains('=')).unwrap().1
        };
        let base = correctly_classified(aware);
        let hurt = correctly_classified(over);
        let recovered = correctly_classified(fed);
        assert!(
            hurt >= base - 0.5,
            "sibling should not speed up: {hurt} vs {base}"
        );
        assert!(
            recovered <= hurt + 0.5,
            "feedback should not make it worse: {recovered} vs {hurt}"
        );
        // Slowdowns stay small for the insensitive SP pair (y axis tops
        // out around 6% in the figure).
        for b in &bars {
            for (name, y, _) in &b.jobs {
                assert!(*y < 15.0, "{}/{name}: slowdown {y}% too large", b.label);
            }
        }
    }
}
