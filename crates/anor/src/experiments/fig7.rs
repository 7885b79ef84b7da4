//! Fig. 7: two instances of BT (high power sensitivity) co-scheduled
//! under the shared 840 W budget, with one instance potentially
//! misclassified as IS. The paper uses 3 back-to-back trials.

use super::hw::{run_configs, HwBar, HwConfig, HwRunOptions};
use anor_cluster::{BudgetPolicy, JobSetup};
use anor_types::Result;

/// The four configuration rows of the figure.
pub fn configs() -> Vec<HwConfig> {
    let known = || [JobSetup::known("bt.D.81"), JobSetup::known("bt.D.81")];
    let one_as_is = || {
        [
            JobSetup::known("bt.D.81"),
            JobSetup::misclassified("bt.D.81", "is.D.32"),
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
            "Under-estimate bt",
            BudgetPolicy::EvenSlowdown,
            false,
            one_as_is(),
        ),
        HwConfig::new(
            "Under-estimate bt, with feedback",
            BudgetPolicy::EvenSlowdown,
            true,
            one_as_is(),
        ),
    ]
}

/// Run the figure with `trials` trials (paper: 3) and every optional
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
    fn homogeneous_jobs_make_policies_agree_and_misclassification_hurts() {
        let bars = run(1, 3, &HwRunOptions::default()).unwrap();
        // With identical job types, agnostic and aware make the same
        // decisions (Fig. 7 discussion).
        let agnostic = &bar(&bars, "Performance Agnostic").jobs;
        let aware = &bar(&bars, "Performance Aware").jobs;
        let mean_of = |rows: &Vec<(String, f64, f64)>| {
            rows.iter().map(|(_, y, _)| *y).sum::<f64>() / rows.len() as f64
        };
        assert!(
            (mean_of(agnostic) - mean_of(aware)).abs() < 3.0,
            "agnostic {} vs aware {}",
            mean_of(agnostic),
            mean_of(aware)
        );
        // The misclassified instance slows down more; feedback recovers.
        let mis = bar(&bars, "Under-estimate bt");
        let fed = bar(&bars, "Under-estimate bt, with feedback");
        let mis_job = mis
            .jobs
            .iter()
            .find(|(n, _, _)| n.contains('='))
            .expect("misclassified job labelled with =");
        let fed_job = fed.jobs.iter().find(|(n, _, _)| n.contains('=')).unwrap();
        assert!(
            mis_job.1 > mean_of(aware),
            "misclassified {} vs aware {}",
            mis_job.1,
            mean_of(aware)
        );
        assert!(
            fed_job.1 < mis_job.1,
            "feedback {} vs no-feedback {}",
            fed_job.1,
            mis_job.1
        );
    }
}
