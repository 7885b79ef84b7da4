//! Fig. 6: BT (high power sensitivity) and SP (low power sensitivity)
//! co-scheduled under a shared 840 W budget (75% of TDP over 4 nodes),
//! across six configurations: performance agnostic, performance aware,
//! BT's sensitivity under-estimated (classified as IS) without and with
//! feedback, and SP's sensitivity over-estimated (classified as EP)
//! without and with feedback. The paper uses 3 trials.

use super::hw::{run_configs, HwBar, HwConfig, HwRunOptions};
use anor_cluster::{BudgetPolicy, JobSetup};
use anor_types::Result;

/// The six configuration rows of the figure.
pub fn configs() -> Vec<HwConfig> {
    let known = || [JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")];
    let bt_as_is = || {
        [
            JobSetup::misclassified("bt.D.81", "is.D.32"),
            JobSetup::known("sp.D.81"),
        ]
    };
    let sp_as_ep = || {
        [
            JobSetup::known("bt.D.81"),
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
            "Under-estimate bt",
            BudgetPolicy::EvenSlowdown,
            false,
            bt_as_is(),
        ),
        HwConfig::new(
            "Under-estimate bt, with feedback",
            BudgetPolicy::EvenSlowdown,
            true,
            bt_as_is(),
        ),
        HwConfig::new(
            "Over-estimate sp",
            BudgetPolicy::EvenSlowdown,
            false,
            sp_as_ep(),
        ),
        HwConfig::new(
            "Over-estimate sp, with feedback",
            BudgetPolicy::EvenSlowdown,
            true,
            sp_as_ep(),
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
    use super::super::hw::{bar, job_slowdown};
    use super::*;

    #[test]
    fn figure_6_shape_holds() {
        let bars = run(1, 42, &HwRunOptions::default()).unwrap();
        assert_eq!(bars.len(), 6);
        let bt = |label: &str| job_slowdown(bar(&bars, label), "bt");
        // Performance awareness reduces BT's slowdown vs agnostic.
        assert!(
            bt("Performance Aware") < bt("Performance Agnostic"),
            "aware {} vs agnostic {}",
            bt("Performance Aware"),
            bt("Performance Agnostic")
        );
        // Under-estimating BT degrades it vs fully characterized...
        assert!(bt("Under-estimate bt") > bt("Performance Aware"));
        // ...and feedback recovers part of the loss.
        assert!(
            bt("Under-estimate bt, with feedback") < bt("Under-estimate bt"),
            "feedback {} vs no-feedback {}",
            bt("Under-estimate bt, with feedback"),
            bt("Under-estimate bt")
        );
        // Over-estimating SP also degrades BT (power stolen by SP), and
        // feedback recovers.
        assert!(bt("Over-estimate sp") > bt("Performance Aware"));
        assert!(bt("Over-estimate sp, with feedback") < bt("Over-estimate sp"));
    }
}
