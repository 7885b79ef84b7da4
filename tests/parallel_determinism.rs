//! The executor's determinism contract, enforced end to end: every
//! experiment runner that fans out over `anor-exec` must produce output
//! identical to serial execution for any worker count. Trial seeds are
//! pure functions of grid position and the pool returns results in
//! submission order, so `--jobs` may only change wall-clock time.

use anor::experiments::hw::HwRunOptions;
use anor::experiments::{fig11, fig4, fig6};
use anor::types::Seconds;

/// A fig11 configuration small enough for debug-mode test runs but
/// still exercising the full level × trial grid and the hourly-bid
/// search embedded in the runner.
fn fig11_small(jobs: usize) -> fig11::Fig11Config {
    fig11::Fig11Config {
        nodes: 40,
        trials: 2,
        levels: vec![0.0, 30.0],
        horizon: Seconds(600.0),
        jobs,
        ..fig11::Fig11Config::default()
    }
}

#[test]
fn fig11_output_is_identical_across_worker_counts() {
    let serial = fig11::run(&fig11_small(1)).expect("serial run");
    for jobs in [4, 8] {
        let parallel = fig11::run(&fig11_small(jobs)).expect("parallel run");
        assert_eq!(
            serial.series, parallel.series,
            "fig11 series diverged at --jobs {jobs}"
        );
        assert_eq!(
            serial.tracking_ok_fraction, parallel.tracking_ok_fraction,
            "fig11 tracking fractions diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn fig4_output_is_identical_across_worker_counts() {
    let serial = fig4::run(1);
    for jobs in [4, 8] {
        let parallel = fig4::run(jobs);
        assert_eq!(
            serial.even_slowdown, parallel.even_slowdown,
            "fig4 even-slowdown series diverged at --jobs {jobs}"
        );
        assert_eq!(
            serial.even_power, parallel.even_power,
            "fig4 even-power series diverged at --jobs {jobs}"
        );
    }
}

#[test]
fn emulated_trial_grid_is_identical_across_worker_counts() {
    // One emulated-hardware runner trial grid (fig6's six configs), one
    // trial each: full cluster emulations running concurrently, each on
    // its own in-process listener, must still aggregate to byte-identical
    // bars.
    let run = |jobs: usize| {
        let opts = HwRunOptions {
            jobs,
            ..HwRunOptions::default()
        };
        fig6::run(1, 6, &opts).expect("emulated run")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.jobs, p.jobs, "bars diverged at --jobs 4 for {}", s.label);
    }
}
