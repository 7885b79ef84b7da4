//! End-to-end integration tests: the full ANOR stack — simulated nodes,
//! GEOPM runtimes, job-tier endpoints, the budgeter daemon — wired
//! together through the emulated cluster's in-process links.

use anor::aqa::{PowerTarget, RegulationSignal};
use anor::cluster::{BudgetPolicy, EmulatedCluster, EmulatorConfig, JobSetup};
use anor::types::{Seconds, Watts};

fn cluster(policy: BudgetPolicy, feedback: bool) -> EmulatedCluster {
    EmulatedCluster::new(EmulatorConfig::paper(policy, feedback))
}

#[test]
fn uncapped_jobs_finish_at_nominal_time() {
    let report = cluster(BudgetPolicy::Uniform, false)
        .run_static(
            &[JobSetup::known("mg.D.32"), JobSetup::known("cg.D.32")],
            Watts(100_000.0),
        )
        .unwrap();
    for job in &report.jobs {
        assert!(
            (0.9..1.15).contains(&job.slowdown),
            "{}: uncapped slowdown {}",
            job.true_type,
            job.slowdown
        );
    }
}

#[test]
fn paper_figure_6_ordering_end_to_end() {
    // The core result chain of the paper, on the real code path:
    // characterized-aware < agnostic for the sensitive job; misclassified
    // worse; feedback in between.
    let jobs_known = [JobSetup::known("bt.D.81"), JobSetup::known("sp.D.81")];
    let jobs_mis = [
        JobSetup::misclassified("bt.D.81", "is.D.32"),
        JobSetup::known("sp.D.81"),
    ];
    let bt = |policy, feedback, jobs: &[JobSetup]| {
        cluster(policy, feedback)
            .run_static(jobs, Watts(840.0))
            .unwrap()
            .mean_slowdown("bt.D.81")
            .unwrap()
    };
    let agnostic = bt(BudgetPolicy::Uniform, false, &jobs_known);
    let aware = bt(BudgetPolicy::EvenSlowdown, false, &jobs_known);
    let misclassified = bt(BudgetPolicy::EvenSlowdown, false, &jobs_mis);
    let adjusted = bt(BudgetPolicy::EvenSlowdown, true, &jobs_mis);
    assert!(aware < agnostic, "aware {aware} vs agnostic {agnostic}");
    assert!(
        misclassified > aware,
        "misclassified {misclassified} vs aware {aware}"
    );
    assert!(
        adjusted < misclassified,
        "adjusted {adjusted} vs misclassified {misclassified}"
    );
    // Feedback recovers *most* of the gap (paper: "recover much of the
    // lost performance").
    let recovered = (misclassified - adjusted) / (misclassified - aware);
    assert!(recovered > 0.5, "only {recovered:.2} of the gap recovered");
}

#[test]
fn even_power_budgeter_also_works_end_to_end() {
    let report = cluster(BudgetPolicy::EvenPower, false)
        .run_static(
            &[JobSetup::known("bt.D.81"), JobSetup::known("is.D.32")],
            Watts(700.0),
        )
        .unwrap();
    assert_eq!(report.jobs.len(), 2);
    for job in &report.jobs {
        assert!(job.slowdown >= 0.9 && job.slowdown < 2.2);
    }
}

#[test]
fn moving_target_is_tracked_through_the_daemon() {
    let jobs = [
        JobSetup::known("bt.D.81"),
        JobSetup::known("bt.D.81"),
        JobSetup::known("lu.D.42").at(Seconds(5.0)),
    ];
    let target = PowerTarget {
        avg: Watts(1950.0),
        reserve: Watts(250.0),
        signal: RegulationSignal::Sinusoid {
            period: Seconds(100.0),
            amplitude: 0.7,
        },
    };
    let report = cluster(BudgetPolicy::EvenSlowdown, false)
        .run_demand_response(&jobs, target, true)
        .unwrap();
    let within = report.tracking_within_30.unwrap();
    assert!(within > 0.55, "within-30 fraction {within}");
    // The measured power must actually *move* with the target (not flat).
    let measured: Vec<f64> = report
        .power_trace
        .iter()
        .map(|(_, _, m)| m.value())
        .collect();
    let min = measured.iter().cloned().fold(f64::MAX, f64::min);
    let max = measured.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        max - min > 150.0,
        "measured power never moved: {min}..{max}"
    );
}

#[test]
fn staggered_arrivals_queue_and_complete() {
    // More work than the cluster fits at once, arriving over time.
    let mut jobs = Vec::new();
    for k in 0..10 {
        jobs.push(JobSetup::known("ft.D.64").at(Seconds(10.0 * k as f64)));
    }
    let report = cluster(BudgetPolicy::EvenSlowdown, false)
        .run_static(&jobs, Watts(4000.0))
        .unwrap();
    assert_eq!(report.jobs.len(), 10);
    // All complete, in-order bookkeeping intact.
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.job.0, i as u64);
        assert!(job.start.value() >= job.submit.value() - 1.0);
        assert!(job.elapsed.value() > 0.0);
    }
}

#[test]
fn unknown_announced_type_hits_default_rule_and_still_completes() {
    // Announce a name the budgeter's catalog does not contain: the
    // configured default (least-sensitive) applies, the job still runs.
    let jobs = [
        JobSetup::misclassified("bt.D.81", "proprietary-app-7"),
        JobSetup::known("sp.D.81"),
    ];
    let report = cluster(BudgetPolicy::EvenSlowdown, false)
        .run_static(&jobs, Watts(840.0))
        .unwrap();
    assert_eq!(report.jobs.len(), 2);
    let bt = report.mean_slowdown("bt.D.81").unwrap();
    // Treated as least-sensitive -> starved -> visibly slowed.
    assert!(bt > 1.05, "unknown-typed BT should be starved: {bt}");
}

#[test]
fn feedback_also_corrects_overprediction() {
    // SP misclassified as EP steals power from BT; feedback hands it back.
    let jobs = [
        JobSetup::known("bt.D.81"),
        JobSetup::misclassified("sp.D.81", "ep.D.43"),
    ];
    let bt_over = cluster(BudgetPolicy::EvenSlowdown, false)
        .run_static(&jobs, Watts(840.0))
        .unwrap()
        .mean_slowdown("bt.D.81")
        .unwrap();
    let bt_fed = cluster(BudgetPolicy::EvenSlowdown, true)
        .run_static(&jobs, Watts(840.0))
        .unwrap()
        .mean_slowdown("bt.D.81")
        .unwrap();
    assert!(
        bt_fed < bt_over + 1e-9,
        "feedback must not hurt BT: {bt_fed} vs {bt_over}"
    );
}

#[test]
fn deterministic_given_seed() {
    let jobs = [JobSetup::known("mg.D.32"), JobSetup::known("cg.D.32")];
    let run = |seed: u64| {
        let mut cfg = EmulatorConfig::paper(BudgetPolicy::EvenSlowdown, true);
        cfg.seed = seed;
        EmulatedCluster::new(cfg)
            .run_static(&jobs, Watts(700.0))
            .unwrap()
            .jobs
            .iter()
            .map(|j| j.elapsed.value())
            .collect::<Vec<f64>>()
    };
    assert_eq!(run(5), run(5), "same seed, same result");
}
