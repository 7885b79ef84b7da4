//! Cross-crate smoke tests: quick versions of each figure's experiment
//! must reproduce the paper's qualitative shape. (The `fig*` binaries in
//! `anor-bench` run the full-scale versions.)

use anor::experiments::{fig11, fig3, fig4, fig5, fig6, hw};
use anor::types::Seconds;

#[test]
fn fig3_curves_have_paper_shape() {
    let series = fig3::run(2, 1);
    assert_eq!(series.len(), 8);
    for s in &series {
        let top = s.y_at(280.0).unwrap();
        let bottom = s.y_at(140.0).unwrap();
        assert!((top - 1.0).abs() < 0.15, "{}: {top}", s.label);
        assert!(bottom >= top - 0.1 && bottom < 2.0, "{}: {bottom}", s.label);
    }
}

#[test]
fn fig4_even_slowdown_beats_even_power_midrange() {
    let out = fig4::run(0);
    let worst = |series: &[anor::render::Series], budget: f64| {
        series
            .iter()
            .map(|s| s.y_at(budget).unwrap())
            .fold(0.0, f64::max)
    };
    assert!(worst(&out.even_slowdown, 2100.0) < worst(&out.even_power, 2100.0));
}

#[test]
fn fig5_misclassification_asymmetry() {
    let q = fig5::quadrant(fig5::Direction::Underpredict, fig5::UnknownSize::Small);
    // 9 series (3 jobs × 3 budgeters), all covering the sweep.
    assert_eq!(q.series.len(), 9);
    let ft_mis = q
        .series
        .iter()
        .find(|s| s.label == "ft.D.x (unknown)/Mischaracterized")
        .unwrap();
    let ft_ideal = q
        .series
        .iter()
        .find(|s| s.label == "ft.D.x (unknown)/Ideal")
        .unwrap();
    assert!(ft_mis.y_at(1800.0).unwrap() > ft_ideal.y_at(1800.0).unwrap());
}

#[test]
fn fig6_single_trial_ordering() {
    let bars = fig6::run(1, 99, &hw::HwRunOptions::default()).unwrap();
    let bt = |label: &str| hw::job_slowdown(hw::bar(&bars, label), "bt");
    assert!(bt("Performance Aware") < bt("Performance Agnostic"));
    assert!(bt("Under-estimate bt") > bt("Performance Aware"));
    assert!(bt("Under-estimate bt, with feedback") < bt("Under-estimate bt"));
}

#[test]
fn fig11_quick_sweep_trends_up() {
    let mut cfg = fig11::Fig11Config::quick();
    cfg.horizon = Seconds(1200.0);
    let out = fig11::run(&cfg).unwrap();
    let mean_at = |x: f64| {
        let ys: Vec<f64> = out.series.iter().filter_map(|s| s.y_at(x)).collect();
        ys.iter().sum::<f64>() / ys.len() as f64
    };
    assert!(mean_at(30.0) > mean_at(0.0));
}
