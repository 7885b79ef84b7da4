//! Least-squares fitting of power-performance models.
//!
//! Three fitters, in decreasing data-hunger order:
//!
//! * [`fit_quadratic`] — the paper's `T = A·P² + B·P + C` (3 parameters;
//!   needs ≥ 3 distinct cap levels). Used for offline precharacterization
//!   where sweeps cover the whole cap range (Fig. 3).
//! * [`fit_anchored`] — the 2-parameter family
//!   `T = t₀ + t₀·s·x²` with `x = (Pmax − P)/(Pmax − Pmin)`, linear in
//!   `(t₀, t₀·s)`; identifiable from just 2 distinct caps. The online
//!   modeler uses this while data is sparse.
//! * [`fit_linear`] — `T = B·P + C`, kept for the model-order ablation
//!   bench.

use anor_types::{AnorError, CapRange, PowerCurve, Result, Seconds, Watts};

/// A fitted model plus its goodness of fit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitResult {
    /// The fitted curve.
    pub curve: PowerCurve,
    /// Coefficient of determination on the training points.
    pub r2: f64,
}

/// Solve a small dense linear system `A x = b` by Gaussian elimination
/// with partial pivoting. Returns an error when the system is singular
/// (collinear observations).
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>> {
    let n = b.len();
    debug_assert!(a.len() == n && a.iter().all(|r| r.len() == n));
    for col in 0..n {
        // Partial pivot.
        let Some(pivot) = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
        else {
            // Unreachable for n > 0, but a degenerate system must yield a
            // fit error, never a panic inside the modeler.
            return Err(AnorError::model("empty system in pivot search"));
        };
        if a[pivot][col].abs() < 1e-12 {
            return Err(AnorError::model("singular normal equations"));
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let f = a[row][col] / a[col][col];
            // Indexing two rows of `a` simultaneously; iterator forms
            // would need split_at_mut gymnastics for no clarity gain.
            #[allow(clippy::needless_range_loop)]
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Ok(x)
}

/// Least squares over an arbitrary basis: returns coefficients minimizing
/// `Σ (Σ_k c_k φ_k(P_i) − T_i)²`.
fn least_squares(points: &[(Watts, Seconds)], basis: &[&dyn Fn(f64) -> f64]) -> Result<Vec<f64>> {
    let k = basis.len();
    if points.len() < k {
        return Err(AnorError::model(format!(
            "need at least {k} observations, have {}",
            points.len()
        )));
    }
    let mut ata = vec![vec![0.0; k]; k];
    let mut atb = vec![0.0; k];
    let mut phi = vec![0.0; k];
    for &(p, t) in points {
        for (slot, f) in phi.iter_mut().zip(basis) {
            *slot = f(p.value());
        }
        for i in 0..k {
            for j in 0..k {
                ata[i][j] += phi[i] * phi[j];
            }
            atb[i] += phi[i] * t.value();
        }
    }
    solve(ata, atb)
}

/// Number of distinct cap levels among observations, with a 1 W tolerance.
pub fn distinct_caps(points: &[(Watts, Seconds)]) -> usize {
    let mut caps: Vec<f64> = points.iter().map(|(p, _)| p.value()).collect();
    caps.sort_by(f64::total_cmp);
    let mut n = 0;
    let mut last = f64::NEG_INFINITY;
    for c in caps {
        if c - last > 1.0 {
            n += 1;
            last = c;
        }
    }
    n
}

/// `distinct_caps(points) >= k`, without allocating or sorting: `k`
/// min-scans, each taking the least cap more than 1 W above the level
/// the previous scan opened, which is the level the sorted scan of
/// [`distinct_caps`] opens next. NaN never qualifies, as there.
pub fn has_distinct_caps(points: &[(Watts, Seconds)], k: usize) -> bool {
    let mut last = f64::NEG_INFINITY;
    for _ in 0..k {
        let mut next: Option<f64> = None;
        for (p, _) in points {
            let c = p.value();
            if c - last > 1.0 && next.is_none_or(|n| c < n) {
                next = Some(c);
            }
        }
        match next {
            Some(c) => last = c,
            None => return false,
        }
    }
    true
}

/// Fit the paper's 3-parameter quadratic `T = A·P² + B·P + C`.
///
/// Requires ≥ 3 observations at ≥ 3 distinct cap levels; otherwise the
/// normal equations are singular.
pub fn fit_quadratic(points: &[(Watts, Seconds)]) -> Result<FitResult> {
    if !has_distinct_caps(points, 3) {
        return Err(AnorError::model(
            "quadratic fit needs 3 distinct cap levels",
        ));
    }
    // Center and scale P for conditioning: work in q = (P - mean)/scale.
    let mean = points.iter().map(|(p, _)| p.value()).sum::<f64>() / points.len() as f64;
    let scale = points
        .iter()
        .map(|(p, _)| (p.value() - mean).abs())
        .fold(0.0f64, f64::max)
        .max(1.0);
    let shifted: Vec<(Watts, Seconds)> = points
        .iter()
        .map(|&(p, t)| (Watts((p.value() - mean) / scale), t))
        .collect();
    let coeffs = least_squares(&shifted, &[&|q: f64| q * q, &|q: f64| q, &|_q: f64| 1.0])?;
    // Undo the substitution q = (P-mean)/scale:
    // a' q^2 + b' q + c' = a'(P-mean)^2/scale^2 + b'(P-mean)/scale + c'.
    let (ap, bp, cp) = (coeffs[0], coeffs[1], coeffs[2]);
    let a = ap / (scale * scale);
    let b = -2.0 * ap * mean / (scale * scale) + bp / scale;
    let c = ap * mean * mean / (scale * scale) - bp * mean / scale + cp;
    let curve = PowerCurve::new(a, b, c);
    Ok(FitResult {
        r2: r_squared(points, &curve),
        curve,
    })
}

/// Fit the 2-parameter anchored family
/// `T(P) = t₀·(1 + s·((Pmax − P)/span)²)` by linear least squares on the
/// basis `[1, x²]`. Negative fitted sensitivity is clamped to zero (more
/// power never hurts in this family).
pub fn fit_anchored(points: &[(Watts, Seconds)], range: CapRange) -> Result<FitResult> {
    if !has_distinct_caps(points, 2) {
        return Err(AnorError::model("anchored fit needs 2 distinct cap levels"));
    }
    let span = range.span().value();
    let pmax = range.max.value();
    let x = move |p: f64| {
        let v = (pmax - p) / span;
        v * v
    };
    let coeffs = least_squares(points, &[&|_p: f64| 1.0, &x])?;
    let (t0, v) = (coeffs[0], coeffs[1].max(0.0));
    if !(t0.is_finite() && t0 > 0.0) {
        return Err(AnorError::model(format!(
            "non-physical anchored fit t0={t0}"
        )));
    }
    let s = v / t0;
    let curve = PowerCurve::from_anchor(Seconds(t0), s, range);
    Ok(FitResult {
        r2: r_squared(points, &curve),
        curve,
    })
}

/// Fit a straight line `T = B·P + C` (model-order ablation baseline).
pub fn fit_linear(points: &[(Watts, Seconds)]) -> Result<FitResult> {
    if !has_distinct_caps(points, 2) {
        return Err(AnorError::model("linear fit needs 2 distinct cap levels"));
    }
    let coeffs = least_squares(points, &[&|p: f64| p, &|_p: f64| 1.0])?;
    let curve = PowerCurve::new(0.0, coeffs[0], coeffs[1]);
    Ok(FitResult {
        r2: r_squared(points, &curve),
        curve,
    })
}

/// Coefficient of determination of `curve` against observations.
/// Returns 1.0 for a perfect fit of zero-variance data.
pub fn r_squared(points: &[(Watts, Seconds)], curve: &PowerCurve) -> f64 {
    if points.is_empty() {
        return f64::NAN;
    }
    let mean_t = points.iter().map(|(_, t)| t.value()).sum::<f64>() / points.len() as f64;
    let ss_tot: f64 = points
        .iter()
        .map(|(_, t)| (t.value() - mean_t).powi(2))
        .sum();
    let ss_res: f64 = points
        .iter()
        .map(|&(p, t)| (t.value() - curve.time_at(p).value()).powi(2))
        .sum();
    if ss_tot <= 1e-18 {
        if ss_res <= 1e-12 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::stats::normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn range() -> CapRange {
        CapRange::paper_node()
    }

    /// Clean samples from a known curve across the cap range.
    fn samples(curve: &PowerCurve, caps: &[f64]) -> Vec<(Watts, Seconds)> {
        caps.iter()
            .map(|&p| (Watts(p), curve.time_at(Watts(p))))
            .collect()
    }

    #[test]
    fn quadratic_recovers_exact_curve() {
        let truth = PowerCurve::new(2.5e-5, -0.018, 6.0);
        let pts = samples(&truth, &[140.0, 175.0, 210.0, 245.0, 280.0]);
        let fit = fit_quadratic(&pts).unwrap();
        assert!((fit.curve.a - truth.a).abs() < 1e-10);
        assert!((fit.curve.b - truth.b).abs() < 1e-7);
        assert!((fit.curve.c - truth.c).abs() < 1e-4);
        assert!(fit.r2 > 0.999999);
    }

    #[test]
    fn quadratic_on_noisy_data_keeps_high_r2() {
        let truth = PowerCurve::from_anchor(Seconds(2.4), 0.75, range());
        let mut rng = StdRng::seed_from_u64(1);
        let pts: Vec<(Watts, Seconds)> = (0..200)
            .map(|i| {
                let p = 140.0 + (i % 15) as f64 * 10.0;
                let t = truth.time_at(Watts(p)).value() * normal(&mut rng, 1.0, 0.02);
                (Watts(p), Seconds(t))
            })
            .collect();
        let fit = fit_quadratic(&pts).unwrap();
        assert!(fit.r2 > 0.9, "r2 = {}", fit.r2);
        // Predictions track truth within a few percent mid-range.
        for p in [150.0, 200.0, 260.0] {
            let e = fit.curve.time_at(Watts(p)).value();
            let t = truth.time_at(Watts(p)).value();
            assert!((e - t).abs() / t < 0.05, "at {p} W: {e} vs {t}");
        }
    }

    #[test]
    fn quadratic_rejects_sparse_caps() {
        let truth = PowerCurve::new(1e-5, -0.01, 4.0);
        let pts = samples(&truth, &[140.0, 140.2, 210.0, 210.4]);
        assert!(fit_quadratic(&pts).is_err(), "2 distinct caps must fail");
    }

    #[test]
    fn anchored_fit_from_two_caps() {
        let truth = PowerCurve::from_anchor(Seconds(3.0), 0.6, range());
        let pts = samples(&truth, &[160.0, 160.0, 240.0, 240.0]);
        let fit = fit_anchored(&pts, range()).unwrap();
        for p in [140.0, 200.0, 280.0] {
            let e = fit.curve.time_at(Watts(p)).value();
            let t = truth.time_at(Watts(p)).value();
            assert!((e - t).abs() / t < 0.01, "at {p} W: {e} vs {t}");
        }
    }

    #[test]
    fn anchored_fit_clamps_negative_sensitivity() {
        // Data where *less* power looks faster (noise artifact): s clamps
        // to 0 -> flat curve.
        let pts = vec![
            (Watts(150.0), Seconds(1.0)),
            (Watts(150.0), Seconds(1.02)),
            (Watts(270.0), Seconds(1.1)),
        ];
        let fit = fit_anchored(&pts, range()).unwrap();
        assert!(fit.curve.is_monotone_decreasing_on(range()));
        let flat = (fit.curve.time_at(Watts(140.0)).value()
            - fit.curve.time_at(Watts(280.0)).value())
        .abs();
        assert!(flat < 1e-9, "curve should be flat, spread {flat}");
    }

    #[test]
    fn anchored_fit_needs_two_levels() {
        let pts = vec![(Watts(200.0), Seconds(1.0)), (Watts(200.5), Seconds(1.1))];
        assert!(fit_anchored(&pts, range()).is_err());
    }

    #[test]
    fn linear_fit_recovers_line() {
        let truth = PowerCurve::new(0.0, -0.01, 5.0);
        let pts = samples(&truth, &[140.0, 200.0, 280.0]);
        let fit = fit_linear(&pts).unwrap();
        assert!((fit.curve.b + 0.01).abs() < 1e-10);
        assert!((fit.curve.c - 5.0).abs() < 1e-8);
        assert_eq!(fit.curve.a, 0.0);
    }

    #[test]
    fn r_squared_degenerate_cases() {
        let c = PowerCurve::new(0.0, 0.0, 2.0);
        // Zero-variance data, perfect fit.
        let pts = vec![(Watts(150.0), Seconds(2.0)), (Watts(250.0), Seconds(2.0))];
        assert_eq!(r_squared(&pts, &c), 1.0);
        // Zero-variance data, wrong constant.
        let pts = vec![(Watts(150.0), Seconds(3.0)), (Watts(250.0), Seconds(3.0))];
        assert_eq!(r_squared(&pts, &c), 0.0);
        assert!(r_squared(&[], &c).is_nan());
    }

    #[test]
    fn distinct_cap_counting() {
        let pts = vec![
            (Watts(140.0), Seconds(1.0)),
            (Watts(140.5), Seconds(1.0)),
            (Watts(142.0), Seconds(1.0)),
            (Watts(200.0), Seconds(1.0)),
        ];
        assert_eq!(distinct_caps(&pts), 3);
        assert_eq!(distinct_caps(&[]), 0);
    }

    #[test]
    fn anchored_matches_paper_noise_profile() {
        // Reproduce Section 5.1's fit-quality pattern: a low-noise type
        // fits with R² >= 0.97, a noisy SP-like type fits worse.
        let mut rng = StdRng::seed_from_u64(42);
        let mut gen = |sens: f64, sigma: f64| {
            let truth = PowerCurve::from_anchor(Seconds(1.8), sens, range());
            let pts: Vec<(Watts, Seconds)> = (0..300)
                .map(|i| {
                    let p = 140.0 + (i % 8) as f64 * 20.0;
                    let t = truth.time_at(Watts(p)).value() * normal(&mut rng, 1.0, sigma);
                    (Watts(p), Seconds(t))
                })
                .collect();
            fit_quadratic(&pts).unwrap().r2
        };
        let r2_bt = gen(0.75, 0.02);
        let r2_sp = gen(0.15, 0.12);
        assert!(r2_bt > 0.97, "bt-like r2 {r2_bt}");
        assert!(r2_sp < r2_bt, "sp-like r2 {r2_sp} not worse than {r2_bt}");
    }
}
