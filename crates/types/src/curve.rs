//! The quadratic power-performance model shared between tiers.
//!
//! Section 4.2 of the paper fits `T = A·P² + B·P + C` where `T` is seconds
//! per epoch and `P` is the CPU power cap in watts (below TDP). The model
//! is what the job tier sends up to the cluster tier, and what the cluster
//! tier inverts to pick caps for the even-slowdown budgeter
//! (`p_cap = P_j(s · T_j(p_max))`, Section 4.4.3).

use crate::units::{Seconds, Watts};
use std::fmt;

/// An inclusive range of achievable power caps `[min, max]` for one node.
///
/// In the paper's test platform this is 140 W – 280 W per node (two 70 W –
/// 140 W TDP packages).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapRange {
    /// Lowest cap the platform will enforce.
    pub min: Watts,
    /// Highest cap (TDP); equivalent to running uncapped.
    pub max: Watts,
}

impl CapRange {
    /// Construct a range, panicking on inverted bounds.
    pub fn new(min: Watts, max: Watts) -> Self {
        assert!(
            min.value() <= max.value(),
            "inverted cap range: {min} > {max}"
        );
        CapRange { min, max }
    }

    /// The paper's evaluation platform: dual 70–140 W TDP packages.
    pub fn paper_node() -> Self {
        CapRange::new(Watts(140.0), Watts(280.0))
    }

    /// Width of the range in watts.
    #[inline]
    pub fn span(&self) -> Watts {
        self.max - self.min
    }

    /// Clamp a requested cap into the achievable range.
    #[inline]
    pub fn clamp(&self, cap: Watts) -> Watts {
        cap.clamp(self.min, self.max)
    }

    /// Linear interpolation: `gamma = 0` gives `min`, `gamma = 1` gives `max`.
    ///
    /// This is the even-power-caps rule from Section 4.4.3:
    /// `p_cap = γ·(p_max − p_min) + p_min`.
    #[inline]
    pub fn lerp(&self, gamma: f64) -> Watts {
        self.min + self.span() * gamma
    }

    /// Inverse of [`CapRange::lerp`]: where does `cap` sit in `[0, 1]`?
    #[inline]
    pub fn fraction(&self, cap: Watts) -> f64 {
        if self.span().value() <= 0.0 {
            return 1.0;
        }
        (cap - self.min) / self.span()
    }

    /// True when `cap` lies within the range (inclusive, with tolerance).
    #[inline]
    pub fn contains(&self, cap: Watts) -> bool {
        cap.value() >= self.min.value() - 1e-9 && cap.value() <= self.max.value() + 1e-9
    }
}

/// Quadratic execution-time model `T(P) = A·P² + B·P + C`.
///
/// `T` may be seconds per epoch (job tier) or total execution time
/// (cluster tier estimates); the algebra is identical because the two
/// differ by the constant epoch count.
///
/// ```
/// use anor_types::{CapRange, PowerCurve, Seconds, Watts};
///
/// // A job that takes 100 s uncapped and 1.75x as long at the 140 W floor.
/// let range = CapRange::paper_node();
/// let curve = PowerCurve::from_anchor(Seconds(100.0), 0.75, range);
/// assert!((curve.time_at(Watts(280.0)).value() - 100.0).abs() < 1e-9);
/// assert!((curve.time_at(Watts(140.0)).value() - 175.0).abs() < 1e-9);
/// // Invert: which cap holds the job to 120 s?
/// let cap = curve.power_for_time(Seconds(120.0), range);
/// assert!((curve.time_at(cap).value() - 120.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerCurve {
    /// Quadratic coefficient (s/W²).
    pub a: f64,
    /// Linear coefficient (s/W).
    pub b: f64,
    /// Constant term (s).
    pub c: f64,
}

impl PowerCurve {
    /// Construct directly from coefficients.
    pub const fn new(a: f64, b: f64, c: f64) -> Self {
        PowerCurve { a, b, c }
    }

    /// Construct a curve anchored on physical intuition: execution takes
    /// `t_max_cap` at the top of `range` and degrades by the dimensionless
    /// `sensitivity` factor at the bottom, i.e.
    /// `T(P) = t_max_cap · (1 + sensitivity · ((max−P)/(max−min))²)`.
    ///
    /// The resulting polynomial is exactly quadratic in `P`, has zero slope
    /// at `P = max` (capping at TDP costs nothing) and is monotonically
    /// decreasing on `[min, max]` for positive sensitivity — matching the
    /// Fig. 3 curve shapes.
    pub fn from_anchor(t_max_cap: Seconds, sensitivity: f64, range: CapRange) -> Self {
        let t0 = t_max_cap.value();
        let pmax = range.max.value();
        let span = range.span().value();
        assert!(span > 0.0, "degenerate cap range");
        let k = t0 * sensitivity / (span * span);
        // T(P) = t0 + k (pmax - P)^2 = k P^2 - 2 k pmax P + (t0 + k pmax^2)
        PowerCurve {
            a: k,
            b: -2.0 * k * pmax,
            c: t0 + k * pmax * pmax,
        }
    }

    /// Predicted execution time at power cap `p`.
    #[inline]
    pub fn time_at(&self, p: Watts) -> Seconds {
        let x = p.value();
        Seconds(self.a * x * x + self.b * x + self.c)
    }

    /// `dT/dP` at power cap `p` (s/W). Negative where more power helps.
    #[inline]
    pub fn slope_at(&self, p: Watts) -> f64 {
        2.0 * self.a * p.value() + self.b
    }

    /// Slowdown factor at `p` relative to the time at `reference`:
    /// `T(p) / T(reference)`.
    #[inline]
    pub fn slowdown_at(&self, p: Watts, reference: Watts) -> f64 {
        self.time_at(p).value() / self.time_at(reference).value()
    }

    /// Invert the model on a cap range: find `P ∈ [range.min, range.max]`
    /// with `T(P) = t`, saturating at the range ends
    /// ([`CurveOnRange::power_for_time`], the one inversion routine).
    pub fn power_for_time(&self, t: Seconds, range: CapRange) -> Watts {
        CurveOnRange::new(*self, range).power_for_time(t)
    }

    /// True when the curve is non-increasing across the whole cap range,
    /// i.e. giving a job more power never slows it down. Models violating
    /// this are rejected by the budgeter and replaced with a default.
    pub fn is_monotone_decreasing_on(&self, range: CapRange) -> bool {
        self.slope_at(range.min) <= 1e-12 && self.slope_at(range.max) <= 1e-12
    }

    /// Scale the whole curve by a time factor (e.g. convert per-epoch time
    /// to total time with the epoch count, or apply a per-node performance
    /// variation multiplier).
    pub fn scale_time(&self, factor: f64) -> PowerCurve {
        PowerCurve {
            a: self.a * factor,
            b: self.b * factor,
            c: self.c * factor,
        }
    }
}

/// A [`PowerCurve`] on one cap range, with the predicted times at both
/// range ends evaluated once.
///
/// [`Self::power_for_time`] is the one inversion routine:
/// [`PowerCurve::power_for_time`] builds a `CurveOnRange` per call, and
/// the even-slowdown budgeter keeps one per job across a whole bisection,
/// so its steps evaluate neither end time again. Both paths run the same
/// float operations on the same inputs, so they return the same bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveOnRange {
    curve: PowerCurve,
    range: CapRange,
    t_at_max: f64,
    t_at_min: f64,
}

impl CurveOnRange {
    /// `curve` on `range`, evaluating `T(range.max)` and `T(range.min)`.
    pub fn new(curve: PowerCurve, range: CapRange) -> Self {
        CurveOnRange {
            curve,
            range,
            t_at_max: curve.time_at(range.max).value(),
            t_at_min: curve.time_at(range.min).value(),
        }
    }

    /// `T(range.max)`: the fastest time the range allows.
    pub fn time_at_max(&self) -> Seconds {
        Seconds(self.t_at_max)
    }

    /// `T(range.min)`: the slowest time the range allows.
    pub fn time_at_min(&self) -> Seconds {
        Seconds(self.t_at_min)
    }

    /// Find `P` in the range with `T(P) = t`. Returns the clamped
    /// boundary when `t` is outside the achievable window, which is the
    /// saturation behaviour the even-slowdown budgeter relies on
    /// (low-sensitivity jobs "level off" at the minimum allowed cap,
    /// Section 6.1.1).
    pub fn power_for_time(&self, t: Seconds) -> Watts {
        let (curve, range) = (&self.curve, self.range);
        let target = t.value();
        // Monotone decreasing in P on the range: fastest at max cap.
        if target <= self.t_at_max {
            return range.max;
        }
        if target >= self.t_at_min {
            return range.min;
        }
        if curve.a.abs() < 1e-18 {
            // Linear model fallback: b P + c = t.
            if curve.b.abs() < 1e-18 {
                return range.max;
            }
            return range.clamp(Watts((target - curve.c) / curve.b));
        }
        // Solve a P^2 + b P + (c - t) = 0; pick the root inside the range.
        let disc = curve.b * curve.b - 4.0 * curve.a * (curve.c - target);
        if disc < 0.0 {
            // No real solution (should not happen after the boundary checks
            // above for a monotone curve); fall back to bisection.
            return self.bisect_power(target);
        }
        let sq = disc.sqrt();
        let r1 = (-curve.b + sq) / (2.0 * curve.a);
        let r2 = (-curve.b - sq) / (2.0 * curve.a);
        for r in [r1, r2] {
            if range.contains(Watts(r)) {
                return Watts(r);
            }
        }
        self.bisect_power(target)
    }

    /// Robust fallback inversion by bisection (assumes monotone decreasing
    /// `T` on the range, which [`PowerCurve::is_monotone_decreasing_on`]
    /// validates for well-formed models).
    fn bisect_power(&self, target: f64) -> Watts {
        let mut lo = self.range.min.value();
        let mut hi = self.range.max.value();
        for _ in 0..64 {
            let mid = 0.5 * (lo + hi);
            if self.curve.time_at(Watts(mid)).value() > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Watts(0.5 * (lo + hi))
    }
}

impl fmt::Display for PowerCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T(P) = {:.3e}·P² + {:.3e}·P + {:.3e}",
            self.a, self.b, self.c
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn range() -> CapRange {
        CapRange::paper_node()
    }

    #[test]
    fn anchor_curve_hits_endpoints() {
        let c = PowerCurve::from_anchor(Seconds(100.0), 0.8, range());
        assert!((c.time_at(Watts(280.0)).value() - 100.0).abs() < 1e-9);
        assert!((c.time_at(Watts(140.0)).value() - 180.0).abs() < 1e-9);
    }

    #[test]
    fn anchor_curve_is_monotone() {
        let c = PowerCurve::from_anchor(Seconds(50.0), 0.5, range());
        assert!(c.is_monotone_decreasing_on(range()));
        let mut prev = f64::INFINITY;
        for w in (140..=280).step_by(10) {
            let t = c.time_at(Watts(w as f64)).value();
            assert!(t <= prev + 1e-12, "not monotone at {w} W");
            prev = t;
        }
    }

    #[test]
    fn zero_sensitivity_is_flat() {
        let c = PowerCurve::from_anchor(Seconds(30.0), 0.0, range());
        assert!((c.time_at(Watts(140.0)).value() - 30.0).abs() < 1e-9);
        assert!((c.time_at(Watts(280.0)).value() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn inversion_round_trips() {
        let c = PowerCurve::from_anchor(Seconds(100.0), 0.7, range());
        for w in [150.0, 180.0, 210.0, 250.0, 279.0] {
            let t = c.time_at(Watts(w));
            let p = c.power_for_time(t, range());
            assert!(
                (p.value() - w).abs() < 1e-6,
                "invert({t}) = {p}, expected {w} W"
            );
        }
    }

    #[test]
    fn inversion_saturates_at_bounds() {
        let c = PowerCurve::from_anchor(Seconds(100.0), 0.7, range());
        // Faster than achievable -> max cap.
        assert_eq!(c.power_for_time(Seconds(10.0), range()), Watts(280.0));
        // Slower than the worst case -> min cap (the "level off" behaviour).
        assert_eq!(c.power_for_time(Seconds(1000.0), range()), Watts(140.0));
    }

    #[test]
    fn linear_model_inversion() {
        // a == 0: T = -0.5 P + 240 -> T(200) = 140.
        let c = PowerCurve::new(0.0, -0.5, 240.0);
        let p = c.power_for_time(Seconds(140.0), range());
        assert!((p.value() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_reference() {
        let c = PowerCurve::from_anchor(Seconds(100.0), 1.0, range());
        assert!((c.slowdown_at(Watts(140.0), Watts(280.0)) - 2.0).abs() < 1e-9);
        assert!((c.slowdown_at(Watts(280.0), Watts(280.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cap_range_lerp_fraction_inverse() {
        let r = range();
        for gamma in [0.0, 0.25, 0.5, 1.0] {
            let cap = r.lerp(gamma);
            assert!((r.fraction(cap) - gamma).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "inverted cap range")]
    fn inverted_range_panics() {
        CapRange::new(Watts(280.0), Watts(140.0));
    }

    #[test]
    fn scale_time_scales_predictions() {
        let c = PowerCurve::from_anchor(Seconds(10.0), 0.5, range());
        let s = c.scale_time(3.0);
        for w in [140.0, 200.0, 280.0] {
            let t1 = c.time_at(Watts(w)).value();
            let t2 = s.time_at(Watts(w)).value();
            assert!((t2 - 3.0 * t1).abs() < 1e-9);
        }
    }

    #[test]
    fn degenerate_range_fraction() {
        let r = CapRange::new(Watts(200.0), Watts(200.0));
        assert_eq!(r.fraction(Watts(200.0)), 1.0);
        assert_eq!(r.clamp(Watts(500.0)), Watts(200.0));
    }
}
