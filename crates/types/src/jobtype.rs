//! Job-type descriptors.
//!
//! The paper's evaluation treats each NAS Parallel Benchmark as a *job
//! type* — a named class of work with a precharacterized power-performance
//! relationship, a node count, and a QoS constraint. A [`JobTypeSpec`]
//! carries everything both tiers need to know about a type; the concrete
//! set used in the paper lives in [`crate::catalog`].

use crate::curve::{CapRange, PowerCurve};
use crate::units::{Seconds, Watts};
use std::fmt;

/// Index of a job type within a [`crate::catalog::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobTypeId(pub u16);

impl JobTypeId {
    /// Usable as a vector index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type-{}", self.0)
    }
}

/// Coarse power-sensitivity class, used when discussing misclassification
/// scenarios (Section 6.1.2: "low, medium, and high power sensitivity").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensitivityClass {
    /// Performance barely responds to the cap (IS, SP in the paper).
    Low,
    /// Moderate response (FT, CG, MG).
    Medium,
    /// Strong response (EP, BT, LU).
    High,
}

impl fmt::Display for SensitivityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensitivityClass::Low => write!(f, "low"),
            SensitivityClass::Medium => write!(f, "medium"),
            SensitivityClass::High => write!(f, "high"),
        }
    }
}

/// Everything the framework knows about one job type.
#[derive(Debug, Clone, PartialEq)]
pub struct JobTypeSpec {
    /// Catalog index.
    pub id: JobTypeId,
    /// Display name in the paper's `benchmark.class.ranks` format,
    /// e.g. `bt.D.81`.
    pub name: String,
    /// Compute nodes one instance occupies in the 16-node cluster
    /// experiments (scaled 25× for the 1000-node simulations).
    pub nodes: u32,
    /// Number of `geopm_prof_epoch()` calls (outer-loop iterations) one
    /// run performs.
    pub epochs: u64,
    /// Total execution time with no power cap (per-node cap at TDP).
    pub time_uncapped: Seconds,
    /// Dimensionless power sensitivity: the fractional slowdown at the
    /// minimum cap, i.e. `T(min)/T(max) − 1`.
    pub sensitivity: f64,
    /// Achievable per-node cap range (platform property).
    pub cap_range: CapRange,
    /// Per-node power the job actually draws when uncapped. Memory-bound
    /// codes never reach TDP.
    pub max_draw: Watts,
    /// Relative standard deviation of per-epoch time measurements; tuned
    /// per type so the offline fit R² matches the paper (IS 0.92, MG 0.94,
    /// SP 0.84, others ≥ 0.97).
    pub noise_sigma: f64,
    /// QoS degradation limit `Q` for this type (paper: 5 for all types,
    /// with 90% probability).
    pub qos_limit: f64,
}

impl JobTypeSpec {
    /// Ground-truth total-execution-time model for this type.
    pub fn curve(&self) -> PowerCurve {
        PowerCurve::from_anchor(self.time_uncapped, self.sensitivity, self.cap_range)
    }

    /// Ground-truth seconds-per-epoch model (the quantity the job-tier
    /// modeler estimates from epoch feedback).
    pub fn epoch_curve(&self) -> PowerCurve {
        self.curve().scale_time(1.0 / self.epochs as f64)
    }

    /// Execution time at a given per-node cap, per the ground-truth model.
    pub fn time_at(&self, cap: Watts) -> Seconds {
        self.curve().time_at(self.effective_cap(cap))
    }

    /// The cap value that actually constrains the job: caps above its
    /// natural draw have no effect.
    #[inline]
    pub fn effective_cap(&self, cap: Watts) -> Watts {
        self.cap_range.clamp(cap).min(self.max_draw)
    }

    /// Per-node power the job draws under `cap`: the smaller of the cap
    /// and its natural uncapped draw.
    #[inline]
    pub fn draw_at(&self, cap: Watts) -> Watts {
        self.effective_cap(cap)
    }

    /// Classify by sensitivity with the thresholds used throughout the
    /// experiment discussion.
    pub fn sensitivity_class(&self) -> SensitivityClass {
        if self.sensitivity < 0.30 {
            SensitivityClass::Low
        } else if self.sensitivity < 0.60 {
            SensitivityClass::Medium
        } else {
            SensitivityClass::High
        }
    }

    /// Seconds per epoch with no power cap.
    pub fn epoch_time_uncapped(&self) -> Seconds {
        self.time_uncapped / self.epochs as f64
    }

    /// Is this one of the short (< 30 s) setup-dominated types the paper
    /// excludes from the final schedules (Section 7.2)?
    pub fn is_short(&self) -> bool {
        self.time_uncapped.value() < 30.0
    }
}

impl fmt::Display for JobTypeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {:.0}, sens {:.2})",
            self.name, self.nodes, self.time_uncapped, self.sensitivity
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(sens: f64) -> JobTypeSpec {
        JobTypeSpec {
            id: JobTypeId(0),
            name: "xx.D.1".into(),
            nodes: 2,
            epochs: 100,
            time_uncapped: Seconds(200.0),
            sensitivity: sens,
            cap_range: CapRange::paper_node(),
            max_draw: Watts(260.0),
            noise_sigma: 0.02,
            qos_limit: 5.0,
        }
    }

    #[test]
    fn curve_matches_anchors() {
        let s = spec(0.5);
        let c = s.curve();
        assert!((c.time_at(Watts(280.0)).value() - 200.0).abs() < 1e-9);
        assert!((c.time_at(Watts(140.0)).value() - 300.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_curve_is_scaled_total() {
        let s = spec(0.5);
        let total = s.curve().time_at(Watts(200.0)).value();
        let per_epoch = s.epoch_curve().time_at(Watts(200.0)).value();
        assert!((per_epoch * 100.0 - total).abs() < 1e-9);
    }

    #[test]
    fn effective_cap_respects_natural_draw() {
        let s = spec(0.5);
        // Cap above the job's draw does not constrain it.
        assert_eq!(s.effective_cap(Watts(280.0)), Watts(260.0));
        assert_eq!(s.draw_at(Watts(280.0)), Watts(260.0));
        // Cap below the draw binds.
        assert_eq!(s.effective_cap(Watts(180.0)), Watts(180.0));
        // Cap below the platform range clamps up.
        assert_eq!(s.effective_cap(Watts(100.0)), Watts(140.0));
    }

    #[test]
    fn sensitivity_classes() {
        assert_eq!(spec(0.1).sensitivity_class(), SensitivityClass::Low);
        assert_eq!(spec(0.45).sensitivity_class(), SensitivityClass::Medium);
        assert_eq!(spec(0.75).sensitivity_class(), SensitivityClass::High);
    }

    #[test]
    fn short_job_detection() {
        let mut s = spec(0.2);
        assert!(!s.is_short());
        s.time_uncapped = Seconds(20.0);
        assert!(s.is_short());
    }

    #[test]
    fn time_at_uses_effective_cap() {
        let s = spec(0.5);
        // Asking for time at TDP equals time at the job's natural draw,
        // because the extra headroom is unusable.
        assert_eq!(s.time_at(Watts(280.0)), s.time_at(Watts(260.0)));
    }
}
