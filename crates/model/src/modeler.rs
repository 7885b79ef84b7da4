//! The per-job power modeler state machine.
//!
//! One [`PowerModeler`] runs per job on a compute node (Fig. 2),
//! consuming cumulative endpoint samples and maintaining the job's
//! current best power-performance model:
//!
//! * starts from a **default** (for unknown jobs — possibly a
//!   misclassified type's curve, Section 4.4.2) or a **precharacterized**
//!   curve;
//! * re-trains "when at least 10 new epochs have been recorded"
//!   (Section 4.2), preferring the paper's 3-parameter quadratic when the
//!   observed caps identify it, falling back to the 2-parameter anchored
//!   family otherwise;
//! * rejects non-monotone fits (a model claiming more power slows the job
//!   would destabilize the budgeter);
//! * recommends a small zero-mean **cap dither** while the model is
//!   under-identified so that a job held at one cap level still produces
//!   data that distinguishes job types (DESIGN.md documents this
//!   substitution for the paper's naturally-varying caps).

use crate::drift::DriftDetector;
use crate::fit::{self, FitResult};
use crate::window::EpochWindow;
use anor_telemetry::{CauseId, Counter, Histogram, Telemetry, TraceStage, Tracer};
use anor_types::{CapRange, PowerCurve, Seconds, Watts};

/// Cached metric handles (attached via
/// [`PowerModeler::attach_telemetry`]).
#[derive(Debug, Clone)]
struct Instruments {
    retrains: Counter,
    /// `1 - R²` of each accepted fit — 0 is a perfect fit.
    fit_residual: Histogram,
    dither_flips: Counter,
    phase_changes: Counter,
}

/// Provenance of the modeler's current curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSource {
    /// The configured default model — no feedback incorporated yet.
    Default,
    /// An offline precharacterized model supplied at launch.
    Precharacterized,
    /// Fit from online epoch feedback.
    Fitted {
        /// Observations used in the accepted fit.
        observations: usize,
        /// Training R² of the accepted fit.
        r2: f64,
    },
}

/// Tunables for the modeler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelerConfig {
    /// Re-train after this many newly observed epochs (paper: 10).
    pub retrain_epochs: u64,
    /// The node cap range models are valid over.
    pub cap_range: CapRange,
    /// Dither amplitude as a fraction of the cap-range span (0 disables).
    pub dither_fraction: f64,
    /// Keep at most this many observations (ring buffer).
    pub max_observations: usize,
    /// Hold each dither level until this many new epochs have been
    /// observed (flipping faster than epochs complete would blur the
    /// time-weighted average caps together and ruin identifiability).
    pub dither_hold_epochs: u64,
}

impl ModelerConfig {
    /// Paper-calibrated defaults on the paper's node platform.
    pub fn paper() -> Self {
        ModelerConfig {
            retrain_epochs: 10,
            cap_range: CapRange::paper_node(),
            dither_fraction: 0.05,
            max_observations: 512,
            dither_hold_epochs: 4,
        }
    }
}

/// The per-job modeler.
#[derive(Debug, Clone)]
pub struct PowerModeler {
    cfg: ModelerConfig,
    window: EpochWindow,
    /// `(avg cap, seconds-per-epoch)` observations.
    obs: Vec<(Watts, Seconds)>,
    /// Do `obs` hold at least 3 distinct cap levels (as
    /// [`fit::distinct_caps`] counts them)? `None` after a change to
    /// `obs` that could move the answer, until a cap recommendation asks:
    /// one scan per change at most, and none while no one asks.
    identified: Option<bool>,
    curve: PowerCurve,
    source: ModelSource,
    epochs_since_fit: u64,
    dither_phase: bool,
    epochs_seen: u64,
    epochs_at_flip: u64,
    drift: Option<DriftDetector>,
    phase_changes: u64,
    /// Set after a drift reset; drift checks pause until the next
    /// successful refit (the stale curve would re-trigger forever).
    awaiting_refit: bool,
    instruments: Option<Instruments>,
    tracer: Tracer,
    /// Causal-trace id of the cap in force over the observations feeding
    /// the next retrain (`0` = untraced).
    cause: u64,
}

impl PowerModeler {
    /// Start from a default model (unknown job type).
    pub fn with_default(cfg: ModelerConfig, default: PowerCurve) -> Self {
        PowerModeler {
            cfg,
            window: EpochWindow::new(),
            obs: Vec::new(),
            identified: None,
            curve: default,
            source: ModelSource::Default,
            epochs_since_fit: 0,
            dither_phase: false,
            epochs_seen: 0,
            epochs_at_flip: 0,
            drift: None,
            phase_changes: 0,
            awaiting_refit: false,
            instruments: None,
            tracer: Tracer::off(),
            cause: 0,
        }
    }

    /// Record retrains, fit residuals, dither-level transitions and
    /// phase changes into `telemetry`.
    pub fn attach_telemetry(&mut self, telemetry: &Telemetry) {
        self.instruments = Some(Instruments {
            retrains: telemetry.counter("model_retrains_total", &[]),
            fit_residual: telemetry.histogram("model_fit_residual", &[]),
            dither_flips: telemetry.counter("model_dither_flips_total", &[]),
            phase_changes: telemetry.counter("model_phase_changes_total", &[]),
        });
    }

    /// Record a causal-trace event for each accepted retrain, closing the
    /// observation loop of the trace: `decision → … → retrain`.
    pub fn attach_tracer(&mut self, tracer: &Tracer) {
        self.tracer = tracer.clone();
    }

    /// Note the budgeter decision whose cap the modeler is currently
    /// observing under (stamped on the next retrain's trace event).
    pub fn set_cause(&mut self, cause: u64) {
        self.cause = cause;
    }

    /// The decision id the modeler last observed under.
    pub fn cause(&self) -> u64 {
        self.cause
    }

    /// Enable phase-change (drift) detection: when recent observations
    /// stop matching the fitted model, the observation history is dropped
    /// and the model refits on the new regime (Section 8's multi-phase
    /// jobs).
    pub fn with_drift_detection(mut self, detector: DriftDetector) -> Self {
        self.drift = Some(detector);
        self
    }

    /// How many phase changes drift detection has declared.
    pub fn phase_changes(&self) -> u64 {
        self.phase_changes
    }

    /// Start from a trusted precharacterized model.
    pub fn with_precharacterized(cfg: ModelerConfig, curve: PowerCurve) -> Self {
        PowerModeler {
            source: ModelSource::Precharacterized,
            ..PowerModeler::with_default(cfg, curve)
        }
    }

    /// Feed one cumulative endpoint sample. Returns `true` when the model
    /// was re-trained as a result.
    pub fn observe(&mut self, epoch_count: u64, timestamp: Seconds, cap: Watts) -> bool {
        let Some(observation) = self.window.push(epoch_count, timestamp, cap) else {
            return false;
        };
        // Drift check against the *current* model, before absorbing the
        // observation: a sustained mismatch means the job changed phase.
        if let Some(d) = &mut self.drift {
            if !self.awaiting_refit
                && matches!(self.source, ModelSource::Fitted { .. })
                && d.observe(&self.curve, observation.avg_cap, observation.per_epoch())
            {
                self.obs.clear();
                self.identified = None;
                self.epochs_since_fit = 0;
                self.phase_changes += 1;
                self.awaiting_refit = true;
                if let Some(i) = &self.instruments {
                    i.phase_changes.inc();
                }
                d.reset();
            }
        }
        let evicted = self.obs.len() == self.cfg.max_observations;
        if evicted {
            self.obs.remove(0);
        }
        self.obs
            .push((observation.avg_cap, observation.per_epoch()));
        // A pushed observation can add cap levels but never remove one,
        // so only an eviction can undo a `Some(true)`.
        if evicted || self.identified != Some(true) {
            self.identified = None;
        }
        self.epochs_since_fit += observation.epochs;
        self.epochs_seen += observation.epochs;
        if self.epochs_since_fit >= self.cfg.retrain_epochs {
            self.try_retrain()
        } else {
            false
        }
    }

    fn try_retrain(&mut self) -> bool {
        let attempt: Option<FitResult> = fit::fit_quadratic(&self.obs)
            .ok()
            .filter(|f| f.curve.is_monotone_decreasing_on(self.cfg.cap_range))
            .or_else(|| fit::fit_anchored(&self.obs, self.cfg.cap_range).ok());
        match attempt {
            Some(f) if f.r2.is_finite() => {
                self.curve = f.curve;
                self.source = ModelSource::Fitted {
                    observations: self.obs.len(),
                    r2: f.r2,
                };
                if let Some(i) = &self.instruments {
                    i.retrains.inc();
                    i.fit_residual.observe((1.0 - f.r2).max(0.0));
                }
                self.tracer.record_with(
                    TraceStage::Retrain,
                    CauseId(self.cause),
                    None,
                    None,
                    || format!("obs={} r2={:.4}", self.obs.len(), f.r2),
                );
                self.epochs_since_fit = 0;
                self.awaiting_refit = false;
                if let Some(d) = &mut self.drift {
                    d.reset();
                }
                true
            }
            _ => false,
        }
    }

    /// The current best per-epoch model.
    pub fn curve(&self) -> PowerCurve {
        self.curve
    }

    /// Where the current model came from.
    pub fn source(&self) -> ModelSource {
        self.source
    }

    /// Number of buffered observations.
    pub fn observation_count(&self) -> usize {
        self.obs.len()
    }

    /// Has feedback produced a model yet?
    pub fn is_fitted(&self) -> bool {
        matches!(self.source, ModelSource::Fitted { .. })
    }

    /// Distinct cap levels observed so far.
    pub fn distinct_caps(&self) -> usize {
        fit::distinct_caps(&self.obs)
    }

    /// At least 3 distinct cap levels observed? Cached in `identified`.
    fn identified(&mut self) -> bool {
        *self
            .identified
            .get_or_insert_with(|| fit::has_distinct_caps(&self.obs, 3))
    }

    /// Convert a budgeted cap into the cap to actually enforce. While the
    /// model is under-identified (fewer than 3 distinct observed caps and
    /// dithering enabled), alternate ±dither around the budget — zero
    /// mean, so the job's average power still meets the budget.
    pub fn recommend_cap(&mut self, budget: Watts) -> Watts {
        let needs_data = self.cfg.dither_fraction > 0.0 && !self.identified();
        if !needs_data {
            return self.cfg.cap_range.clamp(budget);
        }
        let amp = self.cfg.cap_range.span() * self.cfg.dither_fraction;
        // Hold each level until enough epochs completed under it.
        if self.epochs_seen - self.epochs_at_flip >= self.cfg.dither_hold_epochs {
            self.dither_phase = !self.dither_phase;
            self.epochs_at_flip = self.epochs_seen;
            if let Some(i) = &self.instruments {
                i.dither_flips.inc();
            }
        }
        let sign = if self.dither_phase { 1.0 } else { -1.0 };
        self.cfg.cap_range.clamp(budget + amp * sign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ModelerConfig {
        ModelerConfig::paper()
    }

    fn truth() -> PowerCurve {
        // BT-like: 2.4 s/epoch uncapped, sensitivity 0.75.
        PowerCurve::from_anchor(Seconds(2.4), 0.75, CapRange::paper_node())
    }

    fn default_is_like() -> PowerCurve {
        // IS-like default: nearly flat.
        PowerCurve::from_anchor(Seconds(0.5), 0.10, CapRange::paper_node())
    }

    /// Stream ground-truth epochs at a fixed cap into a modeler.
    fn feed(m: &mut PowerModeler, cap: Watts, epochs: u64, start_t: f64, start_count: u64) -> f64 {
        let tau = truth().time_at(cap).value();
        let mut t = start_t;
        let mut count = start_count;
        // Establish baseline.
        m.observe(count, Seconds(t), cap);
        for _ in 0..epochs {
            t += tau;
            count += 1;
            m.observe(count, Seconds(t), cap);
        }
        t
    }

    #[test]
    fn starts_with_default_and_no_fit() {
        let m = PowerModeler::with_default(cfg(), default_is_like());
        assert_eq!(m.source(), ModelSource::Default);
        assert!(!m.is_fitted());
        assert_eq!(m.observation_count(), 0);
    }

    #[test]
    fn single_cap_level_cannot_retrain() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        feed(&mut m, Watts(180.0), 30, 0.0, 0);
        assert!(!m.is_fitted(), "one cap level is unidentifiable");
        assert_eq!(m.distinct_caps(), 1);
    }

    #[test]
    fn two_cap_levels_learn_true_sensitivity() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        let t = feed(&mut m, Watts(170.0), 12, 0.0, 0);
        feed(&mut m, Watts(250.0), 12, t, 12);
        assert!(m.is_fitted(), "fit after 2 cap levels x >=10 epochs");
        // Learned slowdown at 140 vs 280 should approach truth's 1.75.
        let learned = m.curve().slowdown_at(Watts(140.0), Watts(280.0));
        assert!(
            (learned - 1.75).abs() < 0.1,
            "learned slowdown {learned}, expected ~1.75"
        );
    }

    #[test]
    fn retrain_threshold_respected() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        // 2 distinct caps but only 4+4 epochs: below the 10-epoch rule.
        let t = feed(&mut m, Watts(170.0), 4, 0.0, 0);
        feed(&mut m, Watts(250.0), 4, t, 4);
        assert!(!m.is_fitted(), "8 epochs < retrain threshold");
        // Two more epochs tips it over.
        feed(&mut m, Watts(250.0), 2, 1000.0, 100);
        assert!(m.is_fitted());
    }

    #[test]
    fn three_cap_levels_use_full_quadratic() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        let t = feed(&mut m, Watts(150.0), 8, 0.0, 0);
        let t = feed(&mut m, Watts(210.0), 8, t, 8);
        feed(&mut m, Watts(270.0), 8, t, 16);
        assert!(m.is_fitted());
        let ModelSource::Fitted { r2, .. } = m.source() else {
            panic!("expected fitted source");
        };
        assert!(r2 > 0.99, "clean data should fit nearly perfectly, r2={r2}");
        // Predictions match truth across the range.
        for p in [150.0, 200.0, 260.0] {
            let e = m.curve().time_at(Watts(p)).value();
            let want = truth().time_at(Watts(p)).value();
            assert!((e - want).abs() / want < 0.05, "at {p}: {e} vs {want}");
        }
    }

    #[test]
    fn precharacterized_source_until_feedback() {
        let mut m = PowerModeler::with_precharacterized(cfg(), truth());
        assert_eq!(m.source(), ModelSource::Precharacterized);
        let t = feed(&mut m, Watts(160.0), 12, 0.0, 0);
        feed(&mut m, Watts(260.0), 12, t, 12);
        assert!(m.is_fitted(), "feedback supersedes precharacterization");
    }

    #[test]
    fn dither_alternates_and_is_zero_mean() {
        let mut c = cfg();
        c.dither_hold_epochs = 0; // flip on every recommendation
        let mut m = PowerModeler::with_default(c, default_is_like());
        let budget = Watts(200.0);
        let a = m.recommend_cap(budget);
        let b = m.recommend_cap(budget);
        assert_ne!(a, b, "dither must alternate");
        let mean = (a.value() + b.value()) / 2.0;
        assert!((mean - 200.0).abs() < 1e-9, "dither not zero-mean: {mean}");
        // Amplitude is dither_fraction of the 140 W span = 7 W.
        assert!((a.value() - b.value()).abs() - 14.0 < 1e-9);
    }

    #[test]
    fn dither_stops_once_identified() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        let t = feed(&mut m, Watts(150.0), 8, 0.0, 0);
        let t = feed(&mut m, Watts(210.0), 8, t, 8);
        feed(&mut m, Watts(270.0), 8, t, 16);
        assert!(m.distinct_caps() >= 3);
        let a = m.recommend_cap(Watts(200.0));
        let b = m.recommend_cap(Watts(200.0));
        assert_eq!(a, Watts(200.0));
        assert_eq!(b, Watts(200.0));
    }

    #[test]
    fn dither_holds_level_until_epochs_observed() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        let budget = Watts(200.0);
        // No epochs observed yet: the level must not flip.
        let first = m.recommend_cap(budget);
        for _ in 0..10 {
            assert_eq!(m.recommend_cap(budget), first, "level flipped early");
        }
        // Observe enough epochs (hold is 4) and the level flips.
        let tau = 2.0;
        let mut t = 0.0;
        m.observe(0, Seconds(t), first);
        for i in 1..=5u64 {
            t += tau;
            m.observe(i, Seconds(t), first);
        }
        let flipped = m.recommend_cap(budget);
        assert_ne!(flipped, first, "level must flip after the hold");
    }

    #[test]
    fn dither_respects_cap_range() {
        let mut c = cfg();
        c.dither_hold_epochs = 0;
        let mut m = PowerModeler::with_default(c, default_is_like());
        for _ in 0..4 {
            let c = m.recommend_cap(Watts(141.0));
            assert!(CapRange::paper_node().contains(c), "dithered cap {c}");
            let c = m.recommend_cap(Watts(279.0));
            assert!(CapRange::paper_node().contains(c), "dithered cap {c}");
        }
    }

    #[test]
    fn observation_buffer_bounded() {
        let mut cfg = cfg();
        cfg.max_observations = 16;
        let mut m = PowerModeler::with_default(cfg, default_is_like());
        feed(&mut m, Watts(200.0), 100, 0.0, 0);
        assert!(m.observation_count() <= 16);
    }

    #[test]
    fn drift_detection_adapts_to_phase_change() {
        use crate::drift::DriftDetector;
        let phase_a = PowerCurve::from_anchor(Seconds(1.0), 0.1, CapRange::paper_node());
        let phase_b = PowerCurve::from_anchor(Seconds(2.5), 0.8, CapRange::paper_node());
        let mut m = PowerModeler::with_default(cfg(), default_is_like())
            .with_drift_detection(DriftDetector::paper());
        // Stream phase A at two caps until fitted.
        let mut t = 0.0;
        let mut count = 0u64;
        m.observe(count, Seconds(t), Watts(170.0));
        let feed_curve = |m: &mut PowerModeler,
                          curve: &PowerCurve,
                          cap: Watts,
                          epochs: u64,
                          t: &mut f64,
                          count: &mut u64| {
            for _ in 0..epochs {
                *t += curve.time_at(cap).value();
                *count += 1;
                m.observe(*count, Seconds(*t), cap);
            }
        };
        feed_curve(&mut m, &phase_a, Watts(170.0), 12, &mut t, &mut count);
        feed_curve(&mut m, &phase_a, Watts(250.0), 12, &mut t, &mut count);
        assert!(m.is_fitted());
        let learned_a = m.curve().slowdown_at(Watts(140.0), Watts(280.0));
        assert!(
            (learned_a - 1.1).abs() < 0.05,
            "phase A slowdown {learned_a}"
        );
        assert_eq!(m.phase_changes(), 0);
        // Job enters phase B: drift fires, history resets, model refits.
        feed_curve(&mut m, &phase_b, Watts(170.0), 25, &mut t, &mut count);
        feed_curve(&mut m, &phase_b, Watts(250.0), 25, &mut t, &mut count);
        assert!(m.phase_changes() >= 1, "phase change must be detected");
        let learned_b = m.curve().slowdown_at(Watts(140.0), Watts(280.0));
        assert!(
            (learned_b - 1.8).abs() < 0.15,
            "phase B slowdown {learned_b}, expected ~1.8"
        );
    }

    #[test]
    fn attached_telemetry_counts_retrains_residuals_and_flips() {
        let telemetry = Telemetry::new();
        let mut c = cfg();
        c.dither_hold_epochs = 0;
        let mut m = PowerModeler::with_default(c, default_is_like());
        m.attach_telemetry(&telemetry);
        m.recommend_cap(Watts(200.0));
        m.recommend_cap(Watts(200.0));
        let t = feed(&mut m, Watts(170.0), 12, 0.0, 0);
        feed(&mut m, Watts(250.0), 12, t, 12);
        assert!(m.is_fitted());
        assert!(telemetry.counter("model_retrains_total", &[]).get() >= 1);
        let residuals = telemetry.histogram("model_fit_residual", &[]);
        assert!(residuals.count() >= 1);
        assert!(
            residuals.max() < 0.05,
            "clean synthetic data fits tightly, residual {}",
            residuals.max()
        );
        assert!(
            telemetry.counter("model_dither_flips_total", &[]).get() >= 1,
            "dither transitions must be counted"
        );
    }

    #[test]
    fn identified_flag_follows_eviction_and_drift_resets() {
        use crate::drift::DriftDetector;
        let phase_a = PowerCurve::from_anchor(Seconds(1.0), 0.1, CapRange::paper_node());
        let phase_b = PowerCurve::from_anchor(Seconds(2.5), 0.8, CapRange::paper_node());
        let mut c = cfg();
        c.max_observations = 6;
        let mut m = PowerModeler::with_default(c, default_is_like())
            .with_drift_detection(DriftDetector::paper());
        let (mut t, mut count) = (0.0, 0u64);
        m.observe(count, Seconds(t), Watts(150.0));
        // One epoch per observation; the cached flag must equal a fresh
        // count after every change to the buffer.
        let mut step = |m: &mut PowerModeler, curve: &PowerCurve, cap: f64| {
            t += curve.time_at(Watts(cap)).value();
            count += 1;
            let changes = m.phase_changes();
            m.observe(count, Seconds(t), Watts(cap));
            assert_eq!(m.identified(), m.distinct_caps() >= 3, "{count} epochs");
            if m.phase_changes() > changes {
                assert!(!m.identified(), "a drift reset keeps one observation");
            }
        };
        for cap in [150.0, 210.0, 270.0] {
            step(&mut m, &phase_a, cap);
        }
        assert!(m.identified());
        // Six epochs at one cap evict the other two levels.
        for _ in 0..6 {
            step(&mut m, &phase_a, 210.0);
        }
        assert!(!m.identified(), "eviction left one cap level");
        for _ in 0..8 {
            for cap in [150.0, 210.0, 270.0] {
                step(&mut m, &phase_a, cap);
            }
        }
        assert!(m.is_fitted() && m.identified());
        for _ in 0..20 {
            for cap in [150.0, 210.0, 270.0] {
                step(&mut m, &phase_b, cap);
            }
        }
        assert!(
            m.phase_changes() >= 1,
            "the phase change must reset the buffer"
        );
    }

    #[test]
    fn no_epochs_no_model_change() {
        let mut m = PowerModeler::with_default(cfg(), default_is_like());
        // Samples with a frozen epoch count: "jobs that report no epochs
        // ... use a default model".
        for i in 0..100 {
            assert!(!m.observe(5, Seconds(i as f64), Watts(200.0)));
        }
        assert_eq!(m.source(), ModelSource::Default);
    }
}
