//! Fault-tolerant session layer for the cluster↔job link.
//!
//! The transport ([`FramedStream`](crate::FramedStream)) is a dumb pipe:
//! it reports a closed peer and stops. This module supplies the policy
//! that turns that pipe into a *session* that survives partitions, slow
//! peers and daemon restarts:
//!
//! - [`RetryPolicy`] — deterministic seeded exponential backoff with
//!   jitter and a bounded attempt budget, computed purely from the
//!   virtual clock (no wall-clock anywhere, so the same seed reproduces
//!   the same reconnect schedule byte-for-byte).
//! - [`SessionState`] — the tri-state every session surface reports:
//!   `Connected`, `Reconnecting { attempt }`, or `Gone` once the attempt
//!   budget is exhausted. Both the [`JobEndpoint`](crate::JobEndpoint)
//!   and the budgeter's believed view speak this enum, fixing the
//!   silent-stranding bug where a dead endpoint still reported its cap
//!   as live.
//! - [`FaultPlan`] — a seeded chaos-injection schedule applied inside
//!   the transport's send path (drop-connection-at-frame-N, delay,
//!   duplicate, truncate, byte-corrupt). Plans are parsed from compact
//!   `--faults` specs like `drop@17,corrupt@42` and share their
//!   consumption state across clones, so the frame counter keeps
//!   counting across reconnects and every scheduled fault fires exactly
//!   once.

use anor_types::{AnorError, Args, Result, Seconds};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::Arc;

/// splitmix64 finalizer: the repo's standard cheap deterministic mixer
/// (same construction as the tracer's id hashing). Avalanches a counter
/// or seed into uniform bits without any wall-clock or RNG state.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

/// Where a cluster↔job session currently stands. Surfaced by both the
/// job-side [`JobEndpoint`](crate::JobEndpoint) and the budgeter's
/// believed view so neither side silently strands a dead peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// The underlying stream is open and frames flow.
    Connected,
    /// The stream dropped; backoff is running and `attempt` reconnects
    /// have been tried so far (1-based once the first attempt fires).
    Reconnecting {
        /// Reconnect attempts made so far.
        attempt: u32,
    },
    /// The attempt budget is exhausted (or retry was disabled); the
    /// session will never carry frames again.
    Gone,
}

impl SessionState {
    /// True while the stream is open.
    pub fn is_connected(&self) -> bool {
        matches!(self, SessionState::Connected)
    }

    /// True once the session can never recover.
    pub fn is_gone(&self) -> bool {
        matches!(self, SessionState::Gone)
    }

    /// Short stable label for telemetry/trace detail strings.
    pub fn label(&self) -> &'static str {
        match self {
            SessionState::Connected => "connected",
            SessionState::Reconnecting { .. } => "reconnecting",
            SessionState::Gone => "gone",
        }
    }
}

// ---------------------------------------------------------------------------
// Retry policy
// ---------------------------------------------------------------------------

/// Deterministic reconnect policy: exponential backoff with seeded
/// jitter and a bounded attempt budget, evaluated entirely on the
/// experiment's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How many reconnect attempts before the session is declared
    /// [`SessionState::Gone`]. Zero disables reconnection entirely.
    pub max_attempts: u32,
    /// Backoff before the first attempt.
    pub base_delay: Seconds,
    /// Ceiling on any single backoff interval.
    pub max_delay: Seconds,
    /// Exponential growth factor between attempts.
    pub multiplier: f64,
    /// Jitter amplitude as a fraction of the interval: each delay is
    /// scaled by a seeded factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter stream; mix in a per-job salt so co-scheduled
    /// endpoints do not thunder back in lockstep.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay: Seconds(0.5),
            max_delay: Seconds(16.0),
            multiplier: 2.0,
            jitter: 0.2,
            seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// A policy that never reconnects: the first disconnect is final.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
    }

    /// Replace the jitter seed (builder-style).
    pub fn seeded(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// True when at least one reconnect attempt is allowed.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// The backoff interval before attempt `attempt` (1-based). Pure:
    /// the same `(policy, attempt)` always yields the same delay.
    pub fn delay(&self, attempt: u32) -> Seconds {
        let exp = attempt.saturating_sub(1).min(63);
        let raw = self.base_delay.value() * self.multiplier.powi(exp as i32);
        let capped = raw.min(self.max_delay.value()).max(0.0);
        // Seeded jitter factor in [1 - jitter, 1 + jitter].
        let unit = mix(self.seed ^ u64::from(attempt)) as f64 / u64::MAX as f64;
        let factor = 1.0 + self.jitter.clamp(0.0, 1.0) * (2.0 * unit - 1.0);
        Seconds(capped * factor)
    }
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// One kind of injected transport fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Discard the frame and cut the connection, as if the peer vanished
    /// mid-stream.
    Drop,
    /// Hold the frame back until this many further frames have been
    /// queued, re-ordering it behind them.
    Delay(u32),
    /// Queue the frame twice.
    Duplicate,
    /// Queue only a prefix of the frame's bytes, then cut the
    /// connection mid-frame.
    Truncate,
    /// Flip one seeded byte of the frame (length prefix included — the
    /// receiver must survive either a desync or an oversize reject).
    Corrupt,
}

impl FaultKind {
    /// Stable spec/telemetry label.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Drop => "drop",
            FaultKind::Delay(_) => "delay",
            FaultKind::Duplicate => "dup",
            FaultKind::Truncate => "trunc",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// One scheduled fault: fire `kind` when the session's cumulative
/// outgoing frame counter reaches `at` (1-based: `at == 1` is the first
/// frame ever sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Cumulative frame number the fault fires at.
    pub at: u64,
    /// What to do to that frame.
    pub kind: FaultKind,
}

#[derive(Debug, Default)]
struct FaultState {
    pending: Vec<FaultSpec>,
    seed: u64,
    frames: u64,
    injected: u64,
}

/// A seeded, deterministic chaos schedule applied to a transport's send
/// path. Clones share consumption state: handing the same plan to every
/// reincarnation of a reconnecting stream keeps one cumulative frame
/// counter across the whole session, so `drop@17` fires exactly once at
/// the 17th frame the session ever sends.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Arc<Mutex<FaultState>>,
}

impl FaultPlan {
    /// Build a plan from explicit specs.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        let plan = FaultPlan::default();
        plan.faults.lock().pending = specs;
        plan
    }

    /// Parse a compact spec string: comma-separated `kind@frame` items,
    /// where `kind` is one of `drop`, `dup`, `trunc`, `corrupt`, or
    /// `delay` (optionally `delay@frame:holdback`, default holdback 1).
    ///
    /// ```text
    /// drop@17,corrupt@42,delay@5:3,dup@9,trunc@12
    /// ```
    pub fn parse(spec: &str) -> Result<Self> {
        let mut specs = Vec::new();
        for item in spec.split(',') {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            let (kind, rest) = item
                .split_once('@')
                .ok_or_else(|| AnorError::config(format!("fault spec `{item}`: missing `@`")))?;
            let (frame_s, arg) = match rest.split_once(':') {
                Some((f, a)) => (f, Some(a)),
                None => (rest, None),
            };
            let at: u64 = frame_s.parse().map_err(|_| {
                AnorError::config(format!("fault spec `{item}`: bad frame number `{frame_s}`"))
            })?;
            if at == 0 {
                return Err(AnorError::config(format!(
                    "fault spec `{item}`: frame numbers are 1-based"
                )));
            }
            let kind = match kind {
                "drop" => FaultKind::Drop,
                "dup" => FaultKind::Duplicate,
                "trunc" => FaultKind::Truncate,
                "corrupt" => FaultKind::Corrupt,
                "delay" => {
                    let holdback = match arg {
                        None => 1,
                        Some(a) => a.parse().map_err(|_| {
                            AnorError::config(format!(
                                "fault spec `{item}`: bad delay holdback `{a}`"
                            ))
                        })?,
                    };
                    FaultKind::Delay(holdback)
                }
                other => {
                    return Err(AnorError::config(format!(
                        "fault spec `{item}`: unknown fault kind `{other}` \
                         (want drop|delay|dup|trunc|corrupt)"
                    )))
                }
            };
            if arg.is_some() && !matches!(kind, FaultKind::Delay(_)) {
                return Err(AnorError::config(format!(
                    "fault spec `{item}`: only delay takes a `:holdback` argument"
                )));
            }
            specs.push(FaultSpec { at, kind });
        }
        Ok(FaultPlan::new(specs))
    }

    /// The `--faults <spec>` chaos schedule, if given — e.g.
    /// `drop@17,corrupt@42,delay@5:3` — with its corruption seed taken
    /// from `--fault-seed` (default `0x5eed`), which is read only when
    /// `--faults` is given. Shared by every binary that can run under
    /// injected transport faults.
    pub fn from_args(args: &Args) -> Result<Option<Self>> {
        let Some(spec) = args.get("faults") else {
            return Ok(None);
        };
        let seed: u64 = args.get_or("fault-seed", 0x5eed)?;
        Ok(Some(FaultPlan::parse(spec)?.seeded(seed)))
    }

    /// Replace the corruption seed (builder-style).
    pub fn seeded(self, seed: u64) -> Self {
        self.faults.lock().seed = seed;
        self
    }

    /// An independent deep copy with the same schedule, a fresh frame
    /// counter, and the seed salted by `salt` — one per job, so
    /// co-scheduled endpoints corrupt different bytes but follow the
    /// same schedule.
    pub fn fork(&self, salt: u64) -> Self {
        let src = self.faults.lock();
        let copy = FaultPlan::default();
        {
            let mut st = copy.faults.lock();
            st.pending = src.pending.clone();
            st.seed = src.seed ^ mix(salt);
        }
        copy
    }

    /// True when no faults are scheduled (and none ever fired).
    pub fn is_empty(&self) -> bool {
        let st = self.faults.lock();
        st.pending.is_empty() && st.injected == 0
    }

    /// How many faults have fired so far, across every clone.
    pub fn injected(&self) -> u64 {
        self.faults.lock().injected
    }

    /// Cumulative frames the plan has seen, across every clone.
    pub fn frames_seen(&self) -> u64 {
        self.faults.lock().frames
    }

    /// Advance the cumulative frame counter by one outgoing frame and
    /// return the fault to apply to it, if one is scheduled. Also yields
    /// the per-frame corruption seed so byte flips stay deterministic.
    pub(crate) fn on_frame(&self) -> Option<(FaultKind, u64)> {
        let mut st = self.faults.lock();
        st.frames += 1;
        let frame = st.frames;
        let idx = st.pending.iter().position(|s| s.at == frame)?;
        let spec = st.pending.swap_remove(idx);
        st.injected += 1;
        Some((spec.kind, mix(st.seed ^ frame)))
    }
}

/// Deterministically flip one byte of `frame` using `seed` (already
/// frame-salted by [`FaultPlan::on_frame`]). Empty frames pass through.
pub(crate) fn corrupt_byte(frame: &Bytes, seed: u64) -> Bytes {
    if frame.is_empty() {
        return frame.clone();
    }
    let mut buf = frame.to_vec();
    let idx = (seed % buf.len() as u64) as usize;
    // Guarantee the flip changes the byte: xor with a nonzero mask.
    let mask = ((seed >> 8) as u8) | 1;
    if let Some(b) = buf.get_mut(idx) {
        *b ^= mask;
    }
    Bytes::from(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default().seeded(42);
        let q = RetryPolicy::default().seeded(42);
        for attempt in 1..=p.max_attempts {
            let a = p.delay(attempt);
            let b = q.delay(attempt);
            assert_eq!(
                a.value().to_bits(),
                b.value().to_bits(),
                "attempt {attempt}"
            );
            assert!(a.value() >= 0.0);
            assert!(a.value() <= p.max_delay.value() * (1.0 + p.jitter) + 1e-9);
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert!(p.delay(2).value() > p.delay(1).value());
        assert!((p.delay(10).value() - p.max_delay.value()).abs() < 1e-9);
        // Huge attempt numbers must not overflow the exponent.
        assert!((p.delay(u32::MAX).value() - p.max_delay.value()).abs() < 1e-9);
    }

    #[test]
    fn different_seeds_decorrelate_jitter() {
        let a = RetryPolicy::default().seeded(1).delay(3);
        let b = RetryPolicy::default().seeded(2).delay(3);
        assert_ne!(a.value().to_bits(), b.value().to_bits());
    }

    #[test]
    fn plan_parses_the_readme_spec() {
        let plan = FaultPlan::parse("drop@17,corrupt@42").unwrap();
        assert!(!plan.is_empty());
        for f in 1..=16 {
            assert!(plan.on_frame().is_none(), "frame {f}");
        }
        assert!(matches!(plan.on_frame(), Some((FaultKind::Drop, _))));
        for _ in 18..42 {
            assert!(plan.on_frame().is_none());
        }
        assert!(matches!(plan.on_frame(), Some((FaultKind::Corrupt, _))));
        assert_eq!(plan.injected(), 2);
        assert_eq!(plan.frames_seen(), 42);
    }

    #[test]
    fn plan_parses_every_kind_and_rejects_junk() {
        let plan = FaultPlan::parse("drop@1,delay@2:3,dup@3,trunc@4,corrupt@5").unwrap();
        assert!(matches!(plan.on_frame(), Some((FaultKind::Drop, _))));
        assert!(matches!(plan.on_frame(), Some((FaultKind::Delay(3), _))));
        assert!(matches!(plan.on_frame(), Some((FaultKind::Duplicate, _))));
        assert!(matches!(plan.on_frame(), Some((FaultKind::Truncate, _))));
        assert!(matches!(plan.on_frame(), Some((FaultKind::Corrupt, _))));
        for bad in ["drop", "drop@x", "drop@0", "zap@3", "dup@3:9", "delay@2:x"] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
        // Empty / whitespace specs are an empty plan, not an error.
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn clones_share_the_frame_counter_but_forks_do_not() {
        let plan = FaultPlan::parse("drop@3").unwrap();
        let clone = plan.clone();
        assert!(plan.on_frame().is_none());
        assert!(clone.on_frame().is_none());
        // Third frame overall — seen through the clone.
        assert!(matches!(clone.on_frame(), Some((FaultKind::Drop, _))));
        assert_eq!(plan.injected(), 1);

        let fork = plan.fork(7);
        assert_eq!(fork.frames_seen(), 0);
        assert!(fork.on_frame().is_none());
    }

    #[test]
    fn corruption_is_deterministic_and_changes_the_frame() {
        let frame = Bytes::copy_from_slice(b"\x00\x00\x00\x04\x03abc");
        let a = corrupt_byte(&frame, 99);
        let b = corrupt_byte(&frame, 99);
        assert_eq!(a, b);
        assert_ne!(a, frame);
        assert_eq!(a.len(), frame.len());
        assert_eq!(corrupt_byte(&Bytes::new(), 99), Bytes::new());
    }

    #[test]
    fn session_state_labels() {
        assert!(SessionState::Connected.is_connected());
        assert!(SessionState::Gone.is_gone());
        assert!(!SessionState::Reconnecting { attempt: 2 }.is_connected());
        assert_eq!(
            SessionState::Reconnecting { attempt: 2 }.label(),
            "reconnecting"
        );
    }
}
