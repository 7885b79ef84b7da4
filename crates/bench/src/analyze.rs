//! Offline causal-trace analysis (the `anor-trace` binary's core).
//!
//! Joins the flat trace events a `--trace <dir>` run streams into
//! `trace.jsonl` back into per-decision causal chains, and derives the
//! control-loop latency distributions the framework's nested feedback
//! loop is designed around: how long a budgeter decision takes to reach
//! the MSRs (decision → wire → actuation) and how long until the
//! decision's effect is observed back at the cluster tier and folded
//! into a model (actuation → first observation → retrain).

use anor_telemetry::json::{self, Json};
use anor_telemetry::{TraceEvent, TraceStage};
use std::collections::BTreeMap;

/// The per-stage timeline reconstructed for one decision (cause id).
#[derive(Debug, Clone, Default)]
pub struct DecisionChain {
    /// The decision's cause id.
    pub cause: u64,
    /// When the budgeter recorded the decision.
    pub decision: Option<f64>,
    /// First `SetPowerCap` queued onto the wire.
    pub cap_tx: Option<f64>,
    /// First endpoint receipt of the cap.
    pub cap_rx: Option<f64>,
    /// First policy written into a GEOPM mailbox.
    pub policy_write: Option<f64>,
    /// First actual MSR programming under this decision.
    pub msr_write: Option<f64>,
    /// First sample carrying this cause arriving back at the budgeter.
    pub sample_rx: Option<f64>,
    /// First modeler retrain over samples taken under this decision.
    pub retrain: Option<f64>,
    /// Number of events attributed to this decision.
    pub events: u64,
}

impl DecisionChain {
    /// A chain is complete when the decision demonstrably travelled the
    /// whole loop: sent, received, actuated on an MSR, and observed back
    /// at the cluster tier.
    pub fn is_complete(&self) -> bool {
        self.decision.is_some()
            && self.cap_tx.is_some()
            && self.cap_rx.is_some()
            && self.msr_write.is_some()
            && self.sample_rx.is_some()
    }

    /// A decision is orphaned when it provably changed nothing: it never
    /// reached an MSR *and* no sample ever reported running under it.
    /// (A re-issued cap whose MSR write was elided still owns samples,
    /// so it does not count as an orphan.)
    pub fn is_orphan(&self) -> bool {
        self.decision.is_some() && self.msr_write.is_none() && self.sample_rx.is_none()
    }
}

fn first(slot: &mut Option<f64>, ts: f64) {
    if slot.is_none() {
        *slot = Some(ts);
    }
}

/// p50/p90/p99 of one latency distribution, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl LatencyStats {
    /// Compute from unordered latency samples.
    pub fn from_samples(mut xs: Vec<f64>) -> Self {
        if xs.is_empty() {
            return LatencyStats::default();
        }
        xs.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| {
            let idx = ((xs.len() as f64 - 1.0) * q).round() as usize;
            xs[idx.min(xs.len() - 1)]
        };
        LatencyStats {
            count: xs.len(),
            p50: pick(0.50),
            p90: pick(0.90),
            p99: pick(0.99),
        }
    }

    /// Render as `p50/p90/p99` in milliseconds.
    pub fn render_ms(&self) -> String {
        if self.count == 0 {
            return "n/a (no samples)".to_string();
        }
        format!(
            "p50 {:.3} ms  p90 {:.3} ms  p99 {:.3} ms  (n={})",
            self.p50 * 1e3,
            self.p90 * 1e3,
            self.p99 * 1e3,
            self.count
        )
    }
}

/// The analyzer's full output.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// Per-decision chains, keyed by cause id.
    pub chains: BTreeMap<u64, DecisionChain>,
    /// Decisions that travelled the whole loop.
    pub complete: u64,
    /// Decisions that provably changed nothing.
    pub orphans: Vec<u64>,
    /// `sample_rx` events whose cause is neither 0 nor any known
    /// decision (a causality bug or a truncated trace).
    pub unknown_cause_samples: u64,
    /// `sample_rx` events with cause 0 (taken before the first traced
    /// cap reached their node — expected at run start).
    pub untraced_samples: u64,
    /// Transport errors recorded in the trace.
    pub transport_errors: u64,
    /// Disconnects recorded in the trace.
    pub disconnects: u64,
    /// Successful endpoint reconnects recorded in the trace.
    pub reconnects: u64,
    /// Session resume events (endpoint and budgeter sides both record
    /// one, so a healthy resume contributes two).
    pub resumes: u64,
    /// Power leases the budgeter expired.
    pub leases_expired: u64,
    /// Expired leases restored by a later resume.
    pub leases_restored: u64,
    /// Decisions that changed nothing *because* their lifetime fell
    /// inside a disconnect→resume window: the cap was decided while the
    /// job's session was down, so "orphan" would mislabel a known,
    /// recoverable outage as a causality bug.
    pub interrupted: Vec<u64>,
    /// Decisions from an analytic trace: the whole trace carries no
    /// actuation stage (no wire, MSR, or sample events), so chains
    /// cannot exist by construction — e.g. `fig4 --trace`, which sweeps
    /// budgets without driving hardware. Calling these orphans would
    /// mislabel every analytic run as a causality bug.
    pub standalone: Vec<u64>,
    /// decision → cap on the wire.
    pub decision_to_wire: LatencyStats,
    /// decision → endpoint receipt.
    pub decision_to_rx: LatencyStats,
    /// decision → first MSR programming (full downward latency).
    pub decision_to_msr: LatencyStats,
    /// MSR actuation → first sample under the new cap back at the
    /// budgeter (upward observation latency).
    pub msr_to_observation: LatencyStats,
    /// First observation → modeler retrain incorporating it.
    pub observation_to_retrain: LatencyStats,
}

impl TraceReport {
    /// Human-readable summary (what `anor-trace` prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "decisions: {}  complete chains: {}  orphaned decisions: {}\n",
            self.chains.len(),
            self.complete,
            self.orphans.len()
        ));
        out.push_str(&format!(
            "samples: {} with unknown cause, {} untraced (pre-first-cap)\n",
            self.unknown_cause_samples, self.untraced_samples
        ));
        out.push_str(&format!(
            "faults: {} transport error(s), {} disconnect(s)\n",
            self.transport_errors, self.disconnects
        ));
        out.push_str(&format!(
            "sessions: {} reconnect(s), {} resume event(s), \
             {} lease(s) expired, {} restored\n",
            self.reconnects, self.resumes, self.leases_expired, self.leases_restored
        ));
        out.push_str("\ncontrol-loop latencies (downward):\n");
        out.push_str(&format!(
            "  decision -> wire        {}\n",
            self.decision_to_wire.render_ms()
        ));
        out.push_str(&format!(
            "  decision -> endpoint    {}\n",
            self.decision_to_rx.render_ms()
        ));
        out.push_str(&format!(
            "  decision -> MSR write   {}\n",
            self.decision_to_msr.render_ms()
        ));
        out.push_str("control-loop latencies (upward):\n");
        out.push_str(&format!(
            "  MSR write -> observed   {}\n",
            self.msr_to_observation.render_ms()
        ));
        out.push_str(&format!(
            "  observed -> retrain     {}\n",
            self.observation_to_retrain.render_ms()
        ));
        if !self.orphans.is_empty() {
            let shown: Vec<String> = self.orphans.iter().take(8).map(u64::to_string).collect();
            let ell = if self.orphans.len() > 8 { ", ..." } else { "" };
            out.push_str(&format!("orphaned causes: {}{}\n", shown.join(", "), ell));
        }
        if !self.interrupted.is_empty() {
            let shown: Vec<String> = self
                .interrupted
                .iter()
                .take(8)
                .map(u64::to_string)
                .collect();
            let ell = if self.interrupted.len() > 8 {
                ", ..."
            } else {
                ""
            };
            out.push_str(&format!(
                "interrupted by disconnect (not orphans): {}{}\n",
                shown.join(", "),
                ell
            ));
        }
        if !self.standalone.is_empty() {
            out.push_str(&format!(
                "standalone decisions (analytic trace, no actuation stages): {}\n",
                self.standalone.len()
            ));
        }
        out
    }
}

/// Join trace events into per-decision chains and latency statistics.
pub fn analyze(events: &[TraceEvent]) -> TraceReport {
    let mut report = TraceReport::default();
    // Pass 1: build a chain per decision so sample causes can be
    // validated against the decision set.
    for ev in events {
        if ev.stage == TraceStage::Decision {
            let chain = report.chains.entry(ev.cause.0).or_default();
            chain.cause = ev.cause.0;
            first(&mut chain.decision, ev.ts);
        }
    }
    // Pass 2: attribute every other stage to its decision.
    for ev in events {
        match ev.stage {
            TraceStage::TransportError => report.transport_errors += 1,
            TraceStage::Disconnect => report.disconnects += 1,
            TraceStage::Reconnect => report.reconnects += 1,
            TraceStage::Resume => report.resumes += 1,
            TraceStage::LeaseExpired => report.leases_expired += 1,
            TraceStage::LeaseRestored => report.leases_restored += 1,
            TraceStage::Decision => {}
            stage => {
                if stage == TraceStage::SampleRx {
                    if ev.cause.0 == 0 {
                        report.untraced_samples += 1;
                    } else if !report.chains.contains_key(&ev.cause.0) {
                        report.unknown_cause_samples += 1;
                    }
                }
                let Some(chain) = report.chains.get_mut(&ev.cause.0) else {
                    continue;
                };
                chain.events += 1;
                match stage {
                    TraceStage::CapTx => first(&mut chain.cap_tx, ev.ts),
                    TraceStage::CapRx => first(&mut chain.cap_rx, ev.ts),
                    TraceStage::PolicyWrite => first(&mut chain.policy_write, ev.ts),
                    TraceStage::MsrWrite => first(&mut chain.msr_write, ev.ts),
                    TraceStage::SampleRx => first(&mut chain.sample_rx, ev.ts),
                    TraceStage::Retrain => first(&mut chain.retrain, ev.ts),
                    _ => {}
                }
            }
        }
    }
    // Pass 3: pair each job's Disconnect with the Reconnect/Resume that
    // ends the outage. An outage never closed by the end of the trace
    // extends to +inf (the session went Gone or the trace truncated).
    let mut session: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| {
            e.job.is_some()
                && matches!(
                    e.stage,
                    TraceStage::Disconnect | TraceStage::Reconnect | TraceStage::Resume
                )
        })
        .collect();
    session.sort_by(|a, b| a.ts.total_cmp(&b.ts));
    let mut open: BTreeMap<u64, f64> = BTreeMap::new();
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for ev in session {
        let job = match ev.job {
            Some(j) => j,
            None => continue,
        };
        match ev.stage {
            TraceStage::Disconnect => {
                open.entry(job).or_insert(ev.ts);
            }
            _ => {
                if let Some(t0) = open.remove(&job) {
                    windows.push((t0, ev.ts));
                }
            }
        }
    }
    windows.extend(open.into_values().map(|t0| (t0, f64::INFINITY)));
    let in_outage =
        |ts: Option<f64>| ts.is_some_and(|t| windows.iter().any(|&(a, b)| t >= a && t <= b));
    // Whether any event in the trace belongs to the actuation path at
    // all; without one the run was analytic and no decision can chain.
    let has_actuation = events.iter().any(|e| {
        matches!(
            e.stage,
            TraceStage::CapTx
                | TraceStage::CapRx
                | TraceStage::PolicyWrite
                | TraceStage::MsrWrite
                | TraceStage::SampleTx
                | TraceStage::SampleRx
        )
    });
    let mut to_wire = Vec::new();
    let mut to_rx = Vec::new();
    let mut to_msr = Vec::new();
    let mut to_obs = Vec::new();
    let mut to_retrain = Vec::new();
    for chain in report.chains.values() {
        if chain.is_complete() {
            report.complete += 1;
        }
        if chain.is_orphan() {
            // A dead decision made (or transmitted) while some job's
            // session was down is a consequence of the outage, not a
            // causality bug: report it as interrupted, not orphaned.
            if in_outage(chain.decision) || in_outage(chain.cap_tx) {
                report.interrupted.push(chain.cause);
            } else if !has_actuation {
                report.standalone.push(chain.cause);
            } else {
                report.orphans.push(chain.cause);
            }
        }
        let Some(d) = chain.decision else { continue };
        if let Some(t) = chain.cap_tx {
            to_wire.push(t - d);
        }
        if let Some(t) = chain.cap_rx {
            to_rx.push(t - d);
        }
        if let Some(t) = chain.msr_write {
            to_msr.push(t - d);
        }
        if let (Some(m), Some(s)) = (chain.msr_write, chain.sample_rx) {
            to_obs.push(s - m);
        }
        if let (Some(s), Some(r)) = (chain.sample_rx, chain.retrain) {
            // The retrain may predate the budgeter seeing the sample
            // (the endpoint observes first); clamp at zero.
            to_retrain.push((r - s).max(0.0));
        }
    }
    report.decision_to_wire = LatencyStats::from_samples(to_wire);
    report.decision_to_rx = LatencyStats::from_samples(to_rx);
    report.decision_to_msr = LatencyStats::from_samples(to_msr);
    report.msr_to_observation = LatencyStats::from_samples(to_obs);
    report.observation_to_retrain = LatencyStats::from_samples(to_retrain);
    report
}

/// One row of a `BENCH_PR<N>.json` perf-trajectory file (schema in
/// DESIGN.md § Performance). Keyed by `(bench, jobs)` when comparing
/// across PRs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRow {
    /// Benchmark name.
    pub bench: String,
    /// Worker count the bench ran with.
    pub jobs: u64,
    /// Median wall-clock seconds.
    pub median_s: f64,
    /// Fastest run (absent in pre-PR7 files).
    pub min_s: Option<f64>,
    /// Run-to-run standard deviation (absent in pre-PR7 files).
    pub stddev_s: Option<f64>,
}

/// Parse the rows of a `BENCH_PR<N>.json` file. Tolerates the pre-PR7
/// schema (no `min_s`/`stddev_s`) so older trajectory files stay
/// comparable.
pub fn parse_bench_file(text: &str) -> Result<Vec<BenchRow>, String> {
    let v = json::parse(text)?;
    let arr = v
        .as_array()
        .ok_or_else(|| "expected a JSON array of bench rows".to_string())?;
    let mut rows = Vec::with_capacity(arr.len());
    for (i, row) in arr.iter().enumerate() {
        let bench = row
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("row {i}: missing `bench`"))?
            .to_string();
        let median_s = row
            .get("median_s")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {i}: missing `median_s`"))?;
        rows.push(BenchRow {
            bench,
            jobs: row.get("jobs").and_then(Json::as_u64).unwrap_or(1),
            median_s,
            min_s: row.get("min_s").and_then(Json::as_f64),
            stddev_s: row.get("stddev_s").and_then(Json::as_f64),
        });
    }
    Ok(rows)
}

/// The PR number of the newest `BENCH_PR<N>.json` among `file_names`
/// (0 when there is none). perfsuite compares against that file and
/// writes the next one, so no PR edits the ledger names by hand.
pub fn newest_ledger<S: AsRef<str>>(file_names: impl IntoIterator<Item = S>) -> u32 {
    file_names
        .into_iter()
        .filter_map(|name| {
            name.as_ref()
                .strip_prefix("BENCH_PR")?
                .strip_suffix(".json")?
                .parse::<u32>()
                .ok()
        })
        .max()
        .unwrap_or(0)
}

/// Compare a perfsuite run against a prior PR's trajectory file and
/// describe every benchmark whose median slowed by more than
/// `threshold` (fractional: 0.10 flags >10% regressions). Benches
/// present on only one side are skipped — a renamed or new bench is not
/// a regression.
pub fn flag_regressions(prior: &[BenchRow], current: &[BenchRow], threshold: f64) -> Vec<String> {
    let mut flags = Vec::new();
    for cur in current {
        let Some(old) = prior
            .iter()
            .find(|p| p.bench == cur.bench && p.jobs == cur.jobs)
        else {
            continue;
        };
        if old.median_s <= 0.0 {
            continue;
        }
        let ratio = cur.median_s / old.median_s;
        if ratio > 1.0 + threshold {
            flags.push(format!(
                "{} (jobs={}): median {:.3}s -> {:.3}s (+{:.1}%)",
                cur.bench,
                cur.jobs,
                old.median_s,
                cur.median_s,
                (ratio - 1.0) * 100.0
            ));
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_telemetry::{CauseId, SpanId};

    fn ev(span: u64, ts: f64, stage: TraceStage, cause: u64) -> TraceEvent {
        TraceEvent {
            span: SpanId(span),
            ts,
            stage,
            cause: CauseId(cause),
            job: None,
            watts: None,
            detail: None,
        }
    }

    #[test]
    fn complete_chain_is_joined_and_timed() {
        let events = vec![
            ev(0, 1.00, TraceStage::Decision, 1),
            ev(1, 1.01, TraceStage::CapTx, 1),
            ev(2, 1.02, TraceStage::CapRx, 1),
            ev(3, 1.02, TraceStage::PolicyWrite, 1),
            ev(4, 1.03, TraceStage::MsrWrite, 1),
            ev(5, 1.10, TraceStage::SampleRx, 1),
            ev(6, 1.20, TraceStage::Retrain, 1),
        ];
        let r = analyze(&events);
        assert_eq!(r.chains.len(), 1);
        assert_eq!(r.complete, 1);
        assert!(r.orphans.is_empty());
        assert!((r.decision_to_msr.p50 - 0.03).abs() < 1e-9);
        assert!((r.msr_to_observation.p50 - 0.07).abs() < 1e-9);
        assert!((r.observation_to_retrain.p50 - 0.10).abs() < 1e-9);
    }

    #[test]
    fn orphan_decisions_are_flagged() {
        let events = vec![
            ev(0, 1.0, TraceStage::Decision, 1),
            ev(1, 1.1, TraceStage::CapTx, 1),
            // Cause 2 completes; cause 1 never actuates or is observed.
            ev(2, 2.0, TraceStage::Decision, 2),
            ev(3, 2.1, TraceStage::CapTx, 2),
            ev(4, 2.2, TraceStage::CapRx, 2),
            ev(5, 2.3, TraceStage::MsrWrite, 2),
            ev(6, 2.4, TraceStage::SampleRx, 2),
        ];
        let r = analyze(&events);
        assert_eq!(r.complete, 1);
        assert_eq!(r.orphans, vec![1]);
    }

    #[test]
    fn decision_only_trace_is_standalone_not_orphaned() {
        // An analytic run (fig4/fig11 summary records) has no actuation
        // path anywhere in the trace, so its decisions are standalone.
        let events = vec![
            ev(0, 1.0, TraceStage::Decision, 1),
            ev(1, 2.0, TraceStage::Decision, 2),
        ];
        let r = analyze(&events);
        assert!(r.orphans.is_empty());
        assert_eq!(r.standalone, vec![1, 2]);
        assert!(r.render().contains("standalone decisions"));
        // One actuation event anywhere re-arms orphan detection: a
        // hardware-driving run must not hide dead decisions.
        let mut with_actuation = events.clone();
        with_actuation.push(ev(2, 2.1, TraceStage::CapTx, 2));
        let r = analyze(&with_actuation);
        assert_eq!(r.orphans, vec![1, 2]);
        assert!(r.standalone.is_empty());
    }

    #[test]
    fn elided_write_with_observed_samples_is_not_an_orphan() {
        // The agent skipped the redundant MSR write but samples still
        // report the new cause: incomplete, but not an orphan.
        let events = vec![
            ev(0, 1.0, TraceStage::Decision, 3),
            ev(1, 1.1, TraceStage::CapTx, 3),
            ev(2, 1.2, TraceStage::CapRx, 3),
            ev(3, 1.5, TraceStage::SampleRx, 3),
        ];
        let r = analyze(&events);
        assert_eq!(r.complete, 0);
        assert!(r.orphans.is_empty());
    }

    #[test]
    fn sample_causes_are_classified() {
        let events = vec![
            ev(0, 1.0, TraceStage::Decision, 1),
            ev(1, 1.1, TraceStage::SampleRx, 0),  // pre-first-cap
            ev(2, 1.2, TraceStage::SampleRx, 1),  // known
            ev(3, 1.3, TraceStage::SampleRx, 99), // unknown decision
        ];
        let r = analyze(&events);
        assert_eq!(r.untraced_samples, 1);
        assert_eq!(r.unknown_cause_samples, 1);
    }

    #[test]
    fn faults_are_counted() {
        let events = vec![
            ev(0, 1.0, TraceStage::TransportError, 0),
            ev(1, 1.1, TraceStage::Disconnect, 0),
            ev(2, 1.2, TraceStage::Disconnect, 0),
        ];
        let r = analyze(&events);
        assert_eq!(r.transport_errors, 1);
        assert_eq!(r.disconnects, 2);
    }

    fn jev(ts: f64, stage: TraceStage, cause: u64, job: u64) -> TraceEvent {
        TraceEvent {
            span: SpanId(0),
            ts,
            stage,
            cause: CauseId(cause),
            job: Some(job),
            watts: None,
            detail: None,
        }
    }

    #[test]
    fn session_stages_are_counted() {
        let events = vec![
            jev(1.0, TraceStage::Disconnect, 0, 1),
            jev(1.5, TraceStage::Reconnect, 0, 1),
            jev(1.6, TraceStage::Resume, 0, 1),
            jev(2.0, TraceStage::LeaseExpired, 0, 2),
            jev(3.0, TraceStage::LeaseRestored, 0, 2),
        ];
        let r = analyze(&events);
        assert_eq!(r.reconnects, 1);
        assert_eq!(r.resumes, 1);
        assert_eq!(r.leases_expired, 1);
        assert_eq!(r.leases_restored, 1);
    }

    #[test]
    fn dead_decision_inside_an_outage_is_interrupted_not_orphaned() {
        let events = vec![
            // Job 7's session drops at t=1 and resumes at t=3.
            jev(1.0, TraceStage::Disconnect, 0, 7),
            // Decided mid-outage, never actuated: interrupted.
            ev(1, 2.0, TraceStage::Decision, 5),
            ev(2, 2.1, TraceStage::CapTx, 5),
            jev(3.0, TraceStage::Resume, 0, 7),
            // Decided after the resume, also dead: a true orphan.
            ev(3, 4.0, TraceStage::Decision, 6),
            ev(4, 4.1, TraceStage::CapTx, 6),
        ];
        let r = analyze(&events);
        assert_eq!(r.interrupted, vec![5]);
        assert_eq!(r.orphans, vec![6]);
        let text = r.render();
        assert!(text.contains("interrupted by disconnect (not orphans): 5"));
        assert!(text.contains("orphaned causes: 6"));
    }

    #[test]
    fn unclosed_outage_extends_to_the_end_of_the_trace() {
        let events = vec![
            jev(1.0, TraceStage::Disconnect, 0, 3),
            // Session never comes back; late dead decisions stay
            // interrupted, not orphaned.
            ev(1, 9.0, TraceStage::Decision, 8),
        ];
        let r = analyze(&events);
        assert_eq!(r.interrupted, vec![8]);
        assert!(r.orphans.is_empty());
    }

    #[test]
    fn percentiles_pick_from_sorted_samples() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(xs);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 51.0).abs() < 1.01);
        assert!((s.p90 - 90.0).abs() < 1.01);
        assert!((s.p99 - 99.0).abs() < 1.01);
        assert_eq!(LatencyStats::from_samples(vec![]).count, 0);
    }

    #[test]
    fn bench_rows_parse_old_and_new_schemas() {
        let old = r#"[{"bench": "fig4", "median_s": 0.5, "runs": 5, "jobs": 1}]"#;
        let rows = parse_bench_file(old).unwrap();
        assert_eq!(rows[0].bench, "fig4");
        assert_eq!(rows[0].jobs, 1);
        assert_eq!(rows[0].min_s, None);
        let new = r#"[{"bench": "fig4", "median_s": 0.5, "min_s": 0.45,
                       "stddev_s": 0.02, "runs": 5, "jobs": 1}]"#;
        let rows = parse_bench_file(new).unwrap();
        assert_eq!(rows[0].min_s, Some(0.45));
        assert_eq!(rows[0].stddev_s, Some(0.02));
        assert!(parse_bench_file("{}").is_err());
        assert!(parse_bench_file(r#"[{"median_s": 1.0}]"#).is_err());
    }

    #[test]
    fn newest_ledger_is_the_highest_pr_number() {
        let names = [
            "BENCH_PR9.json",
            "BENCH_PR21.json",
            "BENCH_PR4.json",
            "BENCH_PR22.json.tmp",
            "BENCH_PRx.json",
            "README.md",
        ];
        assert_eq!(newest_ledger(names), 21);
        assert_eq!(newest_ledger(["Cargo.toml"]), 0);
    }

    #[test]
    fn regressions_flagged_beyond_threshold() {
        let row = |bench: &str, jobs: u64, median: f64| BenchRow {
            bench: bench.to_string(),
            jobs,
            median_s: median,
            min_s: None,
            stddev_s: None,
        };
        let prior = vec![row("a", 1, 1.0), row("b", 1, 1.0), row("b", 8, 1.0)];
        let current = vec![
            row("a", 1, 1.05),  // +5%: under threshold
            row("b", 1, 1.2),   // +20%: flagged
            row("b", 8, 0.9),   // faster: fine
            row("new", 1, 9.0), // no baseline: skipped
        ];
        let flags = flag_regressions(&prior, &current, 0.10);
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert!(flags[0].contains("b (jobs=1)"));
        assert!(flags[0].contains("+20.0%"));
    }

    #[test]
    fn report_renders_key_lines() {
        let events = vec![
            ev(0, 1.00, TraceStage::Decision, 1),
            ev(1, 1.01, TraceStage::CapTx, 1),
            ev(2, 1.02, TraceStage::CapRx, 1),
            ev(3, 1.03, TraceStage::MsrWrite, 1),
            ev(4, 1.10, TraceStage::SampleRx, 1),
        ];
        let text = analyze(&events).render();
        assert!(text.contains("complete chains: 1"));
        assert!(text.contains("decision -> MSR write"));
        assert!(text.contains("p90"));
    }
}
