//! Property-based tests over the core data structures and invariants.

use anor::model::{fit_anchored, fit_quadratic};
use anor::policy::{BudgetPolicy, Budgeter, EvenSlowdownBudgeter, JobView};
use anor::types::msg::{take_frame, ClusterToJob, EpochSample, JobToCluster};
use anor::types::stats::OnlineStats;
use anor::types::{CapRange, JobId, Joules, PowerCurve, Seconds, Watts};
use bytes::BytesMut;
use proptest::prelude::*;

fn range() -> CapRange {
    CapRange::paper_node()
}

proptest! {
    // ------------------------------------------------------------------
    // PowerCurve
    // ------------------------------------------------------------------

    /// Anchored curves are monotone decreasing for any sensitivity and
    /// invert exactly within the cap range.
    #[test]
    fn curve_inversion_round_trips(
        t0 in 1.0f64..1000.0,
        sens in 0.0f64..2.0,
        p in 140.0f64..280.0,
    ) {
        let c = PowerCurve::from_anchor(Seconds(t0), sens, range());
        prop_assert!(c.is_monotone_decreasing_on(range()));
        let t = c.time_at(Watts(p));
        let p_back = c.power_for_time(t, range());
        // Flat curves (sens ~ 0) invert to an arbitrary in-range point;
        // only check round-trip when the curve is meaningfully sloped.
        if sens > 1e-3 {
            prop_assert!((p_back.value() - p).abs() < 1e-3,
                "invert({t:?}) = {p_back}, expected {p}");
        }
        prop_assert!(range().contains(p_back));
    }

    /// Slowdown at the min cap equals 1 + sensitivity by construction.
    #[test]
    fn curve_sensitivity_definition(t0 in 1.0f64..500.0, sens in 0.0f64..2.0) {
        let c = PowerCurve::from_anchor(Seconds(t0), sens, range());
        let slow = c.slowdown_at(Watts(140.0), Watts(280.0));
        prop_assert!((slow - (1.0 + sens)).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Wire protocol
    // ------------------------------------------------------------------

    /// Every ClusterToJob message round-trips through the codec.
    #[test]
    fn cluster_to_job_round_trips(cap in 0.0f64..10_000.0, cause in 0u64..u64::MAX, tag in 0u8..3) {
        let msg = match tag {
            0 => ClusterToJob::SetPowerCap { cap: Watts(cap), cause },
            1 => ClusterToJob::RequestSample,
            _ => ClusterToJob::Shutdown,
        };
        let frame = msg.encode();
        let mut buf = BytesMut::from(&frame[..]);
        let body = take_frame(&mut buf).unwrap().unwrap();
        prop_assert_eq!(ClusterToJob::decode(body).unwrap(), msg);
        prop_assert!(buf.is_empty());
    }

    /// Every JobToCluster message round-trips, including arbitrary
    /// UTF-8 type names.
    #[test]
    fn job_to_cluster_round_trips(
        job in 0u64..u64::MAX,
        name in "[a-zA-Z0-9._\\-]{0,64}",
        nodes in 0u32..100_000,
        epochs in 0u64..u64::MAX,
        energy in 0.0f64..1e12,
        power in 0.0f64..1e6,
        ts in 0.0f64..1e9,
        cause in 0u64..u64::MAX,
    ) {
        let msgs = [
            JobToCluster::Hello { job: JobId(job), type_name: name.clone(), nodes },
            JobToCluster::Sample(EpochSample {
                job: JobId(job),
                epoch_count: epochs,
                energy: Joules(energy),
                avg_power: Watts(power),
                avg_cap: Watts(power),
                timestamp: Seconds(ts),
                cause,
            }),
            JobToCluster::Done { job: JobId(job), elapsed: Seconds(ts) },
        ];
        for msg in msgs {
            let frame = msg.encode();
            let mut buf = BytesMut::from(&frame[..]);
            let body = take_frame(&mut buf).unwrap().unwrap();
            prop_assert_eq!(JobToCluster::decode(body).unwrap(), msg);
        }
    }

    /// Arbitrary byte noise never panics the frame splitter; it either
    /// yields frames, waits for more, or reports a protocol error.
    #[test]
    fn frame_splitter_tolerates_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = BytesMut::from(&data[..]);
        for _ in 0..16 {
            match take_frame(&mut buf) {
                Ok(Some(body)) => {
                    // Body decoding may fail, but must not panic.
                    let _ = ClusterToJob::decode(body);
                }
                Ok(None) => break,
                Err(_) => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Budgeters
    // ------------------------------------------------------------------

    /// All three budgeters stay within each job's platform cap range and
    /// (for in-window budgets) spend the budget.
    #[test]
    fn budgeters_respect_windows(
        budget in 100.0f64..10_000.0,
        picks in proptest::collection::vec(0usize..8, 1..6),
    ) {
        let catalog = anor::types::standard_catalog();
        let specs: Vec<_> = catalog.iter().collect();
        let jobs: Vec<JobView> = picks
            .iter()
            .enumerate()
            .map(|(i, &k)| JobView::from_spec(JobId(i as u64), specs[k]))
            .collect();
        let no_flags = vec![false; jobs.len()];
        for policy in BudgetPolicy::ALL {
            let caps = policy.assign(Watts(budget), &jobs, &no_flags);
            prop_assert_eq!(caps.len(), jobs.len());
            for (cap, job) in caps.iter().zip(&jobs) {
                prop_assert!(job.cap_range.contains(*cap),
                    "{}: cap {cap} outside platform range", policy.name());
            }
            // Feasibility: if the budget lies strictly inside the
            // aggregate achievable window, it must be (nearly) spent.
            let min: f64 = jobs.iter().map(|j| j.p_min().value() * j.nodes as f64).sum();
            let max: f64 = jobs.iter().map(|j| j.p_max().value() * j.nodes as f64).sum();
            if policy != BudgetPolicy::Uniform && budget > min + 1.0 && budget < max - 1.0 {
                let total: f64 = caps
                    .iter()
                    .zip(&jobs)
                    .map(|(c, j)| c.value() * j.nodes as f64)
                    .sum();
                prop_assert!((total - budget).abs() < 2.0,
                    "{}: spent {total} of {budget}", policy.name());
            }
        }
    }

    /// Even-slowdown is monotone: a bigger budget never slows any job.
    #[test]
    fn even_slowdown_monotone_in_budget(
        b1 in 500.0f64..5000.0,
        extra in 1.0f64..2000.0,
    ) {
        let catalog = anor::types::standard_catalog();
        let jobs: Vec<JobView> = catalog
            .iter()
            .take(4)
            .enumerate()
            .map(|(i, s)| JobView::from_spec(JobId(i as u64), s))
            .collect();
        let budgeter = EvenSlowdownBudgeter;
        let small = budgeter.assign(Watts(b1), &jobs);
        let large = budgeter.assign(Watts(b1 + extra), &jobs);
        for (job, (s, l)) in jobs.iter().zip(small.iter().zip(&large)) {
            let slow_s = job.believed_slowdown(*s);
            let slow_l = job.believed_slowdown(*l);
            prop_assert!(slow_l <= slow_s + 1e-6,
                "{}: slowdown rose {slow_s} -> {slow_l} with more budget",
                job.job);
        }
    }

    // ------------------------------------------------------------------
    // Model fitting
    // ------------------------------------------------------------------

    /// Fitting clean data from any anchored curve recovers its
    /// predictions across the range.
    #[test]
    fn fits_recover_clean_curves(t0 in 0.1f64..100.0, sens in 0.05f64..1.5) {
        let truth = PowerCurve::from_anchor(Seconds(t0), sens, range());
        let pts: Vec<(Watts, Seconds)> = (0..8)
            .map(|i| {
                let p = 140.0 + 20.0 * i as f64;
                (Watts(p), truth.time_at(Watts(p)))
            })
            .collect();
        for fit in [fit_quadratic(&pts).unwrap(), fit_anchored(&pts, range()).unwrap()] {
            for p in [150.0, 210.0, 270.0] {
                let got = fit.curve.time_at(Watts(p)).value();
                let want = truth.time_at(Watts(p)).value();
                prop_assert!((got - want).abs() / want < 0.01,
                    "at {p} W: {got} vs {want}");
            }
        }
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    /// Welford merge is equivalent to sequential accumulation.
    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] {
            a.push(x);
        }
        for &x in &xs[split..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        if !xs.is_empty() {
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
            prop_assert!((a.variance() - whole.variance()).abs()
                <= 1e-6 * (1.0 + whole.variance()));
        }
    }
}
