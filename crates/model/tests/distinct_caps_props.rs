//! Property tests for the distinct-cap counts: the min-scans of
//! `fit::has_distinct_caps` must answer exactly what counting with the
//! sorted scan of `fit::distinct_caps` answers, and adding a cap must
//! never lower the count (the modeler keeps a cached "yes" across a push
//! that evicts nothing), on the caps where the 1 W tolerance is most
//! fragile.

use anor_model::fit::{distinct_caps, has_distinct_caps};
use anor_types::{Seconds, Watts};
use proptest::prelude::*;

/// One drawn cap: NaN of either sign, ±inf, ±0.0, or a rung of a ladder
/// spaced 1 W apart, nudged one ulp down, left exact or nudged one ulp
/// up. Small rung counts make duplicates common.
fn cap((kind, rung, nudge): (u8, u32, u8)) -> f64 {
    match kind {
        0 => f64::NAN,
        1 => -f64::NAN,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => 0.0,
        5 => -0.0,
        _ => {
            let level = 140.0 + f64::from(rung);
            match nudge {
                0 => level.next_down(),
                1 => level,
                _ => level.next_up(),
            }
        }
    }
}

proptest! {
    #[test]
    fn min_scans_agree_with_the_sorted_count(
        drawn in proptest::collection::vec((0u8..16, 0u32..6, 0u8..3), 0..24),
    ) {
        let points: Vec<(Watts, Seconds)> = drawn
            .into_iter()
            .map(|d| (Watts(cap(d)), Seconds(1.0)))
            .collect();
        let n = distinct_caps(&points);
        for k in 0..=4 {
            prop_assert_eq!(
                has_distinct_caps(&points, k),
                n >= k,
                "k = {} over {:?} ({} levels)",
                k,
                points,
                n
            );
        }
    }

    #[test]
    fn adding_a_cap_never_lowers_the_count(
        drawn in proptest::collection::vec((0u8..16, 0u32..6, 0u8..3), 0..24),
        extra in (0u8..16, 0u32..6, 0u8..3),
    ) {
        let mut points: Vec<(Watts, Seconds)> = drawn
            .into_iter()
            .map(|d| (Watts(cap(d)), Seconds(1.0)))
            .collect();
        let before = distinct_caps(&points);
        points.push((Watts(cap(extra)), Seconds(1.0)));
        prop_assert!(distinct_caps(&points) >= before, "{:?}", points);
    }
}

/// The boundary cases spelled out: a gap of exactly 1 W does not open a
/// level, one ulp more does, and neither NaN nor -inf ever counts.
#[test]
fn one_watt_boundary_and_non_finite_caps() {
    let pts = |caps: &[f64]| -> Vec<(Watts, Seconds)> {
        caps.iter().map(|&c| (Watts(c), Seconds(1.0))).collect()
    };
    let exact = pts(&[140.0, 141.0, 142.0]);
    assert!(has_distinct_caps(&exact, 2));
    assert!(!has_distinct_caps(&exact, 3));
    let apart = pts(&[140.0, 141.0_f64.next_up(), 142.0_f64.next_up().next_up()]);
    assert_eq!(distinct_caps(&apart), 3);
    assert!(has_distinct_caps(&apart, 3));
    let odd = pts(&[f64::NAN, -f64::NAN, f64::NEG_INFINITY, f64::INFINITY]);
    assert_eq!(distinct_caps(&odd), 1);
    assert!(has_distinct_caps(&odd, 1));
    assert!(!has_distinct_caps(&odd, 2));
    assert!(has_distinct_caps(&[], 0));
    assert!(!has_distinct_caps(&[], 1));
}
