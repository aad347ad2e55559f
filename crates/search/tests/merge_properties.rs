//! Property tests for the sweep's reduction primitives:
//! `ScheduleSpace::rank` as the verified inverse of `unrank`, and
//! `ExhaustiveReport::merge` as a commutative, associative reduction
//! with `ExhaustiveReport::empty` as identity — the algebra that lets
//! the lane sweep fold partial reports in any order and still match the
//! sequential sweep bit-for-bit.

#![allow(clippy::unwrap_used)] // tests unwrap freely

use cacs_sched::Schedule;
use cacs_search::{
    exhaustive_search, exhaustive_search_range, ExhaustiveReport, FnEvaluator, ScheduleSpace,
    SweepConfig,
};
use proptest::prelude::*;

/// A tie-heavy objective with deadline violations and an idle filter so
/// every report component (counters, results, tie-breaking) participates.
fn gnarly(
    seed: u64,
) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync> {
    FnEvaluator::with_idle_check(
        3,
        move |s: &Schedule| {
            let c = s.counts();
            let mix = u64::from(c[0]) * 31 + u64::from(c[1]) * 17 + u64::from(c[2]) * 3 + seed;
            if mix.is_multiple_of(13) {
                None
            } else {
                Some((mix % 7) as f64 * 0.125)
            }
        },
        move |s: &Schedule| !(u64::from(s.counts().iter().sum::<u32>()) + seed).is_multiple_of(11),
    )
}

fn assert_identical(a: &ExhaustiveReport, b: &ExhaustiveReport, context: &str) {
    // Best first for a readable diagnostic; the full bit-for-bit
    // comparison is centralised in ExhaustiveReport::bit_identical.
    assert_eq!(a.best, b.best, "{context}: best schedule");
    assert!(
        a.bit_identical(b),
        "{context}: reports differ bitwise:\n{a:?}\nvs\n{b:?}"
    );
}

/// Turns a list of random cut offsets into a sorted partition of
/// `[0, len)` into disjoint, covering rank ranges.
fn partition(len: u64, cuts: &[u64]) -> Vec<(u64, u64)> {
    let mut bounds: Vec<u64> = cuts.iter().map(|c| c % (len + 1)).collect();
    bounds.push(0);
    bounds.push(len);
    bounds.sort_unstable();
    bounds.dedup();
    bounds.windows(2).map(|w| (w[0], w[1])).collect()
}

fn shard_reports(seed: u64, space: &ScheduleSpace, ranges: &[(u64, u64)]) -> Vec<ExhaustiveReport> {
    let eval = gnarly(seed);
    ranges
        .iter()
        .map(|&(lo, hi)| {
            exhaustive_search_range(&eval, space, lo, hi, &SweepConfig::default()).unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `rank` is the exact inverse of `unrank` on random boxes.
    #[test]
    fn rank_inverts_unrank(maxes in prop::collection::vec(1u32..7, 1..5)) {
        let space = ScheduleSpace::new(maxes).unwrap();
        for k in 0..space.len() {
            let schedule = space.unrank(k).unwrap();
            prop_assert_eq!(space.rank(&schedule), Some(k));
        }
        prop_assert_eq!(space.unrank(space.len()), None);
    }

    /// `rank` agrees with the enumeration order of `iter`.
    #[test]
    fn rank_matches_enumeration_position(maxes in prop::collection::vec(1u32..6, 2..4)) {
        let space = ScheduleSpace::new(maxes).unwrap();
        for (position, schedule) in space.iter().enumerate() {
            prop_assert_eq!(space.rank(&schedule), Some(position as u64));
        }
    }

    /// Merging shard reports in *any* permutation reproduces the full
    /// sequential sweep bit-identically (commutativity at scale).
    #[test]
    fn any_merge_order_reassembles_the_full_sweep(
        seed in 0u64..1000,
        maxes in prop::collection::vec(1u32..5, 3),
        cuts in prop::collection::vec(0u64..64, 0..6),
        rotation in 0usize..6,
    ) {
        let space = ScheduleSpace::new(maxes).unwrap();
        let full = exhaustive_search(&gnarly(seed), &space).unwrap();
        let ranges = partition(space.len(), &cuts);
        let mut shards = shard_reports(seed, &space, &ranges);
        let pivot = rotation % shards.len().max(1);
        shards.rotate_left(pivot);
        let merged = shards
            .iter()
            .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
        assert_identical(&merged, &full, "rotated fold");
    }

    /// Pairwise commutativity and associativity on concrete shard triples.
    #[test]
    fn merge_is_commutative_and_associative(
        seed in 0u64..1000,
        maxes in prop::collection::vec(1u32..5, 3),
        cut_a in 0u64..64,
        cut_b in 0u64..64,
    ) {
        let space = ScheduleSpace::new(maxes).unwrap();
        let len = space.len();
        let (mut a, mut b) = (cut_a % (len + 1), cut_b % (len + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let ranges = [(0, a), (a, b), (b, len)];
        let r = shard_reports(seed, &space, &ranges);
        // Commutativity.
        assert_identical(&r[0].merge(&r[1], &space), &r[1].merge(&r[0], &space), "comm 01");
        assert_identical(&r[1].merge(&r[2], &space), &r[2].merge(&r[1], &space), "comm 12");
        assert_identical(&r[0].merge(&r[2], &space), &r[2].merge(&r[0], &space), "comm 02");
        // Associativity.
        let left = r[0].merge(&r[1], &space).merge(&r[2], &space);
        let right = r[0].merge(&r[1].merge(&r[2], &space), &space);
        assert_identical(&left, &right, "assoc");
    }

    /// Identity: merging with the empty report changes nothing, in either
    /// direction, even for all-infeasible shards.
    #[test]
    fn empty_is_the_identity(
        seed in 0u64..1000,
        maxes in prop::collection::vec(1u32..5, 3),
    ) {
        let space = ScheduleSpace::new(maxes).unwrap();
        let full = exhaustive_search(&gnarly(seed), &space).unwrap();
        let empty = ExhaustiveReport::empty();
        assert_identical(&full.merge(&empty, &space), &full, "right identity");
        assert_identical(&empty.merge(&full, &space), &full, "left identity");
        assert_identical(&empty.merge(&empty, &space), &empty, "empty ∘ empty");
    }
}

/// All-infeasible shards: the merged report has no best and exact
/// counters, matching the sequential sweep on the same box.
#[test]
fn all_infeasible_shards_merge_cleanly() {
    let eval = FnEvaluator::new(3, |_: &Schedule| None);
    let space = ScheduleSpace::new(vec![3, 4, 3]).unwrap();
    let full = exhaustive_search(&eval, &space).unwrap();
    assert!(full.best.is_none());
    let config = SweepConfig::default();
    let lo = exhaustive_search_range(&eval, &space, 0, 17, &config).unwrap();
    let hi = exhaustive_search_range(&eval, &space, 17, space.len(), &config).unwrap();
    let merged = hi.merge(&lo, &space);
    assert_identical(&merged, &full, "all infeasible");
    assert_eq!(merged.feasible, 0);
    assert_eq!(merged.evaluated, 36);
}

/// Tie-breaking shards: a constant objective ties everywhere; whichever
/// shard arrives first, the merged best must be the globally
/// lowest-ranked schedule — exactly the sequential winner.
#[test]
fn tie_breaking_shards_keep_the_sequential_winner() {
    let eval = FnEvaluator::new(3, |_: &Schedule| Some(0.25));
    let space = ScheduleSpace::new(vec![3, 3, 3]).unwrap();
    let full = exhaustive_search(&eval, &space).unwrap();
    assert_eq!(full.best.as_ref().unwrap().counts(), &[1, 1, 1]);
    let config = SweepConfig::default();
    let shards: Vec<ExhaustiveReport> = [(0, 9), (9, 14), (14, 27)]
        .iter()
        .map(|&(lo, hi)| exhaustive_search_range(&eval, &space, lo, hi, &config).unwrap())
        .collect();
    // Reverse arrival order: the late low shard must still win the tie.
    let merged = shards
        .iter()
        .rev()
        .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
    assert_identical(&merged, &full, "reverse arrival");
}

/// The special-value palette for the NaN/infinity merge property: every
/// class the total order distinguishes, with distinct NaN bit patterns.
const SPECIAL_VALUES: [u64; 8] = [
    0x7ff8_0000_0000_0000, // quiet NaN
    0x7ff8_0000_0000_0001, // NaN with payload
    0xfff8_0000_0000_0000, // negative quiet NaN
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x8000_0000_0000_0000, // -0.0
    0x0000_0000_0000_0000, // +0.0
    0x3fd0_0000_0000_0000, // 0.25
];

fn special_report(space: &ScheduleSpace, rank: u64, bits: u64) -> ExhaustiveReport {
    let mut r = ExhaustiveReport::empty();
    r.best = Some(space.unrank(rank % space.len()).unwrap());
    r.best_value = f64::from_bits(bits);
    r.enumerated = 1;
    r.evaluated = 1;
    r.feasible = 1;
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With NaN and infinite bests in the mix — values a real shard sweep
    /// can never produce but a hand-crafted report can —
    /// the merge must stay commutative, associative, and deterministic:
    /// any grouping and any permutation of the same shard set reduces to
    /// one bit-identical result, and a NaN best never survives contact
    /// with a non-NaN one.
    #[test]
    fn merge_total_order_survives_nan_and_infinities(
        picks in prop::collection::vec((0u64..64, 0usize..8), 2..6),
        rotation in 0usize..6,
        split in 1usize..5,
    ) {
        let space = ScheduleSpace::new(vec![5, 5, 5]).unwrap();
        let shards: Vec<ExhaustiveReport> = picks
            .iter()
            .map(|&(rank, class)| special_report(&space, rank, SPECIAL_VALUES[class]))
            .collect();

        // Left fold in arrival order …
        let folded = shards
            .iter()
            .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
        // … versus a rotated permutation …
        let mut rotated = shards.clone();
        let pivot = rotation % rotated.len().max(1);
        rotated.rotate_left(pivot);
        let folded_rotated = rotated
            .iter()
            .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
        // … versus an arbitrary re-grouping (merge the two halves first).
        let cut = split % shards.len().max(1);
        let (lo, hi) = shards.split_at(cut.max(1).min(shards.len()));
        let left = lo
            .iter()
            .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
        let right = hi
            .iter()
            .fold(ExhaustiveReport::empty(), |acc, r| acc.merge(r, &space));
        let grouped = left.merge(&right, &space);

        prop_assert_eq!(folded.best.clone(), folded_rotated.best.clone());
        prop_assert_eq!(
            folded.best_value.to_bits(),
            folded_rotated.best_value.to_bits()
        );
        prop_assert_eq!(folded.best.clone(), grouped.best.clone());
        prop_assert_eq!(folded.best_value.to_bits(), grouped.best_value.to_bits());

        // A NaN best survives only if *every* shard's best was NaN.
        let any_non_nan = shards.iter().any(|r| !r.best_value.is_nan());
        prop_assert_eq!(folded.best_value.is_nan(), !any_non_nan);
    }
}
