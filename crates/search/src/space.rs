//! The bounded box of candidate periodic schedules.

use crate::{Result, SearchError};
use cacs_sched::Schedule;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// The discrete decision space `{1..max_1} × … × {1..max_n}` of periodic
/// schedules (paper Section IV: `m_i ∈ N⁺` with upper bounds induced by
/// the idle-time constraint).
///
/// Schedules are ordered lexicographically (last dimension fastest);
/// [`ScheduleSpace::unrank`] and [`ScheduleSpace::iter_from`] give
/// indexed access into that order, which is what lets a sweep's lanes
/// start any claimed rank block in place instead of materialising the
/// box.
///
/// # Example
///
/// ```
/// use cacs_search::ScheduleSpace;
///
/// # fn main() -> Result<(), cacs_search::SearchError> {
/// let space = ScheduleSpace::new(vec![4, 9, 7])?;
/// assert_eq!(space.len(), 4 * 9 * 7);
/// assert_eq!(space.unrank(0).unwrap().counts(), &[1, 1, 1]);
/// assert_eq!(space.unrank(7).unwrap().counts(), &[1, 2, 1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleSpace {
    max_counts: Vec<u32>,
}

impl ScheduleSpace {
    /// A generous feasibility-scan budget (`8^8` points) for callers
    /// with cheap predicates — e.g. `cacs-core`'s idle-time feasibility
    /// check, a few arithmetic operations per schedule.
    pub const STREAM_SCAN_LIMIT: u64 = 16_777_216;

    /// Ranks per lane claim in a feasibility scan.
    const SCAN_GRAIN: usize = 1_024;

    /// Counts a lane's cursor buffer holds room for: 128 bytes, two
    /// cache lines.
    const CURSOR_CAPACITY: usize = 32;

    /// Creates a space with per-application maxima (each at least 1).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidSpace`] if `max_counts` is empty or
    /// contains a zero.
    pub fn new(max_counts: Vec<u32>) -> Result<Self> {
        if max_counts.is_empty() {
            return Err(SearchError::InvalidSpace {
                reason: "space must have at least one application".into(),
            });
        }
        if max_counts.contains(&0) {
            return Err(SearchError::InvalidSpace {
                reason: "every application needs max count >= 1".into(),
            });
        }
        Ok(ScheduleSpace { max_counts })
    }

    /// Derives per-dimension maxima by scanning the **entire** `capⁿ` box
    /// with the feasibility predicate and recording, per dimension, the
    /// largest `m_i` of any feasible schedule.
    ///
    /// Feasibility of the idle-time constraint (4) is *not* monotone per
    /// dimension (raising `m_i` turns `C_i`'s own last task warm,
    /// shortening it), so the cheap axis-wise bound of
    /// [`ScheduleSpace::from_feasibility`] can miss feasible corners; this
    /// scan is exact. It walks the box the way the exhaustive sweep does:
    /// parallel lanes claim rank blocks and fold them into a per-lane
    /// maximum, so memory stays constant and the max reduction cannot
    /// depend on the lane count. The predicate must be cheap: it is
    /// called `capⁿ` times, and `limit` bounds that count.
    ///
    /// # Errors
    ///
    /// * [`SearchError::InvalidSpace`] if `apps` is zero or no schedule
    ///   in the box is feasible.
    /// * [`SearchError::SpaceTooLarge`] if the box exceeds `limit`
    ///   points — callers should raise the budget or fall back to
    ///   [`ScheduleSpace::from_feasibility`].
    pub fn from_feasibility_scan(
        apps: usize,
        cap: u32,
        limit: u64,
        feasible: impl Fn(&Schedule) -> bool + Sync,
    ) -> Result<Self> {
        if apps == 0 {
            return Err(SearchError::InvalidSpace {
                reason: "space must have at least one application".into(),
            });
        }
        let box_size = (u64::from(cap)).checked_pow(apps as u32);
        if box_size.is_none_or(|s| s > limit) {
            return Err(SearchError::SpaceTooLarge { cap, apps, limit });
        }
        let full = ScheduleSpace::new(vec![cap; apps])?;
        let lanes = full.fold_rank_blocks(
            0,
            full.len(),
            Self::SCAN_GRAIN,
            || vec![0u32; apps],
            |max_counts, schedule| {
                if feasible(schedule) {
                    // Stores only on growth: a lane's maxima may share a
                    // cache line with another lane's.
                    for (max, &m) in max_counts.iter_mut().zip(schedule.counts()) {
                        if m > *max {
                            *max = m;
                        }
                    }
                }
            },
        );
        let mut max_counts = vec![0u32; apps];
        for lane in lanes {
            for (max, m) in max_counts.iter_mut().zip(lane) {
                *max = (*max).max(m);
            }
        }
        if max_counts.contains(&0) {
            return Err(SearchError::InvalidSpace {
                reason: "no feasible schedule in the scanned box".into(),
            });
        }
        ScheduleSpace::new(max_counts)
    }

    /// Derives per-dimension maxima from a feasibility predicate: for each
    /// application `i`, the largest `m ≤ cap` such that the schedule with
    /// `m_i = m` and all other counts at 1 satisfies the predicate.
    ///
    /// The whole `1..=cap` range is probed for every dimension — the idle
    /// constraint is **not** monotone in `m_i` (see
    /// [`ScheduleSpace::from_feasibility_scan`]), so an early break at the
    /// first infeasible `m` could silently shrink the search box past
    /// feasible corners.
    ///
    /// This is a fast, conservative approximation (see
    /// [`ScheduleSpace::from_feasibility_scan`] for the exact variant and
    /// why the difference matters).
    ///
    /// # Errors
    ///
    /// Returns [`SearchError::InvalidSpace`] if `apps` is zero or even
    /// `m_i = 1` is infeasible for some dimension (the workload cannot be
    /// scheduled at all).
    pub fn from_feasibility(
        apps: usize,
        cap: u32,
        mut feasible: impl FnMut(&Schedule) -> bool,
    ) -> Result<Self> {
        if apps == 0 {
            return Err(SearchError::InvalidSpace {
                reason: "space must have at least one application".into(),
            });
        }
        let mut max_counts = Vec::with_capacity(apps);
        for i in 0..apps {
            let mut best = 0;
            for m in 1..=cap {
                let mut counts = vec![1u32; apps];
                counts[i] = m;
                let s = Schedule::new(counts).expect("positive counts");
                if feasible(&s) {
                    best = m;
                }
            }
            if best == 0 {
                return Err(SearchError::InvalidSpace {
                    reason: format!("application {i} infeasible even at m = 1"),
                });
            }
            max_counts.push(best);
        }
        ScheduleSpace::new(max_counts)
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.max_counts.len()
    }

    /// Per-application maxima.
    pub fn max_counts(&self) -> &[u32] {
        &self.max_counts
    }

    /// Total number of schedules in the box, saturating at `u64::MAX`
    /// when the true product overflows (use
    /// [`ScheduleSpace::checked_len`] to detect that case). Saturation
    /// keeps size guards sound: an astronomically large box reports
    /// "huge", never a small wrapped value.
    pub fn len(&self) -> u64 {
        self.checked_len().unwrap_or(u64::MAX)
    }

    /// Total number of schedules in the box, or `None` if the product
    /// overflows `u64`.
    pub fn checked_len(&self) -> Option<u64> {
        self.max_counts
            .iter()
            .try_fold(1u64, |acc, &m| acc.checked_mul(u64::from(m)))
    }

    /// `false` — a valid space is never empty (maxima are ≥ 1).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns `true` if the schedule lies inside the box.
    pub fn contains(&self, schedule: &Schedule) -> bool {
        schedule.app_count() == self.app_count()
            && schedule
                .counts()
                .iter()
                .zip(&self.max_counts)
                .all(|(&m, &max)| m >= 1 && m <= max)
    }

    /// The schedule at position `rank` of the lexicographic enumeration
    /// (the inverse of the enumeration order: `unrank(k)` equals the
    /// `k`-th element yielded by [`ScheduleSpace::iter`]). Returns
    /// `None` when `rank >= len()`.
    ///
    /// Mixed-radix decode with the **last** dimension least significant,
    /// matching the odometer order of [`ScheduleSpace::iter`].
    pub fn unrank(&self, rank: u64) -> Option<Schedule> {
        let mut schedule =
            Schedule::round_robin(self.app_count()).expect("a space has at least one application");
        schedule
            .seek_in_box(&self.max_counts, rank)
            .then_some(schedule)
    }

    /// The position of `schedule` in the lexicographic enumeration — the
    /// verified inverse of [`ScheduleSpace::unrank`]: `rank(unrank(k)) ==
    /// Some(k)` for every `k < len()`. Returns `None` when the schedule
    /// lies outside the box, or when the box is so large that the rank
    /// does not fit in `u64` (only possible when
    /// [`ScheduleSpace::checked_len`] is `None`).
    ///
    /// Ranks are what digests, stores and report merges record instead
    /// of schedules: a rank plus the shared space identifies a schedule
    /// exactly, in a form that is cheap to store and trivially ordered.
    pub fn rank(&self, schedule: &Schedule) -> Option<u64> {
        if !self.contains(schedule) {
            return None;
        }
        let mut r: u64 = 0;
        for (&m, &max) in schedule.counts().iter().zip(&self.max_counts) {
            r = r
                .checked_mul(u64::from(max))?
                .checked_add(u64::from(m - 1))?;
        }
        Some(r)
    }

    /// Iterates over every schedule in the box, in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = Schedule> + '_ {
        self.iter_from(0)
    }

    /// Iterates from the schedule at `rank` (inclusive) to the end of the
    /// box, in lexicographic order; empty when `rank >= len()`. This is
    /// `iter().skip(rank)` at O(n) cost, the primitive behind a sweep's
    /// rank-block claims and resumable sweeps.
    pub fn iter_from(&self, rank: u64) -> impl Iterator<Item = Schedule> + '_ {
        let mut cursor = self.unrank(rank);
        std::iter::from_fn(move || {
            let current = cursor.as_mut()?;
            let item = current.clone();
            if !current.advance_in_box(&self.max_counts) {
                cursor = None; // that was the last point of the box
            }
            Some(item)
        })
    }

    /// Folds the ranks `[start, end)` (`end` clamped to the box) in one
    /// parallel region and returns the per-lane states.
    ///
    /// Up to `thread_budget()` lanes each start from `init()` and one
    /// schedule cursor, then repeatedly claim the next block of `grain`
    /// consecutive ranks from a shared counter: the cursor is re-seeked
    /// to the block's first rank and advanced in place through the
    /// block, calling `visit` on every schedule. Nothing is allocated per
    /// rank — `visit` clones the schedule only if it keeps it. Blocks are
    /// claimed in increasing rank order, so each lane visits its ranks
    /// in enumeration order; which lane gets which block depends on
    /// timing, so callers reduce the states with an operation that does
    /// not care (a max, or a merge that orders by rank).
    pub(crate) fn fold_rank_blocks<S: Send>(
        &self,
        start: u64,
        end: u64,
        grain: usize,
        init: impl Fn() -> S + Sync,
        visit: impl Fn(&mut S, &Schedule) + Sync,
    ) -> Vec<S> {
        let end = end.min(self.len());
        let grain = u64::try_from(grain.max(1)).unwrap_or(u64::MAX);
        let blocks = end.saturating_sub(start).div_ceil(grain);
        let lanes = cacs_par::thread_budget().min(usize::try_from(blocks).unwrap_or(usize::MAX));
        // Block indices in increasing order. Relaxed: the counter
        // publishes no data; the lane states come back through `par_map`.
        let next_block = AtomicU64::new(0);
        cacs_par::par_map(&vec![(); lanes], |_, ()| {
            let mut state = init();
            // The cursor is written at every rank. Over-allocating its
            // buffer keeps two lanes' cursors off a shared cache line,
            // which small heap blocks handed out back to back would
            // otherwise share.
            let mut counts = Vec::with_capacity(self.app_count().max(Self::CURSOR_CAPACITY));
            counts.resize(self.app_count(), 1);
            let mut cursor = Schedule::new(counts).expect("a space has at least one application");
            loop {
                let block = next_block.fetch_add(1, Ordering::Relaxed);
                // Checked: a range ending near u64::MAX must stop, not wrap.
                let Some(lo) = block
                    .checked_mul(grain)
                    .and_then(|offset| start.checked_add(offset))
                    .filter(|&lo| lo < end)
                else {
                    return state;
                };
                let in_box = cursor.seek_in_box(&self.max_counts, lo);
                debug_assert!(in_box, "claimed rank {lo} lies in the box");
                for _ in 0..end.saturating_sub(lo).min(grain) {
                    visit(&mut state, &cursor);
                    cursor.advance_in_box(&self.max_counts);
                }
            }
        })
    }

    /// Clamps a schedule into the box (used by random restarts).
    pub fn clamp(&self, schedule: &Schedule) -> Schedule {
        let counts = schedule
            .counts()
            .iter()
            .zip(&self.max_counts)
            .map(|(&m, &max)| m.clamp(1, max))
            .collect();
        Schedule::new(counts).expect("clamped counts are positive")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIMIT: u64 = ScheduleSpace::STREAM_SCAN_LIMIT;

    #[test]
    fn construction() {
        assert!(ScheduleSpace::new(vec![]).is_err());
        assert!(ScheduleSpace::new(vec![2, 0]).is_err());
        let s = ScheduleSpace::new(vec![2, 3]).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.app_count(), 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn len_saturates_instead_of_wrapping() {
        // 2^32 × 2^32 = 2^64 overflows u64; the unchecked product would
        // wrap to 0 and defeat every "space too large" guard.
        let huge = ScheduleSpace::new(vec![u32::MAX, u32::MAX, u32::MAX]).unwrap();
        assert_eq!(huge.checked_len(), None);
        assert_eq!(huge.len(), u64::MAX);

        // Just below the edge: (2^32 - 1)^2 < 2^64 still computes exactly.
        let edge = ScheduleSpace::new(vec![u32::MAX, u32::MAX]).unwrap();
        let exact = u64::from(u32::MAX) * u64::from(u32::MAX);
        assert_eq!(edge.checked_len(), Some(exact));
        assert_eq!(edge.len(), exact);
    }

    #[test]
    fn contains() {
        let s = ScheduleSpace::new(vec![2, 3]).unwrap();
        assert!(s.contains(&Schedule::new(vec![1, 1]).unwrap()));
        assert!(s.contains(&Schedule::new(vec![2, 3]).unwrap()));
        assert!(!s.contains(&Schedule::new(vec![3, 1]).unwrap()));
        assert!(!s.contains(&Schedule::new(vec![1]).unwrap()));
    }

    #[test]
    fn iteration_covers_all_unique() {
        let s = ScheduleSpace::new(vec![2, 3]).unwrap();
        let all: Vec<Schedule> = s.iter().collect();
        assert_eq!(all.len(), 6);
        let mut seen = std::collections::HashSet::new();
        for sch in &all {
            assert!(s.contains(sch));
            assert!(seen.insert(sch.counts().to_vec()), "duplicate {sch}");
        }
    }

    #[test]
    fn iteration_single_dim() {
        let s = ScheduleSpace::new(vec![4]).unwrap();
        let all: Vec<u32> = s.iter().map(|x| x.counts()[0]).collect();
        assert_eq!(all, vec![1, 2, 3, 4]);
    }

    #[test]
    fn unrank_matches_enumeration_order() {
        let s = ScheduleSpace::new(vec![3, 1, 4]).unwrap();
        for (rank, schedule) in s.iter().enumerate() {
            assert_eq!(s.unrank(rank as u64).unwrap(), schedule, "rank {rank}");
        }
        assert_eq!(s.unrank(s.len()), None);
        assert_eq!(s.unrank(u64::MAX), None);
    }

    #[test]
    fn rank_is_the_inverse_of_unrank() {
        let s = ScheduleSpace::new(vec![3, 1, 4]).unwrap();
        for k in 0..s.len() {
            let schedule = s.unrank(k).unwrap();
            assert_eq!(s.rank(&schedule), Some(k), "unrank({k}) = {schedule}");
        }
        // Outside the box (wrong count, wrong dimensionality).
        assert_eq!(s.rank(&Schedule::new(vec![4, 1, 1]).unwrap()), None);
        assert_eq!(s.rank(&Schedule::new(vec![1, 1]).unwrap()), None);
    }

    #[test]
    fn rank_handles_overflowing_boxes() {
        // The box size overflows u64, but small-rank corners still encode.
        let huge = ScheduleSpace::new(vec![u32::MAX, u32::MAX, u32::MAX]).unwrap();
        let first = Schedule::new(vec![1, 1, 1]).unwrap();
        assert_eq!(huge.rank(&first), Some(0));
        // The last corner's rank exceeds u64: rank reports None instead of
        // a silently wrapped value.
        let last = Schedule::new(vec![u32::MAX, u32::MAX, u32::MAX]).unwrap();
        assert_eq!(huge.rank(&last), None);
    }

    #[test]
    fn iter_from_is_suffix_of_iter() {
        let s = ScheduleSpace::new(vec![2, 3, 2]).unwrap();
        let all: Vec<Schedule> = s.iter().collect();
        for rank in 0..=s.len() {
            let suffix: Vec<Schedule> = s.iter_from(rank).collect();
            assert_eq!(suffix, all[rank as usize..], "rank {rank}");
        }
        assert_eq!(s.iter_from(s.len() + 5).count(), 0);
    }

    #[test]
    fn from_feasibility_derives_bounds() {
        // Feasible iff sum of counts <= 6: with others at 1, dim max = 4
        // for 3 apps.
        let space = ScheduleSpace::from_feasibility(3, 10, |s| s.counts().iter().sum::<u32>() <= 6)
            .unwrap();
        assert_eq!(space.max_counts(), &[4, 4, 4]);
    }

    #[test]
    fn from_feasibility_scans_past_infeasible_holes() {
        // Regression: feasibility non-monotone along the scanned axis
        // itself — feasible at m ∈ {1, 4} with a hole at {2, 3}. The old
        // early break ("monotone in m_i") stopped at the hole and capped
        // the dimension at 1, silently shrinking the box.
        let pred = |s: &Schedule| {
            let m = s.counts()[0];
            s.counts()[1..].iter().all(|&c| c == 1) && (m == 1 || m == 4)
        };
        let space = ScheduleSpace::from_feasibility(3, 8, pred).unwrap();
        assert_eq!(space.max_counts()[0], 4);
    }

    #[test]
    fn from_feasibility_rejects_impossible_workload() {
        assert!(ScheduleSpace::from_feasibility(2, 5, |_| false).is_err());
        assert!(ScheduleSpace::from_feasibility_scan(2, 5, LIMIT, |_| false).is_err());
    }

    #[test]
    fn scan_finds_non_monotone_corners() {
        // Feasible iff (m1 <= 2) OR (m1 <= 4 AND m2 >= 2): the axis-wise
        // bound (others at 1) caps m1 at 2, the exact scan finds 4.
        let pred = |s: &Schedule| {
            let c = s.counts();
            c[0] <= 2 || (c[0] <= 4 && c[1] >= 2)
        };
        let axis = ScheduleSpace::from_feasibility(2, 8, pred).unwrap();
        assert_eq!(axis.max_counts()[0], 2);
        let scan = ScheduleSpace::from_feasibility_scan(2, 8, LIMIT, pred).unwrap();
        assert_eq!(scan.max_counts()[0], 4);
        assert_eq!(scan.max_counts()[1], 8);
    }

    #[test]
    fn scan_streams_across_chunk_boundaries() {
        // 25^4 = 390,625 points: hundreds of rank blocks. The only
        // feasible corner sits at the very end of the enumeration, so a
        // scan that mishandled block boundaries would miss it.
        let pred = |s: &Schedule| {
            let c = s.counts();
            c == [1, 1, 1, 1] || c == [25, 25, 25, 25]
        };
        let scan = ScheduleSpace::from_feasibility_scan(4, 25, LIMIT, pred).unwrap();
        assert_eq!(scan.max_counts(), &[25, 25, 25, 25]);
    }

    #[test]
    fn scan_rejects_oversized_boxes() {
        assert!(ScheduleSpace::from_feasibility_scan(8, 20, 2_000_000, |_| true).is_err());
        // 40^4 = 2,560,000 exceeds a 2M budget…
        assert!(ScheduleSpace::from_feasibility_scan(4, 40, 2_000_000, |_| true).is_err());
        // …but a raised streaming budget admits it.
        let r = ScheduleSpace::from_feasibility_scan(4, 40, LIMIT, |s| {
            s.counts().iter().all(|&c| c <= 2)
        });
        assert_eq!(r.unwrap().max_counts(), &[2; 4]);
    }

    #[test]
    fn clamp() {
        let s = ScheduleSpace::new(vec![3, 3]).unwrap();
        let big = Schedule::new(vec![9, 2]).unwrap();
        assert_eq!(s.clamp(&big).counts(), &[3, 2]);
    }
}
