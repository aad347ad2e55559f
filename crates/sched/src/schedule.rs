//! Periodic and interleaved schedule types.

use crate::{Result, SchedError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One task slot in the flattened per-period task sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSlot {
    /// Index of the application this task belongs to.
    pub app: usize,
    /// `true` if the task benefits from a warm instruction cache (the
    /// cyclically preceding task belongs to the same application).
    pub warm: bool,
}

/// The flattened task order of one schedule period.
///
/// Warmness follows the paper's cache model: a task is warm exactly when
/// the task executed immediately before it (wrapping around the period)
/// belongs to the same application; otherwise the cache contents are
/// useless to it (Section II-B).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSequence {
    slots: Vec<TaskSlot>,
    app_count: usize,
}

impl TaskSequence {
    /// Builds a sequence from the per-period application order, deriving
    /// warmness from cyclic adjacency.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSchedule`] if `order` is empty or
    /// skips an application index (each app in `0..app_count` must occur).
    pub fn from_app_order(order: &[usize], app_count: usize) -> Result<Self> {
        if order.is_empty() {
            return Err(SchedError::InvalidSchedule {
                reason: "task sequence must not be empty".into(),
            });
        }
        for i in 0..app_count {
            if !order.contains(&i) {
                return Err(SchedError::InvalidSchedule {
                    reason: format!("application {i} never executes"),
                });
            }
        }
        if let Some(&bad) = order.iter().find(|&&a| a >= app_count) {
            return Err(SchedError::InvalidSchedule {
                reason: format!("application index {bad} out of range ({app_count} apps)"),
            });
        }
        let n = order.len();
        let slots = (0..n)
            .map(|t| TaskSlot {
                app: order[t],
                warm: order[t] == order[(t + n - 1) % n],
            })
            .collect();
        Ok(TaskSequence { slots, app_count })
    }

    /// The task slots in execution order.
    pub fn slots(&self) -> &[TaskSlot] {
        &self.slots
    }

    /// Number of distinct applications.
    pub fn app_count(&self) -> usize {
        self.app_count
    }

    /// Number of tasks of application `app` per period.
    pub fn tasks_of(&self, app: usize) -> usize {
        self.slots.iter().filter(|s| s.app == app).count()
    }
}

/// A periodic schedule `(m1, m2, …, mn)`: application `C_i` executes `m_i`
/// consecutive tasks per period, in index order (paper Section II).
///
/// # Example
///
/// ```
/// use cacs_sched::Schedule;
///
/// # fn main() -> Result<(), cacs_sched::SchedError> {
/// let s = Schedule::new(vec![3, 2, 3])?;
/// assert_eq!(s.to_string(), "(3, 2, 3)");
/// assert_eq!(s.total_tasks(), 8);
/// assert_eq!(Schedule::round_robin(3)?, Schedule::new(vec![1, 1, 1])?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Schedule {
    counts: Vec<u32>,
}

impl Schedule {
    /// Creates a schedule from per-application consecutive task counts.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSchedule`] if `counts` is empty or any
    /// count is zero.
    pub fn new(counts: Vec<u32>) -> Result<Self> {
        if counts.is_empty() {
            return Err(SchedError::InvalidSchedule {
                reason: "schedule must cover at least one application".into(),
            });
        }
        if counts.contains(&0) {
            return Err(SchedError::InvalidSchedule {
                reason: "every application must execute at least once per period".into(),
            });
        }
        Ok(Schedule { counts })
    }

    /// The conventional cache-oblivious round-robin schedule `(1, 1, …, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSchedule`] if `apps` is zero.
    pub fn round_robin(apps: usize) -> Result<Self> {
        Schedule::new(vec![1; apps])
    }

    /// Per-application consecutive task counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// `m_i` for application `i`.
    ///
    /// # Panics
    ///
    /// Panics if `app` is out of range.
    pub fn count_of(&self, app: usize) -> u32 {
        self.counts[app]
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.counts.len()
    }

    /// Total tasks per schedule period (`Σ m_i`).
    pub fn total_tasks(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// Returns the schedule with dimension `app` changed by `delta`
    /// (saturating at 1), or `None` if the move is a no-op.
    pub fn step(&self, app: usize, delta: i64) -> Option<Schedule> {
        if app >= self.counts.len() {
            return None;
        }
        let current = i64::from(self.counts[app]);
        let next = (current + delta).max(1);
        if next == current {
            return None;
        }
        let mut counts = self.counts.clone();
        counts[app] = next as u32;
        Some(Schedule { counts })
    }

    /// Moves the schedule, in place, to the point at `rank` of the box
    /// `{1..=max_1} × … × {1..=max_n}` in lexicographic order, last
    /// dimension fastest (a mixed-radix decode into the schedule's own
    /// storage). Returns `false` and leaves the schedule unchanged when
    /// `rank` lies past the end of the box.
    ///
    /// # Panics
    ///
    /// Panics if `max` does not hold one bound per application or a
    /// bound is zero.
    pub fn seek_in_box(&mut self, max: &[u32], rank: u64) -> bool {
        assert_eq!(max.len(), self.counts.len(), "one bound per application");
        assert!(!max.contains(&0), "every bound must be at least 1");
        // `rank / (max_1 · … · max_n)` without forming the product, which
        // may overflow: non-zero exactly when the rank is past the end.
        let mut quotient = rank;
        for &m in max {
            if quotient == 0 {
                break;
            }
            quotient /= u64::from(m);
        }
        if quotient > 0 {
            return false;
        }
        let mut r = rank;
        for (m, &radix) in self.counts.iter_mut().zip(max).rev() {
            let radix = u64::from(radix);
            *m = 1 + u32::try_from(r % radix).expect("a remainder below a u32 radix");
            r /= radix;
        }
        true
    }

    /// Advances the schedule, in place, to the next point of the box
    /// `{1..=max_1} × … × {1..=max_n}` in the order of
    /// [`Schedule::seek_in_box`] (an odometer step). Returns `false`
    /// when the schedule was the box's last point; it then wraps to
    /// `(1, …, 1)`. Every count stays at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `max` does not hold one bound per application.
    pub fn advance_in_box(&mut self, max: &[u32]) -> bool {
        assert_eq!(max.len(), self.counts.len(), "one bound per application");
        for (m, &hi) in self.counts.iter_mut().zip(max).rev() {
            if *m < hi {
                *m += 1;
                return true;
            }
            *m = 1;
        }
        false
    }

    /// Flattens into the per-period task sequence (first task of each run
    /// cold, the rest warm — unless a single application owns the whole
    /// period, in which case even the first is warm by cyclic adjacency).
    pub fn task_sequence(&self) -> TaskSequence {
        let order: Vec<usize> = self
            .counts
            .iter()
            .enumerate()
            .flat_map(|(app, &m)| std::iter::repeat_n(app, m as usize))
            .collect();
        TaskSequence::from_app_order(&order, self.counts.len())
            .expect("constructed order covers all apps")
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, m) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{m}")?;
        }
        write!(f, ")")
    }
}

/// One run of consecutive tasks of a single application inside an
/// interleaved schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Segment {
    /// Application index.
    pub app: usize,
    /// Number of consecutive tasks in this segment.
    pub count: u32,
}

/// An interleaved schedule: an arbitrary sequence of per-application
/// segments, e.g. `(m1(1), m2, m1(2), m3)` from the paper's §VI future
/// work. Periodic schedules are the special case of one segment per
/// application.
///
/// # Example
///
/// ```
/// use cacs_sched::{InterleavedSchedule, Segment};
///
/// # fn main() -> Result<(), cacs_sched::SchedError> {
/// let s = InterleavedSchedule::new(vec![
///     Segment { app: 0, count: 2 },
///     Segment { app: 1, count: 2 },
///     Segment { app: 0, count: 1 },
///     Segment { app: 2, count: 1 },
/// ], 3)?;
/// assert_eq!(s.to_string(), "(0:2, 1:2, 0:1, 2:1)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct InterleavedSchedule {
    segments: Vec<Segment>,
    app_count: usize,
}

impl InterleavedSchedule {
    /// Creates an interleaved schedule over `app_count` applications.
    ///
    /// # Errors
    ///
    /// Returns [`SchedError::InvalidSchedule`] if the segment list is
    /// empty, a count is zero, an app index is out of range, an app never
    /// runs, or two adjacent segments (cyclically) belong to the same
    /// application (they should be merged instead).
    pub fn new(segments: Vec<Segment>, app_count: usize) -> Result<Self> {
        if segments.is_empty() {
            return Err(SchedError::InvalidSchedule {
                reason: "interleaved schedule must have at least one segment".into(),
            });
        }
        if segments.iter().any(|s| s.count == 0) {
            return Err(SchedError::InvalidSchedule {
                reason: "segment counts must be positive".into(),
            });
        }
        if let Some(bad) = segments.iter().find(|s| s.app >= app_count) {
            return Err(SchedError::InvalidSchedule {
                reason: format!(
                    "segment references application {} but only {app_count} exist",
                    bad.app
                ),
            });
        }
        for i in 0..app_count {
            if !segments.iter().any(|s| s.app == i) {
                return Err(SchedError::InvalidSchedule {
                    reason: format!("application {i} never executes"),
                });
            }
        }
        if segments.len() > 1 {
            let n = segments.len();
            for i in 0..n {
                if segments[i].app == segments[(i + 1) % n].app {
                    return Err(SchedError::InvalidSchedule {
                        reason: "adjacent segments of the same application must be merged".into(),
                    });
                }
            }
        }
        Ok(InterleavedSchedule {
            segments,
            app_count,
        })
    }

    /// Converts a periodic schedule into its (single-segment-per-app)
    /// interleaved form.
    pub fn from_periodic(schedule: &Schedule) -> Self {
        InterleavedSchedule {
            segments: schedule
                .counts()
                .iter()
                .enumerate()
                .map(|(app, &count)| Segment { app, count })
                .collect(),
            app_count: schedule.app_count(),
        }
    }

    /// The segment list.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of applications.
    pub fn app_count(&self) -> usize {
        self.app_count
    }

    /// Flattens into the per-period task sequence.
    pub fn task_sequence(&self) -> TaskSequence {
        let order: Vec<usize> = self
            .segments
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.app, s.count as usize))
            .collect();
        TaskSequence::from_app_order(&order, self.app_count)
            .expect("validated segments cover all apps")
    }
}

impl fmt::Display for InterleavedSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, s) in self.segments.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}:{}", s.app, s.count)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_construction() {
        assert!(Schedule::new(vec![]).is_err());
        assert!(Schedule::new(vec![1, 0]).is_err());
        let s = Schedule::new(vec![3, 2, 3]).unwrap();
        assert_eq!(s.count_of(1), 2);
        assert_eq!(s.total_tasks(), 8);
        assert_eq!(s.app_count(), 3);
    }

    #[test]
    fn round_robin() {
        let s = Schedule::round_robin(4).unwrap();
        assert_eq!(s.counts(), &[1, 1, 1, 1]);
        assert!(Schedule::round_robin(0).is_err());
    }

    #[test]
    fn display() {
        assert_eq!(
            Schedule::new(vec![2, 2, 2]).unwrap().to_string(),
            "(2, 2, 2)"
        );
    }

    #[test]
    fn in_place_box_moves_keep_counts_positive() {
        let max = [2, 3];
        let mut s = Schedule::round_robin(2).unwrap();
        let mut seen = vec![s.counts().to_vec()];
        while s.advance_in_box(&max) {
            seen.push(s.counts().to_vec());
        }
        // Wrapped back to the first point after the last one.
        assert_eq!(s.counts(), &[1, 1]);
        assert_eq!(seen.len(), 6);
        for (rank, counts) in seen.iter().enumerate() {
            assert!(s.seek_in_box(&max, rank as u64));
            assert_eq!(s.counts(), &counts[..], "rank {rank}");
        }
        // Past the end: refused, schedule untouched.
        assert!(!s.seek_in_box(&max, 6));
        assert!(!s.seek_in_box(&max, u64::MAX));
        assert_eq!(s.counts(), &[2, 3]);
        // A count above its bound carries like a full digit, back to 1.
        let mut wide = Schedule::new(vec![1, 9]).unwrap();
        assert!(wide.advance_in_box(&max));
        assert_eq!(wide.counts(), &[2, 1]);
    }

    #[test]
    fn step_moves_and_saturates() {
        let s = Schedule::new(vec![2, 1]).unwrap();
        assert_eq!(s.step(0, 1).unwrap().counts(), &[3, 1]);
        assert_eq!(s.step(0, -1).unwrap().counts(), &[1, 1]);
        assert!(s.step(1, -1).is_none()); // already at 1
        assert!(s.step(5, 1).is_none()); // out of range
        assert_eq!(s.step(1, 3).unwrap().counts(), &[2, 4]);
    }

    #[test]
    fn task_sequence_warmness_222() {
        // Paper Figure 2: first task of each pair cold, second warm.
        let s = Schedule::new(vec![2, 2, 2]).unwrap();
        let seq = s.task_sequence();
        let warm: Vec<bool> = seq.slots().iter().map(|t| t.warm).collect();
        assert_eq!(warm, vec![false, true, false, true, false, true]);
        assert_eq!(seq.tasks_of(0), 2);
    }

    #[test]
    fn round_robin_all_cold() {
        let seq = Schedule::round_robin(3).unwrap().task_sequence();
        assert!(seq.slots().iter().all(|t| !t.warm));
    }

    #[test]
    fn single_app_is_always_warm_by_cyclic_adjacency() {
        let seq = Schedule::new(vec![3]).unwrap().task_sequence();
        assert!(seq.slots().iter().all(|t| t.warm));
    }

    #[test]
    fn interleaved_validation() {
        assert!(InterleavedSchedule::new(vec![], 1).is_err());
        assert!(InterleavedSchedule::new(vec![Segment { app: 0, count: 0 }], 1).is_err());
        assert!(InterleavedSchedule::new(vec![Segment { app: 2, count: 1 }], 1).is_err());
        // App 1 never runs.
        assert!(InterleavedSchedule::new(vec![Segment { app: 0, count: 1 }], 2).is_err());
        // Adjacent same-app segments (cyclically).
        assert!(InterleavedSchedule::new(
            vec![
                Segment { app: 0, count: 1 },
                Segment { app: 1, count: 1 },
                Segment { app: 1, count: 2 },
            ],
            2
        )
        .is_err());
        // Wrap-around adjacency: first and last both app 0.
        assert!(InterleavedSchedule::new(
            vec![
                Segment { app: 0, count: 1 },
                Segment { app: 1, count: 1 },
                Segment { app: 0, count: 1 },
            ],
            2
        )
        .is_err());
    }

    #[test]
    fn interleaved_task_sequence() {
        let s = InterleavedSchedule::new(
            vec![
                Segment { app: 0, count: 2 },
                Segment { app: 1, count: 1 },
                Segment { app: 0, count: 1 },
                Segment { app: 2, count: 1 },
            ],
            3,
        )
        .unwrap();
        let seq = s.task_sequence();
        let order: Vec<usize> = seq.slots().iter().map(|t| t.app).collect();
        assert_eq!(order, vec![0, 0, 1, 0, 2]);
        let warm: Vec<bool> = seq.slots().iter().map(|t| t.warm).collect();
        // Only the second task of the first segment is warm.
        assert_eq!(warm, vec![false, true, false, false, false]);
        assert_eq!(seq.tasks_of(0), 3);
    }

    #[test]
    fn from_periodic_round_trips_task_sequence() {
        let p = Schedule::new(vec![3, 2, 3]).unwrap();
        let i = InterleavedSchedule::from_periodic(&p);
        assert_eq!(p.task_sequence(), i.task_sequence());
    }

    #[test]
    fn sequence_rejects_missing_app() {
        assert!(TaskSequence::from_app_order(&[0, 0], 2).is_err());
        assert!(TaskSequence::from_app_order(&[], 0).is_err());
        assert!(TaskSequence::from_app_order(&[0, 3], 2).is_err());
    }
}
