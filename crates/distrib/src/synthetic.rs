//! The synthetic ns-scale sweep objective shared by the benchmarks, the
//! `cacs-opt` binary's `synthetic:` problem mode and the tests.
//!
//! One definition, so every caller evaluates the same objective:
//! perfbench's `synthetic-sweep` workload times it, `perf-baseline`'s
//! constant-memory check sweeps it, and `cacs-opt --problem
//! synthetic:<box>` searches it. For the historical 3-dimensional box it
//! computes exactly the objective whose answers
//! `BENCH_streaming_sweep.json` records.

use cacs_sched::Schedule;
use cacs_search::FnEvaluator;

/// Per-dimension mixing multipliers (cycled for boxes beyond three
/// dimensions). Frozen: changing them invalidates every recorded
/// baseline.
const MULTIPLIERS: [u64; 3] = [2_654_435_761, 40_503, 2_246_822_519];

fn mix(schedule: &Schedule) -> u64 {
    schedule
        .counts()
        .iter()
        .enumerate()
        .fold(0u64, |acc, (i, &c)| {
            acc.wrapping_add(u64::from(c).wrapping_mul(MULTIPLIERS[i % MULTIPLIERS.len()]))
        })
}

/// A synthetic objective with plateaus (exact ties), "deadline
/// violations" (`None` on ~1% of schedules) and an idle filter — every
/// result class and the tie-breaking rule participate, at a few
/// nanoseconds per evaluation.
pub fn surrogate(
    dims: usize,
) -> FnEvaluator<impl Fn(&Schedule) -> Option<f64> + Sync, impl Fn(&Schedule) -> bool + Sync> {
    FnEvaluator::with_idle_check(
        dims,
        |s: &Schedule| {
            let mix = mix(s);
            if mix.is_multiple_of(97) {
                None // "deadline violation"
            } else {
                Some((mix % 4096) as f64 / 4096.0)
            }
        },
        |s: &Schedule| s.counts().iter().sum::<u32>() % 16 != 0,
    )
}

/// Parses a box specification like `"128x128x128"` into per-dimension
/// maxima.
///
/// # Errors
///
/// Returns a description of the malformed field.
pub fn parse_box(spec: &str) -> Result<Vec<u32>, String> {
    let dims: Result<Vec<u32>, String> = spec
        .split('x')
        .map(|f| {
            f.parse::<u32>()
                .ok()
                .filter(|&m| m >= 1)
                .ok_or_else(|| format!("malformed box dimension {f:?} in {spec:?}"))
        })
        .collect();
    let dims = dims?;
    if dims.is_empty() {
        return Err(format!("empty box specification {spec:?}"));
    }
    Ok(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cacs_search::ScheduleEvaluator;

    #[test]
    fn matches_the_recorded_three_dim_objective() {
        // The exact expression perf-baseline historically inlined.
        let reference = |c: &[u32]| -> Option<f64> {
            let mix = u64::from(c[0]) * 2_654_435_761
                + u64::from(c[1]) * 40_503
                + u64::from(c[2]) * 2_246_822_519;
            if mix.is_multiple_of(97) {
                None
            } else {
                Some((mix % 4096) as f64 / 4096.0)
            }
        };
        let eval = surrogate(3);
        for counts in [[1, 1, 1], [128, 128, 128], [37, 5, 90], [1, 22, 12]] {
            let s = Schedule::new(counts.to_vec()).unwrap();
            assert_eq!(
                eval.evaluate(&s).map(f64::to_bits),
                reference(&counts).map(f64::to_bits),
                "{counts:?}"
            );
            assert_eq!(eval.idle_feasible(&s), counts.iter().sum::<u32>() % 16 != 0);
        }
    }

    #[test]
    fn box_spec_round_trip() {
        assert_eq!(parse_box("128x128x128").unwrap(), vec![128, 128, 128]);
        assert_eq!(parse_box("4").unwrap(), vec![4]);
        assert!(parse_box("").is_err());
        assert!(parse_box("4x0x3").is_err());
        assert!(parse_box("4xx3").is_err());
        assert!(parse_box("axb").is_err());
    }
}
