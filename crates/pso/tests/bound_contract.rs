//! The bound contract of `Pso::minimize`: an objective that answers
//! "≥ bound" with any value at or above the bound, instead of its exact
//! value, must leave the whole run bit-identical.

use cacs_pso::{Bounds, Pso, PsoConfig, PsoResult};

/// Shifted Rastrigin with a NaN hole, so the test covers multimodal
/// landscapes, stalls and the NaN-as-`+∞` rule.
fn landscape(x: &[f64]) -> f64 {
    if x[0] > 4.0 {
        return f64::NAN;
    }
    x.iter()
        .enumerate()
        .map(|(d, v)| {
            let s = v - 0.3 * d as f64;
            s * s + 2.0 * (1.0 - (2.0 * std::f64::consts::PI * s).cos())
        })
        .sum()
}

fn sanitize(v: f64) -> f64 {
    if v.is_nan() {
        f64::INFINITY
    } else {
        v
    }
}

/// Runs the swarm with an objective that returns `bound`, `bound + 1`
/// or `+∞` (in rotation) whenever the exact value is `≥ bound`. It also
/// mirrors the swarm's personal bests from the exact values and checks
/// that every call receives its particle's current best as the bound,
/// and the initial swarm `+∞`.
fn run_lazy(pso: &Pso, bounds: &Bounds, guesses: &[Vec<f64>]) -> (PsoResult, usize) {
    let n = pso.config().particles;
    let mut best = vec![f64::INFINITY; n];
    let mut calls = 0usize;
    let mut lazy_answers = 0usize;
    let result = pso
        .minimize_with_guesses(bounds, guesses, |x, bound| {
            let exact = sanitize(landscape(x));
            if calls < n {
                assert_eq!(bound, f64::INFINITY, "initial call {calls}");
                best[calls] = exact;
            } else {
                let i = (calls - n) % n;
                assert_eq!(
                    bound.to_bits(),
                    best[i].to_bits(),
                    "call {calls}: particle {i} was not given its personal best"
                );
                if exact < best[i] {
                    best[i] = exact;
                }
            }
            calls += 1;
            if exact >= bound {
                lazy_answers += 1;
                match calls % 3 {
                    0 => bound,
                    1 => bound + 1.0,
                    _ => f64::INFINITY,
                }
            } else {
                exact
            }
        })
        .expect("lazy run");
    assert_eq!(calls, result.evaluations);
    (result, lazy_answers)
}

#[test]
fn lazy_answers_above_the_bound_leave_the_run_bit_identical() {
    let mut lazy_total = 0usize;
    for dim in [1usize, 3, 6] {
        let bounds = Bounds::symmetric(dim, 5.0).expect("bounds");
        let one_guess = [vec![0.25; dim]];
        let two_guesses = [vec![0.25; dim], vec![-1.0; dim]];
        for seed in [1u64, 7, 42] {
            for stall in [None, Some(3)] {
                for guesses in [&[][..], &one_guess[..], &two_guesses[..]] {
                    let mut config = PsoConfig::default().with_budget(12, 40).with_seed(seed);
                    config.stall_iterations = stall;
                    let pso = Pso::new(config);
                    let exact = pso
                        .minimize_with_guesses(&bounds, guesses, |x, _| landscape(x))
                        .expect("exact run");
                    let (lazy, answers) = run_lazy(&pso, &bounds, guesses);
                    let ctx = format!("dim {dim}, seed {seed}, stall {stall:?}, {guesses:?}");
                    assert_eq!(
                        exact.best_value.to_bits(),
                        lazy.best_value.to_bits(),
                        "{ctx}"
                    );
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&exact.best_position),
                        bits(&lazy.best_position),
                        "{ctx}"
                    );
                    assert_eq!(exact.evaluations, lazy.evaluations, "{ctx}");
                    assert_eq!(exact.iterations_run, lazy.iterations_run, "{ctx}");
                    lazy_total += answers;
                }
            }
        }
    }
    // Most iteration calls do not beat their particle's best, so the
    // lazy answers were exercised heavily.
    assert!(lazy_total > 1000, "only {lazy_total} lazy answers");
}

#[test]
fn stalled_runs_stop_at_the_same_iteration() {
    // A plateau objective stalls at once; the lazy answers (all of them
    // ≥ the bound) must not move the stall counter.
    let bounds = Bounds::symmetric(2, 1.0).expect("bounds");
    let mut config = PsoConfig::default().with_budget(6, 200).with_seed(5);
    config.stall_iterations = Some(4);
    let pso = Pso::new(config);
    let exact = pso.minimize(&bounds, |_, _| 2.0).expect("exact");
    let lazy = pso
        .minimize(
            &bounds,
            |_, bound| if 2.0 >= bound { f64::INFINITY } else { 2.0 },
        )
        .expect("lazy");
    assert_eq!(exact, lazy);
    assert!(lazy.iterations_run < 200);
}
