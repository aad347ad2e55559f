//! The PSO objective's fixed-size kernels ([`LiftedKernel`]) against the
//! public Matrix path they replace, bit for bit: period map,
//! characteristic polynomial, both Schur–Cohn certificate answers, the
//! exact spectral radius, feedforward gains (value or error) and the
//! worst-case simulation trace up to its cut. Random plants cover
//! `l ∈ 1..=4` and `m ∈ 1..=6`; random gains include `0`, `-0`, `±∞` and
//! NaN entries, in both the per-task and the shared parameter layout.

use cacs_control::{
    feedforward_gain, simulate_worst_case, ContinuousLti, LiftedKernel, LiftedPlant, Response,
};
use cacs_linalg::{EigWorkspace, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random plants per `(l, m)`.
const PLANTS: usize = 4;
/// Random gain vectors per plant.
const GAIN_SETS: usize = 6;

/// Bit patterns, with every NaN mapped to one: Rust leaves the sign and
/// payload of a NaN result unspecified (an optimiser may swap the
/// operands of a commutative operation), so NaNs compare as a class and
/// every other value bit for bit.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|&x| canon(x)).collect()
}

fn canon(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

/// A value that is exactly zero with probability `p_zero`, otherwise
/// uniform in `±scale`.
fn sparse(rng: &mut StdRng, p_zero: f64, scale: f64) -> f64 {
    if rng.gen::<f64>() < p_zero {
        0.0
    } else {
        rng.gen_range(-scale..scale)
    }
}

/// A random SISO plant of state dimension `l` with some exact-zero
/// input and output entries, and a random cyclic timing of `m` tasks
/// (full-delay, zero-delay and partial-delay intervals).
fn random_lifted(rng: &mut StdRng, l: usize, m: usize) -> LiftedPlant {
    let a = Matrix::from_fn(l, l, |i, j| {
        if i == j {
            rng.gen_range(-80.0..20.0)
        } else {
            sparse(rng, 0.3, 40.0)
        }
    });
    let mut b: Vec<f64> = (0..l).map(|_| sparse(rng, 0.3, 200.0)).collect();
    b[l - 1] = rng.gen_range(1.0..300.0);
    let mut c: Vec<f64> = (0..l).map(|_| sparse(rng, 0.4, 2.0)).collect();
    c[0] = 1.0;
    let plant = ContinuousLti::new(a, Matrix::column(&b), Matrix::row(&c)).expect("valid plant");
    let periods: Vec<f64> = (0..m).map(|_| rng.gen_range(2e-4..3e-3)).collect();
    let delays: Vec<f64> = periods
        .iter()
        .map(|&h| match rng.gen_range(0..3u32) {
            0 => h,
            1 => 0.0,
            _ => h * rng.gen_range(0.1..0.9),
        })
        .collect();
    LiftedPlant::new(plant, &periods, &delays).expect("valid timing")
}

/// `n` gain parameters, log-uniform in scale, with special entries
/// (`0`, `-0`, `±∞`, NaN) in some of the vectors.
fn random_params(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let scale = 10f64.powf(rng.gen_range(-2.0..2.0));
    let p_special = if rng.gen::<f64>() < 0.5 { 0.0 } else { 0.15 };
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < p_special {
                [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..5usize)]
            } else {
                rng.gen_range(-scale..scale)
            }
        })
        .collect()
}

/// The Matrix gain rows the kernel reads from `params`.
fn gain_rows(params: &[f64], m: usize, l: usize) -> Vec<Matrix> {
    (0..m)
        .map(|j| match params.len() == m * l {
            true => Matrix::row(&params[j * l..(j + 1) * l]),
            false => Matrix::row(params),
        })
        .collect()
}

fn empty_response() -> Response {
    Response {
        times: Vec::new(),
        outputs: Vec::new(),
        inputs: Vec::new(),
        reference: 0.0,
    }
}

/// Every kernel against its Matrix reference for one plant and one
/// parameter vector.
fn check_kernel<const L: usize, const N: usize>(
    rng: &mut StdRng,
    lifted: &LiftedPlant,
    kernel: &LiftedKernel<L, N>,
    params: &[f64],
) {
    let m = lifted.tasks();
    let what = format!("l = {L}, m = {m}, params {params:?}");
    let gains = gain_rows(params, m, L);

    // Period map.
    let phi = kernel.period_map(params);
    let reference = lifted.period_map(&gains).unwrap();
    let flat: Vec<f64> = phi.iter().flatten().copied().collect();
    assert_eq!(bits(&flat), bits(reference.as_slice()), "Φ: {what}");

    // Characteristic polynomial.
    let poly = LiftedKernel::<L, N>::characteristic_polynomial(&phi);
    let mut eig = EigWorkspace::new();
    let coeffs = eig.characteristic_polynomial(&reference).unwrap().to_vec();
    assert_eq!(bits(poly.coeffs()), bits(&coeffs), "coefficients: {what}");

    // Exact ρ, then both certificates on either side of it and at the
    // objective's own radii.
    let rho = eig.root_radius();
    let kernel_rho = EigWorkspace::new().root_radius_of(poly.coeffs());
    match (&rho, &kernel_rho) {
        (Ok(a), Ok(b)) => assert_eq!(canon(*a), canon(*b), "ρ: {what}"),
        _ => assert_eq!(rho.is_err(), kernel_rho.is_err(), "ρ error: {what}"),
    }
    assert_eq!(
        rho.as_ref().ok().map(|r| canon(*r)),
        lifted.closed_loop_spectral_radius(&gains).ok().map(canon),
        "ρ against the spectral-radius path: {what}"
    );
    let near = rho.as_ref().map_or(1.0, |r| r.max(1e-3));
    for radius in [
        0.9999 * (1.0 - 1e-3),
        0.9999 * (1.0 + 1e-3),
        near * 0.98,
        near * 1.02,
        1e6,
    ] {
        assert_eq!(
            poly.roots_within(radius),
            eig.roots_within(radius),
            "certificate at {radius}: {what}"
        );
    }

    // Feedforward gains, value or error.
    let c = lifted.plant().c();
    let mut feedforwards = Vec::with_capacity(m);
    for (j, ((iv, b_total), gain)) in lifted
        .intervals()
        .iter()
        .zip(lifted.b_totals())
        .zip(&gains)
        .enumerate()
    {
        let expect = feedforward_gain(&iv.a_d, b_total, c, gain);
        let got = kernel.feedforward(params, j);
        match (&expect, &got) {
            (Ok(e), Ok(g)) => assert_eq!(canon(*e), canon(*g), "F_{j}: {what}"),
            _ => assert_eq!(expect, got, "F_{j}: {what}"),
        }
        // Failed gains still leave a vector to simulate with.
        feedforwards.push(got.unwrap_or_else(|_| rng.gen_range(-2.0..2.0)));
    }

    // Worst-case simulation: the whole trace, then a prefix cut by the
    // observer after a random number of samples.
    let (reference_r, horizon) = (rng.gen_range(0.1..2.0), rng.gen_range(0.005..0.04));
    let full = simulate_worst_case(lifted, &gains, &feedforwards, reference_r, horizon).unwrap();
    let mut out = empty_response();
    let covered = kernel
        .simulate(
            params,
            &feedforwards,
            reference_r,
            horizon,
            &mut out,
            |_, _, _| true,
        )
        .unwrap();
    assert!(covered, "{what}");
    assert_eq!(bits(&out.times), bits(&full.times), "times: {what}");
    assert_eq!(bits(&out.outputs), bits(&full.outputs), "outputs: {what}");
    assert_eq!(bits(&out.inputs), bits(&full.inputs), "inputs: {what}");
    assert_eq!(canon(out.reference), canon(full.reference));

    let stop_after = rng.gen_range(1..full.times.len() + 2);
    let mut seen = Vec::new();
    let covered = kernel
        .simulate(
            params,
            &feedforwards,
            reference_r,
            horizon,
            &mut out,
            |t_next, y, u| {
                seen.push((t_next, y, u));
                seen.len() < stop_after
            },
        )
        .unwrap();
    let n = out.times.len();
    match covered {
        true => assert_eq!(n, full.times.len(), "uncut: {what}"),
        false => assert_eq!(n, stop_after, "cut: {what}"),
    }
    assert_eq!(
        bits(&out.times),
        bits(&full.times[..n]),
        "cut times: {what}"
    );
    assert_eq!(
        bits(&out.outputs),
        bits(&full.outputs[..n]),
        "cut outputs: {what}"
    );
    assert_eq!(
        bits(&out.inputs),
        bits(&full.inputs[..n]),
        "cut inputs: {what}"
    );
    // The observer saw each recorded sample and the next sampling instant.
    for (k, &(t_next, y, u)) in seen.iter().enumerate() {
        assert_eq!(canon(y), canon(full.outputs[k]), "{what}");
        assert_eq!(canon(u), canon(full.inputs[k]), "{what}");
        if let Some(t) = full.times.get(k + 1) {
            assert_eq!(canon(t_next), canon(*t), "{what}");
        }
    }
}

fn check_dimension<const L: usize, const N: usize>(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for m in 1..=6 {
        for _ in 0..PLANTS {
            let lifted = random_lifted(&mut rng, L, m);
            let kernel = LiftedKernel::<L, N>::new(&lifted).unwrap();
            assert_eq!(kernel.tasks(), m);
            for set in 0..GAIN_SETS {
                // The shared layout (one row for every task) as well.
                let width = if m > 1 && set % 3 == 0 { L } else { m * L };
                let params = random_params(&mut rng, width);
                check_kernel(&mut rng, &lifted, &kernel, &params);
            }
        }
    }
}

#[test]
fn kernels_match_the_matrix_path_for_one_state() {
    check_dimension::<1, 2>(0x6b31);
}

#[test]
fn kernels_match_the_matrix_path_for_two_states() {
    check_dimension::<2, 4>(0x6b32);
}

#[test]
fn kernels_match_the_matrix_path_for_three_states() {
    check_dimension::<3, 6>(0x6b33);
}

#[test]
fn kernels_match_the_matrix_path_for_four_states() {
    check_dimension::<4, 8>(0x6b34);
}

#[test]
fn a_kernel_refuses_a_plant_of_another_dimension() {
    let mut rng = StdRng::seed_from_u64(7);
    let lifted = random_lifted(&mut rng, 1, 2);
    assert!(LiftedKernel::<1, 2>::new(&lifted).is_ok());
    assert!(LiftedKernel::<2, 4>::new(&lifted).is_err());
}
