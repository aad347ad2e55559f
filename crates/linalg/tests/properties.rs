//! Property-based tests for algebraic invariants of the linalg kernels.

use cacs_linalg::{
    characteristic_polynomial, expm, expm_with_integral, spectral_radius, BitKey, Complex,
    EigWorkspace, LuDecomposition, Matrix, Polynomial, QrDecomposition,
};
use proptest::prelude::*;

/// Strategy: a well-scaled n×n matrix with entries in [-3, 3].
fn square_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f64..3.0, n * n)
        .prop_map(move |data| Matrix::from_vec(n, n, data).expect("sized data"))
}

/// Strategy: a diagonally dominant (hence invertible) n×n matrix.
fn invertible_matrix(n: usize) -> impl Strategy<Value = Matrix> {
    square_matrix(n).prop_map(move |m| {
        let mut out = m;
        for i in 0..n {
            let row_sum: f64 = (0..n)
                .filter(|&j| j != i)
                .map(|j| out.get(i, j).abs())
                .sum();
            let sign = if out.get(i, i) >= 0.0 { 1.0 } else { -1.0 };
            out.set(i, i, sign * (row_sum + 1.0));
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative(a in square_matrix(3), b in square_matrix(3), c in square_matrix(3)) {
        let ab_c = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let a_bc = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(ab_c.approx_eq(&a_bc, 1e-9));
    }

    #[test]
    fn transpose_reverses_products(a in square_matrix(3), b in square_matrix(3)) {
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    #[test]
    fn addition_commutes(a in square_matrix(4), b in square_matrix(4)) {
        let lhs = a.add_matrix(&b).unwrap();
        let rhs = b.add_matrix(&a).unwrap();
        prop_assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn lu_solve_reconstructs_rhs(a in invertible_matrix(4), bv in prop::collection::vec(-5.0f64..5.0, 4)) {
        let b = Matrix::column(&bv);
        let lu = LuDecomposition::new(&a).unwrap();
        let x = lu.solve(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        prop_assert!(back.approx_eq(&b, 1e-7));
    }

    #[test]
    fn inverse_round_trip(a in invertible_matrix(3)) {
        let inv = LuDecomposition::new(&a).unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-7));
    }

    #[test]
    fn determinant_of_product_is_product_of_determinants(
        a in invertible_matrix(3),
        b in invertible_matrix(3),
    ) {
        let da = LuDecomposition::new(&a).unwrap().determinant();
        let db = LuDecomposition::new(&b).unwrap().determinant();
        let dab = LuDecomposition::new(&a.matmul(&b).unwrap()).unwrap().determinant();
        let scale = dab.abs().max(1.0);
        prop_assert!((dab - da * db).abs() < 1e-6 * scale);
    }

    #[test]
    fn qr_reconstructs(a in square_matrix(4)) {
        let qr = QrDecomposition::new(&a).unwrap();
        let back = qr.q().matmul(qr.r()).unwrap();
        prop_assert!(back.approx_eq(&a, 1e-9));
        // Orthogonality of Q.
        let qtq = qr.q().transpose().matmul(qr.q()).unwrap();
        prop_assert!(qtq.approx_eq(&Matrix::identity(4), 1e-10));
    }

    #[test]
    fn expm_of_negated_matrix_is_inverse(a in square_matrix(3)) {
        let e = expm(&a).unwrap();
        let e_neg = expm(&a.scale(-1.0)).unwrap();
        let prod = e.matmul(&e_neg).unwrap();
        prop_assert!(prod.approx_eq(&Matrix::identity(3), 1e-7 * e.max_abs().max(1.0)));
    }

    #[test]
    fn expm_integral_derivative_consistency(a in square_matrix(2), t in 0.01f64..1.0) {
        // d/dt Ψ(t) = e^{A t}: check with a central difference.
        let dt = 1e-5;
        let (_, psi_plus) = expm_with_integral(&a, t + dt).unwrap();
        let (_, psi_minus) = expm_with_integral(&a, t - dt).unwrap();
        let (phi, _) = expm_with_integral(&a, t).unwrap();
        let numeric = psi_plus.sub_matrix(&psi_minus).unwrap().scale(1.0 / (2.0 * dt));
        prop_assert!(numeric.approx_eq(&phi, 1e-4 * phi.max_abs().max(1.0)));
    }

    #[test]
    fn char_poly_evaluated_at_eigenvalue_is_zero(a in square_matrix(3)) {
        let p = characteristic_polynomial(&a).unwrap();
        if let Ok(eigs) = p.roots() {
            for e in eigs {
                let v = p.eval(e).abs();
                // Scale tolerance by coefficient magnitude.
                let scale: f64 = p.coeffs().iter().map(|c| c.abs()).sum::<f64>().max(1.0);
                prop_assert!(v < 1e-6 * scale, "p(eig) = {v}");
            }
        }
    }

    // Both agreement tests scale their input by a log-uniform factor up
    // to 1e6, so they cover every radius a caller may certify at (the
    // PSO objective goes up to its score cap, ρ = 1e6).
    #[test]
    fn schur_cohn_agrees_with_root_finder_away_from_the_band(
        real in prop::collection::vec(-1.5f64..1.5, 0..4),
        pairs in prop::collection::vec((0.0f64..1.5, 0.05f64..3.1), 0..3),
        unit_radius in 0.2f64..1.6,
        log_scale in 0.0f64..1e6f64.ln(),
    ) {
        let scale = log_scale.exp();
        let radius = unit_radius * scale;
        let mut roots: Vec<Complex> =
            real.iter().map(|&r| Complex::from_real(r * scale)).collect();
        for &(r, theta) in &pairs {
            roots.push(Complex::from_polar(r * scale, theta));
            roots.push(Complex::from_polar(r * scale, -theta));
        }
        prop_assume!(!roots.is_empty());
        let p = Polynomial::from_roots(&roots);
        if let Ok(found) = p.roots() {
            let rho = found.iter().map(|z| z.abs()).fold(0.0, f64::max);
            prop_assume!((rho / radius - 1.0).abs() > 1e-3);
            prop_assert_eq!(p.roots_within(radius), rho < radius, "rho {}", rho);
        }
    }

    #[test]
    fn workspace_stability_test_agrees_with_spectral_radius(
        a in square_matrix(5),
        unit_radius in 0.5f64..8.0,
        log_scale in 0.0f64..1e6f64.ln(),
    ) {
        let scale = log_scale.exp();
        let (a, radius) = (a.scale(scale), unit_radius * scale);
        let mut ws = EigWorkspace::new();
        let coeffs = ws.characteristic_polynomial(&a).unwrap().to_vec();
        prop_assert_eq!(&coeffs, characteristic_polynomial(&a).unwrap().coeffs());
        if let Ok(rho) = spectral_radius(&a) {
            prop_assert_eq!(ws.root_radius().unwrap().to_bits(), rho.to_bits());
            prop_assume!((rho / radius - 1.0).abs() > 1e-3);
            prop_assert_eq!(ws.roots_within(radius), rho < radius, "rho {}", rho);
        }
    }

    #[test]
    fn spectral_radius_bounded_by_inf_norm(a in square_matrix(4)) {
        if let Ok(rho) = spectral_radius(&a) {
            prop_assert!(rho <= a.norm_inf() + 1e-7);
        }
    }

    #[test]
    fn poly_from_roots_round_trip(roots in prop::collection::vec(-2.0f64..2.0, 1..5)) {
        let complex_roots: Vec<Complex> = roots.iter().map(|&r| Complex::from_real(r)).collect();
        let p = Polynomial::from_roots(&complex_roots);
        for &r in &roots {
            // A root of multiplicity k may have |p(r)| up to ~eps^(1/k)
            // sensitivity; evaluate directly instead of re-finding roots.
            prop_assert!(p.eval_real(r).abs() < 1e-8);
        }
    }

    #[test]
    fn poly_mul_degree_adds(c1 in prop::collection::vec(-2.0f64..2.0, 2..5),
                            c2 in prop::collection::vec(-2.0f64..2.0, 2..5)) {
        let p = Polynomial::new(c1);
        let q = Polynomial::new(c2);
        prop_assume!(!p.is_zero() && !q.is_zero());
        let prod = p.mul(&q);
        prop_assert_eq!(prod.degree(), p.degree() + q.degree());
        // Evaluation homomorphism.
        let x = 0.7;
        prop_assert!((prod.eval_real(x) - p.eval_real(x) * q.eval_real(x)).abs() < 1e-9);
    }

    #[test]
    fn matrix_powi_matches_eigenvalue_powers(n in 1u32..6) {
        // Diagonalisable test matrix with known spectrum.
        let a = Matrix::from_rows(&[&[0.5, 0.0], &[0.0, -0.25]]).unwrap();
        let p = a.powi(n).unwrap();
        prop_assert!((p.get(0, 0) - 0.5f64.powi(n as i32)).abs() < 1e-12);
        prop_assert!((p.get(1, 1) - (-0.25f64).powi(n as i32)).abs() < 1e-12);
    }
}

/// Strategy: an `f64` bit pattern biased toward the classes float `==`
/// gets wrong (signed zeros, NaN payloads, infinities) plus uniform
/// random patterns.
fn f64_bits() -> impl Strategy<Value = u64> {
    (0u64..8, 0u64..u64::MAX).prop_map(|(class, raw)| match class {
        0 => 0.0f64.to_bits(),
        1 => (-0.0f64).to_bits(),
        2 => f64::NAN.to_bits(),
        3 => f64::NAN.to_bits() ^ 1, // distinct NaN payload
        4 => f64::INFINITY.to_bits(),
        5 => f64::NEG_INFINITY.to_bits(),
        _ => raw,
    })
}

// Bit-pattern cache keys: two keys are equal iff every pushed word is
// bit-identical — the property the whole EvalCtx caching story rests on.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bitkey_equality_is_bit_pattern_equality(a in f64_bits(), b in f64_bits()) {
        let mut ka = BitKey::new();
        ka.push_f64(f64::from_bits(a));
        let mut kb = BitKey::new();
        kb.push_f64(f64::from_bits(b));
        // -0.0 ≠ 0.0 as keys, NaN payloads distinguish, and every key
        // is self-equal (even NaN, which float == denies).
        prop_assert_eq!(ka == kb, a == b);
        let mut again = BitKey::new();
        again.push_f64(f64::from_bits(a));
        prop_assert_eq!(ka, again);
    }

    #[test]
    fn bitkey_map_lookups_always_find_their_entry(bits in f64_bits(),
                                                  tail in prop::collection::vec(0u64..u64::MAX, 0..4)) {
        let mut key = BitKey::new();
        key.push_f64(f64::from_bits(bits));
        for &w in &tail {
            key.push_u64(w);
        }
        let mut map = std::collections::HashMap::new();
        map.insert(key.clone(), 42u8);
        prop_assert_eq!(map.get(&key), Some(&42u8));
    }
}
