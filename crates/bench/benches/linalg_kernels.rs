//! Substrate microbench: the linear-algebra kernels on control-sized
//! matrices (the discretisation and stability checks dominate each
//! objective evaluation).

use cacs_linalg::{
    characteristic_polynomial, expm, expm_with_integral, spectral_radius, EigWorkspace,
    LuDecomposition, Matrix, Polynomial, QrDecomposition,
};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn test_matrix(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |i, j| {
        if i == j {
            -1.0 - i as f64 * 0.3
        } else {
            0.3 * ((i * 7 + j * 3) % 5) as f64 - 0.6
        }
    })
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("linalg_kernels");
    for n in [2usize, 4, 6, 8] {
        let a = test_matrix(n);
        group.bench_with_input(BenchmarkId::new("expm", n), &n, |b, _| {
            b.iter(|| expm(black_box(&a)))
        });
        group.bench_with_input(BenchmarkId::new("expm_with_integral", n), &n, |b, _| {
            b.iter(|| expm_with_integral(black_box(&a), 1e-3))
        });
        group.bench_with_input(BenchmarkId::new("lu_inverse", n), &n, |b, _| {
            b.iter(|| LuDecomposition::new(black_box(&a)).and_then(|lu| lu.inverse()))
        });
        group.bench_with_input(BenchmarkId::new("spectral_radius", n), &n, |b, _| {
            b.iter(|| spectral_radius(black_box(&a)))
        });
        group.bench_with_input(BenchmarkId::new("char_poly", n), &n, |b, _| {
            b.iter(|| characteristic_polynomial(black_box(&a)))
        });
        group.bench_with_input(BenchmarkId::new("qr", n), &n, |b, _| {
            b.iter(|| QrDecomposition::new(black_box(&a)))
        });
    }
    group.bench_function("polynomial_roots_deg8", |b| {
        let p = Polynomial::new(vec![0.5, -1.2, 2.0, 0.3, -0.7, 1.1, -0.2, 0.05, 1.0]);
        b.iter(|| black_box(&p).roots())
    });
    // The PSO objective's stability test at the lifted shapes (2l × 2l
    // period maps of the l = 2, 3 plants): exact ρ on a reused workspace
    // (compare `spectral_radius`, same matrix), against the Schur–Cohn
    // certificate on the same coefficients.
    for n in [4usize, 6] {
        let a = test_matrix(n);
        let mut ws = EigWorkspace::new();
        group.bench_with_input(BenchmarkId::new("spectral_radius_ws", n), &n, |b, _| {
            b.iter(|| ws.spectral_radius(black_box(&a)))
        });
        let rho = ws.spectral_radius(&a).unwrap_or(1.0);
        group.bench_with_input(BenchmarkId::new("schur_cohn", n), &n, |b, _| {
            b.iter(|| ws.roots_within(black_box(rho * 1.01)))
        });
        group.bench_with_input(BenchmarkId::new("char_poly_ws", n), &n, |b, _| {
            b.iter(|| ws.characteristic_polynomial(black_box(&a)).map(|c| c.len()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
