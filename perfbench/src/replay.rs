//! Kernel replay: the PSO objective's kernels timed one by one on the
//! lifted plants a traced run built.
//!
//! The corpus holds, per (application, task count `m`), the lifted plant
//! of the lexicographically first traced schedule with that pair, its
//! converged gains and `UNIFORM_PER_PLANT` seeded uniform gain vectors
//! inside the synthesis gain bound. Candidates are split by the
//! objective's own stability test (`ρ(Φ) < stability_margin`): unstable
//! ones stop after the ρ test, stable ones also pay feedforward and the
//! worst-case simulation, so the two classes are reported apart.

use crate::json::Obj;
use crate::measure::secs_since;
use crate::trace::{AppTrace, EvalTrace};
use crate::workload::{Res, SplitMix};
use cacs_control::{
    feedforward_gain, simulate_worst_case_into, PeriodMapWorkspace, Response, SimWorkspace,
};
use cacs_linalg::{expm_with_integral_ws, spectral_radius, ExpmWorkspace, Matrix};
use std::collections::BTreeMap;
use std::hint::black_box;

const UNIFORM_PER_PLANT: usize = 6;
/// Calls per timed kernel measurement.
const REPS: usize = 200;

/// Mean per-call kernel costs over the corpus, microseconds unless the
/// name says otherwise.
pub struct KernelStats {
    pub rho_us: f64,
    pub rho_stable_us: f64,
    pub rho_unstable_us: f64,
    pub period_map_us: f64,
    pub spectral_radius_us: f64,
    pub spectral_radius_stable_us: f64,
    pub spectral_radius_unstable_us: f64,
    pub feedforward_us: f64,
    pub simulate_us: f64,
    pub expm_us: f64,
    pub matmul_ns: f64,
    pub stable: u64,
    pub unstable: u64,
}

impl KernelStats {
    pub fn write(&self, o: Obj) -> Obj {
        o.num("control.rho_us", self.rho_us)
            .num("control.rho_stable_us", self.rho_stable_us)
            .num("control.rho_unstable_us", self.rho_unstable_us)
            .num("control.period_map_us", self.period_map_us)
            .num("control.feedforward_us", self.feedforward_us)
            .num("control.simulate_us", self.simulate_us)
            .num("linalg.spectral_radius_us", self.spectral_radius_us)
            .num(
                "linalg.spectral_radius_stable_us",
                self.spectral_radius_stable_us,
            )
            .num(
                "linalg.spectral_radius_unstable_us",
                self.spectral_radius_unstable_us,
            )
            .num("linalg.expm_us", self.expm_us)
            .num("linalg.matmul_ns", self.matmul_ns)
            .int("replay.stable_candidates", self.stable)
            .int("replay.unstable_candidates", self.unstable)
            .num(
                "cov.control_rho_est",
                if self.rho_us > 0.0 {
                    (self.period_map_us + self.spectral_radius_us) / self.rho_us
                } else {
                    0.0
                },
            )
    }
}

/// Mean seconds per call of `f` over [`REPS`] calls.
fn per_call(mut f: impl FnMut()) -> f64 {
    let t = cacs_obs::now();
    for _ in 0..REPS {
        f();
    }
    secs_since(t) / REPS as f64
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

pub fn run(spans: &[EvalTrace], seed: u64) -> Res<KernelStats> {
    // `spans` is sorted by schedule, so the first design seen per
    // (app, m) is deterministic whatever order the run evaluated in.
    let mut corpus: BTreeMap<(usize, usize), &AppTrace> = BTreeMap::new();
    for app in spans.iter().flat_map(|s| &s.apps) {
        corpus.entry((app.app, app.lifted.tasks())).or_insert(app);
    }

    let (mut rho_s, mut rho_u, mut pm_all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut sr_s, mut sr_u, mut ff, mut sim) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut expm, mut matmul) = (Vec::new(), Vec::new());
    let mut pm = PeriodMapWorkspace::new();
    let mut sim_ws = SimWorkspace::new();
    let mut response = Response {
        times: Vec::new(),
        outputs: Vec::new(),
        inputs: Vec::new(),
        reference: 0.0,
    };
    let mut expm_ws = ExpmWorkspace::new();

    for (&(app, m), design) in &corpus {
        let lifted = &design.lifted;
        let config = &design.config;
        let l = lifted.state_dim();
        let mut rng = SplitMix::new(seed ^ ((app as u64) << 32) ^ m as u64);
        let mut candidates = vec![design.controller.gains.clone()];
        for _ in 0..UNIFORM_PER_PLANT {
            candidates.push(
                (0..m)
                    .map(|_| {
                        let row: Vec<f64> = (0..l)
                            .map(|_| rng.uniform(-config.gain_bound, config.gain_bound))
                            .collect();
                        Matrix::row(&row)
                    })
                    .collect(),
            );
        }

        for gains in &candidates {
            let rho = lifted.closed_loop_spectral_radius_ws(gains, &mut pm)?;
            let stable = rho.is_finite() && rho < config.stability_margin;
            let rho_t = per_call(|| {
                black_box(
                    lifted
                        .closed_loop_spectral_radius_ws(black_box(gains), &mut pm)
                        .ok(),
                );
            });
            pm_all.push(per_call(|| {
                black_box(lifted.period_map_into(black_box(gains), &mut pm).ok());
            }));
            let phi = pm.phi().clone();
            let sr_t = per_call(|| {
                black_box(spectral_radius(black_box(&phi)).ok());
            });
            if !stable {
                rho_u.push(rho_t);
                sr_u.push(sr_t);
                continue;
            }
            rho_s.push(rho_t);
            sr_s.push(sr_t);
            let c = lifted.plant().c();
            let mut feedforwards = Vec::with_capacity(m);
            let ff_t = per_call(|| {
                feedforwards.clear();
                for ((iv, b_total), gain) in
                    lifted.intervals().iter().zip(lifted.b_totals()).zip(gains)
                {
                    if let Ok(f) = feedforward_gain(&iv.a_d, b_total, c, gain) {
                        feedforwards.push(f);
                    }
                }
                black_box(&feedforwards);
            });
            ff.push(ff_t);
            if feedforwards.len() == m {
                sim.push(per_call(|| {
                    black_box(
                        simulate_worst_case_into(
                            lifted,
                            gains,
                            &feedforwards,
                            config.reference,
                            config.horizon,
                            &mut response,
                            &mut sim_ws,
                        )
                        .ok(),
                    );
                }));
            }
        }

        for iv in lifted.intervals() {
            let a = lifted.plant().a();
            expm.push(per_call(|| {
                black_box(expm_with_integral_ws(black_box(a), iv.h, &mut expm_ws).ok());
            }));
        }
        let phi = pm.phi().clone();
        let mut out = Matrix::zeros(phi.rows(), phi.cols());
        matmul.push(per_call(|| {
            black_box(phi.matmul_into(black_box(&phi), &mut out).ok());
        }));
    }

    let us = |v: &[f64]| mean(v) * 1e6;
    let all = |a: &[f64], b: &[f64]| us(&[a, b].concat());
    Ok(KernelStats {
        rho_us: all(&rho_s, &rho_u),
        rho_stable_us: us(&rho_s),
        rho_unstable_us: us(&rho_u),
        period_map_us: us(&pm_all),
        spectral_radius_us: all(&sr_s, &sr_u),
        spectral_radius_stable_us: us(&sr_s),
        spectral_radius_unstable_us: us(&sr_u),
        feedforward_us: us(&ff),
        simulate_us: us(&sim),
        expm_us: us(&expm),
        matmul_ns: mean(&matmul) * 1e9,
        stable: rho_s.len() as u64,
        unstable: rho_u.len() as u64,
    })
}
