//! Closed-loop step-response simulation under the paper's worst-case
//! phasing convention.
//!
//! Section V: *"the reference tracking for an application starts after its
//! last consecutive task in a schedule"*. The worst case is a reference
//! step arriving immediately **after** the last consecutive task sensed the
//! plant: the controller only sees the new reference at its next sampling
//! instant, which is one full idle gap later. Cache-aware schedules have
//! longer idle gaps, so this convention is deliberately pessimistic for
//! them (the paper makes the same point).

use crate::{ControlError, LiftedPlant, Result};
use cacs_linalg::Matrix;

/// A simulated closed-loop step response on the application's (generally
/// non-uniform) sampling grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Sampling instants, seconds, starting at the reference step (t = 0).
    pub times: Vec<f64>,
    /// Plant output `y = Cx` at each sampling instant.
    pub outputs: Vec<f64>,
    /// Control input computed at each sampling instant.
    pub inputs: Vec<f64>,
    /// The reference value being tracked.
    pub reference: f64,
}

/// Reusable state-column buffers for [`simulate_worst_case_into`], sized
/// lazily to the plant's state dimension.
#[derive(Debug)]
pub struct SimWorkspace {
    dim: usize, // l (0 = unsized)
    x: Matrix,
    x_next: Matrix,
}

impl Default for SimWorkspace {
    fn default() -> Self {
        SimWorkspace::new()
    }
}

impl SimWorkspace {
    /// An empty workspace; buffers are built on first use.
    #[must_use]
    pub fn new() -> Self {
        SimWorkspace {
            dim: 0,
            x: Matrix::zeros(1, 1),
            x_next: Matrix::zeros(1, 1),
        }
    }

    /// (Re)sizes for state dimension `l` and zeroes the initial state
    /// exactly like a fresh `Matrix::zeros(l, 1)`.
    fn ensure(&mut self, l: usize) {
        if self.dim != l {
            self.x = Matrix::zeros(l, 1);
            self.x_next = Matrix::zeros(l, 1);
            self.dim = l;
        } else {
            self.x.fill(0.0);
        }
    }
}

impl Response {
    /// Largest input magnitude over the simulation (for the `u ≤ U_max`
    /// constraint, paper Section II-A).
    pub fn max_input_magnitude(&self) -> f64 {
        self.inputs.iter().fold(0.0, |acc, u| acc.max(u.abs()))
    }

    /// Tracking error `|y − r|` at the final sample.
    pub fn final_error(&self) -> f64 {
        match self.outputs.last() {
            Some(y) => (y - self.reference).abs(),
            None => f64::INFINITY,
        }
    }

    /// `true` if every recorded quantity is finite.
    pub fn is_finite(&self) -> bool {
        self.outputs.iter().all(|v| v.is_finite()) && self.inputs.iter().all(|v| v.is_finite())
    }
}

/// Simulates the worst-case step response of a designed controller.
///
/// The plant starts at rest (`x = 0`, previous input 0). The reference
/// steps from 0 to `reference` just after the **last** task of the
/// application's consecutive run has sensed — so that task still computes
/// `u` for reference 0, and the first reactive sample happens after the
/// long idle-gap period. Simulation proceeds on the cyclic interval
/// pattern until at least `horizon` seconds have been recorded.
///
/// `gains` and `feedforwards` are per task (length `m`).
///
/// # Errors
///
/// * [`ControlError::InvalidPlant`] for malformed gains/feedforward
///   counts.
/// * [`ControlError::InvalidTiming`] for a non-positive horizon.
///
/// # Example
///
/// ```
/// use cacs_control::{simulate_worst_case, ContinuousLti, LiftedPlant};
/// use cacs_linalg::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let plant = ContinuousLti::new(
///     Matrix::from_rows(&[&[-100.0]])?,
///     Matrix::column(&[100.0]),
///     Matrix::row(&[1.0]),
/// )?;
/// let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3])?;
/// let gains = vec![Matrix::row(&[-0.5]), Matrix::row(&[-0.5])];
/// let response = simulate_worst_case(&lifted, &gains, &[1.5, 1.5], 1.0, 0.05)?;
/// assert!(response.is_finite());
/// assert!((response.outputs.last().unwrap() - 1.0).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn simulate_worst_case(
    lifted: &LiftedPlant,
    gains: &[Matrix],
    feedforwards: &[f64],
    reference: f64,
    horizon: f64,
) -> Result<Response> {
    let mut out = Response {
        times: Vec::new(),
        outputs: Vec::new(),
        inputs: Vec::new(),
        reference: 0.0,
    };
    simulate_worst_case_into(
        lifted,
        gains,
        feedforwards,
        reference,
        horizon,
        &mut out,
        &mut SimWorkspace::new(),
    )?;
    Ok(out)
}

/// [`simulate_worst_case`] writing into a caller-owned [`Response`] and
/// [`SimWorkspace`], so a loop of simulations reuses the trace vectors
/// and state columns instead of reallocating. Bit-identical to the
/// allocating path; the PSO objective's fixed-size kernel
/// ([`crate::LiftedKernel::simulate`]) reproduces it bit for bit.
///
/// # Errors
///
/// Same conditions as [`simulate_worst_case`]; on error `out` is left
/// cleared.
pub fn simulate_worst_case_into(
    lifted: &LiftedPlant,
    gains: &[Matrix],
    feedforwards: &[f64],
    reference: f64,
    horizon: f64,
    out: &mut Response,
    ws: &mut SimWorkspace,
) -> Result<()> {
    out.times.clear();
    out.outputs.clear();
    out.inputs.clear();
    out.reference = reference;
    let m = lifted.tasks();
    let l = lifted.state_dim();
    if gains.len() != m || feedforwards.len() != m {
        return Err(ControlError::InvalidPlant {
            reason: format!(
                "need {m} gains and feedforwards, got {} and {}",
                gains.len(),
                feedforwards.len()
            ),
        });
    }
    if let Some(bad) = gains.iter().find(|k| k.shape() != (1, l)) {
        return Err(ControlError::InvalidPlant {
            reason: format!("gain must be 1x{l}, got {:?}", bad.shape()),
        });
    }
    if !horizon.is_finite() || horizon <= 0.0 {
        return Err(ControlError::InvalidTiming {
            reason: format!("horizon must be positive, got {horizon}"),
        });
    }

    ws.ensure(l); // x starts at rest, exactly like Matrix::zeros(l, 1)
    let mut u_prev = 0.0;
    let mut t = 0.0;

    // Rough sample-count estimate so the recording vectors allocate
    // once (reused calls usually already have the capacity); the state
    // update runs entirely on two reused column buffers and scalar dot
    // products.
    let min_period = lifted
        .intervals()
        .iter()
        .map(|iv| iv.h)
        .fold(f64::INFINITY, f64::min);
    let estimated = if min_period.is_finite() && min_period > 0.0 {
        ((horizon / min_period).ceil() as usize)
            .saturating_add(2)
            .min(1 << 20)
    } else {
        16
    };
    out.times.reserve(estimated);
    out.outputs.reserve(estimated);
    out.inputs.reserve(estimated);

    // Start at the application's LAST consecutive task (interval m−1): the
    // reference steps right after this task's sensing, so it still tracks
    // the old reference 0.
    let mut first_sample = true;
    let mut j = m - 1;
    while t < horizon || out.times.len() < 2 {
        let r_visible = if first_sample { 0.0 } else { reference };
        first_sample = false;

        let u = gains[j].row_dot(0, &ws.x)? + feedforwards[j] * r_visible;
        let y = lifted.plant().output(&ws.x)?;

        out.times.push(t);
        out.outputs.push(y);
        out.inputs.push(u);

        let iv = &lifted.intervals()[j];
        iv.a_d.matmul_into(&ws.x, &mut ws.x_next)?;
        ws.x_next.add_scaled_assign(&iv.b_prev, u_prev)?;
        ws.x_next.add_scaled_assign(&iv.b_new, u)?;
        std::mem::swap(&mut ws.x, &mut ws.x_next);
        u_prev = u;
        t += iv.h;
        j = (j + 1) % m;

        if !ws.x.is_finite() {
            // Unstable loop: record one diverged sample and stop early so
            // callers can penalise without waiting out the horizon.
            out.times.push(t);
            out.outputs.push(f64::INFINITY);
            out.inputs.push(u);
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ContinuousLti;

    fn fast_first_order() -> LiftedPlant {
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[-200.0]]).unwrap(),
            Matrix::column(&[200.0]),
            Matrix::row(&[1.0]),
        )
        .unwrap();
        LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3]).unwrap()
    }

    #[test]
    fn tracks_reference_with_stable_design() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let r = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 2.0, 0.08).unwrap();
        assert!(r.is_finite());
        assert!((r.outputs.last().unwrap() - 2.0).abs() < 0.1);
        assert_eq!(r.reference, 2.0);
    }

    #[test]
    fn first_sample_sees_old_reference() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let r = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 2.0, 0.05).unwrap();
        // At t = 0 the plant is at rest and the controller still tracks 0.
        assert_eq!(r.inputs[0], 0.0);
        assert_eq!(r.outputs[0], 0.0);
        // The second sample reacts to the new reference.
        assert!(r.inputs[1] != 0.0);
    }

    #[test]
    fn worst_case_phase_starts_with_idle_gap() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let r = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 1.0, 0.05).unwrap();
        // The first interval is the LAST task's (3 ms, includes the idle
        // gap), so the second sample is 3 ms after the step.
        assert!((r.times[1] - 3e-3).abs() < 1e-12);
        // After that the 1 ms interval follows.
        assert!((r.times[2] - 4e-3).abs() < 1e-12);
    }

    #[test]
    fn unstable_design_is_cut_short_with_infinite_output() {
        let plant = ContinuousLti::new(
            Matrix::from_rows(&[&[5.0]]).unwrap(), // unstable pole
            Matrix::column(&[1.0]),
            Matrix::row(&[1.0]),
        )
        .unwrap();
        let lifted = LiftedPlant::new(plant, &[1e-3, 3e-3], &[1e-3, 0.4e-3]).unwrap();
        // Positive feedback (plus feedforward excitation) makes it explode.
        let gains = vec![Matrix::row(&[500.0]), Matrix::row(&[500.0])];
        let r = simulate_worst_case(&lifted, &gains, &[1.0, 1.0], 1.0, 10.0).unwrap();
        assert!(!r.is_finite());
        assert!(r.times.len() < 10_000, "should stop early on divergence");
    }

    #[test]
    fn horizon_is_covered() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let r = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 1.0, 0.1).unwrap();
        assert!(*r.times.last().unwrap() >= 0.1 - 4e-3);
    }

    #[test]
    fn validation_errors() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3])]; // wrong count
        assert!(simulate_worst_case(&lifted, &gains, &[1.0], 1.0, 0.1).is_err());
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        assert!(simulate_worst_case(&lifted, &gains, &[1.0], 1.0, 0.1).is_err()); // ff count
        assert!(simulate_worst_case(&lifted, &gains, &[1.0, 1.0], 1.0, -0.1).is_err());
        let wide = vec![Matrix::row(&[-0.3, 0.0]), Matrix::row(&[-0.3, 0.0])];
        assert!(simulate_worst_case(&lifted, &wide, &[1.0, 1.0], 1.0, 0.1).is_err());
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let fresh = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 2.0, 0.08).unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut ws = SimWorkspace::new();
        let mut out = Response {
            times: Vec::new(),
            outputs: Vec::new(),
            inputs: Vec::new(),
            reference: 0.0,
        };
        for round in 0..3 {
            simulate_worst_case_into(&lifted, &gains, &[1.3, 1.3], 2.0, 0.08, &mut out, &mut ws)
                .unwrap();
            assert_eq!(bits(&fresh.times), bits(&out.times), "round {round}");
            assert_eq!(bits(&fresh.outputs), bits(&out.outputs), "round {round}");
            assert_eq!(bits(&fresh.inputs), bits(&out.inputs), "round {round}");
        }
    }

    #[test]
    fn max_input_and_final_error() {
        let lifted = fast_first_order();
        let gains = vec![Matrix::row(&[-0.3]), Matrix::row(&[-0.3])];
        let r = simulate_worst_case(&lifted, &gains, &[1.3, 1.3], 2.0, 0.08).unwrap();
        assert!(r.max_input_magnitude() > 0.0);
        assert!(r.final_error() < 0.2);
    }
}
