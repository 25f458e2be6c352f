//! Kalman smoothing of released streams (extension, paper Remark 3).
//!
//! Remark 3 suggests applying the population-division framework to
//! FAST-style pipelines (Fan & Xiong: sampling + Kalman *filtering*).
//! This module supplies the filtering half: a per-cell scalar Kalman
//! filter over the release sequence, with
//!
//! * state model `x_t = x_{t−1} + w_t`, `w_t ~ (0, Q)` — the same
//!   locally-static assumption the adaptive mechanisms exploit;
//! * measurements only at *publication* timestamps, with measurement
//!   noise `R_t = V(ε_t, n_t)` — known in closed form (Eq. 2) from the
//!   release provenance, no tuning needed;
//! * prediction-only updates at approximated/nullified timestamps.
//!
//! Like [`crate::postprocess`], this is post-processing of an already
//! private stream: free under the post-processing theorem.

use crate::config::MechanismConfig;
use crate::release::{Release, ReleaseKind};
use ldp_fo::variance::{avg_variance, PqPair};

/// Per-cell scalar Kalman filter over release sequences.
#[derive(Debug, Clone)]
pub struct KalmanSmoother {
    /// Process noise `Q`: how much the true frequency is expected to move
    /// per timestamp (FAST's only tuning knob).
    pub process_variance: f64,
}

impl KalmanSmoother {
    /// A smoother with process noise `q` per step.
    pub fn new(process_variance: f64) -> Self {
        assert!(
            process_variance.is_finite() && process_variance >= 0.0,
            "process variance must be finite and non-negative"
        );
        KalmanSmoother { process_variance }
    }

    /// Smooth a release sequence, using `config` to derive each
    /// publication's measurement noise from its provenance.
    pub fn smooth(&self, releases: &[Release], config: &MechanismConfig) -> Vec<Vec<f64>> {
        if releases.is_empty() {
            return Vec::new();
        }
        let d = releases[0].frequencies.len();
        // State and covariance per cell.
        let mut x = vec![0.0f64; d];
        let mut p = vec![f64::INFINITY; d]; // no prior before first publication
        let mut out = Vec::with_capacity(releases.len());
        for release in releases {
            debug_assert_eq!(release.frequencies.len(), d);
            // Predict.
            for pk in p.iter_mut() {
                *pk += self.process_variance;
            }
            // Update on fresh measurements only.
            if let ReleaseKind::Published { epsilon, reporters } = release.kind {
                let r = measurement_variance(config, epsilon, reporters);
                for k in 0..d {
                    let z = release.frequencies[k];
                    if p[k].is_infinite() {
                        // First measurement initializes the state.
                        x[k] = z;
                        p[k] = r;
                    } else {
                        let gain = p[k] / (p[k] + r);
                        x[k] += gain * (z - x[k]);
                        p[k] *= 1.0 - gain;
                    }
                }
            }
            out.push(x.clone());
        }
        out
    }
}

/// The closed-form measurement noise of one publication: the average
/// per-cell estimation variance of its FO round.
pub fn measurement_variance(config: &MechanismConfig, epsilon: f64, reporters: u64) -> f64 {
    if reporters == 0 || epsilon <= 0.0 {
        return f64::INFINITY;
    }
    let pq = PqPair::of(config.fo, epsilon, config.domain_size);
    avg_variance(pq, reporters, config.domain_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MechanismConfig {
        MechanismConfig::new(1.0, 10, 2, 10_000)
    }

    fn published(t: u64, f: Vec<f64>) -> Release {
        Release::published(t, f, 1.0, 10_000)
    }

    #[test]
    fn first_publication_initializes_state() {
        let s = KalmanSmoother::new(0.0025 * 0.0025);
        let releases = vec![published(0, vec![0.3, 0.7])];
        let out = s.smooth(&releases, &config());
        assert_eq!(out, vec![vec![0.3, 0.7]]);
    }

    #[test]
    fn approximations_hold_the_prediction() {
        let s = KalmanSmoother::new(0.0025 * 0.0025);
        let releases = vec![
            published(0, vec![0.3, 0.7]),
            Release::approximated(1, vec![0.3, 0.7]),
            Release::nullified(2, vec![0.3, 0.7]),
        ];
        let out = s.smooth(&releases, &config());
        assert_eq!(out[1], out[0]);
        assert_eq!(out[2], out[0]);
    }

    #[test]
    fn repeated_measurements_converge_to_truth() {
        // Constant truth 0.4, noisy measurements alternating around it:
        // the filter must end closer to 0.4 than the raw last measurement.
        let s = KalmanSmoother::new(0.0); // static model
        let mut releases = Vec::new();
        for t in 0..20u64 {
            let noise = if t % 2 == 0 { 0.05 } else { -0.05 };
            releases.push(published(t, vec![0.4 + noise, 0.6 - noise]));
        }
        let out = s.smooth(&releases, &config());
        let last = out.last().unwrap();
        assert!(
            (last[0] - 0.4).abs() < 0.02,
            "filter should average out noise: {last:?}"
        );
    }

    #[test]
    fn large_process_noise_trusts_measurements() {
        // With Q ≫ R the filter tracks each measurement almost exactly.
        let s = KalmanSmoother::new(1.0);
        let releases = vec![published(0, vec![0.2, 0.8]), published(1, vec![0.6, 0.4])];
        let out = s.smooth(&releases, &config());
        assert!((out[1][0] - 0.6).abs() < 0.01, "{:?}", out[1]);
    }

    #[test]
    fn zero_process_noise_averages_equally() {
        // Q = 0 and equal R: after two measurements the state is their
        // mean (the filter degenerates to a running average).
        let s = KalmanSmoother::new(0.0);
        let releases = vec![published(0, vec![0.2, 0.8]), published(1, vec![0.4, 0.6])];
        let out = s.smooth(&releases, &config());
        assert!((out[1][0] - 0.3).abs() < 1e-9, "{:?}", out[1]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let s = KalmanSmoother::new(0.0025 * 0.0025);
        assert!(s.smooth(&[], &config()).is_empty());
    }

    #[test]
    fn measurement_variance_scales_inverse_n() {
        let c = config();
        let v1 = measurement_variance(&c, 1.0, 1000);
        let v2 = measurement_variance(&c, 1.0, 2000);
        assert!((v1 / v2 - 2.0).abs() < 1e-9);
        assert!(measurement_variance(&c, 1.0, 0).is_infinite());
    }

    #[test]
    #[should_panic(expected = "process variance")]
    fn negative_process_noise_rejected() {
        KalmanSmoother::new(-1.0);
    }
}
