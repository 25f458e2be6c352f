//! One experiment run: its specification and its measured outcome.

use ldp_fo::FoKind;
use ldp_ids::runner::{run_on_source, CollectorMode};
use ldp_ids::{MechanismConfig, MechanismKind, VarianceModel};
use ldp_metrics::{auc, StreamError};
use ldp_stream::events::above_threshold_labels;
use ldp_stream::{paper_threshold, Dataset, MaterializedStream, MonitorStat};
use ldp_util::child_seed;
use serde::{Deserialize, Serialize};

/// Everything needed to reproduce one (mechanism, stream, parameters)
/// measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSpec {
    /// Which dataset, fully parameterized.
    pub dataset: Dataset,
    /// Stream length to run (≤ the dataset's natural length).
    pub len: usize,
    /// Which mechanism.
    pub mechanism: MechanismKind,
    /// Window budget ε.
    pub epsilon: f64,
    /// Window size w.
    pub w: usize,
    /// Frequency oracle.
    pub fo: FoKind,
    /// Variance model for the adaptive decisions.
    pub variance: VarianceModel,
    /// M₁ resource share (paper: 0.5).
    pub dissimilarity_share: f64,
    /// Minimum publication group for LPD/LPA (paper: 1).
    pub u_min: u64,
    /// Project releases onto the simplex before scoring (extension).
    pub postprocess: bool,
    /// Kalman-smooth releases with this process variance before scoring
    /// (extension, paper Remark 3).
    pub smoothing: Option<f64>,
    /// Master seed (stream and collector randomness derive from it).
    pub seed: u64,
}

impl RunSpec {
    /// A paper-default spec: GRR, approximate variance, no projection.
    pub fn new(
        dataset: Dataset,
        mechanism: MechanismKind,
        epsilon: f64,
        w: usize,
        seed: u64,
    ) -> Self {
        let len = dataset.len();
        RunSpec {
            dataset,
            len,
            mechanism,
            epsilon,
            w,
            fo: FoKind::Grr,
            variance: VarianceModel::default(),
            dissimilarity_share: 0.5,
            u_min: 1,
            postprocess: false,
            smoothing: None,
            seed,
        }
    }

    /// The mechanism config this spec induces.
    pub fn config(&self) -> MechanismConfig {
        MechanismConfig::new(
            self.epsilon,
            self.w,
            self.dataset.domain_size(),
            self.dataset.population(),
        )
        .with_fo(self.fo)
        .with_variance(self.variance)
        .with_dissimilarity_share(self.dissimilarity_share)
        .with_u_min(self.u_min)
    }

    /// Execute against a pre-materialized stream (must match
    /// `self.dataset`/`self.len`).
    pub fn run_on(&self, stream: &MaterializedStream) -> RunOutcome {
        assert_eq!(stream.len(), self.len, "stream length mismatch");
        let config = self.config();
        let mut mechanism = self
            .mechanism
            .build(&config)
            .unwrap_or_else(|e| panic!("{} on {}: {e}", self.mechanism, self.dataset.name()));
        let collector_seed = child_seed(self.seed, 0x6c64_7069); // "ldpi"
        let result = run_on_source(
            mechanism.as_mut(),
            Box::new(stream.replay()),
            self.len,
            CollectorMode::Aggregate,
            collector_seed,
        )
        .unwrap_or_else(|e| panic!("{} on {}: {e}", self.mechanism, self.dataset.name()));

        let truth = stream.frequency_matrix();
        let mut released = result.frequency_matrix();
        if let Some(q) = self.smoothing {
            let smoother = ldp_ids::smoothing::KalmanSmoother::new(q);
            released = smoother.smooth(&result.releases, &config);
        }
        if self.postprocess {
            released = ldp_ids::postprocess::norm_sub_stream(&released);
        }
        let error = StreamError::compute(&released, &truth);

        // Event monitoring (Fig. 7): score the released monitored series
        // against true above-threshold labels.
        let stat = MonitorStat::default_for_domain(stream.domain().size(), stream.histogram(0));
        let true_series = stat.series(&truth);
        let delta = paper_threshold(&true_series);
        let labels = above_threshold_labels(&true_series, delta);
        let released_series = stat.series(&released);
        let monitoring_auc = auc(&released_series, &labels);

        RunOutcome {
            error,
            cfpu: result.cfpu,
            publications: result.publications,
            auc: monitoring_auc,
            uplink_bytes: result.stats.uplink_bytes,
            steps: result.stats.steps,
        }
    }
}

/// The measured outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// MRE/MAE/MSE against the true stream.
    pub error: StreamError,
    /// Communication frequency per user.
    pub cfpu: f64,
    /// Fresh publications.
    pub publications: u64,
    /// Event-monitoring AUC (NaN when the threshold produces a
    /// degenerate label set).
    pub auc: f64,
    /// Total uplink bytes.
    pub uplink_bytes: u64,
    /// Steps executed.
    pub steps: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::SharedStreams;

    fn tiny_dataset() -> Dataset {
        Dataset::Sin {
            population: 5_000,
            len: 40,
            a: 0.05,
            b: 0.05,
            h: 0.075,
        }
    }

    #[test]
    fn spec_runs_and_scores() {
        let streams = SharedStreams::new();
        let d = tiny_dataset();
        let spec = RunSpec::new(d.clone(), MechanismKind::Lpa, 1.0, 8, 3);
        let stream = streams.get(&d, spec.seed, spec.len);
        let out = spec.run_on(&stream);
        assert!(out.error.mre > 0.0 && out.error.mre.is_finite());
        assert!(out.cfpu > 0.0 && out.cfpu <= 1.0 / 8.0 + 1e-9);
        assert_eq!(out.steps, 40);
    }

    #[test]
    fn same_seed_reproduces_exactly() {
        let streams = SharedStreams::new();
        let d = tiny_dataset();
        let spec = RunSpec::new(d.clone(), MechanismKind::Lbd, 1.0, 8, 5);
        let stream = streams.get(&d, spec.seed, spec.len);
        let a = spec.run_on(&stream);
        let b = spec.run_on(&stream);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let streams = SharedStreams::new();
        let d = tiny_dataset();
        let s1 = RunSpec::new(d.clone(), MechanismKind::Lpu, 1.0, 8, 5);
        let s2 = RunSpec {
            seed: 6,
            ..s1.clone()
        };
        let stream = streams.get(&d, 5, s1.len);
        assert_ne!(s1.run_on(&stream).error.mre, s2.run_on(&stream).error.mre);
    }

    #[test]
    fn postprocess_never_hurts_much() {
        // Projection onto the simplex should roughly preserve or improve
        // MRE on a noisy baseline.
        let streams = SharedStreams::new();
        let d = tiny_dataset();
        let raw = RunSpec::new(d.clone(), MechanismKind::Lbu, 0.5, 8, 7);
        let proj = RunSpec {
            postprocess: true,
            ..raw.clone()
        };
        let stream = streams.get(&d, 7, raw.len);
        let raw_out = raw.run_on(&stream);
        let proj_out = proj.run_on(&stream);
        assert!(
            proj_out.error.mre <= raw_out.error.mre * 1.1,
            "projection degraded MRE: {} vs {}",
            proj_out.error.mre,
            raw_out.error.mre
        );
    }
}
