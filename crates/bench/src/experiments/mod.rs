//! One module per reproduced paper artifact.

pub mod ablations;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod inspect;
pub mod table2;

use crate::grid::{default_threads, run_parallel};
use crate::output::Figure;
use crate::scale::{RunScale, SharedStreams};
use crate::spec::{RunOutcome, RunSpec};
use ldp_ids::MechanismKind;
use ldp_metrics::Series;
use ldp_stream::Dataset;

/// Shared state of one experiment invocation.
pub struct ExperimentCtx {
    /// Paper or quick scale.
    pub scale: RunScale,
    /// Seeds to average over.
    pub seeds: Vec<u64>,
    /// Stream cache shared across panels.
    pub streams: SharedStreams,
    /// Worker threads.
    pub threads: usize,
}

impl ExperimentCtx {
    /// A context at `scale` with its default seeds.
    pub fn new(scale: RunScale) -> Self {
        ExperimentCtx {
            scale,
            seeds: scale.default_seeds(),
            streams: SharedStreams::new(),
            threads: default_threads(),
        }
    }

    /// Override the seed set.
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "need at least one seed");
        self.seeds = seeds;
        self
    }

    /// Execute one spec against the shared cache.
    pub fn run(&self, spec: &RunSpec) -> RunOutcome {
        let stream = self.streams.get(&spec.dataset, spec.seed, spec.len);
        spec.run_on(&stream)
    }

    /// The workhorse: for each mechanism and each x value, build a spec
    /// per seed, run the whole grid in parallel, and aggregate into one
    /// series per mechanism.
    ///
    /// `make_spec` maps `(mechanism, x, seed)` to a full spec, so sweeps
    /// can vary ε, w, the dataset itself, the oracle — anything.
    pub fn sweep(
        &self,
        mechanisms: &[MechanismKind],
        xs: &[f64],
        make_spec: impl Fn(MechanismKind, f64, u64) -> RunSpec + Sync,
        metric: impl Fn(&RunOutcome) -> f64 + Sync,
    ) -> Vec<Series> {
        let mut jobs = Vec::with_capacity(mechanisms.len() * xs.len() * self.seeds.len());
        for &mech in mechanisms {
            for &x in xs {
                for &seed in &self.seeds {
                    jobs.push(make_spec(mech, x, seed));
                }
            }
        }
        let outcomes = run_parallel(&jobs, self.threads, |spec| metric(&self.run(spec)));
        let mut series: Vec<Series> = Vec::with_capacity(mechanisms.len());
        let mut i = 0;
        for &mech in mechanisms {
            let mut s = Series::new(mech.name());
            for &x in xs {
                let samples = &outcomes[i..i + self.seeds.len()];
                s.push_samples(x, samples);
                i += self.seeds.len();
            }
            series.push(s);
        }
        series
    }
}

/// The figure-7/table-2 mechanism subsets used by the paper.
pub fn monitoring_mechanisms() -> Vec<MechanismKind> {
    vec![
        MechanismKind::Lba,
        MechanismKind::Lsp,
        MechanismKind::Lpu,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ]
}

/// All six paper datasets, adjusted to the context's scale.
pub fn paper_datasets(ctx: &ExperimentCtx) -> Vec<Dataset> {
    Dataset::paper_defaults()
        .iter()
        .map(|d| ctx.scale.dataset(d))
        .collect()
}

/// Run every experiment and return the figures in paper order.
pub fn run_all(ctx: &ExperimentCtx) -> Vec<Figure> {
    let mut figures = vec![
        fig4::run(ctx),
        fig5::run(ctx),
        fig6::run(ctx),
        fig7::run(ctx),
        fig8::run(ctx),
        table2::run(ctx),
    ];
    figures.extend(ablations::run(ctx));
    figures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx::new(RunScale::Quick).with_seeds(vec![3])
    }

    #[test]
    fn sweep_produces_one_series_per_mechanism() {
        let ctx = tiny_ctx();
        let dataset = Dataset::Sin {
            population: 4000,
            len: 30,
            a: 0.05,
            b: 0.05,
            h: 0.075,
        };
        let mechs = [MechanismKind::Lbu, MechanismKind::Lpu];
        let series = ctx.sweep(
            &mechs,
            &[0.5, 1.0],
            |mech, eps, seed| {
                let mut s = RunSpec::new(dataset.clone(), mech, eps, 5, seed);
                s.len = 30;
                s
            },
            |out| out.error.mre,
        );
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "lbu");
        assert_eq!(series[0].points.len(), 2);
        // Population division beats budget division at every ε.
        assert!(series[1].dominates_below(&series[0]));
    }
}
