//! Collector fidelity: the aggregate-level sampler must be statistically
//! indistinguishable from driving real per-user clients.
//!
//! The experiment grids rest on `AggregateCollector` drawing from the
//! *exact* distribution of summed per-user reports (a departure from
//! simulating every device, listed in the README). These tests
//! compare the two backends' estimate moments and the mechanisms'
//! end-to-end error under both.

use ldp_fo::FoKind;
use ldp_ids::collector::{AggregateCollector, ReportScope, RoundCollector};
use ldp_ids::protocol::ClientCollector;
use ldp_ids::runner::{run_on_source, CollectorMode};
use ldp_ids::{MechanismConfig, MechanismKind};
use ldp_stream::source::ConstantSource;
use ldp_stream::{Dataset, MaterializedStream, TrueHistogram};
use ldp_util::stats::{mean, sample_variance};

/// One population and the cell whose estimate the moment tests follow.
struct Lane {
    fo: FoKind,
    counts: Vec<u64>,
    cell: usize,
}

impl Lane {
    /// The paper's default: GRR over a binary domain, 70 % in cell 0.
    fn grr() -> Self {
        Lane {
            fo: FoKind::Grr,
            counts: vec![1400, 600],
            cell: 0,
        }
    }

    /// OUE over two report words, following a cell in the second one:
    /// here the client path sums 2000 bit-sliced per-user reports while
    /// the aggregate path draws two binomials per cell, so a biased or
    /// lane-correlated per-user sampler shows as a moment mismatch.
    fn oue() -> Self {
        let mut counts = vec![16u64; 70];
        counts[0] = 500;
        counts[1] += 12;
        counts[66] = 400;
        Lane {
            fo: FoKind::Oue,
            counts,
            cell: 66,
        }
    }

    fn population(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn truth(&self) -> f64 {
        self.counts[self.cell] as f64 / self.population() as f64
    }

    fn collector(&self, mode: CollectorMode, eps: f64, seed: u64) -> Box<dyn RoundCollector> {
        let source = Box::new(ConstantSource::new(TrueHistogram::new(self.counts.clone())));
        let config =
            MechanismConfig::new(eps, 4, self.counts.len(), self.population()).with_fo(self.fo);
        match mode {
            CollectorMode::Aggregate => Box::new(AggregateCollector::new(source, &config, seed)),
            CollectorMode::Client => Box::new(ClientCollector::new(source, &config, seed)),
        }
    }
}

fn one_round_estimates(
    lane: &Lane,
    mode: CollectorMode,
    trials: usize,
    scope: ReportScope,
    eps: f64,
) -> Vec<f64> {
    (0..trials)
        .map(|seed| {
            let mut collector = lane.collector(mode, eps, seed as u64);
            collector.begin_step().unwrap();
            collector.collect(scope, eps).unwrap().frequencies[lane.cell]
        })
        .collect()
}

/// Both backends' estimates of the lane's cell centre on the truth and
/// spread alike over 300 seeded rounds.
fn assert_backends_agree(lane: &Lane, scope: ReportScope, mean_tolerance: f64) {
    let eps = 1.0;
    let trials = 300;
    let agg = one_round_estimates(lane, CollectorMode::Aggregate, trials, scope, eps);
    let cli = one_round_estimates(lane, CollectorMode::Client, trials, scope, eps);
    let (m_a, m_c) = (mean(&agg), mean(&cli));
    let truth = lane.truth();
    assert!((m_a - truth).abs() < mean_tolerance, "aggregate mean {m_a}");
    assert!((m_c - truth).abs() < mean_tolerance, "client mean {m_c}");
    let (v_a, v_c) = (sample_variance(&agg), sample_variance(&cli));
    let ratio = v_a / v_c;
    assert!(
        (0.6..1.6).contains(&ratio),
        "variance mismatch: aggregate {v_a} vs client {v_c}"
    );
}

#[test]
fn collectors_agree_on_all_scope_moments() {
    assert_backends_agree(&Lane::grr(), ReportScope::All, 0.02);
}

#[test]
fn collectors_agree_on_fresh_scope_moments() {
    assert_backends_agree(&Lane::grr(), ReportScope::Fresh(500), 0.03);
}

#[test]
fn collectors_agree_on_all_scope_moments_oue() {
    // sd of one estimate ≈ 0.043 (4e^ε/(n(e^ε − 1)²) at n = 2000), of
    // the 300-round mean ≈ 0.0025: the bound is 4 σ.
    assert_backends_agree(&Lane::oue(), ReportScope::All, 0.01);
}

#[test]
fn collectors_agree_on_fresh_scope_moments_oue() {
    assert_backends_agree(&Lane::oue(), ReportScope::Fresh(500), 0.02);
}

/// Both backends charge a round the same bytes: the aggregate sampler
/// materialises no response, so it must price one by the same model —
/// at the oracle the round resolved to, round echo included.
#[test]
fn backends_agree_on_uplink_bytes() {
    let per_response = [
        (FoKind::Grr, 5, 8 + 4),
        (FoKind::Adaptive, 5, 8 + 4),
        (FoKind::Oue, 77, 8 + 4 + 2 * 8),
        (FoKind::Adaptive, 77, 8 + 4 + 2 * 8),
    ];
    for (fo, d, bytes) in per_response {
        let lane = Lane {
            fo,
            counts: vec![20; d],
            cell: 0,
        };
        let stats = [CollectorMode::Aggregate, CollectorMode::Client].map(|mode| {
            let mut collector = lane.collector(mode, 1.0, 3);
            collector.begin_step().unwrap();
            collector.collect(ReportScope::All, 1.0).unwrap();
            collector.stats()
        });
        assert_eq!(
            stats[0].uplink_reports,
            lane.population(),
            "{fo:?}, d = {d}"
        );
        assert_eq!(
            stats[0].uplink_bytes,
            lane.population() * bytes,
            "{fo:?}, d = {d}"
        );
        assert_eq!(
            stats[0].uplink_bytes, stats[1].uplink_bytes,
            "{fo:?}, d = {d}"
        );
    }
}

#[test]
fn end_to_end_error_matches_across_backends() {
    // Same mechanism, same stream, both backends, several seeds: the
    // mean MRE must agree within sampling tolerance.
    let dataset = Dataset::Sin {
        population: 3_000,
        len: 30,
        a: 0.05,
        b: 0.05,
        h: 0.075,
    };
    let stream = MaterializedStream::from_dataset(&dataset, 17);
    let truth = stream.frequency_matrix();
    let config = MechanismConfig::new(1.0, 6, 2, 3_000);

    let mre_with = |mode: CollectorMode, seed: u64| {
        let mut mech = MechanismKind::Lpa.build(&config).unwrap();
        let out = run_on_source(mech.as_mut(), Box::new(stream.replay()), 30, mode, seed).unwrap();
        ldp_metrics::mre(
            &out.frequency_matrix(),
            &truth,
            ldp_metrics::DEFAULT_MRE_FLOOR,
        )
    };
    let seeds: Vec<u64> = (0..12).collect();
    let agg: Vec<f64> = seeds
        .iter()
        .map(|&s| mre_with(CollectorMode::Aggregate, s))
        .collect();
    let cli: Vec<f64> = seeds
        .iter()
        .map(|&s| mre_with(CollectorMode::Client, s))
        .collect();
    let (m_a, m_c) = (mean(&agg), mean(&cli));
    assert!(
        (m_a - m_c).abs() / m_c.max(1e-6) < 0.5,
        "backend MRE means diverge: aggregate {m_a} vs client {m_c}"
    );
}

#[test]
fn aggregate_variance_matches_closed_form() {
    // The sampled estimator's variance must track Eq. (2) — the quantity
    // every adaptive decision in the system relies on.
    let eps = 1.0;
    let trials = 600;
    let est = one_round_estimates(
        &Lane::grr(),
        CollectorMode::Aggregate,
        trials,
        ReportScope::All,
        eps,
    );
    let emp = sample_variance(&est);
    let oracle = ldp_fo::build_oracle(FoKind::Grr, eps, 2).unwrap();
    let theory = oracle.cell_variance(2000, 0.7);
    let rel = (emp - theory).abs() / theory;
    assert!(
        rel < 0.25,
        "empirical variance {emp} vs Eq.(2) {theory} (rel {rel})"
    );
}
