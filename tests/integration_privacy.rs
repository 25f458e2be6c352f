//! Privacy-invariant property tests.
//!
//! Theorems 5.3 and 6.2 say the seven mechanisms satisfy w-event ε-LDP.
//! The implementation enforces those invariants at runtime in three
//! independent places, and these tests drive randomized streams and
//! configurations through all of them:
//!
//! * budget division's own `WindowBudget` (panics on window over-spend);
//! * the collectors' fresh-user accounting (errors on double booking);
//! * the *clients'* ledgers in the protocol driver (refuse over-budget
//!   requests) — the device-side guarantee that holds even against a
//!   buggy server.
//!
//! The client lanes run on the sequential `ClientCollector` and on a
//! `ParallelCollector` whose rounds outgrow one batch, so the devices'
//! ledgers are also checked while lane threads answer.

use ldp_ids::runner::{run_on_source, run_with_collector, CollectorMode};
use ldp_ids::{MechanismConfig, MechanismKind};
use ldp_service::{IngestService, ParallelCollector, ServiceConfig};
use ldp_stream::source::ReplaySource;
use ldp_stream::{StreamSource, TrueHistogram};
use proptest::prelude::*;
use std::sync::Arc;

/// A `ParallelCollector` on two lanes, with batches small enough that a
/// round of the 600-user populations below is split across them.
fn laned_collector(
    source: Box<dyn StreamSource>,
    config: &MechanismConfig,
    seed: u64,
) -> ParallelCollector {
    let service = IngestService::new(ServiceConfig::with_threads(2).with_batch_size(64));
    ParallelCollector::new(source, config, seed, Arc::new(service))
}

/// A random stream of `len` histograms over `d` cells, each row an
/// arbitrary composition of `population`.
fn arb_stream(population: u64, d: usize, len: usize) -> impl Strategy<Value = Vec<TrueHistogram>> {
    proptest::collection::vec(proptest::collection::vec(1u64..=100, d), len..=len).prop_map(
        move |weight_rows| {
            weight_rows
                .into_iter()
                .map(|weights| {
                    // Largest-remainder split of `population` by weights.
                    let total: u64 = weights.iter().sum();
                    let mut counts: Vec<u64> =
                        weights.iter().map(|&w| population * w / total).collect();
                    let mut assigned: u64 = counts.iter().sum();
                    let mut i = 0;
                    while assigned < population {
                        counts[i % d] += 1;
                        assigned += 1;
                        i += 1;
                    }
                    TrueHistogram::new(counts)
                })
                .collect()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any mechanism on any volatile stream survives the aggregate
    /// collector's accounting: no pool exhaustion, no ledger panic.
    #[test]
    fn aggregate_accounting_holds_for_all_mechanisms(
        seq in arb_stream(4_000, 3, 40),
        w in 1usize..=12,
        eps in 0.1f64..4.0,
        kind_idx in 0usize..7,
        seed in 0u64..1000,
    ) {
        let kind = MechanismKind::ALL[kind_idx];
        let config = MechanismConfig::new(eps, w, 3, 4_000);
        let mut mech = kind.build(&config).unwrap();
        let source = ReplaySource::new("prop", seq);
        let result = run_on_source(
            mech.as_mut(),
            Box::new(source),
            40,
            CollectorMode::Aggregate,
            seed,
        ).unwrap();
        prop_assert_eq!(result.releases.len(), 40);
    }

    /// The same through real clients: every device's own ledger accepts
    /// every request the mechanisms make — zero refusals — on the
    /// sequential collector and across lanes.
    #[test]
    fn clients_never_refuse_correct_mechanisms(
        seq in arb_stream(600, 2, 24),
        w in 1usize..=6,
        eps in 0.1f64..3.0,
        kind_idx in 0usize..7,
        seed in 0u64..1000,
    ) {
        let kind = MechanismKind::ALL[kind_idx];
        let config = MechanismConfig::new(eps, w, 2, 600);
        let mut mech = kind.build(&config).unwrap();
        let source = ReplaySource::new("prop", seq.clone());
        let result = run_on_source(
            mech.as_mut(),
            Box::new(source),
            24,
            CollectorMode::Client,
            seed,
        );
        prop_assert!(result.is_ok(), "client run failed: {:?}", result.err());

        let mut mech = kind.build(&config).unwrap();
        let source = Box::new(ReplaySource::new("prop", seq));
        let mut laned = laned_collector(source, &config, seed);
        let result = run_with_collector(mech.as_mut(), &mut laned, 24);
        prop_assert!(result.is_ok(), "laned run failed: {:?}", result.err());
        prop_assert_eq!(laned.refusals(), 0);
    }

    /// Population-division communication stays within the §6.3.3 bound:
    /// asymptotically 1/w; for a finite run of T steps, each w-window
    /// spends at most N users, so CFPU ≤ ⌈T/w⌉·w/(w·T) = ⌈T/w⌉/T.
    #[test]
    fn population_cfpu_bounded_by_inverse_w(
        seq in arb_stream(4_000, 3, 40),
        w in 2usize..=10,
        eps in 0.25f64..2.5,
        seed in 0u64..1000,
    ) {
        let steps = 40usize;
        let bound = steps.div_ceil(w) as f64 / steps as f64;
        for kind in MechanismKind::POPULATION_DIVISION {
            let config = MechanismConfig::new(eps, w, 3, 4_000);
            let mut mech = kind.build(&config).unwrap();
            let source = ReplaySource::new("prop", seq.clone());
            let result = run_on_source(
                mech.as_mut(),
                Box::new(source),
                steps,
                CollectorMode::Aggregate,
                seed,
            ).unwrap();
            prop_assert!(
                result.cfpu <= bound + 1e-9,
                "{} CFPU {} exceeds ceil(T/w)/T = {}", kind, result.cfpu, bound
            );
        }
    }

    /// Budget-division communication is 1 (plus publication surcharge
    /// for the adaptive pair, bounded by 2).
    #[test]
    fn budget_cfpu_in_expected_band(
        seq in arb_stream(4_000, 2, 30),
        w in 2usize..=10,
        seed in 0u64..1000,
    ) {
        for kind in MechanismKind::BUDGET_DIVISION {
            let config = MechanismConfig::new(1.0, w, 2, 4_000);
            let mut mech = kind.build(&config).unwrap();
            let source = ReplaySource::new("prop", seq.clone());
            let result = run_on_source(
                mech.as_mut(),
                Box::new(source),
                30,
                CollectorMode::Aggregate,
                seed,
            ).unwrap();
            prop_assert!(
                result.cfpu >= 1.0 - 1e-9 && result.cfpu <= 2.0 + 1e-9,
                "{} CFPU {}", kind, result.cfpu
            );
        }
    }
}

/// A deliberately broken schedule must be *refused by clients*, not
/// silently executed — the device-side guarantee, on the sequential
/// collector and across lanes.
#[test]
fn broken_schedule_is_refused_by_clients() {
    use ldp_ids::collector::{ReportScope, RoundCollector};
    use ldp_ids::protocol::ClientCollector;
    use ldp_ids::CoreError;
    use ldp_stream::source::ConstantSource;

    let source = || Box::new(ConstantSource::new(TrueHistogram::new(vec![300, 300])));
    let config = MechanismConfig::new(1.0, 4, 2, 600);
    let mut sequential = ClientCollector::new(source(), &config, 5);
    let mut laned = laned_collector(source(), &config, 5);
    for collector in [
        &mut sequential as &mut dyn RoundCollector,
        &mut laned as &mut dyn RoundCollector,
    ] {
        collector.begin_step().unwrap();
        // Spend the full window budget at once…
        collector.collect(ReportScope::All, 1.0).unwrap();
        // …then ask for more within the same window.
        collector.begin_step().unwrap();
        let err = collector.collect(ReportScope::All, 0.5).unwrap_err();
        assert!(
            matches!(err, CoreError::ClientRefused { user: 0, .. }),
            "{err}"
        );
    }
    assert_eq!(laned.refusals(), 1);
}
