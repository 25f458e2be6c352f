//! Per-shard support-count accumulation.
//!
//! Every tally in the service — a pool worker's partition of a live
//! round, and recovery's replay of a logged one — lives in a
//! [`ShardArena`]: one [`ShardAccumulator`] per open round it has seen
//! traffic for, its support buffer reused across every batch of that
//! round. There is one fold path: [`ShardArena::ingest`] runs a
//! columnar [`Batch`] through the round oracle's kernels
//! ([`fold_columns`]) — integer increments of per-cell support counts —
//! so the merged tally over any partition of the response stream equals
//! the sequential tally exactly (u64 addition is commutative and
//! associative), which is what makes the parallel service's estimates,
//! and a recovered round's, bit-identical to `AggregationServer`'s.
//!
//! [`fold_columns`]: ShardAccumulator::fold_columns

use crate::batch::{Batch, ColumnarBatch, RoundKey};
use ldp_fo::OracleHandle;
use std::collections::HashMap;

/// One worker's view of one round: a partition of the support counts.
#[derive(Debug)]
pub struct ShardAccumulator {
    key: RoundKey,
    oracle: OracleHandle,
    tally: ShardTally,
}

/// The mergeable outcome of one shard (or of the whole round, after
/// merging every shard).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTally {
    /// Raw per-cell support counts.
    pub support: Vec<u64>,
    /// Reports folded in.
    pub reporters: u64,
    /// Refusals observed.
    pub refusals: u64,
    /// Responses dropped for echoing a wrong round id. The session
    /// manager validates ids before dispatch, so nonzero means a late
    /// message slipped a session's validation — counted, never tallied.
    pub stale: u64,
}

impl ShardTally {
    /// An empty tally over a domain of `d` cells.
    pub fn empty(d: usize) -> Self {
        ShardTally {
            support: vec![0; d],
            reporters: 0,
            refusals: 0,
            stale: 0,
        }
    }

    /// Merge another shard's tally into this one.
    pub fn merge(&mut self, other: &ShardTally) {
        assert_eq!(
            self.support.len(),
            other.support.len(),
            "merging tallies of different domains"
        );
        for (a, b) in self.support.iter_mut().zip(&other.support) {
            *a += b;
        }
        self.reporters += other.reporters;
        self.refusals += other.refusals;
        self.stale += other.stale;
    }
}

impl ShardAccumulator {
    /// A fresh shard for `key`, folding through `oracle`.
    pub fn new(key: RoundKey, oracle: OracleHandle) -> Self {
        let d = oracle.domain_size();
        Self::with_tally(key, oracle, ShardTally::empty(d))
    }

    /// A shard pre-seeded with `tally` — how recovery re-injects a
    /// round's replayed support counts into the pool (merging is
    /// commutative, so seeding one shard with the whole recovered tally
    /// is exact).
    pub fn with_tally(key: RoundKey, oracle: OracleHandle, tally: ShardTally) -> Self {
        assert_eq!(
            tally.support.len(),
            oracle.domain_size(),
            "seed tally domain mismatch"
        );
        ShardAccumulator { key, oracle, tally }
    }

    /// The counts folded so far (used by snapshot checkpoints).
    pub fn tally(&self) -> &ShardTally {
        &self.tally
    }

    /// Fold one columnar batch into the shard through the round
    /// oracle's batched kernels.
    ///
    /// Bit-identical to submitting the batch's source responses to the
    /// sequential `AggregationServer` one at a time: the kernels reorder
    /// only u64 additions, leftovers take the oracle's lenient scalar
    /// path (the release-mode semantics of `accumulate`), and the
    /// counter bookkeeping matches the per-response accounting exactly
    /// — a whole batch validated against a different round id counts
    /// every carried response as stale, tallying nothing.
    pub fn fold_columns(&mut self, batch: &ColumnarBatch) {
        if batch.round() != self.key.round {
            self.tally.stale += batch.responses();
            return;
        }
        self.oracle
            .accumulate_columns(batch.columns(), &mut self.tally.support);
        for report in batch.leftovers() {
            self.oracle
                .accumulate_lenient(report, &mut self.tally.support);
        }
        self.tally.reporters += batch.reports();
        self.tally.refusals += batch.refusals();
        self.tally.stale += batch.stale();
    }

    /// Finish the shard, yielding its tally.
    pub fn into_tally(self) -> ShardTally {
        self.tally
    }
}

/// One worker's round-state arena: every open round's accumulator,
/// keyed by [`RoundKey`], with each round's support buffer reused
/// across all of its batches (allocation happens once per round per
/// worker, not per batch — the columnar kernels themselves fold with
/// zero heap traffic).
#[derive(Debug, Default)]
pub struct ShardArena {
    rounds: HashMap<RoundKey, ShardAccumulator>,
}

impl ShardArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open rounds currently holding state in this arena.
    pub fn open_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Fold one batch, lazily creating the round's accumulator from the
    /// oracle the batch carries.
    pub fn ingest(&mut self, batch: Batch) {
        self.rounds
            .entry(batch.key)
            .or_insert_with(|| ShardAccumulator::new(batch.key, batch.oracle.clone()))
            .fold_columns(&batch.columns);
    }

    /// Finish a round, yielding this shard's tally — empty when none of
    /// the round's batches landed here.
    pub fn close(&mut self, key: RoundKey, domain_size: usize) -> ShardTally {
        self.rounds
            .remove(&key)
            .map(ShardAccumulator::into_tally)
            .unwrap_or_else(|| ShardTally::empty(domain_size))
    }

    /// Clone the current tally of each requested round *without*
    /// finishing it (snapshot support).
    pub fn checkpoint(&self, keys: &[(RoundKey, usize)]) -> Vec<ShardTally> {
        keys.iter()
            .map(|&(key, domain_size)| {
                self.rounds
                    .get(&key)
                    .map(|s| s.tally().clone())
                    .unwrap_or_else(|| ShardTally::empty(domain_size))
            })
            .collect()
    }

    /// Install a pre-filled accumulator for a recovered round.
    pub fn seed(&mut self, key: RoundKey, oracle: OracleHandle, tally: ShardTally) {
        self.rounds
            .insert(key, ShardAccumulator::with_tally(key, oracle, tally));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SessionId;
    use ldp_fo::{build_oracle, FoKind, Report};
    use ldp_ids::protocol::{AggregationServer, UserResponse};
    use ldp_ids::CoreError;

    fn key() -> RoundKey {
        RoundKey {
            session: SessionId::from_raw(1),
            round: 3,
        }
    }

    /// Fold `responses` into a fresh shard of round 3 as one batch.
    fn folded(oracle: &OracleHandle, responses: &[UserResponse]) -> ShardTally {
        let mut shard = ShardAccumulator::new(key(), oracle.clone());
        shard.fold_columns(&ColumnarBatch::encode(
            oracle.kind(),
            oracle.domain_size(),
            3,
            responses,
        ));
        shard.into_tally()
    }

    /// The reference: the sequential server, advanced to round 3 and
    /// fed one response at a time. Its `StaleRound` errors are the
    /// stale count; anything else must be accepted.
    fn assert_matches_sequential(
        tally: &ShardTally,
        oracle: &OracleHandle,
        responses: &[UserResponse],
    ) {
        let mut server = AggregationServer::new();
        for _ in 0..3 {
            server.open_round(0, oracle.kind(), 1.0, oracle.clone());
            server.close_round().unwrap();
        }
        server.open_round(0, oracle.kind(), 1.0, oracle.clone());
        let mut stale = 0;
        for response in responses {
            match server.submit(response) {
                Ok(()) => {}
                Err(CoreError::StaleRound { .. }) => stale += 1,
                Err(e) => panic!("sequential server rejected {response:?}: {e}"),
            }
        }
        let reference = server.close_round().unwrap();
        let bits = |f: &[f64]| f.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&oracle.estimate(&tally.support, tally.reporters)),
            bits(&reference.frequencies)
        );
        assert_eq!(tally.reporters, reference.reporters);
        assert_eq!(tally.refusals, server.refusals());
        assert_eq!(tally.stale, stale);
    }

    #[test]
    fn folds_reports_and_refusals() {
        let oracle = build_oracle(FoKind::Grr, 8.0, 3).unwrap();
        let responses = [
            UserResponse::Report {
                round: 3,
                report: Report::Grr(1),
            },
            UserResponse::Refused {
                round: 3,
                requested: 1.0,
                available: 0.0,
            },
        ];
        let tally = folded(&oracle, &responses);
        assert_eq!(tally.reporters, 1);
        assert_eq!(tally.refusals, 1);
        assert_eq!(tally.support, vec![0, 1, 0]);
        assert_matches_sequential(&tally, &oracle, &responses);
    }

    #[test]
    fn stale_responses_counted_not_tallied() {
        let oracle = build_oracle(FoKind::Grr, 8.0, 3).unwrap();
        let responses = [UserResponse::Report {
            round: 99,
            report: Report::Grr(1),
        }];
        let tally = folded(&oracle, &responses);
        assert_eq!(tally.stale, 1);
        assert_eq!(tally.reporters, 0);
        assert_eq!(tally.support, vec![0, 0, 0]);
        assert_matches_sequential(&tally, &oracle, &responses);
    }

    #[test]
    fn merge_adds_cellwise() {
        let mut a = ShardTally {
            support: vec![1, 2],
            reporters: 3,
            refusals: 1,
            stale: 0,
        };
        let b = ShardTally {
            support: vec![10, 20],
            reporters: 30,
            refusals: 0,
            stale: 2,
        };
        a.merge(&b);
        assert_eq!(a.support, vec![11, 22]);
        assert_eq!(a.reporters, 33);
        assert_eq!(a.refusals, 1);
        assert_eq!(a.stale, 2);
    }

    #[test]
    #[should_panic(expected = "different domains")]
    fn merge_rejects_mismatched_domains() {
        let mut a = ShardTally::empty(2);
        a.merge(&ShardTally::empty(3));
    }

    #[test]
    fn fold_columns_matches_per_response_fold() {
        let oracle = build_oracle(FoKind::Grr, 1.0, 5).unwrap();
        let responses: Vec<UserResponse> = (0..20)
            .map(|i| {
                if i % 7 == 0 {
                    UserResponse::Refused {
                        round: 3,
                        requested: 1.0,
                        available: 0.0,
                    }
                } else {
                    UserResponse::Report {
                        round: 3,
                        report: Report::Grr(i % 5),
                    }
                }
            })
            .collect();
        let tally = folded(&oracle, &responses);
        assert_eq!(tally.reporters + tally.refusals, 20);
        assert_matches_sequential(&tally, &oracle, &responses);
    }

    #[test]
    fn fold_columns_counts_whole_stale_batch() {
        let oracle = build_oracle(FoKind::Grr, 1.0, 3).unwrap();
        let responses = vec![
            UserResponse::Report {
                round: 9,
                report: Report::Grr(1),
            },
            UserResponse::Refused {
                round: 9,
                requested: 1.0,
                available: 0.0,
            },
        ];
        // The batch self-validates against round 9; the shard owns
        // round 3, so everything the batch carries counts as stale.
        let batch = ColumnarBatch::encode(FoKind::Grr, 3, 9, &responses);
        let mut shard = ShardAccumulator::new(key(), oracle);
        shard.fold_columns(&batch);
        let tally = shard.into_tally();
        assert_eq!(tally.stale, 2);
        assert_eq!(tally.reporters, 0);
        assert_eq!(tally.refusals, 0);
        assert_eq!(tally.support, vec![0, 0, 0]);
    }

    #[test]
    fn arena_lifecycle() {
        let oracle = build_oracle(FoKind::Grr, 8.0, 3).unwrap();
        let mut arena = ShardArena::new();
        let responses: Vec<UserResponse> = (0..10)
            .map(|_| UserResponse::Report {
                round: 3,
                report: Report::Grr(1),
            })
            .collect();
        arena.ingest(Batch::encode(key(), &oracle, responses.clone()));
        arena.ingest(Batch::encode(key(), &oracle, responses));
        assert_eq!(arena.open_rounds(), 1);
        let mid = arena.checkpoint(&[(key(), 3)]);
        assert_eq!(mid[0].reporters, 20);
        assert_eq!(arena.open_rounds(), 1, "checkpoint does not consume");
        let tally = arena.close(key(), 3);
        assert_eq!(tally.reporters, 20);
        assert_eq!(tally.support, vec![0, 20, 0]);
        assert_eq!(arena.open_rounds(), 0);
        assert_eq!(arena.close(key(), 3).reporters, 0, "re-close is empty");
        arena.seed(key(), oracle, tally);
        assert_eq!(arena.close(key(), 3).reporters, 20);
    }
}
