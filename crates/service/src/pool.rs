//! The worker pool: `std::thread` workers fed by bounded channels.
//!
//! Each worker owns a [`ShardArena`] of shard accumulators and drains
//! its own inbox, so no locks sit on the fold path and every batch
//! folds through the oracle's columnar kernels. Dispatch is round-robin over workers;
//! the inboxes are bounded (`inbox_depth` batches), so a producer that
//! outruns the shards blocks on `send` — backpressure, not unbounded
//! queue growth.
//!
//! Workers create a round's shard accumulator lazily from the first
//! batch they see for it (every batch carries the round oracle), so
//! opening a round touches no channel at all. Channel FIFO ordering per
//! worker gives the only ordering guarantee the protocol then needs: a
//! round's `Close` is enqueued after the caller's last batch for that
//! round, so each worker replies only after folding everything it was
//! handed.

use crate::batch::{Batch, RoundKey};
use crate::shard::{ShardArena, ShardTally};
use ldp_obs::Gauge;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

enum WorkerMsg {
    /// Fold one batch (sent to exactly one worker).
    Ingest(Batch),
    /// Finish the round and reply with this worker's tally — possibly
    /// empty, when none of the round's batches landed here (broadcast).
    Close {
        key: RoundKey,
        domain_size: usize,
        reply: mpsc::Sender<ShardTally>,
    },
    /// Reply with a clone of this worker's current tally for each key,
    /// *without* finishing the rounds (broadcast; snapshot support).
    /// FIFO queue order makes the reply reflect every batch dispatched
    /// to this worker before the checkpoint was requested.
    Checkpoint {
        keys: Vec<(RoundKey, usize)>,
        reply: mpsc::Sender<Vec<ShardTally>>,
    },
    /// Install a pre-filled accumulator for a recovered round (sent to
    /// exactly one worker; merging is commutative so one shard may carry
    /// the entire recovered tally).
    Seed {
        key: RoundKey,
        oracle: ldp_fo::OracleHandle,
        tally: ShardTally,
    },
}

/// A fixed set of shard workers.
#[derive(Debug)]
pub struct WorkerPool {
    senders: Vec<mpsc::SyncSender<WorkerMsg>>,
    handles: Vec<JoinHandle<()>>,
    cursor: AtomicUsize,
    depth: Vec<Arc<Gauge>>,
}

impl WorkerPool {
    /// Spawn `threads` workers with inboxes bounded at `inbox_depth`
    /// batches each. Queue depths go to private, unregistered gauges;
    /// see [`WorkerPool::new_observed`].
    pub fn new(threads: usize, inbox_depth: usize) -> Self {
        WorkerPool::new_observed(threads, inbox_depth, Vec::new())
    }

    /// [`WorkerPool::new`] publishing per-shard queue depth into
    /// `depth` (one gauge per worker; missing entries get private
    /// gauges, extras are ignored).
    pub fn new_observed(threads: usize, inbox_depth: usize, depth: Vec<Arc<Gauge>>) -> Self {
        let threads = threads.max(1);
        let mut depth = depth;
        depth.truncate(threads);
        while depth.len() < threads {
            depth.push(Gauge::arc());
        }
        let mut senders = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for (worker, gauge) in depth.iter().enumerate() {
            let (tx, rx) = mpsc::sync_channel::<WorkerMsg>(inbox_depth.max(1));
            let gauge = Arc::clone(gauge);
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("ldp-shard-{worker}"))
                    .spawn(move || worker_loop(rx, gauge))
                    .expect("spawn shard worker"),
            );
        }
        WorkerPool {
            senders,
            handles,
            cursor: AtomicUsize::new(0),
            depth,
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.senders.len()
    }

    /// Hand one batch to the next worker (round-robin). Blocks when that
    /// worker's inbox is full.
    pub fn dispatch(&self, batch: Batch) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed) % self.senders.len();
        // Counted before the (possibly blocking) send so a full inbox
        // shows up as depth > inbox_depth while the producer waits.
        self.depth[i].inc();
        self.senders[i]
            .send(WorkerMsg::Ingest(batch))
            .expect("shard worker alive");
    }

    /// Close a round on every worker and merge their tallies.
    ///
    /// Must happen-after every `dispatch` for the round (the session
    /// layer's sequential round lifecycle guarantees this); the merge is
    /// commutative integer addition, so reply arrival order cannot
    /// change the result.
    pub fn close_round(&self, key: RoundKey, domain_size: usize) -> ShardTally {
        let (reply_tx, reply_rx) = mpsc::channel();
        for tx in &self.senders {
            tx.send(WorkerMsg::Close {
                key,
                domain_size,
                reply: reply_tx.clone(),
            })
            .expect("shard worker alive");
        }
        drop(reply_tx);
        let mut merged = ShardTally::empty(domain_size);
        for _ in 0..self.senders.len() {
            let tally = reply_rx.recv().expect("shard worker replies");
            merged.merge(&tally);
        }
        merged
    }

    /// Snapshot the in-flight tallies of several open rounds at once:
    /// every worker replies with its current (cloned) tally per key and
    /// keeps accumulating. Blocks until all workers reply, so the merged
    /// result reflects exactly the batches dispatched before this call —
    /// the consistent cut a durability snapshot needs.
    pub fn checkpoint(&self, keys: &[(RoundKey, usize)]) -> Vec<ShardTally> {
        let (reply_tx, reply_rx) = mpsc::channel();
        for tx in &self.senders {
            tx.send(WorkerMsg::Checkpoint {
                keys: keys.to_vec(),
                reply: reply_tx.clone(),
            })
            .expect("shard worker alive");
        }
        drop(reply_tx);
        let mut merged: Vec<ShardTally> = keys
            .iter()
            .map(|&(_, domain_size)| ShardTally::empty(domain_size))
            .collect();
        for _ in 0..self.senders.len() {
            let tallies = reply_rx.recv().expect("shard worker replies");
            for (acc, tally) in merged.iter_mut().zip(&tallies) {
                acc.merge(tally);
            }
        }
        merged
    }

    /// Install a recovered round's tally on one worker. Subsequent
    /// batches and the eventual close merge on top of it.
    pub fn seed(&self, key: RoundKey, oracle: ldp_fo::OracleHandle, tally: ShardTally) {
        self.senders[0]
            .send(WorkerMsg::Seed { key, oracle, tally })
            .expect("shard worker alive");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Disconnect the inboxes; workers drain and exit.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: mpsc::Receiver<WorkerMsg>, depth: Arc<Gauge>) {
    let mut arena = ShardArena::new();
    while let Ok(msg) = rx.recv() {
        match msg {
            WorkerMsg::Ingest(batch) => {
                arena.ingest(batch);
                depth.dec();
            }
            WorkerMsg::Close {
                key,
                domain_size,
                reply,
            } => {
                // A worker that was never handed one of the round's
                // batches replies with an empty tally. The session
                // manager may also have shut down mid-close; a dead
                // reply channel is not this worker's problem.
                let _ = reply.send(arena.close(key, domain_size));
            }
            WorkerMsg::Checkpoint { keys, reply } => {
                let _ = reply.send(arena.checkpoint(&keys));
            }
            WorkerMsg::Seed { key, oracle, tally } => arena.seed(key, oracle, tally),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RoundKey;
    use crate::session::SessionId;
    use ldp_fo::{build_oracle, FoKind, Report};
    use ldp_ids::protocol::UserResponse;

    fn key(round: u64) -> RoundKey {
        RoundKey {
            session: SessionId::from_raw(0),
            round,
        }
    }

    fn reports(round: u64, value: u32, n: usize) -> Vec<UserResponse> {
        (0..n)
            .map(|_| UserResponse::Report {
                round,
                report: Report::Grr(value),
            })
            .collect()
    }

    #[test]
    fn tallies_across_workers_merge() {
        let pool = WorkerPool::new(4, 2);
        let oracle = build_oracle(FoKind::Grr, 8.0, 3).unwrap();
        for _ in 0..10 {
            pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 1, 100)));
        }
        let tally = pool.close_round(key(0), 3);
        assert_eq!(tally.reporters, 1000);
        // ε = 8 GRR keeps nearly all reports truthful; all support mass
        // concentrates near cell 1 either way, but the *total* is exact.
        assert_eq!(tally.support.iter().sum::<u64>(), 1000);
        assert_eq!(tally.stale, 0);
    }

    #[test]
    fn concurrent_rounds_stay_separate() {
        let pool = WorkerPool::new(2, 4);
        let oracle = build_oracle(FoKind::Grr, 8.0, 2).unwrap();
        pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 0, 7)));
        pool.dispatch(Batch::encode(key(1), &oracle, reports(1, 1, 5)));
        let t0 = pool.close_round(key(0), 2);
        let t1 = pool.close_round(key(1), 2);
        assert_eq!(t0.reporters, 7);
        assert_eq!(t1.reporters, 5);
    }

    #[test]
    fn single_worker_pool_works() {
        let pool = WorkerPool::new(1, 1);
        let oracle = build_oracle(FoKind::Grr, 8.0, 2).unwrap();
        pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 0, 3)));
        assert_eq!(pool.close_round(key(0), 2).reporters, 3);
    }

    #[test]
    fn checkpoint_observes_without_consuming() {
        let pool = WorkerPool::new(3, 2);
        let oracle = build_oracle(FoKind::Grr, 8.0, 3).unwrap();
        for _ in 0..6 {
            pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 2, 50)));
        }
        let mid = pool.checkpoint(&[(key(0), 3)]);
        assert_eq!(mid.len(), 1);
        assert_eq!(mid[0].reporters, 300, "checkpoint sees all prior batches");
        // The round keeps accumulating and still closes with everything.
        pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 2, 10)));
        assert_eq!(pool.close_round(key(0), 3).reporters, 310);
    }

    #[test]
    fn seeded_tally_merges_into_close() {
        let pool = WorkerPool::new(2, 2);
        let oracle = build_oracle(FoKind::Grr, 8.0, 2).unwrap();
        let seed = ShardTally {
            support: vec![40, 2],
            reporters: 42,
            refusals: 1,
            stale: 0,
        };
        pool.seed(key(0), oracle.clone(), seed);
        pool.dispatch(Batch::encode(key(0), &oracle, reports(0, 0, 8)));
        let tally = pool.close_round(key(0), 2);
        assert_eq!(tally.reporters, 50);
        assert_eq!(tally.refusals, 1);
        assert_eq!(tally.support.iter().sum::<u64>(), 50);
    }

    #[test]
    fn closing_an_undispatched_round_yields_empty_tally() {
        let pool = WorkerPool::new(3, 1);
        let tally = pool.close_round(key(9), 4);
        assert_eq!(tally.reporters, 0);
        assert_eq!(tally.support, vec![0; 4]);
    }
}
