//! Batching: the unit of work handed to pool workers.
//!
//! Batches are **columnar**: at dispatch the session manager packs a
//! slice of the round's response stream into [`ColumnarBatch`] —
//! contiguous value/bit/seed/bucket arrays plus plain counters for
//! refusals and stale traffic — so a worker folds each batch through
//! the oracle's column kernels with zero per-report allocation. The
//! encoding is lossy only in representation, not in tallies: folding a
//! columnar batch is bit-identical to folding its source responses one
//! at a time (see `ShardAccumulator::fold_columns`).

use crate::codec::{take_response_count, Cursor};
use crate::machine::SessionId;
use crate::wal::WalSync;
use ldp_fo::{FoKind, OracleHandle, Report, ReportColumns};
use ldp_ids::protocol::UserResponse;

/// Identifies one collection round of one session — the key under which
/// every worker keeps that round's shard accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RoundKey {
    /// The owning session.
    pub session: SessionId,
    /// The session-local round id.
    pub round: u64,
}

/// One round's slice of responses, encoded into contiguous columns.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarBatch {
    round: u64,
    columns: ReportColumns,
    /// Reports the column layout couldn't hold (wrong-kind or malformed
    /// OUE payloads); folded through the oracle's lenient scalar path.
    leftovers: Vec<Report>,
    refusals: u64,
    stale: u64,
    /// The round the first stale response echoed.
    first_stale: Option<u64>,
}

impl ColumnarBatch {
    /// Encode `responses` for a round identified by `round`, packing
    /// reports of `kind` over a domain of `domain_size` values.
    ///
    /// Responses echoing a different round id are counted as stale here
    /// (the session manager validates ids before dispatch, so nonzero
    /// stale means a late message slipped validation) — exactly the
    /// accounting the sequential server's per-response fold performs.
    pub fn encode(
        kind: FoKind,
        domain_size: usize,
        round: u64,
        responses: &[UserResponse],
    ) -> Self {
        let mut batch = ColumnarBatch::empty(kind, domain_size, round, responses.len());
        for response in responses {
            match response {
                UserResponse::Report { round: r, report } => {
                    if batch.echoes(*r) && !batch.columns.try_push(report, domain_size) {
                        batch.leftovers.push(report.clone());
                    }
                }
                UserResponse::Refused { round: r, .. } => {
                    if batch.echoes(*r) {
                        batch.refusals += 1;
                    }
                }
            }
        }
        batch
    }

    /// Decode the responses [`put_responses`] wrote — a `Reports`
    /// record's or a submit frame's — straight into columns: what
    /// `ColumnarBatch::encode(kind, domain_size, round,
    /// &take_responses(cur)?)` returns, without a [`UserResponse`] (or, for
    /// OUE, a heap vector per report) in between. It reads what
    /// [`take_responses`] reads and refuses what it refuses: a forged
    /// count, a truncated row, an unknown tag.
    ///
    /// [`put_responses`]: crate::codec::put_responses
    /// [`take_responses`]: crate::codec::take_responses
    pub fn decode(
        kind: FoKind,
        domain_size: usize,
        round: u64,
        cur: &mut Cursor<'_>,
    ) -> Result<Self, String> {
        let n = take_response_count(cur)?;
        // Room for the rows the bytes can hold, not for the rows the
        // count claims: an OUE row of the column's shape is wider than
        // the smallest response the count was checked against.
        let words = domain_size.div_ceil(64);
        let row_bytes = match kind {
            FoKind::Oue => 18 + 8 * words,
            FoKind::Olh => 22,
            FoKind::Grr | FoKind::Adaptive => 14,
        };
        let mut batch =
            ColumnarBatch::empty(kind, domain_size, round, n.min(cur.remaining() / row_bytes));
        for _ in 0..n {
            let tag = cur.u8()?;
            let fresh = batch.echoes(cur.u64()?);
            match tag {
                0 => batch.decode_report(cur, domain_size, fresh)?,
                1 => {
                    cur.bytes(16)?; // requested, available
                    batch.refusals += u64::from(fresh);
                }
                tag => return Err(format!("unknown response tag {tag}")),
            }
        }
        Ok(batch)
    }

    /// One `put_report` row: into the columns when it has their shape,
    /// into the leftovers when not, nowhere when its response was stale.
    fn decode_report(
        &mut self,
        cur: &mut Cursor<'_>,
        domain_size: usize,
        fresh: bool,
    ) -> Result<(), String> {
        match cur.u8()? {
            0 => {
                let v = cur.u32()?;
                match &mut self.columns {
                    _ if !fresh => {}
                    ReportColumns::Grr { values } => values.push(v),
                    _ => self.leftovers.push(Report::Grr(v)),
                }
            }
            1 => {
                let len = cur.u32()?;
                let words = cur.u32()? as usize;
                if words > cur.remaining() / 8 {
                    return Err(format!(
                        "OUE word count {words} exceeds the {} bytes left",
                        cur.remaining()
                    ));
                }
                let row = cur.bytes(8 * words)?.chunks_exact(8);
                let row =
                    row.map(|word| u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
                match &mut self.columns {
                    _ if !fresh => {}
                    ReportColumns::Oue { words: column, .. }
                        if len as usize == domain_size && words == domain_size.div_ceil(64) =>
                    {
                        column.extend(row)
                    }
                    _ => self.leftovers.push(Report::Oue {
                        bits: row.collect(),
                        len,
                    }),
                }
            }
            2 => {
                let (seed, bucket) = (cur.u64()?, cur.u32()?);
                match &mut self.columns {
                    _ if !fresh => {}
                    ReportColumns::Olh { seeds, buckets } => {
                        seeds.push(seed);
                        buckets.push(bucket);
                    }
                    _ => self.leftovers.push(Report::Olh { seed, bucket }),
                }
            }
            tag => return Err(format!("unknown report tag {tag}")),
        }
        Ok(())
    }

    fn empty(kind: FoKind, domain_size: usize, round: u64, capacity: usize) -> Self {
        ColumnarBatch {
            round,
            columns: ReportColumns::for_kind(kind, domain_size, capacity),
            leftovers: Vec::new(),
            refusals: 0,
            stale: 0,
            first_stale: None,
        }
    }

    /// Whether a response echoing `round` belongs to this batch's round;
    /// one that does not is counted stale.
    fn echoes(&mut self, round: u64) -> bool {
        if round != self.round {
            self.stale += 1;
            self.first_stale.get_or_insert(round);
        }
        round == self.round
    }

    /// The round id every packed response was validated against.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The packed report columns.
    pub fn columns(&self) -> &ReportColumns {
        &self.columns
    }

    /// Reports that fell out of the column layout.
    pub fn leftovers(&self) -> &[Report] {
        &self.leftovers
    }

    /// Reports carried (columnar rows plus leftovers).
    pub fn reports(&self) -> u64 {
        (self.columns.len() + self.leftovers.len()) as u64
    }

    /// Refusals carried.
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Responses dropped at encode time for echoing a wrong round id.
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// The round the first response counted stale echoed: `None` exactly
    /// when every response echoed [`round`](Self::round).
    pub(crate) fn first_stale(&self) -> Option<u64> {
        self.first_stale
    }

    /// Total responses the batch was encoded from.
    pub fn responses(&self) -> u64 {
        self.reports() + self.refusals + self.stale
    }

    /// Whether the batch carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.responses() == 0
    }
}

/// One dispatched slice of a round's response stream.
#[derive(Debug)]
pub struct Batch {
    /// Which round the responses belong to.
    pub key: RoundKey,
    /// The round oracle (a shared handle): workers create their shard
    /// accumulator lazily from the first batch they see for a round, so
    /// no open-broadcast has to cut ahead of other rounds' traffic.
    pub oracle: OracleHandle,
    /// The responses (already validated against the open round by the
    /// session manager), packed into columns.
    pub columns: ColumnarBatch,
}

impl Batch {
    /// Encode `responses` into a columnar batch for `key`, folding
    /// through `oracle`.
    pub fn encode(key: RoundKey, oracle: &OracleHandle, responses: Vec<UserResponse>) -> Self {
        Batch {
            key,
            oracle: oracle.clone(),
            columns: ColumnarBatch::encode(
                oracle.kind(),
                oracle.domain_size(),
                key.round,
                &responses,
            ),
        }
    }
}

/// Sizing knobs of the ingestion service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads (shards). At least 1.
    pub threads: usize,
    /// Responses per delta a [`ServiceSink`](crate::ServiceSink) hands
    /// the service, which dispatches each accepted delta as one batch and
    /// re-chunks nothing. Larger deltas amortize locking and channel
    /// overhead; smaller ones spread a short round across more shards.
    pub batch_size: usize,
    /// Bound of each worker's inbox, in batches. When every inbox is
    /// full, `submit` blocks — backpressure against unbounded arrival.
    pub queue_depth: usize,
    /// Fsync discipline of the write-ahead log. Only meaningful for a
    /// service opened durably ([`IngestService::open`]); ignored by
    /// [`IngestService::new`].
    ///
    /// [`IngestService::open`]: crate::IngestService::open
    /// [`IngestService::new`]: crate::IngestService::new
    pub sync: WalSync,
    /// WAL records between automatic tally snapshots (which also rotate
    /// the WAL, bounding replay cost on restart). `0` disables automatic
    /// snapshots; [`IngestService::checkpoint`] still snapshots on
    /// demand. Only meaningful for a durable service.
    ///
    /// [`IngestService::checkpoint`]: crate::IngestService::checkpoint
    pub snapshot_every: u64,
}

impl ServiceConfig {
    /// Default sizing for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ServiceConfig {
            threads: threads.max(1),
            ..Self::default()
        }
    }

    /// Override the batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Override the WAL fsync discipline.
    pub fn with_sync(mut self, sync: WalSync) -> Self {
        self.sync = sync;
        self
    }

    /// Override the automatic snapshot cadence (WAL records between
    /// snapshots; 0 disables).
    pub fn with_snapshot_every(mut self, snapshot_every: u64) -> Self {
        self.snapshot_every = snapshot_every;
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            batch_size: 4096,
            queue_depth: 8,
            sync: WalSync::Batch,
            snapshot_every: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{put_responses, take_responses};
    use ldp_fo::build_oracle;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ROUND: u64 = 5;

    /// An honest round's reports of `kind` over `d` values, with what no
    /// honest client sends mixed in: refusals, stale echoes, the other
    /// oracles' reports, and OUE rows of the wrong length or word count
    /// (the leftovers).
    fn mixed_stream(kind: FoKind, d: usize, n: usize, seed: u64) -> Vec<UserResponse> {
        let oracle = build_oracle(kind, 1.0, d).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let words = d.div_ceil(64);
        let response = |rng: &mut StdRng| {
            let round = match rng.gen_range(0..8) {
                0 => ROUND + rng.gen_range(1..4u64),
                _ => ROUND,
            };
            let report = match rng.gen_range(0..16) {
                0 => {
                    return UserResponse::Refused {
                        round,
                        requested: rng.gen(),
                        available: rng.gen(),
                    }
                }
                1 => Report::Grr(rng.gen()),
                2 => Report::Olh {
                    seed: rng.gen(),
                    bucket: rng.gen(),
                },
                3 => Report::Oue {
                    bits: (0..words).map(|_| rng.gen()).collect(),
                    len: d as u32,
                },
                4 => Report::Oue {
                    bits: (0..rng.gen_range(0..words + 3))
                        .map(|_| rng.gen())
                        .collect(),
                    len: d as u32,
                },
                5 => Report::Oue {
                    bits: (0..words).map(|_| rng.gen()).collect(),
                    len: rng.gen_range(0..2 * d as u32),
                },
                _ => oracle.perturb(rng.gen_range(0..d), rng),
            };
            UserResponse::Report { round, report }
        };
        (0..n).map(|_| response(&mut rng)).collect()
    }

    /// What `decode` is defined as: the row decoder, then `encode`.
    fn rows_then_encode(kind: FoKind, d: usize, bytes: &[u8]) -> Result<ColumnarBatch, String> {
        let mut cur = Cursor::new(bytes);
        let rows = take_responses(&mut cur)?;
        cur.finish()?;
        Ok(ColumnarBatch::encode(kind, d, ROUND, &rows))
    }

    fn decode(kind: FoKind, d: usize, bytes: &[u8]) -> Result<ColumnarBatch, String> {
        let mut cur = Cursor::new(bytes);
        let batch = ColumnarBatch::decode(kind, d, ROUND, &mut cur)?;
        cur.finish()?;
        Ok(batch)
    }

    proptest! {
        /// `decode(bytes) == encode(take_responses(bytes))`, columns,
        /// leftovers and counters, and every prefix of the bytes is
        /// refused by both or by neither.
        #[test]
        fn decode_is_encode_of_the_row_decoders_rows(
            kind in proptest::sample::select(&[FoKind::Grr, FoKind::Oue, FoKind::Olh]),
            d in proptest::sample::select(&[5usize, 64, 100, 128, 1024]),
            n in 0usize..24,
            seed in any::<u64>(),
        ) {
            let responses = mixed_stream(kind, d, n, seed);
            let mut bytes = Vec::new();
            put_responses(&mut bytes, &responses);
            let want = ColumnarBatch::encode(kind, d, ROUND, &responses);
            prop_assert_eq!(decode(kind, d, &bytes), Ok(want));
            for cut in 0..bytes.len() {
                let (rows, columns) = (
                    rows_then_encode(kind, d, &bytes[..cut]),
                    decode(kind, d, &bytes[..cut]),
                );
                prop_assert!(rows.is_err() && columns.is_err(), "cut at {}", cut);
            }
        }

        /// Forged input: overwrite a few bytes anywhere — counts, tags,
        /// word counts, rounds — and the two decoders still agree, on
        /// the refusal or on the batch. Neither panics.
        #[test]
        fn decode_refuses_what_the_row_decoder_refuses(
            kind in proptest::sample::select(&[FoKind::Grr, FoKind::Oue, FoKind::Olh]),
            d in proptest::sample::select(&[5usize, 64, 100, 128, 1024]),
            n in 1usize..24,
            seed in any::<u64>(),
        ) {
            let mut bytes = Vec::new();
            put_responses(&mut bytes, &mixed_stream(kind, d, n, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..32 {
                let mut forged = bytes.clone();
                for _ in 0..rng.gen_range(1..4) {
                    // Small values land on tags and counts that decode.
                    let at = rng.gen_range(0..forged.len());
                    forged[at] = if rng.gen() { rng.gen_range(0..4) } else { rng.gen() };
                }
                let (rows, columns) = (rows_then_encode(kind, d, &forged), decode(kind, d, &forged));
                prop_assert_eq!(rows.is_err(), columns.is_err(), "{:?} vs {:?}", rows, columns);
                if let (Ok(rows), Ok(columns)) = (rows, columns) {
                    prop_assert_eq!(rows, columns);
                }
            }
        }

        /// The licence to log a delta as it was received: the row codec
        /// is a bijection on what it accepts. Whatever bytes
        /// `take_responses` reads to their end — honest, or forged and
        /// still decodable — `put_responses` of the rows writes back
        /// exactly, so the record `submit_encoded_at` appends is the one
        /// `WalRecord::Reports { .. }.encode()` of the decoded rows is.
        #[test]
        fn put_responses_reproduces_every_accepted_byte_string(
            kind in proptest::sample::select(&[FoKind::Grr, FoKind::Oue, FoKind::Olh]),
            d in proptest::sample::select(&[5usize, 64, 100, 128, 1024]),
            n in 0usize..24,
            seed in any::<u64>(),
        ) {
            let mut honest = Vec::new();
            put_responses(&mut honest, &mixed_stream(kind, d, n, seed));
            let mut rng = StdRng::seed_from_u64(seed);
            let forgeries = (0..32).map(|_| {
                let mut forged = honest.clone();
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..forged.len());
                    forged[at] = if rng.gen() { rng.gen_range(0..4) } else { rng.gen() };
                }
                forged
            });
            let mut accepted = 0;
            for bytes in std::iter::once(honest.clone()).chain(forgeries) {
                let mut cur = Cursor::new(&bytes);
                let Ok(rows) = take_responses(&mut cur).and_then(|rows| cur.finish().map(|()| rows))
                else {
                    continue;
                };
                let mut again = Vec::new();
                put_responses(&mut again, &rows);
                prop_assert_eq!(&again, &bytes);
                accepted += 1;
            }
            prop_assert!(accepted >= 1, "the honest bytes are accepted");
        }
    }

    /// A count the bytes cannot hold is refused before the columns are
    /// sized for it, and a count they can hold sizes them by the bytes.
    #[test]
    fn decode_sizes_columns_by_the_bytes_not_the_count() {
        let mut forged = Vec::new();
        crate::codec::put_u32(&mut forged, u32::MAX);
        forged.extend_from_slice(&[0; 1 << 10]);
        let err = decode(FoKind::Oue, 1 << 16, &forged).unwrap_err();
        assert!(err.contains("response count"), "{err}");

        // 73 GRR-sized rows claimed for OUE columns over 65 536 values.
        let mut forged = Vec::new();
        crate::codec::put_u32(&mut forged, 73);
        forged.extend_from_slice(&[0; 73 * 14]);
        let mut cur = Cursor::new(&forged);
        let batch = ColumnarBatch::decode(FoKind::Oue, 1 << 16, 0, &mut cur).unwrap();
        assert_eq!(batch.leftovers().len(), 73);
        let ReportColumns::Oue { words, .. } = batch.columns() else {
            panic!("OUE columns")
        };
        assert_eq!(words.capacity(), 0);
    }

    #[test]
    fn with_threads_floors_at_one() {
        assert_eq!(ServiceConfig::with_threads(0).threads, 1);
        assert_eq!(ServiceConfig::with_threads(8).threads, 8);
    }

    #[test]
    fn batch_size_floors_at_one() {
        let c = ServiceConfig::with_threads(2).with_batch_size(0);
        assert_eq!(c.batch_size, 1);
    }

    #[test]
    fn encode_separates_reports_refusals_and_stale() {
        let responses = vec![
            UserResponse::Report {
                round: 3,
                report: Report::Grr(1),
            },
            UserResponse::Refused {
                round: 3,
                requested: 1.0,
                available: 0.0,
            },
            UserResponse::Report {
                round: 9,
                report: Report::Grr(0),
            },
            UserResponse::Refused {
                round: 9,
                requested: 1.0,
                available: 0.0,
            },
            // Wrong-kind report: carried as a leftover, still a report.
            UserResponse::Report {
                round: 3,
                report: Report::Olh { seed: 1, bucket: 0 },
            },
        ];
        let batch = ColumnarBatch::encode(FoKind::Grr, 4, 3, &responses);
        assert_eq!(batch.round(), 3);
        assert_eq!(batch.reports(), 2);
        assert_eq!(batch.columns().len(), 1);
        assert_eq!(batch.leftovers().len(), 1);
        assert_eq!(batch.refusals(), 1);
        assert_eq!(batch.stale(), 2);
        assert_eq!(batch.responses(), 5);
        assert!(!batch.is_empty());
        assert!(ColumnarBatch::encode(FoKind::Grr, 4, 3, &[]).is_empty());
    }
}
