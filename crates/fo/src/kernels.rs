//! Batched accumulation kernels and the columnar report layout.
//!
//! The scalar [`FrequencyOracle::accumulate`] path costs one branchy
//! increment per OUE set bit and `d` hash evaluations with a compare
//! branch per OLH report. These kernels process a whole *column* of
//! reports at once:
//!
//! * **OUE — positional popcount.** 64 reports' packed words are
//!   gathered into a 64×64 bit matrix, transposed
//!   (Hacker's Delight §7-3 swap network), and each transposed word's
//!   `count_ones()` is added to one cell — 64 reports' worth of a bit
//!   column per popcount instead of one increment per set bit.
//! * **OLH — loop inversion.** Values run in the *outer* loop over a
//!   contiguous seed/bucket column, the label multiply of
//!   `child_seed` is hoisted per value, `% g` is strength-reduced to a
//!   multiply-high (exact, see [`FastMod`]), and the compare folds in
//!   branch-free: `count += (hash == bucket) as u64`.
//!
//! GRR has no kernel of its own: a report is one bounds-checked
//! increment, which the trait's default `accumulate_columns` already
//! runs over the value column. The branch-free scatter that used to
//! live here did not beat it.
//!
//! Every kernel is **bit-identical** to folding the same reports through
//! the scalar `accumulate` in release mode: tallies are `u64` sums, and
//! u64 addition is exact, commutative, and associative, so reordering
//! the additions cannot change any count. Malformed reports follow the
//! scalar path's *release* semantics (they tally nothing or clamp) and
//! never panic, even with debug assertions on.
//!
//! [`FrequencyOracle::accumulate`]: crate::FrequencyOracle::accumulate

use crate::oracle::FoKind;
use crate::report::{iter_set_bits, Report};
use ldp_util::rng::{child_seed_premul, LABEL_MUL};

/// Transpose a 64×64 bit matrix in place (Hacker's Delight §7-3).
///
/// The swap network uses MSB-first row/column numbering, so in this
/// crate's LSB-first packing the result is the *anti*-transpose: bit `b`
/// of output word `w` is bit `63 − w` of input word `63 − b`. Callers
/// therefore read the column for bit position `j` from output word
/// `63 − j` (verified against a naive transpose in the tests below).
#[inline]
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m: u64 = 0x0000_0000_ffff_ffff;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k | j] >> j)) & m;
            a[k] ^= t;
            a[k | j] ^= t << j;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Exact strength-reduced `% g` for a fixed divisor.
///
/// With `magic = ⌊(2⁶⁴ − 1)/g⌋`, the quotient estimate
/// `q = ⌊h·magic/2⁶⁴⌋` is off by at most one below `⌊h/g⌋`, so a single
/// conditional subtract of the remainder `h − q·g` recovers `h % g`
/// exactly for every `h` — the kernel stays bit-identical to the scalar
/// path's hardware `%` while replacing a ~30-cycle division with a
/// multiply-high.
#[derive(Debug, Clone, Copy)]
pub struct FastMod {
    g: u64,
    magic: u64,
}

impl FastMod {
    /// Precompute the magic for divisor `g ≥ 1`.
    pub fn new(g: u64) -> Self {
        assert!(g >= 1, "FastMod divisor must be positive");
        FastMod {
            g,
            magic: u64::MAX / g,
        }
    }

    /// `h % g`, exactly.
    #[inline]
    #[allow(clippy::should_implement_trait)] // not an operator: a precomputed-magic helper
    pub fn rem(self, h: u64) -> u64 {
        let q = ((u128::from(h) * u128::from(self.magic)) >> 64) as u64;
        let r = h.wrapping_sub(q.wrapping_mul(self.g));
        // q ∈ {⌊h/g⌋ − 1, ⌊h/g⌋}, so r ∈ [0, 2g): one fixup suffices.
        if r >= self.g {
            r - self.g
        } else {
            r
        }
    }
}

/// Word-parallel OUE accumulation over a column of packed reports.
///
/// `words` holds `n` rows of `⌈d/64⌉` words each (row-major, the packed
/// `Report::Oue` payload laid end to end); adds each row's set bits into
/// `counts[..d]`. Bits at positions ≥ `d` are ignored, exactly as the
/// scalar path's length clamp ignores them.
pub fn oue_accumulate_columns(words: &[u64], d: usize, counts: &mut [u64]) {
    debug_assert!(counts.len() >= d);
    let wpr = d.div_ceil(64);
    if wpr == 0 || words.is_empty() {
        return;
    }
    debug_assert_eq!(words.len() % wpr, 0);
    let n = words.len() / wpr;
    let mut row = 0usize;
    while row < n {
        let block_rows = (n - row).min(64);
        let rows = &words[row * wpr..(row + block_rows) * wpr];
        for wi in 0..wpr {
            // Gather word `wi` of up to 64 consecutive reports; absent
            // tail lanes stay zero and contribute nothing.
            let mut block = [0u64; 64];
            for (lane, r) in rows.chunks_exact(wpr).enumerate() {
                block[lane] = r[wi];
            }
            transpose64(&mut block);
            let base = wi * 64;
            let lanes = (d - base).min(64);
            for (j, c) in counts[base..base + lanes].iter_mut().enumerate() {
                // Anti-transpose orientation: bit column `base + j`
                // lands in output word `63 − j` (see `transpose64`).
                *c += u64::from(block[63 - j].count_ones());
            }
        }
        row += block_rows;
    }
}

/// Inverted branch-free OLH accumulation over seed/bucket columns.
///
/// For each value `v` (outer loop), streams the contiguous seed and
/// bucket columns once, adding `(hash(seed, v) == bucket) as u64` — the
/// same support rule as the scalar path with the label multiply hoisted
/// out of the inner loop and `% g` strength-reduced ([`FastMod`]).
/// Two values share each pass so the hash chains overlap (the inner
/// loop is latency-bound on the splitmix rounds, not bandwidth-bound).
pub fn olh_accumulate_columns(seeds: &[u64], buckets: &[u32], g: u64, counts: &mut [u64]) {
    debug_assert_eq!(seeds.len(), buckets.len());
    debug_assert!(g >= 1);
    let m = FastMod::new(g);
    let mut v = 0usize;
    while v + 1 < counts.len() {
        let la = (v as u64).wrapping_mul(LABEL_MUL);
        let lb = (v as u64 + 1).wrapping_mul(LABEL_MUL);
        let mut ca = 0u64;
        let mut cb = 0u64;
        for (&seed, &bucket) in seeds.iter().zip(buckets) {
            let b = u64::from(bucket);
            ca += u64::from(m.rem(child_seed_premul(seed, la)) == b);
            cb += u64::from(m.rem(child_seed_premul(seed, lb)) == b);
        }
        counts[v] += ca;
        counts[v + 1] += cb;
        v += 2;
    }
    if v < counts.len() {
        let l = (v as u64).wrapping_mul(LABEL_MUL);
        let mut c = 0u64;
        for (&seed, &bucket) in seeds.iter().zip(buckets) {
            c += u64::from(m.rem(child_seed_premul(seed, l)) == u64::from(bucket));
        }
        counts[v] += c;
    }
}

/// Scalar OUE fold with release-mode semantics: the logical length is
/// clamped to the tally width, set bits past it are ignored, and nothing
/// panics on a malformed payload.
pub fn oue_accumulate_lenient(bits: &[u64], len: u32, counts: &mut [u64]) {
    let len = len.min(counts.len() as u32);
    for j in iter_set_bits(bits, len) {
        counts[j] += 1;
    }
}

/// Whether an OUE payload has the exact shape the column kernel packs:
/// logical length `d` and exactly `⌈d/64⌉` words.
#[inline]
pub fn oue_regular(bits: &[u64], len: u32, d: usize) -> bool {
    len as usize == d && bits.len() == d.div_ceil(64)
}

/// One column of same-kind reports, stored contiguously.
///
/// This is the layout the service's columnar batches feed to the
/// kernels through [`accumulate_columns`]: one allocation per column
/// instead of one `Vec` per OUE report, and unit-stride streams for the
/// OLH/GRR inner loops.
///
/// [`accumulate_columns`]: crate::FrequencyOracle::accumulate_columns
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportColumns {
    /// GRR value column.
    Grr {
        /// Reported value indices, one per report.
        values: Vec<u32>,
    },
    /// OUE packed-bit column.
    Oue {
        /// `⌈len/64⌉` words per report, rows laid end to end.
        words: Vec<u64>,
        /// Logical bits per report (= domain size).
        len: u32,
    },
    /// OLH seed/bucket columns.
    Olh {
        /// Hash seeds, one per report.
        seeds: Vec<u64>,
        /// Reported buckets, one per report.
        buckets: Vec<u32>,
    },
}

impl ReportColumns {
    /// An empty column set for reports of `kind` over a domain of `d`
    /// values, with room for `capacity` reports.
    ///
    /// `kind` must be concrete; [`FoKind::Adaptive`] resolves at oracle
    /// construction and never reaches a column layout (mapped to GRR
    /// columns here, under a debug assertion).
    pub fn for_kind(kind: FoKind, d: usize, capacity: usize) -> Self {
        match kind {
            FoKind::Oue => ReportColumns::Oue {
                words: Vec::with_capacity(capacity * d.div_ceil(64)),
                len: u32::try_from(d).unwrap_or(u32::MAX),
            },
            FoKind::Olh => ReportColumns::Olh {
                seeds: Vec::with_capacity(capacity),
                buckets: Vec::with_capacity(capacity),
            },
            FoKind::Grr => ReportColumns::Grr {
                values: Vec::with_capacity(capacity),
            },
            FoKind::Adaptive => {
                debug_assert!(false, "Adaptive resolves before batching");
                ReportColumns::Grr {
                    values: Vec::with_capacity(capacity),
                }
            }
        }
    }

    /// The kind of report this column set stores.
    pub fn kind(&self) -> FoKind {
        match self {
            ReportColumns::Grr { .. } => FoKind::Grr,
            ReportColumns::Oue { .. } => FoKind::Oue,
            ReportColumns::Olh { .. } => FoKind::Olh,
        }
    }

    /// Number of report rows stored.
    pub fn len(&self) -> usize {
        match self {
            ReportColumns::Grr { values } => values.len(),
            ReportColumns::Oue { words, len } => {
                let wpr = (*len as usize).div_ceil(64);
                words.len().checked_div(wpr).unwrap_or(0)
            }
            ReportColumns::Olh { seeds, .. } => seeds.len(),
        }
    }

    /// Whether no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `report` if it matches this column's kind and shape.
    ///
    /// Returns `false` (leaving the columns untouched) for wrong-kind
    /// reports and for OUE payloads whose length or word count differ
    /// from the column layout — those rows take the scalar lenient path
    /// instead.
    pub fn try_push(&mut self, report: &Report, d: usize) -> bool {
        match (self, report) {
            (ReportColumns::Grr { values }, Report::Grr(v)) => {
                values.push(*v);
                true
            }
            (ReportColumns::Oue { words, .. }, Report::Oue { bits, len })
                if oue_regular(bits, *len, d) =>
            {
                words.extend_from_slice(bits);
                true
            }
            (ReportColumns::Olh { seeds, buckets }, Report::Olh { seed, bucket }) => {
                seeds.push(*seed);
                buckets.push(*bucket);
                true
            }
            _ => false,
        }
    }

    /// Visit every stored row as an owned [`Report`] (the fallback
    /// row-at-a-time path; kernels read the columns directly).
    pub fn for_each_report(&self, mut f: impl FnMut(Report)) {
        match self {
            ReportColumns::Grr { values } => {
                for &v in values {
                    f(Report::Grr(v));
                }
            }
            ReportColumns::Oue { words, len } => {
                let wpr = (*len as usize).div_ceil(64);
                if wpr == 0 {
                    return;
                }
                for row in words.chunks_exact(wpr) {
                    f(Report::Oue {
                        bits: row.to_vec(),
                        len: *len,
                    });
                }
            }
            ReportColumns::Olh { seeds, buckets } => {
                for (&seed, &bucket) in seeds.iter().zip(buckets) {
                    f(Report::Olh { seed, bucket });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Naive reference transpose in LSB-first convention.
    fn naive_transpose(a: &[u64; 64]) -> [u64; 64] {
        let mut out = [0u64; 64];
        for (i, &word) in a.iter().enumerate() {
            for (j, slot) in out.iter_mut().enumerate() {
                if (word >> j) & 1 == 1 {
                    *slot |= 1u64 << i;
                }
            }
        }
        out
    }

    #[test]
    fn transpose_is_antitranspose_in_lsb_order() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            let mut a = [0u64; 64];
            for w in a.iter_mut() {
                *w = rng.gen();
            }
            let reference = naive_transpose(&a);
            let mut t = a;
            transpose64(&mut t);
            // Output word 63 − j holds bit column j, with lanes reversed
            // — popcounts per column are what the kernel needs, and
            // those match exactly.
            for j in 0..64 {
                assert_eq!(
                    t[63 - j].count_ones(),
                    reference[j].count_ones(),
                    "column {j}"
                );
            }
        }
    }

    #[test]
    fn transpose_maps_single_bits_exactly() {
        for (i, j) in [(0usize, 0usize), (0, 63), (63, 0), (17, 42), (63, 63)] {
            let mut a = [0u64; 64];
            a[i] = 1u64 << j;
            transpose64(&mut a);
            let total: u32 = a.iter().map(|w| w.count_ones()).sum();
            assert_eq!(total, 1);
            assert_eq!(a[63 - j].count_ones(), 1, "bit ({i},{j})");
        }
    }

    #[test]
    fn fastmod_matches_hardware_rem() {
        let mut rng = StdRng::seed_from_u64(11);
        for g in [1u64, 2, 3, 4, 5, 7, 8, 15, 16, 255, 1 << 32, u64::MAX] {
            let m = FastMod::new(g);
            for h in [0u64, 1, g - 1, g, g.wrapping_add(1), u64::MAX, u64::MAX - 1] {
                assert_eq!(m.rem(h), h % g, "h={h} g={g}");
            }
            for _ in 0..1000 {
                let h: u64 = rng.gen();
                assert_eq!(m.rem(h), h % g, "h={h} g={g}");
            }
        }
    }

    #[test]
    fn oue_column_kernel_matches_lenient_scalar() {
        let mut rng = StdRng::seed_from_u64(3);
        for d in [1usize, 2, 63, 64, 65, 127, 128, 129, 500] {
            let wpr = d.div_ceil(64);
            for n in [0usize, 1, 63, 64, 65, 130] {
                let mut words = Vec::with_capacity(n * wpr);
                for _ in 0..n {
                    for wi in 0..wpr {
                        let mut w: u64 = rng.gen();
                        // Mask padding so rows are regular payloads.
                        if wi == wpr - 1 && d % 64 != 0 {
                            w &= (1u64 << (d % 64)) - 1;
                        }
                        words.push(w);
                    }
                }
                let mut fast = vec![0u64; d];
                oue_accumulate_columns(&words, d, &mut fast);
                let mut slow = vec![0u64; d];
                for row in words.chunks_exact(wpr) {
                    oue_accumulate_lenient(row, d as u32, &mut slow);
                }
                assert_eq!(fast, slow, "d={d} n={n}");
            }
        }
    }

    #[test]
    fn oue_column_kernel_ignores_padding_bits() {
        // All-ones rows: bits past d live in the same words but must not
        // be counted, matching the scalar length clamp.
        let d = 70;
        let words = vec![u64::MAX; 4]; // two rows of ⌈70/64⌉ = 2 words
        let mut counts = vec![0u64; d];
        oue_accumulate_columns(&words, d, &mut counts);
        assert_eq!(counts, vec![2u64; d]);
    }

    #[test]
    fn olh_column_kernel_matches_child_seed_hash() {
        let mut rng = StdRng::seed_from_u64(5);
        for g in [2u64, 3, 8, 21] {
            for d in [1usize, 2, 5, 33] {
                let n = 200;
                let seeds: Vec<u64> = (0..n).map(|_| rng.gen()).collect();
                let buckets: Vec<u32> = (0..n).map(|_| rng.gen_range(0..g as u32 + 2)).collect();
                let mut fast = vec![0u64; d];
                olh_accumulate_columns(&seeds, &buckets, g, &mut fast);
                let mut slow = vec![0u64; d];
                for (&seed, &bucket) in seeds.iter().zip(&buckets) {
                    for (v, c) in slow.iter_mut().enumerate() {
                        let h = ldp_util::rng::child_seed(seed, v as u64) % g;
                        *c += u64::from(h == u64::from(bucket));
                    }
                }
                assert_eq!(fast, slow, "g={g} d={d}");
            }
        }
    }

    #[test]
    fn columns_roundtrip_reports() {
        let d = 100;
        let reports = vec![
            Report::Grr(4),
            Report::Olh { seed: 9, bucket: 1 },
            crate::report::BitVec::zeros(d).into_report(),
        ];
        for report in &reports {
            let kind = match report {
                Report::Grr(_) => FoKind::Grr,
                Report::Oue { .. } => FoKind::Oue,
                Report::Olh { .. } => FoKind::Olh,
            };
            let mut columns = ReportColumns::for_kind(kind, d, 4);
            assert!(columns.try_push(report, d));
            assert!(!columns.try_push(&Report::Grr(0), d) || kind == FoKind::Grr);
            assert_eq!(columns.kind(), kind);
            let mut seen = Vec::new();
            columns.for_each_report(|r| seen.push(r));
            assert_eq!(seen[0], *report);
        }
    }

    #[test]
    fn irregular_oue_payloads_are_rejected() {
        let d = 100;
        let mut columns = ReportColumns::for_kind(FoKind::Oue, d, 4);
        // Wrong logical length.
        assert!(!columns.try_push(
            &Report::Oue {
                bits: vec![0, 0],
                len: 99
            },
            d
        ));
        // Wrong word count.
        assert!(!columns.try_push(
            &Report::Oue {
                bits: vec![0],
                len: 100
            },
            d
        ));
        assert!(columns.is_empty());
        assert!(columns.try_push(
            &Report::Oue {
                bits: vec![0, 0],
                len: 100
            },
            d
        ));
        assert_eq!(columns.len(), 1);
    }
}
