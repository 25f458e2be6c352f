//! The wire format of a single perturbed user report.

use crate::oracle::FoKind;
use serde::{Deserialize, Serialize};

/// One locally perturbed report, as sent from a user device to the
/// aggregator.
///
/// The variant matches the oracle that produced it; `accumulate` on the
/// wrong oracle is a protocol error and panics in debug builds.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Report {
    /// GRR: the (possibly lied-about) value index.
    Grr(u32),
    /// OUE: the perturbed unary encoding, packed little-endian into 64-bit
    /// words; bit `j` of the logical vector is
    /// `bits[j / 64] >> (j % 64) & 1`.
    Oue {
        /// The packed bit words.
        bits: Vec<u64>,
        /// Logical bit length (= domain size).
        len: u32,
    },
    /// OLH: the user's hash seed and the (possibly lied-about) bucket.
    Olh {
        /// The user's per-report hash seed.
        seed: u64,
        /// The reported bucket index.
        bucket: u32,
    },
}

impl Report {
    /// Modelled on-the-wire size in bytes of one report of the concrete
    /// `kind` over `d` values: the one byte model behind the
    /// communication accounting, whether or not a report is materialised.
    ///
    /// [`FoKind::Adaptive`] resolves at oracle construction — pass the
    /// oracle's `kind()`; unresolved it is charged as OUE, the larger
    /// format, under a debug assertion.
    pub fn wire_size_of(kind: FoKind, d: usize) -> usize {
        match kind {
            FoKind::Grr => 4,
            FoKind::Olh => 12,
            FoKind::Oue => 4 + 8 * d.div_ceil(64),
            FoKind::Adaptive => {
                debug_assert!(false, "Adaptive resolves before a report exists");
                4 + 8 * d.div_ceil(64)
            }
        }
    }

    /// Modelled on-the-wire size of this report in bytes.
    pub fn wire_size(&self) -> usize {
        match self {
            Report::Grr(_) => Self::wire_size_of(FoKind::Grr, 0),
            Report::Oue { len, .. } => Self::wire_size_of(FoKind::Oue, *len as usize),
            Report::Olh { .. } => Self::wire_size_of(FoKind::Olh, 0),
        }
    }
}

/// A packed bit vector builder for OUE reports.
#[derive(Debug, Clone)]
pub struct BitVec {
    words: Vec<u64>,
    len: u32,
}

impl BitVec {
    /// An all-zero bit vector of logical length `len`.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0u64; len.div_ceil(64)],
            len: len as u32,
        }
    }

    /// Logical length.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the vector has zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to `value`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        debug_assert!(i < self.len as usize);
        let word = i / 64;
        let bit = i % 64;
        if value {
            self.words[word] |= 1u64 << bit;
        } else {
            self.words[word] &= !(1u64 << bit);
        }
    }

    /// Read bit `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len as usize);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Consume into a [`Report::Oue`].
    pub fn into_report(self) -> Report {
        Report::Oue {
            bits: self.words,
            len: self.len,
        }
    }
}

/// Iterate the set-bit indices of a packed OUE report payload.
pub fn iter_set_bits(bits: &[u64], len: u32) -> impl Iterator<Item = usize> + '_ {
    bits.iter()
        .enumerate()
        .flat_map(move |(wi, &word)| {
            let mut w = word;
            let base = wi * 64;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let tz = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(base + tz)
            })
        })
        .take_while(move |&i| i < len as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitvec_set_get_roundtrip() {
        let mut bv = BitVec::zeros(130);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            bv.set(i, true);
            assert!(bv.get(i));
        }
        assert_eq!(bv.count_ones(), 8);
        bv.set(64, false);
        assert!(!bv.get(64));
        assert_eq!(bv.count_ones(), 7);
    }

    #[test]
    fn bitvec_len_and_empty() {
        assert!(BitVec::zeros(0).is_empty());
        assert_eq!(BitVec::zeros(65).len(), 65);
    }

    #[test]
    fn iter_set_bits_finds_all() {
        let mut bv = BitVec::zeros(200);
        let set = [3usize, 64, 65, 100, 199];
        for &i in &set {
            bv.set(i, true);
        }
        if let Report::Oue { bits, len } = bv.into_report() {
            let found: Vec<usize> = iter_set_bits(&bits, len).collect();
            assert_eq!(found, set);
        } else {
            panic!("expected OUE report");
        }
    }

    #[test]
    fn iter_set_bits_respects_logical_length() {
        // Padding bits beyond `len` must not be yielded.
        let bits = vec![u64::MAX];
        let found: Vec<usize> = iter_set_bits(&bits, 10).collect();
        assert_eq!(found, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(Report::Grr(3).wire_size(), 4);
        assert_eq!(Report::Olh { seed: 1, bucket: 2 }.wire_size(), 12);
        let oue = BitVec::zeros(100).into_report();
        assert_eq!(oue.wire_size(), 4 + 2 * 8);
        assert_eq!(Report::wire_size_of(FoKind::Oue, 100), oue.wire_size());
        assert_eq!(Report::wire_size_of(FoKind::Oue, 128), 4 + 2 * 8);
        assert_eq!(Report::wire_size_of(FoKind::Oue, 129), 4 + 3 * 8);
    }

    #[test]
    fn report_serde_roundtrip() {
        let reports = vec![
            Report::Grr(7),
            BitVec::zeros(70).into_report(),
            Report::Olh {
                seed: 42,
                bucket: 3,
            },
        ];
        for r in reports {
            let json = serde_json::to_string(&r).unwrap();
            let back: Report = serde_json::from_str(&json).unwrap();
            assert_eq!(back, r);
        }
    }
}
