//! Per-user view of one timestamp.

use crate::histogram::TrueHistogram;
use rand::seq::SliceRandom;
use rand::Rng;

/// The true value of every user at one timestamp (`values[j]` is user
/// `j`'s value). This is the view a *client-level* simulation needs: the
/// population-division mechanisms sample specific user subsets, so the
/// collector must know which user holds what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    values: Vec<u16>,
    domain_size: usize,
}

impl Snapshot {
    /// Wrap per-user values; every value must be `< domain_size`.
    pub fn new(values: Vec<u16>, domain_size: usize) -> Self {
        debug_assert!(values.iter().all(|&v| (v as usize) < domain_size));
        Snapshot {
            values,
            domain_size,
        }
    }

    /// Population size.
    pub fn population(&self) -> usize {
        self.values.len()
    }

    /// Domain cardinality.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }

    /// User `j`'s value.
    pub fn value(&self, user: usize) -> usize {
        self.values[user] as usize
    }

    /// All values.
    pub fn values(&self) -> &[u16] {
        &self.values
    }

    /// Aggregate into a [`TrueHistogram`].
    pub fn to_histogram(&self) -> TrueHistogram {
        let mut counts = vec![0u64; self.domain_size];
        for &v in &self.values {
            counts[v as usize] += 1;
        }
        TrueHistogram::new(counts)
    }

    /// Build a snapshot whose histogram equals `hist` by assigning values
    /// to users uniformly at random (paper §7.1.1: "we randomly chose a
    /// portion of p_t users … to set their true report value as 1").
    pub fn from_histogram<R: Rng + ?Sized>(hist: &TrueHistogram, rng: &mut R) -> Self {
        let mut snapshot = Snapshot::new(Vec::new(), hist.domain_size());
        snapshot.refill(hist, rng);
        snapshot
    }

    /// [`from_histogram`](Self::from_histogram) into this snapshot's own
    /// storage: the same values from the same draws, no allocation once
    /// the buffer has held a population this large.
    pub fn refill<R: Rng + ?Sized>(&mut self, hist: &TrueHistogram, rng: &mut R) {
        self.domain_size = hist.domain_size();
        self.values.clear();
        self.values.reserve(hist.population() as usize);
        for (k, &c) in hist.counts().iter().enumerate() {
            self.values
                .extend(std::iter::repeat_n(k as u16, c as usize));
        }
        self.values.shuffle(rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn histogram_roundtrip() {
        let snap = Snapshot::new(vec![0, 1, 1, 2, 2, 2], 3);
        let h = snap.to_histogram();
        assert_eq!(h.counts(), &[1, 2, 3]);
        assert_eq!(snap.population(), 6);
        assert_eq!(snap.value(3), 2);
    }

    #[test]
    fn from_histogram_preserves_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let h = TrueHistogram::new(vec![10, 0, 25, 5]);
        let snap = Snapshot::from_histogram(&h, &mut rng);
        assert_eq!(snap.population(), 40);
        assert_eq!(snap.to_histogram(), h);
    }

    #[test]
    fn from_histogram_shuffles_users() {
        let mut rng = StdRng::seed_from_u64(2);
        let h = TrueHistogram::new(vec![500, 500]);
        let snap = Snapshot::from_histogram(&h, &mut rng);
        // The first half should not be all zeros after shuffling.
        let ones_in_first_half: usize = snap.values()[..500].iter().filter(|&&v| v == 1).count();
        assert!(ones_in_first_half > 100, "got {ones_in_first_half}");
        assert!(ones_in_first_half < 400, "got {ones_in_first_half}");
    }

    #[test]
    fn empty_histogram_gives_empty_snapshot() {
        let mut rng = StdRng::seed_from_u64(3);
        let h = TrueHistogram::zeros(2);
        let snap = Snapshot::from_histogram(&h, &mut rng);
        assert_eq!(snap.population(), 0);
    }
}
