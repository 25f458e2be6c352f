//! Seed derivation and reproducible RNG construction.
//!
//! Experiments fan out over (dataset, mechanism, ε, w, trial) grids and
//! across worker threads. To keep every grid point reproducible and
//! independent of execution order, each component derives its own RNG from
//! a master seed through [`child_seed`]: a (parent, label) pair is mixed
//! into a 64-bit child seed with the SplitMix64 finalizer, which is a
//! full-period mixer with good avalanche behaviour.

/// SplitMix64 finalization step: a bijective mixer on `u64`.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The multiplier [`child_seed`] spreads labels with, exposed so hot
/// loops can pre-multiply a label once and derive many children via
/// [`child_seed_premul`].
pub const LABEL_MUL: u64 = 0xa076_1d64_78bd_642f;

/// Derive a child seed from `parent` and a label.
///
/// Children with distinct labels are decorrelated; the derivation is
/// deterministic so the same (parent, label) always yields the same child.
#[inline]
pub fn child_seed(parent: u64, label: u64) -> u64 {
    child_seed_premul(parent, label.wrapping_mul(LABEL_MUL))
}

/// [`child_seed`] with the label already multiplied by [`LABEL_MUL`].
///
/// Bit-identical to `child_seed(parent, label)` when
/// `premul_label == label.wrapping_mul(LABEL_MUL)`; loops that derive
/// many children of the same label hoist the multiply through this.
#[inline]
pub fn child_seed_premul(parent: u64, premul_label: u64) -> u64 {
    // Two mixing rounds so that low-entropy (small-integer) labels still
    // produce well-spread children.
    splitmix64(splitmix64(parent ^ premul_label))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn child_seed_distinguishes_labels() {
        let parent = 7;
        let mut seen = std::collections::HashSet::new();
        for label in 0..1000u64 {
            assert!(
                seen.insert(child_seed(parent, label)),
                "collision at {label}"
            );
        }
    }

    #[test]
    fn child_seed_distinguishes_parents() {
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn premul_matches_child_seed() {
        for parent in [0u64, 1, 7, u64::MAX] {
            for label in [0u64, 1, 63, 1024, u64::MAX] {
                assert_eq!(
                    child_seed(parent, label),
                    child_seed_premul(parent, label.wrapping_mul(LABEL_MUL))
                );
            }
        }
    }
}
