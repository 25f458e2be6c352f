//! Golden digests of the centralized baselines' releases.

use ldp_cdp::CdpKind;
use ldp_stream::TrueHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Step `t` of a `d`-cell stream over 100 000 users: 40-step stretches
/// that swing the mass of cell 0 every step alternate with flat ones, so
/// both baselines publish, approximate and (BA) nullify.
fn truth_at(t: usize, d: usize) -> TrueHistogram {
    let n = 100_000u64;
    let volatile = (t / 40).is_multiple_of(2);
    let first = if volatile && t % 2 == 1 {
        n / 2 + (t as u64 % 7) * 1_000
    } else {
        n / 10
    };
    let rest = (n - first) / (d as u64 - 1);
    let mut counts = vec![rest; d];
    counts[0] = n - rest * (d as u64 - 1);
    TrueHistogram::new(counts)
}

/// Seeded BD and BA runs over a grid of (ε, w, d) release these bits
/// and count these publications. A changed draw, budget or decision
/// changes a digest.
#[test]
fn cdp_releases_are_pinned() {
    let steps = 400;
    let mut got = Vec::new();
    for kind in [CdpKind::Bd, CdpKind::Ba] {
        for epsilon in [0.05, 0.5, 1.0, 2.7] {
            // FNV-1a over the release bits of every (w, d, seed) run.
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            let mut publications = 0;
            for w in [1, 2, 5, 20, 64] {
                for d in [2, 5] {
                    for seed in [3, 11] {
                        let mut mech = kind.build(epsilon, w, d);
                        let mut rng = StdRng::seed_from_u64(seed);
                        for t in 0..steps {
                            for f in mech.step(&truth_at(t, d), &mut rng) {
                                for b in f.to_bits().to_le_bytes() {
                                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                                }
                            }
                        }
                        publications += mech.publications();
                    }
                }
            }
            got.push((format!("{} {epsilon}", kind.name()), hash, publications));
        }
    }
    // (mechanism ε, release digest, publications over the 20 runs)
    let want = [
        ("cdp-bd 0.05", 18423052245258504057, 4597),
        ("cdp-bd 0.5", 445492119985916476, 4691),
        ("cdp-bd 1", 17645355301522659167, 4717),
        ("cdp-bd 2.7", 14082291975415847825, 4765),
        ("cdp-ba 0.05", 17053154520135818247, 5090),
        ("cdp-ba 0.5", 6129411229097267490, 5106),
        ("cdp-ba 1", 3790649909348296844, 5106),
        ("cdp-ba 2.7", 17590074920202311765, 5106),
    ];
    let got: Vec<(&str, u64, u64)> = got.iter().map(|(k, h, p)| (k.as_str(), *h, *p)).collect();
    assert_eq!(got, want);
}
