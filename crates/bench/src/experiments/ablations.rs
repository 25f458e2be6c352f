//! Design-choice ablations beyond the paper's figures.
//!
//! The paper fixes these knobs implicitly; each gets an ablation figure:
//!
//! * **frequency oracle** (`abl-oracle`) — the paper uses GRR
//!   throughout; on large domains (Taobao, d = 117) OUE/OLH win at
//!   small ε;
//! * **variance model** (`abl-variance`) — the `dis`/`err` comparison
//!   can plug estimated frequencies into Eq. (2) instead of the f = 1/d
//!   average (identical for GRR, see below);
//! * **consistency projection** (`abl-postprocess`) — Norm-Sub
//!   post-processing of releases;
//! * **CDP reference** (`abl-cdp`) — the Kellaris et al. BD/BA
//!   mechanisms under a trusted aggregator: the price of the local
//!   model;
//! * **M₁/M₂ split** (`abl-split`) — the paper's 50/50 resource split
//!   between dissimilarity estimation and publication;
//! * **u_min** (`abl-umin`) — LPD's minimum-group guard;
//! * **Kalman smoothing** (`abl-smoothing`) — Remark 3's FAST-style
//!   filtering on top of population division.

use super::ExperimentCtx;
use crate::output::{Figure, Panel};
use crate::spec::RunSpec;
use ldp_cdp::{run_cdp, CdpKind};
use ldp_fo::FoKind;
use ldp_ids::{MechanismKind, VarianceModel};
use ldp_metrics::{Series, DEFAULT_MRE_FLOOR};
use ldp_stream::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The ε grid shared by the ablations.
pub const EPSILONS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];
/// Window size shared by the ablations.
pub const W: usize = 20;

/// Run all ablation figures.
pub fn run(ctx: &ExperimentCtx) -> Vec<Figure> {
    vec![
        oracle_choice(ctx),
        variance_model(ctx),
        postprocess(ctx),
        cdp_reference(ctx),
        split_ratio(ctx),
        u_min_sweep(ctx),
        smoothing(ctx),
    ]
}

/// Kalman smoothing of releases (Remark 3: the population-division
/// framework + FAST-style filtering). The LNS random walk is exactly
/// the filter's state model, so gains should be largest there; the
/// measurement noise is known in closed form from each publication's
/// provenance, leaving process noise Q as the single knob.
pub fn smoothing(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::lns());
    let len = ctx.scale.len(&dataset);
    let mechs = [MechanismKind::Lpu, MechanismKind::Lpa, MechanismKind::Lbu];
    let mut series = Vec::new();
    // Raw, then smoothed at the LNS-matched Q = (2.5e-3)^2 per step.
    for q in [None, Some(0.0025f64 * 0.0025)] {
        let swept = ctx.sweep(
            &mechs,
            &EPSILONS,
            |mech, eps, seed| {
                let mut spec = RunSpec::new(dataset.clone(), mech, eps, W, seed);
                spec.len = len;
                spec.smoothing = q;
                spec
            },
            |out| out.error.mre,
        );
        for mut s in swept {
            s.label = format!("{}{}", s.label, if q.is_some() { "+kalman" } else { "" });
            series.push(s);
        }
    }
    Figure {
        id: "abl-smoothing".into(),
        title: "Ablation: Kalman filtering of releases, Remark 3 (LNS)".into(),
        params: format!("w={W}, Q=(0.0025)^2"),
        panels: vec![Panel {
            name: "lns".into(),
            x_label: "epsilon".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}

/// The M₁/M₂ resource split. The paper fixes 50/50 without comment;
/// this sweeps the dissimilarity share for the four adaptive mechanisms.
/// Expected: a broad optimum around the middle — starving M₁ makes the
/// publish/approximate decision blind, starving M₂ makes publications
/// noisy.
pub fn split_ratio(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::sin());
    let len = ctx.scale.len(&dataset);
    let shares = [0.2, 0.35, 0.5, 0.65, 0.8];
    let adaptive = [
        MechanismKind::Lbd,
        MechanismKind::Lba,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ];
    let series = ctx.sweep(
        &adaptive,
        &shares,
        |mech, share, seed| {
            let dataset = dataset.clone();
            let mut spec = RunSpec::new(dataset, mech, 1.0, W, seed);
            spec.len = len;
            spec.dissimilarity_share = share;
            spec
        },
        |out| out.error.mre,
    );
    Figure {
        id: "abl-split".into(),
        title: "Ablation: M1/M2 resource split (Sin)".into(),
        params: format!("epsilon=1, w={W}"),
        panels: vec![Panel {
            name: "sin".into(),
            x_label: "dissimilarity share".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}

/// The `u_min` guard of Alg. 3: how large must a publication group be
/// before LPD prefers it over approximation? Expected: flat for small
/// values (the V-comparison already rejects tiny groups), degrading once
/// u_min forbids genuinely useful publications.
pub fn u_min_sweep(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::sin());
    let len = ctx.scale.len(&dataset);
    let n = dataset.population();
    // Sweep u_min as a fraction of the N/4 first-publication group.
    let fractions = [0.0, 0.05, 0.25, 0.5, 1.1];
    let series = ctx.sweep(
        &[MechanismKind::Lpd],
        &fractions,
        |mech, frac, seed| {
            let mut spec = RunSpec::new(dataset.clone(), mech, 1.0, W, seed);
            spec.len = len;
            spec.u_min = ((n as f64 / 4.0) * frac).round().max(1.0) as u64;
            spec
        },
        |out| out.error.mre,
    );
    Figure {
        id: "abl-umin".into(),
        title: "Ablation: u_min starvation threshold for LPD (Sin)".into(),
        params: format!("epsilon=1, w={W}, x = u_min/(N/4)"),
        panels: vec![Panel {
            name: "sin".into(),
            x_label: "u_min fraction".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}

/// Frequency-oracle choice on the largest-domain dataset.
pub fn oracle_choice(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::taobao());
    let len = ctx.scale.len(&dataset);
    let mut series = Vec::new();
    for fo in FoKind::ALL {
        // Reuse sweep with a single mechanism; label by oracle.
        let mut s = ctx.sweep(
            &[MechanismKind::Lpa],
            &EPSILONS,
            |mech, eps, seed| {
                let mut spec = RunSpec::new(dataset.clone(), mech, eps, W, seed);
                spec.len = len;
                spec.fo = fo;
                spec
            },
            |out| out.error.mre,
        );
        let mut renamed = s.remove(0);
        renamed.label = format!("lpa+{}", fo.name());
        series.push(renamed);
    }
    Figure {
        id: "abl-oracle".into(),
        title: "Ablation: frequency oracle under LPA (Taobao, d=117)".into(),
        params: format!("w={W}"),
        panels: vec![Panel {
            name: "taobao".into(),
            x_label: "epsilon".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}

/// Approximate vs frequency-aware variance in the adaptive decisions.
///
/// Two panels make one point each:
///
/// * **GRR** — the models coincide *identically*: GRR's per-cell
///   variance (Eq. 2) is linear in `f` and GRR estimates always sum to
///   exactly 1, so the f-aware average collapses to the `f = 1/d`
///   average. The panel is a numerical proof of that identity
///   (rows pairwise equal).
/// * **OUE** — support counts are per-cell Bernoulli sums with no
///   sum-to-1 constraint, so the estimated frequencies feed real signal
///   into the f-aware model and the adaptive decisions can differ.
pub fn variance_model(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::taxi());
    let len = ctx.scale.len(&dataset);
    let adaptive = [
        MechanismKind::Lbd,
        MechanismKind::Lba,
        MechanismKind::Lpd,
        MechanismKind::Lpa,
    ];
    let mut panels = Vec::new();
    for fo in [FoKind::Grr, FoKind::Oue] {
        let mut series = Vec::new();
        for variance in [VarianceModel::Approximate, VarianceModel::FrequencyAware] {
            let swept = ctx.sweep(
                &adaptive,
                &EPSILONS,
                |mech, eps, seed| {
                    let mut spec = RunSpec::new(dataset.clone(), mech, eps, W, seed);
                    spec.len = len;
                    spec.fo = fo;
                    spec.variance = variance;
                    spec
                },
                |out| out.error.mre,
            );
            for mut s in swept {
                s.label = format!(
                    "{}+{}",
                    s.label,
                    match variance {
                        VarianceModel::Approximate => "avg",
                        VarianceModel::FrequencyAware => "freq",
                    }
                );
                series.push(s);
            }
        }
        panels.push(Panel {
            name: format!("taxi-{}", fo.name()),
            x_label: "epsilon".into(),
            y_label: "MRE".into(),
            series,
        });
    }
    Figure {
        id: "abl-variance".into(),
        title: "Ablation: variance model in dis/err (Taxi)".into(),
        params: format!("w={W}"),
        panels,
    }
}

/// Norm-Sub consistency projection on releases.
pub fn postprocess(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::taxi());
    let len = ctx.scale.len(&dataset);
    let mut series = Vec::new();
    for post in [false, true] {
        let swept = ctx.sweep(
            &[MechanismKind::Lbu, MechanismKind::Lpu, MechanismKind::Lpa],
            &EPSILONS,
            |mech, eps, seed| {
                let mut spec = RunSpec::new(dataset.clone(), mech, eps, W, seed);
                spec.len = len;
                spec.postprocess = post;
                spec
            },
            |out| out.error.mre,
        );
        for mut s in swept {
            s.label = format!("{}{}", s.label, if post { "+proj" } else { "" });
            series.push(s);
        }
    }
    Figure {
        id: "abl-postprocess".into(),
        title: "Ablation: Norm-Sub consistency projection (Taxi)".into(),
        params: format!("w={W}"),
        panels: vec![Panel {
            name: "taxi".into(),
            x_label: "epsilon".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}

/// The centralized BD/BA reference: what a trusted aggregator achieves
/// with the same window budget — the "price of LDP" panel.
pub fn cdp_reference(ctx: &ExperimentCtx) -> Figure {
    let dataset = ctx.scale.dataset(&Dataset::lns());
    let len = ctx.scale.len(&dataset);
    let mut series = Vec::new();

    // LDP side: LBD/LBA and LPD/LPA through the normal spec path.
    let ldp = ctx.sweep(
        &[
            MechanismKind::Lbd,
            MechanismKind::Lba,
            MechanismKind::Lpd,
            MechanismKind::Lpa,
        ],
        &EPSILONS,
        |mech, eps, seed| {
            let mut spec = RunSpec::new(dataset.clone(), mech, eps, W, seed);
            spec.len = len;
            spec
        },
        |out| out.error.mre,
    );
    series.extend(ldp);

    // CDP side: run the centralized mechanisms directly on the true
    // stream (they see raw histograms; that is the point).
    for kind in [CdpKind::Bd, CdpKind::Ba] {
        let mut s = Series::new(kind.name());
        for &eps in &EPSILONS {
            let samples: Vec<f64> = ctx
                .seeds
                .iter()
                .map(|&seed| {
                    let stream = ctx.streams.get(&dataset, seed, len);
                    let mut mech = kind.build(eps, W, stream.domain().size());
                    let mut rng = StdRng::seed_from_u64(seed ^ 0xcd9);
                    let released = run_cdp(&mut mech, &mut stream.replay(), len, &mut rng);
                    let truth = stream.frequency_matrix();
                    ldp_metrics::mre(&released, &truth, DEFAULT_MRE_FLOOR)
                })
                .collect();
            s.push_samples(eps, &samples);
        }
        series.push(s);
    }

    Figure {
        id: "abl-cdp".into(),
        title: "Ablation: centralized BD/BA vs local mechanisms (LNS)".into(),
        params: format!("w={W}"),
        panels: vec![Panel {
            name: "lns".into(),
            x_label: "epsilon".into(),
            y_label: "MRE".into(),
            series,
        }],
    }
}
