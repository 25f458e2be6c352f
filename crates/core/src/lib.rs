//! # LDP-IDS — w-event local differential privacy for infinite streams
//!
//! This crate is the paper's primary contribution (Ren et al., SIGMOD
//! 2022): mechanisms that let an *untrusted* aggregator publish per-
//! timestamp frequency histograms over an infinite stream of user values
//! while guaranteeing every user ε-LDP over **every sliding window of `w`
//! timestamps** (Definition 4.2, *w-event LDP*).
//!
//! Two frameworks are implemented, mirroring the paper's structure:
//!
//! * **Budget division** (§5) — the window budget ε is split across
//!   timestamps; every user reports at every timestamp with a small
//!   budget. Mechanisms: [`Lbu`](budget::Lbu), [`Lsp`](budget::Lsp),
//!   [`Lbd`](budget::Lbd) (Alg. 1), [`Lba`](budget::Lba) (Alg. 2).
//! * **Population division** (§6) — the *user population* is split across
//!   timestamps; each reporting user spends the full ε but reports at
//!   most once per window. Mechanisms: [`Lpu`](population::Lpu),
//!   [`Lpd`](population::Lpd) (Alg. 3), [`Lpa`](population::Lpa)
//!   (Alg. 4).
//!
//! The adaptive members of both frameworks (LBD/LBA/LPD/LPA) privately
//! estimate the stream's **dissimilarity** (Theorem 5.2) and publish only
//! when a fresh publication would beat approximating with the previous
//! release.
//!
//! ## Architecture
//!
//! Mechanisms never see raw data. They talk to a [`RoundCollector`]:
//! *"have k fresh users (or all users) report with budget ε; give me the
//! unbiased histogram estimate"*. Two collectors are provided:
//!
//! * [`protocol::ClientCollector`] — drives per-user client state
//!   machines through an explicit message protocol (what a deployment
//!   does); counts every message for communication accounting;
//! * [`collector::AggregateCollector`] — samples the *exact* distribution
//!   of aggregated reports directly from true counts
//!   (binomial/multinomial/hypergeometric splitting), making the paper's
//!   10⁶-user experiments tractable.
//!
//! Privacy is enforced twice: by construction (the mechanisms implement
//! the paper's allocation schedules) and at runtime by the
//! [`accountant`] ledgers, which panic the moment a window over-spends
//! budget or a user is asked to report twice in a window.
//!
//! ## Quick example
//!
//! ```
//! use ldp_ids::{MechanismKind, MechanismConfig, runner};
//! use ldp_stream::{Dataset, MaterializedStream};
//!
//! // A small Sin stream (paper §7.1.1 shape, scaled down).
//! let dataset = Dataset::Sin { population: 5_000, len: 40, a: 0.05, b: 0.01, h: 0.075 };
//! let stream = MaterializedStream::from_dataset(&dataset, 7);
//!
//! let config = MechanismConfig::new(1.0, 10, 2, 5_000);
//! let mut mech = MechanismKind::Lpa.build(&config).unwrap();
//! let result = runner::run_on_materialized(mech.as_mut(), &stream, runner::CollectorMode::Aggregate, 42);
//!
//! assert_eq!(result.releases.len(), 40);
//! assert!(result.cfpu <= 1.0 / 10.0 + 1e-9, "population division reports sparsely");
//! ```

#![warn(missing_docs)]

pub mod accountant;
pub mod analysis;
pub mod budget;
pub mod collector;
pub mod config;
pub mod dissimilarity;
pub mod error;
pub mod population;
pub mod postprocess;
pub mod protocol;
pub mod release;
pub mod runner;
pub mod smoothing;
pub mod traits;

pub use accountant::BudgetLedger;
pub use collector::{AggregateCollector, RoundCollector, RoundEstimate};
pub use config::{MechanismConfig, VarianceModel};
pub use error::CoreError;
pub use release::{Release, ReleaseKind};
pub use runner::{run_on_materialized, CollectorMode, RunResult};
pub use traits::{MechanismKind, StreamMechanism};
