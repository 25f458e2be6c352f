//! Stream data model for LDP-IDS (paper §4 and §7.1).
//!
//! The paper's setting: `N` distributed users each hold an infinite stream
//! of categorical values from a domain `Ω` of size `d`; at every discrete
//! timestamp the server wants the frequency histogram
//! `c_t = ⟨c_t[1], …, c_t[d]⟩` over all users.
//!
//! This crate provides:
//!
//! * the [`Domain`]/[`TrueHistogram`]/[`Snapshot`] data model;
//! * the [`StreamSource`] abstraction over anything that can produce the
//!   per-timestamp *true* state of the population — mechanisms never see
//!   it directly, only through a perturbing collector;
//! * the paper's synthetic generators ([`synthetic`]): the LNS
//!   linear-Gaussian process, the Sin sinusoid and the Log logistic model
//!   over binary domains (§7.1.1);
//! * seeded generative substitutes for the paper's real-world traces
//!   ([`realworld`]): Taxi (T-Drive), Foursquare and Taobao (§7.1.2) —
//!   the traces are not redistributable (see the README's departures
//!   from the paper);
//! * above-threshold event labelling for the Fig. 7 monitoring experiment
//!   ([`events`]);
//! * the sliding [`RingWindow`] and, on it, [`WindowBudget`]: the w-event
//!   budget ledger that both the local mechanisms and the centralized
//!   baselines assert as they run;
//! * materialization and cross-run caching of stream realizations
//!   ([`cache`]) so that every mechanism/parameter grid point sees the
//!   same stream, as in the paper's setup.

#![warn(missing_docs)]

pub mod cache;
pub mod datasets;
pub mod domain;
pub mod events;
pub mod histogram;
pub mod realworld;
pub mod snapshot;
pub mod source;
pub mod synthetic;
pub mod window;

pub use cache::{MaterializedStream, StreamCache};
pub use datasets::Dataset;
pub use domain::Domain;
pub use events::{paper_threshold, MonitorStat};
pub use histogram::TrueHistogram;
pub use snapshot::Snapshot;
pub use source::StreamSource;
pub use window::{RingWindow, WindowBudget};
