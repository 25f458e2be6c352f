//! Centralized w-event differential privacy baselines (paper §3.1–3.2).
//!
//! LDP-IDS ports the budget-division methodology of Kellaris et al.
//! ("Differentially private event sequences over infinite streams",
//! VLDB'14) from the centralized to the local model. This crate keeps
//! that centralized substrate — Budget Distribution and Budget Absorption
//! on one controller, [`CdpMechanism`] — for the CDP-vs-LDP ablation: what
//! a trusted aggregator achieves with the same window budget.
//!
//! Both mechanisms consume true histograms (the trusted-aggregator
//! setting) and release frequency vectors, matching the LDP mechanisms'
//! output so the same metrics apply.

#![warn(missing_docs)]

mod mechanism;

pub use mechanism::{run_cdp, CdpKind, CdpMechanism};

// Unit tests of BD, BA, the Laplace release and the window budget, under
// the module names they were written in; [`mechanism`] implements them.
#[cfg(test)]
mod ba;
#[cfg(test)]
mod bd;
#[cfg(test)]
mod laplace_mech;
#[cfg(test)]
mod ledger;
