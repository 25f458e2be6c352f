//! Experiment harness for the LDP-IDS reproduction.
//!
//! One module per paper artifact:
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`experiments::fig4`] | Fig. 4 — MRE vs ε, 6 datasets, w = 20 |
//! | [`experiments::fig5`] | Fig. 5 — MRE vs w, 6 datasets, ε = 1 |
//! | [`experiments::fig6`] | Fig. 6 — MRE vs population and fluctuation |
//! | [`experiments::fig7`] | Fig. 7 — ROC/AUC for event monitoring |
//! | [`experiments::fig8`] | Fig. 8 — CFPU vs N, Q, ε, w |
//! | [`experiments::table2`] | Table 2 — CFPU, 7 methods × 5 datasets × 3 configs |
//! | [`experiments::ablations`] | beyond-paper design-choice ablations |
//!
//! [`experiments::inspect`] prints the reproduction's inputs (dataset
//! statistics, the closed-form analysis tables).
//!
//! The pieces they share: [`spec`] (a run specification and its
//! execution), [`scale`] (paper-scale vs quick-scale parameter
//! adjustment), [`grid`] (a parallel grid executor) and [`output`]
//! (figure/table rendering and JSON dumps). Performance is measured by
//! the repo benchmark (`benchmark/`), which borrows [`hostmeta`] from
//! here and nothing else.

#![warn(missing_docs)]

pub mod experiments;
pub mod grid;
pub mod hostmeta;
pub mod output;
pub mod scale;
pub mod spec;

pub use grid::run_parallel;
pub use hostmeta::HostMeta;
pub use output::{Figure, Panel};
pub use scale::{RunScale, SharedStreams};
pub use spec::{RunOutcome, RunSpec};
