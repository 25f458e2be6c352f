//! Seeded generative substitutes for the paper's real-world traces
//! (§7.1.2).
//!
//! The original Taxi (T-Drive), Foursquare and Taobao traces are not
//! redistributable, so each simulator reproduces the published shape —
//! `(N, T, d)` exactly, plus the temporal character the mechanisms are
//! sensitive to (slowly-drifting densities, heavy-tailed popularity,
//! bursty change points). The README lists the substitutions among its
//! departures from the paper.
//!
//! All three are built on the same aggregate Markov engine
//! ([`markov::markov_step`]): per timestamp, each user leaves their
//! current cell with a leave-probability and re-lands according to a
//! destination weight vector. Evolving the *counts* with binomial /
//! multinomial splitting is exactly the aggregate of `N` independent
//! per-user Markov chains, which keeps the 10⁶-user Taobao workload fast.

pub mod foursquare;
pub mod markov;
pub mod taobao;
pub mod taxi;

pub use foursquare::FoursquareSim;
pub use taobao::TaobaoSim;
pub use taxi::TaxiSim;
