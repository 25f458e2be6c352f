//! The client/server report protocol.
//!
//! [`crate::AggregateCollector`] samples aggregate distributions; this
//! module is the other end of the fidelity spectrum — an explicit
//! simulation of what a deployment actually runs:
//!
//! * the server broadcasts a [`ReportRequest`] naming the round's oracle
//!   parameters ([`messages`]);
//! * each selected device of a [`DeviceTable`] perturbs its current true
//!   value locally and answers with a wire-format [`ldp_fo::Report`] — or
//!   *refuses*, if its own w-event ledger says the request would
//!   over-spend its budget ([`client`]);
//! * the [`AggregationServer`] tallies reports into support counts and
//!   produces the unbiased estimate ([`server`]);
//! * [`ClientCollector`] glues the three into a [`crate::RoundCollector`]
//!   so any mechanism can run over real clients unchanged ([`driver`]).
//!
//! The client-side ledger is deliberately redundant with the mechanisms'
//! own accounting: in the LDP threat model users do not trust the server,
//! so the *client* must be able to verify that the request schedule it
//! receives is w-event safe. A buggy (or malicious) mechanism produces
//! [`crate::CoreError::ClientRefused`], never a privacy loss.

pub mod client;
pub mod driver;
pub mod messages;
pub mod server;

pub use client::{DeviceRows, DeviceTable};
pub use driver::{ClientCollector, GenericClientCollector, ReportLanes, ReportSink};
pub use messages::{ReportRequest, UserResponse};
pub use server::AggregationServer;
