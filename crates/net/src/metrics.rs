//! `ldp_net`'s metric handles over [`ldp_obs`]: what the frontend and
//! client record, pre-resolved so the hot paths never touch the
//! registry mutex.
//!
//! [`ServerMetrics`] is created once per [`NetServer`](crate::NetServer)
//! over the tenant registry's shared [`MetricsRegistry`], so one scrape
//! covers the service layer (reports, WAL, snapshots) *and* the wire layer
//! (frames, connections, RPC latency, admission) in a single registry.
//! [`ClientMetrics`] is per-[`NetClient`](crate::NetClient); by default
//! each client records into a private registry, but
//! [`ClientOptions::metrics`](crate::ClientOptions::metrics) lets many
//! clients share one scope — same labels resolve to the same counters,
//! so a fleet's histograms merge for free.

use crate::backoff::ClientStats;
use crate::frame::{Frame, Request, FRAME_KIND_NAMES};
use ldp_obs::{Counter, Gauge, Histogram, MetricsRegistry, Scope};
use std::sync::Arc;
use std::time::Duration;

/// The network frontend's metric handles, shared by the accept loop,
/// every connection, and every tenant dispatcher.
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    registry: Arc<MetricsRegistry>,
    frames_in: [Arc<Counter>; FRAME_KIND_NAMES.len()],
    frames_out: [Arc<Counter>; FRAME_KIND_NAMES.len()],
    connections: Arc<Gauge>,
}

impl ServerMetrics {
    /// Handles over `registry` (usually the tenant registry's shared
    /// one, so service and wire metrics scrape together).
    pub fn new(registry: Arc<MetricsRegistry>) -> ServerMetrics {
        let scope = Scope::new(Arc::clone(&registry), &[]);
        let frames_in = FRAME_KIND_NAMES.map(|tag| {
            scope.with(&[("tag", tag)]).counter(
                "ldp_net_frames_in_total",
                "Frames decoded from client connections, by kind.",
            )
        });
        let frames_out = FRAME_KIND_NAMES.map(|tag| {
            scope.with(&[("tag", tag)]).counter(
                "ldp_net_frames_out_total",
                "Reply frames written to client connections, by kind.",
            )
        });
        let connections = scope.gauge(
            "ldp_net_connections",
            "Client connections currently being served.",
        );
        ServerMetrics {
            registry,
            frames_in,
            frames_out,
            connections,
        }
    }

    /// The registry every handle records into.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Count one inbound request, under the kind of the frame it came as.
    pub fn record_request(&self, request: &Request) {
        self.frames_in[request.kind_index()].inc();
    }

    /// Count one outbound reply frame.
    pub fn record_out(&self, frame: &Frame) {
        self.frames_out[frame.kind_index()].inc();
    }

    /// The open-connections gauge (incremented per accepted connection,
    /// decremented when its reader exits).
    pub fn connections(&self) -> &Arc<Gauge> {
        &self.connections
    }
}

/// One client's metric handles: RPC latency, retries, reconnects,
/// typed overload rejections, deadline expiries, and backoff sleep.
#[derive(Debug, Clone)]
pub struct ClientMetrics {
    pub(crate) rpc_ns: Arc<Histogram>,
    pub(crate) retries: Arc<Counter>,
    pub(crate) reconnects: Arc<Counter>,
    pub(crate) overloaded: Arc<Counter>,
    pub(crate) timeouts: Arc<Counter>,
    pub(crate) backoff_ns: Arc<Counter>,
}

impl ClientMetrics {
    /// Handles under `scope`'s labels (share one scope across clients
    /// to merge their series).
    pub fn in_scope(scope: &Scope) -> ClientMetrics {
        ClientMetrics {
            rpc_ns: scope.histogram(
                "ldp_client_rpc_ns",
                "Client-observed RPC latency in nanoseconds, retries included.",
            ),
            retries: scope.counter(
                "ldp_client_retries_total",
                "RPC attempts that failed retryably and were retried.",
            ),
            reconnects: scope.counter(
                "ldp_client_reconnects_total",
                "Fresh connections opened by recovery (not counting the first).",
            ),
            overloaded: scope.counter(
                "ldp_client_overloaded_total",
                "Typed Overloaded rejections observed.",
            ),
            timeouts: scope.counter("ldp_client_timeouts_total", "RPC deadlines that expired."),
            backoff_ns: scope.counter(
                "ldp_client_backoff_ns_total",
                "Total nanoseconds slept in retry backoff.",
            ),
        }
    }

    /// Handles over a fresh private registry — the default for a client
    /// constructed without an explicit scope.
    pub fn standalone() -> ClientMetrics {
        ClientMetrics::in_scope(&Scope::standalone())
    }

    /// Record one backoff sleep.
    pub(crate) fn record_backoff(&self, delay: Duration) {
        self.retries.inc();
        self.backoff_ns
            .add(u64::try_from(delay.as_nanos()).unwrap_or(u64::MAX));
    }

    /// The counters as a [`ClientStats`] view (the one counting path is
    /// the metrics; this snapshot is derived, never accumulated).
    pub fn stats(&self) -> ClientStats {
        ClientStats {
            retries: self.retries.get(),
            reconnects: self.reconnects.get(),
            overloaded: self.overloaded.get(),
            timeouts: self.timeouts.get(),
            backoff_total: Duration::from_nanos(self.backoff_ns.get()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_counters_index_by_kind() {
        let metrics = ServerMetrics::new(Arc::new(MetricsRegistry::new()));
        let hello = Frame::Hello {
            corr: 1,
            tenant: "t".into(),
            resume: None,
            token: None,
        };
        let hello = Request::Frame(hello);
        metrics.record_request(&hello);
        metrics.record_request(&hello);
        let snap = metrics.registry().snapshot();
        let hello_in = snap
            .iter()
            .find(|s| s.name == "ldp_net_frames_in_total" && s.label("tag") == Some("hello"))
            .expect("hello counter registered");
        assert_eq!(hello_in.value, ldp_obs::MetricValue::Counter(2));
    }

    #[test]
    fn client_stats_view_reflects_counters() {
        let metrics = ClientMetrics::standalone();
        metrics.record_backoff(Duration::from_millis(3));
        metrics.record_backoff(Duration::from_millis(5));
        metrics.reconnects.inc();
        let stats = metrics.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.reconnects, 1);
        assert_eq!(stats.backoff_total, Duration::from_millis(8));
    }
}
