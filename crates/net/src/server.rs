//! The TCP frontend: accept loop + connection lifecycle.
//!
//! [`NetServer::start`] binds a listener, snapshots the tenant registry
//! into per-tenant dispatchers (see [`tenant`](crate::tenant)), and
//! accepts connections until [`shutdown`](NetServer::shutdown). Each
//! connection runs the reader/writer pair in [`conn`].
//!
//! There is no async runtime in this workspace, so "async" here is the
//! classic pipelined-threads shape: the accept loop, each connection's
//! reader and writer, and each tenant's dispatcher are all independent
//! threads joined by bounded channels. Backpressure composes end to
//! end — tenant queue → connection reader → kernel socket buffer → TCP
//! flow control → client — and shutdown drains in dependency order
//! (stop accepting → connections exit → dispatcher queues close →
//! dispatchers drain and exit).

use crate::client::DEFAULT_WINDOW;
use crate::conn;
use crate::metrics::ServerMetrics;
use crate::tenant::Tenants;
use ldp_service::registry::TenantRegistry;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Capacity of each tenant dispatcher queue and each connection's reply
/// queue. Small keeps backpressure tight. A submit that finds the queue
/// full is shed, so it holds exactly a default client's `window + 1`
/// frames in flight (see [`DEFAULT_WINDOW`]).
pub(crate) const QUEUE_DEPTH: usize = DEFAULT_WINDOW + 1;

/// Tunables of the network frontend.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Idle connections are closed after this long without a byte.
    pub read_timeout: Duration,
    /// How often blocked reads wake to check the stop flag and idle
    /// deadline.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            read_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// A running network frontend.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tenants: Option<Arc<Tenants>>,
    metrics: ServerMetrics,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving every tenant currently in `registry`.
    pub fn start(
        addr: impl ToSocketAddrs,
        registry: &TenantRegistry,
        config: ServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Non-blocking accept + short sleep: the loop notices the stop
        // flag promptly without a self-connect wake hack.
        listener.set_nonblocking(true)?;
        let tenants = Arc::new(Tenants::start(registry));
        // The wire layer records into the same registry the tenant
        // services do, so one scrape covers both.
        let metrics = ServerMetrics::new(registry.metrics());
        let stop = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept = {
            let tenants = Arc::clone(&tenants);
            let stop = Arc::clone(&stop);
            let conns = Arc::clone(&conns);
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("ldp-accept".into())
                .spawn(move || loop {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let tenants = Arc::clone(&tenants);
                            let stop = Arc::clone(&stop);
                            let metrics = metrics.clone();
                            let handle = std::thread::Builder::new()
                                .name("ldp-conn".into())
                                .spawn(move || conn::serve(stream, tenants, config, stop, metrics))
                                .expect("spawn connection thread");
                            conns.lock().unwrap().push(handle);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => return,
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(NetServer {
            addr,
            stop,
            accept: Some(accept),
            conns,
            tenants: Some(tenants),
            metrics,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The wire-layer metric handles (recording into the tenant
    /// registry's shared [`MetricsRegistry`](ldp_obs::MetricsRegistry)).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// Admission counters (admits, sheds by cause, auth failures) of
    /// `tenant`, or `None` if it is not hosted.
    pub fn admission_snapshot(&self, tenant: &str) -> Option<crate::admission::AdmissionSnapshot> {
        self.tenants
            .as_ref()
            .and_then(|tenants| tenants.admission_snapshot(tenant))
    }

    /// Stop accepting, drain and join every connection and dispatcher.
    ///
    /// In-flight requests already in a tenant queue are completed and
    /// their replies flushed before the dispatchers exit.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for handle in handles {
            let _ = handle.join();
        }
        if let Some(tenants) = self.tenants.take() {
            if let Ok(tenants) = Arc::try_unwrap(tenants) {
                tenants.shutdown();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Best-effort: a dropped (not shut down) server still stops its
        // threads; handles that were not joined detach.
        self.stop.store(true, Ordering::Relaxed);
    }
}
