//! One accepted connection: reader loop + writer thread.
//!
//! The reader drains the socket into a [`FrameBuffer`], resolves the
//! connection's tenant at `Hello` (checking the tenant's shared secret
//! in constant time), and forwards every request into the tenant's
//! bounded dispatcher queue. A separate writer thread owns the
//! outbound half of the socket and serializes reply frames from a
//! bounded channel, so slow clients stall only their own replies.
//!
//! **A `SubmitBatch` crosses this thread as bytes.** The reader checks
//! its envelope and the CRC over the whole payload, decodes the 34-byte
//! head, and holds the response count against the bytes behind it —
//! nothing else: the rows go to the dispatcher as the owned bytes they
//! arrived as ([`Request::Submit`]), to be decoded straight into the
//! open round's columns and logged under the checksum they came with.
//! So there are two kinds of bad submit. One whose envelope fails
//! (length, checksum, version) leaves the stream unsynchronized: it gets
//! `Err { corr: 0, BadFrame }` and the connection is dropped, as for any
//! frame. One whose envelope holds but whose rows do not decode (a count
//! past the bytes, an unknown tag, a truncated row, trailing bytes) is
//! the sender's mistake on a stream still in step: it gets
//! `Err { corr, BadFrame }` under its own correlation id — from here for
//! the count, from the dispatcher for the rows — and the connection
//! stays open. Neither reaches the session or the WAL.
//!
//! **Graceful degradation ordering.** `SubmitBatch` — the bulk of the
//! traffic and the only frame a flood is made of — passes the tenant's
//! [`Admission`](crate::admission::Admission) gate and a *non-blocking*
//! `try_send` into the dispatcher queue; any refusal sheds the frame
//! with a typed [`WireError::Overloaded`] instead of stalling this
//! reader. Control frames (`Hello`/`OpenRound`/`CloseRound`) keep the
//! blocking send, so even a tenant under sustained overload can always
//! bind, resume, and close its open round.
//!
//! Reads poll with a short timeout instead of blocking indefinitely:
//! each wakeup checks the server's stop flag (graceful shutdown) and an
//! idle deadline (dead peers are reaped after
//! [`ServerConfig::read_timeout`](crate::server::ServerConfig)).

use crate::codec::{encode_frame, FrameBuffer};
use crate::error::FrameError;
use crate::frame::{AckBody, Frame, Request, WireError, STATS_VERSION, WIRE_VERSION};
use crate::metrics::ServerMetrics;
use crate::server::ServerConfig;
use crate::tenant::{TenantHandle, TenantWork, Tenants};
use ldp_service::codec::{take_response_count, Cursor};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Instant;

/// Serve one accepted connection until EOF, error, idle timeout, or
/// server shutdown.
pub(crate) fn serve(
    stream: TcpStream,
    tenants: Arc<Tenants>,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
    metrics: ServerMetrics,
) {
    if arm_accepted(&stream, &config).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    metrics.connections().inc();
    // Bounded reply lane: the dispatcher blocks here if this client
    // stops reading, rather than buffering its replies unboundedly.
    let (reply_tx, reply_rx) = sync_channel::<Frame>(config.queue_depth);
    let writer = {
        let metrics = metrics.clone();
        std::thread::Builder::new()
            .name("conn-writer".into())
            .spawn(move || {
                let mut write_half = write_half;
                while let Ok(frame) = reply_rx.recv() {
                    metrics.record_out(&frame);
                    if write_half.write_all(&encode_frame(&frame)).is_err() {
                        break;
                    }
                }
                let _ = write_half.flush();
            })
            .expect("spawn connection writer")
    };

    read_loop(stream, &tenants, &config, &stop, &reply_tx, &metrics);
    metrics.connections().dec();

    // Dropping our reply sender lets the writer drain queued replies
    // (including any dispatcher replies still in flight via its own
    // clone) and exit.
    drop(reply_tx);
    let _ = writer.join();
}

/// Arm an accepted socket (and the writer half cloned from it, which
/// shares its options): polling reads, and `TCP_NODELAY`. Replies are
/// small frames written one `write_all` each, and a pipelining client
/// goes quiet while it drains them — exactly where Nagle holds reply 2
/// until the client's delayed ACK of reply 1, ~40 ms later.
fn arm_accepted(stream: &TcpStream, config: &ServerConfig) -> std::io::Result<()> {
    stream.set_read_timeout(Some(config.poll_interval))?;
    stream.set_nodelay(true)
}

fn read_loop(
    mut stream: TcpStream,
    tenants: &Tenants,
    config: &ServerConfig,
    stop: &AtomicBool,
    reply_tx: &SyncSender<Frame>,
    metrics: &ServerMetrics,
) {
    let mut fb = FrameBuffer::new();
    let mut tenant: Option<TenantHandle> = None;
    let mut buf = [0u8; 16 * 1024];
    let mut last_activity = Instant::now();
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return, // clean EOF
            Ok(n) => {
                last_activity = Instant::now();
                fb.feed(&buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() >= config.read_timeout {
                    return; // idle peer
                }
                continue;
            }
            Err(_) => return,
        }
        loop {
            let request = match fb.next_request() {
                Ok(Some(request)) => request,
                Ok(None) => break,
                Err(e) => {
                    // The stream is unsynchronized after a framing
                    // defect: report it, then drop the connection.
                    let _ = reply_tx.send(framing_reply(e));
                    return;
                }
            };
            metrics.record_request(&request);
            match route(request, tenants, &mut tenant, reply_tx, config, metrics) {
                Routed::Ok => {}
                Routed::Closed => return,
            }
        }
    }
}

enum Routed {
    Ok,
    Closed,
}

fn route(
    request: Request,
    tenants: &Tenants,
    tenant: &mut Option<TenantHandle>,
    reply_tx: &SyncSender<Frame>,
    config: &ServerConfig,
    metrics: &ServerMetrics,
) -> Routed {
    let corr = request.corr();
    let reject = |error: WireError| {
        if reply_tx.send(Frame::Err { corr, error }).is_ok() {
            Routed::Ok
        } else {
            Routed::Closed
        }
    };
    // Stats requests are answered from the shared registry right here —
    // before the Hello check, so operators scrape without binding (or
    // even having) a tenant.
    if let Request::Frame(Frame::StatsRequest { scope, .. }) = &request {
        let mut samples = metrics.registry().snapshot();
        if let Some(scope) = scope {
            samples.retain(|s| s.label("tenant") == Some(scope));
        }
        let reply = Frame::Ack {
            corr,
            body: AckBody::Stats {
                version: STATS_VERSION,
                samples,
            },
        };
        return if reply_tx.send(reply).is_ok() {
            Routed::Ok
        } else {
            Routed::Closed
        };
    }
    // Hello (re)binds the connection's tenant; everything else requires
    // a prior Hello.
    if let Request::Frame(Frame::Hello {
        tenant: id, token, ..
    }) = &request
    {
        let Some(handle) = tenants.handle(id) else {
            return reject(WireError::UnknownTenant { tenant: id.clone() });
        };
        if !handle.admission.check_auth(token.as_deref()) {
            return reject(WireError::AuthFailed { tenant: id.clone() });
        }
        *tenant = Some(handle);
    }
    let Some(handle) = tenant.as_ref() else {
        return reject(WireError::Protocol {
            detail: "Hello must precede other frames".into(),
        });
    };
    if let Request::Submit(submit) = &request {
        // What admission debits is the frame's own count, so it is held
        // against the bytes behind it first: a forged one is refused
        // here, having cost the tenant nothing.
        let count = take_response_count(&mut Cursor::new(submit.responses.bytes()));
        let responses = match count {
            Ok(responses) => responses,
            Err(detail) => return reject(WireError::BadFrame { detail }),
        };
        // The shedding path: admission gate + non-blocking enqueue.
        // Refusals reply Overloaded from this reader thread — the
        // request never reached the service, so it is safe to retry.
        let guard = match handle.admission.admit(responses) {
            Ok(guard) => guard,
            Err((_reason, wait)) => {
                return reject(WireError::Overloaded {
                    retry_after_ms: wait.as_millis() as u64,
                });
            }
        };
        let work = TenantWork {
            request,
            reply: reply_tx.clone(),
            inflight: Some(guard),
        };
        return match handle.queue.try_send(work) {
            Ok(()) => {
                // Counted only after the enqueue wins, so the admitted
                // series is monotonic (a queue-full refusal below never
                // has to take the count back).
                handle.admission.note_admitted();
                Routed::Ok
            }
            Err(std::sync::mpsc::TrySendError::Full(work)) => {
                drop(work); // releases the in-flight slot
                handle.admission.note_queue_shed();
                reject(WireError::Overloaded {
                    retry_after_ms: config.shed_retry.as_millis() as u64,
                })
            }
            // Dispatcher gone: the server is shutting down.
            Err(std::sync::mpsc::TrySendError::Disconnected(_)) => Routed::Closed,
        };
    }
    // Control frames keep the blocking send: a saturated tenant stalls
    // this reader, the socket stops draining, TCP pushes back — but the
    // frame is never shed, so open rounds can always close.
    let work = TenantWork {
        request,
        reply: reply_tx.clone(),
        inflight: None,
    };
    if handle.queue.send(work).is_err() {
        // Dispatcher gone: the server is shutting down.
        return Routed::Closed;
    }
    Routed::Ok
}

/// The reply sent for an undecodable stream (no request to attribute it
/// to, so `corr` 0).
///
/// Stream-level defects are typed [`WireError::BadFrame`] — retryable,
/// because a reconnect resynchronizes the stream and the idempotent
/// replay recovers whatever was in flight. An unsupported version stays
/// the non-retryable [`WireError::Version`].
fn framing_reply(e: FrameError) -> Frame {
    let error = match e {
        FrameError::Version { got } => WireError::Version {
            min: WIRE_VERSION,
            max: WIRE_VERSION,
            got,
        },
        other => WireError::BadFrame {
            detail: other.to_string(),
        },
    };
    Frame::Err { corr: 0, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn accepted_socket_is_armed_with_nodelay_and_polling_reads() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        assert!(!stream.nodelay().unwrap(), "the OS default is Nagle on");
        arm_accepted(&stream, &ServerConfig::default()).unwrap();
        assert!(stream.nodelay().unwrap());
        // The kernel rounds the timeout to its own tick: armed, not equal.
        assert!(stream.read_timeout().unwrap().is_some());
        // The writer thread's half is a clone: same socket, same options.
        assert!(stream.try_clone().unwrap().nodelay().unwrap());
    }
}
