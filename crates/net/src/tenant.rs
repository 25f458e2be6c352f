//! Per-tenant dispatchers: bounded channels between connections and
//! each tenant's [`IngestService`].
//!
//! Every registered tenant gets one dispatcher thread fed by a bounded
//! `sync_channel`. Connections decode frames — all but a `SubmitBatch`'s
//! responses, which [`dispatch_submit`] hands the service still encoded —
//! and `send` them here. There is no decoded submit route: a
//! `SubmitBatch` that reaches [`dispatch`] as rows is encoded back into
//! the bytes it came as and takes that same call. A
//! full queue blocks the connection's reader, which stops draining its
//! socket, which fills the kernel buffers, which back-pressures the
//! client through TCP flow control — the same end-to-end backpressure
//! discipline the worker pool applies inside the service, extended to
//! the wire.
//!
//! Routing all of a tenant's service calls through one thread also
//! keeps per-connection request/reply order trivially FIFO: replies are
//! produced in the order the connection sent requests, so clients can
//! pipeline without a reorder buffer.

use crate::admission::{Admission, AdmissionSnapshot, InflightGuard};
use crate::frame::{AckBody, Frame, Request, SubmitBatchBytes, WireError, FRAME_KIND_NAMES};
use ldp_obs::Histogram;
use ldp_service::codec::EncodedResponses;
use ldp_service::registry::TenantRegistry;
use ldp_service::{EncodedSubmitError, IngestService, SessionId};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// One request plus the reply lane of the connection it arrived on.
pub struct TenantWork {
    /// The request: a `SubmitBatch` as bytes, anything else decoded.
    pub request: Request,
    /// The connection's outbound frame queue. A send failure means the
    /// connection is gone; the reply is then dropped.
    pub reply: SyncSender<Frame>,
    /// The in-flight slot an admitted `SubmitBatch` occupies; released
    /// when the work is dropped (after its reply is sent). `None` for
    /// control frames, which bypass admission.
    pub inflight: Option<InflightGuard>,
}

/// One tenant's routing handle: its dispatcher queue plus the admission
/// state connections consult before enqueueing submits.
#[derive(Clone)]
pub struct TenantHandle {
    /// The tenant's bounded dispatcher queue.
    pub queue: SyncSender<TenantWork>,
    /// The tenant's admission control (auth, rate, in-flight quota).
    pub admission: Arc<Admission>,
}

/// The running dispatcher set: tenant id → its work queue.
pub struct Tenants {
    handles_by_id: HashMap<String, TenantHandle>,
    handles: Vec<JoinHandle<()>>,
}

impl Tenants {
    /// Spawn one dispatcher per tenant currently in `registry`.
    ///
    /// The tenant set is snapshotted here: tenants registered after the
    /// server starts are not served (restart the server to pick them
    /// up).
    pub fn start(registry: &TenantRegistry, queue_depth: usize) -> Tenants {
        let mut handles_by_id = HashMap::new();
        let mut handles = Vec::new();
        for id in registry.tenant_ids() {
            let service = registry.lookup(&id).expect("snapshotted id resolves");
            let limits = registry.limits(&id).expect("snapshotted id resolves");
            let scope = registry.tenant_scope(&id);
            let admission = Arc::new(Admission::with_obs(limits, &scope));
            // One latency histogram per request kind, pre-resolved so
            // the dispatch loop records without touching the registry.
            let rpc_ns: [Arc<Histogram>; FRAME_KIND_NAMES.len()] = FRAME_KIND_NAMES.map(|op| {
                scope.with(&[("op", op)]).histogram(
                    "ldp_net_rpc_ns",
                    "Dispatcher service time per request, in nanoseconds.",
                )
            });
            let (tx, rx) = sync_channel::<TenantWork>(queue_depth);
            let name = format!("tenant-{id}");
            let handle = std::thread::Builder::new()
                .name(name)
                .spawn(move || {
                    // Drains until every connection's sender is dropped
                    // (server shutdown), then exits — graceful drain.
                    while let Ok(work) = rx.recv() {
                        let op = work.request.kind_index();
                        let start = Instant::now();
                        let reply = match work.request {
                            Request::Frame(frame) => dispatch(&service, frame),
                            Request::Submit(submit) => dispatch_submit(&service, submit),
                        };
                        rpc_ns[op].record_duration(start.elapsed());
                        let _ = work.reply.send(reply);
                        // `work.inflight` drops here, releasing the
                        // tenant's in-flight slot only after the reply
                        // is on the connection's outbound lane.
                    }
                })
                .expect("spawn tenant dispatcher");
            handles_by_id.insert(
                id,
                TenantHandle {
                    queue: tx,
                    admission,
                },
            );
            handles.push(handle);
        }
        Tenants {
            handles_by_id,
            handles,
        }
    }

    /// The routing handle of `tenant`, if hosted.
    pub fn handle(&self, tenant: &str) -> Option<TenantHandle> {
        self.handles_by_id.get(tenant).cloned()
    }

    /// The work queue of `tenant`, if hosted.
    pub fn sender(&self, tenant: &str) -> Option<SyncSender<TenantWork>> {
        self.handles_by_id.get(tenant).map(|h| h.queue.clone())
    }

    /// The admission counters of `tenant`, if hosted.
    pub fn admission_snapshot(&self, tenant: &str) -> Option<AdmissionSnapshot> {
        self.handles_by_id
            .get(tenant)
            .map(|h| h.admission.snapshot())
    }

    /// Hosted tenant ids, sorted.
    pub fn tenant_ids(&self) -> Vec<String> {
        let mut ids: Vec<String> = self.handles_by_id.keys().cloned().collect();
        ids.sort();
        ids
    }

    /// Drop the work queues and join every dispatcher after it drains.
    pub fn shutdown(self) {
        drop(self.handles_by_id);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// Execute one request against a tenant's service, producing its
/// `Ack`/`Err` reply frame.
pub fn dispatch(service: &Arc<IngestService>, frame: Frame) -> Frame {
    let corr = frame.corr();
    reply(corr, execute(service, frame))
}

/// [`dispatch`] for a `SubmitBatch` the reader left encoded: the bytes
/// go to the service as they are, to be folded and logged without a row
/// in between.
pub fn dispatch_submit(service: &Arc<IngestService>, submit: SubmitBatchBytes) -> Frame {
    let SubmitBatchBytes {
        corr,
        session,
        round,
        seq,
        responses,
    } = submit;
    reply(
        corr,
        submit_encoded(service, session, round, seq, &responses),
    )
}

fn reply(corr: u64, outcome: Result<AckBody, WireError>) -> Frame {
    match outcome {
        Ok(body) => Frame::Ack { corr, body },
        Err(error) => Frame::Err { corr, error },
    }
}

/// The one way a delta reaches the service, whichever route its frame
/// took: as bytes, under one lock. Bytes that turn out not to be a
/// response list are the sender's [`WireError::BadFrame`], under the
/// request's own `corr` — the envelope and its checksum held, so the
/// stream is still in step.
fn submit_encoded(
    service: &IngestService,
    session: u64,
    round: u64,
    seq: u64,
    responses: &EncodedResponses,
) -> Result<AckBody, WireError> {
    let session = SessionId::from_raw(session);
    match service.submit_encoded_at(session, round, seq, responses) {
        Ok(next_seq) => Ok(AckBody::Submitted { next_seq }),
        Err(EncodedSubmitError::Undecodable(detail)) => Err(WireError::BadFrame { detail }),
        Err(EncodedSubmitError::Rule(e)) => Err(WireError::from(&e)),
    }
}

fn execute(service: &Arc<IngestService>, frame: Frame) -> Result<AckBody, WireError> {
    match frame {
        Frame::Hello { resume, .. } => {
            let session = match resume {
                Some(raw) => SessionId::from_raw(raw),
                None => service.create_session().map_err(|e| WireError::from(&e))?,
            };
            let status = service.status(session).map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Session {
                session: session.raw(),
                next_round: status.next_round,
                next_seq: status.next_seq,
                open_round: status.open_round,
            })
        }
        Frame::OpenRound {
            session, request, ..
        } => {
            let session = SessionId::from_raw(session);
            let request = service
                .open_round_at(
                    session,
                    request.round,
                    request.t,
                    request.fo,
                    request.epsilon,
                    request.domain_size,
                )
                .map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Opened { request })
        }
        Frame::SubmitBatch {
            session,
            round,
            seq,
            responses,
            ..
        } => {
            let encoded = EncodedResponses::encode(&responses);
            submit_encoded(service, session, round, seq, &encoded)
        }
        Frame::CloseRound { session, round, .. } => {
            let session = SessionId::from_raw(session);
            let estimate = service
                .close_round_at(session, round)
                .map_err(|e| WireError::from(&e))?;
            Ok(AckBody::Closed { estimate })
        }
        // Stats requests are answered by the connection reader (they
        // need the whole-registry view, not one tenant's service).
        Frame::StatsRequest { .. } => Err(WireError::Protocol {
            detail: "stats requests are served at the connection layer".into(),
        }),
        Frame::Ack { .. } | Frame::Err { .. } => Err(WireError::Protocol {
            detail: "server-only frame sent to server".into(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::put_submit_batch;
    use ldp_fo::{FoKind, Report};
    use ldp_ids::protocol::{ReportRequest, UserResponse};
    use ldp_service::{ServiceConfig, TenantSpec};

    fn registry() -> TenantRegistry {
        let registry = TenantRegistry::new();
        registry
            .register(TenantSpec::in_memory(
                "acme",
                ServiceConfig::with_threads(1),
            ))
            .unwrap();
        registry
    }

    #[test]
    fn dispatch_runs_a_full_round() {
        let registry = registry();
        let service = registry.lookup("acme").unwrap();
        let hello = dispatch(
            &service,
            Frame::Hello {
                corr: 1,
                tenant: "acme".into(),
                resume: None,
                token: None,
            },
        );
        let Frame::Ack {
            corr: 1,
            body: AckBody::Session { session, .. },
        } = hello
        else {
            panic!("unexpected hello reply: {hello:?}");
        };
        let open = dispatch(
            &service,
            Frame::OpenRound {
                corr: 2,
                session,
                request: ReportRequest {
                    round: 0,
                    t: 0,
                    fo: FoKind::Grr,
                    epsilon: 8.0,
                    domain_size: 2,
                },
            },
        );
        assert!(
            matches!(
                open,
                Frame::Ack {
                    corr: 2,
                    body: AckBody::Opened { .. }
                }
            ),
            "{open:?}"
        );
        let close = dispatch(
            &service,
            Frame::CloseRound {
                corr: 3,
                session,
                round: 0,
            },
        );
        assert!(
            matches!(
                close,
                Frame::Ack {
                    corr: 3,
                    body: AckBody::Closed { .. }
                }
            ),
            "{close:?}"
        );
    }

    /// The round a `SubmitBatch` names is checked on both routes, the
    /// decoded frame's and the encoded one's — after the sequence rules,
    /// so a duplicate is acknowledged whatever it names — and bytes that
    /// are not a response list come back under the request's own `corr`,
    /// whether a round is open, or the session exists, or not.
    #[test]
    fn a_delta_for_another_round_is_stale_on_both_routes() {
        let registry = registry();
        let service = registry.lookup("acme").unwrap();
        let session = service.create_session().unwrap();
        service
            .open_round_at(session, 0, 0, FoKind::Grr, 8.0, 2)
            .unwrap();
        let rows = |round| {
            vec![UserResponse::Report {
                round,
                report: Report::Grr(1),
            }]
        };
        // The two routes for one frame: decoded, and left encoded.
        let routes_of = |session, round, seq, responses: Vec<UserResponse>| {
            let encoded = EncodedResponses::encode(&responses);
            let decoded = Frame::SubmitBatch {
                corr: 5,
                session,
                round,
                seq,
                responses,
            };
            let encoded = SubmitBatchBytes {
                corr: 5,
                session,
                round,
                seq,
                responses: encoded,
            };
            [
                dispatch(&service, decoded),
                dispatch_submit(&service, encoded),
            ]
        };
        let routes = |round, seq, responses| routes_of(session.raw(), round, seq, responses);
        let stale = |got| Frame::Err {
            corr: 5,
            error: WireError::StaleRound { expected: 0, got },
        };
        let submitted = |next_seq| Frame::Ack {
            corr: 5,
            body: AckBody::Submitted { next_seq },
        };
        // Round 7 while round 0 is open: refused, though no response
        // contradicts it (an empty delta) or every one agrees with it.
        assert_eq!(routes(7, 0, Vec::new()), [stale(7), stale(7)]);
        assert_eq!(routes(7, 0, rows(7)), [stale(7), stale(7)]);
        // The head agrees, a response does not: the response's echo.
        assert_eq!(routes(0, 0, rows(3)), [stale(3), stale(3)]);
        // An honest delta (the second route's is already its duplicate),
        // then duplicates and gaps that name round 7: the sequence rules
        // answer first.
        assert_eq!(routes(0, 0, rows(0)), [submitted(1), submitted(1)]);
        assert_eq!(routes(7, 0, rows(7)), [submitted(1), submitted(1)]);
        let gap = Frame::Err {
            corr: 5,
            error: WireError::SequenceGap {
                expected: 1,
                got: 4,
            },
        };
        assert_eq!(routes(7, 4, rows(7)), [gap.clone(), gap]);
        assert_eq!(service.close_round(session).unwrap().reporters, 1);

        // No round open, or no such session: honest rows meet the
        // lifecycle on both routes. Bytes that are no response list are
        // refused before that on both: the bytes route answers
        // `BadFrame`, and on the decoded route the frame decoder refuses
        // them before there is a frame to dispatch.
        let refused = |error| Frame::Err { corr: 5, error };
        let idle = refused(WireError::NoOpenRound);
        assert_eq!(routes(1, 1, rows(1)), [idle.clone(), idle]);
        let ghost = refused(WireError::UnknownSession { session: 404 });
        assert_eq!(routes_of(404, 1, 1, rows(1)), [ghost.clone(), ghost]);
        let not_a_list = EncodedResponses::new(vec![1, 0, 0, 0]);
        for target in [session.raw(), 404] {
            let mut payload = Vec::new();
            put_submit_batch(&mut payload, 6, target, 1, 1, &[]);
            payload.truncate(payload.len() - 4);
            payload.extend_from_slice(not_a_list.bytes());
            assert!(Frame::decode_payload(&payload).is_err(), "{target}");
            let bytes = SubmitBatchBytes {
                corr: 6,
                session: target,
                round: 1,
                seq: 1,
                responses: not_a_list.clone(),
            };
            match dispatch_submit(&service, bytes) {
                Frame::Err {
                    corr: 6,
                    error: WireError::BadFrame { detail },
                } => assert!(detail.contains("response count 1 exceeds"), "{detail}"),
                other => panic!("{target}: expected BadFrame, got {other:?}"),
            }
        }
        assert_eq!(service.next_seq(session).unwrap(), 1);

        let forged = SubmitBatchBytes {
            corr: 6,
            session: session.raw(),
            round: 0,
            seq: 1,
            responses: EncodedResponses::new(vec![1, 0, 0, 0]),
        };
        service
            .open_round_at(session, 1, 0, FoKind::Grr, 8.0, 2)
            .unwrap();
        match dispatch_submit(&service, forged) {
            Frame::Err {
                corr: 6,
                error: WireError::BadFrame { detail },
            } => assert!(detail.contains("response count 1 exceeds"), "{detail}"),
            other => panic!("expected BadFrame, got {other:?}"),
        }
    }

    #[test]
    fn service_errors_become_typed_wire_errors() {
        let registry = registry();
        let service = registry.lookup("acme").unwrap();
        let reply = dispatch(
            &service,
            Frame::CloseRound {
                corr: 9,
                session: 404,
                round: 0,
            },
        );
        assert_eq!(
            reply,
            Frame::Err {
                corr: 9,
                error: WireError::UnknownSession { session: 404 }
            }
        );
    }

    #[test]
    fn tenants_snapshot_serves_registered_ids_only() {
        let registry = registry();
        let tenants = Tenants::start(&registry, 4);
        assert!(tenants.handle("acme").is_some());
        assert!(tenants.sender("acme").is_some());
        assert!(tenants.handle("ghost").is_none());
        assert_eq!(tenants.tenant_ids(), vec!["acme"]);
        assert_eq!(tenants.admission_snapshot("acme"), Some(Default::default()));
        tenants.shutdown();
    }
}
