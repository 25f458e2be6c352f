//! Loopback integration tests: a real `NetServer` on an ephemeral port,
//! driven through `NetClient` and through raw sockets.
//!
//! The invariant under test is the workspace's core one — estimates that
//! crossed the wire are **bit-identical** to the sequential in-process
//! [`AggregationServer`] — plus the transport behaviors around it:
//! torn-frame reassembly, typed rejection of protocol misuse and of
//! forged `SubmitBatch` rows (which the server reads in the tenant
//! dispatcher, so they cost the sender a typed reply, not the
//! connection), idle reaping, disconnect/resume replay, and graceful
//! shutdown.

use ldp_fo::{build_oracle, FoKind, OracleHandle, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{
    encode_frame, scrape_stats, AckBody, ClientOptions, Frame, FrameBuffer, NetClient, NetError,
    NetServer, RetryPolicy, ServerConfig, WireError,
};
use ldp_obs::MetricValue;
use ldp_service::codec::{put_enveloped, put_u32, EncodedResponses};
use ldp_service::{
    RateLimit, ServiceConfig, SessionId, TenantLimits, TenantRegistry, TenantSpec, WalSync,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn start_server(tenants: &[&str]) -> NetServer {
    let registry = TenantRegistry::new();
    for id in tenants {
        registry
            .register(TenantSpec::in_memory(*id, ServiceConfig::with_threads(2)))
            .unwrap();
    }
    NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap()
}

fn seeded_responses(oracle: &OracleHandle, round: u64, n: usize, seed: u64) -> Vec<UserResponse> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 13 == 12 {
                UserResponse::Refused {
                    round,
                    requested: 1.0,
                    available: 0.25,
                }
            } else {
                UserResponse::Report {
                    round,
                    report: oracle.perturb(i % oracle.domain_size(), &mut rng),
                }
            }
        })
        .collect()
}

fn sequential_estimate(
    oracle: &OracleHandle,
    fo: FoKind,
    epsilon: f64,
    responses: &[UserResponse],
) -> RoundEstimate {
    let mut server = AggregationServer::new();
    server.open_round(0, fo, epsilon, oracle.clone());
    for response in responses {
        server.submit(response).unwrap();
    }
    server.close_round().unwrap()
}

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    let a_bits: Vec<u64> = a.frequencies.iter().map(|f| f.to_bits()).collect();
    let b_bits: Vec<u64> = b.frequencies.iter().map(|f| f.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: frequency bits differ");
}

#[test]
fn network_round_is_bit_identical_to_inprocess() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 8);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 500, 7);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(37) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "loopback vs in-process");
    server.shutdown();
}

#[test]
fn tiny_pipelining_window_still_converges() {
    let (fo, epsilon, domain) = (FoKind::Oue, 1.0, 6);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 300, 11);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "acme",
        ClientOptions::default().window(1),
    )
    .unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    for delta in responses.chunks(10) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "window=1");
    server.shutdown();
}

#[test]
fn unknown_tenant_is_a_typed_remote_error() {
    let server = start_server(&["acme"]);
    let err = NetClient::connect(server.addr().to_string(), "ghost").unwrap_err();
    match err {
        NetError::Remote(WireError::UnknownTenant { tenant }) => assert_eq!(tenant, "ghost"),
        other => panic!("expected UnknownTenant, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn frames_before_hello_are_rejected() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode_frame(&Frame::CloseRound {
            corr: 5,
            session: 0,
            round: 0,
        }))
        .unwrap();
    let reply = read_one_frame(&mut stream);
    match reply {
        Frame::Err {
            corr: 5,
            error: WireError::Protocol { detail },
        } => assert!(detail.contains("Hello"), "{detail}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn torn_frames_across_writes_are_reassembled() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let hello = encode_frame(&Frame::Hello {
        corr: 1,
        tenant: "acme".into(),
        resume: None,
        token: None,
    });
    // Dribble the frame one byte per write; the server's FrameBuffer
    // must reassemble it across arbitrarily torn reads.
    for byte in hello {
        stream.write_all(&[byte]).unwrap();
        stream.flush().unwrap();
    }
    let reply = read_one_frame(&mut stream);
    assert!(
        matches!(
            reply,
            Frame::Ack {
                corr: 1,
                body: AckBody::Session { .. }
            }
        ),
        "{reply:?}"
    );
    server.shutdown();
}

#[test]
fn corrupt_stream_gets_typed_reply_then_close() {
    let server = start_server(&["acme"]);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut bytes = encode_frame(&Frame::Hello {
        corr: 1,
        tenant: "acme".into(),
        resume: None,
        token: None,
    });
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff; // breaks the CRC
    stream.write_all(&bytes).unwrap();
    let reply = read_one_frame(&mut stream);
    // Stream corruption is a typed, *retryable* BadFrame — reconnecting
    // resynchronizes and the idempotent replay recovers.
    match &reply {
        Frame::Err {
            corr: 0,
            error: error @ WireError::BadFrame { .. },
        } => assert!(error.retryable(), "BadFrame must be retryable"),
        other => panic!("expected BadFrame error, got {other:?}"),
    }
    // The connection is unsynchronized after a framing defect: EOF next.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "expected EOF, got {} bytes", rest.len());
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped() {
    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::in_memory(
            "acme",
            ServiceConfig::with_threads(1),
        ))
        .unwrap();
    let config = ServerConfig {
        read_timeout: Duration::from_millis(100),
        poll_interval: Duration::from_millis(10),
    };
    let server = NetServer::start("127.0.0.1:0", &registry, config).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    // Say nothing; the server should hang up on us.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    server.shutdown();
}

#[test]
fn disconnect_and_recover_replays_unacked_deltas() {
    let (fo, epsilon, domain) = (FoKind::Olh, 1.0, 10);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 400, 23);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    // A wide window keeps deltas unacknowledged so the drop loses real
    // in-flight state.
    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "acme",
        ClientOptions::default().window(64),
    )
    .unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();
    let mut chunks = responses.chunks(25);
    for delta in chunks.by_ref().take(8) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    client.disconnect();
    client.recover().unwrap();
    for delta in chunks {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "disconnect/recover");
    server.shutdown();
}

#[test]
fn fresh_resume_client_continues_the_session() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 4);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 120, 5);
    let expected = sequential_estimate(&oracle, fo, epsilon, &responses);

    let server = start_server(&["acme"]);
    let addr = server.addr().to_string();
    let mut first = NetClient::connect(addr.clone(), "acme").unwrap();
    first.open_round_with(0, fo, epsilon, domain).unwrap();
    first.submit_batch(responses[..60].to_vec()).unwrap();
    // Wait for the ack so the delta is fully applied, then vanish.
    first.flush().unwrap();
    let session = first.session();
    drop(first);

    let mut second = NetClient::resume(addr, "acme", session).unwrap();
    assert_eq!(second.session(), session);
    assert_eq!(second.open_round(), Some(0));
    second.submit_batch(responses[60..].to_vec()).unwrap();
    let estimate = second.close_round().unwrap();
    assert_bit_identical(&estimate, &expected, "fresh resume");
    server.shutdown();
}

#[test]
fn tenants_are_isolated_over_one_listener() {
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 5);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let acme = seeded_responses(&oracle, 0, 200, 31);
    let globex = seeded_responses(&oracle, 0, 150, 77);
    let expected_acme = sequential_estimate(&oracle, fo, epsilon, &acme);
    let expected_globex = sequential_estimate(&oracle, fo, epsilon, &globex);

    let server = start_server(&["acme", "globex"]);
    let addr = server.addr().to_string();
    let mut ca = NetClient::connect(addr.clone(), "acme").unwrap();
    let mut cg = NetClient::connect(addr, "globex").unwrap();
    ca.open_round_with(0, fo, epsilon, domain).unwrap();
    cg.open_round_with(0, fo, epsilon, domain).unwrap();
    // Interleave the two tenants' traffic through the one listener.
    let mut ia = acme.chunks(17);
    let mut ig = globex.chunks(17);
    loop {
        let da = ia.next();
        let dg = ig.next();
        if da.is_none() && dg.is_none() {
            break;
        }
        if let Some(delta) = da {
            ca.submit_batch(delta.to_vec()).unwrap();
        }
        if let Some(delta) = dg {
            cg.submit_batch(delta.to_vec()).unwrap();
        }
    }
    assert_bit_identical(&ca.close_round().unwrap(), &expected_acme, "acme");
    assert_bit_identical(&cg.close_round().unwrap(), &expected_globex, "globex");
    server.shutdown();
}

#[test]
fn shutdown_closes_live_connections() {
    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 2).unwrap();
    server.shutdown();
    // The next blocking call observes the closed socket as an error, not
    // a hang.
    let err = client.submit_batch(vec![]).and_then(|_| {
        // The submit may land in a kernel buffer; the close must fail.
        client.close_round().map(|_| ())
    });
    assert!(err.is_err(), "expected an error after shutdown");
}

/// A resume that itself fails must not cost the replay queue. Scripted
/// server: the first connection takes a delta and dies before acking
/// it, the second dies mid-`Hello`, the third resumes at `next_seq` 0 —
/// and must be sent the delta, or the round closes one delta short
/// behind a `flush` that reported success.
#[test]
fn replay_queue_survives_a_failed_resume() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let delta = vec![UserResponse::Report {
        round: 0,
        report: Report::Grr(1),
    }];
    let expected = delta.clone();
    let server = std::thread::spawn(move || {
        let reply = |stream: &mut TcpStream, corr, body| {
            stream
                .write_all(&encode_frame(&Frame::Ack { corr, body }))
                .unwrap()
        };
        let session = |next_round, open_round| AckBody::Session {
            session: 1,
            next_round,
            next_seq: 0,
            open_round,
        };
        let (mut first, _) = listener.accept().unwrap();
        let hello = read_one_frame(&mut first);
        reply(&mut first, hello.corr(), session(0, None));
        let Frame::OpenRound { corr, request, .. } = read_one_frame(&mut first) else {
            panic!("expected OpenRound");
        };
        reply(&mut first, corr, AckBody::Opened { request });
        let submit = read_one_frame(&mut first);
        assert!(
            matches!(submit, Frame::SubmitBatch { seq: 0, .. }),
            "{submit:?}"
        );
        drop(first);

        let (mut second, _) = listener.accept().unwrap();
        let hello = read_one_frame(&mut second);
        assert!(
            matches!(
                hello,
                Frame::Hello {
                    resume: Some(1),
                    ..
                }
            ),
            "{hello:?}"
        );
        drop(second);

        let (mut third, _) = listener.accept().unwrap();
        let hello = read_one_frame(&mut third);
        reply(&mut third, hello.corr(), session(1, Some(0)));
        match read_one_frame(&mut third) {
            Frame::SubmitBatch {
                corr,
                seq: 0,
                responses,
                ..
            } => {
                assert_eq!(responses, expected);
                reply(&mut third, corr, AckBody::Submitted { next_seq: 1 });
            }
            other => panic!("expected the replayed delta, got {other:?}"),
        }
    });

    let retry = RetryPolicy {
        base: Duration::from_millis(1),
        cap: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let options = ClientOptions::default().retry(retry);
    let mut client = NetClient::connect_with(addr, "acme", options).unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 4).unwrap();
    client.submit_batch(delta).unwrap();
    client.flush().unwrap();
    assert_eq!(client.next_seq(), 1);
    drop(client); // EOF for a server still waiting on the replay
    server.join().unwrap();
}

/// A checksum-valid `SubmitBatch` frame around whatever `responses`
/// holds — the bytes `put_responses` wrote, or a forgery of them.
fn submit_frame(corr: u64, session: u64, round: u64, seq: u64, responses: &[u8]) -> Vec<u8> {
    let empty = encode_frame(&Frame::SubmitBatch {
        corr,
        session,
        round,
        seq,
        responses: Vec::new(),
    });
    // Behind the envelope: the frame's head, then a zero count.
    let head = &empty[8..empty.len() - 4];
    let mut frame = Vec::new();
    put_enveloped(&mut frame, |out| {
        out.extend_from_slice(head);
        out.extend_from_slice(responses);
    });
    frame
}

fn encoded(responses: &[UserResponse]) -> Vec<u8> {
    EncodedResponses::encode(responses).bytes().to_vec()
}

/// One forged input per way a `SubmitBatch`'s rows can lie, each inside
/// a frame whose envelope and checksum hold. Every one is refused with
/// the typed error the decoded route gives the same rows — `BadFrame`
/// for bytes that are not a response list, the lifecycle's own error for
/// a list the session refuses, an ack for a duplicate — under the
/// request's own `corr`, on a connection that stays open: the framing
/// was never in doubt. None moves `next_seq` or the WAL, debits the rate
/// budget by a forged count, or keeps its in-flight slot.
#[test]
fn forged_submits_get_typed_replies_and_the_connection_stays_open() {
    let (fo, epsilon, domain) = (FoKind::Oue, 1.0, 128);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let honest = seeded_responses(&oracle, 0, 8, 41);
    let expected = sequential_estimate(&oracle, fo, epsilon, &honest);

    let dir = std::env::temp_dir().join(format!("ldp_loopback_forged_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = TenantRegistry::new();
    // A rate budget the honest rows fit and a forged count would drain.
    let limits = TenantLimits {
        rate: Some(RateLimit {
            reports_per_sec: 0.0,
            burst: 64,
        }),
        ..TenantLimits::open()
    };
    let config = ServiceConfig::with_threads(2)
        .with_snapshot_every(0)
        .with_sync(WalSync::None);
    let service = registry
        .register(TenantSpec::durable("acme", config, &dir).with_limits(limits))
        .unwrap();
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut call = |bytes: Vec<u8>| {
        stream.write_all(&bytes).unwrap();
        read_one_frame(&mut stream)
    };
    let err = |corr, error| Frame::Err { corr, error };
    let submitted = |corr, next_seq| Frame::Ack {
        corr,
        body: AckBody::Submitted { next_seq },
    };

    // A submit before `Hello`, and one with no round open.
    match call(submit_frame(1, 0, 0, 0, &encoded(&honest[..4]))) {
        Frame::Err {
            corr: 1,
            error: WireError::Protocol { detail },
        } => assert!(detail.contains("Hello"), "{detail}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    let hello = call(encode_frame(&Frame::Hello {
        corr: 2,
        tenant: "acme".into(),
        resume: None,
        token: None,
    }));
    let Frame::Ack {
        body: AckBody::Session { session, .. },
        ..
    } = hello
    else {
        panic!("expected a session, got {hello:?}");
    };
    assert_eq!(
        call(submit_frame(3, session, 0, 0, &encoded(&honest[..4]))),
        err(3, WireError::NoOpenRound)
    );

    let request = ldp_ids::protocol::ReportRequest {
        round: 0,
        t: 0,
        fo,
        epsilon,
        domain_size: domain,
    };
    let opened = call(encode_frame(&Frame::OpenRound {
        corr: 4,
        session,
        request,
    }));
    assert!(matches!(opened, Frame::Ack { corr: 4, .. }), "{opened:?}");
    assert_eq!(
        call(submit_frame(5, session, 0, 0, &encoded(&honest[..4]))),
        submitted(5, 1)
    );
    let id = SessionId::from_raw(session);
    let records = service.wal_stats().unwrap().records;

    // Bytes that are not a response list. Row 0 starts at byte 4: tag,
    // round (8), report tag, len (4), word count (4), two words.
    let rows = encoded(&honest[4..]);
    let forge = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut forged = rows.clone();
        edit(&mut forged);
        forged
    };
    let mut huge_count = Vec::new();
    put_u32(&mut huge_count, 1 << 24);
    huge_count.extend_from_slice(&[0; 64]);
    let undecodable: [(&str, Vec<u8>, &str); 7] = [
        ("count past the bytes", huge_count, "response count"),
        (
            "honest rows under a forged count",
            forge(&|b| b[..4].copy_from_slice(&10u32.to_le_bytes())),
            "response count 10 exceeds",
        ),
        (
            "OUE word count past the bytes",
            forge(&|b| b[18..22].copy_from_slice(&u32::MAX.to_le_bytes())),
            "OUE word count",
        ),
        (
            "unknown response tag",
            forge(&|b| b[4] = 7),
            "unknown response tag 7",
        ),
        (
            "unknown report tag",
            forge(&|b| b[13] = 9),
            "unknown report tag 9",
        ),
        (
            "truncated last row",
            forge(&|b| b.truncate(b.len() - 3)),
            "exceeds the 13 bytes left",
        ),
        ("trailing bytes", forge(&|b| b.push(0)), "1 trailing bytes"),
    ];
    for (i, (what, forged, want)) in undecodable.iter().enumerate() {
        let corr = 10 + i as u64;
        match call(submit_frame(corr, session, 0, 1, forged)) {
            Frame::Err {
                corr: got,
                error: WireError::BadFrame { detail },
            } => {
                assert_eq!(got, corr, "{what}");
                assert!(detail.contains(want), "{what}: {detail}");
            }
            other => panic!("{what}: expected BadFrame, got {other:?}"),
        }
    }

    // Response lists the session refuses.
    let mut stale_inside = honest[4..].to_vec();
    stale_inside[2] = UserResponse::Refused {
        round: 4,
        requested: 1.0,
        available: 0.0,
    };
    let stale = |got| WireError::StaleRound { expected: 0, got };
    assert_eq!(
        call(submit_frame(20, session, 0, 1, &encoded(&stale_inside))),
        err(20, stale(4))
    );
    assert_eq!(
        call(submit_frame(21, session, 7, 1, &rows)),
        err(21, stale(7)),
        "the round the frame names is its first echo"
    );
    assert_eq!(
        call(submit_frame(22, session, 0, 5, &rows)),
        err(
            22,
            WireError::SequenceGap {
                expected: 1,
                got: 5
            }
        )
    );
    // A duplicate is acknowledged, whatever it names or carries.
    assert_eq!(
        call(submit_frame(23, session, 7, 0, &encoded(&stale_inside))),
        submitted(23, 1)
    );

    // Nothing moved, nothing is held.
    assert_eq!(service.next_seq(id).unwrap(), 1);
    assert_eq!(service.wal_stats().unwrap().records, records);
    let inflight = || {
        let (_, samples) = scrape_stats(
            &server.addr().to_string(),
            Some("acme"),
            Duration::from_secs(5),
        )
        .unwrap();
        let gauge = samples.iter().find(|s| s.name == "ldp_inflight").unwrap();
        gauge.value.clone()
    };
    // The slot is released just after the reply is queued: give the
    // dispatcher that instant.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while inflight() != MetricValue::Gauge(0) {
        assert!(
            std::time::Instant::now() < deadline,
            "slots held: {:?}",
            inflight()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The stream is still in step and the budget still holds the honest
    // rows: the round finishes, bit for bit.
    assert_eq!(
        call(submit_frame(30, session, 0, 1, &rows)),
        submitted(30, 2)
    );
    let closed = call(encode_frame(&Frame::CloseRound {
        corr: 31,
        session,
        round: 0,
    }));
    let Frame::Ack {
        corr: 31,
        body: AckBody::Closed { estimate },
    } = closed
    else {
        panic!("expected the estimate, got {closed:?}");
    };
    assert_bit_identical(&estimate, &expected, "after the forgeries");
    server.shutdown();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A delta that names round 3 while round 0 is open is stale even when
/// no response contradicts it — the parent's server logged an empty one
/// under round 0.
#[test]
fn a_submit_naming_another_round_is_stale() {
    let server = start_server(&["acme"]);
    let mut client = NetClient::connect(server.addr().to_string(), "acme").unwrap();
    client.open_round_with(0, FoKind::Grr, 1.0, 4).unwrap();
    let session = client.session();
    // A second connection resumes the session and speaks for itself.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(&encode_frame(&Frame::Hello {
            corr: 1,
            tenant: "acme".into(),
            resume: Some(session),
            token: None,
        }))
        .unwrap();
    let hello = read_one_frame(&mut stream);
    assert!(matches!(hello, Frame::Ack { corr: 1, .. }), "{hello:?}");
    stream
        .write_all(&encode_frame(&Frame::SubmitBatch {
            corr: 2,
            session,
            round: 3,
            seq: 0,
            responses: Vec::new(),
        }))
        .unwrap();
    assert_eq!(
        read_one_frame(&mut stream),
        Frame::Err {
            corr: 2,
            error: WireError::StaleRound {
                expected: 0,
                got: 3
            }
        }
    );
    // The session did not move: the client's own first delta is seq 0.
    client.submit_batch(Vec::new()).unwrap();
    assert_eq!(client.close_round().unwrap().reporters, 0);
    server.shutdown();
}

/// Read exactly one frame off a raw socket (test helper).
fn read_one_frame(stream: &mut TcpStream) -> Frame {
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 4096];
    loop {
        if let Some(frame) = fb.next_frame().unwrap() {
            return frame;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "EOF while waiting for a frame");
        fb.feed(&buf[..n]);
    }
}
