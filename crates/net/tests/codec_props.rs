//! Property tests for the wire codec: arbitrary frames round-trip
//! losslessly (floats bit-for-bit), and arbitrary corruption — truncated
//! frames, flipped bytes, oversized length prefixes, unknown versions —
//! yields typed [`FrameError`]s, never a panic and never a garbage
//! frame.

use ldp_fo::{FoKind, Report};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{ReportRequest, UserResponse};
use ldp_net::frame::put_submit_batch;
use ldp_net::{
    decode_frame, encode_frame, AckBody, Frame, FrameBuffer, FrameError, Request, WireError,
    MAX_FRAME_LEN, WIRE_VERSION,
};
use ldp_obs::{HistogramSnapshot, MetricSample, MetricValue};
use ldp_service::codec::{crc32, put_enveloped, EncodedResponses};
use proptest::collection::vec;
use proptest::prelude::*;

/// Finite floats with non-trivial mantissas (NaN excluded so frame
/// equality via `PartialEq` stays meaningful; bit-exactness is asserted
/// through byte-level re-encoding anyway).
fn arb_f64() -> impl Strategy<Value = f64> {
    (any::<i64>(), 1i64..10_000).prop_map(|(num, den)| num as f64 / den as f64)
}

fn arb_report() -> impl Strategy<Value = Report> {
    prop_oneof![
        any::<u32>().prop_map(Report::Grr),
        (vec(any::<u64>(), 0..4), any::<u32>()).prop_map(|(bits, len)| Report::Oue { bits, len }),
        (any::<u64>(), any::<u32>()).prop_map(|(seed, bucket)| Report::Olh { seed, bucket }),
    ]
}

fn arb_response() -> impl Strategy<Value = UserResponse> {
    prop_oneof![
        (any::<u64>(), arb_report())
            .prop_map(|(round, report)| UserResponse::Report { round, report }),
        (any::<u64>(), arb_f64(), arb_f64()).prop_map(|(round, requested, available)| {
            UserResponse::Refused {
                round,
                requested,
                available,
            }
        }),
    ]
}

fn arb_request() -> impl Strategy<Value = ReportRequest> {
    (
        any::<u64>(),
        any::<u64>(),
        proptest::sample::select(&FoKind::ALL),
        arb_f64(),
        2usize..512,
    )
        .prop_map(|(round, t, fo, epsilon, domain_size)| ReportRequest {
            round,
            t,
            fo,
            epsilon,
            domain_size,
        })
}

fn arb_estimate() -> impl Strategy<Value = RoundEstimate> {
    (vec(arb_f64(), 0..9), any::<u64>(), arb_f64()).prop_map(|(frequencies, reporters, epsilon)| {
        RoundEstimate {
            frequencies,
            reporters,
            epsilon,
        }
    })
}

fn arb_tenant() -> impl Strategy<Value = String> {
    vec(
        proptest::sample::select(&['a', 'Z', '3', '.', '_', '-']),
        1..20,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(min, max, got)| WireError::Version {
            min,
            max,
            got
        }),
        arb_tenant().prop_map(|tenant| WireError::UnknownTenant { tenant }),
        any::<u64>().prop_map(|session| WireError::UnknownSession { session }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(session, round)| WireError::SessionBusy { session, round }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(expected, got)| WireError::StaleRound { expected, got }),
        Just(WireError::NoOpenRound),
        (any::<u64>(), any::<u64>())
            .prop_map(|(expected, got)| WireError::SequenceGap { expected, got }),
        arb_tenant().prop_map(|detail| WireError::Service { detail }),
        arb_tenant().prop_map(|detail| WireError::Protocol { detail }),
        any::<u64>().prop_map(|retry_after_ms| WireError::Overloaded { retry_after_ms }),
        arb_tenant().prop_map(|tenant| WireError::AuthFailed { tenant }),
        arb_tenant().prop_map(|detail| WireError::BadFrame { detail }),
    ]
}

fn arb_metric_value() -> impl Strategy<Value = MetricValue> {
    prop_oneof![
        any::<u64>().prop_map(MetricValue::Counter),
        any::<i64>().prop_map(MetricValue::Gauge),
        (
            vec(any::<u64>(), 0..8),
            any::<u64>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(buckets, count, sum, max)| MetricValue::Histogram(
                HistogramSnapshot {
                    buckets,
                    count,
                    sum,
                    max,
                }
            )),
    ]
}

fn arb_metric_sample() -> impl Strategy<Value = MetricSample> {
    (
        arb_tenant(),
        vec((arb_tenant(), arb_tenant()), 0..3),
        arb_metric_value(),
    )
        .prop_map(|(name, labels, value)| MetricSample {
            name,
            labels,
            value,
        })
}

fn arb_ack_body() -> impl Strategy<Value = AckBody> {
    prop_oneof![
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<bool>()).prop_map(
            |(session, next_round, next_seq, open)| AckBody::Session {
                session,
                next_round,
                next_seq,
                open_round: open.then_some(next_round),
            }
        ),
        arb_request().prop_map(|request| AckBody::Opened { request }),
        any::<u64>().prop_map(|next_seq| AckBody::Submitted { next_seq }),
        arb_estimate().prop_map(|estimate| AckBody::Closed { estimate }),
        (any::<u8>(), vec(arb_metric_sample(), 0..6))
            .prop_map(|(version, samples)| { AckBody::Stats { version, samples } }),
    ]
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        (
            any::<u64>(),
            arb_tenant(),
            any::<u64>(),
            any::<u8>(),
            arb_tenant(),
        )
            .prop_map(|(corr, tenant, raw, flags, token)| Frame::Hello {
                corr,
                tenant,
                resume: (flags & 1 != 0).then_some(raw),
                token: (flags & 2 != 0).then_some(token),
            }),
        (any::<u64>(), any::<u64>(), arb_request()).prop_map(|(corr, session, request)| {
            Frame::OpenRound {
                corr,
                session,
                request,
            }
        }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            vec(arb_response(), 0..12),
        )
            .prop_map(
                |(corr, session, round, seq, responses)| Frame::SubmitBatch {
                    corr,
                    session,
                    round,
                    seq,
                    responses,
                }
            ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(corr, session, round)| {
            Frame::CloseRound {
                corr,
                session,
                round,
            }
        }),
        (any::<u64>(), arb_ack_body()).prop_map(|(corr, body)| Frame::Ack { corr, body }),
        (any::<u64>(), arb_wire_error()).prop_map(|(corr, error)| Frame::Err { corr, error }),
        (any::<u64>(), any::<bool>(), arb_tenant()).prop_map(|(corr, scoped, tenant)| {
            Frame::StatsRequest {
                corr,
                scope: scoped.then_some(tenant),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Encode → decode is lossless and consumes exactly the envelope;
    /// re-encoding the decoded frame reproduces the original bytes, so
    /// floats survive bit-for-bit.
    #[test]
    fn frames_round_trip_bit_exactly(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        let (decoded, used) = decode_frame(&bytes).expect("valid frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&decoded, &frame);
        prop_assert_eq!(encode_frame(&decoded), bytes);
    }

    /// What the client sends — the borrowed `SubmitBatch` payload
    /// enveloped in place in a reused buffer — is byte for byte what
    /// `encode_frame` returns for the owned frame.
    #[test]
    fn borrowed_submit_encoder_matches_encode_frame(
        corr in any::<u64>(),
        session in any::<u64>(),
        round in any::<u64>(),
        seq in any::<u64>(),
        responses in vec(arb_response(), 0..12),
        stale in vec(any::<u8>(), 0..64),
    ) {
        let mut out = stale;
        out.clear();
        put_enveloped(&mut out, |out| put_submit_batch(out, corr, session, round, seq, &responses));
        let frame = Frame::SubmitBatch { corr, session, round, seq, responses };
        prop_assert_eq!(out, encode_frame(&frame));
    }

    /// Every strict prefix of a valid frame is a typed `Truncated` error
    /// with an honest byte count — and never a panic.
    #[test]
    fn every_truncation_is_a_typed_error(frame in arb_frame()) {
        let bytes = encode_frame(&frame);
        for cut in 0..bytes.len() {
            match decode_frame(&bytes[..cut]) {
                Err(FrameError::Truncated { needed, have }) => {
                    prop_assert_eq!(have, cut);
                    prop_assert!(needed > have, "needed {} !> have {}", needed, have);
                    prop_assert!(needed <= bytes.len());
                }
                other => prop_assert!(false, "cut {} decoded to {:?}", cut, other),
            }
        }
    }

    /// Flipping any single byte of the envelope never panics: the result
    /// is a typed error (almost always `Checksum`; a flip inside the
    /// length prefix surfaces as `Truncated`/`Oversize` first).
    #[test]
    fn single_byte_corruption_never_panics(
        frame in arb_frame(),
        pos in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= flip;
        match decode_frame(&bytes) {
            Err(
                FrameError::Truncated { .. }
                | FrameError::Oversize { .. }
                | FrameError::Checksum { .. }
                | FrameError::Version { .. }
                | FrameError::Malformed { .. },
            ) => {}
            Ok(_) => prop_assert!(false, "corrupt byte {} passed the checksum", pos),
        }
    }

    /// A length prefix past `MAX_FRAME_LEN` is rejected *before* any
    /// buffering, regardless of what follows.
    #[test]
    fn oversized_length_prefix_is_rejected(extra in any::<u32>(), corr in any::<u64>()) {
        let len = MAX_FRAME_LEN as u64 + 1 + (extra as u64 % 1024);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(len as u32).to_le_bytes());
        bytes.extend_from_slice(&corr.to_le_bytes()); // junk CRC + start of payload
        match decode_frame(&bytes) {
            Err(FrameError::Oversize { len: got, max }) => {
                prop_assert_eq!(got, len as u32);
                prop_assert_eq!(max, MAX_FRAME_LEN);
            }
            other => prop_assert!(false, "oversize prefix decoded to {:?}", other),
        }
    }

    /// A well-formed envelope (valid CRC) carrying an unsupported
    /// protocol version is a typed `Version` error.
    #[test]
    fn unknown_version_is_a_typed_error(frame in arb_frame(), bump in 1u8..=255) {
        let encoded = encode_frame(&frame);
        let mut payload = encoded[8..].to_vec();
        payload[0] = WIRE_VERSION.wrapping_add(bump);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match decode_frame(&bytes) {
            Err(FrameError::Version { got }) => {
                prop_assert_eq!(got, WIRE_VERSION.wrapping_add(bump));
            }
            other => prop_assert!(false, "unknown version decoded to {:?}", other),
        }
    }

    /// A `FrameBuffer` fed a frame stream in arbitrary chunk sizes
    /// reproduces exactly the original frames, in order.
    #[test]
    fn frame_buffer_reassembles_any_chunking(
        frames in vec(arb_frame(), 1..6),
        chunk in 1usize..64,
    ) {
        let mut stream = Vec::new();
        for frame in &frames {
            stream.extend_from_slice(&encode_frame(frame));
        }
        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        for piece in stream.chunks(chunk) {
            fb.feed(piece);
            while let Some(frame) = fb.next_frame().expect("valid stream") {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded, frames);
        prop_assert_eq!(fb.pending(), 0);
    }

    /// The server's reader and `next_frame` are one decoder up to the
    /// form a `SubmitBatch`'s responses come back in: the same frames,
    /// the same "need more bytes", and for a flipped byte anywhere the
    /// same typed error — the checksum `next_request` combines from two
    /// parts is the one `next_frame` computes over the whole.
    #[test]
    fn next_request_is_next_frame_with_the_responses_left_encoded(
        frame in arb_frame(),
        corrupt in any::<bool>(),
        pos in any::<u32>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        if corrupt {
            let pos = pos as usize % bytes.len();
            bytes[pos] ^= flip;
        }
        let (mut frames, mut requests) = (FrameBuffer::new(), FrameBuffer::new());
        frames.feed(&bytes);
        requests.feed(&bytes);
        match (frames.next_frame(), requests.next_request()) {
            (
                Ok(Some(Frame::SubmitBatch { corr, session, round, seq, responses })),
                Ok(Some(Request::Submit(got))),
            ) => {
                prop_assert_eq!(
                    (got.corr, got.session, got.round, got.seq),
                    (corr, session, round, seq)
                );
                prop_assert_eq!(got.responses, EncodedResponses::encode(&responses));
            }
            (Ok(Some(frame)), Ok(Some(got))) => {
                prop_assert!(!matches!(frame, Frame::SubmitBatch { .. }), "{:?}", got);
                prop_assert_eq!(got, Request::Frame(frame));
            }
            (Ok(None), Ok(None)) => {}
            (Err(frame), Err(request)) => prop_assert_eq!(frame, request),
            (frame, request) => prop_assert!(false, "{:?} vs {:?}", frame, request),
        }
        prop_assert_eq!(frames.pending(), requests.pending());
    }

    /// Decoding arbitrary garbage bytes never panics; any `Ok` is a
    /// frame whose re-encoding round-trips (i.e. a genuine accidental
    /// frame, not memory salad).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(any::<u8>(), 0..256)) {
        if let Ok((frame, used)) = decode_frame(&bytes) {
            prop_assert!(used <= bytes.len());
            let reencoded = encode_frame(&frame);
            prop_assert_eq!(reencoded.as_slice(), &bytes[..used]);
        }
    }
}

/// A checksum-valid frame of the largest size the codec admits, claiming
/// 16 M responses in its 16 MiB: the count is refused before a vector is
/// reserved for it (40 B a response would be 640 MB for one frame).
#[test]
fn forged_response_count_is_refused_before_allocating() {
    let mut bytes = Vec::new();
    put_enveloped(&mut bytes, |out| {
        put_submit_batch(out, 1, 2, 3, 4, &[]);
        let count = out.len() - 4;
        out.resize(8 + MAX_FRAME_LEN as usize, 0);
        out[count..count + 4].copy_from_slice(&(16u32 << 20).to_le_bytes());
    });
    match decode_frame(&bytes) {
        Err(FrameError::Malformed { detail }) => {
            assert!(
                detail.contains("response count 16777216 exceeds"),
                "{detail}"
            )
        }
        other => panic!("forged count decoded to {other:?}"),
    }
}
