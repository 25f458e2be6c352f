//! End-to-end acceptance for the network frontend (ISSUE 7): reports
//! that travel NetClient → TCP → tenant registry → `IngestService` must
//! close to estimates **bit-identical** to the sequential in-process
//! [`AggregationServer`] — with two tenants driven concurrently over one
//! listener, and with a client that is severed mid-round and
//! reconnects-with-replay.
//!
//! Determinism rests on the same argument as the in-process service:
//! perturbation happens client-side, support-count folding is
//! commutative integer addition, and the estimate is a pure function of
//! the merged tally — so neither thread interleaving nor TCP chunking
//! nor duplicate delivery after replay can perturb a single mantissa
//! bit.

use ldp_fo::{build_oracle, FoKind, OracleHandle};
use ldp_ids::collector::RoundEstimate;
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{ClientOptions, NetClient, NetServer, ServerConfig};
use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn assert_bit_identical(a: &RoundEstimate, b: &RoundEstimate, what: &str) {
    assert_eq!(a.reporters, b.reporters, "{what}: reporters differ");
    let a_bits: Vec<u64> = a.frequencies.iter().map(|f| f.to_bits()).collect();
    let b_bits: Vec<u64> = b.frequencies.iter().map(|f| f.to_bits()).collect();
    assert_eq!(a_bits, b_bits, "{what}: frequency bits differ");
}

fn seeded_responses(oracle: &OracleHandle, round: u64, n: usize, seed: u64) -> Vec<UserResponse> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            if i % 17 == 16 {
                UserResponse::Refused {
                    round,
                    requested: 0.5,
                    available: 0.1,
                }
            } else {
                UserResponse::Report {
                    round,
                    report: oracle.perturb((i * 7) % oracle.domain_size(), &mut rng),
                }
            }
        })
        .collect()
}

fn sequential_rounds(
    oracle: &OracleHandle,
    fo: FoKind,
    epsilon: f64,
    rounds: &[Vec<UserResponse>],
) -> Vec<RoundEstimate> {
    let mut server = AggregationServer::new();
    rounds
        .iter()
        .enumerate()
        .map(|(t, responses)| {
            server.open_round(t as u64, fo, epsilon, oracle.clone());
            for response in responses {
                server.submit(response).unwrap();
            }
            server.close_round().unwrap()
        })
        .collect()
}

/// Two tenants, two client threads, one listener: each tenant's
/// multi-round estimates must equal its own dedicated sequential
/// server's, bit for bit, despite fully interleaved service.
#[test]
fn concurrent_tenants_match_sequential_server_bit_for_bit() {
    let epsilon = 1.0;
    // Different oracles and domains per tenant: cross-talk of any kind
    // would not just perturb bits, it would shear shapes.
    let tenants = [
        ("acme", FoKind::Grr, 6, 101u64),
        ("globex", FoKind::Oue, 9, 202u64),
    ];

    let registry = TenantRegistry::new();
    for (id, _, _, _) in &tenants {
        registry
            .register(TenantSpec::in_memory(*id, ServiceConfig::with_threads(2)))
            .unwrap();
    }
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();
    let addr = server.addr().to_string();

    let handles: Vec<_> = tenants
        .iter()
        .map(|&(id, fo, domain, seed)| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let oracle = build_oracle(fo, epsilon, domain).unwrap();
                let rounds: Vec<Vec<UserResponse>> = (0..3)
                    .map(|r| seeded_responses(&oracle, r, 240 + 40 * r as usize, seed + r))
                    .collect();
                let expected = sequential_rounds(&oracle, fo, epsilon, &rounds);

                let mut client = NetClient::connect(addr, id).unwrap();
                let estimates: Vec<RoundEstimate> = rounds
                    .iter()
                    .enumerate()
                    .map(|(t, responses)| {
                        client
                            .open_round_with(t as u64, fo, epsilon, domain)
                            .unwrap();
                        for delta in responses.chunks(19) {
                            client.submit_batch(delta.to_vec()).unwrap();
                        }
                        client.close_round().unwrap()
                    })
                    .collect();
                (id, expected, estimates)
            })
        })
        .collect();

    for handle in handles {
        let (id, expected, estimates) = handle.join().unwrap();
        assert_eq!(expected.len(), estimates.len());
        for (round, (want, got)) in expected.iter().zip(&estimates).enumerate() {
            assert_bit_identical(got, want, &format!("tenant {id}, round {round}"));
        }
    }
    server.shutdown();
}

/// A client severed mid-round with a window full of unacknowledged
/// deltas reconnects, replays, finishes the round — and the estimate is
/// the one an uninterrupted sequential run would have produced.
#[test]
fn mid_round_disconnect_replay_converges_bit_for_bit() {
    let (fo, epsilon, domain) = (FoKind::Adaptive, 1.0, 12);
    let oracle = build_oracle(fo, epsilon, domain).unwrap();
    let responses = seeded_responses(&oracle, 0, 600, 4242);
    let expected = sequential_rounds(&oracle, fo, epsilon, std::slice::from_ref(&responses));

    let registry = TenantRegistry::new();
    registry
        .register(TenantSpec::in_memory(
            "acme",
            ServiceConfig::with_threads(2),
        ))
        .unwrap();
    let server = NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).unwrap();

    let mut client = NetClient::connect_with(
        server.addr().to_string(),
        "acme",
        ClientOptions::default().window(64),
    )
    .unwrap();
    client.open_round_with(0, fo, epsilon, domain).unwrap();

    let mut chunks = responses.chunks(30);
    for delta in chunks.by_ref().take(10) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    // Cut the wire with up to 10 deltas still unacknowledged, twice —
    // replay must dedup whatever the server already applied.
    client.disconnect();
    client.recover().unwrap();
    for delta in chunks.by_ref().take(5) {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    client.disconnect();
    client.recover().unwrap();
    for delta in chunks {
        client.submit_batch(delta.to_vec()).unwrap();
    }
    let estimate = client.close_round().unwrap();
    assert_bit_identical(&estimate, &expected[0], "disconnect + replay");
    server.shutdown();
}
