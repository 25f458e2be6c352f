//! Network quickstart: a multi-tenant collection server and a client,
//! in one process over loopback.
//!
//! Two tenants (say, two apps sharing a collection fleet) are
//! registered in a `TenantRegistry`, a `NetServer` serves both on one
//! ephemeral port, and a `NetClient` drives a full round for each:
//! open → pipelined submit deltas → close. To show that the wire adds
//! no numeric error, the same perturbed responses are replayed through
//! the in-process sequential `AggregationServer` and the estimates are
//! compared bit for bit. A mid-round disconnect-and-recover on the
//! second tenant shows the replay path: the result is still exact.
//!
//! Run with: `cargo run --release --example network_quickstart`

use ldp_fo::{build_oracle, FoKind};
use ldp_ids::protocol::{AggregationServer, UserResponse};
use ldp_net::{ClientOptions, NetClient, NetServer, ServerConfig};
use ldp_service::{ServiceConfig, TenantRegistry, TenantSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. One service per tenant, both behind one listener. Tenants are
    //    fully isolated: own worker pool, own budget bookkeeping.
    let registry = TenantRegistry::new();
    for tenant in ["metrics-app", "telemetry-app"] {
        registry
            .register(TenantSpec::in_memory(
                tenant,
                ServiceConfig::with_threads(2),
            ))
            .expect("register tenant");
    }
    let server =
        NetServer::start("127.0.0.1:0", &registry, ServerConfig::default()).expect("bind loopback");
    let addr = server.addr().to_string();
    println!("serving {:?} on {addr}", registry.tenant_ids());

    // 2. A round's worth of client-side-perturbed reports. On a real
    //    deployment each device perturbs its own value; the server side
    //    only ever sees the perturbed stream.
    let (fo, epsilon, domain) = (FoKind::Grr, 1.0, 8);
    let oracle = build_oracle(fo, epsilon, domain).expect("valid oracle");
    let mut rng = StdRng::seed_from_u64(7);
    let responses: Vec<UserResponse> = (0..10_000)
        .map(|i| UserResponse::Report {
            round: 0,
            report: oracle.perturb(i % domain, &mut rng),
        })
        .collect();

    // 3. The in-process reference: what a sequential, no-network
    //    aggregation of the same responses would publish.
    let mut reference = AggregationServer::new();
    reference.open_round(0, fo, epsilon, oracle.clone());
    for response in &responses {
        reference.submit(response).expect("reference submit");
    }
    let expected = reference.close_round().expect("reference close");

    // 4. Tenant one: the straight path. Deltas are pipelined — up to a
    //    window of unacknowledged SubmitBatch frames ride the socket.
    let mut client = NetClient::connect(addr.clone(), "metrics-app").expect("connect");
    client
        .open_round_with(0, fo, epsilon, domain)
        .expect("open round");
    for delta in responses.chunks(500) {
        client.submit_batch(delta.to_vec()).expect("submit");
    }
    let over_the_wire = client.close_round().expect("close round");

    // 5. Tenant two: same traffic, but the connection dies mid-round
    //    with deltas still unacknowledged. recover() resumes the
    //    session and replays what the server lacks; duplicates are
    //    no-ops server-side.
    let mut flaky =
        NetClient::connect_with(addr, "telemetry-app", ClientOptions::default().window(64))
            .expect("connect");
    flaky
        .open_round_with(0, fo, epsilon, domain)
        .expect("open round");
    let mut chunks = responses.chunks(500);
    for delta in chunks.by_ref().take(10) {
        flaky.submit_batch(delta.to_vec()).expect("submit");
    }
    flaky.disconnect(); // the wire drops…
    flaky.recover().expect("resume session"); // …and the round survives
    for delta in chunks {
        flaky.submit_batch(delta.to_vec()).expect("submit");
    }
    let after_recovery = flaky.close_round().expect("close round");

    // 6. Both network estimates are bit-identical to the reference.
    for (label, estimate) in [("wire", &over_the_wire), ("recovered", &after_recovery)] {
        assert_eq!(estimate.reporters, expected.reporters);
        for (i, (a, b)) in estimate
            .frequencies
            .iter()
            .zip(&expected.frequencies)
            .enumerate()
        {
            assert_eq!(a.to_bits(), b.to_bits(), "{label}: cell {i} differs");
        }
        println!(
            "{label}: {} reporters, bit-identical to in-process",
            estimate.reporters
        );
    }
    println!(
        "first cells: {:?}",
        &over_the_wire.frequencies[..4.min(over_the_wire.frequencies.len())]
    );
    server.shutdown();
}
