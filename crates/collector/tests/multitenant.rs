//! Multi-round multiplexing: the acceptance pins of the round registry.
//!
//! The headline invariant: R concurrent rounds, their reports interleaved
//! arbitrarily across sessions by a seeded shuffle, finalize
//! **bit-identical** to R sequential single-round runs — routing is by
//! round id alone, and rounds never share aggregate state. Around that
//! sit the admission-control pins: per-tenant round quotas and the global
//! memory budget refuse with *typed* errors over the wire, misdirected
//! reports are counted and answered once, and a hostile open/connect
//! flood degrades the daemon gracefully while honest rounds close with
//! exact counters.

use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, RoundChannel,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_protocols::{AdjacencyReport, LfGdpr, PerturbedView};
use rand::Rng;
use std::net::SocketAddr;

fn spawn_daemon(
    config: CollectorConfig,
) -> (
    SocketAddr,
    std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    CollectorServer::spawn(config).expect("bind loopback daemon")
}

fn shutdown(addr: SocketAddr, handle: std::thread::JoinHandle<Result<(), CollectorError>>) {
    let mut client = CollectorClient::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

fn assert_views_identical(a: &PerturbedView, b: &PerturbedView) {
    assert_eq!(a.matrix(), b.matrix());
    assert_eq!(a.reported_degrees(), b.reported_degrees());
}

/// Per-round honest report sets with *distinct* populations and seeds, so
/// any cross-round contamination would be loud (population mismatch) or
/// bit-visible (different noise streams).
fn round_reports(round: u64) -> (LfGdpr, Vec<AdjacencyReport>) {
    let n = 80 + 30 * round as usize;
    let g = Dataset::Facebook.generate_with_nodes(n, round);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(1000 + round));
    (proto, reports)
}

/// The headline acceptance pin: four rounds uploaded **concurrently**,
/// with every uploader thread hopping between rounds in a seeded-random
/// order (so REPORT and REPORT_BATCH frames from all four rounds
/// interleave arbitrarily at the daemon), finalize bit-identical to the
/// same four rounds run **sequentially**, one at a time, on a fresh
/// daemon.
#[test]
fn four_interleaved_rounds_match_sequential_single_round_runs() {
    const ROUNDS: u64 = 4;
    let sets: Vec<(LfGdpr, Vec<AdjacencyReport>)> = (1..=ROUNDS).map(round_reports).collect();

    // Sequential reference: each round alone, open → upload → finalize
    // completing fully before the next begins.
    let (seq_addr, seq_handle) = spawn_daemon(CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    });
    let mut reference = Vec::new();
    {
        let mut client = CollectorClient::connect(seq_addr).unwrap();
        for (round, (proto, reports)) in sets.iter().enumerate() {
            let view = client
                .run_adjacency_round(round as u64 + 1, proto.p_keep(), reports)
                .unwrap();
            reference.push(view);
        }
    }
    shutdown(seq_addr, seq_handle);

    // Concurrent run: all four rounds open at once; three uploader
    // threads each own a disjoint slice of every round's id space and
    // walk their merged work list in a seeded-shuffled order, switching
    // rounds report by report.
    let (addr, handle) = spawn_daemon(CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    });
    let mut coordinator = CollectorClient::connect(addr).unwrap();
    for (round, (proto, reports)) in sets.iter().enumerate() {
        coordinator
            .open_round(
                round as u64 + 1,
                RoundChannel::Adjacency {
                    population: reports.len(),
                    p_keep: proto.p_keep(),
                },
                None,
            )
            .unwrap();
    }
    let uploaders = 3usize;
    std::thread::scope(|scope| {
        for u in 0..uploaders {
            let sets = &sets;
            scope.spawn(move || {
                // This uploader's share: every (round, id) with
                // id % uploaders == u, shuffled by a per-thread seed.
                let mut work: Vec<(u64, u64)> = sets
                    .iter()
                    .enumerate()
                    .flat_map(|(round, (_, reports))| {
                        (0..reports.len() as u64)
                            .filter(|id| *id as usize % uploaders == u)
                            .map(move |id| (round as u64 + 1, id))
                    })
                    .collect();
                let mut rng = Xoshiro256pp::new(77 + u as u64);
                for i in (1..work.len()).rev() {
                    work.swap(i, rng.gen_range(0..=i));
                }
                let mut client = CollectorClient::connect(addr)
                    .expect("uploader connect")
                    .with_batch_size(9);
                for (round, id) in work {
                    // set_round flushes the queued batch on a switch, so
                    // batches stay homogeneous while the *frames* of all
                    // four rounds interleave on the daemon side.
                    client.set_round(round).expect("set round");
                    let report = &sets[round as usize - 1].1[id as usize];
                    client.queue_adjacency_report(id, report).expect("queue");
                }
                client.sync().expect("sync");
            });
        }
    });
    for (round, (_, reports)) in sets.iter().enumerate() {
        let summary = coordinator.close_round(round as u64 + 1).unwrap();
        assert_eq!(summary.counters.accepted, reports.len() as u64);
        assert_eq!(summary.counters.rejected_duplicate, 0);
        assert_eq!(summary.counters.rejected_invalid, 0);
    }
    for (round, expect) in reference.iter().enumerate() {
        let view = coordinator.finalize_adjacency(round as u64 + 1).unwrap();
        assert_views_identical(&view, expect);
    }
    drop(coordinator);
    shutdown(addr, handle);
}

/// Reports aimed at a round the registry does not hold — never opened or
/// already closed — are answered with one typed ERR per (connection,
/// round) and counted, and never touch other rounds' aggregates.
#[test]
fn misdirected_reports_yield_typed_errors_once() {
    let (addr, handle) = spawn_daemon(CollectorConfig {
        shards: 2,
        ..CollectorConfig::default()
    });
    let mut client = CollectorClient::connect(addr).unwrap();

    // Unknown round: the daemon replies with NO_OPEN_ROUND, which the
    // next control call surfaces as a typed Remote error.
    client.set_round(99).unwrap();
    client
        .queue_degree_vector(0, &[1.0, 2.0])
        .expect("queue is local");
    client.send_batch().expect("send is unacknowledged");
    let err = client.sync().unwrap_err();
    assert!(
        matches!(
            err,
            CollectorError::Remote {
                code: ldp_collector::server::codes::NO_OPEN_ROUND,
                ..
            }
        ),
        "expected NO_OPEN_ROUND, got {err}"
    );

    // Warn-once: a second volley at the same bogus round draws no second
    // ERR, so the next barrier acks cleanly (the errored sync above
    // already realigned the reply stream by consuming through its ACK).
    client.queue_degree_vector(1, &[1.0, 2.0]).unwrap();
    client.send_batch().unwrap();
    client.sync().expect("no second warning for round 99");

    // Closed round: late reports are typed ROUND_CLOSED and counted into
    // the closed round's malformed tally (visible to a re-close).
    client
        .open_round(
            7,
            RoundChannel::DegreeVector {
                population: 2,
                groups: 2,
            },
            None,
        )
        .unwrap();
    client.queue_degree_vector(0, &[1.0, 0.0]).unwrap();
    client.queue_degree_vector(1, &[0.0, 1.0]).unwrap();
    client.send_batch().unwrap();
    let summary = client.close_round(7).unwrap();
    assert_eq!(summary.counters.accepted, 2);
    client.queue_degree_vector(0, &[5.0, 5.0]).unwrap();
    client.send_batch().unwrap();
    let err = client.sync().unwrap_err();
    assert!(
        matches!(
            err,
            CollectorError::Remote {
                code: ldp_collector::server::codes::ROUND_CLOSED,
                ..
            }
        ),
        "expected ROUND_CLOSED, got {err}"
    );
    let reclosed = client.close_round(7).unwrap();
    assert_eq!(reclosed.counters.accepted, 2);
    assert_eq!(reclosed.counters.rejected_malformed, 1);
    assert_eq!(reclosed.counters.rejected_invalid, 0);
    // Every user reported before the close, so the close itself sealed
    // a complete round.
    assert!(reclosed.counters.finalized_at_close);
    // The late garbage never reached the totals.
    let out = client.finalize_degree_vector(7).unwrap();
    assert_eq!(out.group_totals, vec![1.0, 1.0]);

    drop(client);
    shutdown(addr, handle);
}

/// Per-tenant admission quotas over the wire: the (cap+1)-th open is a
/// typed TENANT_QUOTA refusal, other tenants are unaffected, and
/// finalizing a round frees the slot.
#[test]
fn tenant_round_quota_refuses_typed_and_frees_on_finalize() {
    let (addr, handle) = spawn_daemon(CollectorConfig {
        shards: 2,
        max_rounds_per_tenant: 2,
        ..CollectorConfig::default()
    });
    let channel = RoundChannel::DegreeVector {
        population: 1,
        groups: 1,
    };
    let mut a = CollectorClient::connect(addr).unwrap().with_tenant(5);
    a.open_round(1, channel, None).unwrap();
    a.open_round(2, channel, None).unwrap();
    let err = a.open_round(3, channel, None).unwrap_err();
    assert!(
        matches!(
            err,
            CollectorError::Remote {
                code: ldp_collector::server::codes::TENANT_QUOTA,
                ..
            }
        ),
        "expected TENANT_QUOTA, got {err}"
    );

    // A different tenant still gets in: the quota is per tenant, not
    // global.
    let mut b = CollectorClient::connect(addr).unwrap().with_tenant(6);
    b.open_round(10, channel, None).unwrap();

    // Completing one of tenant 5's rounds frees its slot.
    a.set_round(1).unwrap();
    a.queue_degree_vector(0, &[3.0]).unwrap();
    a.send_batch().unwrap();
    a.close_round(1).unwrap();
    a.finalize_degree_vector(1).unwrap();
    a.open_round(3, channel, None)
        .expect("slot freed by finalize");

    drop(a);
    drop(b);
    shutdown(addr, handle);
}

/// The global memory budget over the wire: opens are priced by the same
/// math as the population caps, refused with exact typed numbers when
/// the budget would be exceeded, and the charge is refunded on finalize.
#[test]
fn memory_budget_refuses_typed_and_refunds_on_finalize() {
    // A population-8 adjacency round prices at 8²/8 = 8 bytes; a budget
    // of 20 admits two and refuses the third.
    let (addr, handle) = spawn_daemon(CollectorConfig {
        shards: 1,
        memory_budget: 20,
        ..CollectorConfig::default()
    });
    let channel = RoundChannel::Adjacency {
        population: 8,
        p_keep: 0.9,
    };
    let mut client = CollectorClient::connect(addr).unwrap();
    client.open_round(1, channel, None).unwrap();
    client.open_round(2, channel, None).unwrap();
    let err = client.open_round(3, channel, None).unwrap_err();
    let CollectorError::Remote { code, message } = err else {
        panic!("expected a remote refusal");
    };
    assert_eq!(code, ldp_collector::server::codes::MEMORY_BUDGET);
    assert!(
        message.contains("needs 8 bytes") && message.contains("16 of 20"),
        "message: {message}"
    );

    // Complete round 1; its 8 bytes come back and round 3 admits.
    client.set_round(1).unwrap();
    for id in 0..8u64 {
        client
            .queue_adjacency_report(id, &AdjacencyReport::new(ldp_graph::BitSet::new(8), 0.0))
            .unwrap();
    }
    client.send_batch().unwrap();
    client.close_round(1).unwrap();
    client.finalize_adjacency(1).unwrap();
    client
        .open_round(3, channel, None)
        .expect("budget refunded by finalize");

    drop(client);
    shutdown(addr, handle);
}

/// Graceful degradation: a hostile fleet spams connects and OPENs far
/// past the admission limits while an honest round is mid-flight. Every
/// hostile call fails *typed* (quota, budget, or session cap — never a
/// hang or a panic), and the honest round closes with exact counters and
/// finalizes bit-identical to an unharassed run.
#[test]
fn hostile_open_spam_degrades_gracefully() {
    let n = 120usize;
    let g = Dataset::Facebook.generate_with_nodes(n, 13);
    let proto = LfGdpr::new(4.0).unwrap();
    let reports = proto.collect_honest(&g, &Xoshiro256pp::new(31));
    let reference = proto.aggregate(&reports);

    let config = CollectorConfig {
        shards: 2,
        max_sessions: 16,
        max_rounds_per_tenant: 1,
        // Tight budget: the honest round (n²/8 + n/8 = 1815 bytes)
        // fits; hostile max-size opens against the remaining headroom
        // mostly bounce off the budget.
        memory_budget: 4096,
        ..CollectorConfig::default()
    };
    let (addr, handle) = spawn_daemon(config);

    let mut coordinator = CollectorClient::connect(addr).unwrap();
    coordinator
        .open_round(
            1,
            RoundChannel::Adjacency {
                population: n,
                p_keep: proto.p_keep(),
            },
            // Admit the duplicate volley below: dups charge quota too.
            Some(n as u64 + 10),
        )
        .unwrap();

    let duplicate_volley = 10u64;
    std::thread::scope(|scope| {
        // Honest uploader: the full round, then a counted duplicate
        // volley, then the sync barrier.
        let reports_ref = &reports;
        scope.spawn(move || {
            let mut client = CollectorClient::connect(addr)
                .expect("honest connect")
                .with_batch_size(11);
            client.set_round(1).expect("set round");
            for (id, report) in reports_ref.iter().enumerate() {
                client.queue_adjacency_report(id as u64, report).unwrap();
            }
            for id in 0..duplicate_volley {
                client
                    .queue_adjacency_report(id, &reports_ref[id as usize])
                    .unwrap();
            }
            client.sync().expect("honest sync");
        });
        // Hostile fleet: each attacker loops connect → open attempts
        // that must all be refused (tenant 0 already holds round 1, and
        // fresh tenants ram the memory budget), plus reports flung at
        // rounds that do not exist.
        for attacker in 0..4u64 {
            scope.spawn(move || {
                let mut rng = Xoshiro256pp::new(500 + attacker);
                for wave in 0..8u64 {
                    let Ok(client) = CollectorClient::connect(addr) else {
                        // Session cap pressure may refuse the connect
                        // itself — also a typed, graceful outcome.
                        continue;
                    };
                    let mut client = client.with_tenant(attacker % 2);
                    let round_id = 1000 + rng.gen_range(0..50u64);
                    let err = client
                        .open_round(
                            round_id,
                            RoundChannel::Adjacency {
                                population: 150,
                                p_keep: 0.9,
                            },
                            None,
                        )
                        .expect_err("hostile open must be refused");
                    match err {
                        CollectorError::Remote { code, .. } => assert!(
                            code == ldp_collector::server::codes::TENANT_QUOTA
                                || code == ldp_collector::server::codes::MEMORY_BUDGET
                                || code == ldp_collector::server::codes::SESSION_CAP,
                            "hostile open {attacker}/{wave}: unexpected code {code}"
                        ),
                        CollectorError::Io(_) => {}
                        other => panic!("hostile open {attacker}/{wave}: untyped {other}"),
                    }
                    // Misdirect a report at a round nobody opened; the
                    // daemon counts it nowhere and answers once.
                    let _ = client.set_round(2000 + attacker);
                    let _ = client.queue_degree_vector(0, &[1.0]);
                    let _ = client.send_batch();
                    let _ = client.flush();
                }
            });
        }
    });

    let summary = coordinator.close_round(1).unwrap();
    assert_eq!(summary.counters.accepted, n as u64);
    assert_eq!(summary.counters.rejected_duplicate, duplicate_volley);
    assert_eq!(summary.counters.rejected_quota, 0);
    assert_eq!(summary.counters.rejected_invalid, 0);
    let view = coordinator.finalize_adjacency(1).unwrap();
    assert_views_identical(&view, &reference);
    drop(coordinator);
    shutdown(addr, handle);
}
