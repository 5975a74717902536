//! Shared harness of the collection-service benchmarks: loopback daemon
//! setup, honest + attack-crafted report replay through the
//! [`poison_core::Attack`] trait — over one batched connection or over
//! `C` concurrent sessions — throughput accounting, and the
//! JSON records. Used by the `collector_smoke` (CI, `BENCH_collector.json`)
//! and `collector_loadgen` (operator CLI, `BENCH_loadgen.json`) binaries.

use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, FsyncPolicy, RoundChannel,
    ServeScenario,
};
use ldp_graph::datasets::Dataset;
use ldp_graph::Xoshiro256pp;
use ldp_obs::{Sample, SampleValue};
use ldp_protocols::wire;
use ldp_protocols::{AdjacencyReport, CraftContext, LfGdpr, Metric, PerturbedView};
use poison_core::scenario::{Scenario, ScenarioBuilder, ScenarioReport};
use poison_core::{
    Attack, AttackerKnowledge, Mga, Rna, Rva, TargetMetric, TargetSelection, ThreatModel,
};
use poison_defense::DegreeConsistencyDefense;
use rand::{Rng, RngCore};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Attack used for the crafted share of a replayed stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadAttack {
    /// No fake tail: every report honest.
    None,
    /// Random value attack.
    Rva,
    /// Random neighbor attack.
    Rna,
    /// Maximal gain attack.
    Mga,
}

impl LoadAttack {
    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "none" => Some(LoadAttack::None),
            "rva" => Some(LoadAttack::Rva),
            "rna" => Some(LoadAttack::Rna),
            "mga" => Some(LoadAttack::Mga),
            _ => None,
        }
    }

    fn as_attack(self) -> Option<Box<dyn Attack>> {
        match self {
            LoadAttack::None => None,
            LoadAttack::Rva => Some(Box::new(Rva)),
            LoadAttack::Rna => Some(Box::new(Rna)),
            LoadAttack::Mga => Some(Box::new(Mga::default())),
        }
    }
}

/// Spawns a loopback daemon sized for the benchmarks.
///
/// # Errors
/// Bind failures.
pub fn spawn_daemon(
    shards: usize,
) -> Result<
    (
        SocketAddr,
        std::thread::JoinHandle<Result<(), CollectorError>>,
    ),
    CollectorError,
> {
    spawn_daemon_with(shards, true)
}

/// [`spawn_daemon`] with the metrics registry switched on or off.
///
/// `metrics: false` leaves every handle constructed but turns each
/// hot-path tick into a single predictable dead branch — the baseline
/// leg of the overhead measurement.
///
/// # Errors
/// Bind failures.
pub fn spawn_daemon_with(
    shards: usize,
    metrics: bool,
) -> Result<
    (
        SocketAddr,
        std::thread::JoinHandle<Result<(), CollectorError>>,
    ),
    CollectorError,
> {
    // Sized for R-round sweeps (16 simultaneous rounds, each with its
    // own sessions): admission limits themselves are exercised by the
    // collector's multitenant/chaos suites, not the bench harness.
    CollectorServer::spawn(CollectorConfig {
        shards,
        max_sessions: 64,
        max_rounds_per_tenant: 64,
        metrics,
        ..CollectorConfig::default()
    })
}

/// Sends the daemon at `addr` a shutdown and joins its thread.
pub fn shutdown_daemon(
    addr: SocketAddr,
    handle: std::thread::JoinHandle<Result<(), CollectorError>>,
) {
    if let Ok(mut client) = CollectorClient::connect(addr) {
        let _ = client.shutdown();
    }
    let _ = handle.join();
}

/// Result of the 10k-user equivalence smoke.
#[derive(Debug)]
pub struct EquivalenceResult {
    /// Users in the round.
    pub users: usize,
    /// Wall-clock of the in-process evaluation.
    pub in_process: Duration,
    /// Wall-clock of the same evaluation with every fold over TCP.
    pub wire: Duration,
    /// Mean gain (identical on both paths by assertion).
    pub mean_gain: f64,
}

/// Runs LF-GDPR + MGA + Detect2 at `users` genuine users once in process
/// and once over a loopback daemon, asserts the two `ScenarioReport`s are
/// bit-identical, and returns the timings.
///
/// # Panics
/// Panics if the two paths diverge in any per-target estimate, flag
/// count, or gain bit — that is the assertion CI runs.
///
/// # Errors
/// Daemon/bind/transport failures.
pub fn run_equivalence_smoke(users: usize, seed: u64) -> Result<EquivalenceResult, CollectorError> {
    let graph = Dataset::Facebook.generate_with_nodes(users, 42);
    let protocol = LfGdpr::new(4.0).expect("valid budget");
    let mut rng = Xoshiro256pp::new(9);
    let threat =
        ThreatModel::from_fractions(&graph, 0.05, 0.05, TargetSelection::UniformRandom, &mut rng);

    fn build<'a>(b: ScenarioBuilder<'a>, threat: &ThreatModel, seed: u64) -> ScenarioBuilder<'a> {
        b.attack(Mga::default())
            .metric(Metric::Degree)
            .defend(DegreeConsistencyDefense::default())
            .threat(threat.clone())
            .exact()
            .seed(seed)
    }

    let start = Instant::now();
    let in_process = build(Scenario::on(protocol), &threat, seed)
        .run(&graph)
        .expect("in-process run");
    let in_process_wall = start.elapsed();

    let (addr, handle) = spawn_daemon(8)?;
    let start = Instant::now();
    let wired = build(Scenario::on(protocol).serve(addr)?, &threat, seed)
        .run(&graph)
        .expect("wire run");
    let wire_wall = start.elapsed();
    shutdown_daemon(addr, handle);

    assert_reports_bit_identical(&in_process, &wired);
    Ok(EquivalenceResult {
        users,
        in_process: in_process_wall,
        wire: wire_wall,
        mean_gain: in_process.mean_gain(),
    })
}

/// Panics unless the two reports agree to the bit on every estimate and
/// verdict.
pub fn assert_reports_bit_identical(a: &ScenarioReport, b: &ScenarioReport) {
    assert_eq!(a.trials.len(), b.trials.len(), "trial counts differ");
    for (x, y) in a.trials.iter().zip(&b.trials) {
        assert_eq!(x.seed, y.seed);
        assert_eq!(
            x.outcome.before, y.outcome.before,
            "before estimates differ"
        );
        assert_eq!(x.outcome.after, y.outcome.after, "after estimates differ");
        assert_eq!(x.flagged_fake, y.flagged_fake, "defense verdicts differ");
        assert_eq!(
            x.flagged_genuine, y.flagged_genuine,
            "defense verdicts differ"
        );
    }
    assert_eq!(
        a.mean_gain().to_bits(),
        b.mean_gain().to_bits(),
        "gains differ"
    );
}

/// Result of one replayed round.
#[derive(Debug)]
pub struct ThroughputResult {
    /// Reports streamed in the round (honest + crafted).
    pub reports: u64,
    /// Crafted (fake-tail) share of those reports.
    pub crafted: u64,
    /// Wall-clock from round open to finalize reply.
    pub wall: Duration,
    /// `reports / wall`.
    pub reports_per_sec: f64,
}

/// Crafts the fake tail of a degree-vector round through the [`Attack`]
/// trait: returns the genuine population, the crafted vectors, and the
/// RNG the honest stream continues from.
fn craft_degree_vector_tail(
    users: usize,
    groups: usize,
    attack: LoadAttack,
    beta: f64,
    seed: u64,
) -> (usize, Vec<Vec<f64>>, Xoshiro256pp) {
    // No attack ⇒ no fake tail: every report is honest.
    let m_fake = if attack == LoadAttack::None {
        0
    } else {
        ((users as f64 * beta) as usize).min(users / 2)
    };
    let n_genuine = users - m_fake;
    let targets: Vec<usize> = (0..n_genuine.min(64)).step_by(4).collect();
    let threat = ThreatModel::explicit(n_genuine, m_fake, targets);
    // The server's grouping: user i in group i % groups.
    let group_of: Vec<usize> = (0..users).map(|u| u % groups).collect();
    let knowledge = AttackerKnowledge::derive(&LfGdpr::new(4.0).expect("valid budget"), users, 8.0);

    let mut rng = Xoshiro256pp::new(seed);
    let crafted: Vec<Vec<f64>> = match attack.as_attack() {
        None => Vec::new(),
        Some(attack) => {
            let rng: &mut dyn RngCore = &mut rng;
            attack
                .craft(
                    CraftContext::DegreeVectors {
                        phase: 1,
                        groups: &group_of,
                        num_groups: groups,
                        noise_scale: 0.5,
                    },
                    TargetMetric::DegreeCentrality,
                    &threat,
                    &knowledge,
                    rng,
                )
                .into_iter()
                .map(|r| r.into_degree_vector().expect("degree-vector channel"))
                .collect()
        }
    };
    (n_genuine, crafted, rng)
}

/// Replays one **degree-vector round** of `users` reports — honest
/// Laplace-style vectors plus a `beta` fake tail crafted through the
/// [`Attack`] trait — at up to `rate` reports/sec (`None` = as fast as the
/// wire takes them), over the batched `REPORT_BATCH` send path. This is
/// the million-users-per-round regime: the daemon's aggregate stays
/// `O(shards·groups)`.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if the daemon's close summary shows any rejected report (the
/// replay is well-formed by construction).
#[allow(clippy::too_many_arguments)] // one knob per loadgen CLI flag
pub fn run_degree_vector_round(
    client: &mut CollectorClient,
    round_id: u64,
    users: usize,
    groups: usize,
    attack: LoadAttack,
    beta: f64,
    rate: Option<u64>,
    seed: u64,
) -> Result<ThroughputResult, CollectorError> {
    let (n_genuine, crafted, mut rng) = craft_degree_vector_tail(users, groups, attack, beta, seed);
    let crafted_count = crafted.len() as u64;

    let start = Instant::now();
    client.open_round(
        round_id,
        RoundChannel::DegreeVector {
            population: users,
            groups,
        },
        None,
    )?;
    let mut pacer = Pacer::new(rate);
    let mut vector = vec![0.0f64; groups];
    for id in 0..n_genuine as u64 {
        for x in &mut vector {
            *x = rng.gen_range(0.0..4.0);
        }
        // Borrowed, batched send: no clone per report, one frame per
        // DEFAULT_BATCH_REPORTS on the hot path.
        client.queue_degree_vector(id, &vector)?;
        pacer.tick(client)?;
    }
    for (offset, v) in crafted.iter().enumerate() {
        client.queue_degree_vector((n_genuine + offset) as u64, v)?;
        pacer.tick(client)?;
    }
    let summary = client.close_round(round_id)?;
    let out = client.finalize_degree_vector(round_id)?;
    let wall = start.elapsed();
    assert_eq!(
        summary.counters.accepted, users as u64,
        "replay must be fully accepted: {:?}",
        summary.counters
    );
    assert_eq!(out.accepted, users as u64);
    Ok(ThroughputResult {
        reports: users as u64,
        crafted: crafted_count,
        wall,
        reports_per_sec: users as f64 / wall.as_secs_f64(),
    })
}

/// Assembles the full report stream of an adjacency round — honest
/// LF-GDPR reports with the fake tail spliced in through the [`Attack`]
/// trait — shared by the single-connection and concurrent replays.
pub fn prepare_adjacency_stream(
    users: usize,
    attack: LoadAttack,
    beta: f64,
    seed: u64,
) -> (LfGdpr, Vec<AdjacencyReport>, u64) {
    // No attack ⇒ no fake tail: every report is honest.
    let m_fake = if attack == LoadAttack::None {
        0
    } else {
        ((users as f64 * beta) as usize).min(users / 2).max(1)
    };
    let n_genuine = users - m_fake;
    let graph = Dataset::Facebook
        .generate_with_nodes(n_genuine, 42)
        .with_isolated_nodes(m_fake);
    let protocol = LfGdpr::new(4.0).expect("valid budget");
    let base = Xoshiro256pp::new(seed);
    let mut reports = protocol.collect_honest(&graph, &base);

    let mut rng = base.derive(ldp_protocols::protocol::STREAM_ATTACK);
    let crafted_count = match attack.as_attack() {
        None => 0u64,
        Some(attack) => {
            let targets: Vec<usize> = (0..n_genuine.min(64)).step_by(4).collect();
            let threat = ThreatModel::explicit(n_genuine, m_fake, targets);
            let knowledge = AttackerKnowledge::derive(&protocol, users, graph.average_degree());
            let rng: &mut dyn RngCore = &mut rng;
            let crafted = attack.craft(
                CraftContext::Adjacency {
                    protocol: &protocol,
                },
                TargetMetric::DegreeCentrality,
                &threat,
                &knowledge,
                rng,
            );
            let count = crafted.len() as u64;
            for (offset, report) in crafted.into_iter().enumerate() {
                reports[n_genuine + offset] = report.into_adjacency().expect("adjacency channel");
            }
            count
        }
    };
    (protocol, reports, crafted_count)
}

/// Replays one **adjacency round**: the honest reports of a real LF-GDPR
/// collection over the dataset stand-in, with the fake tail's reports
/// crafted through the [`Attack`] trait, streamed (batched) and finalized
/// over the wire.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if any replayed report is rejected.
pub fn run_adjacency_round(
    client: &mut CollectorClient,
    round_id: u64,
    users: usize,
    attack: LoadAttack,
    beta: f64,
    rate: Option<u64>,
    seed: u64,
) -> Result<ThroughputResult, CollectorError> {
    let (protocol, reports, crafted_count) = prepare_adjacency_stream(users, attack, beta, seed);

    let start = Instant::now();
    client.open_round(
        round_id,
        RoundChannel::Adjacency {
            population: users,
            p_keep: protocol.p_keep(),
        },
        None,
    )?;
    let mut pacer = Pacer::new(rate);
    for (id, report) in reports.iter().enumerate() {
        // Borrowed, batched send: no BitSet clone per report, one frame
        // per DEFAULT_BATCH_REPORTS on the hot path.
        client.queue_adjacency_report(id as u64, report)?;
        pacer.tick(client)?;
    }
    let summary = client.close_round(round_id)?;
    let view = client.finalize_adjacency(round_id)?;
    let wall = start.elapsed();
    assert_eq!(
        summary.counters.accepted, users as u64,
        "replay must be fully accepted: {:?}",
        summary.counters
    );
    assert_eq!(view.num_users(), users);
    Ok(ThroughputResult {
        reports: users as u64,
        crafted: crafted_count,
        wall,
        reports_per_sec: users as f64 / wall.as_secs_f64(),
    })
}

/// Replays one degree-vector round over `connections` concurrent client
/// sessions: a coordinator session opens the round, `C` uploader threads
/// stream disjoint contiguous id slices through the batched send path
/// and end with a `SYNC` barrier, then the coordinator closes and
/// finalizes. `rate`, when set, is split evenly across the connections.
/// The aggregate-throughput workload of the concurrent ingest plane.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if the daemon's close summary shows any rejected report, or if
/// an uploader thread fails.
#[allow(clippy::too_many_arguments)] // one knob per loadgen CLI flag
pub fn run_degree_vector_round_concurrent(
    addr: SocketAddr,
    round_id: u64,
    users: usize,
    groups: usize,
    attack: LoadAttack,
    beta: f64,
    rate: Option<u64>,
    connections: usize,
    seed: u64,
) -> Result<ThroughputResult, CollectorError> {
    let connections = connections.max(1);
    let (n_genuine, crafted, _) = craft_degree_vector_tail(users, groups, attack, beta, seed);
    let crafted_count = crafted.len() as u64;

    let mut coordinator = CollectorClient::connect(addr)?;
    let start = Instant::now();
    coordinator.open_round(
        round_id,
        RoundChannel::DegreeVector {
            population: users,
            groups,
        },
        None,
    )?;
    let worker_rate = rate.map(|r| (r / connections as u64).max(1));
    std::thread::scope(|scope| -> Result<(), CollectorError> {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let crafted = &crafted;
                scope.spawn(move || -> Result<(), CollectorError> {
                    let mut client = CollectorClient::connect(addr)?;
                    client.set_round(round_id)?;
                    // Per-connection honest stream (throughput workload;
                    // totals are not compared across connection counts).
                    let mut rng = Xoshiro256pp::new(seed).derive(0xC0_u64 + c as u64);
                    let lo = users * c / connections;
                    let hi = users * (c + 1) / connections;
                    let mut pacer = Pacer::new(worker_rate);
                    let mut vector = vec![0.0f64; groups];
                    for id in lo..hi {
                        if id < n_genuine {
                            for x in &mut vector {
                                *x = rng.gen_range(0.0..4.0);
                            }
                            client.queue_degree_vector(id as u64, &vector)?;
                        } else {
                            client.queue_degree_vector(id as u64, &crafted[id - n_genuine])?;
                        }
                        pacer.tick(&mut client)?;
                    }
                    // Barrier: the ACK proves this session's reports are
                    // folded before the coordinator closes.
                    client.sync()
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("uploader thread")?;
        }
        Ok(())
    })?;
    let summary = coordinator.close_round(round_id)?;
    let out = coordinator.finalize_degree_vector(round_id)?;
    let wall = start.elapsed();
    assert_eq!(
        summary.counters.accepted, users as u64,
        "replay must be fully accepted: {:?}",
        summary.counters
    );
    assert_eq!(out.accepted, users as u64);
    Ok(ThroughputResult {
        reports: users as u64,
        crafted: crafted_count,
        wall,
        reports_per_sec: users as f64 / wall.as_secs_f64(),
    })
}

/// Replays one adjacency round over `connections` concurrent sessions —
/// the **same** report stream as the single-connection replay at this
/// seed — and returns the finalized view alongside the timings so the
/// caller can pin it bit-identical against the in-process aggregation
/// ([`assert_concurrent_adjacency_equivalence`] does exactly that).
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if any replayed report is rejected or an uploader fails.
pub fn run_adjacency_round_concurrent(
    addr: SocketAddr,
    round_id: u64,
    users: usize,
    attack: LoadAttack,
    beta: f64,
    connections: usize,
    seed: u64,
) -> Result<
    (
        ThroughputResult,
        PerturbedView,
        Vec<AdjacencyReport>,
        LfGdpr,
    ),
    CollectorError,
> {
    let connections = connections.max(1);
    let (protocol, reports, crafted_count) = prepare_adjacency_stream(users, attack, beta, seed);

    let mut coordinator = CollectorClient::connect(addr)?;
    let start = Instant::now();
    coordinator.open_round(
        round_id,
        RoundChannel::Adjacency {
            population: users,
            p_keep: protocol.p_keep(),
        },
        None,
    )?;
    std::thread::scope(|scope| -> Result<(), CollectorError> {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let reports = &reports;
                scope.spawn(move || -> Result<(), CollectorError> {
                    let mut client = CollectorClient::connect(addr)?;
                    client.set_round(round_id)?;
                    let lo = users * c / connections;
                    let hi = users * (c + 1) / connections;
                    for (id, report) in reports.iter().enumerate().take(hi).skip(lo) {
                        client.queue_adjacency_report(id as u64, report)?;
                    }
                    client.sync()
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("uploader thread")?;
        }
        Ok(())
    })?;
    let summary = coordinator.close_round(round_id)?;
    let view = coordinator.finalize_adjacency(round_id)?;
    let wall = start.elapsed();
    assert_eq!(
        summary.counters.accepted, users as u64,
        "replay must be fully accepted: {:?}",
        summary.counters
    );
    Ok((
        ThroughputResult {
            reports: users as u64,
            crafted: crafted_count,
            wall,
            reports_per_sec: users as f64 / wall.as_secs_f64(),
        },
        view,
        reports,
        protocol,
    ))
}

/// Runs [`run_adjacency_round_concurrent`] and asserts the view the
/// daemon finalized from `connections` racing sessions is **bit
/// identical** to aggregating the same reports in process — the
/// concurrent-ingest acceptance check CI runs.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if any matrix word, reported-degree bit, or perturbed degree
/// differs between the two paths.
pub fn assert_concurrent_adjacency_equivalence(
    addr: SocketAddr,
    round_id: u64,
    users: usize,
    attack: LoadAttack,
    beta: f64,
    connections: usize,
    seed: u64,
) -> Result<ThroughputResult, CollectorError> {
    let (result, view, reports, protocol) =
        run_adjacency_round_concurrent(addr, round_id, users, attack, beta, connections, seed)?;
    let reference = protocol.aggregate(&reports);
    assert_eq!(
        view.matrix(),
        reference.matrix(),
        "concurrent wire matrix diverged from in-process"
    );
    assert_eq!(view.reported_degrees(), reference.reported_degrees());
    for u in 0..users {
        assert_eq!(view.perturbed_degree(u), reference.perturbed_degree(u));
    }
    Ok(result)
}

/// Result of replaying `R` simultaneous rounds.
#[derive(Debug)]
pub struct MultiRoundResult {
    /// Rounds multiplexed at once.
    pub rounds: usize,
    /// Reports per round.
    pub users_per_round: usize,
    /// Total reports across all rounds.
    pub reports: u64,
    /// Wall-clock from the first open to the last finalize.
    pub wall: Duration,
    /// **Aggregate** reports/sec across all simultaneous rounds.
    pub reports_per_sec: f64,
}

/// Replays `rounds` **simultaneous degree-vector rounds** — one session
/// per round, each opened as its own tenant, all streaming at once so
/// the daemon multiplexes `R` live aggregates — and returns the
/// aggregate throughput. The headline workload of the round registry:
/// sessions on different rounds share no lock.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if any round's close summary shows a rejected report.
pub fn run_simultaneous_degree_vector_rounds(
    addr: SocketAddr,
    rounds: usize,
    users_per_round: usize,
    groups: usize,
    seed: u64,
) -> Result<MultiRoundResult, CollectorError> {
    let rounds = rounds.max(1);
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), CollectorError> {
        let handles: Vec<_> = (0..rounds)
            .map(|r| {
                scope.spawn(move || -> Result<(), CollectorError> {
                    let round_id = r as u64 + 1;
                    let mut client = CollectorClient::connect(addr)?.with_tenant(r as u64);
                    client.open_round(
                        round_id,
                        RoundChannel::DegreeVector {
                            population: users_per_round,
                            groups,
                        },
                        None,
                    )?;
                    let mut rng = Xoshiro256pp::new(seed).derive(round_id);
                    let mut vector = vec![0.0f64; groups];
                    for id in 0..users_per_round as u64 {
                        for x in &mut vector {
                            *x = rng.gen_range(0.0..4.0);
                        }
                        client.queue_degree_vector(id, &vector)?;
                    }
                    let summary = client.close_round(round_id)?;
                    assert_eq!(
                        summary.counters.accepted, users_per_round as u64,
                        "round {round_id} replay must be fully accepted: {:?}",
                        summary.counters
                    );
                    let out = client.finalize_degree_vector(round_id)?;
                    assert_eq!(out.accepted, users_per_round as u64);
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("round thread")?;
        }
        Ok(())
    })?;
    let wall = start.elapsed();
    let reports = (rounds * users_per_round) as u64;
    Ok(MultiRoundResult {
        rounds,
        users_per_round,
        reports,
        wall,
        reports_per_sec: reports as f64 / wall.as_secs_f64(),
    })
}

/// Replays `rounds` simultaneous **adjacency rounds** — distinct report
/// streams, one session per round, racing on one daemon — and asserts
/// every finalized view is **bit-identical** to aggregating that round's
/// reports in process (equivalently: to running the rounds sequentially,
/// since the sequential daemon path is itself pinned bit-identical to
/// the in-process fold). The multi-round acceptance check CI runs.
///
/// # Errors
/// Transport failures and daemon refusals.
///
/// # Panics
/// Panics if any round's view differs from its in-process reference in
/// any matrix word or degree.
pub fn assert_simultaneous_adjacency_equivalence(
    addr: SocketAddr,
    rounds: usize,
    users_per_round: usize,
    seed: u64,
) -> Result<MultiRoundResult, CollectorError> {
    let rounds = rounds.max(1);
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), CollectorError> {
        let handles: Vec<_> = (0..rounds)
            .map(|r| {
                scope.spawn(move || -> Result<(), CollectorError> {
                    let round_id = r as u64 + 1;
                    // A per-round stream: different seed, different noise.
                    let (protocol, reports, _) = prepare_adjacency_stream(
                        users_per_round,
                        LoadAttack::None,
                        0.0,
                        seed + r as u64,
                    );
                    let mut client = CollectorClient::connect(addr)?.with_tenant(r as u64);
                    client.open_round(
                        round_id,
                        RoundChannel::Adjacency {
                            population: users_per_round,
                            p_keep: protocol.p_keep(),
                        },
                        None,
                    )?;
                    for (id, report) in reports.iter().enumerate() {
                        client.queue_adjacency_report(id as u64, report)?;
                    }
                    let summary = client.close_round(round_id)?;
                    assert_eq!(summary.counters.accepted, users_per_round as u64);
                    let view = client.finalize_adjacency(round_id)?;
                    let reference = protocol.aggregate(&reports);
                    assert_eq!(
                        view.matrix(),
                        reference.matrix(),
                        "round {round_id} diverged under multiplexing"
                    );
                    assert_eq!(view.reported_degrees(), reference.reported_degrees());
                    Ok(())
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("round thread")?;
        }
        Ok(())
    })?;
    let wall = start.elapsed();
    let reports = (rounds * users_per_round) as u64;
    Ok(MultiRoundResult {
        rounds,
        users_per_round,
        reports,
        wall,
        reports_per_sec: reports as f64 / wall.as_secs_f64(),
    })
}

/// Paces a replay to a reports/sec target by sleeping at batch
/// boundaries (and flushing so the daemon sees a steady stream, not one
/// burst at close).
struct Pacer {
    rate: Option<u64>,
    sent: u64,
    started: Instant,
}

impl Pacer {
    const BATCH: u64 = 1024;

    fn new(rate: Option<u64>) -> Self {
        Pacer {
            rate,
            sent: 0,
            started: Instant::now(),
        }
    }

    fn tick(&mut self, client: &mut CollectorClient) -> Result<(), CollectorError> {
        self.sent += 1;
        if let Some(rate) = self.rate {
            if self.sent.is_multiple_of(Self::BATCH) {
                // Flush before sleeping so the daemon really receives a
                // steady stream rather than one burst at close.
                client.flush()?;
                let due = Duration::from_secs_f64(self.sent as f64 / rate as f64);
                let elapsed = self.started.elapsed();
                if due > elapsed {
                    std::thread::sleep(due - elapsed);
                }
            }
        }
        Ok(())
    }
}

/// The named counter's value in a decoded `STATS` scrape; 0 when absent
/// (a daemon whose registry is inactive scrapes empty).
pub fn stat_counter(entries: &[wire::StatsEntry], name: &str) -> u64 {
    entries
        .iter()
        .find_map(|e| match e.value {
            wire::StatsValue::Counter(v) if e.name == name => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

/// The named gauge's value in a decoded `STATS` scrape; 0 when absent.
pub fn stat_gauge(entries: &[wire::StatsEntry], name: &str) -> u64 {
    entries
        .iter()
        .find_map(|e| match e.value {
            wire::StatsValue::Gauge(v) if e.name == name => Some(v),
            _ => None,
        })
        .unwrap_or(0)
}

/// Sum of the per-shard fold counters — the registry-side twin of the
/// accepted count across every round the daemon ever served.
pub fn folded_total(entries: &[wire::StatsEntry]) -> u64 {
    entries
        .iter()
        .filter(|e| e.name.starts_with("ingest_reports_folded_shard_"))
        .map(|e| match e.value {
            wire::StatsValue::Counter(v) => v,
            _ => 0,
        })
        .sum()
}

/// Decoded `STATS_REPLY` entries as [`ldp_obs`] samples, so
/// [`ldp_obs::render_samples`] can produce the same Prometheus-style
/// text exposition on the scraping side as the daemon renders locally.
pub fn samples_from_wire(entries: &[wire::StatsEntry]) -> Vec<Sample> {
    entries
        .iter()
        .map(|e| Sample {
            name: e.name.clone(),
            value: match &e.value {
                wire::StatsValue::Counter(v) => SampleValue::Counter(*v),
                wire::StatsValue::Gauge(v) => SampleValue::Gauge(*v),
                wire::StatsValue::Histogram { sum, buckets } => SampleValue::Histogram {
                    sum: *sum,
                    buckets: buckets.clone(),
                },
            },
        })
        .collect()
}

/// Result of the instrumented-vs-baseline overhead measurement.
#[derive(Debug)]
pub struct MetricsOverhead {
    /// Reports per measured round.
    pub users: usize,
    /// A/B pairs run (best wall of each side is kept).
    pub runs: usize,
    /// Best wall-clock with the registry live.
    pub instrumented_wall: Duration,
    /// Best wall-clock with the registry inactive.
    pub baseline_wall: Duration,
    /// `instrumented_wall / baseline_wall` — the number the ≤1.03
    /// budget in `BENCH_collector.json` is asserted on.
    pub ratio: f64,
}

/// Measures what the metrics registry costs on the headline workload:
/// replays the same honest degree-vector round on a fresh instrumented
/// daemon and on a fresh `metrics: false` daemon in interleaved A/B
/// pairs, and reports the ratio of the best walls (interleaving plus
/// best-of-N squeezes out scheduler drift, which on a shared CI box
/// dwarfs the few relaxed ticks per report being measured).
///
/// Pairs keep running — at least two, at most `max_runs` — until the
/// ratio lands at or under `target`, so a one-off scheduler stall on
/// the instrumented leg costs extra pairs instead of a flaked gate. A
/// real regression holds across retries: the pre-optimization probe
/// counter, at ~+9%, blew every pair it was measured under.
///
/// # Errors
/// Daemon/bind/transport failures.
///
/// # Panics
/// Panics if any replayed report is rejected.
pub fn run_metrics_overhead(
    users: usize,
    groups: usize,
    max_runs: usize,
    target: f64,
    seed: u64,
) -> Result<MetricsOverhead, CollectorError> {
    let max_runs = max_runs.max(2);
    let mut best = [Duration::MAX; 2];
    let mut runs = 0;
    for run in 0..max_runs {
        for (slot, metrics) in [(0usize, true), (1, false)] {
            let (addr, handle) = spawn_daemon_with(8, metrics)?;
            let mut client = CollectorClient::connect(addr)?;
            let result = run_degree_vector_round(
                &mut client,
                1,
                users,
                groups,
                LoadAttack::None,
                0.0,
                None,
                seed + run as u64,
            )?;
            drop(client);
            shutdown_daemon(addr, handle);
            best[slot] = best[slot].min(result.wall);
        }
        runs = run + 1;
        if runs >= 2 && best[0].as_secs_f64() <= target * best[1].as_secs_f64() {
            break;
        }
    }
    Ok(MetricsOverhead {
        users,
        runs,
        instrumented_wall: best[0],
        baseline_wall: best[1],
        ratio: best[0].as_secs_f64() / best[1].as_secs_f64(),
    })
}

/// Result of the live-scrape reconciliation round.
#[derive(Debug)]
pub struct LiveScrapeResult {
    /// The replayed round's timings.
    pub throughput: ThroughputResult,
    /// `STATS` scrapes answered while the round was still streaming.
    pub mid_scrapes: usize,
    /// Final sum of per-shard fold counters (== accepted by assertion).
    pub folded_total: u64,
}

/// Streams one degree-vector round of `users` reports on a **fresh**
/// daemon while a second session scrapes `STATS` concurrently, then
/// asserts the registry reconciles exactly with the round's close
/// `SUMMARY`: every mid-round scrape is a monotone count never
/// exceeding the population, and after close the sum of per-shard fold
/// counters equals the accepted count to the report — the acceptance
/// pin for scraping a live 2²⁰-report round.
///
/// # Errors
/// Daemon/bind/transport failures.
///
/// # Panics
/// Panics if any scrape overcounts, goes backwards, or the final
/// registry state disagrees with the summary.
pub fn assert_live_scrape_reconciles(
    users: usize,
    groups: usize,
    seed: u64,
) -> Result<LiveScrapeResult, CollectorError> {
    let (addr, handle) = spawn_daemon_with(8, true)?;
    let mut mid_scrapes = 0usize;
    let throughput = std::thread::scope(|scope| -> Result<ThroughputResult, CollectorError> {
        let uploader = scope.spawn(move || -> Result<ThroughputResult, CollectorError> {
            let mut client = CollectorClient::connect(addr)?;
            run_degree_vector_round(
                &mut client,
                1,
                users,
                groups,
                LoadAttack::None,
                0.0,
                None,
                seed,
            )
        });
        let mut scraper = CollectorClient::connect(addr)?;
        let mut last = 0u64;
        while !uploader.is_finished() {
            let entries = scraper.stats()?;
            let folded = folded_total(&entries);
            assert!(
                folded >= last,
                "fold counters went backwards: {folded} < {last}"
            );
            assert!(
                folded <= users as u64,
                "mid-round scrape overcounts: {folded} > {users}"
            );
            last = folded;
            mid_scrapes += 1;
            std::thread::sleep(Duration::from_millis(20));
        }
        uploader.join().expect("uploader thread")
    })?;
    // The replay asserted accepted == users at close; the registry's
    // twin must agree exactly, and the quiet fleet contributed nothing.
    let mut scraper = CollectorClient::connect(addr)?;
    let entries = scraper.stats()?;
    let folded = folded_total(&entries);
    assert_eq!(
        folded, throughput.reports,
        "fold counters diverged from the close summary"
    );
    assert_eq!(stat_counter(&entries, "stall_reaps"), 0);
    assert_eq!(stat_counter(&entries, "sessions_refused_cap"), 0);
    drop(scraper);
    shutdown_daemon(addr, handle);
    Ok(LiveScrapeResult {
        throughput,
        mid_scrapes,
        folded_total: folded,
    })
}

/// One fsync policy's leg of the durability-tax sweep.
#[derive(Debug)]
pub struct DurabilityTax {
    /// Operator spelling of the policy (`off`, `every:<bytes>`, `always`).
    pub policy: &'static str,
    /// The measured round.
    pub throughput: ThroughputResult,
    /// `reports_per_sec` relative to the journal-less baseline (1.0 =
    /// free, lower = the tax).
    pub ratio_vs_baseline: f64,
}

/// How many times [`run_durability_tax`] replays each leg, keeping the
/// fastest: single ~100 ms rounds swing ±25% on a shared VM, which would
/// drown the journal tax in scheduler noise.
const DURABILITY_REPS: usize = 3;

/// Measures the write-ahead journal's ingest tax: one honest
/// degree-vector round replayed over a single batched connection against
/// a journal-less daemon (the baseline) and against durable daemons at
/// each fsync policy, best of `DURABILITY_REPS` (3) runs per leg, journals
/// on a scratch directory that is removed afterwards. Every rep gets a
/// fresh daemon and a fresh journal directory, so no leg pays for a
/// predecessor's dirty pages.
///
/// # Errors
/// Daemon/bind/transport failures.
///
/// # Panics
/// Panics if any leg's close summary shows a rejected report (the replay
/// is well-formed by construction) or the scratch directory cannot be
/// created.
pub fn run_durability_tax(
    users: usize,
    groups: usize,
    seed: u64,
) -> Result<(ThroughputResult, Vec<DurabilityTax>), CollectorError> {
    let best_of =
        |policy: Option<FsyncPolicy>, tag: &str| -> Result<ThroughputResult, CollectorError> {
            let mut best: Option<ThroughputResult> = None;
            for rep in 0..DURABILITY_REPS {
                let dir = std::env::temp_dir()
                    .join(format!("ldp-bench-wal-{}-{tag}-{rep}", std::process::id()));
                let (addr, handle) = match policy {
                    None => spawn_daemon(8)?,
                    Some(policy) => {
                        let _ = std::fs::remove_dir_all(&dir);
                        CollectorServer::spawn_durable(
                            CollectorConfig {
                                shards: 8,
                                max_sessions: 64,
                                max_rounds_per_tenant: 64,
                                ..CollectorConfig::default()
                            },
                            &dir,
                            policy,
                        )?
                    }
                };
                let mut client = CollectorClient::connect(addr)?;
                let throughput = run_degree_vector_round(
                    &mut client,
                    90,
                    users,
                    groups,
                    LoadAttack::None,
                    0.0,
                    None,
                    seed,
                )?;
                drop(client);
                shutdown_daemon(addr, handle);
                let _ = std::fs::remove_dir_all(&dir);
                if best
                    .as_ref()
                    .is_none_or(|b| throughput.reports_per_sec > b.reports_per_sec)
                {
                    best = Some(throughput);
                }
            }
            Ok(best.expect("DURABILITY_REPS > 0"))
        };

    let baseline = best_of(None, "none")?;
    let policies: [(&'static str, FsyncPolicy); 3] = [
        ("off", FsyncPolicy::Off),
        ("every:1048576", FsyncPolicy::EveryBytes(1 << 20)),
        ("always", FsyncPolicy::Always),
    ];
    let mut taxes = Vec::new();
    for (name, policy) in policies {
        let throughput = best_of(Some(policy), &name.replace(':', "-"))?;
        taxes.push(DurabilityTax {
            policy: name,
            ratio_vs_baseline: throughput.reports_per_sec / baseline.reports_per_sec,
            throughput,
        });
    }
    Ok((baseline, taxes))
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`); 0 where unavailable.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}
