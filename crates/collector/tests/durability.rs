//! Durability-plane integration tests, in-process where every byte
//! offset and every fault point can be swept exhaustively:
//!
//! * torn-tail truncation matrices over checkpoint records (every cut
//!   must be a typed refusal) and journal segments (every cut must be a
//!   typed refusal or a clean-EOF prefix recovery — never a panic);
//! * the retrying client riding severed connections and daemon restarts
//!   with bit-identical finalize — the exactly-once property, pinned by
//!   a proptest over random disconnect/restart schedules;
//! * the typed-transport and counted-lossy-flush satellite behaviours.
//!
//! The companion `tests/crash.rs` covers the same exactly-once claim
//! against a real daemon *process* killed with SIGKILL.

use ldp_collector::server::codes;
use ldp_collector::wal::DurableLog;
use ldp_collector::{
    CollectorClient, CollectorConfig, CollectorError, CollectorServer, FsyncPolicy, RetryPolicy,
    RoundChannel, RoundCollector,
};
use ldp_protocols::wire::{self, journal, StatsValue};
use ldp_protocols::UserReport;
use proptest::prelude::*;
use std::net::{TcpListener, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::Duration;

const SHARDS: usize = 2;
const GROUPS: usize = 3;
const ROUND: u64 = 11;

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: SHARDS,
        ..CollectorConfig::default()
    }
}

fn channel(population: usize) -> RoundChannel {
    RoundChannel::DegreeVector {
        population,
        groups: GROUPS,
    }
}

fn vector(user: u64) -> Vec<f64> {
    vec![1.0, user as f64 + 0.25, (user % 7) as f64 * 0.5]
}

/// Duplicates charge the round quota (by design — a resend is a queued
/// upload like any other), so retry tests must provision headroom above
/// the population or resent window entries could starve fresh reports.
fn generous_quota(population: usize) -> Option<u64> {
    Some(16 * population as u64)
}

/// A fresh scratch directory unique across tests *and* proptest cases.
fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "ldp-durability-{}-{tag}-{unique}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Tight backoffs so fault-riding tests spend milliseconds, not the
/// operator-scale defaults.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(50),
        seed: 7,
        resend_window: RetryPolicy::default().resend_window,
    }
}

/// A client of the daemon at `addr` that reconnects and resends under
/// `policy`, with a 5 s deadline on every call.
fn retrying_client(addr: impl ToSocketAddrs, policy: RetryPolicy) -> CollectorClient {
    let mut client = CollectorClient::connect(addr)
        .expect("connect")
        .with_retry(policy);
    client
        .set_op_timeout(Some(Duration::from_secs(5)))
        .expect("op timeout");
    client
}

/// Runs one fault-free degree-vector round against a plain (non-durable)
/// daemon — the reference every faulted schedule must match bit for bit.
fn fault_free_reference(population: usize) -> (Vec<f64>, u64) {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn reference daemon");
    let mut client = CollectorClient::connect(addr).expect("connect reference");
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open reference round");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue reference report");
    }
    client.sync().expect("reference barrier");
    let summary = client.close_round(ROUND).expect("close reference round");
    assert_eq!(summary.counters.accepted, population as u64);
    let finalized = client
        .finalize_degree_vector(ROUND)
        .expect("finalize reference round");
    client.shutdown().expect("shut reference daemon down");
    handle
        .join()
        .expect("reference daemon thread")
        .expect("reference daemon exit");
    (finalized.group_totals, finalized.accepted)
}

/// Asserts that `dir` holds journal segments and nothing else.
fn assert_only_segments(dir: &Path) {
    for entry in std::fs::read_dir(dir).expect("read data dir") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            name.starts_with("wal-") && name.ends_with(".ldpw"),
            "non-segment file {name:?} in the data dir"
        );
    }
}

// ---------------------------------------------------------------------------
// Torn-tail truncation matrices
// ---------------------------------------------------------------------------

/// Every strict prefix of a checkpoint record — the marker or any shard
/// record — must refuse with a typed error: restoring half a round
/// silently would be worse than crashing, and panicking on
/// operator-supplied bytes is forbidden outright.
#[test]
fn checkpoint_truncated_at_every_offset_is_a_typed_error() {
    let population = 24usize;
    let engine = RoundCollector::new(config()).expect("engine");
    engine
        .open_round_as(0, ROUND, channel(population), None)
        .expect("open");
    for user in 0..population as u64 {
        let outcome = engine
            .ingest(ROUND, user, UserReport::DegreeVector(vector(user)))
            .expect("ingest");
        assert_eq!(outcome, ldp_collector::IngestOutcome::Queued);
    }
    let mut records = Vec::new();
    let marker = engine
        .checkpoint(ROUND, |shard| {
            records.push(shard.to_vec());
            Ok(())
        })
        .expect("checkpoint");
    records.push(marker);
    let restore = |records: &[Vec<u8>]| {
        let (marker, shards) = records.split_last().expect("a marker");
        let shards: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        let restored = RoundCollector::new(config()).expect("engine");
        restored.restore(marker, &shards).map(|_| restored)
    };
    let resumed = restore(&records).expect("the untruncated checkpoint must restore");
    assert_eq!(
        resumed.counters(ROUND).expect("counters").accepted,
        population as u64
    );
    for index in 0..records.len() {
        for cut in 0..records[index].len() {
            let mut torn = records.clone();
            torn[index].truncate(cut);
            match restore(&torn) {
                Ok(_) => panic!(
                    "a {cut}-byte prefix of the {}-byte record {index} restored cleanly",
                    records[index].len()
                ),
                Err(CollectorError::BadCheckpoint { .. }) => {}
                Err(other) => {
                    panic!("record {index} cut at {cut}: expected a parse-class error, got {other}")
                }
            }
        }
    }
    // The refusal names the field the cut landed in: the marker's last
    // byte is its `closed` flag.
    let mut torn = records.clone();
    torn.last_mut().expect("marker").pop();
    assert!(matches!(
        restore(&torn),
        Err(CollectorError::BadCheckpoint {
            detail: "closed flag"
        })
    ));
}

/// Every prefix of a journal segment — cutting through record frames,
/// the checkpoint's shard records and marker, and the segment header
/// alike — must either recover a consistent prefix of the round (torn
/// tail = clean end of log) or refuse typed. The source directory is
/// produced by a real durable daemon, so the bytes under the knife are
/// exactly what production writes: OPEN + report batches + a checkpoint
/// (shard records + marker) + a post-marker tail of journaled duplicates.
#[test]
fn wal_segment_truncated_at_every_offset_recovers_or_refuses() {
    let population = 16usize;
    let dir = scratch_dir("wal-sweep-src");
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Always).expect("spawn durable");
    let mut client = CollectorClient::connect(addr).expect("connect");
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.sync().expect("barrier");
    client.checkpoint(ROUND).expect("checkpoint marker");
    for user in 0..4u64 {
        // Duplicates: journaled verbatim, re-rejected on replay.
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue duplicate");
    }
    client.sync().expect("second barrier");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");

    // The directory is exactly one journal segment (nothing rotated), and
    // the checkpoint lives inside it.
    assert_only_segments(&dir);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .expect("read data dir")
        .map(|entry| entry.expect("dir entry"))
        .collect();
    assert_eq!(entries.len(), 1, "expected a single journal segment");
    let entry = entries.pop().expect("a journal segment must exist");
    let segment_name = entry.file_name();
    let segment_bytes = std::fs::read(entry.path()).expect("read segment");
    let mut kinds = Vec::new();
    let (mut frames, mut payload) = (&segment_bytes[5..], Vec::new());
    while let Some(kind) = wire::read_frame(&mut frames, &mut payload).expect("intact segment") {
        kinds.push(kind);
    }
    assert!(
        kinds.contains(&journal::REC_SNAPSHOT) && kinds.contains(&journal::REC_CHECKPOINT),
        "the checkpoint must have written its records into the segment: {kinds:?}"
    );

    let sweep_root = scratch_dir("wal-sweep");
    for cut in 0..=segment_bytes.len() {
        let case_dir = sweep_root.join(format!("cut-{cut}"));
        std::fs::create_dir_all(&case_dir).expect("case dir");
        std::fs::write(case_dir.join(&segment_name), &segment_bytes[..cut])
            .expect("write truncated segment");
        let engine = RoundCollector::new(config()).expect("fresh engine");
        match DurableLog::open(&case_dir, FsyncPolicy::Off, &engine) {
            Ok((_, recovery)) => {
                if recovery.rounds.is_empty() {
                    continue;
                }
                assert_eq!(recovery.rounds, vec![ROUND], "cut at {cut}");
                let counters = engine.counters(ROUND).expect("recovered counters");
                assert!(
                    counters.accepted <= population as u64,
                    "cut at {cut}: recovered more than was ever sent"
                );
                if cut == segment_bytes.len() {
                    assert_eq!(counters.accepted, population as u64, "full segment");
                    assert_eq!(counters.rejected_duplicate, 4, "full segment");
                }
            }
            Err(CollectorError::BadJournal { .. }) | Err(CollectorError::BadCheckpoint { .. }) => {}
            Err(other) => panic!("cut at {cut}: unexpected error class {other}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&sweep_root);
}

// ---------------------------------------------------------------------------
// Checkpoint, then finalize, then restart
// ---------------------------------------------------------------------------

/// Starts a durable daemon over `dir` (recovering whatever it holds),
/// runs one full round — checkpointed mid-way when `checkpoint` — and
/// shuts the daemon down, returning the finalized totals.
fn durable_round(dir: &Path, population: usize, checkpoint: bool) -> (Vec<f64>, u64) {
    let (addr, handle) = CollectorServer::spawn_durable(config(), dir, FsyncPolicy::Always)
        .expect("spawn durable daemon over the data dir");
    let mut client = CollectorClient::connect(addr).expect("connect");
    client
        .open_round(ROUND, channel(population), None)
        .expect("open");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    if checkpoint {
        client.checkpoint(ROUND).expect("checkpoint");
    }
    client.close_round(ROUND).expect("close");
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    (finalized.group_totals, finalized.accepted)
}

/// Finalize leaves a round's checkpoint records in the journal until the
/// next prune. A restart must still recover — with nothing open, so
/// the same id opens again and finalizes to the fault-free totals.
#[test]
fn checkpoint_finalize_restart_recovers() {
    let population = 16usize;
    let reference = fault_free_reference(population);
    let dir = scratch_dir("checkpoint-finalize");
    assert_eq!(durable_round(&dir, population, true), reference);
    assert_only_segments(&dir);
    assert_eq!(durable_round(&dir, population, false), reference);
    assert_only_segments(&dir);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Client-side satellites: typed transport errors, counted lossy flush
// ---------------------------------------------------------------------------

/// A connect refusal must say *which* address refused, not just "I/O
/// error" — the operator (and the retry loop's final error) needs the
/// target.
#[test]
fn transport_errors_name_the_target() {
    // Bind-then-drop finds a port that is currently closed.
    let port = TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port();
    let err = match CollectorClient::connect(("127.0.0.1", port)) {
        Ok(_) => panic!("connecting to a closed port must fail"),
        Err(e) => e,
    };
    match err {
        CollectorError::Transport { ref target, .. } => {
            assert!(
                target.contains(&port.to_string()),
                "target {target:?} does not name port {port}"
            );
            assert!(err.to_string().contains("127.0.0.1"));
        }
        other => panic!("expected CollectorError::Transport, got {other}"),
    }
}

/// Dropping a client with an undelivered batch flushes best-effort; when
/// that flush fails the failure is *counted*, not silently swallowed.
#[test]
fn a_dropped_client_counts_its_failed_flush() {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr, fast_retries());
    client
        .open_round(21, channel(8), None)
        .expect("open round 21");
    client
        .queue_degree_vector(0, &vector(0))
        .expect("queue one report");
    let before = CollectorClient::pending_flush_failed();
    // Sever the socket, then drop with the report still batched: the
    // destructor's flush hits a dead socket and must tick the counter.
    client.fault_disconnect();
    drop(client);
    assert!(
        CollectorClient::pending_flush_failed() > before,
        "the failed destructor flush was not counted"
    );
    let mut admin = CollectorClient::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

// ---------------------------------------------------------------------------
// Retrying client: reconnect, resend, exactly-once
// ---------------------------------------------------------------------------

/// Severing the connection every few reports must change nothing about
/// the finalized output: the resend window replays, the daemon's
/// duplicate rejection absorbs the overlap, and the totals are
/// bit-identical to the fault-free reference.
#[test]
fn the_retrying_client_rides_disconnects_exactly_once() {
    let population = 48usize;
    let (reference_totals, reference_accepted) = fault_free_reference(population);
    let dir = scratch_dir("retry-rides");
    let (addr, handle) =
        CollectorServer::spawn_durable(config(), &dir, FsyncPolicy::Always).expect("spawn durable");
    let mut client = retrying_client(
        addr,
        RetryPolicy {
            resend_window: 8,
            ..fast_retries()
        },
    );
    client
        .open_round(ROUND, channel(population), generous_quota(population))
        .expect("open");
    for user in 0..population as u64 {
        if user % 5 == 3 {
            client.fault_disconnect();
        }
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue across faults");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, population as u64);
    assert_eq!(summary.counters.rejected_quota, 0);
    assert_eq!(summary.counters.rejected_invalid, 0);
    assert_eq!(summary.counters.rejected_malformed, 0);
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!(finalized.accepted, reference_accepted);
    assert_eq!(
        finalized.group_totals, reference_totals,
        "faulted totals diverged from the fault-free reference"
    );
    assert!(
        client.reconnects() >= 1,
        "the schedule never exercised a reconnect"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Re-opening a round the daemon still holds (because the connection
/// died, not the daemon) is success for the retrying client.
#[test]
fn open_round_is_idempotent_across_reconnects() {
    let population = 8usize;
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr, fast_retries());
    client
        .open_round(ROUND, channel(population), None)
        .expect("first open");
    client.fault_disconnect();
    client
        .open_round(ROUND, channel(population), None)
        .expect("reopen over a fresh connection must be idempotent");
    for user in 0..population as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, population as u64);
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// A resend keeps every report in the round it was queued for: reports
/// queued for round 31 and still in the resend window when the client
/// moved on to round 32 and lost its connection go back to round 31,
/// not to the round current at the reconnect.
#[test]
fn a_resend_keeps_each_report_in_its_round() {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut client = retrying_client(addr, fast_retries());
    client
        .open_round(31, channel(8), generous_quota(8))
        .expect("open round 31");
    for user in 0..3u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue into round 31");
    }
    client
        .open_round(32, channel(8), generous_quota(8))
        .expect("open round 32");
    client.fault_disconnect();
    client
        .queue_degree_vector(7, &vector(7))
        .expect("queue into round 32");
    let round_32 = client.close_round(32).expect("close round 32");
    assert_eq!(
        round_32.counters.accepted, 1,
        "round 31's reports were resent into round 32"
    );
    let round_31 = client.close_round(31).expect("close round 31");
    assert_eq!(round_31.counters.accepted, 3);
    assert!(
        client.reconnects() >= 1,
        "the fault never forced a reconnect"
    );
    client.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

/// Round ids are global across tenants, so a retrying client's *first*
/// `OPEN` of a round another session holds must be refused — only an
/// `OPEN` resent after a reconnect may read `ROUND_ALREADY_OPEN` as its
/// own earlier copy.
#[test]
fn a_first_open_of_a_held_round_is_refused() {
    let (addr, handle) = CollectorServer::spawn(config()).expect("spawn");
    let mut session_a = CollectorClient::connect(addr).expect("connect session A");
    session_a
        .open_round(ROUND, channel(8), None)
        .expect("session A opens the round");
    let mut client = retrying_client(addr, fast_retries()).with_tenant(1);
    match client.open_round(ROUND, channel(8), None) {
        Err(CollectorError::Remote { code, .. }) => {
            assert_eq!(code, codes::ROUND_ALREADY_OPEN);
        }
        other => panic!("expected a ROUND_ALREADY_OPEN refusal, got {other:?}"),
    }
    session_a.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

// ---------------------------------------------------------------------------
// Exactly-once under random fault schedules (proptest)
// ---------------------------------------------------------------------------

/// Binds port 0, reads the assigned port, releases it — the daemon
/// restart cycle needs a port that stays the same across restarts so the
/// client's reconnect target remains valid.
fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Starts (or restarts) a durable daemon on a fixed port, retrying the
/// bind while the previous incarnation's listener drains.
fn start_durable_daemon(port: u16, dir: &Path) -> JoinHandle<Result<(), CollectorError>> {
    let mut last: Option<CollectorError> = None;
    for _ in 0..100 {
        match CollectorServer::bind(("127.0.0.1", port), config()) {
            Ok(server) => {
                let mut server = server
                    .with_data_dir(dir, FsyncPolicy::Always)
                    .expect("recover data dir");
                return std::thread::spawn(move || server.serve());
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    panic!("could not rebind 127.0.0.1:{port}: {last:?}");
}

/// Cleanly stops the daemon on `port` and reaps its thread — standing in
/// for a crash whose journal made it to disk (fsync policy `always`
/// makes those equivalent; `tests/crash.rs` covers the impolite kinds).
fn stop_daemon(port: u16, handle: JoinHandle<Result<(), CollectorError>>) {
    let mut admin = CollectorClient::connect(("127.0.0.1", port)).expect("admin connect");
    admin.shutdown().expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon exit");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The exactly-once pin: under any schedule of client-side
    /// disconnects and daemon restart-with-recovery cycles, at-least-once
    /// resend plus journal-recovered duplicate rejection folds every
    /// report exactly once — accepted equals the population and the
    /// finalized totals are bit-identical to the fault-free reference.
    #[test]
    fn random_fault_schedules_still_ingest_exactly_once(
        population in 8usize..40,
        disconnects in proptest::collection::vec(0u64..40, 0..4),
        restarts in proptest::collection::vec(0u64..40, 0..2),
    ) {
        let disconnects: std::collections::BTreeSet<u64> = disconnects.into_iter().collect();
        let restarts: std::collections::BTreeSet<u64> = restarts.into_iter().collect();
        let (reference_totals, reference_accepted) = fault_free_reference(population);
        let dir = scratch_dir("prop-schedule");
        let port = free_port();
        let mut handle = start_durable_daemon(port, &dir);
        let mut client = retrying_client(
            ("127.0.0.1", port),
            RetryPolicy {
                resend_window: 6,
                ..fast_retries()
            },
        );
        client
            .open_round(ROUND, channel(population), generous_quota(population))
            .expect("open");
        let mut restarted = 0u64;
        for user in 0..population as u64 {
            if restarts.contains(&user) {
                stop_daemon(port, handle);
                handle = start_durable_daemon(port, &dir);
                restarted += 1;
            }
            if disconnects.contains(&user) {
                client.fault_disconnect();
            }
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue across the fault schedule");
        }
        let summary = client.close_round(ROUND).expect("close");
        prop_assert_eq!(summary.counters.accepted, population as u64);
        prop_assert_eq!(summary.counters.rejected_quota, 0);
        prop_assert_eq!(summary.counters.rejected_invalid, 0);
        prop_assert_eq!(summary.counters.rejected_malformed, 0);
        if restarted > 0 {
            // The serving daemon recovered the round at startup and must
            // say so on its scrape surface.
            let stats = client.stats().expect("stats");
            let recovered = stats
                .iter()
                .find(|e| e.name == "recovered_rounds")
                .map(|e| match e.value {
                    StatsValue::Counter(v) | StatsValue::Gauge(v) => v,
                    StatsValue::Histogram { sum, .. } => sum,
                })
                .unwrap_or(0);
            prop_assert!(recovered >= 1, "recovered_rounds not visible after restart");
        }
        let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
        prop_assert_eq!(finalized.accepted, reference_accepted);
        prop_assert_eq!(
            finalized.group_totals,
            reference_totals,
            "schedule diverged from the fault-free reference"
        );
        client.shutdown().expect("shutdown");
        handle.join().expect("daemon thread").expect("daemon exit");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
