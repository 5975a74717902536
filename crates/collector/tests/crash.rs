//! The crash harness: a real `ldp-collectord` process, killed for real.
//!
//! Each schedule spawns the daemon binary on a fixed port with a
//! journal directory under `target/crash-test/`, drives a degree-vector
//! round through a retrying [`CollectorClient`], and at randomized ingest points
//! either SIGKILLs the process or arms the journal's torn-write fault
//! hook (`LDP_WAL_KILL_AFTER_BYTES`) so the daemon aborts *mid-append*,
//! leaving a torn record on disk. After every kill the daemon is
//! restarted on the same directory and the client rides the outage; at
//! the end the schedule must be invisible:
//!
//! * the close summary reconciles exactly — `accepted == population`,
//!   zero quota/invalid/malformed rejects (duplicate rejects are the
//!   resend window's audited cost);
//! * the finalized totals are **bit-identical** to a fault-free run of
//!   the same binary;
//! * the daemon's scrape surface shows the recovery
//!   (`recovered_rounds`, `wal_replayed_frames`).
//!
//! Beside the randomized schedules, fixed schedules pin the checkpoint
//! paths: a kill after a checkpoint → close → finalize → reopen sequence
//! on one round id (the finalized round stays gone), a torn write inside
//! a live `CHECKPOINT`'s shard records, and a torn write inside startup
//! compaction's second round (both recovered rounds survive).
//!
//! Schedule directories are removed on success and kept on failure — CI
//! uploads `target/crash-test/` as the post-mortem artifact.

use ldp_collector::{CollectorClient, RetryPolicy, RoundChannel};
use ldp_protocols::wire::{self, journal, StatsValue};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const POPULATION: usize = 48;
const GROUPS: usize = 3;
const ROUND: u64 = 31;
const SHARDS: usize = 2;
/// Randomized kill schedules per run (the acceptance floor is 20).
const SCHEDULES: u64 = 22;
/// Kills land strictly before this index, leaving enough ingest behind
/// them that an armed torn-append is guaranteed to fire (and be
/// recovered from) before the round closes.
const LAST_KILL_INDEX: u64 = POPULATION as u64 - 16;

#[derive(Debug, Clone, Copy)]
enum Kill {
    /// SIGKILL between two reports.
    Sigkill,
    /// Abort mid-append once the journal has written this many bytes
    /// (counted from the restart that arms it) — the torn-tail case.
    TornAppend(u64),
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn vector(user: u64) -> Vec<f64> {
    vec![1.0, user as f64 + 0.25, (user % 7) as f64 * 0.5]
}

fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 64,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(100),
        seed: 7,
        resend_window: 6,
    }
}

/// A client of the daemon on `port` that rides its restarts.
fn retrying_client(port: u16) -> CollectorClient {
    let mut client = CollectorClient::connect(("127.0.0.1", port))
        .expect("connect")
        .with_retry(fast_retries());
    client
        .set_op_timeout(Some(Duration::from_secs(5)))
        .expect("op timeout");
    client
}

/// `target/crash-test/` — derived from the daemon binary's location so
/// the artifact path in CI is stable.
fn crash_root() -> PathBuf {
    let exe = PathBuf::from(env!("CARGO_BIN_EXE_ldp-collectord"));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .expect("binary lives under target/<profile>/");
    target.join("crash-test")
}

fn free_port() -> u16 {
    TcpListener::bind(("127.0.0.1", 0))
        .expect("probe bind")
        .local_addr()
        .expect("probe addr")
        .port()
}

/// Spawns the daemon binary on `port` over `dir` and waits for its
/// `ADDR` line. `kill_after` arms the torn-write hook. Retries while the
/// previous incarnation's port drains.
fn spawn_daemon(dir: &Path, port: u16, kill_after: Option<u64>) -> Child {
    for _ in 0..100 {
        let mut command = Command::new(env!("CARGO_BIN_EXE_ldp-collectord"));
        command
            .arg("--addr")
            .arg(format!("127.0.0.1:{port}"))
            .arg("--data-dir")
            .arg(dir)
            .arg("--fsync")
            .arg("always")
            .arg("--shards")
            .arg(SHARDS.to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .env_remove("LDP_WAL_KILL_AFTER_BYTES");
        if let Some(bytes) = kill_after {
            command.env("LDP_WAL_KILL_AFTER_BYTES", bytes.to_string());
        }
        let mut child = command.spawn().expect("spawn ldp-collectord");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut line);
        if read.is_ok() && line.starts_with("ADDR ") {
            return child;
        }
        // The child lost the bind race against the dying incarnation —
        // reap it and try again.
        let _ = child.kill();
        let _ = child.wait();
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("ldp-collectord never came up on 127.0.0.1:{port}");
}

/// Starts the daemon armed with the torn-write hook at `kill_after`
/// bytes, expecting it to abort before it ever prints `ADDR` (the hook
/// fires during startup compaction); returns its exit status.
/// [`spawn_daemon`] would retry such a death, so this gives it exactly
/// one shot.
fn run_until_abort(dir: &Path, port: u16, kill_after: u64) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_ldp-collectord"))
        .arg("--addr")
        .arg(format!("127.0.0.1:{port}"))
        .arg("--data-dir")
        .arg(dir)
        .arg("--shards")
        .arg(SHARDS.to_string())
        .env("LDP_WAL_KILL_AFTER_BYTES", kill_after.to_string())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run the doomed incarnation")
}

/// The newest journal segment's records in order, as `(kind, framed
/// length)` — where a byte threshold for the torn-write hook will land.
fn newest_segment_records(dir: &Path) -> Vec<(u8, u64)> {
    let newest = std::fs::read_dir(dir)
        .expect("read data dir")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ldpw"))
        .max()
        .expect("a journal segment");
    let bytes = std::fs::read(newest).expect("read segment");
    let (mut frames, mut payload) = (&bytes[5..], Vec::new());
    let mut records = Vec::new();
    while let Some(kind) = wire::read_frame(&mut frames, &mut payload).expect("intact segment") {
        records.push((kind, 5 + payload.len() as u64));
    }
    records
}

fn counter(stats: &[ldp_protocols::wire::StatsEntry], name: &str) -> Option<u64> {
    stats
        .iter()
        .find(|e| e.name == name)
        .map(|e| match e.value {
            StatsValue::Counter(v) | StatsValue::Gauge(v) => v,
            StatsValue::Histogram { sum, .. } => sum,
        })
}

/// Drives one full round against the child-process daemon under the
/// given kill schedule and returns the finalized totals. Panics (keeping
/// the schedule's data dir for the CI artifact) if the round does not
/// reconcile exactly.
fn run_schedule(tag: &str, kills: &BTreeMap<u64, Kill>) -> (Vec<f64>, u64) {
    let dir = crash_root().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create schedule dir");
    let port = free_port();
    let mut daemon = Some(spawn_daemon(&dir, port, None));
    // A torn-append kill happens at a time of the *daemon's* choosing, so
    // the respawn is delegated to a watcher thread that waits for the
    // abort; the client keeps retrying across the gap.
    let mut watcher: Option<std::thread::JoinHandle<Child>> = None;

    let mut client = retrying_client(port);
    client
        .open_round(
            ROUND,
            RoundChannel::DegreeVector {
                population: POPULATION,
                groups: GROUPS,
            },
            // Resent duplicates charge quota; provision headroom.
            Some(16 * POPULATION as u64),
        )
        .expect("open round");
    for user in 0..POPULATION as u64 {
        match kills.get(&user) {
            Some(Kill::Sigkill) => {
                let mut child = daemon.take().expect("a live daemon to kill");
                child.kill().expect("SIGKILL");
                child.wait().expect("reap");
                daemon = Some(spawn_daemon(&dir, port, None));
            }
            Some(&Kill::TornAppend(bytes)) => {
                let mut child = daemon.take().expect("a live daemon to re-arm");
                child.kill().expect("SIGKILL before arming");
                child.wait().expect("reap");
                let mut armed = spawn_daemon(&dir, port, Some(bytes));
                let respawn_dir = dir.clone();
                watcher = Some(std::thread::spawn(move || {
                    let _ = armed.wait();
                    spawn_daemon(&respawn_dir, port, None)
                }));
            }
            None => {}
        }
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue across the kill schedule");
    }
    if let Some(handle) = watcher.take() {
        daemon = Some(handle.join().expect("torn-append watcher"));
    }

    let summary = client.close_round(ROUND).expect("close round");
    assert_eq!(
        summary.counters.accepted, POPULATION as u64,
        "{tag}: accepted must equal the population"
    );
    assert_eq!(summary.counters.rejected_quota, 0, "{tag}");
    assert_eq!(summary.counters.rejected_invalid, 0, "{tag}");
    assert_eq!(summary.counters.rejected_malformed, 0, "{tag}");
    if !kills.is_empty() {
        let stats = client.stats().expect("scrape the serving daemon");
        let recovered = counter(&stats, "recovered_rounds").unwrap_or(0);
        assert!(
            recovered >= 1,
            "{tag}: the restarted daemon must report its recovery"
        );
        assert!(
            counter(&stats, "wal_replayed_frames").is_some(),
            "{tag}: wal_replayed_frames must be on the scrape surface"
        );
    }
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    client.shutdown().expect("shutdown");
    let mut child = daemon.take().expect("the final daemon");
    child.wait().expect("reap the final daemon");
    // Success: this schedule needs no post-mortem artifact.
    let _ = std::fs::remove_dir_all(&dir);
    (finalized.group_totals, finalized.accepted)
}

fn schedule(index: u64) -> BTreeMap<u64, Kill> {
    let mut state = 0x51ab_c011u64.wrapping_add(index.wrapping_mul(0x9E37_79B9));
    let mut kills = BTreeMap::new();
    for _ in 0..1 + splitmix64(&mut state) % 3 {
        kills.insert(splitmix64(&mut state) % LAST_KILL_INDEX, Kill::Sigkill);
    }
    if index % 3 == 2 {
        // One torn-append kill, strictly after the SIGKILLs so its
        // watcher never races another kill's respawn. The byte threshold
        // clears startup compaction (~a marker record) but is crossed by
        // the first post-restart report batches.
        let last = kills.keys().max().copied().unwrap_or(0);
        let threshold = 64 + splitmix64(&mut state) % 128;
        kills.insert((last + 4).min(LAST_KILL_INDEX), Kill::TornAppend(threshold));
    }
    kills
}

/// ≥ 20 randomized kill schedules, every one of which must finalize
/// bit-identically to the fault-free reference run of the same binary.
#[test]
fn sigkill_schedules_finalize_bit_identically() {
    let reference = run_schedule("reference", &BTreeMap::new());
    assert_eq!(reference.1, POPULATION as u64);
    for index in 0..SCHEDULES {
        let kills = schedule(index);
        assert!(!kills.is_empty(), "every schedule must kill at least once");
        let tag = format!("schedule-{index}");
        let outcome = run_schedule(&tag, &kills);
        assert_eq!(
            outcome.1, reference.1,
            "{tag} ({kills:?}): accepted count diverged"
        );
        assert_eq!(
            outcome.0, reference.0,
            "{tag} ({kills:?}): finalized totals are not bit-identical"
        );
    }
}

/// A daemon that dies while *recovering* (torn hook armed so tightly it
/// fires on startup compaction's first checkpoint record) must still come
/// back on the next, unarmed restart — recovery itself is crash-safe.
#[test]
fn a_crash_during_recovery_is_recoverable() {
    let dir = crash_root().join("recovery-crash");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    let port = free_port();
    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = retrying_client(port);
    client
        .open_round(
            ROUND,
            RoundChannel::DegreeVector {
                population: 16,
                groups: GROUPS,
            },
            Some(256),
        )
        .expect("open");
    for user in 0..8u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.sync().expect("barrier");
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");
    // Threshold 1: startup compaction's first checkpoint record crosses
    // it, so this incarnation aborts mid-recovery before it ever prints
    // ADDR.
    let status = run_until_abort(&dir, port, 1);
    assert!(!status.success(), "the armed daemon must abort in recovery");
    // The unarmed restart recovers everything the barrier made durable.
    let mut daemon = spawn_daemon(&dir, port, None);
    for user in 8..16u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue after recovery");
    }
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, 16);
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!(finalized.accepted, 16);
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The checkpoint-then-finalize schedule: checkpoint mid-round, close,
/// finalize, reopen the same round id and fill half of it, SIGKILL,
/// restart. The finalized round must stay gone — the recovered round is
/// exactly the reopened half — and the reopened round, finished after the
/// restart, finalizes bit-identically to the fault-free reference.
#[test]
fn checkpoint_then_finalize_schedule_keeps_the_finalized_round_gone() {
    let reference = run_schedule("checkpoint-finalize-reference", &BTreeMap::new());
    let dir = crash_root().join("checkpoint-finalize");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create schedule dir");
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let channel = RoundChannel::DegreeVector {
        population: POPULATION,
        groups: GROUPS,
    };
    // Resent duplicates charge quota; provision headroom.
    let quota = Some(4 * POPULATION as u64);
    let half = POPULATION as u64 / 2;
    let queue = |client: &mut CollectorClient, users: std::ops::Range<u64>| {
        for user in users {
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue");
        }
    };

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("connect");
    client.open_round(ROUND, channel, quota).expect("open");
    queue(&mut client, 0..half);
    client.checkpoint(ROUND).expect("checkpoint mid-round");
    queue(&mut client, half..POPULATION as u64);
    let summary = client.close_round(ROUND).expect("close");
    assert_eq!(summary.counters.accepted, POPULATION as u64);
    let first = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!((first.group_totals, first.accepted), reference);
    // The same id again, half-filled and barrier-acknowledged, then
    // killed without a close.
    client
        .open_round(ROUND, channel, quota)
        .expect("reopen the finalized id");
    queue(&mut client, 0..half);
    client.sync().expect("barrier");
    drop(client);
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("reconnect");
    let stats = client.stats().expect("scrape the restarted daemon");
    assert_eq!(counter(&stats, "recovered_rounds"), Some(1));
    // Resend the whole population: the reopened half is all duplicates
    // and the rest folds fresh. A resurrected finalized round would
    // have made every resend a duplicate (or refused the replayed OPEN).
    client.set_round(ROUND).expect("set round");
    queue(&mut client, 0..POPULATION as u64);
    let summary = client.close_round(ROUND).expect("close the reopened round");
    assert_eq!(summary.counters.accepted, POPULATION as u64);
    assert_eq!(summary.counters.rejected_duplicate, half);
    assert_eq!(summary.counters.rejected_quota, 0);
    assert_eq!(summary.counters.rejected_invalid, 0);
    assert_eq!(summary.counters.rejected_malformed, 0);
    let finalized = client.finalize_degree_vector(ROUND).expect("finalize");
    assert_eq!(
        (finalized.group_totals, finalized.accepted),
        reference,
        "the reopened round must finalize bit-identically"
    );
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap the final daemon");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Resends the whole population to `round` over `client` (the first
/// `sent` users are duplicates by now), closes and finalizes it, and
/// checks the round reconciles to `reference` bit for bit.
fn finish_round(client: &mut CollectorClient, round: u64, sent: u64, reference: &(Vec<f64>, u64)) {
    client.set_round(round).expect("set round");
    for user in 0..POPULATION as u64 {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    let summary = client.close_round(round).expect("close");
    assert_eq!(
        summary.counters.accepted, POPULATION as u64,
        "round {round}"
    );
    assert_eq!(summary.counters.rejected_duplicate, sent, "round {round}");
    assert_eq!(summary.counters.rejected_quota, 0, "round {round}");
    assert_eq!(summary.counters.rejected_invalid, 0, "round {round}");
    assert_eq!(summary.counters.rejected_malformed, 0, "round {round}");
    let finalized = client.finalize_degree_vector(round).expect("finalize");
    assert_eq!(
        &(finalized.group_totals, finalized.accepted),
        reference,
        "round {round} must finalize bit-identically"
    );
}

/// A torn write inside a live `CHECKPOINT`'s shard records: the first
/// shard record is complete, the second torn, the marker never written.
/// The orphaned shard record must carry no state — the restart recovers
/// from startup compaction's checkpoint and the round, finished after it,
/// finalizes bit-identically to the fault-free reference.
#[test]
fn a_torn_live_checkpoint_finalizes_bit_identically() {
    let reference = run_schedule("live-checkpoint-reference", &BTreeMap::new());
    let dir = crash_root().join("live-checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create schedule dir");
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let half = POPULATION as u64 / 2;

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("connect");
    client
        .open_round(
            ROUND,
            RoundChannel::DegreeVector {
                population: POPULATION,
                groups: GROUPS,
            },
            Some(4 * POPULATION as u64),
        )
        .expect("open");
    for user in 0..half {
        client
            .queue_degree_vector(user, &vector(user))
            .expect("queue");
    }
    client.sync().expect("barrier");
    // Measure a checkpoint of exactly the state the restart will compact.
    let before = newest_segment_records(&dir).len();
    client.checkpoint(ROUND).expect("measuring checkpoint");
    let checkpoint = newest_segment_records(&dir).split_off(before);
    let kinds: Vec<u8> = checkpoint.iter().map(|&(kind, _)| kind).collect();
    let mut expected = vec![journal::REC_SNAPSHOT; SHARDS];
    expected.push(journal::REC_CHECKPOINT);
    assert_eq!(
        kinds, expected,
        "a checkpoint is its shard records, then the marker"
    );
    let checkpoint_bytes: u64 = checkpoint.iter().map(|&(_, len)| len).sum();
    drop(client);
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");

    // Startup compaction writes `checkpoint_bytes`; the hook then fires
    // 7 bytes into the live checkpoint's second shard record.
    let threshold = checkpoint_bytes + checkpoint[0].1 + 7;
    let mut armed = spawn_daemon(&dir, port, Some(threshold));
    let mut client = CollectorClient::connect(addr.as_str()).expect("connect to the armed daemon");
    assert!(
        client.checkpoint(ROUND).is_err(),
        "the armed daemon must die inside the live checkpoint"
    );
    drop(client);
    let status = armed.wait().expect("reap the armed daemon");
    assert!(!status.success(), "the armed daemon must abort");

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("reconnect");
    let stats = client.stats().expect("scrape the restarted daemon");
    assert_eq!(counter(&stats, "recovered_rounds"), Some(1));
    finish_round(&mut client, ROUND, half, &reference);
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap the final daemon");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two open rounds, a SIGKILL, and a restart armed to die inside startup
/// compaction's *second* round — after the first round's checkpoint is
/// complete. The old segments must survive until every recovered round is
/// checkpointed again: the next restart recovers both rounds, and each
/// finalizes bit-identically to the fault-free reference.
#[test]
fn a_crash_inside_the_second_rounds_compaction_keeps_both_rounds() {
    let reference = run_schedule("two-round-compaction-reference", &BTreeMap::new());
    let dir = crash_root().join("two-round-compaction");
    let probe = crash_root().join("two-round-compaction-probe");
    for d in [&dir, &probe] {
        let _ = std::fs::remove_dir_all(d);
        std::fs::create_dir_all(d).expect("create schedule dir");
    }
    let port = free_port();
    let addr = format!("127.0.0.1:{port}");
    let rounds = [
        (ROUND, POPULATION as u64 / 2),
        (ROUND + 1, POPULATION as u64 / 4),
    ];

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("connect");
    for &(round, sent) in &rounds {
        client
            .open_round(
                round,
                RoundChannel::DegreeVector {
                    population: POPULATION,
                    groups: GROUPS,
                },
                Some(4 * POPULATION as u64),
            )
            .expect("open");
        for user in 0..sent {
            client
                .queue_degree_vector(user, &vector(user))
                .expect("queue");
        }
    }
    client.sync().expect("barrier");
    drop(client);
    daemon.kill().expect("SIGKILL");
    daemon.wait().expect("reap");

    // Learn where the first round's compaction ends by restarting a copy
    // of the directory: its new segment starts with that round's
    // checkpoint, ending at the first marker.
    for entry in std::fs::read_dir(&dir).expect("read data dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), probe.join(entry.file_name())).expect("copy segment");
    }
    let probe_port = free_port();
    let mut prober = spawn_daemon(&probe, probe_port, None);
    CollectorClient::connect(("127.0.0.1", probe_port))
        .expect("connect to the probe")
        .shutdown()
        .expect("shut the probe down");
    prober.wait().expect("reap the probe");
    let records = newest_segment_records(&probe);
    let first_marker = records
        .iter()
        .position(|&(kind, _)| kind == journal::REC_CHECKPOINT)
        .expect("compaction wrote a checkpoint marker");
    let first_round_bytes: u64 = records[..=first_marker].iter().map(|&(_, len)| len).sum();

    // 3 bytes into the second round's first record: no record is shorter.
    let status = run_until_abort(&dir, port, first_round_bytes + 3);
    assert!(
        !status.success(),
        "the armed daemon must abort in compaction"
    );

    let mut daemon = spawn_daemon(&dir, port, None);
    let mut client = CollectorClient::connect(addr.as_str()).expect("reconnect");
    let stats = client.stats().expect("scrape the restarted daemon");
    assert_eq!(
        counter(&stats, "recovered_rounds"),
        Some(2),
        "both open rounds must survive a crash mid-compaction"
    );
    for &(round, sent) in &rounds {
        finish_round(&mut client, round, sent, &reference);
    }
    client.shutdown().expect("shutdown");
    daemon.wait().expect("reap the final daemon");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&probe);
}
