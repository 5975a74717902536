//! Crash durability: the write-ahead report journal and its recovery.
//!
//! A daemon given a data directory ([`crate::CollectorServer::with_data_dir`])
//! journals every state-changing frame before anyone is told about it:
//! report batches are appended verbatim ahead of the fold, lifecycle
//! frames (`OPEN`, `CLOSE`, `FINALIZE`) ahead of their `ACK`/`SUMMARY`.
//! After a crash — power loss, SIGKILL, a torn write mid-record —
//! recovery rebuilds every open round bit-identically by restoring the
//! last checkpoint per round and replaying the journal tail on top,
//! running the records through the *same* frame-apply function the live
//! daemon uses, so rejects (duplicates, quota, malformed entries)
//! replay with the exact counter moves of the original run.
//!
//! ## Journal format
//!
//! The journal is a sequence of segment files `wal-<seq>.ldpw`, each a
//! 5-byte header ([`journal::SEGMENT_MAGIC`] + version) followed by
//! records framed by the wire codec ([`wire::write_frame`]): 4-byte
//! little-endian length, record kind byte, payload. Record kinds and
//! payloads are documented at [`ldp_protocols::wire::journal`]. Reusing
//! the frame codec buys the journal the codec's totality discipline for
//! free: every malformed byte sequence decodes to a typed error, never a
//! panic, and a record torn by a crash is detected by the same
//! end-of-stream logic that detects a half-written network frame.
//!
//! A **torn final record** — the crash hit mid-append — is treated as a
//! clean end of log: the record never reached the fold on the live path
//! either (the append happens first), so dropping it recovers the exact
//! pre-crash state. A torn record *followed by more segments*, or a bad
//! magic, is real corruption and refuses with a typed
//! [`CollectorError::BadJournal`] rather than guessing.
//!
//! ## Fsync policy
//!
//! [`FsyncPolicy`] sets the durability/throughput trade: `Always` syncs
//! every append (no crash loses anything), `EveryBytes(n)` syncs once
//! per `n` appended bytes and at segment rotation (power-cut loss is
//! bounded to the unsynced window), `Off` never syncs on the append path
//! at all. The distinction that matters is *which* crash: a process
//! crash (SIGKILL, abort, OOM-kill) loses nothing under any policy —
//! written bytes live in the OS page cache, which survives the process —
//! while a **power cut** can drop or reorder unsynced pages, so under
//! `Off` recovery after power loss is best-effort: it lands on a
//! consistent earlier state when the tail tore cleanly, and refuses with
//! [`CollectorError::BadJournal`] (clear the data dir to proceed) when
//! the surviving pages have holes. Checkpoints, `FINALIZE` records and
//! the directory entry of each new segment are synced under every policy
//! — they gate deletions, which are not take-backable (a power cut must
//! not keep a prune's unlinks yet lose the segment that superseded them).
//! The `collector_smoke` bench records the ingest tax of each policy in
//! `BENCH_collector.json`.
//!
//! ## Checkpoint coordination
//!
//! A checkpoint of round `R` is a run of ordinary journal records: one
//! `REC_SNAPSHOT` per shard, then the `REC_CHECKPOINT` marker carrying the
//! round head (encoded by [`RoundCollector::checkpoint`]), appended under
//! the journal guard with no policy sync and no rotation between them.
//! The shard records are synced, the marker is appended and synced — two
//! fsyncs whatever the policy and shard count — and only then are the
//! segments every round has checkpointed past deleted. Recovery restores
//! each round from its *last marker* and the shard records just before it,
//! then replays the records after the marker. A crash before the marker is
//! durable leaves shard records with no marker after them: they carry no
//! state, and the round recovers from its previous marker (or its whole
//! journal) as if the checkpoint never began. The data directory therefore
//! holds nothing but segments, and the one segment reader, framing and
//! torn-tail rule cover snapshots and reports alike. The reader keeps at
//! most one checkpoint per round in memory; on disk, a round that never
//! checkpoints keeps every later checkpoint (DESIGN.md §11).
//!
//! Startup compacts: every recovered round is checkpointed into the new
//! segment, and the old segments are deleted once all of them are — not
//! sooner, so a crash mid-compaction still finds every round — and also
//! when no round was recovered, so neither a torn tail nor the records of
//! finished rounds outlive a restart.

use crate::error::CollectorError;
use crate::metrics::CollectorMetrics;
use crate::round::RoundCollector;
use crate::server::{apply_frame, Session};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{self, frames, get_varint, journal, WireError};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// When the journal forces appended bytes to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: a crash loses nothing that
    /// was folded. The durable default; also the slowest.
    Always,
    /// `fsync` once per this many appended bytes: a crash loses at most
    /// one sync window of reports (recovery still lands on a consistent
    /// earlier state).
    EveryBytes(u64),
    /// Never `fsync` on the append path; the OS flushes at its leisure.
    /// Checkpoints, finalizes and each new segment's directory entry
    /// still sync.
    Off,
}

impl FsyncPolicy {
    /// Parses the operator spelling: `always`, `off`, or `every:<bytes>`
    /// (e.g. `every:1048576`).
    ///
    /// # Errors
    /// [`CollectorError::InvalidConfig`] on anything else.
    pub fn parse(s: &str) -> Result<Self, CollectorError> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "off" => Ok(FsyncPolicy::Off),
            _ => match s.strip_prefix("every:").map(str::parse::<u64>) {
                Some(Ok(n)) if n > 0 => Ok(FsyncPolicy::EveryBytes(n)),
                _ => Err(CollectorError::InvalidConfig {
                    detail: "fsync policy must be `always`, `off`, or `every:<bytes>`",
                }),
            },
        }
    }
}

/// Bytes a segment accumulates before the journal rotates to a new one.
pub const DEFAULT_SEGMENT_BYTES: u64 = 8 << 20;

/// What recovery rebuilt from a data directory.
#[derive(Debug)]
pub struct Recovery {
    /// Rounds open again after replay, ascending.
    pub rounds: Vec<u64>,
    /// Journal records re-applied. Checkpoint records, and the records a
    /// checkpoint supersedes, are skipped and not counted.
    pub replayed_records: u64,
}

/// The durable plane a data-dir daemon threads through its workers: one
/// journal behind a mutex. The mutex is the serialization point of the
/// durable path — an append and the engine mutation it covers happen
/// under one guard, so a checkpoint (which also takes the guard) can
/// never observe a fold whose record it does not cover.
#[derive(Debug)]
pub struct DurableLog {
    journal: Mutex<Journal>,
}

impl DurableLog {
    /// Opens the durable plane over `dir`: recovers every round the
    /// directory holds into `engine` (checkpoints first, then the journal
    /// tail), starts a fresh journal segment, re-checkpoints the recovered
    /// rounds into it so the next crash replays from here, and deletes the
    /// older segments.
    ///
    /// # Errors
    /// I/O failures, [`CollectorError::BadJournal`] /
    /// [`CollectorError::BadCheckpoint`] on corrupt state, and admission
    /// refusals if a recovered round no longer fits `engine`'s caps.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        engine: &RoundCollector,
    ) -> Result<(Self, Recovery), CollectorError> {
        let (mut journal, recovery) = Journal::recover(dir, policy, engine)?;
        // Crash-harness hook, armed *before* startup compaction so a
        // kill schedule can land inside recovery itself (the daemon
        // binary documents `LDP_WAL_KILL_AFTER_BYTES`; see
        // `tests/crash.rs`). The only place it is armed; unset outside
        // the harness.
        if let Some(bytes) = std::env::var("LDP_WAL_KILL_AFTER_BYTES")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            journal.kill_after = Some(bytes);
        }
        // Compact (see the module docs). `recover` pinned every recovered
        // round to the old segments, so only the last round's checkpoint
        // prunes; the prune after the loop covers the no-round case.
        for &round in &recovery.rounds {
            journal.checkpoint_round(engine, round, engine.metrics())?;
        }
        journal.prune();
        Ok((
            DurableLog {
                journal: Mutex::new(journal),
            },
            recovery,
        ))
    }

    /// Locks the journal for one durable operation (append + engine
    /// mutation under a single guard).
    pub fn lock(&self) -> MutexGuard<'_, Journal> {
        self.journal.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The append side of the write-ahead journal. Obtain one via
/// [`DurableLog`]; all methods assume the caller holds the log's guard.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    policy: FsyncPolicy,
    file: File,
    /// Sequence number of the segment currently appended to.
    seq: u64,
    segment_bytes: u64,
    unsynced_bytes: u64,
    rotate_bytes: u64,
    /// Per open round: the earliest segment still needed to recover it
    /// (its last checkpoint's segment, or its `REC_OPEN`'s). Segments
    /// below the minimum are superseded and prunable.
    live_since: BTreeMap<u64, u64>,
    /// Fault hook: abort the process mid-write once this many total
    /// bytes have been appended, leaving a torn record on disk — how the
    /// crash harness pins torn-tail recovery (see `tests/crash.rs`).
    /// Armed only by `LDP_WAL_KILL_AFTER_BYTES` in [`DurableLog::open`];
    /// unit tests set it directly, and there the write fails instead of
    /// aborting, as on a full disk.
    kill_after: Option<u64>,
    total_bytes: u64,
    frame_buf: Vec<u8>,
}

impl Journal {
    fn create(
        dir: &Path,
        policy: FsyncPolicy,
        seq: u64,
        metrics: &CollectorMetrics,
    ) -> Result<Self, CollectorError> {
        let file = create_segment(dir, seq, metrics)?;
        Ok(Journal {
            dir: dir.to_path_buf(),
            policy,
            file,
            seq,
            segment_bytes: 5,
            unsynced_bytes: 0,
            rotate_bytes: DEFAULT_SEGMENT_BYTES,
            live_since: BTreeMap::new(),
            kill_after: None,
            total_bytes: 0,
            frame_buf: Vec::new(),
        })
    }

    /// Reads `dir`'s segments, replays them into `engine`, and opens a
    /// fresh segment after them. Every recovered round is pinned to the
    /// old segments: nothing is pruned until each has been checkpointed
    /// again.
    fn recover(
        dir: &Path,
        policy: FsyncPolicy,
        engine: &RoundCollector,
    ) -> Result<(Self, Recovery), CollectorError> {
        std::fs::create_dir_all(dir)?;
        let (records, last_seq) = read_segments(dir)?;
        let per_round = apply_records(engine, &records)?;
        let recovery = Recovery {
            rounds: engine.open_round_ids(),
            replayed_records: per_round.values().sum(),
        };
        let metrics = engine.metrics();
        if metrics.active() {
            metrics.recovered_rounds.add(recovery.rounds.len() as u64);
            metrics.wal_replayed_frames.add(recovery.replayed_records);
            for &round in &recovery.rounds {
                metrics.emit(TraceEvent::RoundRecovered {
                    round,
                    replayed: per_round.get(&round).copied().unwrap_or(0),
                });
            }
            metrics.emit(TraceEvent::RecoveryComplete {
                rounds: recovery.rounds.len() as u64,
                replayed: recovery.replayed_records,
            });
        }
        let mut journal = Journal::create(dir, policy, last_seq + 1, metrics)?;
        journal.live_since = recovery.rounds.iter().map(|&r| (r, 0)).collect();
        Ok((journal, recovery))
    }

    /// Appends one record (frame-coded) and applies the fsync policy.
    /// Report payloads are appended **verbatim and before decoding**, so
    /// replay re-derives every accept *and* reject decision from the
    /// same bytes the live path saw.
    ///
    /// # Errors
    /// Disk I/O failures; the record is not durable and the caller must
    /// not act on the frame.
    pub fn append(
        &mut self,
        kind: u8,
        payload: &[u8],
        metrics: &CollectorMetrics,
    ) -> Result<(), CollectorError> {
        self.write_record(kind, payload, metrics)?;
        if let Ok(round) = get_varint(&mut &payload[..]) {
            if kind == journal::REC_FINALIZE {
                self.live_since.remove(&round);
            } else {
                self.live_since.entry(round).or_insert(self.seq);
            }
        }
        match self.policy {
            FsyncPolicy::Always => self.sync(metrics)?,
            FsyncPolicy::EveryBytes(window) => {
                if self.unsynced_bytes >= window {
                    self.sync(metrics)?;
                }
            }
            FsyncPolicy::Off => {}
        }
        if self.segment_bytes >= self.rotate_bytes {
            self.rotate(metrics)?;
        }
        Ok(())
    }

    /// Frames and writes one record — no fsync, no rotation, no round
    /// tracking. The torn-write hook fires here, so it covers every
    /// record kind.
    fn write_record(
        &mut self,
        kind: u8,
        payload: &[u8],
        metrics: &CollectorMetrics,
    ) -> Result<(), CollectorError> {
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        wire::write_frame(&mut buf, kind, payload)?;
        let n = buf.len() as u64;
        let write = match self
            .kill_after
            .filter(|&limit| self.total_bytes + n > limit)
        {
            // Torn-write fault injection: persist a strict prefix of the
            // record, then die as abruptly as a power cut.
            Some(limit) => {
                let cut = limit.saturating_sub(self.total_bytes) as usize;
                let torn = self.file.write_all(&buf[..cut.min(buf.len())]);
                if !cfg!(test) {
                    let _ = self.file.sync_data();
                    std::process::abort();
                }
                torn.and(Err(std::io::Error::other("injected write failure")))
            }
            None => self.file.write_all(&buf),
        };
        self.frame_buf = buf;
        if let Err(e) = write {
            // A prefix of the record may have landed: cut it off, so the
            // next record follows a whole one, never a tear.
            self.truncate(self.segment_bytes)?;
            return Err(e.into());
        }
        self.total_bytes += n;
        self.segment_bytes += n;
        self.unsynced_bytes += n;
        if metrics.active() {
            metrics.wal_appended_bytes.add(n);
        }
        Ok(())
    }

    /// Forces appended bytes to stable storage (timed into
    /// `wal_fsync_nanos`).
    ///
    /// # Errors
    /// Disk I/O failures.
    pub fn sync(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        if self.unsynced_bytes == 0 {
            return Ok(());
        }
        timed_fsync(metrics, || self.file.sync_data())?;
        self.unsynced_bytes = 0;
        Ok(())
    }

    /// Cuts the current segment back to its first `len` bytes and resumes
    /// appending there.
    fn truncate(&mut self, len: u64) -> Result<(), CollectorError> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        self.segment_bytes = len;
        Ok(())
    }

    /// Closes the current segment and opens the next. Policies that sync
    /// at all sync here regardless of their window, so a finished
    /// segment is durable before the next one takes records and a
    /// power-cut torn tail stays confined to the *last* segment.
    /// [`FsyncPolicy::Off`] skips even this (rotation fsyncs were its
    /// dominant ingest tax): process crashes still lose nothing — the
    /// page cache survives SIGKILL — and its power-cut contract is
    /// already best-effort (see the module docs).
    fn rotate(&mut self, metrics: &CollectorMetrics) -> Result<(), CollectorError> {
        if self.policy != FsyncPolicy::Off {
            self.unsynced_bytes = self.segment_bytes; // force the sync
            self.sync(metrics)?;
        }
        self.seq += 1;
        self.file = create_segment(&self.dir, self.seq, metrics)?;
        self.segment_bytes = 5;
        Ok(())
    }

    /// Checkpoints `round_id` into the journal and supersedes its journal
    /// prefix: the round's shard records, a sync, the marker, a sync, then
    /// the prune of every segment no round needs any more (see the module
    /// docs). Two fsyncs, whatever the policy and shard count. A failed
    /// checkpoint is cut off the segment again: the journal is left as it
    /// was found, and later appends continue it.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id; disk
    /// I/O failures.
    pub fn checkpoint_round(
        &mut self,
        engine: &RoundCollector,
        round_id: u64,
        metrics: &CollectorMetrics,
    ) -> Result<(), CollectorError> {
        let (since, start) = (self.seq, self.segment_bytes);
        // The shard records must be durable before the marker that makes
        // them the round's state, and the marker before anything it
        // supersedes is deleted — whatever the append-path policy.
        let written = engine
            .checkpoint(round_id, |shard| {
                self.write_record(journal::REC_SNAPSHOT, shard, metrics)
            })
            .and_then(|marker| {
                self.sync(metrics)?;
                self.write_record(journal::REC_CHECKPOINT, &marker, metrics)?;
                self.sync(metrics)
            });
        // A shard record can be tens of megabytes; keep no buffer that size.
        self.frame_buf = Vec::new();
        if let Err(e) = written {
            self.truncate(start)?;
            return Err(e);
        }
        self.live_since.insert(round_id, since);
        self.prune();
        Ok(())
    }

    /// Deletes segments wholly superseded by checkpoints (every round's
    /// `live_since` is past them). Best-effort: a failed unlink costs
    /// disk, never correctness.
    fn prune(&mut self) {
        let min_live = self
            .live_since
            .values()
            .min()
            .copied()
            .unwrap_or(self.seq)
            .min(self.seq);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            if let Some(seq) = segment_seq(&name.to_string_lossy()) {
                if seq < min_live {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
    }
}

/// Creates segment `seq`, then syncs the directory so the segment's name
/// is durable before it takes a record (see the module docs).
fn create_segment(
    dir: &Path,
    seq: u64,
    metrics: &CollectorMetrics,
) -> Result<File, CollectorError> {
    let mut file = File::create(dir.join(format!("wal-{seq:016x}.ldpw")))?;
    file.write_all(&journal::SEGMENT_MAGIC)?;
    file.write_all(&[journal::SEGMENT_VERSION])?;
    timed_fsync(metrics, || File::open(dir)?.sync_all())?;
    Ok(file)
}

/// One fsync barrier, timed into `wal_fsync_nanos`.
fn timed_fsync(
    metrics: &CollectorMetrics,
    fsync: impl FnOnce() -> std::io::Result<()>,
) -> Result<(), CollectorError> {
    let begin = metrics.active().then(Instant::now);
    fsync()?;
    if let Some(begin) = begin {
        metrics
            .wal_fsync_nanos
            .observe(begin.elapsed().as_nanos() as u64);
    }
    Ok(())
}

fn segment_seq(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".ldpw")?;
    u64::from_str_radix(hex, 16).ok()
}

/// One journal record as read back from disk.
struct Rec {
    kind: u8,
    payload: Vec<u8>,
}

/// Reads every segment in order into records, tolerating a torn tail on
/// the **last** segment only — and cutting it off there. Returns the
/// records and the highest segment sequence seen (`0` for an empty
/// directory). Shard records that can never be restored — a round's
/// superseded checkpoints, and runs no marker follows — keep their kind
/// but drop their payload as soon as that is known, so recovery holds at
/// most one checkpoint per round in memory.
fn read_segments(dir: &Path) -> Result<(Vec<Rec>, u64), CollectorError> {
    let mut segments: Vec<(u64, PathBuf)> = Vec::new();
    for entry in std::fs::read_dir(dir)?.flatten() {
        let name = entry.file_name();
        if let Some(seq) = segment_seq(&name.to_string_lossy()) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    let last_seq = segments.last().map(|(seq, _)| *seq).unwrap_or(0);
    let mut records: Vec<Rec> = Vec::new();
    // Per round, the index range of the shard records its latest marker
    // restores from.
    let mut restorable: BTreeMap<u64, Range<usize>> = BTreeMap::new();
    let total = segments.len();
    for (i, (_, path)) in segments.into_iter().enumerate() {
        let is_last = i + 1 == total;
        let bytes = std::fs::read(&path)?;
        if bytes.len() < 5 {
            // A header torn mid-creation: only tolerable at the very end
            // of the log, where the segment holds nothing.
            if is_last {
                std::fs::remove_file(&path)?;
                continue;
            }
            return Err(CollectorError::BadJournal {
                detail: "torn segment header followed by more segments",
            });
        }
        if bytes[..4] != journal::SEGMENT_MAGIC {
            return Err(CollectorError::BadJournal {
                detail: "bad segment magic",
            });
        }
        if bytes[4] != journal::SEGMENT_VERSION {
            return Err(CollectorError::BadJournal {
                detail: "unsupported segment version",
            });
        }
        let mut cursor = &bytes[5..];
        let mut payload = Vec::new();
        loop {
            let intact = bytes.len() - cursor.len();
            match wire::read_frame(&mut cursor, &mut payload) {
                Ok(None) => break,
                Ok(Some(kind)) => {
                    if !matches!(
                        kind,
                        journal::REC_OPEN
                            | journal::REC_BATCH
                            | journal::REC_CLOSE
                            | journal::REC_FINALIZE
                            | journal::REC_CHECKPOINT
                            | journal::REC_SNAPSHOT
                    ) {
                        return Err(CollectorError::BadJournal {
                            detail: "unknown record kind",
                        });
                    }
                    let run_end = records.len();
                    let run_start = run_end
                        - records
                            .iter()
                            .rev()
                            .take_while(|rec| rec.kind == journal::REC_SNAPSHOT)
                            .count();
                    let dead = match kind {
                        journal::REC_SNAPSHOT => None,
                        journal::REC_CHECKPOINT => get_varint(&mut payload.as_slice())
                            .ok()
                            .and_then(|round| restorable.insert(round, run_start..run_end)),
                        _ => Some(run_start..run_end),
                    };
                    for rec in &mut records[dead.unwrap_or_default()] {
                        rec.payload = Vec::new();
                    }
                    records.push(Rec {
                        kind,
                        payload: std::mem::take(&mut payload),
                    });
                }
                Err(WireError::Io(std::io::ErrorKind::UnexpectedEof)) => {
                    // A record torn by the crash. Fine at the end of the
                    // log (the append never completed, so nothing acted
                    // on it), where it is cut off: a startup that dies
                    // before its prune must not leave the tear in front
                    // of a newer segment. Anywhere else it is corruption.
                    if is_last {
                        let file = std::fs::OpenOptions::new().write(true).open(&path)?;
                        file.set_len(intact as u64)?;
                        file.sync_data()?;
                        break;
                    }
                    return Err(CollectorError::BadJournal {
                        detail: "torn record followed by more segments",
                    });
                }
                Err(_) => {
                    return Err(CollectorError::BadJournal {
                        detail: "malformed record framing",
                    });
                }
            }
        }
    }
    Ok((records, last_seq))
}

/// Replays `records` into `engine`: per round, the last `REC_CHECKPOINT`
/// marker and the shard records just before it restore the round, and
/// every earlier record is skipped; records after it re-run through
/// [`apply_frame`]. A round finalized after its last marker restores
/// nothing and skips everything up to that `REC_FINALIZE`; later records —
/// a reopened round with the same id included — replay as usual. Shard
/// records with no marker after them carry no state. Returns per-round
/// applied-record counts (checkpoint records not included).
fn apply_records(
    engine: &RoundCollector,
    records: &[Rec],
) -> Result<BTreeMap<u64, u64>, CollectorError> {
    // Pass 1: per round, the record replay starts after — its last
    // marker (`true`: restore from it), or a finalize that came after that
    // marker (the round's journaled state ends there).
    let mut replay_after: BTreeMap<u64, (usize, bool)> = BTreeMap::new();
    for (i, rec) in records.iter().enumerate() {
        if rec.kind == journal::REC_CHECKPOINT {
            let round = get_varint(&mut rec.payload.as_slice()).map_err(|_| {
                CollectorError::BadJournal {
                    detail: "malformed checkpoint marker",
                }
            })?;
            replay_after.insert(round, (i, true));
        } else if rec.kind == journal::REC_FINALIZE {
            if let Ok(round) = get_varint(&mut rec.payload.as_slice()) {
                if let Some(start) = replay_after.get_mut(&round) {
                    *start = (i, false);
                }
            }
        }
    }
    // Restore each marked round — its state at the marker. The shard
    // records of a checkpoint run contiguously up to its marker; the run
    // may start with the orphans of an interrupted earlier checkpoint,
    // which `restore` skips.
    for &(marker, restore) in replay_after.values() {
        if !restore {
            continue;
        }
        let (before, marker) = (&records[..marker], &records[marker].payload);
        let run = before
            .iter()
            .rev()
            .take_while(|rec| rec.kind == journal::REC_SNAPSHOT)
            .count();
        let shards: Vec<&[u8]> = before[before.len() - run..]
            .iter()
            .map(|rec| rec.payload.as_slice())
            .collect();
        engine.restore(marker, &shards)?;
    }
    // Pass 2: apply everything after each round's marker, in order,
    // through the live daemon's own frame-apply function — identical
    // accept/reject decisions, identical counter moves.
    let mut applied: BTreeMap<u64, u64> = BTreeMap::new();
    let mut session = Session::default();
    for (i, rec) in records.iter().enumerate() {
        let Ok(round) = get_varint(&mut rec.payload.as_slice()) else {
            // The live path could not even attribute this payload to a
            // round; it changed nothing then and changes nothing now.
            continue;
        };
        if let Some(&(start, _)) = replay_after.get(&round) {
            if i <= start {
                continue;
            }
        }
        let kind = match rec.kind {
            journal::REC_OPEN => frames::OPEN,
            journal::REC_BATCH => frames::REPORT_BATCH,
            journal::REC_CLOSE => frames::CLOSE,
            journal::REC_FINALIZE => frames::FINALIZE,
            // Superseded checkpoints, and shard records no marker
            // follows, carry no state (`read_segments` admits no other
            // kind).
            _ => continue,
        };
        let result = apply_frame(engine, None, &mut session, kind, &rec.payload);
        session.out.clear();
        // An OPEN the live daemon acknowledged must replay; CLOSE and
        // FINALIZE were journaled only after they succeeded, so a replay
        // refusal means the state already reflects them. A batch without
        // a journal never fails.
        if kind == frames::OPEN {
            result?;
        }
        *applied.entry(round).or_insert(0) += 1;
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{CollectorConfig, RoundOutcome};
    use crate::server::decode_open;
    use ldp_protocols::wire::put_varint;
    use ldp_protocols::UserReport;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ldp-wal-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn config() -> CollectorConfig {
        CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        }
    }

    fn engine() -> RoundCollector {
        RoundCollector::new(config()).expect("engine")
    }

    /// Journals an OPEN + a batch of degree vectors for users `0..upto`
    /// the way the durable server path does.
    fn journal_round(
        journal: &mut Journal,
        eng: &RoundCollector,
        round: u64,
        n: usize,
        upto: usize,
    ) {
        let metrics = eng.metrics();
        let mut open = Vec::new();
        put_varint(round, &mut open);
        put_varint(0, &mut open); // tenant
        open.push(1); // degree-vector tag
        put_varint(n as u64, &mut open);
        put_varint(2, &mut open); // groups
        put_varint(0, &mut open); // quota default
        let (tenant, id, channel, quota) = decode_open(&open).expect("open payload");
        eng.open_round_as(tenant, id, channel, quota).expect("open");
        journal
            .append(journal::REC_OPEN, &open, metrics)
            .expect("journal open");
        journal_batch(journal, eng, round, 0, upto as u64);
    }

    #[test]
    fn fsync_policy_parses_the_operator_spellings() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("off").unwrap(), FsyncPolicy::Off);
        assert_eq!(
            FsyncPolicy::parse("every:4096").unwrap(),
            FsyncPolicy::EveryBytes(4096)
        );
        for bad in ["", "sometimes", "every:", "every:0", "every:x"] {
            assert!(matches!(
                FsyncPolicy::parse(bad),
                Err(CollectorError::InvalidConfig { .. })
            ));
        }
    }

    #[test]
    fn replay_rebuilds_the_round_bit_identically() {
        let dir = scratch_dir("replay");
        let n = 24;
        {
            let eng = engine();
            let (log, recovery) =
                DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("fresh open");
            assert!(recovery.rounds.is_empty());
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 7, n, 15);
            // No clean shutdown: the journal is simply dropped, as a
            // SIGKILL would leave it.
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![7]);
        assert!(recovery.replayed_records >= 2);
        // Finish the round and compare with an uninterrupted run.
        for u in 15..n as u64 {
            eng.ingest_ref(7, u, &UserReport::DegreeVector(vec![1.0, u as f64]))
                .expect("resume ingest");
        }
        let counters = eng.close_round(7).expect("close");
        assert_eq!(counters.accepted, n as u64);
        let RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        } = eng.finalize(7).expect("finalize")
        else {
            panic!("degree-vector outcome expected");
        };
        assert_eq!(accepted, n as u64);
        let expected: f64 = (0..n as u64).map(|u| u as f64).sum();
        assert_eq!(group_totals, vec![n as f64, expected]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_marker_supersedes_the_prefix_and_prunes() {
        let dir = scratch_dir("supersede");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            journal.rotate_bytes = 64; // force rotation every few records
            journal_round(&mut journal, &eng, 3, 16, 10);
            journal
                .checkpoint_round(&eng, 3, eng.metrics())
                .expect("checkpoint");
            // Everything before the marker now lives in the snapshot;
            // earlier segments are gone.
            let segments: Vec<u64> = std::fs::read_dir(&dir)
                .expect("read dir")
                .flatten()
                .filter_map(|e| segment_seq(&e.file_name().to_string_lossy()))
                .collect();
            assert!(
                segments.iter().all(|&s| s >= journal.seq),
                "superseded segments survived prune: {segments:?}"
            );
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![3]);
        // The replay skipped the superseded records: state comes from
        // the snapshot alone.
        assert_eq!(recovery.replayed_records, 0);
        let counters = eng.counters(3).expect("counters");
        assert_eq!(counters.accepted, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalize_after_marker_skips_the_round_but_replays_its_reopening() {
        let dir = scratch_dir("finalize-reopen");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            let mut journal = log.lock();
            let metrics = eng.metrics();
            journal_round(&mut journal, &eng, 5, 8, 8);
            journal
                .checkpoint_round(&eng, 5, metrics)
                .expect("checkpoint");
            let mut id = Vec::new();
            put_varint(5, &mut id);
            eng.close_round(5).expect("close");
            journal
                .append(journal::REC_CLOSE, &id, metrics)
                .expect("journal close");
            eng.finalize(5).expect("finalize");
            journal
                .append(journal::REC_FINALIZE, &id, metrics)
                .expect("journal finalize");
            // The same id opened again, partly filled, never finalized.
            journal_round(&mut journal, &eng, 5, 8, 3);
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![5]);
        // Only the reopened round's OPEN and batch replay.
        assert_eq!(recovery.replayed_records, 2);
        assert_eq!(eng.counters(5).expect("counters").accepted, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_a_clean_end_but_torn_middle_refuses() {
        let dir = scratch_dir("torn");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            journal_round(&mut log.lock(), &eng, 9, 16, 12);
        }
        // Tear the (single) segment's tail: recovery lands on the state
        // the surviving prefix proves, whatever the cut point.
        let seg = std::fs::read_dir(&dir)
            .expect("read dir")
            .flatten()
            .find(|e| segment_seq(&e.file_name().to_string_lossy()).is_some())
            .expect("segment")
            .path();
        let intact = std::fs::read(&seg).expect("read segment");
        std::fs::write(&seg, &intact[..intact.len() - 7]).expect("tear");
        let eng = engine();
        let (_, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("torn recover");
        assert_eq!(recovery.rounds, vec![9]);
        // A torn record *followed by another segment* is corruption.
        let dir2 = scratch_dir("torn-mid");
        std::fs::write(
            dir2.join("wal-0000000000000001.ldpw"),
            &intact[..intact.len() - 7],
        )
        .expect("write torn");
        std::fs::write(dir2.join("wal-0000000000000002.ldpw"), &intact).expect("write next");
        let eng2 = engine();
        assert!(matches!(
            DurableLog::open(&dir2, FsyncPolicy::Off, &eng2),
            Err(CollectorError::BadJournal { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn a_retired_singleton_report_record_is_a_typed_refusal() {
        // Kind 0x02 held singleton `REPORT` payloads before wire v3; a
        // journal still carrying one is refused, not half-replayed.
        let dir = scratch_dir("retired-report");
        let mut segment = journal::SEGMENT_MAGIC.to_vec();
        segment.push(journal::SEGMENT_VERSION);
        let mut payload = Vec::new();
        put_varint(1, &mut payload);
        wire::encode_report(0, &UserReport::DegreeVector(vec![1.0]), &mut payload);
        wire::write_frame(&mut segment, 0x02, &payload).expect("frame");
        std::fs::write(dir.join("wal-0000000000000001.ldpw"), &segment).expect("segment");
        let eng = engine();
        assert!(matches!(
            DurableLog::open(&dir, FsyncPolicy::Off, &eng),
            Err(CollectorError::BadJournal {
                detail: "unknown record kind"
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_records_without_their_marker_are_inert() {
        // Crash window: a second checkpoint's shard records written, its
        // marker never. Recovery must restore the last *marked* one.
        let dir = scratch_dir("orphan");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            let mut journal = log.lock();
            let metrics = eng.metrics();
            journal_round(&mut journal, &eng, 4, 16, 6);
            journal
                .checkpoint_round(&eng, 4, metrics)
                .expect("checkpoint");
            // The torn second checkpoint: shard records holding *more*
            // state, and no marker after them.
            for u in 6..9u64 {
                eng.ingest_ref(4, u, &UserReport::DegreeVector(vec![1.0, u as f64]))
                    .expect("ingest");
            }
            eng.checkpoint(4, |shard| {
                journal.write_record(journal::REC_SNAPSHOT, shard, metrics)
            })
            .expect("shard records");
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![4]);
        assert_eq!(recovery.replayed_records, 0);
        // State is the *marked* checkpoint: 6 accepted, not the orphan's 9.
        assert_eq!(eng.counters(4).expect("counters").accepted, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_crash_mid_compaction_keeps_every_recovered_round() {
        let dir = scratch_dir("compaction-crash");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 1, 8, 3);
            journal_round(&mut journal, &eng, 2, 8, 5);
        }
        {
            // Startup up to the first round's compaction, then the crash.
            let eng = engine();
            let (mut journal, recovery) =
                Journal::recover(&dir, FsyncPolicy::Always, &eng).expect("recover");
            assert_eq!(recovery.rounds, vec![1, 2]);
            journal
                .checkpoint_round(&eng, 1, eng.metrics())
                .expect("compact round 1");
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("reopen");
        assert_eq!(recovery.rounds, vec![1, 2]);
        assert_eq!(eng.counters(1).expect("round 1").accepted, 3);
        assert_eq!(eng.counters(2).expect("round 2").accepted, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_tail_with_no_open_round_survives_two_restarts() {
        // A segment holding only a torn `REC_OPEN`: the first restart
        // recovers nothing and must still prune it, or the second finds
        // a torn record followed by more segments.
        let dir = scratch_dir("torn-no-round");
        let mut open = Vec::new();
        put_varint(1, &mut open);
        put_varint(0, &mut open);
        open.push(1);
        put_varint(8, &mut open);
        put_varint(2, &mut open);
        put_varint(0, &mut open);
        let mut segment = journal::SEGMENT_MAGIC.to_vec();
        segment.push(journal::SEGMENT_VERSION);
        wire::write_frame(&mut segment, journal::REC_OPEN, &open).expect("frame");
        segment.pop();
        std::fs::write(dir.join("wal-0000000000000001.ldpw"), &segment).expect("segment");
        for restart in 0..2 {
            let eng = engine();
            let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng)
                .unwrap_or_else(|e| panic!("restart {restart}: {e}"));
            assert!(recovery.rounds.is_empty());
            let segments = std::fs::read_dir(&dir).expect("read dir").count();
            assert_eq!(segments, 1, "restart {restart} left old segments behind");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn repeated_crashes_inside_startup_compaction_stay_recoverable() {
        let dir = scratch_dir("repeated-compaction-crash");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("open");
            journal_round(&mut log.lock(), &eng, 1, 8, 3);
        }
        for _ in 0..2 {
            // A startup that dies inside compaction: its new segment ends
            // in a torn record (length 9 claimed, 2 bytes present).
            let eng = engine();
            let (mut journal, _) =
                Journal::recover(&dir, FsyncPolicy::Always, &eng).expect("recover");
            journal
                .file
                .write_all(&[9, 0, 0, 0, journal::REC_SNAPSHOT, 1])
                .expect("torn record");
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Always, &eng).expect("reopen");
        assert_eq!(recovery.rounds, vec![1]);
        assert_eq!(eng.counters(1).expect("round 1").accepted, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_checkpoint_costs_at_most_two_fsyncs() {
        for shards in [1, 8] {
            for policy in [
                FsyncPolicy::Always,
                FsyncPolicy::EveryBytes(1),
                FsyncPolicy::EveryBytes(1 << 30),
                FsyncPolicy::Off,
            ] {
                let dir = scratch_dir("fsyncs");
                let eng =
                    RoundCollector::new(CollectorConfig { shards, ..config() }).expect("engine");
                let (log, _) = DurableLog::open(&dir, policy, &eng).expect("open");
                let mut journal = log.lock();
                journal_round(&mut journal, &eng, 6, 64, 40);
                let before = eng.metrics().wal_fsync_nanos.count();
                journal
                    .checkpoint_round(&eng, 6, eng.metrics())
                    .expect("checkpoint");
                let fsyncs = eng.metrics().wal_fsync_nanos.count() - before;
                assert!(
                    (1..=2).contains(&fsyncs),
                    "{shards} shards under {policy:?}: {fsyncs} fsyncs"
                );
                drop(journal);
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    /// Journals a batch of degree vectors for users `from..to` of an open
    /// round and folds it.
    fn journal_batch(journal: &mut Journal, eng: &RoundCollector, round: u64, from: u64, to: u64) {
        let entries: Vec<(u64, UserReport)> = (from..to)
            .map(|u| (u, UserReport::DegreeVector(vec![1.0, u as f64])))
            .collect();
        let mut batch = Vec::new();
        wire::encode_routed_batch(round, &entries, &mut batch);
        journal
            .append(journal::REC_BATCH, &batch, eng.metrics())
            .expect("journal batch");
        for (u, report) in &entries {
            eng.ingest_ref(round, *u, report).expect("ingest");
        }
    }

    #[test]
    fn a_failed_checkpoint_is_cut_off_and_the_journal_goes_on() {
        let dir = scratch_dir("failed-checkpoint");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            let metrics = eng.metrics();
            journal_round(&mut journal, &eng, 4, 16, 6);
            let segment = dir.join(format!("wal-{:016x}.ldpw", journal.seq));
            let before = std::fs::metadata(&segment).expect("segment").len();
            // Fail the write 3 bytes into the second shard record: the
            // first lands whole, the second torn, as a full disk would.
            let mut first = None;
            eng.checkpoint(4, |shard| {
                first.get_or_insert(shard.len());
                Ok(())
            })
            .expect("measure");
            let first_frame = 5 + first.expect("a shard record") as u64;
            journal.kill_after = Some(journal.total_bytes + first_frame + 3);
            assert!(journal.checkpoint_round(&eng, 4, metrics).is_err());
            assert_eq!(std::fs::metadata(&segment).expect("segment").len(), before);
            assert_eq!(journal.frame_buf.capacity(), 0);
            // The daemon keeps serving: later records follow whole ones.
            journal.kill_after = None;
            journal_batch(&mut journal, &eng, 4, 6, 9);
        }
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![4]);
        assert_eq!(recovery.replayed_records, 3);
        assert_eq!(eng.counters(4).expect("counters").accepted, 9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_holds_one_checkpoint_per_round() {
        // Round 2 stays open and never checkpoints, pinning every segment,
        // while round 1 checkpoints again and again: all those shard
        // records stay on disk, but only round 1's last run is restorable.
        let dir = scratch_dir("one-checkpoint-per-round");
        {
            let eng = engine();
            let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
            let mut journal = log.lock();
            journal_round(&mut journal, &eng, 2, 16, 5);
            journal_round(&mut journal, &eng, 1, 16, 2);
            for upto in [4, 6, 8] {
                journal
                    .checkpoint_round(&eng, 1, eng.metrics())
                    .expect("checkpoint");
                journal_batch(&mut journal, &eng, 1, upto - 2, upto);
            }
            // An orphaned run, as a crash before the marker leaves it.
            eng.checkpoint(1, |shard| {
                journal.write_record(journal::REC_SNAPSHOT, shard, eng.metrics())
            })
            .expect("orphan run");
            journal_batch(&mut journal, &eng, 2, 5, 7);
        }
        let (records, _) = read_segments(&dir).expect("read");
        let snapshots = |dropped: bool| {
            records
                .iter()
                .filter(|rec| rec.kind == journal::REC_SNAPSHOT)
                .filter(|rec| rec.payload.is_empty() == dropped)
                .count()
        };
        assert_eq!(snapshots(false), config().shards);
        assert_eq!(snapshots(true), 3 * config().shards);
        let eng = engine();
        let (_log, recovery) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("recover");
        assert_eq!(recovery.rounds, vec![1, 2]);
        assert_eq!(eng.counters(1).expect("round 1").accepted, 8);
        assert_eq!(eng.counters(2).expect("round 2").accepted, 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_new_segment_syncs_its_directory() {
        // Under `off` the append path never syncs file data, so every
        // fsync observed while records rotate through small segments is
        // a new segment's directory sync.
        let dir = scratch_dir("dir-sync");
        let eng = engine();
        let (log, _) = DurableLog::open(&dir, FsyncPolicy::Off, &eng).expect("open");
        assert_eq!(eng.metrics().wal_fsync_nanos.count(), 1);
        let mut journal = log.lock();
        journal.rotate_bytes = 64;
        let first = journal.seq;
        journal_round(&mut journal, &eng, 3, 16, 10);
        journal_batch(&mut journal, &eng, 3, 10, 16);
        assert!(journal.seq > first + 1);
        assert_eq!(
            eng.metrics().wal_fsync_nanos.count(),
            1 + journal.seq - first
        );
        drop(journal);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_version_1_segment_is_a_typed_refusal() {
        let dir = scratch_dir("v1");
        let mut segment = journal::SEGMENT_MAGIC.to_vec();
        segment.push(1);
        std::fs::write(dir.join("wal-0000000000000001.ldpw"), &segment).expect("segment");
        let eng = engine();
        assert!(matches!(
            DurableLog::open(&dir, FsyncPolicy::Off, &eng),
            Err(CollectorError::BadJournal {
                detail: "unsupported segment version"
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
