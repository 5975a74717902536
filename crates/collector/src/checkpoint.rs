//! Checkpoint/resume: snapshotting an in-flight round to disk.
//!
//! A round at a million users is minutes of intake; a collector restart
//! must not cost the epoch. [`RoundCollector::checkpoint`] writes one
//! named round's complete state — lifecycle metadata, owning tenant,
//! counters, and every shard's seen-bitmap, degrees/sums, and packed
//! rows — to a writer; [`RoundCollector::resume`] reconstructs a
//! collector mid-round from it. Under the concurrent ingest plane,
//! checkpointing takes that round's *slot write* lock: every in-flight
//! ingest of the round (each holds the slot read lock for the duration
//! of one fold) drains first, so the snapshot always sits on a frame
//! boundary — a report is either fully folded into it or not in it at
//! all, never half-written. Other rounds in the registry keep ingesting,
//! untouched. Resumed intake continues exactly where it stopped: the
//! same duplicate set, the same quota charge, and a finalize
//! bit-identical to an uninterrupted run (pinned by the tests below and
//! by `tests/concurrent.rs` with sessions racing the snapshot).
//!
//! The format reuses the wire codec's primitives (varints, `f64`/`u64`
//! bit patterns) under its own magic `LDPK`, so a checkpoint is as
//! versioned and as type-checked on load as a network frame: every
//! malformed or geometry-mismatched file is a typed
//! [`CollectorError::BadCheckpoint`]. Only the current
//! [`CHECKPOINT_VERSION`] is read: older files (v1 had no owning tenant,
//! v2 no `rejected_malformed` counter) are refused with the same typed
//! error rather than guessed at.

use crate::error::CollectorError;
use crate::round::{write_lock, CollectorConfig, RoundChannel, RoundCollector, Store};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{get_f64, get_u64, get_varint, put_f64, put_u64, put_varint, WireError};
use std::io::{Read, Write};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Magic bytes opening a checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LDPK";

/// Checkpoint format version (3: the `rejected_malformed` counter
/// follows `rejected_invalid`; 2 added the owning tenant). The only
/// version [`RoundCollector::resume`] accepts.
pub const CHECKPOINT_VERSION: u8 = 3;

const CHANNEL_ADJACENCY: u8 = 0;
const CHANNEL_DEGREE_VECTOR: u8 = 1;

/// One shard's checkpointable pieces: `(accepted, duplicates, seen words,
/// degrees-or-sums, packed row words)`.
type ShardSnapshot<'a> = (u64, u64, &'a [u64], &'a [f64], &'a [u64]);

impl RoundCollector {
    /// Snapshots the named round to `w`. Quiesces that round's concurrent
    /// sessions at a frame boundary first (see the module docs); every
    /// other round keeps ingesting.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id; I/O
    /// errors from the writer.
    pub fn checkpoint(&self, round_id: u64, w: &mut impl Write) -> Result<(), CollectorError> {
        let checkpoint_begin = self.metrics().active().then(Instant::now);
        self.metrics()
            .emit(TraceEvent::QuiesceBegin { round: round_id });
        let slot = self.slot(round_id)?;
        let mut guard = write_lock(&slot.inner);
        let round = guard
            .as_mut()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        put_varint(round.round_id, &mut buf);
        put_varint(slot.tenant, &mut buf);
        match round.channel {
            RoundChannel::Adjacency { population, p_keep } => {
                buf.push(CHANNEL_ADJACENCY);
                put_varint(population as u64, &mut buf);
                put_f64(p_keep, &mut buf);
            }
            RoundChannel::DegreeVector { population, groups } => {
                buf.push(CHANNEL_DEGREE_VECTOR);
                put_varint(population as u64, &mut buf);
                put_varint(groups as u64, &mut buf);
            }
        }
        put_varint(round.quota, &mut buf);
        put_varint(round.submitted.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_quota.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_invalid.load(Ordering::Acquire), &mut buf);
        put_varint(round.rejected_malformed.load(Ordering::Acquire), &mut buf);
        buf.push(u8::from(round.closed.load(Ordering::Acquire)));

        let snapshot: Vec<ShardSnapshot<'_>> = match &mut round.store {
            Store::Adjacency { shards, .. } => shards.snapshot_shards().collect(),
            Store::DegreeVector { shards, .. } => shards.snapshot_shards().collect(),
        };
        put_varint(snapshot.len() as u64, &mut buf);
        for (accepted, duplicates, seen, floats, words) in snapshot {
            put_varint(accepted, &mut buf);
            put_varint(duplicates, &mut buf);
            put_varint(seen.len() as u64, &mut buf);
            for &wd in seen {
                put_u64(wd, &mut buf);
            }
            put_varint(floats.len() as u64, &mut buf);
            for &x in floats {
                put_f64(x, &mut buf);
            }
            put_varint(words.len() as u64, &mut buf);
            for &wd in words {
                put_u64(wd, &mut buf);
            }
        }
        w.write_all(&buf)?;
        w.flush()?;
        self.metrics()
            .emit(TraceEvent::QuiesceEnd { round: round_id });
        if let Some(begin) = checkpoint_begin {
            self.metrics()
                .checkpoint_nanos
                .observe(begin.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Reconstructs a mid-round collector from a checkpoint produced by
    /// [`Self::checkpoint`]. `config` supplies the runtime knobs
    /// (threads, session cap, population cap); the round geometry —
    /// channel, population, shard count — comes from the file, so a
    /// checkpoint resumes correctly under a different thread budget.
    ///
    /// # Errors
    /// [`CollectorError::BadCheckpoint`] on malformed bytes or a shard
    /// layout inconsistent with the recorded round.
    pub fn resume(config: CollectorConfig, r: &mut impl Read) -> Result<Self, CollectorError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        let head = parse_head(&mut bytes.as_slice())?;
        let (channel, num_shards) = (head.channel, head.num_shards);
        // Rebuild an empty engine with the file's shard geometry, then
        // restore each shard's state over it.
        let engine = RoundCollector::new(CollectorConfig {
            shards: num_shards,
            // The round was admitted once; the caps re-apply to *new*
            // rounds, not to resuming this one.
            max_population: config.max_population.max(channel.population()),
            max_degree_vector_population: config
                .max_degree_vector_population
                .max(channel.population()),
            max_groups: match channel {
                RoundChannel::DegreeVector { groups, .. } => config.max_groups.max(groups),
                RoundChannel::Adjacency { .. } => config.max_groups,
            },
            memory_budget: config.memory_budget.max(channel.memory_cost(num_shards)),
            ..config
        })?;
        restore_round(&engine, &bytes)?;
        Ok(engine)
    }

    /// Restores one checkpointed round **into this engine** alongside
    /// whatever rounds it already holds — the write-ahead-journal
    /// recovery path, where one engine rebuilds every open round from a
    /// data directory. Unlike [`Self::resume`], the shard geometry must
    /// match this engine's configuration exactly: the daemon's own
    /// journal-coordinated checkpoints are written by the same engine, so
    /// a mismatch means the file belongs to a differently-configured
    /// daemon and is refused rather than re-sharded.
    ///
    /// # Errors
    /// [`CollectorError::BadCheckpoint`] on malformed bytes or a shard
    /// count differing from `config.shards`; admission refusals if the
    /// round no longer fits this engine's caps.
    pub fn resume_round_into(&self, r: &mut impl Read) -> Result<u64, CollectorError> {
        let mut bytes = Vec::new();
        r.read_to_end(&mut bytes)?;
        restore_round(self, &bytes)
    }
}

/// Everything before the per-shard payload of a checkpoint file.
struct CheckpointHead {
    round_id: u64,
    tenant: u64,
    channel: RoundChannel,
    quota: u64,
    submitted: u64,
    rejected_quota: u64,
    rejected_invalid: u64,
    rejected_malformed: u64,
    closed: bool,
    num_shards: usize,
}

fn parse_head(buf: &mut &[u8]) -> Result<CheckpointHead, CollectorError> {
    let header = take(buf, 5)?;
    if !header.starts_with(&CHECKPOINT_MAGIC) {
        return Err(CollectorError::BadCheckpoint {
            detail: "bad magic",
        });
    }
    if header[4] != CHECKPOINT_VERSION {
        return Err(CollectorError::BadCheckpoint {
            detail: "unsupported checkpoint version",
        });
    }
    let round_id = get_varint(buf).map_err(bad("round id"))?;
    let tenant = get_varint(buf).map_err(bad("tenant"))?;
    let channel_tag = take(buf, 1)?[0];
    let channel = match channel_tag {
        CHANNEL_ADJACENCY => {
            let population = get_varint(buf).map_err(bad("population"))? as usize;
            let p_keep = get_f64(buf).map_err(bad("p_keep"))?;
            RoundChannel::Adjacency { population, p_keep }
        }
        CHANNEL_DEGREE_VECTOR => {
            let population = get_varint(buf).map_err(bad("population"))? as usize;
            let groups = get_varint(buf).map_err(bad("groups"))? as usize;
            RoundChannel::DegreeVector { population, groups }
        }
        _ => {
            return Err(CollectorError::BadCheckpoint {
                detail: "unknown channel tag",
            })
        }
    };
    let quota = get_varint(buf).map_err(bad("quota"))?;
    let submitted = get_varint(buf).map_err(bad("submitted"))?;
    let rejected_quota = get_varint(buf).map_err(bad("rejected_quota"))?;
    let rejected_invalid = get_varint(buf).map_err(bad("rejected_invalid"))?;
    let rejected_malformed = get_varint(buf).map_err(bad("rejected_malformed"))?;
    let closed = take(buf, 1)?[0] != 0;
    let num_shards = get_varint(buf).map_err(bad("shard count"))? as usize;
    if num_shards == 0 || num_shards > 1 << 16 {
        return Err(CollectorError::BadCheckpoint {
            detail: "implausible shard count",
        });
    }
    Ok(CheckpointHead {
        round_id,
        tenant,
        channel,
        quota,
        submitted,
        rejected_quota,
        rejected_invalid,
        rejected_malformed,
        closed,
        num_shards,
    })
}

/// Opens the checkpointed round on `engine` and restores its counters and
/// per-shard state. The shard count recorded in the file must equal the
/// engine's — see [`RoundCollector::resume_round_into`].
fn restore_round(engine: &RoundCollector, bytes: &[u8]) -> Result<u64, CollectorError> {
    let mut buf = bytes;
    let head = parse_head(&mut buf)?;
    let CheckpointHead {
        round_id,
        tenant,
        channel,
        quota,
        submitted,
        rejected_quota,
        rejected_invalid,
        rejected_malformed,
        closed,
        num_shards,
    } = head;
    if num_shards != engine.config().shards {
        return Err(CollectorError::BadCheckpoint {
            detail: "shard geometry differs from the engine's configuration",
        });
    }
    engine.open_round_as(tenant, round_id, channel, Some(quota))?;
    {
        let slot = engine.slot(round_id)?;
        let mut guard = write_lock(&slot.inner);
        // The round was opened three lines up, so this is always
        // `Some` — but resume is a decode path, and decode paths
        // return typed errors rather than panic (ldp-lint no-unwrap).
        let round = guard.as_mut().ok_or(CollectorError::BadCheckpoint {
            detail: "round vanished while restoring shards",
        })?;
        for shard_idx in 0..num_shards {
            let accepted = get_varint(&mut buf).map_err(bad("shard accepted"))?;
            let duplicates = get_varint(&mut buf).map_err(bad("shard duplicates"))?;
            let seen = read_u64s(&mut buf)?;
            let floats = read_f64s(&mut buf)?;
            let words = read_u64s(&mut buf)?;
            let restored = match &mut round.store {
                Store::Adjacency { shards, .. } => {
                    shards.restore_shard(shard_idx, accepted, duplicates, seen, floats, words)
                }
                Store::DegreeVector { shards, .. } => {
                    shards.restore_shard(shard_idx, accepted, duplicates, seen, floats, words)
                }
            };
            restored.map_err(|detail| CollectorError::BadCheckpoint { detail })?;
        }
        if !buf.is_empty() {
            return Err(CollectorError::BadCheckpoint {
                detail: "trailing bytes",
            });
        }
        round.submitted.store(submitted, Ordering::Release);
        round
            .rejected_quota
            .store(rejected_quota, Ordering::Release);
        round
            .rejected_invalid
            .store(rejected_invalid, Ordering::Release);
        round
            .rejected_malformed
            .store(rejected_malformed, Ordering::Release);
        round.closed.store(closed, Ordering::Release);
    }
    Ok(round_id)
}

fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], CollectorError> {
    let (head, rest) = buf
        .split_at_checked(n)
        .ok_or(CollectorError::BadCheckpoint {
            detail: "truncated",
        })?;
    *buf = rest;
    Ok(head)
}

fn bad(_field: &'static str) -> impl Fn(WireError) -> CollectorError {
    move |_| CollectorError::BadCheckpoint {
        detail: "malformed integer field",
    }
}

fn read_u64s(buf: &mut &[u8]) -> Result<Vec<u64>, CollectorError> {
    let len = get_varint(buf).map_err(bad("len"))? as usize;
    if buf.len() < len.saturating_mul(8) {
        return Err(CollectorError::BadCheckpoint {
            detail: "truncated word array",
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_u64(buf).map_err(bad("word"))?);
    }
    Ok(out)
}

fn read_f64s(buf: &mut &[u8]) -> Result<Vec<f64>, CollectorError> {
    let len = get_varint(buf).map_err(bad("len"))? as usize;
    if buf.len() < len.saturating_mul(8) {
        return Err(CollectorError::BadCheckpoint {
            detail: "truncated float array",
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get_f64(buf).map_err(bad("float"))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{IngestOutcome, RoundOutcome};
    use ldp_graph::{BitSet, Xoshiro256pp};
    use ldp_protocols::{AdjacencyReport, UserReport};
    use rand::Rng;

    fn synth(n: usize, seed: u64) -> Vec<AdjacencyReport> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                let mut bits = BitSet::new(n);
                for w in bits.words_mut() {
                    *w = rng.gen::<u64>() & rng.gen::<u64>();
                }
                bits.mask_tail();
                AdjacencyReport::new(bits, rng.gen_range(0.0..n as f64))
            })
            .collect()
    }

    fn config() -> CollectorConfig {
        CollectorConfig {
            shards: 4,
            ..CollectorConfig::default()
        }
    }

    #[test]
    fn resume_mid_round_is_bit_identical_to_uninterrupted() {
        let n = 90;
        let reports = synth(n, 0xABCD);

        // Uninterrupted reference. Quota above n: the interrupted run will
        // also replay one duplicate, which charges the quota (flood
        // protection counts queued reports, not unique users).
        let reference = RoundCollector::new(config()).unwrap();
        reference
            .open_round(
                5,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: 0.91,
                },
                Some(n as u64 + 8),
            )
            .unwrap();
        for (i, r) in reports.iter().enumerate() {
            reference
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        reference.close_round(5).unwrap();
        let RoundOutcome::Adjacency(reference_view) = reference.finalize(5).unwrap() else {
            panic!("adjacency outcome expected");
        };

        // Interrupted run: ingest 40, checkpoint, drop, resume, finish.
        // Opened as tenant 9 to pin that resume restores ownership.
        let first = RoundCollector::new(config()).unwrap();
        first
            .open_round_as(
                9,
                5,
                RoundChannel::Adjacency {
                    population: n,
                    p_keep: 0.91,
                },
                Some(n as u64 + 8),
            )
            .unwrap();
        for (i, r) in reports.iter().enumerate().take(40) {
            first
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        let mut snapshot = Vec::new();
        first.checkpoint(5, &mut snapshot).unwrap();
        drop(first);

        let resumed = RoundCollector::resume(config(), &mut snapshot.as_slice()).unwrap();
        assert_eq!(resumed.open_round_ids(), vec![5]);
        assert_eq!(resumed.round_tenant(5).unwrap(), 9);
        // A duplicate of an already-checkpointed id is still rejected
        // (and, like any queued upload, still charges the quota).
        assert_eq!(
            resumed
                .ingest(5, 3, UserReport::Adjacency(reports[3].clone()))
                .unwrap(),
            IngestOutcome::Duplicate
        );
        for (i, r) in reports.iter().enumerate().skip(40) {
            resumed
                .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap();
        }
        let counters = resumed.close_round(5).unwrap();
        assert_eq!(counters.accepted, n as u64);
        assert_eq!(counters.rejected_duplicate, 1);
        let RoundOutcome::Adjacency(view) = resumed.finalize(5).unwrap() else {
            panic!("adjacency outcome expected");
        };
        assert_eq!(view.matrix(), reference_view.matrix());
        assert_eq!(view.reported_degrees(), reference_view.reported_degrees());
        for u in 0..n {
            assert_eq!(view.perturbed_degree(u), reference_view.perturbed_degree(u));
        }
    }

    #[test]
    fn degree_vector_rounds_checkpoint_too() {
        let engine = RoundCollector::new(config()).unwrap();
        engine
            .open_round(
                2,
                RoundChannel::DegreeVector {
                    population: 9,
                    groups: 2,
                },
                None,
            )
            .unwrap();
        for i in 0..6u64 {
            engine
                .ingest(2, i, UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
        }
        let mut snapshot = Vec::new();
        engine.checkpoint(2, &mut snapshot).unwrap();
        let resumed = RoundCollector::resume(config(), &mut snapshot.as_slice()).unwrap();
        for i in 6..9u64 {
            resumed
                .ingest(2, i, UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
        }
        resumed.close_round(2).unwrap();
        let RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        } = resumed.finalize(2).unwrap()
        else {
            panic!("degree-vector outcome expected");
        };
        assert_eq!(accepted, 9);
        assert_eq!(group_totals, vec![9.0, 36.0]);
    }

    #[test]
    fn malformed_checkpoints_are_typed() {
        // Empty, bad magic, bad version, truncated tail.
        for bytes in [Vec::new(), b"NOPE\x01".to_vec(), {
            let mut v = CHECKPOINT_MAGIC.to_vec();
            v.push(99);
            v
        }] {
            assert!(matches!(
                RoundCollector::resume(config(), &mut bytes.as_slice()),
                Err(CollectorError::BadCheckpoint { .. })
            ));
        }
        // A valid checkpoint with the tail chopped off.
        let engine = RoundCollector::new(config()).unwrap();
        engine
            .open_round(
                1,
                RoundChannel::Adjacency {
                    population: 30,
                    p_keep: 0.8,
                },
                None,
            )
            .unwrap();
        let mut snapshot = Vec::new();
        engine.checkpoint(1, &mut snapshot).unwrap();
        snapshot.truncate(snapshot.len() - 3);
        assert!(matches!(
            RoundCollector::resume(config(), &mut snapshot.as_slice()),
            Err(CollectorError::BadCheckpoint { .. })
        ));
        // A genuine version-2 file — no `rejected_malformed` varint — is
        // refused, not resumed with the counter guessed. With this
        // degree-vector round's small values every leading field is one
        // byte, so the counter sits exactly at offset 14 (magic ×4,
        // version, round id, tenant, channel tag, population, groups,
        // quota, submitted, rejected_quota, rejected_invalid precede it).
        let engine = RoundCollector::new(config()).unwrap();
        engine
            .open_round(
                2,
                RoundChannel::DegreeVector {
                    population: 9,
                    groups: 2,
                },
                None,
            )
            .unwrap();
        engine
            .ingest(2, 0, UserReport::DegreeVector(vec![1.0, 0.0]))
            .unwrap();
        let mut v2 = Vec::new();
        engine.checkpoint(2, &mut v2).unwrap();
        const MALFORMED_OFFSET: usize = 14;
        assert_eq!(v2[MALFORMED_OFFSET], 0, "layout drifted");
        v2.remove(MALFORMED_OFFSET);
        v2[4] = 2;
        assert!(matches!(
            RoundCollector::resume(config(), &mut v2.as_slice()),
            Err(CollectorError::BadCheckpoint {
                detail: "unsupported checkpoint version"
            })
        ));
    }
}
