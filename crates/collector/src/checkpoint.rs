//! Checkpoints: an in-flight round as write-ahead-journal records.
//!
//! A round at a million users is minutes of intake; a collector restart
//! must not cost the epoch. [`RoundCollector::checkpoint`] encodes one
//! named round's complete state as journal record payloads (layouts at
//! [`ldp_protocols::wire::journal`]): one `REC_SNAPSHOT` per shard — its
//! counters, seen-bitmap, degrees/sums and packed rows — handed to a sink
//! as soon as it is encoded, then the `REC_CHECKPOINT` marker holding the
//! round head (owning tenant, channel, quota, counters, `closed`, shard
//! count). [`RoundCollector::restore`] rebuilds the round from the marker
//! and its shard records. The journal ([`crate::wal`]) appends the records
//! to its own segments, so one reader, one framing and one torn-write
//! discipline cover snapshots and the report tail alike. A record per
//! shard, not per round, keeps each one inside a wire frame: a shard's
//! state is bounded by the population and group caps, a round's grows
//! with the shard count.
//!
//! Under the concurrent ingest plane, checkpointing takes that round's
//! *slot write* lock: every in-flight ingest of the round (each holds the
//! slot read lock for the duration of one fold) drains first, so the
//! snapshot always sits on a frame boundary — a report is either fully
//! folded into it or not in it at all, never half-written. Other rounds in
//! the registry keep ingesting, untouched. Restored intake continues
//! exactly where it stopped: the same duplicate set, the same quota
//! charge, and a finalize bit-identical to an uninterrupted run (pinned by
//! the tests below and by `tests/concurrent.rs` with sessions racing the
//! snapshot).
//!
//! The payloads reuse the wire codec's primitives (varints, `f64`/`u64`
//! bit patterns), so a checkpoint is as type-checked on load as a network
//! frame: every malformed or geometry-mismatched payload is a typed
//! [`CollectorError::BadCheckpoint`] naming the field that failed.

use crate::error::CollectorError;
use crate::round::{write_lock, RoundChannel, RoundCollector};
use ldp_obs::TraceEvent;
use ldp_protocols::wire::{get_f64, get_u64, get_varint, put_f64, put_u64, put_varint, WireError};
use std::sync::atomic::Ordering;
use std::time::Instant;

const CHANNEL_ADJACENCY: u8 = 0;
const CHANNEL_DEGREE_VECTOR: u8 = 1;

impl RoundCollector {
    /// Encodes the named round as checkpoint records: `shard_record` gets
    /// each shard's `REC_SNAPSHOT` payload in shard order, and the
    /// `REC_CHECKPOINT` marker payload is returned. Quiesces that round's
    /// concurrent sessions at a frame boundary for the whole encoding (see
    /// the module docs); every other round keeps ingesting. Only one
    /// shard's record is in memory at a time.
    ///
    /// # Errors
    /// [`CollectorError::UnknownRound`] when no round has this id; the
    /// first error `shard_record` returns.
    pub fn checkpoint(
        &self,
        round_id: u64,
        mut shard_record: impl FnMut(&[u8]) -> Result<(), CollectorError>,
    ) -> Result<Vec<u8>, CollectorError> {
        let checkpoint_begin = self.metrics().active().then(Instant::now);
        self.metrics()
            .emit(TraceEvent::QuiesceBegin { round: round_id });
        let slot = self.slot(round_id)?;
        let mut guard = write_lock(&slot.inner);
        let round = guard
            .as_mut()
            .ok_or(CollectorError::UnknownRound { round_id })?;
        let shards = round.store.shard_set_mut().snapshot_shards();
        let mut buf = Vec::new();
        for (shard_idx, &(accepted, duplicates, seen, floats, words)) in shards.iter().enumerate() {
            buf.clear();
            put_varint(round_id, &mut buf);
            put_varint(shard_idx as u64, &mut buf);
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
            shard_record(&buf)?;
        }

        let mut marker = Vec::new();
        put_varint(round_id, &mut marker);
        put_varint(shards.len() as u64, &mut marker);
        put_varint(slot.tenant, &mut marker);
        match round.channel {
            RoundChannel::Adjacency { population, p_keep } => {
                marker.push(CHANNEL_ADJACENCY);
                put_varint(population as u64, &mut marker);
                put_f64(p_keep, &mut marker);
            }
            RoundChannel::DegreeVector { population, groups } => {
                marker.push(CHANNEL_DEGREE_VECTOR);
                put_varint(population as u64, &mut marker);
                put_varint(groups as u64, &mut marker);
            }
        }
        put_varint(round.quota, &mut marker);
        put_varint(round.submitted.load(Ordering::Acquire), &mut marker);
        put_varint(round.rejected_quota.load(Ordering::Acquire), &mut marker);
        put_varint(round.rejected_invalid.load(Ordering::Acquire), &mut marker);
        put_varint(
            round.rejected_malformed.load(Ordering::Acquire),
            &mut marker,
        );
        marker.push(u8::from(round.closed.load(Ordering::Acquire)));
        drop(guard);
        self.metrics()
            .emit(TraceEvent::QuiesceEnd { round: round_id });
        if let Some(begin) = checkpoint_begin {
            self.metrics()
                .checkpoint_nanos
                .observe(begin.elapsed().as_nanos() as u64);
        }
        Ok(marker)
    }

    /// Restores a checkpointed round **into this engine**, alongside
    /// whatever rounds it already holds, from its `REC_CHECKPOINT`
    /// `marker` payload and the `REC_SNAPSHOT` payloads of
    /// [`Self::checkpoint`]: `shard_records` ends with them in shard order,
    /// and any records before those (the orphans of an interrupted
    /// earlier checkpoint) are ignored. The shard geometry must match
    /// this engine's configuration exactly: a checkpoint is written by
    /// the same daemon that restores it, so a mismatch means the records
    /// belong to a differently-configured daemon and are refused rather
    /// than re-sharded. The runtime caps re-apply: a round that no longer
    /// fits them is refused at its re-open.
    ///
    /// # Errors
    /// [`CollectorError::BadCheckpoint`] on malformed bytes or a shard
    /// count differing from the configured one;
    /// [`CollectorError::BadJournal`] when `shard_records` are not this
    /// marker's (too few, or another round's or shard's); admission refusals
    /// when the round no longer fits this engine.
    pub fn restore(&self, marker: &[u8], shard_records: &[&[u8]]) -> Result<u64, CollectorError> {
        let head = parse_head(marker)?;
        if head.num_shards != self.config().shards {
            return Err(CollectorError::BadCheckpoint {
                detail: "shard geometry differs from the engine's configuration",
            });
        }
        let own = shard_records
            .len()
            .checked_sub(head.num_shards)
            .and_then(|start| shard_records.get(start..))
            .ok_or(CollectorError::BadJournal {
                detail: "checkpoint marker without its shard records",
            })?;
        let round_id = head.round_id;
        self.open_round_as(head.tenant, round_id, head.channel, Some(head.quota))?;
        let slot = self.slot(round_id)?;
        let mut guard = write_lock(&slot.inner);
        // The round was opened just above, so this is always `Some` — but
        // restore is a decode path, and decode paths return typed errors
        // rather than panic (ldp-lint no-unwrap).
        let round = guard.as_mut().ok_or(CollectorError::BadCheckpoint {
            detail: "round vanished while restoring shards",
        })?;
        for (shard_idx, record) in own.iter().enumerate() {
            let mut buf = *record;
            if varint(&mut buf, "shard record round id")? != round_id
                || varint(&mut buf, "shard index")? != shard_idx as u64
            {
                return Err(CollectorError::BadJournal {
                    detail: "shard record does not match its checkpoint marker",
                });
            }
            let accepted = varint(&mut buf, "shard accepted count")?;
            let duplicates = varint(&mut buf, "shard duplicate count")?;
            let seen = read_array(&mut buf, "seen-bitmap words", get_u64)?;
            let floats = read_array(&mut buf, "degrees or group sums", get_f64)?;
            let words = read_array(&mut buf, "row words", get_u64)?;
            if !buf.is_empty() {
                return Err(CollectorError::BadCheckpoint {
                    detail: "trailing bytes after a shard record",
                });
            }
            round
                .store
                .shard_set_mut()
                .restore_shard(shard_idx, accepted, duplicates, seen, floats, words)
                .map_err(|detail| CollectorError::BadCheckpoint { detail })?;
        }
        round.submitted.store(head.submitted, Ordering::Release);
        round
            .rejected_quota
            .store(head.rejected_quota, Ordering::Release);
        round
            .rejected_invalid
            .store(head.rejected_invalid, Ordering::Release);
        round
            .rejected_malformed
            .store(head.rejected_malformed, Ordering::Release);
        round.closed.store(head.closed, Ordering::Release);
        Ok(round_id)
    }
}

/// The round head a `REC_CHECKPOINT` marker carries.
struct CheckpointHead {
    round_id: u64,
    num_shards: usize,
    tenant: u64,
    channel: RoundChannel,
    quota: u64,
    submitted: u64,
    rejected_quota: u64,
    rejected_invalid: u64,
    rejected_malformed: u64,
    closed: bool,
}

fn parse_head(mut buf: &[u8]) -> Result<CheckpointHead, CollectorError> {
    let buf = &mut buf;
    let round_id = varint(buf, "round id")?;
    let num_shards = varint(buf, "shard count")? as usize;
    if num_shards == 0 || num_shards > 1 << 16 {
        return Err(CollectorError::BadCheckpoint {
            detail: "implausible shard count",
        });
    }
    let tenant = varint(buf, "tenant")?;
    let channel = match byte(buf, "channel tag")? {
        CHANNEL_ADJACENCY => RoundChannel::Adjacency {
            population: varint(buf, "population")? as usize,
            p_keep: get_f64(buf).map_err(|_| bad("p_keep"))?,
        },
        CHANNEL_DEGREE_VECTOR => RoundChannel::DegreeVector {
            population: varint(buf, "population")? as usize,
            groups: varint(buf, "groups")? as usize,
        },
        _ => {
            return Err(CollectorError::BadCheckpoint {
                detail: "unknown channel tag",
            })
        }
    };
    let head = CheckpointHead {
        round_id,
        num_shards,
        tenant,
        channel,
        quota: varint(buf, "quota")?,
        submitted: varint(buf, "submitted count")?,
        rejected_quota: varint(buf, "quota-rejected count")?,
        rejected_invalid: varint(buf, "invalid-rejected count")?,
        rejected_malformed: varint(buf, "malformed-rejected count")?,
        closed: byte(buf, "closed flag")? != 0,
    };
    if !buf.is_empty() {
        return Err(CollectorError::BadCheckpoint {
            detail: "trailing bytes after a checkpoint marker",
        });
    }
    Ok(head)
}

/// A truncated or malformed `field`, named in the error.
fn bad(field: &'static str) -> CollectorError {
    CollectorError::BadCheckpoint { detail: field }
}

fn varint(buf: &mut &[u8], field: &'static str) -> Result<u64, CollectorError> {
    get_varint(buf).map_err(|_| bad(field))
}

fn byte(buf: &mut &[u8], field: &'static str) -> Result<u8, CollectorError> {
    let (&b, rest) = buf.split_first().ok_or(bad(field))?;
    *buf = rest;
    Ok(b)
}

/// A count-prefixed array of 8-byte elements; the count is checked
/// against the bytes left before anything is allocated.
fn read_array<T>(
    buf: &mut &[u8],
    field: &'static str,
    get: fn(&mut &[u8]) -> Result<T, WireError>,
) -> Result<Vec<T>, CollectorError> {
    let len = varint(buf, field)? as usize;
    if buf.len() < len.saturating_mul(8) {
        return Err(bad(field));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(get(buf).map_err(|_| bad(field))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::round::{CollectorConfig, IngestOutcome, RoundOutcome};
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

    /// `(marker, shard records)` of one checkpoint.
    fn snapshot(engine: &RoundCollector, round_id: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let mut shards = Vec::new();
        let marker = engine
            .checkpoint(round_id, |record| {
                shards.push(record.to_vec());
                Ok(())
            })
            .unwrap();
        (marker, shards)
    }

    /// Restores `(marker, shards)` into a fresh engine.
    fn restored(marker: &[u8], shards: &[Vec<u8>]) -> Result<RoundCollector, CollectorError> {
        let engine = RoundCollector::new(config())?;
        let records: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
        engine.restore(marker, &records)?;
        Ok(engine)
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

        // Interrupted run: ingest 40, checkpoint, drop, restore, finish.
        // Opened as tenant 9 to pin that restore keeps ownership.
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
        let (marker, shards) = snapshot(&first, 5);
        assert_eq!(shards.len(), config().shards);
        drop(first);

        let resumed = restored(&marker, &shards).unwrap();
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
        let mut orphans = Vec::new();
        for i in 0..6u64 {
            engine
                .ingest(2, i, UserReport::DegreeVector(vec![1.0, i as f64]))
                .unwrap();
            if i == 2 {
                // An interrupted earlier checkpoint: shard records, no
                // marker. They may precede the marker's own records.
                orphans = snapshot(&engine, 2).1;
                orphans.truncate(2);
            }
        }
        let (marker, shards) = snapshot(&engine, 2);
        orphans.extend(shards);
        let resumed = restored(&marker, &orphans).unwrap();
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The on-disk format, byte for byte: the `REC_SNAPSHOT` payloads and
    /// the `REC_CHECKPOINT` marker of one small round per channel, each
    /// with fixed ids, two shards, one duplicate and one invalid upload.
    /// Every other checkpoint test compares restored finalizes, which a
    /// layout change that round-trips would pass.
    #[test]
    fn checkpoint_record_bytes_are_pinned() {
        let engine = RoundCollector::new(CollectorConfig {
            shards: 2,
            ..CollectorConfig::default()
        })
        .unwrap();
        engine
            .open_round_as(
                3,
                7,
                RoundChannel::Adjacency {
                    population: 5,
                    p_keep: 0.75,
                },
                Some(9),
            )
            .unwrap();
        for (id, degree) in [(4u64, 2.5), (0, 0.25), (3, 1.0), (1, -1.5), (3, 8.0)] {
            let mut bits = BitSet::new(5);
            for j in 0..5 {
                if (id as usize + j).is_multiple_of(2) {
                    bits.set(j);
                }
            }
            engine
                .ingest(
                    7,
                    id,
                    UserReport::Adjacency(AdjacencyReport::new(bits, degree)),
                )
                .unwrap();
        }
        engine
            .ingest(
                7,
                5,
                UserReport::Adjacency(AdjacencyReport::new(BitSet::new(5), 0.0)),
            )
            .unwrap();
        let (marker, shards) = snapshot(&engine, 7);
        assert_eq!(
            shards.iter().map(|s| hex(s)).collect::<Vec<_>>(),
            [
                "0700020001050000000000000003000000000000d03f0000000000000000000000000000044002\
                 00000000000000000500000000000000",
                "0701020101030000000000000002000000000000f8bf000000000000f03f020000000000000000\
                 0200000000000000",
            ]
        );
        assert_eq!(hex(&marker), "0702030005000000000000e83f090500010000");

        engine
            .open_round(
                8,
                RoundChannel::DegreeVector {
                    population: 4,
                    groups: 2,
                },
                None,
            )
            .unwrap();
        for (id, vector) in [(2u64, [0.5, 3.0]), (1, [-2.0, 0.125]), (2, [9.0, 9.0])] {
            engine
                .ingest(8, id, UserReport::DegreeVector(vector.to_vec()))
                .unwrap();
        }
        engine
            .ingest(8, 0, UserReport::DegreeVector(vec![1.0]))
            .unwrap();
        engine.close_round(8).unwrap();
        let (marker, shards) = snapshot(&engine, 8);
        assert_eq!(
            shards.iter().map(|s| hex(s)).collect::<Vec<_>>(),
            [
                "0800010101020000000000000002000000000000e03f000000000000084000",
                "080101000101000000000000000200000000000000c0000000000000c03f00",
            ]
        );
        assert_eq!(hex(&marker), "080200010402040300010001");
    }

    #[test]
    fn malformed_checkpoints_are_typed() {
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
        let (marker, shards) = snapshot(&engine, 1);
        let typed = |marker: &[u8], shards: &[Vec<u8>]| match restored(marker, shards) {
            Err(CollectorError::BadCheckpoint { detail }) => detail,
            Err(CollectorError::BadJournal { detail }) => detail,
            other => panic!("expected a typed refusal, got {:?}", other.map(|_| ())),
        };
        // Empty and garbage markers; an unknown channel tag (the byte
        // after round id, shard count and tenant).
        assert_eq!(typed(&[], &shards), "round id");
        assert_eq!(typed(b"\x01\x04\x00\x09", &shards), "unknown channel tag");
        // Trailing bytes after the marker, or after a shard record.
        let mut long = marker.clone();
        long.push(0);
        assert_eq!(
            typed(&long, &shards),
            "trailing bytes after a checkpoint marker"
        );
        let mut padded = shards.clone();
        padded[2].push(0);
        assert_eq!(
            typed(&marker, &padded),
            "trailing bytes after a shard record"
        );
        // A shard record chopped short names the array it cut into.
        let mut short = shards.clone();
        let len = short[3].len();
        short[3].truncate(len - 3);
        assert_eq!(typed(&marker, &short), "row words");
        // Records that are not this marker's: too few, out of order.
        assert_eq!(
            typed(&marker, &shards[1..]),
            "checkpoint marker without its shard records"
        );
        let mut swapped = shards.clone();
        swapped.swap(0, 1);
        assert_eq!(
            typed(&marker, &swapped),
            "shard record does not match its checkpoint marker"
        );
        // A marker from an engine with another shard count.
        let other = RoundCollector::new(CollectorConfig {
            shards: 3,
            ..config()
        })
        .unwrap();
        other
            .open_round(
                1,
                RoundChannel::Adjacency {
                    population: 30,
                    p_keep: 0.8,
                },
                None,
            )
            .unwrap();
        let (other_marker, other_shards) = snapshot(&other, 1);
        assert_eq!(
            typed(&other_marker, &other_shards),
            "shard geometry differs from the engine's configuration"
        );
    }
}
