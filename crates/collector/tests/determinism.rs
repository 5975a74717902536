//! Determinism and panic-freedom pins for the invariants `ldp-lint`
//! enforces statically (DESIGN.md §9): checkpoint record bytes are
//! schedule-independent, registry enumeration is ordered however rounds
//! were opened, and the typed-error conversions on the finalize/restore
//! paths behave — a failed finalize leaves the round fully usable, and
//! malformed inputs surface as typed errors, never panics.

use ldp_collector::{
    CollectorConfig, CollectorError, IngestOutcome, RoundChannel, RoundCollector, RoundOutcome,
};
use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::{AdjacencyReport, UserReport};
use rand::Rng;
use std::sync::Arc;

fn config() -> CollectorConfig {
    CollectorConfig {
        shards: 4,
        ..CollectorConfig::default()
    }
}

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

fn adjacency(n: usize) -> RoundChannel {
    RoundChannel::Adjacency {
        population: n,
        p_keep: 0.9,
    }
}

/// The round's checkpoint records: its shard records in shard order, then
/// the marker.
fn checkpoint_records(engine: &RoundCollector, round_id: u64) -> Vec<Vec<u8>> {
    let mut records = Vec::new();
    let marker = engine
        .checkpoint(round_id, |shard| {
            records.push(shard.to_vec());
            Ok(())
        })
        .unwrap();
    records.push(marker);
    records
}

/// Ingests `reports` into a fresh round in the order given by `order` and
/// returns the round's checkpoint records.
fn checkpoint_after(order: &[usize], reports: &[AdjacencyReport]) -> Vec<Vec<u8>> {
    let engine = RoundCollector::new(config()).unwrap();
    engine
        .open_round(7, adjacency(reports.len()), None)
        .unwrap();
    for &i in order {
        assert_eq!(
            engine
                .ingest(7, i as u64, UserReport::Adjacency(reports[i].clone()))
                .unwrap(),
            IngestOutcome::Queued
        );
    }
    checkpoint_records(&engine, 7)
}

/// The checkpoint records of a round must not depend on the order reports
/// arrived: ascending, descending, and an interleaved shuffle all fold to
/// the same shard state, so the shard records and the marker are
/// identical byte for byte.
#[test]
fn checkpoint_bytes_are_ingest_order_independent() {
    let n = 70;
    let reports = synth(n, 0x5EED);

    let ascending: Vec<usize> = (0..n).collect();
    let descending: Vec<usize> = (0..n).rev().collect();
    // A deterministic shuffle: odd ids first, then even — a schedule two
    // racing sessions could plausibly produce.
    let interleaved: Vec<usize> = (0..n)
        .filter(|i| i % 2 == 1)
        .chain((0..n).filter(|i| i % 2 == 0))
        .collect();

    let reference = checkpoint_after(&ascending, &reports);
    assert_eq!(reference, checkpoint_after(&descending, &reports));
    assert_eq!(reference, checkpoint_after(&interleaved, &reports));
}

/// The same property under a *real* race: two threads ingest disjoint
/// halves concurrently; whatever interleaving the scheduler produced, the
/// checkpoint after both finish equals the sequential one.
#[test]
fn checkpoint_bytes_survive_a_concurrent_schedule() {
    let n = 64;
    let reports = synth(n, 0xC0FFEE);
    let sequential = checkpoint_after(&(0..n).collect::<Vec<_>>(), &reports);

    for trial in 0..4 {
        let engine = Arc::new(RoundCollector::new(config()).unwrap());
        engine.open_round(7, adjacency(n), None).unwrap();
        let halves: Vec<Vec<usize>> = vec![
            (0..n).filter(|i| i % 2 == trial % 2).collect(),
            (0..n).filter(|i| i % 2 != trial % 2).collect(),
        ];
        let threads: Vec<_> = halves
            .into_iter()
            .map(|ids| {
                let engine = Arc::clone(&engine);
                let reports = reports.clone();
                std::thread::spawn(move || {
                    for i in ids {
                        engine
                            .ingest(7, i as u64, UserReport::Adjacency(reports[i].clone()))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            checkpoint_records(&engine, 7),
            sequential,
            "trial {trial} diverged"
        );
    }
}

/// Round-id enumeration is ascending whatever order rounds were opened in
/// (the registry is an ordered map — pinned so a close-summary or
/// checkpoint sweep can never observe hash order).
#[test]
fn open_round_ids_are_sorted_regardless_of_open_order() {
    let engine = RoundCollector::new(config()).unwrap();
    for id in [9u64, 3, 7, 1] {
        engine.open_round(id, adjacency(8), None).unwrap();
    }
    assert_eq!(engine.open_round_ids(), vec![1, 3, 7, 9]);
}

/// Regression for the finalize conversion (`guard.take().expect(..)` →
/// typed path): an early finalize is a typed `RoundIncomplete` that puts
/// the round state *back* — intake continues and a later finalize matches
/// an uninterrupted run bit for bit.
#[test]
fn failed_finalize_leaves_the_round_usable() {
    let n = 40;
    let reports = synth(n, 0xBEEF);

    let reference = RoundCollector::new(config()).unwrap();
    reference.open_round(3, adjacency(n), None).unwrap();
    for (i, r) in reports.iter().enumerate() {
        reference
            .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    let RoundOutcome::Adjacency(reference_view) = reference.finalize(3).unwrap() else {
        panic!("adjacency outcome expected");
    };

    let engine = RoundCollector::new(config()).unwrap();
    engine.open_round(3, adjacency(n), None).unwrap();
    for (i, r) in reports.iter().enumerate().take(n / 2) {
        engine
            .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    // Premature finalize: typed refusal, not a panic, not a poisoned round.
    assert!(matches!(
        engine.finalize(3),
        Err(CollectorError::RoundIncomplete { .. })
    ));
    // The round is still open, still counting, still finalizable.
    assert_eq!(engine.open_round_ids(), vec![3]);
    for (i, r) in reports.iter().enumerate().skip(n / 2) {
        assert_eq!(
            engine
                .ingest(3, i as u64, UserReport::Adjacency(r.clone()))
                .unwrap(),
            IngestOutcome::Queued
        );
    }
    let RoundOutcome::Adjacency(view) = engine.finalize(3).unwrap() else {
        panic!("adjacency outcome expected");
    };
    assert_eq!(view.matrix(), reference_view.matrix());
    assert_eq!(view.reported_degrees(), reference_view.reported_degrees());
}

/// Regression for the open-time flip-mechanism construction (the
/// `expect("validated at open")` removal): a keep probability outside
/// (0.5, 1) is a typed refusal at open — finalize can no longer even see
/// an invalid one.
#[test]
fn invalid_keep_probability_is_refused_at_open() {
    let engine = RoundCollector::new(config()).unwrap();
    for p_keep in [0.0, 0.5, 1.0, 1.5, f64::NAN] {
        assert!(
            matches!(
                engine.open_round(
                    1,
                    RoundChannel::Adjacency {
                        population: 8,
                        p_keep,
                    },
                    None,
                ),
                Err(CollectorError::InvalidConfig { .. })
            ),
            "p_keep = {p_keep} was admitted"
        );
    }
    assert!(engine.open_round_ids().is_empty());
}

/// Regression for the restore conversion (`expect("round just opened")`
/// → typed path): a checkpoint whose shard records disagree with their
/// marker's geometry is a typed `BadCheckpoint` or `BadJournal`, never a
/// panic.
#[test]
fn geometry_mismatched_checkpoint_is_typed() {
    let engine = RoundCollector::new(config()).unwrap();
    engine.open_round(5, adjacency(30), None).unwrap();
    for (i, r) in synth(30, 1).iter().enumerate().take(10) {
        engine
            .ingest(5, i as u64, UserReport::Adjacency(r.clone()))
            .unwrap();
    }
    let records = checkpoint_records(&engine, 5);

    // Flip every byte position of the marker, and the first 64 of each
    // shard record, in turn; restore must always be total. (The
    // population/shard fields live in the marker and at the head of each
    // record, so this sweeps geometry mismatches as well as payload
    // corruption.)
    for (index, record) in records.iter().enumerate() {
        let span = if index + 1 == records.len() {
            record.len()
        } else {
            record.len().min(64)
        };
        for pos in 0..span {
            let mut bad = records.clone();
            bad[index][pos] ^= 0xFF;
            let (marker, shards) = bad.split_last().unwrap();
            let shards: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
            let restored = RoundCollector::new(config()).unwrap();
            match restored.restore(marker, &shards) {
                Ok(_) => {
                    // Some flips only touch counters and still parse; the
                    // engine must still be in a coherent, usable state.
                    let _ = restored.open_round_ids();
                }
                Err(e) => assert!(
                    matches!(
                        e,
                        CollectorError::BadCheckpoint { .. }
                            | CollectorError::BadJournal { .. }
                            | CollectorError::InvalidConfig { .. }
                            | CollectorError::PopulationCap { .. }
                            | CollectorError::GroupCap { .. }
                    ),
                    "record {index} byte {pos}: unexpected error {e:?}"
                ),
            }
        }
    }
}
