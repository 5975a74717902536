//! Per-shard aggregation state: the id-sharded heart of the collector.
//!
//! Reports arriving over the wire carry explicit user ids and arrive in
//! *arbitrary* order — and, since the ingest plane went concurrent, from
//! *multiple session threads at once*. The lower-triangle ownership rule
//! still saves the day: report `i` writes only the owned words of row `i`,
//! so partitioning rows by `user_id % shards` gives every shard an
//! exclusive, disjoint slice of the aggregate. Each shard sits behind its
//! own mutex; a session folds a report by locking exactly the one shard
//! that owns the id, so sessions touching different shards never contend
//! and the duplicate-id check (the shard's seen-bitmap) is race-free by
//! ownership. Merging at finalize is a straight row copy — the shard
//! states never overlap.
//!
//! Both channels share one shard set, [`Shards`]: the seen-bitmap, the
//! duplicate check, the counters, the per-shard mutex, the timed lock,
//! snapshot and restore are written once. A report kind ([`ShardKind`])
//! supplies only its storage layout, its fold body and its finalize step.
//!
//! Adjacency shards store their rows *triangularly packed*: row `i` is
//! allotted exactly its `⌈i/64⌉` owned words, so the whole shard set costs
//! one lower triangle (`≈ N²/16` bytes) on top of the final matrix instead
//! of a second full matrix. Degree-vector shards keep running per-group
//! sums — `O(groups)` per shard, which is what lets a million-user
//! degree-vector round run in constant aggregate memory.
//!
//! Determinism under concurrency: an adjacency fold ORs a report's owned
//! words into zeroed, exclusively-owned storage — a commutative,
//! first-write-wins operation — so the merged bit pattern is independent
//! of arrival order and of how sessions interleave. Degree-vector sums
//! accumulate within a shard in arrival order; totals are exact (hence
//! order-independent) whenever the additions are, and each shard's
//! partial is summed in shard-index order at finalize.

use ldp_graph::{BitMatrix, BitSet};
use ldp_protocols::ingest::fold_lower_bits;
use ldp_protocols::AdjacencyReport;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Number of owned (lower-triangle) words of row `i`.
#[inline]
pub(crate) fn owned_words(i: usize) -> usize {
    i / 64 + usize::from(!i.is_multiple_of(64))
}

/// Locks one shard. Fold closures are panic-free on the documented
/// preconditions, and the shard invariants (OR into owned words, counter
/// increments) hold at every await-free point, so a poisoned lock is
/// recovered rather than cascading panics across session threads.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn inner<T>(m: Mutex<T>) -> T {
    m.into_inner().unwrap_or_else(PoisonError::into_inner)
}

fn inner_mut<T>(m: &mut Mutex<T>) -> &mut T {
    m.get_mut().unwrap_or_else(PoisonError::into_inner)
}

/// One shard's checkpointable pieces: `(accepted, duplicates, seen words,
/// degrees-or-sums, packed row words)`.
pub(crate) type ShardSnapshot<'a> = (u64, u64, &'a [u64], &'a [f64], &'a [u64]);

/// What a report kind adds to the shared shard machinery. Every shard
/// keeps its kind's state in two flat arrays, `floats` and `words`; the
/// kind lays them out and folds one report into them.
pub(crate) trait ShardKind: Sized {
    /// The report this kind folds.
    type Report: ?Sized;
    /// Round geometry beyond the population (a degree-vector round's
    /// group count).
    type Geometry: Copy;

    /// Lays out shard `shard` of `stride`, which holds `slots` users: the
    /// kind's own per-shard state plus the lengths of the shard's float
    /// and word arrays.
    fn layout(
        geometry: Self::Geometry,
        shard: usize,
        stride: usize,
        slots: usize,
    ) -> (Self, usize, usize);

    /// Folds `report` of `user_id`, which sits in slot `slot`, into the
    /// shard's arrays. Runs under the shard mutex, called from the fold's
    /// hot path.
    fn fold_slot(
        &self,
        floats: &mut [f64],
        words: &mut [u64],
        slot: usize,
        user_id: usize,
        report: &Self::Report,
    );
}

/// The adjacency kind: `floats` holds each slot's reported (Laplace)
/// degree and `words` the triangularly packed rows — slot `s` (row
/// `shard + s·stride`) owns `words[offsets[s]..offsets[s + 1]]`.
#[derive(Debug)]
pub(crate) struct Adjacency {
    offsets: Vec<usize>,
}

impl ShardKind for Adjacency {
    type Report = AdjacencyReport;
    type Geometry = ();

    fn layout((): (), shard: usize, stride: usize, slots: usize) -> (Self, usize, usize) {
        let mut offsets = Vec::with_capacity(slots + 1);
        let mut total = 0usize;
        offsets.push(0);
        for s in 0..slots {
            total += owned_words(shard + s * stride);
            offsets.push(total);
        }
        (Adjacency { offsets }, slots, total)
    }

    fn fold_slot(
        &self,
        degrees: &mut [f64],
        words: &mut [u64],
        slot: usize,
        user_id: usize,
        report: &AdjacencyReport,
    ) {
        // `Shards::fold_one`'s caller guarantees `user_id < n`.
        debug_assert!(slot < degrees.len());
        let row = &mut words[self.offsets[slot]..self.offsets[slot + 1]];
        fold_lower_bits(row, &report.bits, user_id);
        degrees[slot] = report.degree;
    }
}

/// The degree-vector kind: `floats` holds the shard's running per-group
/// sums and `words` stays empty, so a shard has no per-slot state beyond
/// its seen-bitmap.
#[derive(Debug)]
pub(crate) struct DegreeVectors;

impl ShardKind for DegreeVectors {
    type Report = [f64];
    type Geometry = usize;

    fn layout(groups: usize, _: usize, _: usize, _: usize) -> (Self, usize, usize) {
        (DegreeVectors, groups, 0)
    }

    fn fold_slot(&self, sums: &mut [f64], _: &mut [u64], _: usize, _: usize, vector: &[f64]) {
        for (acc, x) in sums.iter_mut().zip(vector) {
            *acc += x;
        }
    }
}

/// One shard: the users `i ≡ shard (mod stride)`, user `i` in slot
/// `i / stride`.
#[derive(Debug)]
struct Shard<K> {
    /// Which slots have reported.
    seen: BitSet,
    /// The kind's float state: per-slot degrees or per-group sums.
    floats: Vec<f64>,
    /// The kind's word state: packed rows, or nothing.
    words: Vec<u64>,
    accepted: u64,
    duplicates: u64,
    kind: K,
}

impl<K: ShardKind> Shard<K> {
    /// Folds the report of `user_id` (slot `slot`) unless that user
    /// already reported; `false` on a duplicate, which is counted and
    /// dropped.
    // ldp-lint: hot-path(begin) -- runs under this shard's mutex on every
    // report that reaches a shard, as does the kind's `fold_slot` it calls;
    // acquiring any further lock here would serialize the whole ingest
    // plane (or deadlock against the checkpoint quiesce)
    fn fold_report(&mut self, slot: usize, user_id: usize, report: &K::Report) -> bool {
        if self.seen.get(slot) {
            self.duplicates += 1;
            return false;
        }
        self.seen.set(slot);
        self.kind
            .fold_slot(&mut self.floats, &mut self.words, slot, user_id, report);
        self.accepted += 1;
        true
    }
    // ldp-lint: hot-path(end)
}

/// The shard set of one round. Each shard sits behind its own mutex so
/// concurrent sessions fold without a global lock.
#[derive(Debug)]
pub(crate) struct Shards<K> {
    n: usize,
    shards: Vec<Mutex<Shard<K>>>,
}

impl<K: ShardKind> Shards<K> {
    pub(crate) fn new(n: usize, num_shards: usize, geometry: K::Geometry) -> Self {
        let num_shards = num_shards.max(1);
        let shards = (0..num_shards)
            .map(|s| {
                let slots = if n > s {
                    (n - s).div_ceil(num_shards)
                } else {
                    0
                };
                let (kind, floats, words) = K::layout(geometry, s, num_shards, slots);
                Mutex::new(Shard {
                    seen: BitSet::new(slots),
                    floats: vec![0.0; floats],
                    words: vec![0; words],
                    accepted: 0,
                    duplicates: 0,
                    kind,
                })
            })
            .collect();
        Shards { n, shards }
    }

    /// Folds one report under its owning shard's lock: `true` if folded,
    /// `false` for a duplicate id. The caller guarantees `user_id < n` and
    /// a report of this round's geometry. With `timed`, the wait for the
    /// shard mutex is measured and returned — the sampled probe behind
    /// the `ingest_shard_lock_wait_nanos` metric.
    pub(crate) fn fold_one(
        &self,
        user_id: usize,
        report: &K::Report,
        timed: bool,
    ) -> (bool, Option<u64>) {
        let stride = self.shards.len();
        let begin = timed.then(Instant::now);
        let mut shard = lock(&self.shards[user_id % stride]);
        let lock_wait = begin.map(|b| b.elapsed().as_nanos() as u64);
        (
            shard.fold_report(user_id / stride, user_id, report),
            lock_wait,
        )
    }
}

/// The kind-independent face of a shard set: what the round counters and
/// checkpoints need, reachable without matching on the round's channel.
pub(crate) trait ShardSet {
    /// Reports folded.
    fn accepted(&self) -> u64;

    /// Reports dropped as repeats of an already-folded id.
    fn duplicates(&self) -> u64;

    /// Raw pieces for checkpointing, per shard in index order. Takes
    /// `&mut self` — the checkpointing caller holds the round's slot write
    /// lock, so shard access is exclusive and lock-free here.
    fn snapshot_shards(&mut self) -> Vec<ShardSnapshot<'_>>;

    /// Rebuilds one shard from checkpointed pieces; `Err` on any size that
    /// does not match this population/shard geometry.
    fn restore_shard(
        &mut self,
        shard_idx: usize,
        accepted: u64,
        duplicates: u64,
        seen_words: Vec<u64>,
        floats: Vec<f64>,
        words: Vec<u64>,
    ) -> Result<(), &'static str>;
}

impl<K: ShardKind> ShardSet for Shards<K> {
    fn accepted(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).accepted).sum()
    }

    fn duplicates(&self) -> u64 {
        self.shards.iter().map(|s| lock(s).duplicates).sum()
    }

    fn snapshot_shards(&mut self) -> Vec<ShardSnapshot<'_>> {
        self.shards
            .iter_mut()
            .map(|m| {
                let s = inner_mut(m);
                (
                    s.accepted,
                    s.duplicates,
                    s.seen.words(),
                    &s.floats[..],
                    &s.words[..],
                )
            })
            .collect()
    }

    fn restore_shard(
        &mut self,
        shard_idx: usize,
        accepted: u64,
        duplicates: u64,
        seen_words: Vec<u64>,
        floats: Vec<f64>,
        words: Vec<u64>,
    ) -> Result<(), &'static str> {
        let shard = self
            .shards
            .get_mut(shard_idx)
            .map(inner_mut)
            .ok_or("shard index out of range")?;
        if seen_words.len() != shard.seen.words().len() {
            return Err("seen bitmap size mismatch");
        }
        if floats.len() != shard.floats.len() {
            return Err("degree or group sum count mismatch");
        }
        if words.len() != shard.words.len() {
            return Err("row storage size mismatch");
        }
        shard.seen.words_mut().copy_from_slice(&seen_words);
        shard.seen.mask_tail();
        shard.floats = floats;
        shard.words = words;
        shard.accepted = accepted;
        shard.duplicates = duplicates;
        Ok(())
    }
}

impl Shards<Adjacency> {
    /// Merges the shards into one lower-triangle matrix plus the
    /// reported-degree vector (deterministic: a straight copy of disjoint
    /// rows). The shard set is consumed; finalize the result with
    /// [`ldp_protocols::ingest::finalize_lower`].
    pub(crate) fn merge(self) -> (BitMatrix, Vec<f64>) {
        let n = self.n;
        let mut matrix = BitMatrix::new(n);
        let wpr = matrix.words_per_row();
        let mut degrees = vec![0.0f64; n];
        let stride = self.shards.len();
        {
            let rows = matrix.rows_mut(0, n);
            for (s, shard) in self.shards.into_iter().map(inner).enumerate() {
                let offsets = &shard.kind.offsets;
                let mut id = s;
                let mut slot = 0;
                while id < n {
                    let owned = &shard.words[offsets[slot]..offsets[slot + 1]];
                    rows[id * wpr..id * wpr + owned.len()].copy_from_slice(owned);
                    degrees[id] = shard.floats[slot];
                    id += stride;
                    slot += 1;
                }
            }
        }
        (matrix, degrees)
    }
}

impl Shards<DegreeVectors> {
    /// Per-group totals: shard partials summed in shard order
    /// (deterministic for a fixed shard count and per-shard arrival order).
    pub(crate) fn group_totals(self) -> Vec<f64> {
        let mut totals = Vec::new();
        for shard in self.shards.into_iter().map(inner) {
            // Every shard holds the round's `groups` sums.
            totals.resize(shard.floats.len(), 0.0f64);
            for (t, s) in totals.iter_mut().zip(&shard.floats) {
                *t += s;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_graph::Xoshiro256pp;
    use ldp_mechanisms::RandomizedResponse;
    use ldp_protocols::ingest::finalize_lower;
    use ldp_protocols::StreamingAggregator;
    use rand::Rng;

    fn synth_reports(n: usize, seed: u64) -> Vec<AdjacencyReport> {
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

    fn adjacency(n: usize, num_shards: usize) -> Shards<Adjacency> {
        Shards::new(n, num_shards, ())
    }

    fn fold_all(shards: &Shards<Adjacency>, batch: &[(u64, AdjacencyReport)]) {
        for (id, report) in batch {
            shards.fold_one(*id as usize, report, false);
        }
    }

    #[test]
    fn out_of_order_sharded_fold_matches_in_order_streaming() {
        let n = 173;
        let rr = RandomizedResponse::from_keep_probability(0.85).unwrap();
        let reports = synth_reports(n, 0xC0FFEE);

        let mut agg = StreamingAggregator::new(n, rr);
        agg.ingest_batch(&reports);
        let reference = agg.finalize();

        for num_shards in [1, 3, 8, 64] {
            let shards = adjacency(n, num_shards);
            // Reverse arrival order, in two batches.
            let mut batch: Vec<(u64, AdjacencyReport)> = reports
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r.clone()))
                .rev()
                .collect();
            let second = batch.split_off(n / 3);
            fold_all(&shards, &batch);
            fold_all(&shards, &second);
            assert_eq!(shards.accepted(), n as u64);
            let (matrix, degrees) = shards.merge();
            let view = finalize_lower(matrix, degrees, rr, 4);
            assert_eq!(view.matrix(), reference.matrix(), "{num_shards} shards");
            assert_eq!(view.reported_degrees(), reference.reported_degrees());
        }
    }

    #[test]
    fn concurrent_folds_match_sequential() {
        let n = 211;
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let reports = synth_reports(n, 0xFEED);

        let sequential = adjacency(n, 8);
        for (i, r) in reports.iter().enumerate() {
            assert!(sequential.fold_one(i, r, false).0);
        }
        let (matrix, degrees) = sequential.merge();
        let reference = finalize_lower(matrix, degrees, rr, 1);

        // Four threads racing interleaved id slices (i % 4 == t) into the
        // same shard set — plus every thread replaying thread 0's slice,
        // so duplicate races hit the seen-bitmaps from all sides.
        let concurrent = adjacency(n, 8);
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let shards = &concurrent;
                let reports = &reports;
                scope.spawn(move || {
                    for (i, r) in reports.iter().enumerate() {
                        if i % 4 == t || i % 4 == 0 {
                            // Timed on some threads: the same fold.
                            shards.fold_one(i, r, t % 2 == 1);
                        }
                    }
                });
            }
        });
        assert_eq!(concurrent.accepted(), n as u64);
        // Thread 0's slice was replayed by the other three threads.
        assert_eq!(concurrent.duplicates(), 3 * (n as u64).div_ceil(4));
        let (matrix, degrees) = concurrent.merge();
        let view = finalize_lower(matrix, degrees, rr, 1);
        assert_eq!(view.matrix(), reference.matrix());
        assert_eq!(view.reported_degrees(), reference.reported_degrees());
    }

    #[test]
    fn duplicates_are_rejected_not_refolded() {
        let n = 40;
        let reports = synth_reports(n, 7);
        let shards = adjacency(n, 4);
        for (i, r) in reports.iter().enumerate() {
            assert!(shards.fold_one(i, r, false).0);
        }
        // Replay half the population with different contents; a timed
        // fold reports its lock wait, an untimed one does not.
        for (i, r) in synth_reports(n, 8).iter().enumerate().take(n / 2) {
            let (folded, lock_wait) = shards.fold_one(i, r, i % 2 == 0);
            assert!(!folded);
            assert_eq!(lock_wait.is_some(), i % 2 == 0);
        }
        assert_eq!(shards.accepted(), n as u64);
        assert_eq!(shards.duplicates(), (n / 2) as u64);

        // The merged matrix matches the first-arrival-only fold.
        let rr = RandomizedResponse::from_keep_probability(0.9).unwrap();
        let (matrix, degrees) = shards.merge();
        let view = finalize_lower(matrix, degrees, rr, 1);
        let mut agg = StreamingAggregator::new(n, rr);
        agg.ingest_batch(&reports);
        assert_eq!(view.matrix(), agg.finalize().matrix());
    }

    #[test]
    fn degree_vector_totals_accumulate() {
        let n = 10;
        let k = 3;
        let shards = Shards::<DegreeVectors>::new(n, 4, k);
        for i in 0..n as u64 {
            assert!(shards.fold_one(i as usize, &[1.0, 2.0, i as f64], false).0);
        }
        // A duplicate upload changes nothing.
        assert!(!shards.fold_one(3, &[100.0, 100.0, 100.0], false).0);
        assert_eq!(shards.accepted(), 10);
        assert_eq!(shards.duplicates(), 1);
        let totals = shards.group_totals();
        assert_eq!(totals[0], 10.0);
        assert_eq!(totals[1], 20.0);
        assert_eq!(totals[2], 45.0);
    }

    #[test]
    fn empty_and_tiny_populations() {
        let shards = adjacency(0, 8);
        assert_eq!(shards.accepted(), 0);
        let (matrix, degrees) = shards.merge();
        assert_eq!(matrix.num_nodes(), 0);
        assert!(degrees.is_empty());

        // More shards than users.
        let n = 3;
        let reports = synth_reports(n, 1);
        let shards = adjacency(n, 16);
        for (i, r) in reports.iter().enumerate() {
            assert!(shards.fold_one(i, r, false).0);
        }
        assert_eq!(shards.accepted(), 3);
    }
}
