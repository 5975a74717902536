//! # poison-bench
//!
//! Criterion benchmark suites for the workspace. The crate exports only
//! shared bench fixtures ([`synthetic_report`]/[`synthetic_reports`]);
//! see the `benches/` targets:
//!
//! * `substrate` — bitset kernels, CSR/bit-matrix triangle counting,
//!   generators, randomized-response throughput;
//! * `ingest` — one-shot vs. streamed report aggregation at n ∈ {1k, 5k,
//!   10k} (the `ingest_smoke` binary writes the n=1k numbers to
//!   `BENCH_ingest.json` for the perf trajectory);
//! * `protocols` — LF-GDPR collection/aggregation/estimation, LDPGen
//!   end-to-end;
//! * `attacks` — report crafting and both evaluation pipelines;
//! * `defenses` — Apriori mining and the two detectors;
//! * `figures` — one bench per paper table/figure at smoke scale.
//!
//! The [`collector`] module carries the shared harness behind the
//! `collector_smoke` and `collector_loadgen` binaries (loopback daemon
//! setup, report replay, throughput accounting, `BENCH_collector.json` /
//! `BENCH_loadgen.json`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;

use ldp_graph::{BitSet, Xoshiro256pp};
use ldp_protocols::AdjacencyReport;
use rand::Rng;

/// Synthesizes one report over `n` users with word-level random bits at
/// ≈12.5% density (three AND-ed words — the regime an RR-perturbed graph
/// lives in), so ingestion benches isolate aggregation cost from
/// randomized-response cost.
pub fn synthetic_report(n: usize, rng: &mut Xoshiro256pp) -> AdjacencyReport {
    let mut bits = BitSet::new(n);
    for w in bits.words_mut() {
        *w = rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>();
    }
    bits.mask_tail();
    let degree = rng.gen_range(0.0..n.max(1) as f64);
    AdjacencyReport::new(bits, degree)
}

/// A full population of [`synthetic_report`]s from one seed.
pub fn synthetic_reports(n: usize, seed: u64) -> Vec<AdjacencyReport> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n).map(|_| synthetic_report(n, &mut rng)).collect()
}
