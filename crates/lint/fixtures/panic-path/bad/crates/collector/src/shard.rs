//! Two panic sites reachable from the daemon entry: an unwrap and an
//! unchecked index, in a function with no bounds evidence.
pub fn fold_entry(idx: usize, counts: &mut [u64]) -> u64 {
    counts[idx] += 1;
    *counts.last().unwrap()
}
