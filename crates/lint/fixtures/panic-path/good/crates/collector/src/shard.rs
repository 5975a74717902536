//! The checked twin: `get_mut` and `last` propagate instead of panicking.
pub fn fold_entry(idx: usize, counts: &mut [u64]) -> Result<u64, u8> {
    let slot = counts.get_mut(idx).ok_or(1u8)?;
    *slot += 1;
    counts.last().copied().ok_or(2u8)
}
