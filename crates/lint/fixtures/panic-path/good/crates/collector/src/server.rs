//! Negative: the same shape returns typed errors instead of panicking.
pub fn process_frame(kind: u8, counts: &mut [u64]) -> Result<u64, u8> {
    route(kind, counts)
}

fn route(kind: u8, counts: &mut [u64]) -> Result<u64, u8> {
    crate::shard::fold_entry(kind as usize, counts)
}
