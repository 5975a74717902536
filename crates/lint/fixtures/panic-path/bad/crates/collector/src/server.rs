//! Seeded violation: the frame path reaches panic sites two calls away,
//! in another file (`shard.rs`). The findings must carry the full witness
//! path `process_frame → route → fold_entry`.
pub fn process_frame(kind: u8, counts: &mut [u64]) -> u64 {
    route(kind, counts)
}

fn route(kind: u8, counts: &mut [u64]) -> u64 {
    crate::shard::fold_entry(kind as usize, counts)
}
