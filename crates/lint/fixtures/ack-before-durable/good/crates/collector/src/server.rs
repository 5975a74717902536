//! Negative: write-ahead order respected — the journal append comes
//! first, and only then is the reply constant staged. Other functions
//! (read-only frames like `SYNC`) may stage replies freely: nothing
//! they answer is journaled.

pub mod frames {
    pub const ACK: u8 = 0x81;
    pub const SUMMARY: u8 = 0x83;
}

pub struct Journal {
    bytes: u64,
}

impl Journal {
    pub fn append(&mut self, payload: &[u8]) {
        self.bytes += payload.len() as u64;
    }
}

pub fn apply_frame(journal: &mut Journal, kind: u8, payload: &[u8]) -> u8 {
    journal.append(payload);
    match kind {
        0x01 => frames::ACK,
        _ => frames::SUMMARY,
    }
}

pub fn process_frame(kind: u8) -> u8 {
    match kind {
        0x01 => frames::ACK,
        _ => frames::SUMMARY,
    }
}
