//! Positive: the frame-apply function stages its `ACK` (and the close
//! `SUMMARY`) before the journal append — a crash between the reply and
//! the append acknowledges a report the journal never saw.

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
    let reply = match kind {
        0x01 => frames::ACK,
        _ => frames::SUMMARY,
    };
    journal.append(payload);
    reply
}
