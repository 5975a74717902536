//! The collection client: typed calls over the frame protocol.
//!
//! [`CollectorClient`] is what simulated users (the load generator), the
//! scenario bridge, and operational tooling speak to a
//! [`crate::server::CollectorServer`]. Reports are written through a
//! buffered stream and are unacknowledged (see the server docs for why);
//! control calls flush and wait for their reply frame, surfacing daemon
//! refusals as typed [`CollectorError::Remote`] values.
//!
//! ## The batched send path
//!
//! The hot path of a million-report round is
//! [`CollectorClient::queue_adjacency_report`] /
//! [`CollectorClient::queue_degree_vector`]: each call appends one
//! length-prefixed entry to an in-memory batch, and every
//! [`CollectorClient::batch_size`] entries the batch leaves as **one**
//! `REPORT_BATCH` frame — one length prefix, one frame dispatch, and one
//! engine round-trip on the daemon per *batch* instead of per report.
//! [`CollectorClient::send_batch`] flushes a partial batch explicitly;
//! every control call does so implicitly, so reports can never be
//! reordered around a close. Concurrent uploaders end their stream with
//! [`CollectorClient::sync`] — an acknowledged barrier proving the
//! daemon folded everything this session sent — before the coordinating
//! session closes the round.
//!
//! ## Round routing
//!
//! The daemon multiplexes concurrent rounds, so every report frame names
//! its round. The client tracks a **current round** — set by
//! [`CollectorClient::open_round`] or explicitly with
//! [`CollectorClient::set_round`] (uploader sessions that never open
//! anything use the latter) — and stamps it into each `REPORT_BATCH`
//! frame. Switching rounds flushes the queued batch
//! first, so a batch frame is always homogeneous in its round. Rounds
//! are owned by a tenant ([`CollectorClient::with_tenant`], default 0)
//! for the daemon's per-tenant admission quotas.
//!
//! ## Retry
//!
//! [`CollectorClient::with_retry`] sets a [`RetryPolicy`]. A
//! transport-class failure (a socket error, or a stream that died
//! mid-frame) then drops the connection, backs off (exponential, with
//! seeded jitter), reconnects to the addresses resolved at
//! [`CollectorClient::connect`] and runs the operation again, up to
//! [`RetryPolicy::max_attempts`]. Every `REPORT_BATCH` frame written
//! since the last acknowledged [`CollectorClient::sync`] is kept
//! verbatim, round id included, and written back down each new
//! connection first — a resent report lands in the round it was sent
//! to. The daemon's duplicate-id rejection (rebuilt from its journal
//! after a crash) discards the copies it already folded, so
//! at-least-once resend is exactly-once ingest; resent duplicates still
//! charge the round's quota and count as `rejected_duplicate`. The
//! window holds at most [`RetryPolicy::resend_window`] reports: reaching
//! it forces a `sync`. Without a policy nothing is kept and every call
//! runs once.

use crate::error::CollectorError;
use crate::round::{RoundChannel, RoundCounters};
use crate::server::{channel_tags, codes, frames};
use ldp_protocols::wire::{
    self, get_f64, get_varint, put_f64, put_varint, read_frame, read_stream_header, write_frame,
    write_stream_header, WireError,
};
use ldp_protocols::{AdjacencyReport, PerturbedView, UserReport};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide count of batches a dropped client failed to flush (see
/// the [`Drop`] impl): the destructor cannot return an error, so the
/// swallow is *counted* instead of silent, readable via
/// [`CollectorClient::pending_flush_failed`].
static PENDING_FLUSH_FAILURES: AtomicU64 = AtomicU64::new(0);

/// Entries a queued batch accumulates before it leaves as one
/// `REPORT_BATCH` frame (overridable per client with
/// [`CollectorClient::with_batch_size`]).
pub const DEFAULT_BATCH_REPORTS: usize = 256;

/// The close-time intake summary the daemon returns, plus how many users
/// are still outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundSummary {
    /// Intake counters as the daemon saw them.
    pub counters: RoundCounters,
}

/// A finalized degree-vector round as seen by the client.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeVectorSummary {
    /// Per-group totals over all accepted vectors.
    pub group_totals: Vec<f64>,
    /// Vectors the daemon folded in.
    pub accepted: u64,
}

/// A connection to the collection daemon — reconnecting under a
/// [`RetryPolicy`] when one is set (see the module docs).
pub struct CollectorClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The daemon's resolved addresses, dialled again on reconnect.
    addrs: Vec<SocketAddr>,
    payload: Vec<u8>,
    /// Accumulated length-prefixed batch entries awaiting one
    /// `REPORT_BATCH` frame.
    batch: Vec<u8>,
    batch_count: usize,
    batch_cap: usize,
    /// The round id stamped into outgoing report frames.
    round: u64,
    /// Tenant stamped into `OPEN` frames (admission quotas key on it).
    tenant: u64,
    /// Socket deadline in force, applied again to every reconnection.
    op_timeout: Option<Duration>,
    /// Reconnect-and-resend state; `None` for a client without a policy.
    retry: Option<Retry>,
}

impl CollectorClient {
    /// Connects and performs the versioned handshake. A socket-level
    /// failure surfaces as [`CollectorError::Transport`] carrying the
    /// address (every resolved candidate is tried), so an operator — or a
    /// retry policy — reads *which* collector was unreachable instead of
    /// a bare I/O error.
    ///
    /// # Errors
    /// [`CollectorError::Transport`] on connect failures, or a peer that
    /// is not a collector daemon
    /// ([`ldp_protocols::WireError::BadMagic`] /
    /// [`ldp_protocols::WireError::UnsupportedVersion`]).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, CollectorError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|error| CollectorError::Transport {
                target: "<address resolution>".to_string(),
                error,
            })?
            .collect();
        let (reader, writer) = dial(&addrs, None)?;
        Ok(CollectorClient {
            reader,
            writer,
            addrs,
            payload: Vec::new(),
            batch: Vec::new(),
            batch_count: 0,
            batch_cap: DEFAULT_BATCH_REPORTS,
            round: 0,
            tenant: 0,
            op_timeout: None,
            retry: None,
        })
    }

    /// Bounds how long any single control call may block on the socket
    /// (read and write side): past the deadline the call fails with a
    /// transport-class error instead of hanging on a daemon that died
    /// mid-reply. `None` restores blocking calls. A reconnect under a
    /// [`RetryPolicy`] applies the same deadline to the new connection,
    /// handshake included.
    ///
    /// # Errors
    /// Socket option failures.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> Result<(), CollectorError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.get_ref().set_write_timeout(timeout)?;
        self.op_timeout = timeout;
        Ok(())
    }

    /// Sets the policy under which transport failures reconnect and
    /// resend (see the module docs); the connection made by
    /// [`Self::connect`] is kept.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(Retry::new(policy));
        self
    }

    /// Reconnections performed so far (always 0 without a retry policy).
    pub fn reconnects(&self) -> u64 {
        self.retry.as_ref().map_or(0, |retry| retry.reconnects)
    }

    /// Severs the current connection without telling the daemon — the
    /// fault-injection hook crash tests use to exercise the reconnect
    /// and resend path deterministically.
    #[doc(hidden)]
    pub fn fault_disconnect(&mut self) {
        let _ = self.reader.get_ref().shutdown(std::net::Shutdown::Both);
    }

    /// How many dropped clients (process-wide) failed their implicit
    /// batch flush — the destructor's swallowed errors, counted instead
    /// of silent.
    pub fn pending_flush_failed() -> u64 {
        PENDING_FLUSH_FAILURES.load(Ordering::Relaxed)
    }

    /// Sets the tenant this session opens rounds as (default 0). The
    /// daemon's per-tenant round quotas key on it.
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.tenant = tenant;
        self
    }

    /// The round id currently stamped into outgoing report frames.
    pub fn current_round(&self) -> u64 {
        self.round
    }

    /// Points subsequent report frames at `round_id` — how an uploader
    /// session that never opens a round picks its target, and how one
    /// session interleaves uploads across several rounds. Flushes any
    /// queued batch first so a `REPORT_BATCH` frame is always homogeneous
    /// in its round.
    ///
    /// # Errors
    /// Transport failures from the batch flush.
    pub fn set_round(&mut self, round_id: u64) -> Result<(), CollectorError> {
        if self.round != round_id {
            self.send_batch()?;
            self.round = round_id;
        }
        Ok(())
    }

    /// Sets how many queued reports accumulate before a `REPORT_BATCH`
    /// frame is emitted (clamped to
    /// `1..=`[`wire::MAX_REPORTS_PER_BATCH`]).
    pub fn with_batch_size(mut self, reports: usize) -> Self {
        self.batch_cap = reports.clamp(1, wire::MAX_REPORTS_PER_BATCH);
        self
    }

    /// The batch size in force.
    pub fn batch_size(&self) -> usize {
        self.batch_cap
    }

    /// Opens a round on the daemon (as this session's tenant) and makes
    /// it the current round for subsequent reports. `quota: None` lets
    /// the daemon default to the population size.
    ///
    /// Under a [`RetryPolicy`], a `ROUND_ALREADY_OPEN` refusal of an
    /// `OPEN` resent after a reconnect within this call counts as
    /// success: the first copy reached the daemon, or the round was
    /// recovered by the daemon reconnected to. A refusal of the first
    /// copy surfaces — round ids are global across tenants, so the round
    /// may be another session's.
    ///
    /// # Errors
    /// Daemon refusals (cap or admission quota exceeded, duplicate round
    /// id) as [`CollectorError::Remote`]; transport failures otherwise.
    pub fn open_round(
        &mut self,
        round_id: u64,
        channel: RoundChannel,
        quota: Option<u64>,
    ) -> Result<(), CollectorError> {
        let mut payload = Vec::new();
        put_varint(round_id, &mut payload);
        put_varint(self.tenant, &mut payload);
        match channel {
            RoundChannel::Adjacency { population, p_keep } => {
                payload.push(channel_tags::ADJACENCY);
                put_varint(population as u64, &mut payload);
                put_f64(p_keep, &mut payload);
            }
            RoundChannel::DegreeVector { population, groups } => {
                payload.push(channel_tags::DEGREE_VECTOR);
                put_varint(population as u64, &mut payload);
                put_varint(groups as u64, &mut payload);
            }
        }
        put_varint(quota.unwrap_or(0), &mut payload);
        let mut sends = 0u32;
        let reply = self.call(|c| {
            sends += 1;
            c.exchange(frames::OPEN, &payload)
        });
        match reply {
            Ok(frames::ACK) => {}
            Err(CollectorError::Remote { code, .. })
                if code == codes::ROUND_ALREADY_OPEN && sends > 1 => {}
            Ok(kind) => return Err(CollectorError::UnexpectedFrame { kind }),
            Err(e) => return Err(e),
        }
        self.round = round_id;
        Ok(())
    }

    /// Queues one report for the batched send path; a full batch leaves
    /// as one `REPORT_BATCH` frame. The hot path of a million-report
    /// round. Entries themselves are unrouted — the batch frame's head
    /// carries the round id, stamped when the batch is emitted (see
    /// [`Self::set_round`] for why a batch is homogeneous).
    ///
    /// # Errors
    /// Transport failures (only when a full batch is emitted, or a full
    /// resend window forces a [`Self::sync`]).
    pub fn queue_report(
        &mut self,
        user_id: u64,
        report: &UserReport,
    ) -> Result<(), CollectorError> {
        let mut scratch = std::mem::take(&mut self.payload);
        scratch.clear();
        wire::encode_report(user_id, report, &mut scratch);
        self.payload = scratch;
        self.push_batch_entry()
    }

    /// [`Self::queue_report`] from a borrowed adjacency report — no
    /// wrapping, no clone.
    ///
    /// # Errors
    /// As [`Self::queue_report`].
    pub fn queue_adjacency_report(
        &mut self,
        user_id: u64,
        report: &AdjacencyReport,
    ) -> Result<(), CollectorError> {
        let mut scratch = std::mem::take(&mut self.payload);
        scratch.clear();
        wire::encode_adjacency_report(user_id, report, &mut scratch);
        self.payload = scratch;
        self.push_batch_entry()
    }

    /// [`Self::queue_report`] from a borrowed degree vector.
    ///
    /// # Errors
    /// As [`Self::queue_report`].
    pub fn queue_degree_vector(
        &mut self,
        user_id: u64,
        vector: &[f64],
    ) -> Result<(), CollectorError> {
        let mut scratch = std::mem::take(&mut self.payload);
        scratch.clear();
        wire::encode_degree_vector_report(user_id, vector, &mut scratch);
        self.payload = scratch;
        self.push_batch_entry()
    }

    /// Appends the entry staged in `self.payload` to the batch — the one
    /// place the entry framing (varint length + bytes) lives on the
    /// client — and emits the batch once it reaches the configured count
    /// or [`Self::BATCH_FLUSH_BYTES`]: the byte bound keeps a legal
    /// round's batch frame far below [`wire::MAX_FRAME_LEN`] whatever
    /// the per-entry size (a 2¹⁶-group degree vector is ~512 KiB alone).
    /// Under a [`RetryPolicy`], a full resend window forces a
    /// [`Self::sync`].
    fn push_batch_entry(&mut self) -> Result<(), CollectorError> {
        put_varint(self.payload.len() as u64, &mut self.batch);
        let payload = std::mem::take(&mut self.payload);
        self.batch.extend_from_slice(&payload);
        self.payload = payload;
        self.batch_count += 1;
        if self.batch_count >= self.batch_cap || self.batch.len() >= Self::BATCH_FLUSH_BYTES {
            self.send_batch()?;
        }
        if let Some(retry) = &self.retry {
            if retry.window_reports + self.batch_count >= retry.policy.resend_window.max(1) {
                self.sync()?;
            }
        }
        Ok(())
    }

    /// Byte threshold past which a queued batch is emitted regardless of
    /// entry count (1 MiB — 64× under the frame cap, so even the largest
    /// legal single entry appended on top cannot overflow a frame).
    pub const BATCH_FLUSH_BYTES: usize = 1 << 20;

    /// Emits any queued reports as one `REPORT_BATCH` frame (buffered,
    /// unacknowledged). A no-op when nothing is queued; control calls
    /// invoke this implicitly.
    ///
    /// # Errors
    /// Transport failures.
    pub fn send_batch(&mut self) -> Result<(), CollectorError> {
        self.call(Self::emit_batch)
    }

    /// [`Self::send_batch`] without retry, run by every call body before
    /// its own frame. Under a [`RetryPolicy`] the frame enters the resend
    /// window before it is written, so a failed write loses nothing.
    fn emit_batch(&mut self) -> Result<(), CollectorError> {
        if self.batch_count == 0 {
            return Ok(());
        }
        let mut head = Vec::with_capacity(20);
        put_varint(self.round, &mut head);
        put_varint(self.batch_count as u64, &mut head);
        if let Some(retry) = self.retry.as_mut() {
            let start = retry.window.len();
            wire::write_frame_split(&mut retry.window, frames::REPORT_BATCH, &head, &self.batch)?;
            retry.window_reports += self.batch_count;
            self.batch.clear();
            self.batch_count = 0;
            self.writer.write_all(&retry.window[start..])?;
        } else {
            wire::write_frame_split(&mut self.writer, frames::REPORT_BATCH, &head, &self.batch)?;
            self.batch.clear();
            self.batch_count = 0;
        }
        Ok(())
    }

    /// Flushes queued and buffered report frames to the daemon (control
    /// calls flush implicitly; rate-paced senders flush at batch
    /// boundaries so the daemon sees a steady stream).
    ///
    /// # Errors
    /// Transport failures.
    pub fn flush(&mut self) -> Result<(), CollectorError> {
        self.call(|c| {
            c.emit_batch()?;
            c.writer.flush()?;
            Ok(())
        })
    }

    /// Acknowledged barrier: returns once the daemon has ingested every
    /// report this session sent so far. Concurrent uploaders call this
    /// before the coordinating session closes the round — the daemon
    /// processes a session's frames in order, so the `ACK` proves the
    /// close summary will include everything sent here. The `ACK` also
    /// empties the resend window of a client with a [`RetryPolicy`].
    ///
    /// This is also where *asynchronous* typed errors land: reports are
    /// unacknowledged, so a misdirected frame (unknown or closed round)
    /// is answered with an `ERR` that arrives ahead of the barrier's
    /// `ACK`. The barrier reads through to its own `ACK` and surfaces
    /// the first such error — the reply stream stays aligned for the
    /// next control call even on the error path.
    ///
    /// # Errors
    /// Daemon refusals — including deferred refusals of earlier report
    /// frames — and transport failures.
    pub fn sync(&mut self) -> Result<(), CollectorError> {
        self.call(|c| {
            c.emit_batch()?;
            write_frame(&mut c.writer, frames::SYNC, &[])?;
            let mut first_err = None;
            loop {
                match c.read_reply() {
                    Ok(kind) if kind == frames::ACK => break,
                    Ok(kind) => return Err(CollectorError::UnexpectedFrame { kind }),
                    Err(e @ CollectorError::Remote { .. }) => first_err = first_err.or(Some(e)),
                    // Transport death (e.g. the daemon dropped a refused
                    // session): report the typed refusal if one arrived.
                    Err(e) => return Err(first_err.unwrap_or(e)),
                }
            }
            if let Some(retry) = c.retry.as_mut() {
                retry.window.clear();
                retry.window_reports = 0;
            }
            first_err.map_or(Ok(()), Err)
        })
    }

    /// Closes intake and returns the daemon's summary. Under a
    /// [`RetryPolicy`], unacknowledged reports are synced first, so a
    /// reconnect during the close replays no report after the `CLOSE`;
    /// a resent `CLOSE` is a no-op on the closed round.
    ///
    /// # Errors
    /// Daemon refusals and transport failures.
    pub fn close_round(&mut self, round_id: u64) -> Result<RoundSummary, CollectorError> {
        if let Some(retry) = &self.retry {
            if retry.window_reports + self.batch_count > 0 {
                self.sync()?;
            }
        }
        self.request(frames::CLOSE, &round_payload(round_id), frames::SUMMARY)?;
        let mut buf = self.payload.as_slice();
        let accepted = get_varint(&mut buf)?;
        let rejected_duplicate = get_varint(&mut buf)?;
        let rejected_quota = get_varint(&mut buf)?;
        let rejected_invalid = get_varint(&mut buf)?;
        let rejected_malformed = get_varint(&mut buf)?;
        let (&finalized, rest) = buf
            .split_first()
            .ok_or(CollectorError::Wire(wire::WireError::Truncated))?;
        wire::expect_end(rest)?;
        let counters = RoundCounters {
            accepted,
            rejected_duplicate,
            rejected_quota,
            rejected_invalid,
            rejected_malformed,
            finalized_at_close: finalized != 0,
        };
        Ok(RoundSummary { counters })
    }

    /// Scrapes the daemon's metrics registry: every counter, gauge, and
    /// histogram as typed entries (see
    /// [`CollectorMetrics`](crate::CollectorMetrics) for the name set).
    /// Safe to call mid-round from any session — the snapshot is relaxed
    /// and never blocks ingest. With metrics disabled on the daemon the
    /// scrape still succeeds and reads zeros.
    ///
    /// # Errors
    /// Daemon refusals and transport failures.
    pub fn stats(&mut self) -> Result<Vec<wire::StatsEntry>, CollectorError> {
        self.request(frames::STATS, &[], frames::STATS_REPLY)?;
        Ok(wire::decode_stats_reply(&self.payload)?)
    }

    /// Finalizes an adjacency round into the server view — bit-identical
    /// to aggregating the same reports in process.
    ///
    /// Under a [`RetryPolicy`], a `FINALIZE` whose reply was lost is
    /// resent. If the first copy reached the daemon, the round is already
    /// consumed and the resend is refused with `NO_OPEN_ROUND`: the
    /// daemon keeps no finalized aggregate to send again.
    ///
    /// # Errors
    /// [`CollectorError::Remote`] while reports are outstanding or on a
    /// degree-vector round; transport failures otherwise.
    pub fn finalize_adjacency(&mut self, round_id: u64) -> Result<PerturbedView, CollectorError> {
        match self.call(|c| c.exchange(frames::FINALIZE, &round_payload(round_id)))? {
            frames::VIEW => Ok(wire::decode_view(&self.payload)?),
            frames::DEGREE_SUMMARY => Err(CollectorError::WrongChannel {
                expected: "adjacency",
            }),
            kind => Err(CollectorError::UnexpectedFrame { kind }),
        }
    }

    /// Finalizes a degree-vector round into its per-group totals.
    ///
    /// # Errors
    /// As [`Self::finalize_adjacency`], with the channels swapped.
    pub fn finalize_degree_vector(
        &mut self,
        round_id: u64,
    ) -> Result<DegreeVectorSummary, CollectorError> {
        match self.call(|c| c.exchange(frames::FINALIZE, &round_payload(round_id)))? {
            frames::DEGREE_SUMMARY => {
                let mut buf = self.payload.as_slice();
                let accepted = get_varint(&mut buf)?;
                let k = get_varint(&mut buf)? as usize;
                if k > wire::MAX_WIRE_POPULATION {
                    return Err(CollectorError::Wire(wire::WireError::OversizePopulation {
                        claimed: k as u64,
                    }));
                }
                let mut group_totals = Vec::with_capacity(k);
                for _ in 0..k {
                    group_totals.push(get_f64(&mut buf)?);
                }
                wire::expect_end(buf)?;
                Ok(DegreeVectorSummary {
                    group_totals,
                    accepted,
                })
            }
            frames::VIEW => Err(CollectorError::WrongChannel {
                expected: "degree-vector",
            }),
            kind => Err(CollectorError::UnexpectedFrame { kind }),
        }
    }

    /// Asks the daemon to checkpoint `round_id` into its data-directory
    /// journal.
    ///
    /// # Errors
    /// Daemon refusals (`CHECKPOINT_FAILED` from a daemon without a data
    /// dir, unknown round) and transport failures.
    pub fn checkpoint(&mut self, round_id: u64) -> Result<(), CollectorError> {
        self.request(frames::CHECKPOINT, &round_payload(round_id), frames::ACK)
    }

    /// Stops the daemon after this session. Under a [`RetryPolicy`] it is
    /// retried like every other call: if the connection dies before the
    /// `ACK`, the client reconnects and sends `SHUTDOWN` again, and a
    /// daemon that already stopped leaves the last `Transport` error to
    /// surface once the attempts run out.
    ///
    /// # Errors
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<(), CollectorError> {
        self.request(frames::SHUTDOWN, &[], frames::ACK)
    }

    /// Convenience: runs one complete adjacency round — open, stream one
    /// report per user (ids are the slice indices) over the batched
    /// path, close, finalize.
    ///
    /// # Errors
    /// Any refusal or transport failure along the way; also
    /// [`CollectorError::RoundIncomplete`]-style daemon refusals if the
    /// daemon rejected reports (the summary is consulted first).
    pub fn run_adjacency_round(
        &mut self,
        round_id: u64,
        p_keep: f64,
        reports: &[AdjacencyReport],
    ) -> Result<PerturbedView, CollectorError> {
        self.open_round(
            round_id,
            RoundChannel::Adjacency {
                population: reports.len(),
                p_keep,
            },
            None,
        )?;
        for (id, report) in reports.iter().enumerate() {
            self.queue_adjacency_report(id as u64, report)?;
        }
        self.close_round(round_id)?;
        self.finalize_adjacency(round_id)
    }

    /// One retried control exchange whose reply must be of kind `reply`
    /// (its payload is left in `self.payload`).
    fn request(&mut self, kind: u8, payload: &[u8], reply: u8) -> Result<(), CollectorError> {
        match self.call(|c| c.exchange(kind, payload))? {
            got if got == reply => Ok(()),
            got => Err(CollectorError::UnexpectedFrame { kind: got }),
        }
    }

    /// One control exchange, without retry: emits the queued batch (so
    /// reports are never reordered around a control frame), writes the
    /// frame, and reads the reply.
    fn exchange(&mut self, kind: u8, payload: &[u8]) -> Result<u8, CollectorError> {
        self.emit_batch()?;
        write_frame(&mut self.writer, kind, payload)?;
        self.read_reply()
    }

    /// Runs `body` once, or, under a [`RetryPolicy`], until it succeeds,
    /// fails with a non-transport error, or uses up
    /// [`RetryPolicy::max_attempts`] — backing off and reconnecting
    /// before each further run. The one retry loop every public call
    /// goes through.
    fn call<T>(
        &mut self,
        mut body: impl FnMut(&mut Self) -> Result<T, CollectorError>,
    ) -> Result<T, CollectorError> {
        let mut attempt = 0u32;
        loop {
            let result = if attempt == 0 {
                body(self)
            } else {
                self.reconnect().and_then(|()| body(self))
            };
            let e = match result {
                Ok(value) => return Ok(value),
                Err(e) => e,
            };
            let Some(retry) = self.retry.as_mut() else {
                return Err(e);
            };
            attempt += 1;
            if !is_transport(&e) || attempt >= retry.policy.max_attempts.max(1) {
                return Err(e);
            }
            std::thread::sleep(retry.backoff(attempt));
        }
    }

    /// Replaces the connection: a fresh handshake under the op timeout,
    /// then the resend window written back verbatim. The old stream's
    /// unsent bytes are discarded, not flushed — the window and the
    /// re-run call body send them again.
    fn reconnect(&mut self) -> Result<(), CollectorError> {
        let (reader, writer) = dial(&self.addrs, self.op_timeout)?;
        self.reader = reader;
        let _ = std::mem::replace(&mut self.writer, writer).into_parts();
        if let Some(retry) = self.retry.as_mut() {
            retry.reconnects += 1;
            self.writer.write_all(&retry.window)?;
        }
        Ok(())
    }

    /// Flushes the report stream and reads the next reply frame into the
    /// internal payload buffer.
    fn read_reply(&mut self) -> Result<u8, CollectorError> {
        self.writer.flush()?;
        match read_frame(&mut self.reader, &mut self.payload)? {
            Some(frames::ERR) => {
                let mut buf = self.payload.as_slice();
                let (&code, rest) = buf
                    .split_first()
                    .ok_or(CollectorError::Wire(wire::WireError::Truncated))?;
                buf = rest;
                let len = get_varint(&mut buf)? as usize;
                if buf.len() != len {
                    return Err(CollectorError::Wire(wire::WireError::Truncated));
                }
                let message = String::from_utf8_lossy(buf).into_owned();
                Err(CollectorError::Remote { code, message })
            }
            Some(kind) => Ok(kind),
            None => Err(CollectorError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the session mid-call",
            ))),
        }
    }

    /// Flushes the queued batch and stream buffer, swallowing (but
    /// counting — see [`Self::pending_flush_failed`]) any failure.
    /// Returns whether the flush reached the socket.
    fn flush_lossy(&mut self) -> bool {
        let flushed = self
            .emit_batch()
            .and_then(|()| Ok(self.writer.flush()?))
            .is_ok();
        if !flushed {
            PENDING_FLUSH_FAILURES.fetch_add(1, Ordering::Relaxed);
        }
        flushed
    }
}

/// A partially filled batch is best-effort flushed on drop, matching the
/// unbatched send path (whose bytes sat in the `BufWriter` and left on
/// *its* drop). A failed flush cannot surface from a destructor, so it
/// is **counted** (process-wide, readable via
/// [`CollectorClient::pending_flush_failed`]) rather than silently
/// discarded — an uploader that needs delivery *proof* must still end
/// with [`CollectorClient::sync`].
impl Drop for CollectorClient {
    fn drop(&mut self) {
        let _ = self.flush_lossy();
    }
}

/// The payload of a control frame that names only a round.
fn round_payload(round_id: u64) -> Vec<u8> {
    let mut payload = Vec::new();
    put_varint(round_id, &mut payload);
    payload
}

/// Connects to the first reachable candidate and performs the versioned
/// handshake under `timeout`. A socket-level failure is a
/// [`CollectorError::Transport`] naming every candidate.
fn dial(
    addrs: &[SocketAddr],
    timeout: Option<Duration>,
) -> Result<(BufReader<TcpStream>, BufWriter<TcpStream>), CollectorError> {
    let mut last: Option<std::io::Error> = None;
    for &candidate in addrs {
        match TcpStream::connect(candidate) {
            Ok(stream) => {
                stream.set_nodelay(true)?;
                stream.set_read_timeout(timeout)?;
                stream.set_write_timeout(timeout)?;
                let mut writer = BufWriter::with_capacity(1 << 16, stream.try_clone()?);
                let mut reader = BufReader::with_capacity(1 << 16, stream);
                write_stream_header(&mut writer)?;
                writer.flush()?;
                read_stream_header(&mut reader)?;
                return Ok((reader, writer));
            }
            Err(error) => last = Some(error),
        }
    }
    Err(CollectorError::Transport {
        target: if addrs.is_empty() {
            "<no addresses resolved>".to_string()
        } else {
            addrs
                .iter()
                .map(SocketAddr::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        },
        error: last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::AddrNotAvailable,
                "the address resolved to nothing",
            )
        }),
    })
}

/// How a [`CollectorClient`] set up with [`CollectorClient::with_retry`]
/// paces and bounds its reconnects, and how many reports it keeps for
/// resend.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Attempts per operation before the last transport error surfaces
    /// (clamped to at least 1).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further attempt.
    pub base_backoff: Duration,
    /// Ceiling the exponential backoff saturates at.
    pub max_backoff: Duration,
    /// Seed of the deterministic backoff jitter — same seed, same
    /// schedule, so fault-injection tests replay identically.
    pub seed: u64,
    /// Reports the resend window may hold before a forced
    /// [`CollectorClient::sync`] (clamped to at least 1), bounding both
    /// client memory and the resend burst after a crash.
    pub resend_window: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            seed: 0x1d9_c011,
            resend_window: 1024,
        }
    }
}

/// True for failures a reconnect can cure: socket-level errors and a
/// stream that died mid-frame. Typed daemon refusals and codec errors
/// are *not* retried — resending a refused frame re-refuses it.
fn is_transport(e: &CollectorError) -> bool {
    matches!(
        e,
        CollectorError::Io(_)
            | CollectorError::Transport { .. }
            | CollectorError::Wire(WireError::Io(_))
    )
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`RetryPolicy`] in force, with the state it keeps between calls.
struct Retry {
    policy: RetryPolicy,
    jitter_state: u64,
    reconnects: u64,
    /// Every `REPORT_BATCH` frame written since the last acknowledged
    /// `SYNC`, verbatim — the at-least-once resend set.
    window: Vec<u8>,
    /// Reports those frames carry.
    window_reports: usize,
}

impl Retry {
    fn new(policy: RetryPolicy) -> Self {
        Retry {
            jitter_state: policy.seed,
            policy,
            reconnects: 0,
            window: Vec::new(),
            window_reports: 0,
        }
    }

    /// Exponential backoff before retry `attempt` (1-based), jittered
    /// deterministically into `[cap/2, cap)` so a fleet of clients with
    /// different seeds does not reconnect in lockstep.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let cap = self
            .policy
            .base_backoff
            .saturating_mul(1 << doublings)
            .min(self.policy.max_backoff);
        let frac = (splitmix64(&mut self.jitter_state) >> 40) as f64 / (1u64 << 24) as f64;
        cap.mul_f64(0.5 + 0.5 * frac)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<Duration> {
        let mut retry = Retry::new(RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(300),
            seed,
            ..RetryPolicy::default()
        });
        (1..=20).map(|attempt| retry.backoff(attempt)).collect()
    }

    /// The same seed replays the same schedule; each delay lies in
    /// `[cap/2, cap)`, where `cap` doubles from `base_backoff` (10, 20,
    /// 40, 80, 160 ms) and then saturates at `max_backoff` (300 ms).
    #[test]
    fn backoff_doubles_from_the_base_saturates_and_jitters_by_seed() {
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        for seed in 0..64 {
            for (doublings, delay) in (0u32..).zip(schedule(seed)) {
                let cap =
                    Duration::from_millis(10 << doublings.min(10)).min(Duration::from_millis(300));
                assert!(
                    cap / 2 <= delay && delay < cap,
                    "seed {seed}, retry {}: {delay:?} outside [{:?}, {cap:?})",
                    doublings + 1,
                    cap / 2
                );
            }
        }
    }
}
