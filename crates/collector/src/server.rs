//! The collection daemon: a TCP front-end over the round engine.
//!
//! One [`CollectorServer`] owns a [`std::net::TcpListener`] and a
//! [`RoundCollector`]. Accepted connections are **not** threads: they are
//! small state machines (a socket, an assembly buffer, a warn-once set)
//! multiplexed over a bounded pool of
//! [`CollectorConfig::worker_threads`](crate::CollectorConfig::worker_threads)
//! workers, so an idle connection costs a buffer, not a stack — the
//! daemon holds up to
//! [`CollectorConfig::max_sessions`](crate::CollectorConfig::max_sessions)
//! of them, and a connect past that cap is refused with a typed
//! `ERR`/`SESSION_CAP` after a short bounded wait, never queued
//! indefinitely. Each worker pops a connection, drains whatever bytes the
//! socket holds, processes up to a burst of complete frames, stages the
//! replies, and rotates to the next connection; a connection stuck
//! mid-frame past the stall timeout (half-written batch, wedged peer) is
//! dropped rather than allowed to pin its buffer forever.
//!
//! Every report-bearing frame names its round: the engine multiplexes
//! any number of concurrent rounds (see [`crate::RoundCollector`]), and
//! sessions working different rounds share no lock. Reports naming an
//! unknown or closed round are counted and answered with **one** typed
//! `ERR` per (connection, round) — a misdirected client learns its
//! mistake; a hostile flood cannot turn the daemon into a reply
//! amplifier. The finalized view of every round is bit-identical however
//! sessions and other rounds interleave (OR-folds into
//! exclusively-owned rows commute).
//!
//! ## Frame protocol (wire version 3)
//!
//! | kind | direction | payload |
//! |------|-----------|---------|
//! | `OPEN` `0x01` | c→s | round id, tenant, channel tag + params, quota (varints/f64) |
//! | `CLOSE` `0x03` | c→s | round id |
//! | `FINALIZE` `0x04` | c→s | round id |
//! | `CHECKPOINT` `0x05` | c→s | round id (checkpoints that round into the data-dir journal; refused with `CHECKPOINT_FAILED` on a daemon started without `--data-dir`) |
//! | `SHUTDOWN` `0x06` | c→s | empty; stops the accept loop |
//! | `REPORT_BATCH` `0x07` | c→s | round id + varint count + length-prefixed reports (no ack) |
//! | `SYNC` `0x08` | c→s | empty; acked once every prior frame of this session is ingested |
//! | `STATS` `0x09` | c→s | empty; scrapes the daemon's metrics registry |
//! | `ACK` `0x81` | s→c | empty |
//! | `ERR` `0x82` | s→c | code byte + message |
//! | `SUMMARY` `0x83` | s→c | intake counters + finalized-at-close flag |
//! | `VIEW` `0x84` | s→c | a finalized [`PerturbedView`](ldp_protocols::PerturbedView) |
//! | `DEGREE_SUMMARY` `0x85` | s→c | group totals + accepted count |
//! | `STATS_REPLY` `0x86` | s→c | typed metric samples (see [`wire::decode_stats_reply`]) |
//!
//! `0x02` was the singleton `REPORT` frame of wire v2; v3 retired it (a
//! `REPORT_BATCH` of one covers a single report) and never reuses the
//! byte.
//!
//! `REPORT_BATCH` frames are deliberately unacknowledged —
//! per-report round-trips would cap throughput at the RTT; rejects
//! (duplicates, quota, malformed) are counted and returned in the `CLOSE`
//! summary, which is also where a poisoning analyst reads the attack
//! surface. `SYNC` is the barrier concurrent uploaders use: a session's
//! frames are processed in order, so its `ACK` proves every report this
//! session sent is folded — the coordinator can then `CLOSE` without
//! racing the uploaders' socket buffers.
//!
//! ## One apply path
//!
//! Every state-changing frame — `OPEN`, `REPORT_BATCH`, `CLOSE`,
//! `FINALIZE`, `CHECKPOINT` — is applied by one function, `apply_frame`.
//! The plain daemon, the data-dir daemon, and journal replay
//! ([`crate::wal`]) all call it; replay passes no journal and a
//! throwaway session. On a data-dir daemon it holds the journal guard
//! for the whole frame, in write-ahead order: a batch is appended
//! verbatim and then folded; `OPEN`/`CLOSE` apply, append, then reply;
//! `FINALIZE` applies, appends, syncs, then replies. The
//! `ack-before-durable` lint rule pins that no reply precedes the
//! append.

use crate::error::CollectorError;
use crate::metrics::CollectorMetrics;
use crate::round::{
    CollectorConfig, IngestOutcome, RoundChannel, RoundCollector, RoundCounters, RoundOutcome,
};
use crate::wal::{DurableLog, FsyncPolicy, Recovery};
use ldp_obs::{Gauge, TraceEvent};
use ldp_protocols::wire::{
    self, get_f64, get_varint, journal, put_f64, put_varint, write_frame, write_stream_header,
    MAX_FRAME_LEN,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Frame kind bytes of the collection protocol. The constants moved next
/// to the codec in [`ldp_protocols::wire::frames`]; this re-export keeps
/// the daemon-side spelling (`frames::OPEN`, …) stable.
pub use ldp_protocols::wire::frames;

/// Channel tag bytes inside `OPEN` frames.
pub(crate) mod channel_tags {
    pub(crate) const ADJACENCY: u8 = 0;
    pub(crate) const DEGREE_VECTOR: u8 = 1;
}

/// Stable error codes carried by `ERR` frames.
pub mod codes {
    /// Population exceeds the configured memory cap.
    pub const POPULATION_CAP: u8 = 1;
    /// A round with this id is already open.
    pub const ROUND_ALREADY_OPEN: u8 = 2;
    /// No round has the named id (never opened, or already finalized).
    pub const NO_OPEN_ROUND: u8 = 3;
    /// Historical (wire v1): frame named a round other than the single
    /// open one. Unused since the registry multiplexes rounds; the value
    /// is reserved so old captures stay readable.
    pub const ROUND_MISMATCH: u8 = 4;
    /// Finalize before every user reported.
    pub const ROUND_INCOMPLETE: u8 = 5;
    /// Malformed frame or parameter.
    pub const BAD_FRAME: u8 = 6;
    /// Checkpointing failed: the daemon has no data dir (`CHECKPOINT`
    /// needs one), or its journal records failed to write.
    pub const CHECKPOINT_FAILED: u8 = 7;
    /// Anything else.
    pub const INTERNAL: u8 = 8;
    /// The daemon is at its connection cap.
    pub const SESSION_CAP: u8 = 9;
    /// The tenant is at its open-round quota.
    pub const TENANT_QUOTA: u8 = 10;
    /// Admitting the round would exceed the global memory budget.
    pub const MEMORY_BUDGET: u8 = 11;
    /// The named round's intake is already closed.
    pub const ROUND_CLOSED: u8 = 12;
}

fn error_code(e: &CollectorError) -> u8 {
    match e {
        CollectorError::PopulationCap { .. } | CollectorError::GroupCap { .. } => {
            codes::POPULATION_CAP
        }
        CollectorError::RoundAlreadyOpen { .. } => codes::ROUND_ALREADY_OPEN,
        CollectorError::NoOpenRound | CollectorError::UnknownRound { .. } => codes::NO_OPEN_ROUND,
        CollectorError::RoundClosed { .. } => codes::ROUND_CLOSED,
        CollectorError::TenantQuota { .. } => codes::TENANT_QUOTA,
        CollectorError::MemoryBudget { .. } => codes::MEMORY_BUDGET,
        CollectorError::SessionCap { .. } => codes::SESSION_CAP,
        CollectorError::RoundIncomplete { .. } => codes::ROUND_INCOMPLETE,
        CollectorError::Wire(_) | CollectorError::UnexpectedFrame { .. } => codes::BAD_FRAME,
        CollectorError::InvalidConfig { .. } => codes::BAD_FRAME,
        CollectorError::BadCheckpoint { .. } | CollectorError::BadJournal { .. } => {
            codes::CHECKPOINT_FAILED
        }
        _ => codes::INTERNAL,
    }
}

/// Bytes one pump reads from a socket before handing the cursor on.
const READ_CHUNK: usize = 64 << 10;
/// Complete frames one pump processes before rotating to the next
/// connection, so one fast uploader cannot starve the rest of the pool.
const BURST_FRAMES: usize = 256;
/// Cap on the warn-once set of misdirected round ids per connection.
const WARN_CAP: usize = 32;
/// How long a staged reply write may block before the connection is
/// declared wedged and dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Longest the acceptor waits for a session slot before refusing with a
/// typed `SESSION_CAP` error (polled; disconnects free slots within a
/// worker rotation, so sequential clients reuse slots well inside this).
const ADMIT_WAIT: Duration = Duration::from_secs(1);
const ADMIT_POLL: Duration = Duration::from_millis(10);
/// Longest an idle connection's holding worker blocks on its socket when
/// every live connection is worker-held (the event-driven regime); also
/// bounds how stale a parked worker's view of the shutdown flag can get.
const IDLE_PARK: Duration = Duration::from_millis(10);

/// Default mid-frame stall timeout: how long a connection may hold a
/// partial frame without new bytes before the daemon drops it.
pub const DEFAULT_STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// The TCP collection daemon.
pub struct CollectorServer {
    listener: TcpListener,
    engine: RoundCollector,
    stall_timeout: Duration,
    durable: Option<DurableLog>,
    recovery: Option<Recovery>,
}

impl CollectorServer {
    /// Binds the daemon to `addr` (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Bind failures and invalid configurations.
    pub fn bind(addr: impl ToSocketAddrs, config: CollectorConfig) -> Result<Self, CollectorError> {
        Ok(CollectorServer {
            listener: TcpListener::bind(addr)?,
            engine: RoundCollector::new(config)?,
            stall_timeout: DEFAULT_STALL_TIMEOUT,
            durable: None,
            recovery: None,
        })
    }

    /// Turns on the crash-durability plane: every state-changing frame is
    /// write-ahead-journaled into `dir` under `policy` before it is acted
    /// on, and this call **recovers** whatever rounds a previous
    /// incarnation left there — checkpoints first, then the journal tail,
    /// rebuilding each open round bit-identically (see [`crate::wal`]).
    /// Read what was rebuilt via [`Self::recovery`]. A `CHECKPOINT` frame
    /// appends the round's snapshot and marker records to the journal; a
    /// daemon without a data dir refuses it.
    ///
    /// # Errors
    /// I/O failures on `dir`, and [`CollectorError::BadJournal`] /
    /// [`CollectorError::BadCheckpoint`] when the directory holds
    /// corruption that truncation cannot explain.
    pub fn with_data_dir(
        mut self,
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<Self, CollectorError> {
        let (log, recovery) = DurableLog::open(&dir.into(), policy, &self.engine)?;
        self.durable = Some(log);
        self.recovery = Some(recovery);
        Ok(self)
    }

    /// What [`Self::with_data_dir`] rebuilt, when it ran.
    pub fn recovery(&self) -> Option<&Recovery> {
        self.recovery.as_ref()
    }

    /// How long a connection may sit mid-frame (half-written batch,
    /// stalled peer) before the daemon drops it. Defaults to
    /// [`DEFAULT_STALL_TIMEOUT`]; fault-injection tests lower it.
    pub fn with_stall_timeout(mut self, timeout: Duration) -> Self {
        self.stall_timeout = timeout;
        self
    }

    /// The bound address (read the ephemeral port here).
    ///
    /// # Errors
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> Result<SocketAddr, CollectorError> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts and serves sessions until a client sends `SHUTDOWN`.
    /// Connections are multiplexed over the bounded worker pool (see the
    /// module docs); session-level failures (a peer speaking garbage, a
    /// stalled frame) end that connection and the daemon keeps serving;
    /// only listener failures propagate. Returns once the shutdown is
    /// observed **and** every worker has drained.
    ///
    /// # Errors
    /// Accept failures on the listener.
    pub fn serve(&mut self) -> Result<(), CollectorError> {
        let engine = &self.engine;
        let durable = self.durable.as_ref();
        let listener = &self.listener;
        let stall = self.stall_timeout;
        // The shutdown wake-up connects to ourselves; a wildcard bind
        // (0.0.0.0 / ::) is not connectable on every platform, so aim
        // the wake at loopback on the bound port instead.
        let mut wake_addr = self.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let shared = Shared {
            queue: ConnQueue::new(engine.metrics().queue_depth.clone()),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            wake_addr,
        };
        std::thread::scope(|scope| -> Result<(), CollectorError> {
            let workers = engine.config().worker_threads;
            for _ in 0..workers {
                let shared = &shared;
                scope.spawn(move || worker(shared, engine, durable, stall, workers));
            }
            let result = (|| -> Result<(), CollectorError> {
                loop {
                    let (stream, _) = listener.accept()?;
                    if shared.shutdown.load(Ordering::Acquire) {
                        // Woken (or raced) by a shutting-down session; the
                        // throwaway connection is dropped here.
                        return Ok(());
                    }
                    admit(
                        stream,
                        engine.config().max_sessions,
                        &shared,
                        engine.metrics(),
                    );
                }
            })();
            // Every exit path — clean shutdown or listener failure — must
            // release the workers, or the scope join would hang.
            shared.shutdown.store(true, Ordering::Release);
            shared.queue.notify_all();
            result
        })
    }

    /// Binds to a loopback ephemeral port and serves on a background
    /// thread — the one-call setup tests, benches, and the load generator
    /// use. Returns the address to connect to and the thread handle
    /// (joins once a client sends `SHUTDOWN`).
    ///
    /// # Errors
    /// As [`Self::bind`].
    pub fn spawn(
        config: CollectorConfig,
    ) -> Result<
        (
            SocketAddr,
            std::thread::JoinHandle<Result<(), CollectorError>>,
        ),
        CollectorError,
    > {
        let mut server = CollectorServer::bind(("127.0.0.1", 0), config)?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.serve());
        Ok((addr, handle))
    }

    /// [`Self::spawn`] with the crash-durability plane on: recovers
    /// whatever `dir` holds, then serves with every state-changing frame
    /// write-ahead-journaled under `policy`.
    ///
    /// # Errors
    /// As [`Self::bind`] and [`Self::with_data_dir`].
    pub fn spawn_durable(
        config: CollectorConfig,
        dir: impl Into<PathBuf>,
        policy: FsyncPolicy,
    ) -> Result<
        (
            SocketAddr,
            std::thread::JoinHandle<Result<(), CollectorError>>,
        ),
        CollectorError,
    > {
        let mut server =
            CollectorServer::bind(("127.0.0.1", 0), config)?.with_data_dir(dir, policy)?;
        let addr = server.local_addr()?;
        let handle = std::thread::spawn(move || server.serve());
        Ok((addr, handle))
    }
}

/// State shared between the acceptor and the worker pool.
struct Shared {
    queue: ConnQueue,
    shutdown: AtomicBool,
    /// Live connections (owned by the queue or a worker). Incremented by
    /// the single-threaded acceptor, decremented by whichever worker
    /// retires the connection — so the acceptor's check-then-increment
    /// cannot race another incrementer.
    active: AtomicUsize,
    wake_addr: SocketAddr,
}

/// The rotation queue: connections waiting for a worker.
struct ConnQueue {
    inner: Mutex<VecDeque<Conn>>,
    ready: Condvar,
    /// Scrape-surface mirror of the queue length (`worker_queue_depth`);
    /// push and successful pop keep it balanced, so the gauge reads how
    /// many connections are waiting for a worker right now.
    depth: Arc<Gauge>,
}

impl ConnQueue {
    fn new(depth: Arc<Gauge>) -> Self {
        ConnQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth,
        }
    }

    fn push(&self, conn: Conn) {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(conn);
        self.depth.add(1);
        self.ready.notify_one();
    }

    /// Pops the next connection, blocking while the queue is empty.
    /// Returns `None` once shutdown is flagged and nothing is queued.
    fn pop(&self, shutdown: &AtomicBool) -> Option<Conn> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(conn) = q.pop_front() {
                self.depth.sub(1);
                return Some(conn);
            }
            if shutdown.load(Ordering::Acquire) {
                return None;
            }
            // Timed wait: a shutdown flagged between the check and the
            // wait cannot strand a worker past one tick.
            let (guard, _) = self
                .ready
                .wait_timeout(q, Duration::from_millis(50))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }

    fn notify_all(&self) {
        self.ready.notify_all();
    }
}

/// Admits one accepted socket into the pool, or refuses it with a typed
/// `SESSION_CAP` error after a bounded wait for a slot.
fn admit(stream: TcpStream, cap: usize, shared: &Shared, metrics: &CollectorMetrics) {
    let mut waited = Duration::ZERO;
    while shared.active.load(Ordering::Acquire) >= cap {
        if waited >= ADMIT_WAIT {
            refuse_session_cap(&stream, cap, metrics, shared.active.load(Ordering::Relaxed));
            return;
        }
        std::thread::sleep(ADMIT_POLL);
        waited += ADMIT_POLL;
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
    }
    let active = shared.active.fetch_add(1, Ordering::AcqRel) + 1;
    match Conn::new(stream) {
        Ok(conn) => {
            if metrics.active() {
                metrics.sessions_active.add(1);
                metrics.emit(TraceEvent::SessionAccepted {
                    active: active as u64,
                });
            }
            shared.queue.push(conn);
        }
        Err(_) => {
            shared.active.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The typed connect refusal: a valid stream header followed by one
/// `ERR`/`SESSION_CAP` frame, so the latecomer's first reply read is a
/// clean [`CollectorError::Remote`] instead of a hang or a reset.
fn refuse_session_cap(stream: &TcpStream, cap: usize, metrics: &CollectorMetrics, active: usize) {
    if metrics.active() {
        metrics.sessions_refused_cap.incr();
        metrics.emit(TraceEvent::SessionRefused {
            active: active as u64,
        });
    }
    metrics.on_err(codes::SESSION_CAP);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut out = Vec::new();
    if write_stream_header(&mut out).is_ok() {
        let mut reply = Vec::new();
        encode_error(&CollectorError::SessionCap { cap }, &mut reply);
        let _ = write_frame(&mut out, frames::ERR, &reply);
        if (&*stream).write_all(&out).is_err() {
            return;
        }
    }
    // Half-close and absorb whatever the peer already sent (its
    // handshake, typically a first frame too) before dropping the
    // socket: closing with unread bytes queued turns the close into an
    // RST, and an RST discards the refusal from the peer's receive
    // queue before it can be read. FIN keeps the typed error readable.
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(ADMIT_WAIT));
    let mut sink = [0u8; 512];
    while matches!((&*stream).read(&mut sink), Ok(n) if n > 0) {}
}

fn encode_error(e: &CollectorError, reply: &mut Vec<u8>) {
    reply.push(error_code(e));
    let message = e.to_string();
    put_varint(message.len() as u64, reply);
    reply.extend_from_slice(message.as_bytes());
}

/// What one pump of a connection concluded.
enum Pump {
    /// Socket had nothing new and nothing completed.
    Idle,
    /// Bytes were read or frames were processed.
    Progress,
    /// The connection is finished (clean EOF, error, or refusal).
    Closed,
    /// The peer requested daemon shutdown (already acked).
    Shutdown,
}

/// What applying frames needs of a session beyond its socket: staged
/// replies, the warn-once set, and the fold-sampling key. Live
/// connections own one; journal replay applies records through a
/// throwaway one.
#[derive(Default)]
pub(crate) struct Session {
    /// Staged outbound replies, flushed at the end of each burst.
    pub(crate) out: Vec<u8>,
    /// Misdirected round ids already answered with a typed ERR — one
    /// warning per (connection, round), so a flood of unknown-round
    /// reports cannot turn the daemon into a reply amplifier.
    warned: Vec<u64>,
    /// Plain count of reports this session has folded — the
    /// latency-sampling key (every `1 << FOLD_SAMPLE_SHIFT`-th report
    /// gets timed), kept out of the registry so the decision costs no
    /// atomic.
    folds_seen: u64,
}

impl Session {
    /// Stages a typed ERR for a misdirected (unknown/closed) round the
    /// first time this session trips over its id; later trips, and any
    /// past the [`WARN_CAP`] distinct ids, stay silent.
    fn warn_once(&mut self, round_id: u64, e: &CollectorError, metrics: &CollectorMetrics) {
        if self.warned.contains(&round_id) || self.warned.len() >= WARN_CAP {
            return;
        }
        self.warned.push(round_id);
        let mut reply = Vec::new();
        encode_error(e, &mut reply);
        let _ = write_frame(&mut self.out, frames::ERR, &reply);
        metrics.on_err(error_code(e));
    }
}

/// One multiplexed connection: a nonblocking socket plus the incremental
/// frame-assembly state a worker needs to continue it from any byte
/// boundary.
struct Conn {
    stream: TcpStream,
    /// Unparsed inbound bytes (handshake, then length-prefixed frames).
    buf: Vec<u8>,
    handshaken: bool,
    /// Last moment bytes arrived; drives the mid-frame stall timeout.
    last_progress: Instant,
    session: Session,
}

impl Conn {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        // The server's header goes out immediately (6 bytes always fit
        // the fresh socket buffer); everything after is nonblocking.
        write_stream_header(&mut &stream).map_err(|_| std::io::ErrorKind::BrokenPipe)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            handshaken: false,
            last_progress: Instant::now(),
            session: Session::default(),
        })
    }

    /// True while the buffer holds a partial unit (header or frame) —
    /// the state the stall timeout applies to.
    fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Blocks on this connection's socket until bytes are readable, the
    /// peer hangs up, or `timeout` passes — then restores nonblocking
    /// mode. A failed mode flip degrades to a plain nap so the worker
    /// loop's pacing still holds.
    fn park(&mut self, timeout: Duration) {
        let mut probe = [0u8; 1];
        if self.stream.set_nonblocking(false).is_err()
            || self.stream.set_read_timeout(Some(timeout)).is_err()
        {
            std::thread::sleep(timeout);
        } else {
            let _ = self.stream.peek(&mut probe);
        }
        let _ = self.stream.set_nonblocking(true);
    }

    /// Drains available socket bytes, processes up to [`BURST_FRAMES`]
    /// complete frames, and flushes staged replies.
    fn pump(
        &mut self,
        engine: &RoundCollector,
        durable: Option<&DurableLog>,
        payload_scratch: &mut Vec<u8>,
    ) -> Pump {
        let (read_bytes, eof) = match self.fill() {
            Ok(pair) => pair,
            Err(_) => return Pump::Closed,
        };
        let mut progressed = read_bytes > 0;
        if progressed {
            self.last_progress = Instant::now();
            if engine.metrics().active() {
                engine.metrics().bytes_read.add(read_bytes as u64);
            }
        }

        if !self.handshaken {
            if self.buf.len() < 6 {
                return if eof {
                    Pump::Closed
                } else if progressed {
                    Pump::Progress
                } else {
                    Pump::Idle
                };
            }
            if wire::read_stream_header(&mut &self.buf[..6]).is_err() {
                // A foreign or downgraded peer: nothing it sends can be
                // routed; drop it (the peer reads our valid header and
                // types the mismatch on its own side).
                return Pump::Closed;
            }
            self.buf.drain(..6);
            self.handshaken = true;
            progressed = true;
        }

        let mut outcome = None;
        for _ in 0..BURST_FRAMES {
            let (kind, frame_len) = match self.peek_frame() {
                Head::Incomplete => break,
                Head::Bad(len) => {
                    // Hostile or corrupt length prefix: answer typed, drop.
                    let mut reply = Vec::new();
                    encode_error(
                        &CollectorError::Wire(wire::WireError::OversizeFrame { len }),
                        &mut reply,
                    );
                    let _ = write_frame(&mut self.session.out, frames::ERR, &reply);
                    engine.metrics().on_err(codes::BAD_FRAME);
                    outcome = Some(Pump::Closed);
                    break;
                }
                Head::Frame(kind, len) => (kind, len),
            };
            payload_scratch.clear();
            payload_scratch.extend_from_slice(&self.buf[5..4 + frame_len]);
            self.buf.drain(..4 + frame_len);
            progressed = true;
            match process_frame(&mut self.session, engine, durable, kind, payload_scratch) {
                Frame::Continue => {}
                Frame::Shutdown => {
                    outcome = Some(Pump::Shutdown);
                    break;
                }
                Frame::Fatal => {
                    outcome = Some(Pump::Closed);
                    break;
                }
            }
        }

        if self.flush_replies().is_err() {
            return Pump::Closed;
        }
        if let Some(outcome) = outcome {
            return outcome;
        }
        if eof {
            // A closed peer may still have complete frames buffered past
            // this burst (it wrote and hung up; TCP delivered the lot) —
            // keep the connection rotating until they are all processed.
            // Then: clean close at a frame boundary; a mid-frame EOF is a
            // peer that died half-write — either way the connection ends
            // and the partial frame is never half-ingested.
            return if matches!(self.peek_frame(), Head::Frame(..)) {
                Pump::Progress
            } else {
                Pump::Closed
            };
        }
        if progressed {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// Reads whatever the socket holds, up to ~1 MiB per pump so one
    /// firehose connection cannot monopolize its worker's rotation.
    /// Returns `(bytes_read, saw_eof)`.
    fn fill(&mut self) -> std::io::Result<(usize, bool)> {
        let mut total = 0;
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok((total, true)),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    total += n;
                    if n < chunk.len() || total >= 1 << 20 {
                        return Ok((total, false));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok((total, false)),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => Err(e)?,
            }
        }
    }

    /// Inspects the head of the buffer for a complete frame: its kind and
    /// total `kind+payload` length, an incomplete prefix, or a hostile
    /// length claim (refused before any buffering toward it).
    fn peek_frame(&self) -> Head {
        if self.buf.len() < 4 {
            return Head::Incomplete;
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            return Head::Bad(len);
        }
        if self.buf.len() < 4 + len {
            return Head::Incomplete;
        }
        Head::Frame(self.buf[4], len)
    }

    /// Writes the staged replies in temporary blocking mode (with a write
    /// timeout), so a slow reader surfaces as a typed I/O failure on this
    /// connection instead of a busy-loop or an unbounded stall.
    fn flush_replies(&mut self) -> std::io::Result<()> {
        let out = &mut self.session.out;
        if out.is_empty() {
            return Ok(());
        }
        self.stream.set_nonblocking(false)?;
        self.stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
        let result = self.stream.write_all(out);
        out.clear();
        self.stream.set_nonblocking(true)?;
        result
    }
}

/// Head-of-buffer parse state (see [`Conn::peek_frame`]).
enum Head {
    /// Not enough bytes for a length prefix or the frame it claims.
    Incomplete,
    /// A zero or oversize length claim — the protocol is broken.
    Bad(usize),
    /// A complete frame: kind byte and `kind+payload` length.
    Frame(u8, usize),
}

enum Frame {
    Continue,
    Shutdown,
    Fatal,
}

/// Processes one complete frame, staging any reply into `session.out`.
/// Read-only frames are answered here; every state-changing frame goes
/// through [`apply_frame`].
fn process_frame(
    session: &mut Session,
    engine: &RoundCollector,
    durable: Option<&DurableLog>,
    kind: u8,
    payload: &[u8],
) -> Frame {
    let metrics = engine.metrics();
    if metrics.active() {
        metrics.frames_decoded.incr();
        metrics.emit(TraceEvent::FrameDecoded {
            kind,
            len: payload.len() as u64,
        });
    }
    let mut reply = Vec::new();
    let result: Result<u8, CollectorError> = match kind {
        frames::SYNC => {
            // Frames are processed in order, so reaching here proves
            // every prior report of this session is folded.
            wire::expect_end(payload)
                .map(|()| frames::ACK)
                .map_err(CollectorError::Wire)
        }
        frames::STATS => wire::expect_end(payload)
            .map_err(CollectorError::Wire)
            .map(|()| {
                wire::encode_stats_reply(&metrics.wire_entries(), &mut reply);
                frames::STATS_REPLY
            }),
        frames::SHUTDOWN => {
            let _ = write_frame(&mut session.out, frames::ACK, &[]);
            return Frame::Shutdown;
        }
        _ => match apply_frame(engine, durable, session, kind, payload) {
            Ok(()) => return Frame::Continue,
            // A batch fails only when its journal append does: the
            // record is not durable and was not folded, and the batch is
            // unacknowledged, so no ERR could tell the client. Dropping
            // the connection is the honest failure.
            Err(_) if kind == frames::REPORT_BATCH => return Frame::Fatal,
            Err(e) => Err(e),
        },
    };
    stage_reply(session, metrics, result, reply)
}

/// Stages the outcome of a request/response frame: the typed reply on
/// success, a typed `ERR` otherwise.
fn stage_reply(
    session: &mut Session,
    metrics: &CollectorMetrics,
    result: Result<u8, CollectorError>,
    mut reply: Vec<u8>,
) -> Frame {
    match result {
        Ok(reply_kind) => {
            if write_frame(&mut session.out, reply_kind, &reply).is_err() {
                return Frame::Fatal;
            }
        }
        Err(e) => {
            reply.clear();
            encode_error(&e, &mut reply);
            let _ = write_frame(&mut session.out, frames::ERR, &reply);
            metrics.on_err(error_code(&e));
        }
    }
    Frame::Continue
}

/// What [`apply_frame`] did to the engine before journaling and replying.
enum Applied {
    /// A report batch, folded only once its record is journaled.
    Batch,
    Opened,
    Closed(RoundCounters),
    Finalized(RoundOutcome),
    /// The journal wrote its own marker (see
    /// [`Journal::checkpoint_round`](crate::wal::Journal::checkpoint_round)).
    Checkpointed,
}

/// Applies one state-changing frame (`OPEN`, `REPORT_BATCH`, `CLOSE`,
/// `FINALIZE`, `CHECKPOINT`): the one path shared by the plain daemon,
/// the data-dir daemon, and journal replay, which passes no journal and
/// a throwaway session.
///
/// With a journal, its guard is held for the whole frame — so a
/// checkpoint can never observe a fold its record does not cover — and
/// the record goes down in write-ahead order. A batch is appended
/// verbatim before it is decoded and folded, so replay re-derives
/// rejects, not just accepts. `OPEN`/`CLOSE`/`FINALIZE` are appended
/// once the engine accepts them and before any reply is staged;
/// `FINALIZE` is also synced. A crash at any instant leaves the journal
/// covering at least everything a client was told happened. The
/// `ack-before-durable` lint rule pins that no reply precedes the
/// append.
///
/// On success any reply is staged in `session.out`. On error nothing is,
/// and the caller decides: the live daemon answers a typed `ERR` (or
/// drops the connection when a batch's append failed); replay fails on
/// `OPEN` and ignores `CLOSE`/`FINALIZE`.
pub(crate) fn apply_frame(
    engine: &RoundCollector,
    durable: Option<&DurableLog>,
    session: &mut Session,
    kind: u8,
    payload: &[u8],
) -> Result<(), CollectorError> {
    let metrics = engine.metrics();
    let mut journal = durable.map(DurableLog::lock);
    let (record, applied) = match kind {
        frames::REPORT_BATCH => (Some(journal::REC_BATCH), Applied::Batch),
        frames::OPEN => {
            let (tenant, id, channel, quota) = decode_open(payload)?;
            engine.open_round_as(tenant, id, channel, quota)?;
            (Some(journal::REC_OPEN), Applied::Opened)
        }
        frames::CLOSE => {
            let counters = engine.close_round(decode_round_id(payload)?)?;
            (Some(journal::REC_CLOSE), Applied::Closed(counters))
        }
        frames::FINALIZE => {
            let outcome = engine.finalize(decode_round_id(payload)?)?;
            (Some(journal::REC_FINALIZE), Applied::Finalized(outcome))
        }
        frames::CHECKPOINT => {
            let id = decode_round_id(payload)?;
            let journal = journal.as_mut().ok_or(CollectorError::BadCheckpoint {
                detail: "CHECKPOINT needs a daemon started with a data dir",
            })?;
            journal.checkpoint_round(engine, id, metrics)?;
            (None, Applied::Checkpointed)
        }
        kind => return Err(CollectorError::UnexpectedFrame { kind }),
    };
    if let (Some(journal), Some(record)) = (journal.as_mut(), record) {
        journal.append(record, payload, metrics)?;
        if record == journal::REC_FINALIZE {
            // A finalize must survive the crash window between the fold
            // and the reply leaving the socket, whatever the append-path
            // policy — replaying a consumed round as still-open would
            // resurrect it.
            journal.sync(metrics)?;
        }
    }
    let mut reply = Vec::new();
    let reply_kind = match applied {
        Applied::Batch => {
            fold_batch(session, engine, payload);
            return Ok(()); // unacknowledged
        }
        Applied::Opened | Applied::Checkpointed => frames::ACK,
        Applied::Closed(counters) => {
            put_varint(counters.accepted, &mut reply);
            put_varint(counters.rejected_duplicate, &mut reply);
            put_varint(counters.rejected_quota, &mut reply);
            put_varint(counters.rejected_invalid, &mut reply);
            put_varint(counters.rejected_malformed, &mut reply);
            reply.push(u8::from(counters.finalized_at_close));
            frames::SUMMARY
        }
        Applied::Finalized(RoundOutcome::Adjacency(view)) => {
            wire::encode_view(&view, &mut reply);
            frames::VIEW
        }
        Applied::Finalized(RoundOutcome::DegreeVector {
            group_totals,
            accepted,
        }) => {
            put_varint(accepted, &mut reply);
            put_varint(group_totals.len() as u64, &mut reply);
            for &t in &group_totals {
                put_f64(t, &mut reply);
            }
            frames::DEGREE_SUMMARY
        }
    };
    write_frame(&mut session.out, reply_kind, &reply)?;
    Ok(())
}

/// Decodes and folds one `REPORT_BATCH` payload against its round's slot,
/// looked up once per frame. Engine refusals that prove the *frame* was
/// misdirected (unknown/closed round) get a warn-once typed ERR;
/// per-report outcomes (duplicate, quota, invalid) are counted by the
/// engine and read from the close summary.
fn fold_batch(session: &mut Session, engine: &RoundCollector, payload: &[u8]) {
    let metrics = engine.metrics();
    let batch_begin = metrics.active().then(Instant::now);
    match wire::read_routed_batch(payload) {
        // An unknown round id refuses the whole frame (warn-once typed
        // ERR; nothing to count against).
        Ok((round_id, mut batch)) => match engine.slot(round_id) {
            Ok(slot) => {
                // Fold successes accumulate in plain memory and
                // settle into the registry once per frame (at
                // most one `fetch_add` per shard), so the
                // per-report loop touches no metric atomics.
                let mut scratch = metrics.fold_scratch();
                while let Some(entry) = batch.next_entry() {
                    match entry {
                        Ok((user_id, report)) => {
                            let sampled = metrics.active()
                                && session.folds_seen
                                    & ((1 << crate::metrics::FOLD_SAMPLE_SHIFT) - 1)
                                    == 0;
                            session.folds_seen = session.folds_seen.wrapping_add(1);
                            match engine.admit_and_fold(&slot, round_id, user_id, &report, sampled)
                            {
                                Ok(IngestOutcome::Queued) => {
                                    scratch.count(user_id as usize % metrics.shard_folds.len());
                                }
                                Ok(_) => {}
                                Err(e) => {
                                    engine.note_invalid(round_id);
                                    session.warn_once(round_id, &e, metrics);
                                }
                            }
                        }
                        // A malformed entry is isolated by its length
                        // prefix; the rest of the batch still folds.
                        Err(_) => engine.note_invalid(round_id),
                    }
                }
                metrics.flush_folds(&mut scratch);
                if batch.finish().is_err() {
                    engine.note_invalid(round_id);
                }
            }
            Err(e) => session.warn_once(round_id, &e, metrics),
        },
        Err(_) => {
            // Charge the garbage to its round if the id at least parses;
            // otherwise the frame is simply dropped (its length prefix
            // isolated it from the stream).
            let mut head = payload;
            if let Ok(round_id) = get_varint(&mut head) {
                engine.note_invalid(round_id);
            }
        }
    }
    if let Some(begin) = batch_begin {
        metrics.batches_decoded.incr();
        metrics
            .batch_nanos
            .observe(begin.elapsed().as_nanos() as u64);
    }
}

/// One pool worker: pop a connection, pump it, requeue or retire it.
fn worker(
    shared: &Shared,
    engine: &RoundCollector,
    durable: Option<&DurableLog>,
    stall: Duration,
    workers: usize,
) {
    let metrics = engine.metrics();
    let mut payload_scratch = Vec::new();
    // Backoff bookkeeping: after a full rotation of nothing-but-idle
    // connections, nap briefly — bounded CPU when 10k connections sit
    // quiet, sub-millisecond pickup when one wakes.
    let mut idle_pops = 0usize;
    while let Some(mut conn) = shared.queue.pop(&shared.shutdown) {
        if shared.shutdown.load(Ordering::Acquire) {
            // Drain mode: surviving connections are dropped, not pumped —
            // otherwise idle ones would be requeued forever and the pool
            // could never join.
            retire(shared, metrics);
            continue;
        }
        match conn.pump(engine, durable, &mut payload_scratch) {
            Pump::Idle => {
                if conn.mid_frame() && conn.last_progress.elapsed() > stall {
                    // Wedged mid-frame past the timeout: drop it. The
                    // partial frame was never ingested, so every round's
                    // aggregate is exactly as if the bytes never arrived.
                    let remaining = retire(shared, metrics);
                    if metrics.active() {
                        metrics.stall_reaps.incr();
                        metrics.emit(TraceEvent::StallReaped {
                            active: remaining as u64,
                        });
                    }
                    continue;
                }
                if shared.active.load(Ordering::Relaxed) <= workers {
                    // Every live connection is held by some worker, so
                    // nobody is waiting on the queue for this one: park
                    // on *its* socket instead of napping blind. Wakes
                    // the instant bytes arrive — request/response
                    // traffic stays event-driven, not poll-paced.
                    conn.park(IDLE_PARK);
                    shared.queue.push(conn);
                    idle_pops = 0;
                } else {
                    shared.queue.push(conn);
                    idle_pops += 1;
                    if idle_pops >= shared.active.load(Ordering::Relaxed).max(1) {
                        idle_pops = 0;
                        std::thread::sleep(Duration::from_micros(500));
                    }
                }
            }
            Pump::Progress => {
                shared.queue.push(conn);
                idle_pops = 0;
            }
            Pump::Closed => {
                retire(shared, metrics);
            }
            Pump::Shutdown => {
                retire(shared, metrics);
                shared.shutdown.store(true, Ordering::Release);
                shared.queue.notify_all();
                // Unblock the accept loop so it observes the flag.
                let _ = TcpStream::connect_timeout(&shared.wake_addr, WRITE_TIMEOUT);
            }
        }
    }
}

/// Retires one connection: the pool's count and its gauge mirror move
/// together. Returns the remaining live-session count.
fn retire(shared: &Shared, metrics: &CollectorMetrics) -> usize {
    let remaining = shared.active.fetch_sub(1, Ordering::AcqRel) - 1;
    if metrics.active() {
        metrics.sessions_active.sub(1);
    }
    remaining
}

pub(crate) fn decode_open(
    payload: &[u8],
) -> Result<(u64, u64, RoundChannel, Option<u64>), CollectorError> {
    let mut buf = payload;
    let round_id = get_varint(&mut buf)?;
    let tenant = get_varint(&mut buf)?;
    let (&tag, rest) = buf
        .split_first()
        .ok_or(CollectorError::Wire(wire::WireError::Truncated))?;
    buf = rest;
    let channel = match tag {
        channel_tags::ADJACENCY => {
            let population = get_varint(&mut buf)? as usize;
            let p_keep = get_f64(&mut buf)?;
            RoundChannel::Adjacency { population, p_keep }
        }
        channel_tags::DEGREE_VECTOR => {
            let population = get_varint(&mut buf)? as usize;
            let groups = get_varint(&mut buf)? as usize;
            RoundChannel::DegreeVector { population, groups }
        }
        _ => {
            return Err(CollectorError::Wire(wire::WireError::UnknownReportTag {
                tag,
            }))
        }
    };
    let quota = get_varint(&mut buf)?;
    wire::expect_end(buf)?;
    Ok((tenant, round_id, channel, (quota != 0).then_some(quota)))
}

fn decode_round_id(payload: &[u8]) -> Result<u64, CollectorError> {
    let mut buf = payload;
    let id = get_varint(&mut buf)?;
    wire::expect_end(buf)?;
    Ok(id)
}
