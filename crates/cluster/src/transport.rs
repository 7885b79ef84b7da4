//! The connection plane: a [`Transport`] seam between the budgeter's
//! session logic and its links.
//!
//! Everything above this seam — [`crate::session::SessionState`],
//! [`crate::session::RetryPolicy`], [`crate::session::FaultPlan`], the
//! lease machinery, the invariant auditor, the flight recorder — is
//! transport-agnostic: it addresses peers by stable [`ConnId`]s and never
//! touches a socket. Below the seam live two implementations:
//!
//! * [`BlockingTransport`] — the original plane: every socket is polled
//!   inline on the pump thread, one sweep per control pass. Simple,
//!   single-threaded, and the reference for byte-identical recordings.
//! * [`ReactorTransport`] — a sharded reactor for high fan-in: N shards
//!   each own a disjoint set of nonblocking sockets and move bytes on
//!   their own threads, exchanging work with the pump through bounded
//!   per-connection ingress/egress queues. The pump drains shard inboxes
//!   in ascending [`ConnId`] order — the same order the blocking plane
//!   sweeps its slots — so the recorded decision stream is byte-identical
//!   at any shard count.
//!
//! Either plane accepts from a [`Listener`]: a bound TCP socket (the
//! daemons, the load harness) or an in-process accept queue (the
//! emulated cluster and replay). Endpoints reach it through the [`Addr`]
//! that [`crate::budgeter::BudgeterBuilder::bind`] returns. Connection
//! ids are allocated in accept order on either, and everything above the
//! byte link (framing, fault injection, transport counters, the flight
//! recorder) is the same.
//!
//! The workspace denies `unsafe_code`, so the reactor is a *poll loop*,
//! not epoll: each shard thread sweeps its nonblocking sockets and parks
//! on a condvar (bounded at one millisecond) when idle. That trades a
//! syscall of wakeup latency for zero unsafe surface; at the scale this
//! daemon targets (thousands of connections, control periods measured in
//! milliseconds) the sweep is cheaper than the bookkeeping an event
//! queue would add.
//!
//! ## Backpressure
//!
//! *Ingress* is soft-bounded: once a connection's inbox holds
//! `conn_queue_depth` undrained frames the shard stops reading its
//! socket, so the kernel's receive window closes and TCP pushes back on
//! the peer. No inbound frame is ever dropped — the bound is the queue
//! depth plus at most one socket-buffer sweep.
//!
//! *Egress* is hard-bounded: a connection whose unflushed outbound bytes
//! exceed `conn_queue_depth × 256` has its new frames dropped and counted
//! (`transport_backpressure_drops_total`) instead of queued. A slow or
//! stalled endpoint therefore costs a counter, never unbounded memory —
//! and the decision that produced the frame is still recorded, because
//! delivery is the transport's problem, not the policy's.

use crate::codec::{FramedStream, Link, MemLink, StreamOptions, TransportMetrics};
use crate::session::FaultPlan;
use crate::status::PhaseStat;
use anor_telemetry::{Counter, Histogram, Telemetry};
use anor_types::{AnorError, Result};
use bytes::Bytes;
use std::collections::{BTreeMap, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Egress budget per queue-depth slot, in bytes: a connection may hold
/// `conn_queue_depth × 256` unflushed outbound bytes before new frames
/// are dropped. Control frames are tens of bytes, so the default depth
/// tolerates a long cap backlog before backpressure bites.
pub const EGRESS_BYTES_PER_SLOT: usize = 256;

/// A stable connection identity: the accept-order index of the
/// connection, never reused for the lifetime of the daemon. Leases,
/// quarantine bookkeeping, recorder tags (`RecEvent::{ConnOpen,FrameIn,
/// DecisionTx,...}` all carry this value) and `/status` agree on it, and
/// replay reconstructs liveness per id from the recorded transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConnId(u32);

impl ConnId {
    /// Wrap a raw accept-order index (used by replay, which reads ids
    /// back out of recorded events).
    pub fn new(raw: u32) -> Self {
        ConnId(raw)
    }

    /// The raw accept-order index (what recorder events store).
    pub fn value(self) -> u32 {
        self.0
    }

    /// The id as a slot index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ConnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Which connection plane a budgeter runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Inline per-pump socket sweeps on the pump thread (the original
    /// plane, and the default).
    #[default]
    Blocking,
    /// The sharded non-blocking reactor.
    Reactor,
}

impl TransportKind {
    /// Display name (also the CLI spelling).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::Blocking => "blocking",
            TransportKind::Reactor => "reactor",
        }
    }
}

impl std::str::FromStr for TransportKind {
    type Err = AnorError;

    fn from_str(s: &str) -> Result<Self> {
        match s {
            "blocking" => Ok(TransportKind::Blocking),
            "reactor" => Ok(TransportKind::Reactor),
            other => Err(AnorError::config(format!(
                "unknown transport `{other}` (use blocking | reactor)"
            ))),
        }
    }
}

/// Connection-plane construction options, carried by
/// [`crate::budgeter::BudgeterBuilder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportOptions {
    /// Which plane to run.
    pub kind: TransportKind,
    /// Reactor shard count (ignored by the blocking plane; clamped to at
    /// least 1).
    pub shards: usize,
    /// Per-connection bounded-queue depth, in frames (ingress soft
    /// bound) and `× 256` bytes (egress hard bound).
    pub conn_queue_depth: usize,
}

impl Default for TransportOptions {
    fn default() -> Self {
        TransportOptions {
            kind: TransportKind::Blocking,
            shards: 2,
            conn_queue_depth: 64,
        }
    }
}

/// Stable-id connection slab: slots are allocated in accept order and
/// never reused, so a [`ConnId`] stays unambiguous for the lifetime of
/// the daemon (one pointer-sized `None` per dead connection is the cost,
/// which recorder and lease bookkeeping would pay anyway).
#[derive(Debug, Default)]
pub struct ConnSlab<T> {
    slots: Vec<Option<T>>,
}

impl<T> ConnSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        ConnSlab { slots: Vec::new() }
    }

    /// Allocate the next id and store `value` in it.
    pub fn insert(&mut self, value: T) -> ConnId {
        let id = ConnId(self.slots.len() as u32);
        self.slots.push(Some(value));
        id
    }

    /// Shared access to a live slot.
    pub fn get(&self, id: ConnId) -> Option<&T> {
        self.slots.get(id.index()).and_then(Option::as_ref)
    }

    /// Exclusive access to a live slot.
    pub fn get_mut(&mut self, id: ConnId) -> Option<&mut T> {
        self.slots.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Free a slot, returning its value. The id is never reissued.
    pub fn remove(&mut self, id: ConnId) -> Option<T> {
        self.slots.get_mut(id.index()).and_then(Option::take)
    }

    /// Is the slot live?
    pub fn contains(&self, id: ConnId) -> bool {
        self.get(id).is_some()
    }

    /// Live slots.
    pub fn open(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Ids of live slots, in ascending (accept) order.
    pub fn open_ids(&self) -> Vec<ConnId> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_some())
            .map(|(i, _)| ConnId(i as u32))
            .collect()
    }

    /// Ids ever allocated (live or freed).
    pub fn allocated(&self) -> usize {
        self.slots.len()
    }
}

/// In-process connections dialled but not yet accepted.
#[derive(Debug)]
struct MemQueue {
    /// The accept side of each dialled pipe pair, in dial order.
    pending: VecDeque<MemLink>,
    /// False once the listener is gone: later dials are refused.
    open: bool,
}

type SharedQueue = Arc<Mutex<MemQueue>>;

/// The budgeter's accept side: a bound TCP listener, or an in-process
/// accept queue that [`Addr::dial`] feeds. A TCP listener converts into
/// one, so a restarted daemon can adopt its predecessor's socket.
#[derive(Debug)]
pub struct Listener(ListenerKind);

#[derive(Debug)]
enum ListenerKind {
    Tcp(TcpListener),
    Mem(SharedQueue),
}

impl Listener {
    /// A new in-process accept queue. It binds no port: endpoints reach
    /// it only through the [`Addr`] its budgeter's bind returns.
    pub fn in_process() -> Self {
        Listener(ListenerKind::Mem(Arc::new(Mutex::new(MemQueue {
            pending: VecDeque::new(),
            open: true,
        }))))
    }

    /// The address endpoints dial to reach this listener.
    pub(crate) fn addr(&self) -> Result<Addr> {
        Ok(Addr(match &self.0 {
            ListenerKind::Tcp(listener) => AddrKind::Tcp(listener.local_addr()?),
            ListenerKind::Mem(queue) => AddrKind::Mem(Arc::clone(queue)),
        }))
    }

    /// The next dialled connection, if one is waiting. A TCP listener in
    /// blocking mode waits for one.
    pub(crate) fn accept(&self) -> Result<Option<Link>> {
        match &self.0 {
            ListenerKind::Tcp(listener) => match listener.accept() {
                Ok((stream, _)) => Ok(Some(Link::Tcp(stream))),
                Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
                Err(e) => Err(e.into()),
            },
            ListenerKind::Mem(queue) => {
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                Ok(q.pending.pop_front().map(Link::Mem))
            }
        }
    }
}

impl From<TcpListener> for Listener {
    fn from(listener: TcpListener) -> Self {
        Listener(ListenerKind::Tcp(listener))
    }
}

impl Drop for Listener {
    /// An in-process listener refuses later dials and hangs up on the
    /// connections still queued, as a closed TCP port would.
    fn drop(&mut self) {
        if let ListenerKind::Mem(queue) = &self.0 {
            let orphans = {
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                q.open = false;
                std::mem::take(&mut q.pending)
            };
            drop(orphans);
        }
    }
}

/// Where endpoints reach a budgeter: a TCP socket address, or the accept
/// queue of an in-process [`Listener`]. Displays as the socket address,
/// or `in-process`.
#[derive(Debug, Clone)]
pub struct Addr(AddrKind);

#[derive(Debug, Clone)]
enum AddrKind {
    Tcp(SocketAddr),
    Mem(SharedQueue),
}

impl Addr {
    /// Open a framed connection to the budgeter. A TCP address connects
    /// a socket; an in-process one queues the far end of a new pipe pair
    /// for the listener's next accept, and is refused once that listener
    /// is gone.
    pub fn dial(&self, opts: StreamOptions) -> Result<FramedStream> {
        let link = match &self.0 {
            AddrKind::Tcp(addr) => Link::Tcp(TcpStream::connect(addr)?),
            AddrKind::Mem(queue) => {
                let mut q = queue.lock().unwrap_or_else(PoisonError::into_inner);
                if !q.open {
                    return Err(std::io::Error::from(ErrorKind::ConnectionRefused).into());
                }
                let (near, far) = MemLink::pair();
                q.pending.push_back(far);
                Link::Mem(near)
            }
        };
        FramedStream::from_link(link, opts)
    }
}

impl From<SocketAddr> for Addr {
    fn from(addr: SocketAddr) -> Self {
        Addr(AddrKind::Tcp(addr))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            AddrKind::Tcp(addr) => write!(f, "{addr}"),
            AddrKind::Mem(_) => f.write_str("in-process"),
        }
    }
}

/// The accept loop both planes share: frames each new connection with
/// the plane's transport metrics and its own [`FaultPlan::fork`], salted
/// by accept order.
#[derive(Debug)]
struct Acceptor {
    listener: Listener,
    metrics: TransportMetrics,
    faults: Option<FaultPlan>,
    accepted: u64,
}

impl Acceptor {
    /// Take over `listener`, switching a TCP one to non-blocking accepts.
    fn new(
        listener: Listener,
        metrics: TransportMetrics,
        faults: Option<FaultPlan>,
    ) -> Result<Self> {
        if let ListenerKind::Tcp(l) = &listener.0 {
            l.set_nonblocking(true)?;
        }
        Ok(Acceptor {
            listener,
            metrics,
            faults,
            accepted: 0,
        })
    }

    /// Every connection dialled since the last call, in accept order.
    fn accept(&mut self) -> Result<Vec<FramedStream>> {
        let mut out = Vec::new();
        while let Some(link) = self.listener.accept()? {
            self.accepted += 1;
            let mut opts = StreamOptions::default().metrics(self.metrics.clone());
            if let Some(plan) = &self.faults {
                opts = opts.faults(plan.fork(self.accepted));
            }
            out.push(FramedStream::from_link(link, opts)?);
        }
        Ok(out)
    }
}

/// The connection plane the budgeter drives. One sweep of the pump is:
/// [`Transport::accept`] for new ids, [`Transport::poll_readable`] for
/// ids with pending input (ascending — the deterministic drain order),
/// [`Transport::read_frames`] per id, [`Transport::write_frame`] for
/// decisions, and [`Transport::release`] once the session bookkeeping
/// has torn a connection down.
pub trait Transport: std::fmt::Debug + Send {
    /// Accept every connection the listener has queued; returns the new
    /// ids in accept order.
    fn accept(&mut self) -> Result<Vec<ConnId>>;

    /// Connections with input to drain (frames, a close, or an error),
    /// in ascending id order. The blocking plane reports every open
    /// connection, since only reading them can find out.
    fn poll_readable(&mut self) -> Vec<ConnId>;

    /// Drain every complete frame received on `id`, plus whether the
    /// peer closed. `Err(AnorError::Protocol)` means the peer broke
    /// framing and the caller should quarantine the connection.
    fn read_frames(&mut self, id: ConnId) -> Result<(Vec<Bytes>, bool)>;

    /// Queue one encoded frame for `id`. Unknown ids are ignored; an
    /// egress queue past its bound drops the frame and counts it.
    fn write_frame(&mut self, id: ConnId, frame: Bytes) -> Result<()>;

    /// Cut `id` now (quarantine): the peer sees EOF immediately.
    fn shutdown(&mut self, id: ConnId);

    /// Free `id`'s slot after session teardown. The id is never reused.
    fn release(&mut self, id: ConnId);

    /// Does `id`'s slot still exist (not yet released)?
    fn is_open(&self, id: ConnId) -> bool;

    /// Is `id` open *and* not closed by the peer? (Leases use this:
    /// a closed-but-unreleased connection no longer counts as contact.)
    fn is_live(&self, id: ConnId) -> bool;

    /// Currently open connections.
    fn open_conns(&self) -> usize;

    /// Park until input is plausibly available or `timeout` elapses;
    /// `true` means "something arrived". The reactor parks on a condvar
    /// its shards signal; the blocking plane can only sleep (bounded at
    /// one millisecond) because finding out requires reading.
    fn wait_readable(&self, timeout: Duration) -> bool;

    /// Per-shard ingest timings for the `/status` PHASE pane (empty for
    /// the blocking plane).
    fn shard_phases(&self) -> Vec<PhaseStat>;

    /// Egress frames dropped to backpressure so far.
    fn backpressure_drops(&self) -> u64;

    /// Which plane this is.
    fn kind(&self) -> TransportKind;

    /// Tear the plane down but keep the listener (daemon restarts keep
    /// their port). Reactor shard threads are stopped and joined.
    fn into_listener(self: Box<Self>) -> Listener;
}

/// Build the configured connection plane over `listener`.
pub fn build_transport(
    opts: &TransportOptions,
    listener: Listener,
    telemetry: &Telemetry,
    metrics: TransportMetrics,
    faults: Option<FaultPlan>,
) -> Result<Box<dyn Transport>> {
    Ok(match opts.kind {
        TransportKind::Blocking => Box::new(BlockingTransport::new(listener, metrics, faults)?),
        TransportKind::Reactor => Box::new(ReactorTransport::new(
            listener,
            telemetry,
            metrics,
            faults,
            opts.shards,
            opts.conn_queue_depth,
        )?),
    })
}

// ---------------------------------------------------------------------
// Blocking plane
// ---------------------------------------------------------------------

/// The original connection plane: every link polled inline on the
/// pump thread, one sweep per control pass.
#[derive(Debug)]
pub struct BlockingTransport {
    acceptor: Acceptor,
    conns: ConnSlab<FramedStream>,
}

impl BlockingTransport {
    /// Take over a listener (a TCP one is switched to non-blocking mode).
    pub fn new(
        listener: impl Into<Listener>,
        metrics: TransportMetrics,
        faults: Option<FaultPlan>,
    ) -> Result<Self> {
        Ok(BlockingTransport {
            acceptor: Acceptor::new(listener.into(), metrics, faults)?,
            conns: ConnSlab::new(),
        })
    }
}

impl Transport for BlockingTransport {
    fn accept(&mut self) -> Result<Vec<ConnId>> {
        let streams = self.acceptor.accept()?;
        Ok(streams.into_iter().map(|s| self.conns.insert(s)).collect())
    }

    fn poll_readable(&mut self) -> Vec<ConnId> {
        self.conns.open_ids()
    }

    fn read_frames(&mut self, id: ConnId) -> Result<(Vec<Bytes>, bool)> {
        let Some(stream) = self.conns.get_mut(id) else {
            return Ok((Vec::new(), false));
        };
        stream.flush_some()?;
        let frames = stream.recv_frames()?;
        Ok((frames, stream.is_closed()))
    }

    fn write_frame(&mut self, id: ConnId, frame: Bytes) -> Result<()> {
        if let Some(stream) = self.conns.get_mut(id) {
            stream.send(frame)?;
        }
        Ok(())
    }

    fn shutdown(&mut self, id: ConnId) {
        if let Some(stream) = self.conns.get_mut(id) {
            stream.shutdown_now();
        }
    }

    fn release(&mut self, id: ConnId) {
        self.conns.remove(id);
    }

    fn is_open(&self, id: ConnId) -> bool {
        self.conns.contains(id)
    }

    fn is_live(&self, id: ConnId) -> bool {
        self.conns.get(id).is_some_and(|s| !s.is_closed())
    }

    fn open_conns(&self) -> usize {
        self.conns.open()
    }

    fn wait_readable(&self, timeout: Duration) -> bool {
        // Without an event source the best this plane can do is yield
        // the CPU briefly; the next sweep discovers whatever arrived.
        std::thread::sleep(timeout.min(Duration::from_millis(1)));
        false
    }

    fn shard_phases(&self) -> Vec<PhaseStat> {
        Vec::new()
    }

    fn backpressure_drops(&self) -> u64 {
        0
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Blocking
    }

    fn into_listener(self: Box<Self>) -> Listener {
        self.acceptor.listener
    }
}

// ---------------------------------------------------------------------
// Reactor plane
// ---------------------------------------------------------------------

/// Pump-side view of one reactor connection: liveness and egress
/// accounting, shared with the owning shard through atomics so neither
/// side takes a lock to answer "is it alive / is it full".
#[derive(Debug, Default)]
struct ConnShared {
    closed: AtomicBool,
    egress_bytes: AtomicUsize,
}

/// Pump → shard commands. Ordered per shard (FIFO), so writes land in
/// emission order and a shutdown cuts after everything queued before it.
#[derive(Debug)]
enum ShardCmd {
    Open(u32, Box<FramedStream>, Arc<ConnShared>),
    Write(u32, Bytes),
    Shutdown(u32),
    Release(u32),
}

/// Shard → pump per-connection inbox: the bounded ingress ring.
#[derive(Debug, Default)]
struct ConnInbox {
    frames: VecDeque<Bytes>,
    closed: bool,
    error: Option<AnorError>,
}

impl ConnInbox {
    fn has_input(&self) -> bool {
        !self.frames.is_empty() || self.closed || self.error.is_some()
    }
}

/// One reactor shard's shared state (commands in, inboxes out).
#[derive(Debug)]
struct ShardState {
    cmds: Mutex<VecDeque<ShardCmd>>,
    /// Signalled when commands arrive or inbox room frees up; the shard
    /// thread parks here (bounded at 1 ms) when idle.
    work_cv: Condvar,
    inbox: Mutex<BTreeMap<u32, ConnInbox>>,
    stop: AtomicBool,
    /// `pump_phase_seconds{phase=ingest/shardN}` — one sweep of this
    /// shard's sockets.
    ingest: Histogram,
}

/// Edge-counted readiness signal: shards bump the epoch whenever they
/// deliver input; the pump waits for the epoch to move.
#[derive(Debug, Default)]
struct ReadySignal {
    epoch: Mutex<u64>,
    cv: Condvar,
}

impl ReadySignal {
    fn current(&self) -> u64 {
        *self.epoch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn bump(&self) {
        {
            let mut g = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
            *g = g.wrapping_add(1);
        }
        self.cv.notify_all();
    }

    /// Wait until the epoch moves past `seen` or `timeout` elapses.
    fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut g = self.epoch.lock().unwrap_or_else(PoisonError::into_inner);
        while *g == seen {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            g = self
                .cv
                .wait_timeout(g, deadline.duration_since(now))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// Owns the shard threads; dropping it stops and joins them (kept as a
/// separate struct so [`ReactorTransport::into_listener`] can move the
/// listener out while this one's `Drop` does the teardown).
#[derive(Debug)]
struct ShardPool {
    shards: Vec<Arc<ShardState>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.stop.store(true, Ordering::SeqCst);
            shard.work_cv.notify_all();
        }
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Shard-thread-side state for one connection.
#[derive(Debug)]
struct ShardConn {
    stream: FramedStream,
    shared: Arc<ConnShared>,
    /// Frames accepted by `write_frame` and not yet handed to the
    /// stream's own buffer.
    egress: VecDeque<Bytes>,
    /// A hard (non-protocol) I/O error already delivered to the pump;
    /// stop touching the socket.
    failed: bool,
}

/// The sharded non-blocking reactor. Sockets are distributed over shards
/// by `id % shards`; each shard thread sweeps its sockets (reads into
/// per-connection inboxes, flushes queued egress) and parks when idle.
/// The pump accepts, addresses connections by [`ConnId`], and drains
/// inboxes in ascending id order.
#[derive(Debug)]
pub struct ReactorTransport {
    acceptor: Acceptor,
    slab: ConnSlab<Arc<ConnShared>>,
    pool: ShardPool,
    ready: Arc<ReadySignal>,
    depth: usize,
    drops: Counter,
}

impl ReactorTransport {
    /// Take over a listener with `shards` reactor shards and the given
    /// per-connection queue depth.
    pub fn new(
        listener: impl Into<Listener>,
        telemetry: &Telemetry,
        metrics: TransportMetrics,
        faults: Option<FaultPlan>,
        shards: usize,
        conn_queue_depth: usize,
    ) -> Result<Self> {
        let acceptor = Acceptor::new(listener.into(), metrics, faults)?;
        let depth = conn_queue_depth.max(1);
        let ready = Arc::new(ReadySignal::default());
        let mut pool = ShardPool {
            shards: Vec::new(),
            threads: Vec::new(),
        };
        for i in 0..shards.max(1) {
            let shard = Arc::new(ShardState {
                cmds: Mutex::new(VecDeque::new()),
                work_cv: Condvar::new(),
                inbox: Mutex::new(BTreeMap::new()),
                stop: AtomicBool::new(false),
                ingest: telemetry.histogram(
                    "pump_phase_seconds",
                    &[("phase", &format!("ingest/shard{i}"))],
                ),
            });
            let thread_shard = Arc::clone(&shard);
            let thread_ready = Arc::clone(&ready);
            pool.threads.push(
                std::thread::Builder::new()
                    .name(format!("anord-shard{i}"))
                    .spawn(move || run_shard(&thread_shard, &thread_ready, depth))?,
            );
            pool.shards.push(shard);
        }
        Ok(ReactorTransport {
            acceptor,
            slab: ConnSlab::new(),
            pool,
            ready,
            depth,
            drops: telemetry.counter(
                "transport_backpressure_drops_total",
                &[("role", "budgeter")],
            ),
        })
    }

    fn shard_for(&self, id: ConnId) -> Option<&Arc<ShardState>> {
        let n = self.pool.shards.len().max(1);
        self.pool.shards.get(id.index() % n)
    }

    fn send_cmd(&self, id: ConnId, cmd: ShardCmd) {
        if let Some(shard) = self.shard_for(id) {
            {
                let mut g = shard.cmds.lock().unwrap_or_else(PoisonError::into_inner);
                g.push_back(cmd);
            }
            shard.work_cv.notify_one();
        }
    }
}

impl Transport for ReactorTransport {
    fn accept(&mut self) -> Result<Vec<ConnId>> {
        let mut out = Vec::new();
        for framed in self.acceptor.accept()? {
            let shared = Arc::new(ConnShared::default());
            let id = self.slab.insert(Arc::clone(&shared));
            self.send_cmd(id, ShardCmd::Open(id.value(), Box::new(framed), shared));
            out.push(id);
        }
        Ok(out)
    }

    fn poll_readable(&mut self) -> Vec<ConnId> {
        let mut ids: Vec<ConnId> = Vec::new();
        for shard in &self.pool.shards {
            let g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            for (&raw, inbox) in g.iter() {
                let id = ConnId(raw);
                if inbox.has_input() && self.slab.contains(id) {
                    ids.push(id);
                }
            }
        }
        // Deterministic drain order: ascending accept index across all
        // shards, exactly the order the blocking plane sweeps slots in.
        ids.sort_unstable();
        ids
    }

    fn read_frames(&mut self, id: ConnId) -> Result<(Vec<Bytes>, bool)> {
        let Some(shard) = self.shard_for(id) else {
            return Ok((Vec::new(), false));
        };
        let (result, drained) = {
            let mut g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            let Some(inbox) = g.get_mut(&id.value()) else {
                return Ok((Vec::new(), false));
            };
            if let Some(err) = inbox.error.take() {
                return Err(err);
            }
            let frames: Vec<Bytes> = inbox.frames.drain(..).collect();
            let closed = inbox.closed;
            let drained = !frames.is_empty();
            ((frames, closed), drained)
        };
        if drained {
            // Inbox room freed: wake the shard so a connection paused on
            // the ingress bound resumes reading.
            shard.work_cv.notify_one();
        }
        Ok(result)
    }

    fn write_frame(&mut self, id: ConnId, frame: Bytes) -> Result<()> {
        let Some(shared) = self.slab.get(id) else {
            return Ok(());
        };
        let cap = self.depth.saturating_mul(EGRESS_BYTES_PER_SLOT);
        if shared
            .egress_bytes
            .load(Ordering::SeqCst)
            .saturating_add(frame.len())
            > cap
        {
            // The slow-endpoint contract: drop and count, never queue
            // without bound. The caller's decision remains recorded.
            self.drops.inc();
            return Ok(());
        }
        shared.egress_bytes.fetch_add(frame.len(), Ordering::SeqCst);
        self.send_cmd(id, ShardCmd::Write(id.value(), frame));
        Ok(())
    }

    fn shutdown(&mut self, id: ConnId) {
        if let Some(shared) = self.slab.get(id) {
            // Mark dead immediately so liveness checks in the same pump
            // agree with the blocking plane's synchronous shutdown.
            shared.closed.store(true, Ordering::SeqCst);
        }
        self.send_cmd(id, ShardCmd::Shutdown(id.value()));
    }

    fn release(&mut self, id: ConnId) {
        if self.slab.remove(id).is_some() {
            self.send_cmd(id, ShardCmd::Release(id.value()));
        }
    }

    fn is_open(&self, id: ConnId) -> bool {
        self.slab.contains(id)
    }

    fn is_live(&self, id: ConnId) -> bool {
        self.slab
            .get(id)
            .is_some_and(|shared| !shared.closed.load(Ordering::SeqCst))
    }

    fn open_conns(&self) -> usize {
        self.slab.open()
    }

    fn wait_readable(&self, timeout: Duration) -> bool {
        let seen = self.ready.current();
        // Fast path: input already waiting from an earlier bump.
        for shard in &self.pool.shards {
            let g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            if g.values().any(ConnInbox::has_input) {
                return true;
            }
        }
        self.ready.wait_past(seen, timeout)
    }

    fn shard_phases(&self) -> Vec<PhaseStat> {
        self.pool
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| PhaseStat {
                phase: format!("ingest/shard{i}"),
                p50: shard.ingest.quantile(0.5),
                p90: shard.ingest.quantile(0.9),
                p99: shard.ingest.quantile(0.99),
            })
            .collect()
    }

    fn backpressure_drops(&self) -> u64 {
        self.drops.get()
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Reactor
    }

    fn into_listener(self: Box<Self>) -> Listener {
        let ReactorTransport { acceptor, pool, .. } = *self;
        drop(pool); // stops and joins the shard threads
        acceptor.listener
    }
}

/// One shard thread's loop: apply pump commands, sweep every owned
/// socket (flush egress, read ingress into the bounded inbox), publish
/// liveness/egress accounting, and park when idle.
///
/// Lock discipline: the `cmds` and `inbox` guards are taken in short
/// scopes that never span socket I/O — a stalled peer can stall its own
/// socket, never a lock the pump needs.
fn run_shard(shard: &ShardState, ready: &ReadySignal, depth: usize) {
    let mut conns: BTreeMap<u32, ShardConn> = BTreeMap::new();
    loop {
        if shard.stop.load(Ordering::SeqCst) {
            return;
        }
        let cmds: Vec<ShardCmd> = {
            let mut g = shard.cmds.lock().unwrap_or_else(PoisonError::into_inner);
            g.drain(..).collect()
        };
        for cmd in cmds {
            match cmd {
                ShardCmd::Open(id, stream, shared) => {
                    conns.insert(
                        id,
                        ShardConn {
                            stream: *stream,
                            shared,
                            egress: VecDeque::new(),
                            failed: false,
                        },
                    );
                }
                ShardCmd::Write(id, frame) => {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.egress.push_back(frame);
                    }
                }
                ShardCmd::Shutdown(id) => {
                    if let Some(conn) = conns.get_mut(&id) {
                        conn.stream.shutdown_now();
                        conn.shared.closed.store(true, Ordering::SeqCst);
                    }
                }
                ShardCmd::Release(id) => {
                    conns.remove(&id);
                    let mut g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
                    g.remove(&id);
                }
            }
        }
        let started = Instant::now();
        let mut delivered = false;
        for (&id, conn) in conns.iter_mut() {
            if conn.failed {
                continue;
            }
            delivered |= sweep_conn(shard, id, conn, depth);
        }
        shard.ingest.observe(started.elapsed().as_secs_f64());
        if delivered {
            ready.bump();
        }
        // Park until the pump sends work or the idle tick (1 ms) lapses;
        // the tick bounds how long a peer's own traffic can wait when no
        // command arrives to wake us.
        let g = shard.cmds.lock().unwrap_or_else(PoisonError::into_inner);
        if g.is_empty() && !shard.stop.load(Ordering::SeqCst) {
            drop(
                shard
                    .work_cv
                    .wait_timeout(g, Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
    }
}

/// Sweep one connection: flush queued egress, read available ingress
/// (respecting the soft bound), publish accounting. Returns whether any
/// input (frames, a close, an error) was delivered to the pump.
fn sweep_conn(shard: &ShardState, id: u32, conn: &mut ShardConn, depth: usize) -> bool {
    let mut delivered = false;
    // Egress: hand queued frames to the stream (fault injection happens
    // inside `send`, preserving per-connection frame order) and flush.
    let mut io_error: Option<AnorError> = None;
    if !conn.stream.is_closed() {
        while let Some(frame) = conn.egress.pop_front() {
            if let Err(e) = conn.stream.send(frame) {
                io_error = Some(e);
                break;
            }
        }
        if io_error.is_none() {
            if let Err(e) = conn.stream.flush_some() {
                io_error = Some(e);
            }
        }
    } else {
        // A dead socket frees its queue; the bytes were counted at
        // enqueue time and are uncounted below.
        conn.egress.clear();
    }
    conn.shared.egress_bytes.store(
        conn.stream
            .pending_out()
            .saturating_add(conn.egress.iter().map(|f| f.len()).sum()),
        Ordering::SeqCst,
    );
    // Ingress, soft-bounded: a backlog at or past the queue depth parks
    // the socket until the pump drains the inbox (TCP backpressure does
    // the rest); one sweep may overshoot by whatever the kernel had
    // buffered, so the true bound is depth + one socket-buffer read.
    if io_error.is_none() && !conn.stream.is_closed() {
        let backlog = {
            let g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
            g.get(&id).map_or(0, |inbox| inbox.frames.len())
        };
        if backlog < depth {
            match conn.stream.recv_frames() {
                Ok(frames) => {
                    if !frames.is_empty() {
                        let mut g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
                        g.entry(id).or_default().frames.extend(frames);
                        delivered = true;
                    }
                }
                Err(e) => io_error = Some(e),
            }
        }
    }
    if let Some(e) = io_error {
        conn.failed = true;
        conn.shared.closed.store(true, Ordering::SeqCst);
        let mut g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        g.entry(id).or_default().error = Some(e);
        return true;
    }
    if conn.stream.is_closed() && !conn.shared.closed.swap(true, Ordering::SeqCst) {
        let mut g = shard.inbox.lock().unwrap_or_else(PoisonError::into_inner);
        g.entry(id).or_default().closed = true;
        delivered = true;
    }
    delivered
}
