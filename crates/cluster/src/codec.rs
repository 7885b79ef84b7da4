//! Non-blocking framed byte links.
//!
//! The cluster daemon and the job endpoints are *pumped* state machines
//! driven by the experiment harness's virtual clock, so their links are
//! non-blocking: reads drain whatever has arrived, writes queue into an
//! outbound buffer that is flushed opportunistically, and time never
//! waits on the wire.
//!
//! A link is either a TCP stream (the `anord`/`anor-job` daemons, the
//! load harness, the socket tests) or one end of an in-process pipe pair
//! with TCP's non-blocking semantics. The emulated cluster and replay run
//! both ends on one thread, where loopback TCP models no latency and no
//! loss but costs a syscall per read. Framing, the length-prefix check,
//! fault injection and the transport counters all sit above the link, so
//! every frame takes the same encode → bytes → `take_frame` → decode
//! path over either.

use crate::session::{corrupt_byte, FaultKind, FaultPlan};
use anor_telemetry::{Counter, Telemetry};
use anor_types::msg::{take_frame, MAX_FRAME_LEN};
use anor_types::{AnorError, Result};
use bytes::{Bytes, BytesMut};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};

/// One direction of an in-process link.
#[derive(Debug, Default)]
struct Pipe {
    /// Written and not yet read.
    bytes: Vec<u8>,
    /// Set once either end shut the link down or dropped it.
    closed: bool,
}

/// A pipe shared by its writing and its reading end. A mutex rather than
/// a cell: the workspace denies `unsafe_code`, and a link must be `Send`
/// (reactor shards own their streams on their own threads). Every update
/// leaves the pipe valid, so a poisoned lock is safe to recover.
type SharedPipe = Arc<Mutex<Pipe>>;

/// One end of an in-process pipe pair, with TCP's non-blocking
/// semantics: reading an empty, open pipe is `WouldBlock`; once the peer
/// has shut down or dropped its end, reads drain what is left and then
/// return `Ok(0)`; writing towards a closed end is `BrokenPipe`.
/// Shutting down or dropping either end closes both directions. The
/// pipes are unbounded, so a write never blocks and a slow reader never
/// pushes back on its peer.
#[derive(Debug)]
pub(crate) struct MemLink {
    rx: SharedPipe,
    tx: SharedPipe,
}

impl MemLink {
    /// Two connected ends.
    pub(crate) fn pair() -> (MemLink, MemLink) {
        let (a, b) = (SharedPipe::default(), SharedPipe::default());
        (
            MemLink {
                rx: Arc::clone(&a),
                tx: Arc::clone(&b),
            },
            MemLink { rx: b, tx: a },
        )
    }

    /// Move everything waiting in the pipe onto `inbuf`.
    fn read_into(&self, inbuf: &mut BytesMut) -> io::Result<usize> {
        let mut pipe = self.rx.lock().unwrap_or_else(PoisonError::into_inner);
        if pipe.bytes.is_empty() && !pipe.closed {
            return Err(ErrorKind::WouldBlock.into());
        }
        inbuf.extend_from_slice(&pipe.bytes);
        let n = pipe.bytes.len();
        pipe.bytes.clear();
        Ok(n)
    }

    fn write(&self, data: &[u8]) -> io::Result<usize> {
        let mut pipe = self.tx.lock().unwrap_or_else(PoisonError::into_inner);
        if pipe.closed {
            return Err(ErrorKind::BrokenPipe.into());
        }
        pipe.bytes.extend_from_slice(data);
        Ok(data.len())
    }

    fn shutdown(&self) {
        for pipe in [&self.rx, &self.tx] {
            pipe.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        }
    }
}

impl Drop for MemLink {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The byte link under a [`FramedStream`].
#[derive(Debug)]
pub(crate) enum Link {
    /// A connected TCP stream.
    Tcp(TcpStream),
    /// One end of an in-process pipe pair.
    Mem(MemLink),
}

impl Link {
    /// Append what has arrived to `inbuf` and return its length: `Ok(0)`
    /// at end of stream, `WouldBlock` when nothing is waiting.
    fn read_into(&mut self, inbuf: &mut BytesMut) -> io::Result<usize> {
        match self {
            Link::Tcp(stream) => {
                let mut scratch = [0u8; 4096];
                let n = stream.read(&mut scratch)?;
                inbuf.extend_from_slice(&scratch[..n]);
                Ok(n)
            }
            Link::Mem(link) => link.read_into(inbuf),
        }
    }

    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        match self {
            Link::Tcp(stream) => stream.write(data),
            Link::Mem(link) => link.write(data),
        }
    }

    /// Close both directions; the peer sees EOF once it has drained.
    fn shutdown(&self) {
        match self {
            Link::Tcp(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
            }
            Link::Mem(link) => link.shutdown(),
        }
    }
}

/// Cached counter handles for one side of the wire protocol. Cloning is
/// cheap (each counter is an `Arc`'d atomic); every [`FramedStream`] on
/// the same role shares the same series.
#[derive(Clone, Debug)]
pub struct TransportMetrics {
    frames_tx: Counter,
    frames_rx: Counter,
    bytes_tx: Counter,
    bytes_rx: Counter,
    reconnects: Counter,
    oversize_rejected: Counter,
    faults_injected: Counter,
}

impl TransportMetrics {
    /// Register the transport series under `role` (e.g. "budgeter",
    /// "endpoint") so both ends of a localhost test stay distinguishable.
    pub fn new(telemetry: &Telemetry, role: &str) -> Self {
        let labels = &[("role", role)];
        TransportMetrics {
            frames_tx: telemetry.counter("transport_frames_tx_total", labels),
            frames_rx: telemetry.counter("transport_frames_rx_total", labels),
            bytes_tx: telemetry.counter("transport_bytes_tx_total", labels),
            bytes_rx: telemetry.counter("transport_bytes_rx_total", labels),
            reconnects: telemetry.counter("transport_reconnects_total", labels),
            oversize_rejected: telemetry.counter("transport_oversize_rejected_total", labels),
            faults_injected: telemetry.counter("transport_faults_injected_total", labels),
        }
    }

    /// Count a (re-)established connection on this role.
    pub fn connection_opened(&self) {
        self.reconnects.inc();
    }

    /// Connections (re-)established on this role so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Frames rejected for an oversized length prefix so far.
    pub fn oversize_rejected(&self) -> u64 {
        self.oversize_rejected.get()
    }

    /// Chaos faults injected into streams on this role so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.get()
    }
}

/// Construction options for a [`FramedStream`]: optional transport
/// metrics and an optional chaos [`FaultPlan`].
#[derive(Debug, Default, Clone)]
pub struct StreamOptions {
    metrics: Option<TransportMetrics>,
    faults: Option<FaultPlan>,
}

impl StreamOptions {
    /// Count frames/bytes/connections into the given transport series.
    pub fn metrics(mut self, metrics: TransportMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Inject the given chaos schedule into the stream's send path.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// A length-prefix-framed, non-blocking stream over a TCP or in-process
/// link.
#[derive(Debug)]
pub struct FramedStream {
    link: Link,
    inbuf: BytesMut,
    outbuf: BytesMut,
    closed: bool,
    metrics: Option<TransportMetrics>,
    faults: Option<FaultPlan>,
    /// Frames held back by an injected [`FaultKind::Delay`], with the
    /// number of further sends to wait before queueing each.
    delayed: Vec<(u32, Bytes)>,
}

impl FramedStream {
    /// Wrap a connected TCP stream: switches it to non-blocking mode and
    /// disables Nagle (control messages are tiny and latency-sensitive).
    /// When `opts` carries metrics, the connection itself is counted.
    pub fn new(stream: TcpStream, opts: StreamOptions) -> Result<Self> {
        Self::from_link(Link::Tcp(stream), opts)
    }

    /// Wrap a connected link of either kind (see [`FramedStream::new`]).
    pub(crate) fn from_link(link: Link, opts: StreamOptions) -> Result<Self> {
        if let Link::Tcp(stream) = &link {
            stream.set_nonblocking(true)?;
            stream.set_nodelay(true)?;
        }
        if let Some(m) = &opts.metrics {
            m.connection_opened();
        }
        Ok(FramedStream {
            link,
            inbuf: BytesMut::with_capacity(4096),
            outbuf: BytesMut::with_capacity(4096),
            closed: false,
            metrics: opts.metrics,
            faults: opts.faults,
            delayed: Vec::new(),
        })
    }

    /// Queue an encoded frame and try to flush. An attached [`FaultPlan`]
    /// is consulted here: the session's cumulative frame counter advances
    /// once per call and a scheduled fault rewrites, delays, duplicates
    /// or drops the frame (possibly cutting the connection).
    pub fn send(&mut self, frame: Bytes) -> Result<()> {
        if let Some(m) = &self.metrics {
            m.frames_tx.inc();
        }
        let held = self.delayed.len();
        match self.faults.as_ref().and_then(|p| p.on_frame()) {
            None => self.outbuf.extend_from_slice(&frame),
            Some((kind, seed)) => self.inject(kind, seed, frame),
        }
        // Only age holdbacks that predate this call: a frame delayed by
        // this very send must wait for *further* frames, not release
        // behind itself.
        self.release_delayed(held);
        self.flush_some()
    }

    /// Apply one scheduled fault to the frame about to be queued.
    fn inject(&mut self, kind: FaultKind, seed: u64, frame: Bytes) {
        if let Some(m) = &self.metrics {
            m.faults_injected.inc();
        }
        match kind {
            FaultKind::Drop => {
                // The frame is lost and the connection dies with it.
                self.closed = true;
                self.link.shutdown();
            }
            FaultKind::Delay(holdback) => {
                self.delayed.push((holdback.max(1), frame));
            }
            FaultKind::Duplicate => {
                self.outbuf.extend_from_slice(&frame);
                self.outbuf.extend_from_slice(&frame);
            }
            FaultKind::Truncate => {
                // Half the frame goes out, then the connection is cut
                // mid-frame; flush eagerly so the prefix actually lands.
                self.outbuf.extend_from_slice(&frame[..frame.len() / 2]);
                let _ = self.flush_some();
                self.closed = true;
                self.link.shutdown();
            }
            FaultKind::Corrupt => {
                let bad = corrupt_byte(&frame, seed);
                self.outbuf.extend_from_slice(&bad);
            }
        }
    }

    /// Queue any delayed frames whose holdback has elapsed. Only the
    /// first `aging` entries count this send against their holdback;
    /// entries past that index were pushed by the current call.
    fn release_delayed(&mut self, aging: usize) {
        if aging == 0 || self.delayed.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.delayed);
        for (i, (countdown, frame)) in pending.into_iter().enumerate() {
            if i >= aging {
                self.delayed.push((countdown, frame));
            } else if countdown <= 1 {
                self.outbuf.extend_from_slice(&frame);
            } else {
                self.delayed.push((countdown - 1, frame));
            }
        }
    }

    /// Write as much buffered output as the link accepts right now.
    pub fn flush_some(&mut self) -> Result<()> {
        while !self.outbuf.is_empty() {
            match self.link.write(&self.outbuf) {
                Ok(0) => {
                    self.closed = true;
                    return Ok(());
                }
                Ok(n) => {
                    if let Some(m) = &self.metrics {
                        m.bytes_tx.add(n as u64);
                    }
                    let _ = self.outbuf.split_to(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == ErrorKind::BrokenPipe
                        || e.kind() == ErrorKind::ConnectionReset =>
                {
                    self.closed = true;
                    return Ok(());
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Drain the link and return every complete frame body received.
    pub fn recv_frames(&mut self) -> Result<Vec<Bytes>> {
        loop {
            match self.link.read_into(&mut self.inbuf) {
                Ok(0) => {
                    self.closed = true;
                    break;
                }
                Ok(n) => {
                    if let Some(m) = &self.metrics {
                        m.bytes_rx.add(n as u64);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if e.kind() == ErrorKind::ConnectionReset => {
                    self.closed = true;
                    break;
                }
                Err(e) => return Err(e.into()),
            }
        }
        let mut frames = Vec::new();
        loop {
            // Reject a corrupt length prefix *here*, before `take_frame`
            // is ever in a position to size a buffer from it, so the
            // rejection is both typed and counted per transport role.
            if self.inbuf.len() >= 4 {
                let len = u32::from_be_bytes([
                    self.inbuf[0],
                    self.inbuf[1],
                    self.inbuf[2],
                    self.inbuf[3],
                ]) as usize;
                if len > MAX_FRAME_LEN {
                    if let Some(m) = &self.metrics {
                        m.oversize_rejected.inc();
                        m.frames_rx.add(frames.len() as u64);
                    }
                    self.closed = true;
                    return Err(AnorError::protocol(format!(
                        "oversized frame length prefix {len} (max {MAX_FRAME_LEN}); \
                         dropping connection"
                    )));
                }
            }
            match take_frame(&mut self.inbuf)? {
                Some(body) => frames.push(body),
                None => break,
            }
        }
        if let Some(m) = &self.metrics {
            m.frames_rx.add(frames.len() as u64);
        }
        Ok(frames)
    }

    /// True once the peer closed or reset the connection.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Bytes queued but not yet written.
    pub fn pending_out(&self) -> usize {
        self.outbuf.len()
    }

    /// Cut the connection now: mark the stream closed and shut the
    /// link down both ways so the peer sees EOF immediately. The
    /// budgeter uses this to quarantine a misbehaving peer instead of
    /// letting a reject-storm spin the pump loop.
    pub fn shutdown_now(&mut self) {
        self.closed = true;
        self.link.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anor_types::msg::{ClusterToJob, JobToCluster};
    use anor_types::{JobId, Seconds, Watts};
    use std::net::TcpListener;

    // `Telemetry` / `TransportMetrics` come through `super::*`.

    /// The two links every test runs over.
    #[derive(Debug, Clone, Copy)]
    enum Kind {
        Tcp,
        Mem,
    }

    const KINDS: [Kind; 2] = [Kind::Tcp, Kind::Mem];

    /// A connected `(client, server)` pair over `kind`.
    fn pair_with(
        kind: Kind,
        client_opts: StreamOptions,
        server_opts: StreamOptions,
    ) -> (FramedStream, FramedStream) {
        let (client, server) = match kind {
            Kind::Tcp => {
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                let (server, _) = listener.accept().unwrap();
                (Link::Tcp(client), Link::Tcp(server))
            }
            Kind::Mem => {
                let (client, server) = MemLink::pair();
                (Link::Mem(client), Link::Mem(server))
            }
        };
        (
            FramedStream::from_link(client, client_opts).unwrap(),
            FramedStream::from_link(server, server_opts).unwrap(),
        )
    }

    fn pair(kind: Kind) -> (FramedStream, FramedStream) {
        pair_with(kind, StreamOptions::default(), StreamOptions::default())
    }

    /// Poll `done` until it holds. Loopback TCP may need the kernel a
    /// moment; the in-process link delivers within the call that writes,
    /// so there `done` must hold on the first poll.
    fn pump_until<F: FnMut() -> bool>(kind: Kind, mut done: F) {
        if let Kind::Mem = kind {
            assert!(done(), "the in-process link must deliver synchronously");
            return;
        }
        for _ in 0..1000 {
            if done() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("pump_until timed out over TCP");
    }

    #[test]
    fn messages_round_trip() {
        for kind in KINDS {
            let (mut client, mut server) = pair(kind);
            client
                .send(
                    ClusterToJob::SetPowerCap {
                        cap: Watts(205.0),
                        cause: 0,
                    }
                    .encode(),
                )
                .unwrap();
            let mut got = Vec::new();
            pump_until(kind, || {
                client.flush_some().unwrap();
                got.extend(server.recv_frames().unwrap());
                !got.is_empty()
            });
            let msg = ClusterToJob::decode(got.remove(0)).unwrap();
            assert_eq!(
                msg,
                ClusterToJob::SetPowerCap {
                    cap: Watts(205.0),
                    cause: 0
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn many_frames_in_one_burst() {
        for kind in KINDS {
            let (mut client, mut server) = pair(kind);
            for i in 0..100u64 {
                client
                    .send(
                        JobToCluster::Done {
                            job: JobId(i),
                            elapsed: Seconds(i as f64),
                        }
                        .encode(),
                    )
                    .unwrap();
            }
            let mut got = Vec::new();
            pump_until(kind, || {
                client.flush_some().unwrap();
                got.extend(server.recv_frames().unwrap());
                got.len() == 100
            });
            for (i, body) in got.into_iter().enumerate() {
                let JobToCluster::Done { job, .. } = JobToCluster::decode(body).unwrap() else {
                    panic!("wrong message kind over {kind:?}");
                };
                assert_eq!(job, JobId(i as u64), "{kind:?}");
            }
        }
    }

    #[test]
    fn closed_peer_detected() {
        for kind in KINDS {
            let (client, mut server) = pair(kind);
            drop(client);
            pump_until(kind, || {
                server.recv_frames().unwrap();
                server.is_closed()
            });
        }
    }

    #[test]
    fn reset_and_shutdown_close_the_peer() {
        for kind in KINDS {
            // Reset: the server goes away with the client's frame unread.
            let (mut client, server) = pair(kind);
            client.send(ClusterToJob::RequestSample.encode()).unwrap();
            drop(server);
            pump_until(kind, || {
                client.flush_some().unwrap();
                client.recv_frames().unwrap();
                client.is_closed()
            });
            // Shutdown: a frame sent before the cut still arrives, then
            // end of stream.
            let (mut client, mut server) = pair(kind);
            server.send(ClusterToJob::Shutdown.encode()).unwrap();
            server.shutdown_now();
            assert!(server.is_closed(), "{kind:?}");
            let mut got = Vec::new();
            pump_until(kind, || {
                got.extend(client.recv_frames().unwrap());
                client.is_closed()
            });
            assert_eq!(got.len(), 1, "{kind:?}");
        }
    }

    #[test]
    fn recv_on_quiet_link_is_empty_not_blocking() {
        for kind in KINDS {
            let (_client, mut server) = pair(kind);
            let start = std::time::Instant::now();
            let frames = server.recv_frames().unwrap();
            assert!(frames.is_empty(), "{kind:?}");
            assert!(!server.is_closed(), "{kind:?}");
            assert!(start.elapsed().as_millis() < 100, "recv must not block");
        }
    }

    #[test]
    fn metrics_count_frames_and_bytes_both_ways() {
        for kind in KINDS {
            let t = Telemetry::new();
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().metrics(TransportMetrics::new(&t, "endpoint")),
                StreamOptions::default().metrics(TransportMetrics::new(&t, "budgeter")),
            );
            let frame = ClusterToJob::SetPowerCap {
                cap: Watts(190.0),
                cause: 0,
            }
            .encode();
            let frame_len = frame.len() as u64;
            client.send(frame).unwrap();
            pump_until(kind, || {
                client.flush_some().unwrap();
                !server.recv_frames().unwrap().is_empty()
            });
            let ep = &[("role", "endpoint")];
            let bd = &[("role", "budgeter")];
            assert_eq!(t.counter("transport_frames_tx_total", ep).get(), 1);
            assert_eq!(t.counter("transport_bytes_tx_total", ep).get(), frame_len);
            assert_eq!(t.counter("transport_frames_rx_total", bd).get(), 1);
            assert_eq!(t.counter("transport_bytes_rx_total", bd).get(), frame_len);
        }
    }

    #[test]
    fn oversized_prefix_is_typed_error_and_counted() {
        use bytes::BufMut;
        for kind in KINDS {
            let t = Telemetry::new();
            let metrics = TransportMetrics::new(&t, "budgeter");
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default(),
                StreamOptions::default().metrics(metrics.clone()),
            );
            let mut junk = BytesMut::new();
            junk.put_u32(u32::MAX); // absurd length prefix
            junk.put_slice(&[0u8; 16]);
            client.send(junk.freeze()).unwrap();
            let mut err = None;
            pump_until(kind, || {
                client.flush_some().unwrap();
                match server.recv_frames() {
                    Ok(_) => false,
                    Err(e) => {
                        err = Some(e);
                        true
                    }
                }
            });
            assert!(
                matches!(err, Some(anor_types::AnorError::Protocol(_))),
                "want a typed protocol error over {kind:?}, got {err:?}"
            );
            assert!(server.is_closed(), "a corrupt peer drops the connection");
            assert_eq!(metrics.oversize_rejected(), 1);
            assert_eq!(
                t.counter("transport_oversize_rejected_total", &[("role", "budgeter")])
                    .get(),
                1
            );
        }
    }

    #[test]
    fn metrics_option_counts_the_connection() {
        for kind in KINDS {
            let t = Telemetry::new();
            let metrics = TransportMetrics::new(&t, "endpoint");
            for _ in 0..3 {
                let _pair = pair_with(
                    kind,
                    StreamOptions::default().metrics(metrics.clone()),
                    StreamOptions::default(),
                );
            }
            assert_eq!(
                t.counter("transport_reconnects_total", &[("role", "endpoint")])
                    .get(),
                3
            );
            assert_eq!(metrics.reconnects(), 3);
        }
    }

    // ---- chaos injection ----------------------------------------------

    use crate::session::FaultPlan;

    fn drain_ok(server: &mut FramedStream) -> Vec<Bytes> {
        // Chaos plans may corrupt framing; protocol errors are expected
        // and must not panic — they just end the drain.
        server.recv_frames().unwrap_or_default()
    }

    #[test]
    fn drop_fault_cuts_the_connection_at_the_scheduled_frame() {
        for kind in KINDS {
            let plan = FaultPlan::parse("drop@2").unwrap();
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().faults(plan.clone()),
                StreamOptions::default(),
            );
            client.send(ClusterToJob::RequestSample.encode()).unwrap();
            client.send(ClusterToJob::Shutdown.encode()).unwrap(); // dropped
            assert!(client.is_closed());
            assert_eq!(plan.injected(), 1);
            let mut got = Vec::new();
            pump_until(kind, || {
                got.extend(drain_ok(&mut server));
                server.is_closed()
            });
            // Only the first frame ever arrived.
            assert_eq!(got.len(), 1, "{kind:?}");
        }
    }

    #[test]
    fn duplicate_fault_repeats_the_frame() {
        for kind in KINDS {
            let plan = FaultPlan::parse("dup@1").unwrap();
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().faults(plan),
                StreamOptions::default(),
            );
            client.send(ClusterToJob::Shutdown.encode()).unwrap();
            let mut got = Vec::new();
            pump_until(kind, || {
                client.flush_some().unwrap();
                got.extend(drain_ok(&mut server));
                got.len() == 2
            });
            for body in got {
                assert_eq!(ClusterToJob::decode(body).unwrap(), ClusterToJob::Shutdown);
            }
        }
    }

    #[test]
    fn delay_fault_reorders_behind_later_frames() {
        for kind in KINDS {
            let plan = FaultPlan::parse("delay@1:1").unwrap();
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().faults(plan),
                StreamOptions::default(),
            );
            client.send(ClusterToJob::Shutdown.encode()).unwrap(); // held back
            client.send(ClusterToJob::RequestSample.encode()).unwrap();
            let mut got = Vec::new();
            pump_until(kind, || {
                client.flush_some().unwrap();
                got.extend(drain_ok(&mut server));
                got.len() == 2
            });
            let first = ClusterToJob::decode(got.remove(0)).unwrap();
            let second = ClusterToJob::decode(got.remove(0)).unwrap();
            assert_eq!(first, ClusterToJob::RequestSample, "{kind:?}");
            assert_eq!(second, ClusterToJob::Shutdown, "{kind:?}");
        }
    }

    #[test]
    fn corrupt_fault_never_panics_the_receiver() {
        for kind in KINDS {
            let plan = FaultPlan::parse("corrupt@1").unwrap().seeded(7);
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().faults(plan),
                StreamOptions::default(),
            );
            client.send(ClusterToJob::Shutdown.encode()).unwrap();
            client.flush_some().unwrap();
            assert_eq!(client.pending_out(), 0, "{kind:?}");
            drop(client);
            // Whatever the flipped byte did (desync, oversize, bad tag),
            // the receiver must surface it as data/err, never a panic.
            pump_until(kind, || match server.recv_frames() {
                Ok(frames) => {
                    for b in frames {
                        let _ = ClusterToJob::decode(b);
                    }
                    server.is_closed()
                }
                Err(_) => true,
            });
        }
    }

    #[test]
    fn truncate_fault_cuts_mid_frame() {
        for kind in KINDS {
            let plan = FaultPlan::parse("trunc@1").unwrap();
            let (mut client, mut server) = pair_with(
                kind,
                StreamOptions::default().faults(plan),
                StreamOptions::default(),
            );
            client
                .send(
                    ClusterToJob::SetPowerCap {
                        cap: Watts(200.0),
                        cause: 9,
                    }
                    .encode(),
                )
                .unwrap();
            assert!(client.is_closed());
            let mut got = Vec::new();
            pump_until(kind, || {
                got.extend(drain_ok(&mut server));
                server.is_closed()
            });
            assert!(got.is_empty(), "a half frame must never decode ({kind:?})");
        }
    }

    #[test]
    fn pending_out_drains() {
        for kind in KINDS {
            let (mut client, mut server) = pair(kind);
            client.send(ClusterToJob::RequestSample.encode()).unwrap();
            pump_until(kind, || {
                client.flush_some().unwrap();
                !server.recv_frames().unwrap().is_empty() || client.pending_out() == 0
            });
            assert_eq!(client.pending_out(), 0, "{kind:?}");
        }
    }
}
