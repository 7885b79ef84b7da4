//! The live operations plane: a dependency-free, hand-rolled HTTP/1.1
//! responder exposing a running daemon's observability surfaces.
//!
//! Post-hoc artifacts (`events.jsonl`, `metrics.prom`, postmortems) tell
//! you what happened; this module is for *while it runs*: an
//! [`OpsServer`] accepts plain HTTP GETs on a background thread and
//! serves
//!
//! * `/metrics` — the Prometheus text exposition of the shared
//!   [`Telemetry`] registry (same bytes as `metrics.prom`);
//! * `/health` — `ok` with a 200, for liveness probes;
//! * `/status` — a JSON snapshot produced by the caller-supplied
//!   [`StatusProvider`] (the budgeter publishes its session/lease/pool
//!   state into a board and the provider renders it).
//!
//! Every read is a cheap atomic or short lock hold against state the hot
//! path already maintains — serving a scrape never blocks a control
//! pass. The protocol support is deliberately minimal (GET only, one
//! request per connection, `Connection: close`): enough for `curl`,
//! Prometheus, and `anor-top`, with zero new dependencies.

use crate::Telemetry;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Renders the `/status` JSON body on demand. Called once per request on
/// the server thread; implementations should snapshot shared state via
/// cheap locked reads, never recompute it.
pub type StatusProvider = Arc<dyn Fn() -> String + Send + Sync>;

/// Cap on the request head we are willing to buffer: method + path +
/// headers. Anything longer is a hostile or broken client.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// Per-connection socket timeout: an idle or stalled scraper must not
/// pin the server thread.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

#[derive(Debug, Default)]
struct Shared {
    shutdown: AtomicBool,
    served: AtomicU64,
    errors: AtomicU64,
}

/// The background HTTP responder. Dropping the handle shuts the server
/// down (the listener thread is woken and joined).
#[derive(Debug)]
pub struct OpsServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Bind `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and start
    /// serving `/metrics` from `telemetry` and `/status` from `status`
    /// on a background thread.
    pub fn bind(addr: &str, telemetry: Telemetry, status: StatusProvider) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let worker = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("anor-ops".to_string())
            .spawn(move || serve(&listener, &telemetry, &status, &worker))?;
        Ok(OpsServer {
            addr: local,
            shared,
            handle: Some(handle),
        })
    }

    /// The address the server actually bound (resolves `:0` ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (any status code).
    pub fn requests_served(&self) -> u64 {
        self.shared.served.load(Ordering::Relaxed)
    }

    /// Connections dropped on I/O or parse errors so far.
    pub fn request_errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection so the
        // thread observes the flag and exits.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn serve(listener: &TcpListener, telemetry: &Telemetry, status: &StatusProvider, shared: &Shared) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok(stream) => match handle_conn(stream, telemetry, status) {
                Ok(()) => {
                    shared.served.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
            },
            Err(_) => {
                shared.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn handle_conn(
    mut stream: TcpStream,
    telemetry: &Telemetry,
    status: &StatusProvider,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = read_request_head(&mut stream)?;
    let (method, target) = parse_request_line(&head)?;
    // Ignore any query string: `/status?x=1` routes like `/status`.
    let path = target.split('?').next().unwrap_or(target);
    let (code, reason, content_type, body) = if method != "GET" {
        (
            405,
            "Method Not Allowed",
            "text/plain",
            String::from("GET only\n"),
        )
    } else {
        match path {
            "/health" => (200, "OK", "text/plain", String::from("ok\n")),
            "/metrics" => (
                200,
                "OK",
                "text/plain; version=0.0.4",
                telemetry.render_prometheus(),
            ),
            "/status" => (200, "OK", "application/json", status()),
            _ => (404, "Not Found", "text/plain", String::from("not found\n")),
        }
    };
    write!(
        stream,
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Read until the blank line ending the request head (or EOF), bounded
/// by [`MAX_REQUEST_BYTES`].
fn read_request_head(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
        if buf.windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
        if buf.len() > MAX_REQUEST_BYTES {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "request head exceeds 8 KiB",
            ));
        }
    }
    String::from_utf8(buf)
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 request"))
}

/// Split `GET /path HTTP/1.1` into method and target.
fn parse_request_line(head: &str) -> std::io::Result<(&str, &str)> {
    let line = head.lines().next().unwrap_or_default();
    let mut parts = line.split_whitespace();
    match (parts.next(), parts.next()) {
        (Some(method), Some(target)) => Ok((method, target)),
        _ => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed request line: {line:?}"),
        )),
    }
}

/// A minimal blocking HTTP GET against an [`OpsServer`]-style responder:
/// one request, `Connection: close`, body read to EOF. Returns the
/// status code and the response body. Shared by `anor-top`, the CI
/// status smoke and the integration tests, so nothing in the workspace
/// needs `curl`.
pub fn http_get(addr: &str, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "unresolvable addr")
    })?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "response without header end",
        )
    })?;
    let code = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|c| c.parse::<u16>().ok())
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed status line")
        })?;
    Ok((code, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> OpsServer {
        let t = Telemetry::new();
        t.counter("ops_probe_total", &[("kind", "unit")]).add(7);
        let provider: StatusProvider = Arc::new(|| String::from("{\"ok\":true}"));
        OpsServer::bind("127.0.0.1:0", t, provider).unwrap()
    }

    /// The served counter ticks after the response bytes are written,
    /// so a client can observe its complete answer before the server
    /// thread reaches the fetch_add: give the counter up to 2 s to reach
    /// `n` rather than asserting against the race, then read it.
    fn served_once_settled(s: &OpsServer, n: u64) -> u64 {
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while s.requests_served() < n && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        s.requests_served()
    }

    #[test]
    fn serves_health_metrics_and_status() {
        let s = server();
        let addr = s.local_addr().to_string();
        let (code, body) = http_get(&addr, "/health", IO_TIMEOUT).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        let (code, body) = http_get(&addr, "/metrics", IO_TIMEOUT).unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("ops_probe_total{kind=\"unit\"} 7"), "{body}");
        let (code, body) = http_get(&addr, "/status?verbose=1", IO_TIMEOUT).unwrap();
        assert_eq!((code, body.as_str()), (200, "{\"ok\":true}"));
        assert_eq!(served_once_settled(&s, 3), 3);
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let s = server();
        let addr = s.local_addr().to_string();
        let (code, _) = http_get(&addr, "/nope", IO_TIMEOUT).unwrap();
        assert_eq!(code, 404);
        // A hand-rolled POST: the server answers 405 rather than hanging.
        let mut stream = TcpStream::connect(s.local_addr()).unwrap();
        stream
            .write_all(b"POST /status HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
    }

    #[test]
    fn concurrent_scrapes_all_succeed() {
        // The listener is sequential by design; concurrent scrapers
        // queue in the accept backlog and every one of them still gets
        // a complete answer.
        let s = server();
        let addr = s.local_addr().to_string();
        let n = 8;
        let handles: Vec<_> = (0..n)
            .map(|_| {
                let addr = addr.clone();
                std::thread::spawn(move || http_get(&addr, "/metrics", Duration::from_secs(5)))
            })
            .collect();
        for h in handles {
            let (code, body) = h.join().unwrap().unwrap();
            assert_eq!(code, 200);
            assert!(body.contains("ops_probe_total"), "{body}");
        }
        assert_eq!(served_once_settled(&s, n), n);
        assert_eq!(s.request_errors(), 0);
    }

    #[test]
    fn slow_loris_times_out_without_wedging_the_listener() {
        // A client that sends the request line and then stalls must not
        // pin the single server thread forever: the 2 s read timeout
        // drops it, the error counter ticks, and the next well-behaved
        // scrape (queued behind the stall) still completes.
        let s = server();
        let addr = s.local_addr();
        let mut loris = TcpStream::connect(addr).unwrap();
        loris
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n")
            .unwrap();
        loris.flush().unwrap();
        // No terminating blank line, no further bytes: the server's
        // read blocks until IO_TIMEOUT fires. Meanwhile a legitimate
        // request queues in the backlog; a timeout comfortably above
        // IO_TIMEOUT lets it ride out the stall.
        let (code, body) = http_get(&addr.to_string(), "/health", Duration::from_secs(8)).unwrap();
        assert_eq!((code, body.as_str()), (200, "ok\n"));
        assert_eq!(served_once_settled(&s, 1), 1);
        assert_eq!(s.request_errors(), 1);
        drop(loris);
    }

    #[test]
    fn drop_shuts_the_server_down() {
        let s = server();
        let addr = s.local_addr();
        drop(s);
        // The port is released: a fresh GET cannot reach a live server.
        assert!(http_get(&addr.to_string(), "/health", Duration::from_millis(200)).is_err());
    }
}
