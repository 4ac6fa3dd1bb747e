//! A minimal blocking HTTP/1.1 server and client.
//!
//! Scope: exactly what a single-host control plane needs. One request per
//! connection (`Connection: close`), `Content-Length` bodies only (no
//! chunked encoding), no TLS, no percent-decoding beyond `%xx` in paths.
//! Every connection is handled on its own thread. The accept loop blocks
//! in `accept()`, so a request is picked up the moment it connects;
//! [`ShutdownHandle::shutdown`] sets a flag and wakes the loop with one
//! loopback connection. [`HttpServer::serve`] then joins the in-flight
//! request threads, each bounded by the per-connection I/O timeout, and
//! returns.

use cmp_json::Value;
use std::io::{self, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Upper bound on request head (request line + headers) bytes.
const MAX_HEAD: usize = 64 * 1024;
/// Upper bound on request body bytes (job specs and config documents are
/// tiny; anything bigger is a client error).
const MAX_BODY: usize = 16 * 1024 * 1024;
/// Per-connection socket timeout: a stalled peer must not pin a handler
/// thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// How long [`ShutdownHandle::shutdown`] waits for its wake connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);
/// Pause after an accept error (e.g. out of file descriptors), so a
/// persistent error does not spin the loop.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(100);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-case method, e.g. `GET`.
    pub method: String,
    /// Decoded path without the query string, e.g. `/jobs/job-1`.
    pub path: String,
    /// Query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in order of appearance.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when the request carried none).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header (name matched case-insensitively).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The non-empty `/`-separated path segments, e.g. `["jobs", "job-1"]`.
    pub fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// The body parsed as a JSON document.
    pub fn json(&self) -> Result<Value, String> {
        let text = std::str::from_utf8(&self.body).map_err(|e| format!("body not UTF-8: {e}"))?;
        Value::parse(text).map_err(|e| format!("body not JSON: {e}"))
    }
}

/// An HTTP response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code, e.g. 200.
    pub status: u16,
    /// Content type header value.
    pub content_type: String,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with an explicit status, content type and body.
    pub fn new(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            content_type: content_type.to_string(),
            body: body.into(),
        }
    }

    /// A JSON response (the document is pretty-printed).
    pub fn json(status: u16, doc: &Value) -> Self {
        Self::new(status, "application/json", doc.pretty())
    }

    /// `200 OK` with a JSON body.
    pub fn ok_json(doc: &Value) -> Self {
        Self::json(200, doc)
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self::new(
            status,
            "text/plain; version=0.0.4; charset=utf-8",
            body.into(),
        )
    }

    /// An error response with a `{"error": ...}` JSON body.
    pub fn error(status: u16, message: impl Into<String>) -> Self {
        Self::json(status, &Value::object().insert("error", message.into()))
    }

    /// `404 Not Found`.
    pub fn not_found(what: &str) -> Self {
        Self::error(404, format!("not found: {what}"))
    }

    /// `405 Method Not Allowed`.
    pub fn method_not_allowed(method: &str, path: &str) -> Self {
        Self::error(405, format!("{method} not allowed on {path}"))
    }

    /// `400 Bad Request`.
    pub fn bad_request(message: impl Into<String>) -> Self {
        Self::error(400, message)
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            500 => "Internal Server Error",
            _ => "Status",
        }
    }

    fn write_to(&self, stream: &mut TcpStream) -> io::Result<()> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

/// A handle that asks a running [`HttpServer::serve`] loop to stop.
///
/// Clones share the flag. A handle from [`HttpServer::shutdown_handle`]
/// also knows the listener's address: [`shutdown`](Self::shutdown) makes
/// one loopback connection there to wake the blocked `accept()`, so the
/// loop stops at once. `serve` then joins the in-flight request threads
/// (each bounded by the per-connection I/O timeout), so they finish their
/// response first. A [`Default`] handle has no address and only sets the
/// flag.
#[derive(Debug, Clone, Default)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    wake: Option<SocketAddr>,
}

impl ShutdownHandle {
    /// Requests shutdown. Idempotent: only the first call wakes the loop.
    pub fn shutdown(&self) {
        if self.flag.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(addr) = self.wake {
            // The kernel completes the handshake from its backlog, so this
            // returns without waiting for the loop; `serve` drops the
            // connection unanswered. A failure means the listener is gone.
            let _ = TcpStream::connect_timeout(&addr, WAKE_TIMEOUT);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound HTTP/1.1 listener dispatching each connection to a handler
/// thread.
#[derive(Debug)]
pub struct HttpServer {
    listener: TcpListener,
    shutdown: ShutdownHandle,
}

impl HttpServer {
    /// Binds to `addr` (use port 0 for an ephemeral port; read the result
    /// back with [`local_addr`](HttpServer::local_addr)).
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let mut wake = listener.local_addr()?;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        Ok(HttpServer {
            listener,
            shutdown: ShutdownHandle {
                flag: Arc::default(),
                wake: Some(wake),
            },
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that stops the [`serve`](HttpServer::serve) loop.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        self.shutdown.clone()
    }

    /// Accepts connections until shutdown is requested, handling each on
    /// its own thread, then joins the threads still running. The handler
    /// sees every syntactically valid request; malformed requests are
    /// answered with `400` without reaching it. A handler panic answers
    /// `500` (the catch keeps one bad request from wedging the daemon).
    pub fn serve<H>(self, handler: Arc<H>)
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        let mut in_flight: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown.is_shutdown() {
            match self.listener.accept() {
                // The wake connection, or a client that raced shutdown:
                // dropped unanswered.
                Ok(_) if self.shutdown.is_shutdown() => break,
                Ok((stream, _peer)) => {
                    in_flight.retain(|h| !h.is_finished());
                    let handler = Arc::clone(&handler);
                    in_flight.push(std::thread::spawn(move || {
                        handle_connection(stream, handler)
                    }));
                }
                Err(e) => {
                    eprintln!("[http] accept error: {e}");
                    std::thread::sleep(ACCEPT_BACKOFF);
                }
            }
        }
        // Refuse new connections while the last responses are written.
        drop(self.listener);
        for h in in_flight {
            let _ = h.join();
        }
    }
}

fn handle_connection<H>(mut stream: TcpStream, handler: Arc<H>)
where
    H: Fn(&Request) -> Response + Send + Sync + 'static,
{
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let response = match read_request(&mut stream) {
        Ok(req) => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&req))) {
            Ok(resp) => resp,
            Err(_) => Response::error(500, format!("handler panicked on {}", req.path)),
        },
        Err(e) => Response::bad_request(e),
    };
    if let Err(e) = response.write_to(&mut stream) {
        eprintln!("[http] write error: {e}");
    }
}

/// Reads and parses one request from the stream. Reads at most one chunk
/// past [`MAX_HEAD`] while looking for the end of the head, and never
/// past the end of the body its `Content-Length` announces.
fn read_request(stream: &mut impl Read) -> Result<Request, String> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    // Bytes before `scanned` hold no complete `\r\n\r\n`, so each read
    // rescans only its own bytes plus three (a terminator may straddle).
    let mut scanned = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf[scanned..]) {
            break scanned + pos;
        }
        if buf.len() > MAX_HEAD {
            return Err("request head too large".into());
        }
        scanned = buf.len().saturating_sub(3);
        let n = stream.read(&mut chunk).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-request".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "head not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_string();
    let target = parts.next().ok_or("missing request target")?;
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(format!("not an HTTP/1.x request line: {request_line:?}")),
    }

    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = parse_target(target)?;

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map(|(_, v)| {
            // Digits only: `usize::from_str` would also take a `+` sign.
            v.bytes()
                .all(|b| b.is_ascii_digit())
                .then(|| v.parse::<usize>().ok())
                .flatten()
                .ok_or_else(|| format!("bad Content-Length {v:?}"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(format!("body too large ({content_length} bytes)"));
    }
    let mut body: Vec<u8> = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = stream
            .read(&mut chunk[..want])
            .map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        query,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits a request target into a decoded path and its query pairs.
fn parse_target(target: &str) -> Result<(String, Vec<(String, String)>), String> {
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path)?;
    let mut query = Vec::new();
    if let Some(q) = raw_query {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            query.push((percent_decode(k)?, percent_decode(v)?));
        }
    }
    Ok((path, query))
}

fn percent_decode(s: &str) -> Result<String, String> {
    if !s.contains('%') && !s.contains('+') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                // Exactly two hex digits: `u8::from_str_radix` would also
                // take a sign, decoding `%+f` to 0x0F.
                let digit = |j: usize| bytes.get(j).and_then(|&b| (b as char).to_digit(16));
                let byte = digit(i + 1)
                    .zip(digit(i + 2))
                    .map(|(hi, lo)| (hi * 16 + lo) as u8)
                    .ok_or_else(|| format!("bad percent escape in {s:?}"))?;
                out.push(byte);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape sequence in {s:?} is not UTF-8"))
}

/// Sends one blocking HTTP request and returns `(status, body)`.
///
/// The in-tree client for tests, scripts and CI — requests carry a JSON
/// content type when `body` is given, and the response body is returned
/// as a string (the control plane only speaks JSON and Prometheus text).
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n{}Content-Length: {}\r\n\r\n",
        if body.is_empty() {
            String::new()
        } else {
            "Content-Type: application/json\r\n".to_string()
        },
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let head_end = text
        .find("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
    let status = text
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, text[head_end + 4..].to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::time::Instant;

    /// Serves `handler` on `bind`; returns the loopback address to reach it.
    fn spawn_server(
        bind: &str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        let server = HttpServer::bind(bind).unwrap();
        let port = server.local_addr().unwrap().port();
        let shutdown = server.shutdown_handle();
        let join = std::thread::spawn(move || server.serve(Arc::new(handler)));
        (SocketAddr::from(([127, 0, 0, 1], port)), shutdown, join)
    }

    fn spawn_echo_server(bind: &str) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
        spawn_server(bind, |req: &Request| match req.path.as_str() {
            "/panic" => panic!("boom"),
            "/echo" => Response::ok_json(
                &Value::object()
                    .insert("method", req.method.clone())
                    .insert("body", String::from_utf8_lossy(&req.body).to_string())
                    .insert("q", req.query_param("q").unwrap_or_default().to_string()),
            ),
            _ => Response::not_found(&req.path),
        })
    }

    #[test]
    fn round_trips_requests_and_shuts_down() {
        // The unspecified address exercises the wake's rewrite to loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let (addr, shutdown, join) = spawn_echo_server(bind);

            let (status, body) = request(addr, "GET", "/echo?q=a%20b", None).unwrap();
            assert_eq!(status, 200);
            let doc = Value::parse(&body).unwrap();
            assert_eq!(doc.get("method").and_then(Value::as_str), Some("GET"));
            assert_eq!(doc.get("q").and_then(Value::as_str), Some("a b"));

            let (status, body) = request(addr, "POST", "/echo", Some("{\"x\":1}")).unwrap();
            assert_eq!(status, 200);
            let doc = Value::parse(&body).unwrap();
            assert_eq!(doc.get("body").and_then(Value::as_str), Some("{\"x\":1}"));

            let (status, _) = request(addr, "GET", "/nope", None).unwrap();
            assert_eq!(status, 404);

            // A panicking handler answers 500 and the server stays up.
            let (status, _) = request(addr, "GET", "/panic", None).unwrap();
            assert_eq!(status, 500);
            let (status, _) = request(addr, "GET", "/echo", None).unwrap();
            assert_eq!(status, 200);

            shutdown.shutdown();
            join.join().unwrap();
        }
    }

    #[test]
    fn shutdown_waits_for_in_flight_responses() {
        let started = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));
        let (s, f) = (Arc::clone(&started), Arc::clone(&finished));
        let (addr, shutdown, join) = spawn_server("127.0.0.1:0", move |_: &Request| {
            s.store(true, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(200));
            f.store(true, Ordering::SeqCst);
            Response::text(200, "done")
        });
        let client = std::thread::spawn(move || request(addr, "GET", "/slow", None));
        while !started.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        shutdown.shutdown();
        join.join().unwrap();
        assert!(
            finished.load(Ordering::SeqCst),
            "serve returned before the handler finished"
        );
        let (status, body) = client.join().unwrap().unwrap();
        assert_eq!((status, body.as_str()), (200, "done"));
    }

    #[test]
    fn sequential_requests_do_not_wait_for_a_poll_tick() {
        let (addr, shutdown, join) = spawn_echo_server("127.0.0.1:0");
        let t0 = Instant::now();
        for _ in 0..20 {
            assert_eq!(request(addr, "GET", "/echo", None).unwrap().0, 200);
        }
        let took = t0.elapsed();
        shutdown.shutdown();
        join.join().unwrap();
        assert!(
            took < Duration::from_millis(200),
            "20 sequential requests took {took:?}"
        );
    }

    #[test]
    fn default_handle_only_sets_the_flag() {
        let handle = ShutdownHandle::default();
        assert!(!handle.is_shutdown());
        handle.shutdown();
        handle.shutdown();
        assert!(handle.is_shutdown());
    }

    #[test]
    fn malformed_requests_get_400() {
        let (addr, shutdown, join) = spawn_echo_server("127.0.0.1:0");
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"NONSENSE\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400"), "{out}");
        shutdown.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn request_parsing_details() {
        let (path, query) = parse_target("/jobs/j-1?only=fig08&resume=1").unwrap();
        assert_eq!(path, "/jobs/j-1");
        assert_eq!(
            query,
            vec![
                ("only".to_string(), "fig08".to_string()),
                ("resume".to_string(), "1".to_string())
            ]
        );
        assert_eq!(percent_decode("a+b%2Fc").unwrap(), "a b/c");
        assert_eq!(percent_decode("%e2%9C%93").unwrap(), "\u{2713}");
        for bad in ["bad%zz", "%+f", "%+1", "%-1", "%4", "%", "%c3"] {
            assert!(percent_decode(bad).is_err(), "{bad:?} decoded");
        }
    }

    #[test]
    fn segments_split_path() {
        let req = Request {
            method: "GET".into(),
            path: "/jobs/job-1/".into(),
            query: Vec::new(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(req.segments(), vec!["jobs", "job-1"]);
    }

    /// A reader over fixed bytes that hands them out `step` at a time and
    /// counts how many it gave.
    struct Feed<'a> {
        data: &'a [u8],
        step: usize,
        taken: usize,
    }

    impl Read for Feed<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = out.len().min(self.step).min(self.data.len() - self.taken);
            out[..n].copy_from_slice(&self.data[self.taken..self.taken + n]);
            self.taken += n;
            Ok(n)
        }
    }

    /// Decodes `data`, fed `step` bytes per read, and checks the decoder's
    /// contract: a typed error, or a request whose body is exactly its
    /// `Content-Length`. Reads stop one chunk past the head limit, and a
    /// request's reads stop at the end of its body, but for bytes that
    /// arrived in the same read as the end of its head.
    fn check_decode(data: &[u8], step: usize) -> Option<Request> {
        let step = step.clamp(1, 4096);
        let mut feed = Feed {
            data,
            step,
            taken: 0,
        };
        let result = read_request(&mut feed);
        assert!(
            feed.taken <= MAX_HEAD + 4096 + MAX_BODY,
            "read {} bytes",
            feed.taken
        );
        let req = result.ok()?;
        let declared = req
            .header("content-length")
            .map_or(0, |v| v.parse::<usize>().unwrap());
        assert_eq!(req.body.len(), declared);
        let head = find_head_end(data).unwrap() + 4;
        assert!(
            feed.taken <= (head + declared).max(head.div_ceil(step) * step),
            "read {} bytes of a {head}-byte head and {declared}-byte body",
            feed.taken
        );
        Some(req)
    }

    const VALID: &[u8] = b"POST /jobs?x=%2F HTTP/1.1\r\nHost: localhost\r\n\
Content-Type: application/json\r\nContent-Length: 10\r\n\r\n{\"kind\":1}";

    #[test]
    fn decoder_accepts_the_valid_request_at_any_read_size() {
        // A second request behind the first must be left unread.
        let data = [VALID, b"GET /next HTTP/1.1\r\n\r\n"].concat();
        for step in [1, 2, 3, 7, 4096] {
            let req = check_decode(&data, step).unwrap();
            assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
            assert_eq!(req.query_param("x"), Some("/"));
            assert_eq!(req.body, b"{\"kind\":1}");
        }
    }

    #[test]
    fn decoder_rejects_every_truncation_and_oversized_lengths() {
        for cut in 0..VALID.len() {
            assert!(read_request(&mut &VALID[..cut]).is_err(), "cut at {cut}");
        }
        for len in [
            (MAX_BODY + 1).to_string(),
            u64::MAX.to_string(),
            "18446744073709551616".to_string(),
            "-1".to_string(),
            "+10".to_string(),
        ] {
            let data =
                String::from_utf8_lossy(VALID).replace("Length: 10", &format!("Length: {len}"));
            assert!(
                read_request(&mut data.as_bytes()).is_err(),
                "Content-Length {len}"
            );
        }
        // A head that never ends stops one chunk past the limit.
        let endless = vec![b'a'; 4 * MAX_HEAD];
        for step in [1, 4096] {
            let mut feed = Feed {
                data: &endless,
                step,
                taken: 0,
            };
            assert!(read_request(&mut feed).is_err());
            assert!(feed.taken <= MAX_HEAD + 4096, "read {} bytes", feed.taken);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn decoder_survives_arbitrary_bytes(
            data in prop::collection::vec(0u8..=255, 0..512),
            step in 1usize..64,
        ) {
            check_decode(&data, step);
        }

        #[test]
        fn decoder_survives_bit_flips_and_truncations(
            flips in prop::collection::vec((0usize..VALID.len(), 0u8..8), 0..4),
            cut in 0usize..=VALID.len(),
            step in 1usize..64,
        ) {
            let mut data = VALID[..cut].to_vec();
            for (at, bit) in flips {
                if let Some(b) = data.get_mut(at) {
                    *b ^= 1 << bit;
                }
            }
            check_decode(&data, step);
        }
    }
}
