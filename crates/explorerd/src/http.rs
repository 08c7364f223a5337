//! A minimal HTTP/1.1 layer for the readiness-driven reactor.
//!
//! Deliberately small: `GET` only (the explorer is read-only), no
//! request bodies, percent-decoded query strings, and two response body
//! shapes — fully materialized (`Content-Length`, shareable from the
//! cache without copying) and incrementally pulled
//! (`Transfer-Encoding: chunked`, produced page by page as the socket
//! drains). Parsing is resumable: the reactor feeds whatever bytes have
//! arrived into [`parse_request`], which answers
//! [`Parsed::NeedMore`] until a complete head is buffered — deadlines
//! and slow-loris enforcement live on the reactor's timers, not in
//! blocking reads.

use std::io::{self, Write};
use std::sync::Arc;

use crate::transport::Conn;

/// Parsing limits: how big a request head may grow before rejection.
#[derive(Debug, Clone)]
pub struct Limits {
    /// Maximum bytes of request line + headers before the request is
    /// rejected with `400`.
    pub max_head_bytes: usize,
    /// Deadline for receiving the complete request head, enforced by
    /// the reactor's timer wheel; exceeding it yields `408` and closes
    /// the connection.
    pub read_deadline: std::time::Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_head_bytes: 8 * 1024,
            read_deadline: std::time::Duration::from_secs(2),
        }
    }
}

/// A parsed request: method, percent-decoded path, and query pairs.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, …), uppercase as sent.
    pub method: String,
    /// Percent-decoded path component, always starting with `/`.
    pub path: String,
    /// Percent-decoded query pairs in arrival order.
    pub query: Vec<(String, String)>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// The `If-None-Match` validator, verbatim, for conditional GETs.
    pub if_none_match: Option<String>,
}

impl Request {
    /// First value of a query parameter.
    #[must_use]
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The cache key: path plus query pairs sorted into a canonical
    /// order, so `?a=1&b=2` and `?b=2&a=1` share a cache entry.
    #[must_use]
    pub fn normalized(&self) -> String {
        let mut pairs = self.query.clone();
        pairs.sort();
        let mut key = self.path.clone();
        key.push('?');
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                key.push('&');
            }
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
        key
    }
}

/// Why the buffered bytes cannot become a request. Transport-level
/// conditions (peer closed, deadline blown, cancelled) are classified
/// by the reactor, which owns the socket; the parser only judges bytes.
#[derive(Debug)]
pub enum RecvError {
    /// The head exceeded [`Limits::max_head_bytes`].
    TooLarge,
    /// The bytes received do not form a valid request.
    Malformed(String),
}

/// Outcome of feeding buffered bytes to the incremental parser.
#[derive(Debug)]
pub enum Parsed {
    /// No complete head yet — keep the buffer and read more.
    NeedMore,
    /// A complete head: the parsed request plus the byte count it
    /// consumed from the front of the buffer (anything after that is
    /// the start of the next pipelined request).
    Complete(Request, usize),
}

/// Try to parse one request head from the front of `buf`. The caller
/// keeps ownership of the buffer and, on [`Parsed::Complete`], drains
/// the consumed prefix itself.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Result<Parsed, RecvError> {
    match find_head_end(buf) {
        Some(end) => {
            let text = std::str::from_utf8(&buf[..end])
                .map_err(|_| RecvError::Malformed("request head is not UTF-8".to_owned()))?;
            let req = parse_head(text)?;
            Ok(Parsed::Complete(req, end + 4))
        }
        None if buf.len() > limits.max_head_bytes => Err(RecvError::TooLarge),
        None => Ok(Parsed::NeedMore),
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(text: &str) -> Result<Request, RecvError> {
    let malformed = |msg: &str| RecvError::Malformed(msg.to_owned());
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or_else(|| malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or_else(|| malformed("missing method"))?;
    let target = parts.next().ok_or_else(|| malformed("missing target"))?;
    let version = parts.next().ok_or_else(|| malformed("missing version"))?;
    if parts.next().is_some() || method.is_empty() || !target.starts_with('/') {
        return Err(malformed("bad request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(malformed("unsupported HTTP version")),
    };

    let mut connection = None;
    let mut if_none_match = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| malformed("bad header"))?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "connection" => connection = Some(value.to_ascii_lowercase()),
            "if-none-match" => if_none_match = Some(value.to_owned()),
            "content-length" if value != "0" => {
                return Err(malformed("request bodies are not supported"));
            }
            "transfer-encoding" => {
                return Err(malformed("request bodies are not supported"));
            }
            _ => {}
        }
    }
    let keep_alive = match connection.as_deref() {
        Some(c) => !c.contains("close") && (http11 || c.contains("keep-alive")),
        None => http11,
    };

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let path = percent_decode(raw_path).ok_or_else(|| malformed("bad percent-encoding"))?;
    let mut query = Vec::new();
    for pair in raw_query.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k).ok_or_else(|| malformed("bad percent-encoding"))?;
        let v = percent_decode(v).ok_or_else(|| malformed("bad percent-encoding"))?;
        query.push((k, v));
    }
    Ok(Request {
        method: method.to_owned(),
        path,
        query,
        keep_alive,
        if_none_match,
    })
}

/// Decode `%XX` escapes and `+` (as space). Returns `None` on a
/// truncated or non-hex escape or invalid UTF-8.
fn percent_decode(text: &str) -> Option<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3)?;
                let hi = (hex[0] as char).to_digit(16)?;
                let lo = (hex[1] as char).to_digit(16)?;
                out.push((hi * 16 + lo) as u8);
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
    String::from_utf8(out).ok()
}

/// An incremental body producer for chunked responses.
///
/// The reactor pulls one chunk at a time, only when the socket has
/// drained the previous one — the backpressure that keeps a 100k-row
/// listing from ever being buffered whole. A source owns everything it
/// renders from (its query ran before the response was built), so
/// producing a chunk cannot fail.
pub trait BodySource: Send {
    /// Append the next run of body bytes to `out`, leaving what `out`
    /// already holds alone. `true` means more follow (call again once
    /// `out` has drained) and requires progress: at least one byte was
    /// appended. `false` means the body is complete.
    fn next_chunk(&mut self, out: &mut Vec<u8>) -> bool;
}

/// A response body: fully materialized (served with `Content-Length`,
/// and shareable from the cache without copying) or pulled
/// incrementally (served with chunked transfer encoding).
pub enum Body {
    /// Complete body bytes.
    Full(Arc<Vec<u8>>),
    /// An incremental producer the reactor drains page by page.
    Pull(Box<dyn BodySource>),
}

/// The chunked-encoding stream terminator.
pub const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// Pull the next chunk of `source` onto `out`, framed where it lands —
/// the payload is rendered straight behind whatever `out` holds and its
/// size line slipped in front — and closed by [`CHUNK_TERMINATOR`] when
/// it was the last. An empty payload frames nothing (an empty chunk
/// would terminate the stream). Returns whether more chunks follow.
pub fn pull_chunk(source: &mut dyn BodySource, out: &mut Vec<u8>) -> bool {
    let start = out.len();
    let more = source.next_chunk(out);
    let size = out.len() - start;
    if size > 0 {
        out.splice(start..start, format!("{size:x}\r\n").into_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !more {
        out.extend_from_slice(CHUNK_TERMINATOR);
    }
    more
}

/// An HTTP response ready to be written.
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After` on `503`.
    pub headers: Vec<(&'static str, String)>,
    /// The body.
    pub body: Body,
}

impl Response {
    /// A `200` response with a fully materialized body.
    #[must_use]
    pub fn full(content_type: &'static str, body: Arc<Vec<u8>>) -> Response {
        Response {
            status: 200,
            content_type,
            headers: Vec::new(),
            body: Body::Full(body),
        }
    }

    /// A `200` JSON response.
    #[must_use]
    pub fn json(json: &iokc_util::json::Json) -> Response {
        Response::full("application/json", Arc::new(json.to_compact().into_bytes()))
    }

    /// A `200` HTML response.
    #[must_use]
    pub fn html(page: String) -> Response {
        Response::full("text/html; charset=utf-8", Arc::new(page.into_bytes()))
    }

    /// A `200` chunked response pulled incrementally from `source`.
    #[must_use]
    pub fn stream(content_type: &'static str, source: Box<dyn BodySource>) -> Response {
        Response {
            status: 200,
            content_type,
            headers: Vec::new(),
            body: Body::Pull(source),
        }
    }

    /// A `304 Not Modified` revalidation: no body, the validator echoed
    /// back so the client keeps its cached copy fresh.
    #[must_use]
    pub fn not_modified(content_type: &'static str, etag: String) -> Response {
        Response {
            status: 304,
            content_type,
            headers: vec![("ETag", etag)],
            body: Body::Full(Arc::new(Vec::new())),
        }
    }

    /// A plain-text error response.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: Body::Full(Arc::new(format!("{message}\n").into_bytes())),
        }
    }

    /// `503 Service Unavailable` with a `Retry-After` hint — the
    /// load-shedding response sent when the server is at capacity.
    #[must_use]
    pub fn unavailable(retry_after_secs: u32) -> Response {
        let mut resp = Response::error(503, "server is at capacity, retry shortly");
        resp.headers
            .push(("Retry-After", retry_after_secs.to_string()));
        resp
    }

    /// Append this response to `out` as the bytes that go on the wire —
    /// the one serialization the reactor and the blocking shed path both
    /// send: status line, headers and framing, then everything of the
    /// body that is ready. That is all of a [`Body::Full`]
    /// (`Content-Length`), and the first chunk of a [`Body::Pull`]
    /// (chunked) together with the terminator when it is also the last;
    /// a source with chunks left comes back for [`pull_chunk`].
    pub fn serialize(self, keep_alive: bool, out: &mut Vec<u8>) -> Option<Box<dyn BodySource>> {
        let _ = write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            if keep_alive { "keep-alive" } else { "close" }
        );
        for (name, value) in &self.headers {
            let _ = write!(out, "{name}: {value}\r\n");
        }
        match self.body {
            Body::Full(bytes) => {
                let _ = write!(out, "Content-Length: {}\r\n\r\n", bytes.len());
                out.extend_from_slice(&bytes);
                None
            }
            Body::Pull(mut source) => {
                out.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
                pull_chunk(source.as_mut(), out).then_some(source)
            }
        }
    }

    /// Blocking write of a materialized response in one `write_all`,
    /// used only by the O(1) shed path (the socket never joins the
    /// reactor). All served connections are written incrementally by
    /// the reactor.
    pub fn write(self, stream: &mut dyn Conn, keep_alive: bool) -> io::Result<()> {
        let mut bytes = Vec::new();
        let rest = self.serialize(keep_alive, &mut bytes);
        debug_assert!(rest.is_none(), "a pulled body needs the reactor");
        stream.write_all(&bytes)?;
        stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        304 => "Not Modified",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Status",
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Request, RecvError> {
        parse_head(text)
    }

    #[test]
    fn parses_request_line_and_query() {
        let req = parse("GET /api/runs?api=MPIIO&min_tasks=4 HTTP/1.1\r\nHost: x\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/runs");
        assert_eq!(req.param("api"), Some("MPIIO"));
        assert_eq!(req.param("min_tasks"), Some("4"));
        assert!(req.keep_alive);
        assert!(req.if_none_match.is_none());
    }

    #[test]
    fn percent_decoding_and_plus() {
        let req = parse("GET /api/runs?command=ior%20-a+mpiio HTTP/1.1\r\n").unwrap();
        assert_eq!(req.param("command"), Some("ior -a mpiio"));
        assert!(percent_decode("%zz").is_none());
        assert!(percent_decode("%2").is_none());
    }

    #[test]
    fn connection_header_controls_keep_alive() {
        assert!(
            !parse("GET / HTTP/1.1\r\nConnection: close\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(!parse("GET / HTTP/1.0\r\n").unwrap().keep_alive);
        assert!(
            parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn rejects_bodies_and_garbage() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 5\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/2.0\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            parse("nonsense\r\n"),
            Err(RecvError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET noslash HTTP/1.1\r\n"),
            Err(RecvError::Malformed(_))
        ));
    }

    #[test]
    fn normalized_key_sorts_query() {
        let a = parse("GET /api/runs?b=2&a=1 HTTP/1.1\r\n").unwrap();
        let b = parse("GET /api/runs?a=1&b=2 HTTP/1.1\r\n").unwrap();
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.normalized(), "/api/runs?a=1&b=2");
    }

    #[test]
    fn incremental_parse_resumes_and_reports_consumption() {
        let limits = Limits::default();
        let full = b"GET /api/runs HTTP/1.1\r\nHost: x\r\n\r\nGET /next";
        // Every proper prefix short of the blank line needs more bytes.
        for cut in 0..full.len() - 9 - 4 {
            assert!(matches!(
                parse_request(&full[..cut], &limits),
                Ok(Parsed::NeedMore)
            ));
        }
        match parse_request(full, &limits).unwrap() {
            Parsed::Complete(req, used) => {
                assert_eq!(req.path, "/api/runs");
                assert_eq!(&full[used..], b"GET /next", "pipelined tail preserved");
            }
            Parsed::NeedMore => panic!("head was complete"),
        }
    }

    #[test]
    fn incremental_parse_enforces_head_limit() {
        let limits = Limits {
            max_head_bytes: 16,
            ..Limits::default()
        };
        let body = vec![b'a'; 64];
        assert!(matches!(
            parse_request(&body, &limits),
            Err(RecvError::TooLarge)
        ));
    }

    #[test]
    fn captures_if_none_match() {
        let req = parse("GET / HTTP/1.1\r\nIf-None-Match: \"g4-abc\"\r\n").unwrap();
        assert_eq!(req.if_none_match.as_deref(), Some("\"g4-abc\""));
    }

    #[test]
    fn chunk_encoding_round_trip() {
        /// Yields each piece as one chunk.
        struct Pieces(Vec<&'static [u8]>);
        impl BodySource for Pieces {
            fn next_chunk(&mut self, out: &mut Vec<u8>) -> bool {
                out.extend_from_slice(self.0.remove(0));
                !self.0.is_empty()
            }
        }
        let mut source = Pieces(vec![b"hello", b"0123456789abcdef", b""]);
        let mut out = b"head|".to_vec();
        assert!(pull_chunk(&mut source, &mut out));
        assert_eq!(out, b"head|5\r\nhello\r\n", "framed behind what was there");
        assert!(pull_chunk(&mut source, &mut out));
        assert!(out.ends_with(b"\r\n10\r\n0123456789abcdef\r\n"));
        let before = out.len();
        assert!(!pull_chunk(&mut source, &mut out));
        assert_eq!(
            &out[before..],
            CHUNK_TERMINATOR,
            "empty chunk encodes nothing"
        );
    }
}
