//! A minimal HTTP/1.1 parser and response writer — just enough protocol
//! for the search service, implemented from scratch on `std::io`.
//!
//! Parsing is *bounded*: every dimension of attacker-controlled input
//! (request-line bytes, per-header bytes, header count, total header
//! bytes, body bytes) has a hard cap in [`HttpLimits`], and crossing a
//! cap fails fast with a classified error instead of buffering without
//! limit. The reader takes any [`BufRead`] so a keep-alive connection
//! can park its buffer between requests without losing pipelined bytes.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{BufRead, Write};

/// Hard caps on request parsing. All byte limits exclude the CRLF line
/// terminators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Longest accepted request line (`GET /path?query HTTP/1.1`).
    /// Crossing it is a 400.
    pub max_request_line_bytes: usize,
    /// Longest accepted single header line. Crossing it is a 431.
    pub max_header_bytes: usize,
    /// Most header lines accepted per request. Crossing it is a 431.
    pub max_header_count: usize,
    /// Cap on the sum of all header-line bytes. Crossing it is a 431.
    pub max_total_header_bytes: usize,
    /// Largest accepted `Content-Length` body. Crossing it is a 400.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_request_line_bytes: 8 * 1024,
            max_header_bytes: 8 * 1024,
            max_header_count: 64,
            max_total_header_bytes: 32 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Decoded path (`/schema/12`), without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: HashMap<String, String>,
    /// Lowercased header map. Duplicate headers are comma-combined
    /// (RFC 9110 §5.2), except `Content-Length`, where conflicting
    /// duplicates are rejected outright.
    pub headers: HashMap<String, String>,
    /// Protocol version token (`HTTP/1.1`).
    pub version: String,
    /// Request body (empty unless Content-Length was sent).
    pub body: String,
}

impl Request {
    /// A query parameter.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// Whether this request asks to keep the connection open: HTTP/1.1
    /// defaults to keep-alive unless `Connection: close`; HTTP/1.0 (and
    /// anything older) defaults to close unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let connection = self
            .headers
            .get("connection")
            .map(|v| v.to_ascii_lowercase());
        if self.version == "HTTP/1.1" {
            connection.as_deref() != Some("close")
        } else {
            connection.as_deref() == Some("keep-alive")
        }
    }
}

/// HTTP-layer errors.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or encoding (→ 400).
    Malformed(&'static str),
    /// The request line crossed [`HttpLimits::max_request_line_bytes`]
    /// (→ 400).
    RequestLineTooLong,
    /// A header crossed one of the header limits (→ 431).
    HeadersTooLarge(&'static str),
    /// The peer closed the connection cleanly before sending any byte of
    /// a request (end of a keep-alive session, or a port probe). Not an
    /// error worth answering — just drop the connection.
    Closed,
    /// The socket read timeout elapsed before the peer sent any byte of
    /// a request — an idle keep-alive connection. Close without a 408.
    Idle,
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::RequestLineTooLong => write!(f, "request line exceeds the size limit"),
            HttpError::HeadersTooLarge(what) => write!(f, "request headers too large: {what}"),
            HttpError::Closed => write!(f, "connection closed before a request"),
            HttpError::Idle => write!(f, "connection idle past the timeout"),
            HttpError::Io(e) => write!(f, "http I/O error: {e}"),
        }
    }
}

impl HttpError {
    /// True when the underlying I/O failed because a socket timeout
    /// elapsed (`WouldBlock` on Unix, `TimedOut` on Windows — both kinds
    /// are produced by `set_read_timeout`).
    pub fn is_timeout(&self) -> bool {
        match self {
            HttpError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            _ => false,
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Percent-decode with the byte-level `%XX` rules shared by path and
/// query decoding; `plus_is_space` selects the query-string `+` rewrite.
fn percent_decode_inner(s: &str, plus_is_space: bool) -> Result<String, HttpError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = s
                    .get(i + 1..i + 3)
                    .ok_or(HttpError::Malformed("truncated percent escape"))?;
                let v = u8::from_str_radix(hex, 16)
                    .map_err(|_| HttpError::Malformed("bad percent escape"))?;
                out.push(v);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| HttpError::Malformed("decoded bytes are not UTF-8"))
}

/// Percent-decode a query-string component (`%20` → space, `+` → space).
pub fn percent_decode(s: &str) -> Result<String, HttpError> {
    percent_decode_inner(s, true)
}

/// Percent-decode a request *path*. `+` is a literal plus in a path —
/// only query strings use the `+`-for-space form encoding — so
/// `/schema/a+b` must resolve the resource named `a+b`.
pub fn percent_decode_path(s: &str) -> Result<String, HttpError> {
    percent_decode_inner(s, false)
}

/// Percent-encode a URL component.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            b' ' => out.push('+'),
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

/// Parse the query string into a decoded map.
fn parse_query(qs: &str) -> Result<HashMap<String, String>, HttpError> {
    let mut map = HashMap::new();
    for pair in qs.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        map.insert(percent_decode(k)?, percent_decode(v)?);
    }
    Ok(map)
}

/// Read one CRLF/LF-terminated line of at most `max` bytes (terminator
/// excluded). Returns `Ok(None)` on clean EOF before any byte, and
/// `overflow()` when the line crosses `max` — without buffering more
/// than `max` bytes no matter how much the peer sends.
///
/// With `idle_on_empty_timeout`, a read timeout *before any byte of the
/// line* is classified [`HttpError::Idle`] (a keep-alive connection with
/// nothing to say). A timeout after partial bytes always stays an
/// [`HttpError::Io`] — that's a stalled request (slowloris), which
/// deserves a 408, not a silent close.
fn read_line_bounded(
    reader: &mut impl BufRead,
    max: usize,
    idle_on_empty_timeout: bool,
    overflow: impl Fn() -> HttpError,
) -> Result<Option<String>, HttpError> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let (consumed, done) = {
            let buf = match reader.fill_buf() {
                Ok(buf) => buf,
                Err(e) => {
                    let timed_out = matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    );
                    if timed_out && line.is_empty() && idle_on_empty_timeout {
                        return Err(HttpError::Idle);
                    }
                    return Err(HttpError::Io(e));
                }
            };
            if buf.is_empty() {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("connection closed mid-line"));
            }
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    // The cap is on line *content*: the CR of the CRLF
                    // terminator doesn't count against it.
                    let ends_with_cr = if pos > 0 {
                        buf[pos - 1] == b'\r'
                    } else {
                        line.last() == Some(&b'\r')
                    };
                    if line.len() + pos - usize::from(ends_with_cr) > max {
                        return Err(overflow());
                    }
                    line.extend_from_slice(&buf[..pos]);
                    (pos + 1, true)
                }
                None => {
                    // No terminator yet; the last byte might turn out to
                    // be the CR of a CRLF, so allow one byte of slack —
                    // the exact check happens when the line completes.
                    if line.len() + buf.len() > max + 1 {
                        return Err(overflow());
                    }
                    line.extend_from_slice(buf);
                    (buf.len(), false)
                }
            }
        };
        reader.consume(consumed);
        if done {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map(Some)
                .map_err(|_| HttpError::Malformed("request bytes are not UTF-8"));
        }
    }
}

/// Read one request from a buffered stream, enforcing `limits`.
///
/// The caller owns the `BufRead` so keep-alive connections keep one
/// buffer across requests (bytes of a pipelined next request already
/// read into the buffer are not lost).
pub fn read_request(reader: &mut impl BufRead, limits: &HttpLimits) -> Result<Request, HttpError> {
    let line = match read_line_bounded(reader, limits.max_request_line_bytes, true, || {
        HttpError::RequestLineTooLong
    }) {
        Ok(Some(line)) => line,
        // EOF before any byte: the peer hung up between requests.
        Ok(None) => return Err(HttpError::Closed),
        // `Idle` (timeout before any byte) bubbles up; a timeout after
        // partial bytes stays `Io` and earns a 408 downstream.
        Err(e) => return Err(e),
    };
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or(HttpError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?
        .to_string();

    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let path = percent_decode_path(raw_path)?;
    let query = parse_query(raw_query)?;

    let mut headers = HashMap::new();
    let mut header_count = 0usize;
    let mut header_bytes = 0usize;
    loop {
        // Timeouts between headers are mid-request stalls, never idle.
        let h = read_line_bounded(reader, limits.max_header_bytes, false, || {
            HttpError::HeadersTooLarge("header line exceeds the size limit")
        })?
        .ok_or(HttpError::Malformed("connection closed inside headers"))?;
        if h.is_empty() {
            break;
        }
        header_count += 1;
        if header_count > limits.max_header_count {
            return Err(HttpError::HeadersTooLarge("too many headers"));
        }
        header_bytes += h.len();
        if header_bytes > limits.max_total_header_bytes {
            return Err(HttpError::HeadersTooLarge(
                "total header bytes exceed the limit",
            ));
        }
        let (name, value) = h
            .split_once(':')
            .ok_or(HttpError::Malformed("header without colon"))?;
        let name = name.trim().to_lowercase();
        let value = value.trim();
        match headers.entry(name) {
            Entry::Vacant(slot) => {
                slot.insert(value.to_string());
            }
            // Repeated headers are comma-combined per RFC 9110 §5.2 —
            // except Content-Length, where two different values are the
            // classic request-smuggling vector and get rejected.
            Entry::Occupied(mut slot) => {
                if slot.key() == "content-length" {
                    if slot.get() != value {
                        return Err(HttpError::Malformed("conflicting content-length headers"));
                    }
                } else {
                    let joined = slot.get_mut();
                    joined.push_str(", ");
                    joined.push_str(value);
                }
            }
        }
    }

    let mut body = String::new();
    if let Some(len) = headers.get("content-length") {
        let len: usize = len
            .parse()
            .map_err(|_| HttpError::Malformed("bad content-length"))?;
        if len > limits.max_body_bytes {
            return Err(HttpError::Malformed("body too large"));
        }
        let mut buf = vec![0u8; len];
        reader.read_exact(&mut buf)?;
        body = String::from_utf8(buf).map_err(|_| HttpError::Malformed("body is not UTF-8"))?;
    }

    Ok(Request {
        method,
        path,
        query,
        headers,
        version,
        body,
    })
}

/// The `Retry-After` value (seconds) on a shed connection's 503.
pub const RETRY_AFTER_SECS: u32 = 1;

/// An HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content type.
    pub content_type: &'static str,
    /// Body.
    pub body: String,
    /// Extra response headers (e.g. `X-Schemr-Trace-Id`), emitted after
    /// Content-Type. `Content-Length` and `Connection` entries are
    /// ignored here — the writer owns both and callers must not be able
    /// to emit conflicting values.
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// 200 with a content type.
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// 404 with a plain-text message.
    pub fn not_found(msg: impl Into<String>) -> Self {
        Response {
            status: 404,
            content_type: "text/plain",
            body: msg.into(),
            headers: Vec::new(),
        }
    }

    /// 400 with a plain-text message.
    pub fn bad_request(msg: impl Into<String>) -> Self {
        Response {
            status: 400,
            content_type: "text/plain",
            body: msg.into(),
            headers: Vec::new(),
        }
    }

    /// 403 — the endpoint is restricted to loopback clients.
    pub fn forbidden(msg: impl Into<String>) -> Self {
        Response {
            status: 403,
            content_type: "text/plain",
            body: msg.into(),
            headers: Vec::new(),
        }
    }

    /// 408 — the client held the connection open without completing a
    /// request before the socket read timeout.
    pub fn request_timeout() -> Self {
        Response {
            status: 408,
            content_type: "text/plain",
            body: "request not received before the read timeout".to_string(),
            headers: Vec::new(),
        }
    }

    /// 431 — some header limit was crossed.
    pub fn headers_too_large(msg: impl Into<String>) -> Self {
        Response {
            status: 431,
            content_type: "text/plain",
            body: msg.into(),
            headers: Vec::new(),
        }
    }

    /// 503 with a body — `/healthz` on an empty index, so orchestrators
    /// don't route traffic to a node with nothing to serve.
    pub fn unavailable(content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status: 503,
            content_type,
            body: body.into(),
            headers: Vec::new(),
        }
    }

    /// 503 + `Retry-After` ([`RETRY_AFTER_SECS`]) — the admission queue
    /// is full and this connection is being shed instead of queued
    /// without bound.
    pub fn overloaded() -> Self {
        Response {
            status: 503,
            content_type: "text/plain",
            body: "server saturated, retry later".to_string(),
            headers: vec![("Retry-After".to_string(), RETRY_AFTER_SECS.to_string())],
        }
    }

    /// The response a parse failure earns, by error class. `None` when
    /// the connection should just be dropped without an answer.
    pub fn for_error(e: &HttpError) -> Option<Response> {
        match e {
            HttpError::Closed | HttpError::Idle => None,
            _ if e.is_timeout() => Some(Response::request_timeout()),
            HttpError::RequestLineTooLong => Some(Response::bad_request(e.to_string())),
            HttpError::HeadersTooLarge(_) => Some(Response::headers_too_large(e.to_string())),
            HttpError::Malformed(_) => Some(Response::bad_request(e.to_string())),
            HttpError::Io(_) => None,
        }
    }

    /// Attach an extra response header, builder-style. Header values must
    /// already be CR/LF-free (callers validate ids before echoing them).
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// Serialize and write to a stream, closing the connection.
    pub fn write_to(&self, stream: &mut impl Write) -> std::io::Result<()> {
        self.write_to_conn(stream, false)
    }

    /// Serialize and write to a stream, advertising whether the
    /// connection stays open for another request.
    pub fn write_to_conn(&self, stream: &mut impl Write, keep_alive: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            431 => "Request Header Fields Too Large",
            503 => "Service Unavailable",
            _ => "Internal Server Error",
        };
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}; charset=utf-8\r\n",
            self.status, reason, self.content_type,
        )?;
        for (name, value) in &self.headers {
            // The writer owns framing: a caller-supplied Content-Length
            // or Connection could contradict the computed ones below.
            if name.eq_ignore_ascii_case("content-length")
                || name.eq_ignore_ascii_case("connection")
            {
                continue;
            }
            write!(stream, "{name}: {value}\r\n")?;
        }
        write!(
            stream,
            "Content-Length: {}\r\nConnection: {}\r\n\r\n{}",
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
            self.body
        )?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        parse_limited(raw, &HttpLimits::default())
    }

    fn parse_limited(raw: &str, limits: &HttpLimits) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()), limits)
    }

    #[test]
    fn parses_a_get_request() {
        let raw = "GET /search?q=patient+height&limit=5 HTTP/1.1\r\nHost: x\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.param("q"), Some("patient height"));
        assert_eq!(req.param("limit"), Some("5"));
        assert_eq!(req.headers.get("host").map(String::as_str), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_a_post_with_body() {
        let body = "CREATE TABLE t (a INT)";
        let raw = format!(
            "POST /search HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let req = parse(&raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, body);
    }

    #[test]
    fn percent_decoding_and_encoding_round_trip() {
        let original = "patient height & \"gender\"/100%";
        let encoded = percent_encode(original);
        assert_eq!(percent_decode(&encoded).unwrap(), original);
        assert_eq!(percent_decode("a%20b+c").unwrap(), "a b c");
        assert!(percent_decode("%zz").is_err());
        assert!(percent_decode("%2").is_err());
    }

    #[test]
    fn path_decoding_keeps_plus_literal() {
        // `+` means space only in query strings. A path `/schema/a+b`
        // names the resource `a+b`; rewriting it to `a b` resolves the
        // wrong resource.
        assert_eq!(percent_decode_path("/schema/a+b").unwrap(), "/schema/a+b");
        assert_eq!(percent_decode_path("/a%20b+c").unwrap(), "/a b+c");
        assert!(percent_decode_path("%2").is_err());

        let req = parse("GET /schema/a+b?q=x+y HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/schema/a+b");
        assert_eq!(req.param("q"), Some("x y"));
    }

    #[test]
    fn keep_alive_defaults_follow_the_protocol_version() {
        let req = parse("GET / HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive(), "1.1 defaults to keep-alive");
        let req = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive());
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.wants_keep_alive(), "1.0 defaults to close");
        let req = parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(parse("\r\n").is_err());
        assert!(parse("GET\r\n\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\nBadHeader\r\n\r\n").is_err());
    }

    #[test]
    fn clean_eof_is_classified_as_closed() {
        assert!(matches!(parse(""), Err(HttpError::Closed)));
    }

    #[test]
    fn duplicate_benign_headers_comma_combine() {
        let raw = "GET / HTTP/1.1\r\nAccept: text/xml\r\nAccept: image/svg+xml\r\n\r\n";
        let req = parse(raw).unwrap();
        assert_eq!(
            req.headers.get("accept").map(String::as_str),
            Some("text/xml, image/svg+xml")
        );
    }

    #[test]
    fn conflicting_content_lengths_are_rejected() {
        // Two different Content-Length values is the request-smuggling
        // shape: upstream and downstream picking different ones desyncs
        // the connection. Reject outright.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nab";
        assert!(matches!(parse(raw), Err(HttpError::Malformed(_))));
        // The same value twice is odd but unambiguous.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nab";
        assert_eq!(parse(raw).unwrap().body, "ab");
    }

    #[test]
    fn oversized_request_lines_are_rejected_without_buffering() {
        let limits = HttpLimits {
            max_request_line_bytes: 64,
            ..HttpLimits::default()
        };
        let raw = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(500));
        assert!(matches!(
            parse_limited(&raw, &limits),
            Err(HttpError::RequestLineTooLong)
        ));
        // A request line *at* the limit still parses.
        let path = format!("/{}", "a".repeat(64 - "GET  HTTP/1.1".len() - 1));
        let ok = format!("GET {path} HTTP/1.1\r\n\r\n");
        assert_eq!(parse_limited(&ok, &limits).unwrap().path, path);
    }

    #[test]
    fn oversized_headers_are_rejected() {
        let limits = HttpLimits {
            max_header_bytes: 64,
            max_header_count: 4,
            max_total_header_bytes: 128,
            ..HttpLimits::default()
        };
        // One huge header line.
        let raw = format!("GET / HTTP/1.1\r\nX-Big: {}\r\n\r\n", "v".repeat(500));
        assert!(matches!(
            parse_limited(&raw, &limits),
            Err(HttpError::HeadersTooLarge(_))
        ));
        // Too many headers.
        let many: String = (0..8).map(|i| format!("X-{i}: v\r\n")).collect();
        let raw = format!("GET / HTTP/1.1\r\n{many}\r\n");
        assert!(matches!(
            parse_limited(&raw, &limits),
            Err(HttpError::HeadersTooLarge(_))
        ));
        // Total header bytes.
        let raw = format!(
            "GET / HTTP/1.1\r\nX-A: {v}\r\nX-B: {v}\r\nX-C: {v}\r\n\r\n",
            v = "v".repeat(50)
        );
        assert!(matches!(
            parse_limited(&raw, &limits),
            Err(HttpError::HeadersTooLarge(_))
        ));
    }

    #[test]
    fn parse_errors_map_to_responses() {
        assert_eq!(
            Response::for_error(&HttpError::RequestLineTooLong)
                .unwrap()
                .status,
            400
        );
        assert_eq!(
            Response::for_error(&HttpError::HeadersTooLarge("x"))
                .unwrap()
                .status,
            431
        );
        assert_eq!(
            Response::for_error(&HttpError::Malformed("x"))
                .unwrap()
                .status,
            400
        );
        let timeout: HttpError =
            std::io::Error::new(std::io::ErrorKind::WouldBlock, "timed out").into();
        assert_eq!(Response::for_error(&timeout).unwrap().status, 408);
        assert!(Response::for_error(&HttpError::Closed).is_none());
        assert!(Response::for_error(&HttpError::Idle).is_none());
    }

    #[test]
    fn response_serialization() {
        let mut buf = Vec::new();
        Response::ok("text/xml", "<a/>").write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("<a/>"));
    }

    #[test]
    fn content_length_counts_bytes_not_chars() {
        // Multi-byte UTF-8: the frame length must be the byte count or
        // keep-alive clients desync on the next request.
        let body = "schöma × 30 000 — ✓";
        let mut buf = Vec::new();
        Response::ok("text/plain", body).write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(body.len() > body.chars().count(), "body is multi-byte");
        assert!(
            text.contains(&format!("Content-Length: {}\r\n", body.len())),
            "{text}"
        );
        let (_, framed) = text.split_once("\r\n\r\n").unwrap();
        assert_eq!(framed.len(), body.len());
    }

    #[test]
    fn caller_headers_cannot_conflict_with_framing() {
        let mut buf = Vec::new();
        Response::ok("text/plain", "abc")
            .with_header("Content-Length", "999")
            .with_header("Connection", "keep-alive")
            .with_header("X-Extra", "kept")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("Content-Length:").count(), 1, "{text}");
        assert_eq!(text.matches("Connection:").count(), 1, "{text}");
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("X-Extra: kept\r\n"));
    }

    #[test]
    fn keep_alive_serialization_advertises_the_connection() {
        let mut buf = Vec::new();
        Response::ok("text/plain", "x")
            .write_to_conn(&mut buf, true)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"), "{text}");
    }

    #[test]
    fn overloaded_response_carries_retry_after() {
        let mut buf = Vec::new();
        Response::overloaded().write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
    }

    #[test]
    fn extra_headers_and_503_serialize() {
        let mut buf = Vec::new();
        Response::unavailable("application/json", "{}")
            .with_header("X-Schemr-Trace-Id", "t7")
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("X-Schemr-Trace-Id: t7\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
    }

    #[test]
    fn timeout_errors_are_classified_and_serialized() {
        let timed_out: HttpError =
            std::io::Error::new(std::io::ErrorKind::WouldBlock, "timed out").into();
        assert!(timed_out.is_timeout());
        let broken: HttpError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "reset").into();
        assert!(!broken.is_timeout());
        assert!(!HttpError::Malformed("x").is_timeout());

        let mut buf = Vec::new();
        Response::request_timeout().write_to(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 408 Request Timeout\r\n"),
            "{text}"
        );
    }

    #[test]
    fn oversized_bodies_are_rejected() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
        assert!(parse(raw).is_err());
        // The cap is configurable.
        let limits = HttpLimits {
            max_body_bytes: 4,
            ..HttpLimits::default()
        };
        let raw = "POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
        assert!(parse_limited(raw, &limits).is_err());
    }

    #[test]
    fn sequential_requests_parse_from_one_buffer() {
        // Two pipelined requests through one BufReader: the second must
        // not be lost to the first read's buffering.
        let raw = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut reader = BufReader::new(raw.as_bytes());
        let limits = HttpLimits::default();
        let first = read_request(&mut reader, &limits).unwrap();
        assert_eq!(first.path, "/a");
        assert!(first.wants_keep_alive());
        let second = read_request(&mut reader, &limits).unwrap();
        assert_eq!(second.path, "/b");
        assert!(!second.wants_keep_alive());
        assert!(matches!(
            read_request(&mut reader, &limits),
            Err(HttpError::Closed)
        ));
    }
}
