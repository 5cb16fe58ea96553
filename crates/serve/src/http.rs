//! Minimal hand-rolled HTTP/1.1 message layer over `std::io` streams.
//!
//! The workspace is vendored-only, so there is no hyper/axum to lean on;
//! this module implements exactly the subset the fill service needs —
//! request parsing with hard limits, response writing, and a matching
//! client-side response reader — and nothing else:
//!
//! * request line + headers, bounded by [`HttpLimits::max_header_bytes`]
//!   (overflow → 431), bodies bounded by [`HttpLimits::max_body_bytes`]
//!   (overflow → 413 *before* reading the body);
//! * `Content-Length` bodies only — `Transfer-Encoding` is rejected with
//!   501 rather than mis-framed;
//! * keep-alive and pipelining fall out of parsing from a persistent
//!   `BufRead`: leftover buffered bytes are simply the next request;
//! * every malformed input is a typed [`HttpError`] mapping to a 4xx/5xx
//!   status — the parser never panics on untrusted bytes.

use std::io::{self, BufRead, Read, Write};

/// Hard input limits enforced while parsing (never after the fact).
#[derive(Debug, Clone, Copy)]
pub struct HttpLimits {
    /// Cap on the request line + header block, in bytes.
    pub max_header_bytes: usize,
    /// Cap on a declared `Content-Length` body, in bytes.
    pub max_body_bytes: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        // Bundles are the largest legitimate payloads (weights as text);
        // 64 MiB leaves generous headroom without letting one connection
        // swallow the host's memory.
        Self { max_header_bytes: 16 * 1024, max_body_bytes: 64 * 1024 * 1024 }
    }
}

/// Why a request could not be parsed, with the status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, body framing or truncated input
    /// (→ 400).
    BadRequest(String),
    /// Header block exceeded [`HttpLimits::max_header_bytes`] (→ 431).
    HeadersTooLarge,
    /// Declared body exceeds [`HttpLimits::max_body_bytes`] (→ 413).
    BodyTooLarge,
    /// A framing feature this server does not implement (→ 501).
    Unsupported(String),
}

impl HttpError {
    /// The response status this error maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            HttpError::BadRequest(_) => 400,
            HttpError::HeadersTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Unsupported(_) => 501,
        }
    }

    /// Human-readable reason for the response body.
    #[must_use]
    pub fn message(&self) -> String {
        match self {
            HttpError::BadRequest(m) => m.clone(),
            HttpError::HeadersTooLarge => "header block too large".to_string(),
            HttpError::BodyTooLarge => "request body too large".to_string(),
            HttpError::Unsupported(m) => m.clone(),
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercased method token (`GET`, `POST`, ...).
    pub method: String,
    /// Path portion of the request target (before `?`).
    pub path: String,
    /// Decoded `key=value` pairs of the query string, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty without a `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lowercased) header name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of a query parameter.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Outcome of reading from a connection: a request, or a clean EOF
/// *between* requests (the peer closed an idle keep-alive connection).
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete request was parsed.
    Request(Request),
    /// End of stream with no request bytes pending.
    Eof,
}

/// Reads one line terminated by `\n` into `buf` (stripping `\r\n`/`\n`),
/// charging its size against `budget`. Returns `Ok(None)` on EOF at a
/// line boundary.
fn read_line<R: BufRead>(r: &mut R, budget: &mut usize) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    loop {
        let available = match r.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::BadRequest(format!("read error: {e}"))),
        };
        if available.is_empty() {
            if line.is_empty() {
                return Ok(None);
            }
            return Err(HttpError::BadRequest("truncated header line".to_string()));
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let take = newline.map_or(available.len(), |i| i + 1);
        if take > *budget {
            return Err(HttpError::HeadersTooLarge);
        }
        *budget -= take;
        line.extend_from_slice(&available[..take]);
        r.consume(take);
        if newline.is_some() {
            while matches!(line.last(), Some(b'\n' | b'\r')) {
                line.pop();
            }
            let text = String::from_utf8(line)
                .map_err(|_| HttpError::BadRequest("header bytes are not UTF-8".to_string()))?;
            return Ok(Some(text));
        }
    }
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect()
}

/// Parses one request from the stream under `limits` (see module docs).
///
/// # Errors
///
/// Returns an [`HttpError`] describing the 4xx/5xx to answer with. After
/// any error the connection should be closed: framing is unreliable.
pub fn read_request<R: BufRead>(r: &mut R, limits: &HttpLimits) -> Result<ReadOutcome, HttpError> {
    let mut budget = limits.max_header_bytes;
    let request_line = match read_line(r, &mut budget)? {
        None => return Ok(ReadOutcome::Eof),
        Some(line) if line.is_empty() => {
            // Tolerate a single stray CRLF between pipelined requests.
            match read_line(r, &mut budget)? {
                None => return Ok(ReadOutcome::Eof),
                Some(line) if line.is_empty() => {
                    return Err(HttpError::BadRequest("empty request line".to_string()))
                }
                Some(line) => line,
            }
        }
        Some(line) => line,
    };

    let mut parts = request_line.split(' ').filter(|t| !t.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(HttpError::BadRequest(format!("malformed request line {request_line:?}"))),
    };
    if !method.chars().all(|c| c.is_ascii_alphabetic()) {
        return Err(HttpError::BadRequest(format!("malformed method {method:?}")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        other => return Err(HttpError::Unsupported(format!("unsupported version {other:?}"))),
    };

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let line = read_line(r, &mut budget)?
            .ok_or_else(|| HttpError::BadRequest("truncated header block".to_string()))?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadRequest(format!("malformed header {line:?}")))?;
        let name = name.trim();
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadRequest(format!("malformed header name {line:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let connection =
        headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match connection.as_deref() {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => http11,
    };

    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Unsupported("transfer-encoding is not supported".to_string()));
    }

    let mut content_length: Option<usize> = None;
    for (k, v) in &headers {
        if k == "content-length" {
            let n: usize =
                v.parse().map_err(|_| HttpError::BadRequest(format!("bad content-length {v:?}")))?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpError::BadRequest("conflicting content-length headers".to_string()));
            }
            content_length = Some(n);
        }
    }

    let mut body = Vec::new();
    if let Some(n) = content_length {
        if n > limits.max_body_bytes {
            return Err(HttpError::BodyTooLarge);
        }
        body.resize(n, 0);
        r.read_exact(&mut body).map_err(|e| HttpError::BadRequest(format!("truncated body: {e}")))?;
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };

    Ok(ReadOutcome::Request(Request {
        method: method.to_ascii_uppercase(),
        path,
        query,
        headers,
        body,
        keep_alive,
    }))
}

/// Standard reason phrase for the statuses this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        202 => "Accepted",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers (`Content-Length` and `Connection` are added by
    /// [`Response::write_to`]).
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// An empty response with the given status.
    #[must_use]
    pub fn new(status: u16) -> Self {
        Self { status, headers: Vec::new(), body: Vec::new() }
    }

    /// A `text/plain` response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        let mut r = Self::new(status);
        r.headers.push(("content-type".to_string(), "text/plain; charset=utf-8".to_string()));
        r.body = body.into().into_bytes();
        r
    }

    /// Adds a header.
    #[must_use]
    pub fn header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.headers.push((name.into(), value.into()));
        self
    }

    /// The response an [`HttpError`] maps to.
    #[must_use]
    pub fn from_error(err: &HttpError) -> Self {
        Self::text(err.status(), format!("{}\n", err.message()))
    }

    /// Serializes the response (adding `Content-Length` and, when
    /// `keep_alive` is false, `Connection: close`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the stream.
    pub fn write_to<W: Write>(&self, w: &mut W, keep_alive: bool) -> io::Result<()> {
        write!(w, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status))?;
        write!(w, "content-length: {}\r\n", self.body.len())?;
        if !keep_alive {
            w.write_all(b"connection: close\r\n")?;
        }
        for (name, value) in &self.headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// A response parsed by the client side.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lowercased names.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a (lowercased) header name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text (lossy).
    #[must_use]
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Reads one response from a stream (client side). Only
/// `Content-Length`-framed bodies are understood, which is all this
/// crate's server emits. The status line and headers are read under
/// [`HttpLimits::max_header_bytes`], and the body grows only with bytes
/// that arrive, never to a size the peer declared.
///
/// # Errors
///
/// Returns `InvalidData` on malformed or oversized headers,
/// `UnexpectedEof` when the stream ends before the declared body, and
/// propagates stream errors.
pub fn read_response<R: BufRead>(r: &mut R) -> io::Result<ClientResponse> {
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    let mut budget = HttpLimits::default().max_header_bytes;
    let status_line = read_line(r, &mut budget)
        .map_err(|e| bad(e.message()))?
        .ok_or_else(|| bad("connection closed before response".to_string()))?;
    let mut parts = status_line.split(' ');
    let version = parts.next().unwrap_or_default();
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("malformed status line {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {status_line:?}")))?;
    let mut headers = Vec::new();
    let mut content_length = 0u64;
    loop {
        let line = read_line(r, &mut budget)
            .map_err(|e| bad(e.message()))?
            .ok_or_else(|| bad("truncated response headers".to_string()))?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length =
                    value.parse().map_err(|_| bad(format!("bad content-length {value:?}")))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    r.take(content_length).read_to_end(&mut body)?;
    if (body.len() as u64) < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("response body ended after {} of {content_length} declared bytes", body.len()),
        ));
    }
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(bytes: &[u8]) -> Result<ReadOutcome, HttpError> {
        read_request(&mut Cursor::new(bytes.to_vec()), &HttpLimits::default())
    }

    fn request(bytes: &[u8]) -> Request {
        match parse(bytes) {
            Ok(ReadOutcome::Request(r)) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_basic_request() {
        let r = request(b"GET /v1/jobs/7?wait_ms=100&x HTTP/1.1\r\nHost: a\r\nX-Tenant: acme\r\n\r\n");
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/jobs/7");
        assert_eq!(r.query_param("wait_ms"), Some("100"));
        assert_eq!(r.query_param("x"), Some(""));
        assert_eq!(r.header("x-tenant"), Some("acme"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(r.body.is_empty());
    }

    #[test]
    fn reads_content_length_bodies_exactly() {
        let r = request(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 5\r\n\r\nhelloEXTRA");
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn pipelined_requests_parse_in_order() {
        let mut stream =
            Cursor::new(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec());
        let limits = HttpLimits::default();
        let first = match read_request(&mut stream, &limits) {
            Ok(ReadOutcome::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        let second = match read_request(&mut stream, &limits) {
            Ok(ReadOutcome::Request(r)) => r,
            other => panic!("{other:?}"),
        };
        assert_eq!((first.path.as_str(), second.path.as_str()), ("/a", "/b"));
        assert!(first.keep_alive && !second.keep_alive);
        assert!(matches!(read_request(&mut stream, &limits), Ok(ReadOutcome::Eof)));
    }

    #[test]
    fn rejects_oversized_headers_with_431() {
        let limits = HttpLimits { max_header_bytes: 64, max_body_bytes: 1024 };
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend_from_slice(format!("x-long: {}\r\n\r\n", "a".repeat(256)).as_bytes());
        let err = read_request(&mut Cursor::new(big), &limits).unwrap_err();
        assert_eq!(err, HttpError::HeadersTooLarge);
        assert_eq!(err.status(), 431);
    }

    #[test]
    fn rejects_bad_and_conflicting_content_length() {
        for bad in [
            b"POST / HTTP/1.1\r\ncontent-length: abc\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\ncontent-length: -5\r\n\r\n".as_slice(),
            b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx".as_slice(),
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.status(), 400, "{err:?}");
        }
    }

    #[test]
    fn rejects_declared_body_over_limit_before_reading_it() {
        let limits = HttpLimits { max_header_bytes: 1024, max_body_bytes: 8 };
        let err = read_request(
            &mut Cursor::new(b"POST / HTTP/1.1\r\ncontent-length: 100\r\n\r\n".to_vec()),
            &limits,
        )
        .unwrap_err();
        assert_eq!(err, HttpError::BodyTooLarge);
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn rejects_truncated_bodies_and_garbage() {
        let err = parse(b"POST / HTTP/1.1\r\ncontent-length: 10\r\n\r\nhi").unwrap_err();
        assert_eq!(err.status(), 400);
        assert_eq!(parse(b"total garbage\r\n\r\n").unwrap_err().status(), 400);
        assert_eq!(parse(b"GET / HTTP/2.0\r\n\r\n").unwrap_err().status(), 501);
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n").unwrap_err().status(),
            501
        );
        assert!(matches!(parse(b""), Ok(ReadOutcome::Eof)));
    }

    #[test]
    fn response_roundtrips_through_client_reader() {
        let resp = Response::text(429, "slow down\n").header("retry-after", "2");
        let mut wire = Vec::new();
        resp.write_to(&mut wire, true).unwrap();
        let back = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(back.status, 429);
        assert_eq!(back.header("retry-after"), Some("2"));
        assert_eq!(back.text(), "slow down\n");
    }

    #[test]
    fn client_reader_never_sizes_a_body_from_the_declared_length() {
        // A terabyte declared, two bytes sent: the reader must report the
        // short body, not try to allocate what the peer claimed.
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nab".to_vec();
        let err = read_response(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");

        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabcde".to_vec();
        assert_eq!(read_response(&mut Cursor::new(wire)).unwrap().text(), "abcde");
    }

    #[test]
    fn client_reader_bounds_the_header_block() {
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        let long = "a".repeat(HttpLimits::default().max_header_bytes);
        wire.extend_from_slice(format!("x-long: {long}\r\n\r\n").as_bytes());
        let err = read_response(&mut Cursor::new(wire)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }
}
