//! Minimal HTTP/1.1 codec and a small blocking client.
//!
//! One codec: [`RequestParser`] frames requests on the server side and
//! [`ResponseParser`] frames responses on the client side. Both are
//! incremental — callers push byte ranges as they arrive and drain
//! complete messages — and share one head scanner and one set of line
//! parsers, so the readiness-driven server and every client agree on
//! framing. [`write_request`] and [`write_response`] are the encoders.
//!
//! This is deliberately a *codec*, not a framework: it understands
//! exactly the subset of RFC 9112 the `webre-serve` daemon and its
//! clients need — request line, headers, `Content-Length` bodies, and
//! keep-alive negotiation. No chunked transfer encoding (requests
//! carrying it are rejected as [`HttpError::Unsupported`]), no
//! multiline headers, no trailers.
//!
//! Robustness properties the serving layer relies on:
//!
//! * the head and the body are bounded ([`MAX_HEAD_BYTES`] and a
//!   caller-supplied body limit), so a hostile peer cannot balloon
//!   memory ([`HttpError::TooLarge`] maps to `413`);
//! * a `Content-Length` over the limit errors as soon as the head is
//!   complete, before any body byte is buffered (the early `413`);
//! * all parse failures are typed so the server can answer `400`
//!   instead of dropping the connection; after one the parser is
//!   poisoned, because framing is lost;
//! * a peer that closes between requests leaves nothing buffered
//!   ([`RequestParser::mid_request`] is false), which is how a clean
//!   keep-alive close is told apart from an abandoned request.
//!
//! [`Client`] is the one client: a keep-alive connection with read and
//! write timeouts over a [`ResponseParser`], and [`request`] is its
//! one-shot `connection: close` form.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the request line + headers, independent of the body
/// limit. 16 KiB fits any sane client with room to spare.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token, e.g. `GET`, `POST`.
    pub method: String,
    /// The request target as sent (path + optional query), e.g. `/convert`.
    pub target: String,
    /// Header `(name, value)` pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// The body, empty unless `Content-Length` said otherwise.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked to keep the connection open after this
    /// exchange (HTTP/1.1 default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }

    /// The target's path component (query string stripped).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }
}

/// Why a request could not be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Malformed request line, header, or length field.
    Malformed(String),
    /// Head or body exceeds the configured limit.
    TooLarge { limit: usize },
    /// The peer used a transfer mechanism the codec does not speak.
    Unsupported(String),
    /// The connection errored or closed mid-request.
    Io(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge { limit } => write!(f, "request exceeds {limit} bytes"),
            HttpError::Unsupported(m) => write!(f, "unsupported: {m}"),
            HttpError::Io(m) => write!(f, "i/o: {m}"),
        }
    }
}

/// Parses `METHOD target HTTP/1.x` into an uppercased method plus the
/// target.
fn parse_request_line(line: &str) -> Result<(String, String), HttpError> {
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target), Some(version)) =
        (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!("request line {line:?}")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Unsupported(format!("version {version}")));
    }
    Ok((method.to_ascii_uppercase(), target.to_owned()))
}

/// Parses one `Name: value` header line (name lowercased, value trimmed).
fn parse_header_line(line: &str) -> Result<(String, String), HttpError> {
    let Some((name, value)) = line.split_once(':') else {
        return Err(HttpError::Malformed(format!("header {line:?}")));
    };
    Ok((name.trim().to_ascii_lowercase(), value.trim().to_owned()))
}

/// How many body bytes the head promises, after validating the transfer
/// mechanism and the `max_body` cap. Errors *before* any body byte is
/// read — the early-413 guarantee the streaming server relies on.
fn body_length(request: &Request, max_body: usize) -> Result<usize, HttpError> {
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(HttpError::Unsupported("transfer-encoding".into()));
    }
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("content-length {v:?}")))?,
    };
    if length > max_body {
        return Err(HttpError::TooLarge { limit: max_body });
    }
    Ok(length)
}

/// Canonical reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response ready to serialize.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present `Content-Length` and
    /// `Content-Type`.
    pub headers: Vec<(String, String)>,
    /// `Content-Type` value.
    pub content_type: String,
    /// The payload.
    pub body: Vec<u8>,
}

impl Response {
    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8".into(),
            body: body.into().into_bytes(),
        }
    }

    /// An XML response.
    pub fn xml(status: u16, body: impl Into<String>) -> Self {
        Response {
            content_type: "application/xml".into(),
            ..Response::text(status, body)
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_owned(), value.into()));
        self
    }
}

/// Serializes `response` to `writer`. `keep_alive` controls the
/// `Connection` header so peers know whether to reuse the socket.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\ncontent-length: {}\r\ncontent-type: {}\r\nconnection: {}\r\n",
        response.status,
        reason(response.status),
        response.body.len(),
        response.content_type,
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head+body: a split write would put the body in its
    // own TCP segment and stall on Nagle + delayed ACK (~40ms/request).
    let mut message = head.into_bytes();
    message.extend_from_slice(&response.body);
    writer.write_all(&message)?;
    writer.flush()
}

/// A parsed response (for test clients and the differential oracle).
#[derive(Clone, Debug)]
pub struct ParsedResponse {
    /// HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The payload.
    pub body: Vec<u8>,
}

impl ParsedResponse {
    /// First value of a header, by case-insensitive name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Serializes a request (client side). Writing into a `Vec<u8>` builds
/// pipelined batches for [`Client::send_raw`].
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "{method} {target} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    // Single write, same Nagle rationale as `write_response`.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Byte buffer shared by the incremental parsers: pushed ranges accrete
/// at the tail, parsed prefixes are consumed from the head, and the
/// head-terminator scan position survives across pushes so feeding one
/// byte at a time stays O(1) amortised.
#[derive(Debug, Default)]
struct StreamBuf {
    buf: Vec<u8>,
    /// Consumed prefix; bytes before this offset are dead.
    start: usize,
    /// Absolute index the blank-line scan has reached.
    scan: usize,
}

impl StreamBuf {
    fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Unconsumed byte count.
    fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    fn peek(&self) -> &[u8] {
        &self.buf[self.start..]
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.buf.len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= 64 * 1024 {
            // Compact rarely so pipelined bursts don't memmove per request.
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.scan = self.start;
    }

    /// Looks for the blank line ending a head block. Returns the length
    /// of the head *including* its terminator, relative to the unread
    /// prefix. A lone leading CRLF counts as a (malformed, empty) head
    /// so the error surfaces instead of the parser waiting forever.
    fn head_end(&mut self) -> Option<usize> {
        let buf = &self.buf;
        let mut i = self.scan.max(self.start);
        while i < buf.len() {
            if buf[i] == b'\n' {
                let line_empty = i == self.start
                    // webre::allow(panic-in-hot-path): the `i == start` arm above guarantees i ≥ start+1 here
                    || buf[i - 1] == b'\n'
                    // webre::allow(panic-in-hot-path): the `i-1 == start` arm guards the i-2 access
                    || (buf[i - 1] == b'\r' && (i - 1 == self.start || buf[i - 2] == b'\n'));
                if line_empty {
                    return Some(i + 1 - self.start);
                }
            }
            i += 1;
        }
        // The terminator window is three bytes wide, so resuming two
        // bytes back is enough to catch one split across pushes.
        self.scan = self.start.max(self.buf.len().saturating_sub(2));
        None
    }
}

/// Splits a complete head block into its lines (terminators stripped)
/// and hands the request/status line plus each header line to `parse`.
fn parse_head_lines(
    head: &[u8],
    mut parse: impl FnMut(bool, &str) -> Result<(), HttpError>,
) -> Result<(), HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("non-UTF-8 header bytes".into()))?;
    let mut first = true;
    for line in text.split('\n') {
        let line = line.strip_suffix('\r').unwrap_or(line);
        if !first && line.is_empty() {
            break;
        }
        parse(first, line)?;
        first = false;
    }
    Ok(())
}

/// Incremental request parser: the readiness-driven server pushes byte
/// ranges as they arrive off a non-blocking socket and drains complete
/// requests with [`RequestParser::next`]. A `Content-Length` beyond
/// `max_body` errors as soon as the *head* is complete, before any body
/// byte is buffered (streaming early 413).
#[derive(Debug)]
pub struct RequestParser {
    max_body: usize,
    stream: StreamBuf,
    /// A parsed head still waiting for this many body bytes.
    pending: Option<(Request, usize)>,
    failed: bool,
}

impl RequestParser {
    /// `max_body` bounds the `Content-Length` the parser will honour.
    pub fn new(max_body: usize) -> RequestParser {
        RequestParser {
            max_body,
            stream: StreamBuf::default(),
            pending: None,
            failed: false,
        }
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.stream.push(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete request —
    /// the event loop's backpressure signal.
    pub fn buffered(&self) -> usize {
        self.stream.len() + self.pending.as_ref().map_or(0, |(r, _)| r.body.len())
    }

    /// Whether a request is partially received (head bytes buffered or
    /// a body outstanding). Drives the read-timeout (slow-loris) clock.
    pub fn mid_request(&self) -> bool {
        self.pending.is_some() || self.stream.len() > 0
    }

    /// Drains the next complete request, `Ok(None)` if more bytes are
    /// needed. After an error the parser is poisoned: the connection
    /// has lost framing and must be closed.
    pub fn next(&mut self) -> Result<Option<Request>, HttpError> {
        if self.failed {
            return Err(HttpError::Malformed("parser poisoned by earlier error".into()));
        }
        match self.advance() {
            Ok(request) => Ok(request),
            Err(err) => {
                self.failed = true;
                Err(err)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<Request>, HttpError> {
        if self.pending.is_none() {
            let Some(head_len) = self.stream.head_end() else {
                if self.stream.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::TooLarge { limit: MAX_HEAD_BYTES });
                }
                return Ok(None);
            };
            if head_len > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge { limit: MAX_HEAD_BYTES });
            }
            let mut method = String::new();
            let mut target = String::new();
            let mut headers = Vec::new();
            parse_head_lines(&self.stream.peek()[..head_len], |first, line| {
                if first {
                    let (m, t) = parse_request_line(line)?;
                    method = m;
                    target = t;
                } else {
                    headers.push(parse_header_line(line)?);
                }
                Ok(())
            })?;
            let request = Request {
                method,
                target,
                headers,
                body: Vec::new(),
            };
            let need = body_length(&request, self.max_body)?;
            self.stream.consume(head_len);
            self.pending = Some((request, need));
        }
        // webre::allow(panic-in-hot-path): pending was just set above if absent
        let need = self.pending.as_ref().map(|(_, need)| *need).unwrap_or(0);
        if self.stream.len() < need {
            return Ok(None);
        }
        // webre::allow(panic-in-hot-path): pending is Some — the branch above populated it
        let (mut request, _) = self.pending.take().expect("pending head");
        request.body = self.stream.peek()[..need].to_vec();
        self.stream.consume(need);
        Ok(Some(request))
    }
}

/// Incremental response parser — the client-side mirror of
/// [`RequestParser`] and the framing under [`Client`].
#[derive(Debug)]
pub struct ResponseParser {
    max_body: usize,
    stream: StreamBuf,
    pending: Option<(ParsedResponse, usize)>,
    failed: bool,
}

impl ResponseParser {
    /// `max_body` bounds the `Content-Length` the parser will honour.
    pub fn new(max_body: usize) -> ResponseParser {
        ResponseParser {
            max_body,
            stream: StreamBuf::default(),
            pending: None,
            failed: false,
        }
    }

    /// Appends newly received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.stream.push(bytes);
    }

    /// Bytes buffered but not yet consumed by a complete response.
    pub fn buffered(&self) -> usize {
        self.stream.len()
    }

    /// Drains the next complete response, `Ok(None)` if more bytes are
    /// needed. Errors poison the parser (framing is lost).
    pub fn next(&mut self) -> Result<Option<ParsedResponse>, HttpError> {
        if self.failed {
            return Err(HttpError::Malformed("parser poisoned by earlier error".into()));
        }
        match self.advance() {
            Ok(response) => Ok(response),
            Err(err) => {
                self.failed = true;
                Err(err)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<ParsedResponse>, HttpError> {
        if self.pending.is_none() {
            let Some(head_len) = self.stream.head_end() else {
                if self.stream.len() > MAX_HEAD_BYTES {
                    return Err(HttpError::TooLarge { limit: MAX_HEAD_BYTES });
                }
                return Ok(None);
            };
            let mut status: u16 = 0;
            let mut headers = Vec::new();
            parse_head_lines(&self.stream.peek()[..head_len], |first, line| {
                if first {
                    let mut parts = line.split_whitespace();
                    let (Some(version), Some(code)) = (parts.next(), parts.next()) else {
                        return Err(HttpError::Malformed(format!("status line {line:?}")));
                    };
                    if !version.starts_with("HTTP/1.") {
                        return Err(HttpError::Unsupported(format!("version {version}")));
                    }
                    status = code
                        .parse()
                        .map_err(|_| HttpError::Malformed(format!("status code {code:?}")))?;
                } else {
                    headers.push(parse_header_line(line)?);
                }
                Ok(())
            })?;
            let response = ParsedResponse {
                status,
                headers,
                body: Vec::new(),
            };
            let need = response
                .header("content-length")
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| HttpError::Malformed(format!("content-length {v:?}")))
                })
                .transpose()?
                .unwrap_or(0);
            if need > self.max_body {
                return Err(HttpError::TooLarge { limit: self.max_body });
            }
            self.stream.consume(head_len);
            self.pending = Some((response, need));
        }
        let need = self.pending.as_ref().map(|(_, need)| *need).unwrap_or(0);
        if self.stream.len() < need {
            return Ok(None);
        }
        // webre::allow(panic-in-hot-path): pending is Some — the branch above populated it
        let (mut response, _) = self.pending.take().expect("pending head");
        response.body = self.stream.peek()[..need].to_vec();
        self.stream.consume(need);
        Ok(Some(response))
    }
}

/// Largest response body a [`Client`] accepts.
const MAX_RESPONSE_BODY: usize = 256 << 20;

/// How long a [`request`] may block on one write or read.
const ONE_SHOT_TIMEOUT: Duration = Duration::from_secs(30);

/// A blocking HTTP/1.1 client: one connection with read and write
/// timeouts, framed by a [`ResponseParser`]. `send` and `recv` can be
/// interleaved freely, so keep-alive round trips and pipelined batches
/// use the same connection and the same parser.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    parser: ResponseParser,
}

impl Client {
    /// Connects to `addr`; every later read and write fails after
    /// blocking for `timeout`.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        Client::wrap(TcpStream::connect(addr)?, timeout)
    }

    /// Takes over an already-open connection and sets its timeouts.
    pub fn wrap(stream: TcpStream, timeout: Duration) -> io::Result<Client> {
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        // Nagle stays on: a pipelining sender writes one small request
        // at a time, and letting the kernel coalesce them is faster.
        Ok(Client {
            stream,
            parser: ResponseParser::new(MAX_RESPONSE_BODY),
        })
    }

    /// The underlying socket, for socket-level probes.
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Writes one keep-alive request without waiting for its response.
    pub fn send(&mut self, method: &str, target: &str, body: &[u8]) -> io::Result<()> {
        write_request(&mut self.stream, method, target, body, true)
    }

    /// Writes raw bytes: a batch built with [`write_request`], or
    /// deliberately broken framing.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Blocks until the next response is complete. EOF before that is
    /// `UnexpectedEof`; a framing error is `InvalidData`.
    pub fn recv(&mut self) -> io::Result<ParsedResponse> {
        loop {
            let parsed = self
                .parser
                .next()
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if let Some(response) = parsed {
                return Ok(response);
            }
            // Only here, not per call: responses already buffered from a
            // pipelined burst are returned without zeroing a buffer.
            let mut buf = [0u8; 16 * 1024];
            let n = self.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection before a complete response",
                ));
            }
            self.parser.push(&buf[..n]);
        }
    }

    /// One keep-alive request and its response.
    pub fn roundtrip(
        &mut self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> io::Result<ParsedResponse> {
        let sent = self.send(method, target, body);
        self.answer(sent)
    }

    /// Reads the response to a request whose write returned `sent`. A
    /// server may answer from the head alone (an early `413`) and close
    /// while the body is still uploading, so a write cut off by the peer
    /// still leaves that answer to read; the write error is reported
    /// only when there is none.
    fn answer(&mut self, sent: io::Result<()>) -> io::Result<ParsedResponse> {
        match sent {
            Ok(()) => self.recv(),
            Err(e) if matches!(
                e.kind(),
                io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
            ) =>
            {
                self.recv().map_err(|_| e)
            }
            Err(e) => Err(e),
        }
    }
}

/// One `connection: close` exchange on a fresh connection, bounded by a
/// 30 s timeout on each read and write.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    target: &str,
    body: &[u8],
) -> io::Result<ParsedResponse> {
    let mut client = Client::connect(addr, ONE_SHOT_TIMEOUT)?;
    let sent = write_request(&mut client.stream, method, target, body, false);
    client.answer(sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    /// Feeds `raw` to a request parser in `chunk`-byte slices and drains
    /// every complete request.
    fn parse_chunked(raw: &[u8], max_body: usize, chunk: usize) -> Result<Vec<Request>, HttpError> {
        let mut parser = RequestParser::new(max_body);
        let mut out = Vec::new();
        for piece in raw.chunks(chunk.max(1)) {
            parser.push(piece);
            while let Some(request) = parser.next()? {
                out.push(request);
            }
        }
        Ok(out)
    }

    /// The one request `raw` holds, fed as a whole buffer.
    fn parse(raw: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let mut requests = parse_chunked(raw, max_body, raw.len())?;
        assert_eq!(requests.len(), 1, "expected exactly one request");
        Ok(requests.remove(0))
    }

    #[test]
    fn parses_post_with_body() {
        let raw = b"POST /convert HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = parse(raw, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/convert");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
    }

    #[test]
    fn parses_get_without_body_and_lf_only_lines() {
        let raw = b"GET /healthz HTTP/1.1\nConnection: close\n\n";
        let req = parse(raw, 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
        assert!(!req.keep_alive());
    }

    #[test]
    fn clean_eof_is_none() {
        // A peer that closes between requests left nothing behind: no
        // request, and not mid-request, so the server closes quietly.
        let mut parser = RequestParser::new(1024);
        assert_eq!(parser.next(), Ok(None));
        assert!(!parser.mid_request());
        parser.push(b"GET / HTTP/1.1\r\n\r\n");
        assert!(parser.next().unwrap().is_some());
        assert_eq!(parser.next(), Ok(None));
        assert!(!parser.mid_request());
    }

    #[test]
    fn oversized_body_is_too_large() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n";
        assert_eq!(parse(raw, 10), Err(HttpError::TooLarge { limit: 10 }));
    }

    #[test]
    fn bad_request_line_is_malformed() {
        assert!(matches!(
            parse(b"NONSENSE\r\n\r\n", 10),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn chunked_encoding_is_unsupported() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
        assert!(matches!(parse(raw, 10), Err(HttpError::Unsupported(_))));
    }

    #[test]
    fn truncated_body_stays_mid_request() {
        // The peer's EOF arrives here: the parser still holds a partial
        // request, which the server reaps as abandoned.
        let mut parser = RequestParser::new(100);
        parser.push(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc");
        assert_eq!(parser.next(), Ok(None));
        assert!(parser.mid_request());
    }

    #[test]
    fn query_string_is_stripped_by_path() {
        let raw = b"GET /metrics?verbose=1 HTTP/1.1\r\n\r\n";
        let req = parse(raw, 0).unwrap();
        assert_eq!(req.target, "/metrics?verbose=1");
        assert_eq!(req.path(), "/metrics");
    }

    #[test]
    fn response_round_trips_through_codec() {
        let response = Response::xml(200, "<r/>").with_header("x-cache", "hit");
        let mut wire = Vec::new();
        write_response(&mut wire, &response, true).unwrap();
        let mut parser = ResponseParser::new(1024);
        parser.push(&wire);
        let parsed = parser.next().unwrap().unwrap();
        assert_eq!(parsed.status, 200);
        assert_eq!(parsed.header("x-cache"), Some("hit"));
        assert_eq!(parsed.header("connection"), Some("keep-alive"));
        assert_eq!(parsed.text(), "<r/>");
        assert_eq!(parser.buffered(), 0);
    }

    #[test]
    fn request_round_trips_through_codec() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/corpus/docs", b"<p>x</p>", false).unwrap();
        let req = parse(&wire, 1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path(), "/corpus/docs");
        assert_eq!(req.body, b"<p>x</p>");
        assert!(!req.keep_alive());
    }

    #[test]
    fn two_pipelined_requests_parse_sequentially() {
        let raw: Vec<u8> = [
            b"POST /a HTTP/1.1\r\ncontent-length: 1\r\n\r\nA".as_slice(),
            b"GET /b HTTP/1.1\r\n\r\n".as_slice(),
        ]
        .concat();
        let mut parser = RequestParser::new(64);
        parser.push(&raw);
        let first = parser.next().unwrap().unwrap();
        let second = parser.next().unwrap().unwrap();
        assert_eq!((first.target.as_str(), first.body.as_slice()), ("/a", b"A".as_slice()));
        assert_eq!(second.target, "/b");
        assert_eq!(parser.next(), Ok(None));
        assert!(!parser.mid_request());
    }

    #[test]
    fn chunk_size_does_not_change_the_parse() {
        let raw: Vec<u8> = [
            b"POST /convert HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello".as_slice(),
            b"GET /healthz HTTP/1.1\nConnection: close\n\n".as_slice(),
            b"GET /metrics?verbose=1 HTTP/1.1\r\n\r\n".as_slice(),
        ]
        .concat();
        let whole = parse_chunked(&raw, 1024, raw.len()).unwrap();
        assert_eq!(whole.len(), 3);
        for chunk in [1, 2, 3, 7, 16] {
            let parsed = parse_chunked(&raw, 1024, chunk).unwrap();
            assert_eq!(parsed, whole, "divergence at chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_leaves_partial_request_pending() {
        let mut parser = RequestParser::new(64);
        parser.push(b"POST /a HTTP/1.1\r\ncontent-le");
        assert!(parser.next().unwrap().is_none());
        assert!(parser.mid_request());
        parser.push(b"ngth: 3\r\n\r\nab");
        // Head complete, body one byte short.
        assert!(parser.next().unwrap().is_none());
        parser.push(b"c");
        let request = parser.next().unwrap().unwrap();
        assert_eq!(request.body, b"abc");
        assert!(!parser.mid_request());
    }

    #[test]
    fn incremental_rejects_oversized_body_before_it_arrives() {
        let mut parser = RequestParser::new(10);
        // Head promises 100 bytes; not a single body byte is pushed.
        parser.push(b"POST / HTTP/1.1\r\nContent-Length: 100\r\n\r\n");
        assert_eq!(parser.next(), Err(HttpError::TooLarge { limit: 10 }));
        // Poisoned thereafter.
        assert!(parser.next().is_err());
    }

    #[test]
    fn incremental_rejects_unterminated_giant_head() {
        let mut parser = RequestParser::new(1024);
        parser.push(b"GET / HTTP/1.1\r\nx-filler: ");
        let filler = vec![b'a'; MAX_HEAD_BYTES + 64];
        parser.push(&filler);
        assert_eq!(
            parser.next(),
            Err(HttpError::TooLarge { limit: MAX_HEAD_BYTES })
        );
    }

    #[test]
    fn incremental_flags_leading_blank_line_as_malformed() {
        let mut parser = RequestParser::new(64);
        parser.push(b"\r\n");
        assert!(matches!(parser.next(), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn incremental_pipelined_burst_drains_in_order() {
        let mut raw = Vec::new();
        for i in 0..40 {
            let body = format!("doc-{i}");
            write_request(&mut raw, "POST", "/corpus/xml", body.as_bytes(), true).unwrap();
        }
        let parsed = parse_chunked(&raw, 1024, 13).unwrap();
        assert_eq!(parsed.len(), 40);
        for (i, request) in parsed.iter().enumerate() {
            assert_eq!(request.body, format!("doc-{i}").as_bytes());
        }
    }

    #[test]
    fn response_parser_round_trips_split_responses() {
        let mut wire = Vec::new();
        write_response(&mut wire, &Response::xml(200, "<r/>").with_header("x-cache", "hit"), true)
            .unwrap();
        write_response(&mut wire, &Response::text(429, "busy\n").with_header("retry-after", "1"), false)
            .unwrap();
        let mut parser = ResponseParser::new(1024);
        let mut out = Vec::new();
        for piece in wire.chunks(3) {
            parser.push(piece);
            while let Some(response) = parser.next().unwrap() {
                out.push(response);
            }
        }
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].status, 200);
        assert_eq!(out[0].header("x-cache"), Some("hit"));
        assert_eq!(out[0].text(), "<r/>");
        assert_eq!(out[1].status, 429);
        assert_eq!(out[1].header("retry-after"), Some("1"));
    }

    // ---- client -------------------------------------------------------

    /// Serves one connection: answers each request with its own target
    /// and body until the client closes or asks to.
    fn echo_once(listener: TcpListener) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new(1024);
            let mut buf = [0u8; 1024];
            loop {
                while let Some(req) = parser.next().unwrap() {
                    let body = format!("{} {}", req.target, String::from_utf8_lossy(&req.body));
                    write_response(&mut stream, &Response::text(200, body), req.keep_alive())
                        .unwrap();
                    if !req.keep_alive() {
                        return;
                    }
                }
                match stream.read(&mut buf).unwrap() {
                    0 => return,
                    n => parser.push(&buf[..n]),
                }
            }
        })
    }

    #[test]
    fn client_round_trips_keep_alive_and_pipelined_exchanges() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = echo_once(listener);
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let response = client.roundtrip("POST", "/a", b"1").unwrap();
        assert_eq!(response.text(), "/a 1");
        assert_eq!(response.header("connection"), Some("keep-alive"));
        let mut batch = Vec::new();
        for i in 0..3 {
            write_request(&mut batch, "POST", "/b", i.to_string().as_bytes(), true).unwrap();
        }
        client.send_raw(&batch).unwrap();
        client.send("GET", "/c", b"").unwrap();
        let texts: Vec<String> = (0..4).map(|_| client.recv().unwrap().text()).collect();
        assert_eq!(texts, ["/b 0", "/b 1", "/b 2", "/c "]);
        drop(client);
        server.join().unwrap();

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = echo_once(listener);
        let response = request(addr, "GET", "/once", b"").unwrap();
        assert_eq!(response.text(), "/once ");
        assert_eq!(response.header("connection"), Some("close"));
        server.join().unwrap();
    }

    #[test]
    fn client_times_out_on_a_silent_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts, then never answers; the connection stays open until
        // the client gives up.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut sink = Vec::new();
            let _ = stream.read_to_end(&mut sink);
        });
        let timeout = Duration::from_millis(200);
        let mut client = Client::connect(addr, timeout).unwrap();
        let started = Instant::now();
        let error = client.roundtrip("GET", "/healthz", b"").unwrap_err();
        let waited = started.elapsed();
        assert!(
            matches!(error.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
            "{error:?}"
        );
        assert!(waited >= timeout && waited < timeout * 10, "waited {waited:?}");
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn client_reads_an_early_answer_after_the_server_stops_reading() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Answers 413 from the head alone and closes with most of the
        // body unread, so the client's upload fails mid-write.
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut parser = RequestParser::new(1024);
            let mut buf = [0u8; 4096];
            loop {
                let n = stream.read(&mut buf).unwrap();
                parser.push(&buf[..n]);
                if let Err(error) = parser.next() {
                    assert_eq!(error, HttpError::TooLarge { limit: 1024 });
                    break;
                }
            }
            write_response(&mut stream, &Response::text(413, "too large\n"), false).unwrap();
            // Dropping the stream with the body unread resets the
            // connection under the client's upload.
        });
        let body = vec![b'x'; 8 << 20];
        let response = request(addr, "POST", "/convert", &body).unwrap();
        assert_eq!(response.status, 413);
        assert_eq!(response.text(), "too large\n");
        server.join().unwrap();
    }
}
