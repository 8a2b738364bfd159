//! A minimal HTTP/1.1 implementation over `std::io` — just enough protocol
//! for the JSON API: request-line + header parsing with hard size limits,
//! exact `Content-Length` body reads, `Expect: 100-continue` handling, and
//! persistent (keep-alive) connections.
//!
//! [`RequestBuffer`] owns the per-connection buffer: bytes read past the end
//! of one request (a pipelined second request) stay buffered and become the
//! prefix of the next parse instead of being discarded, which is what makes
//! multi-exchange connections safe. Because connections persist, the parser
//! is strict about framing: `Transfer-Encoding` is rejected outright (`501`)
//! and duplicate `Content-Length` headers are a `400` — both are classic
//! request-smuggling vectors once a connection carries more than one
//! request.
//!
//! The parser is a *push* parser: [`RequestBuffer::try_parse`] consumes a
//! complete request from whatever bytes have arrived so far and otherwise
//! reports how far it got ([`Parse::NeedHead`] / [`Parse::NeedBody`]) without
//! blocking, which is what the event-driven connection loop needs — under
//! `poll` every request arrives in arbitrary fragments.

use std::io::{self, Read, Write};

/// Parsing limits enforced before any allocation grows unboundedly.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Maximum bytes of request line + headers.
    pub max_head_bytes: usize,
    /// Maximum bytes of body (`Content-Length` above this is rejected).
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 16 * 1024,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method verb, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The request path without the query string.
    pub path: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client wants the connection kept open after this
    /// exchange: the HTTP/1.1 default unless `Connection: close`, opt-in
    /// via `Connection: keep-alive` on HTTP/1.0.
    pub keep_alive: bool,
}

impl Request {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The bytes on the wire are not a well-formed HTTP/1.1 request.
    Malformed(String),
    /// Head or declared body size exceeds the configured limits.
    TooLarge(String),
    /// The request uses a protocol feature this server does not implement
    /// (`Transfer-Encoding`), answered with `501`.
    Unsupported(String),
    /// The client stopped sending before the request was complete.
    Incomplete,
    /// The socket read timed out.
    Timeout,
}

impl HttpError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Malformed(_) => 400,
            HttpError::TooLarge(_) => 413,
            HttpError::Unsupported(_) => 501,
            HttpError::Incomplete => 400,
            HttpError::Timeout => 408,
        }
    }

    /// A short human-readable description for the error body.
    pub fn message(&self) -> String {
        match self {
            HttpError::Malformed(what) => format!("malformed request: {what}"),
            HttpError::TooLarge(what) => format!("request too large: {what}"),
            HttpError::Unsupported(what) => format!("not implemented: {what}"),
            HttpError::Incomplete => "connection closed mid-request".to_string(),
            HttpError::Timeout => "timed out waiting for the request".to_string(),
        }
    }
}

/// How far [`RequestBuffer::try_parse`] got with the bytes available.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parse {
    /// A complete request was parsed and its bytes consumed from the
    /// buffer; pipelined bytes after it stay buffered.
    Complete(Request),
    /// The blank line ending the head has not arrived yet.
    NeedHead,
    /// The head is complete and valid but the `Content-Length` body is
    /// still short.
    NeedBody,
}

/// The incremental per-connection parse buffer.
///
/// One `RequestBuffer` lives as long as its connection. Bytes are appended
/// (via [`RequestBuffer::read_from`]) as the transport delivers them;
/// [`RequestBuffer::try_parse`] consumes exactly one request's bytes when a
/// full request is present, and anything beyond it (a pipelined next
/// request) stays buffered and is parsed first on the following call, so
/// back-to-back requests are served without losing a byte. Nothing ever
/// blocks: a short buffer is reported as [`Parse::NeedHead`] or
/// [`Parse::NeedBody`], which is what lets the event-driven connection
/// state machine ride directly on this type.
#[derive(Debug, Default)]
pub struct RequestBuffer {
    buf: Vec<u8>,
    /// How far the head-terminator search has already looked, so each new
    /// fragment only scans the fresh tail (minus a 3-byte overlap for a
    /// terminator split across reads) — O(n) total on slow-trickle heads
    /// instead of O(n²).
    scanned: usize,
    /// Whether `on_continue` already fired for the request currently being
    /// accumulated (the interim `100 Continue` must be sent at most once).
    continue_signalled: bool,
    /// A head that parsed cleanly while its body was still short, so a
    /// trickling body costs the head parse exactly once instead of once
    /// per arriving fragment.
    pending: Option<PendingBody>,
}

/// A fully parsed head awaiting the rest of its `Content-Length` body.
#[derive(Debug)]
struct PendingBody {
    head: Request,
    /// Offset of the first body byte in `buf`.
    body_start: usize,
    /// Offset one past the last body byte in `buf`.
    body_end: usize,
}

impl RequestBuffer {
    /// An empty buffer for a fresh connection.
    pub fn new() -> Self {
        RequestBuffer {
            buf: Vec::with_capacity(1024),
            scanned: 0,
            continue_signalled: false,
            pending: None,
        }
    }

    /// Whether bytes of a (possibly partial) next request are buffered.
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Appends one transport read to the buffer. Returns the byte count
    /// (`0` means end-of-stream); `WouldBlock` from a nonblocking source
    /// passes through untouched.
    pub fn read_from<R: Read>(&mut self, reader: &mut R) -> io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        let n = reader.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Attempts to parse one request from the buffered bytes.
    ///
    /// `on_continue` is called at most once per request, when the head has
    /// parsed cleanly and announces `Expect: 100-continue` with a non-empty
    /// body, so the caller can emit the interim `100 Continue` response
    /// before the client commits the body (curl does this for any body
    /// above ~1 KiB).
    ///
    /// After an error the buffer state is unspecified — request framing is
    /// lost, so the caller must close the connection.
    pub fn try_parse(
        &mut self,
        limits: &Limits,
        mut on_continue: impl FnMut(),
    ) -> Result<Parse, HttpError> {
        // A head already parsed on an earlier call: only the body-length
        // check remains.
        if let Some(pending) = self.pending.take() {
            if self.buf.len() < pending.body_end {
                self.pending = Some(pending);
                return Ok(Parse::NeedBody);
            }
            return Ok(self.complete(pending));
        }
        let head_end = match find_head_end(&self.buf, &mut self.scanned) {
            Some(pos) => {
                if pos + 4 > limits.max_head_bytes {
                    return Err(HttpError::TooLarge(format!(
                        "head exceeds {} bytes",
                        limits.max_head_bytes
                    )));
                }
                pos
            }
            None => {
                if self.buf.len() >= limits.max_head_bytes {
                    return Err(HttpError::TooLarge(format!(
                        "head exceeds {} bytes",
                        limits.max_head_bytes
                    )));
                }
                return Ok(Parse::NeedHead);
            }
        };

        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| HttpError::Malformed("head is not UTF-8".to_string()))?;
        let mut lines = head.split("\r\n");
        let request_line = lines
            .next()
            .ok_or_else(|| HttpError::Malformed("empty request line".to_string()))?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .filter(|m| !m.is_empty())
            .ok_or_else(|| HttpError::Malformed("missing method".to_string()))?;
        let target = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing request target".to_string()))?;
        let version = parts
            .next()
            .ok_or_else(|| HttpError::Malformed("missing HTTP version".to_string()))?;
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!(
                "unsupported protocol {version:?}"
            )));
        }

        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!("header line {line:?}")));
            };
            // RFC 7230: no whitespace is allowed between the header name
            // and the colon, and a leading space would be an (obsolete,
            // dangerous) folded continuation. Trimming either into a valid
            // name is how "Content-Length : 5" smuggling variants slip
            // past one parser and not the next — reject instead.
            if name.is_empty() || name.contains(|c: char| c.is_ascii_whitespace()) {
                return Err(HttpError::Malformed(format!(
                    "whitespace in header name {name:?}"
                )));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }

        // With persistent connections, mis-framing a body desyncs every
        // request after it (request smuggling), so framing headers are
        // policed strictly: no Transfer-Encoding of any kind, and at most
        // one Content-Length header.
        if let Some(encoding) = headers
            .iter()
            .find(|(k, _)| k == "transfer-encoding")
            .map(|(_, v)| v.clone())
        {
            return Err(HttpError::Unsupported(format!(
                "transfer-encoding {encoding:?} is not supported; send a content-length body"
            )));
        }
        let mut content_lengths = headers.iter().filter(|(k, _)| k == "content-length");
        let content_length = match (content_lengths.next(), content_lengths.next()) {
            (None, _) => 0usize,
            (Some(_), Some(_)) => {
                return Err(HttpError::Malformed(
                    "multiple content-length headers".to_string(),
                ));
            }
            // Digits only: `usize::from_str` would also accept "+5", which
            // a peer proxy may frame differently (desync vector).
            (Some((_, raw)), None) => raw
                .parse::<usize>()
                .ok()
                .filter(|_| !raw.is_empty() && raw.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::Malformed(format!("content-length {raw:?}")))?,
        };
        if content_length > limits.max_body_bytes {
            return Err(HttpError::TooLarge(format!(
                "body of {content_length} bytes exceeds {} bytes",
                limits.max_body_bytes
            )));
        }

        let request_head = Request {
            method: method.to_string(),
            path: target.split('?').next().unwrap_or(target).to_string(),
            keep_alive: wants_keep_alive(version, &headers),
            headers,
            body: Vec::new(),
        };

        if !self.continue_signalled
            && request_head
                .header("expect")
                .is_some_and(|v| v.eq_ignore_ascii_case("100-continue"))
            && content_length > 0
        {
            self.continue_signalled = true;
            on_continue();
        }

        // Split off exactly this request's bytes once the whole body is
        // here; anything beyond stays buffered for the next call.
        let pending = PendingBody {
            head: request_head,
            body_start: head_end + 4,
            body_end: head_end + 4 + content_length,
        };
        if self.buf.len() < pending.body_end {
            self.pending = Some(pending);
            return Ok(Parse::NeedBody);
        }
        Ok(self.complete(pending))
    }

    /// Consumes a request whose body is fully buffered and resets the
    /// per-request parse state.
    fn complete(&mut self, pending: PendingBody) -> Parse {
        let body = self.buf[pending.body_start..pending.body_end].to_vec();
        self.buf.drain(..pending.body_end);
        // Connections are long-lived: without this, one near-limit body
        // would pin its buffer capacity for the connection's lifetime.
        if self.buf.capacity() > 64 * 1024 {
            self.buf.shrink_to(64 * 1024);
        }
        self.scanned = 0;
        self.continue_signalled = false;
        Parse::Complete(Request {
            body,
            ..pending.head
        })
    }
}

/// Whether the request asks for the connection to persist: HTTP/1.1
/// defaults to keep-alive unless `Connection: close`; HTTP/1.0 requires an
/// explicit `Connection: keep-alive`.
fn wants_keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let mut saw_keep_alive = false;
    let tokens = headers
        .iter()
        .filter(|(k, _)| k == "connection")
        .flat_map(|(_, v)| v.split(','))
        .map(str::trim);
    for token in tokens {
        // `close` anywhere in the list wins over `keep-alive`.
        if token.eq_ignore_ascii_case("close") {
            return false;
        }
        saw_keep_alive |= token.eq_ignore_ascii_case("keep-alive");
    }
    saw_keep_alive || version != "HTTP/1.0"
}

/// Finds `\r\n\r\n` in `buf`, only scanning bytes past `*scanned` (minus a
/// 3-byte overlap for terminators split across reads). Advances `*scanned`
/// when nothing is found so the next call skips what this one covered: a
/// trickled head costs O(n), not O(n²). The client's reader uses it too.
pub(crate) fn find_head_end(buf: &[u8], scanned: &mut usize) -> Option<usize> {
    let from = scanned.saturating_sub(3);
    match buf[from..].windows(4).position(|w| w == b"\r\n\r\n") {
        Some(pos) => Some(from + pos),
        None => {
            *scanned = buf.len();
            None
        }
    }
}

/// An HTTP response ready to be written to the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Connection`. A
    /// `content-type` entry here replaces the default
    /// `application/json` in the serialised head.
    pub headers: Vec<(String, String)>,
    /// The response body (JSON unless a `content-type` header says
    /// otherwise).
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Serialises the full wire form (status line, headers, body) into one
    /// byte vector. `keep_alive` selects the `Connection` header:
    /// `keep-alive` promises the server will serve another request on this
    /// connection, `close` that it will hang up after this exchange.
    ///
    /// Producing one buffer (instead of writing piecewise) serves two
    /// masters: blocking callers emit it in a single `write` call — two
    /// small writes on a persistent socket are two TCP segments, and Nagle
    /// holding the second until the peer's delayed ACK costs ~40ms per
    /// exchange — and the event loop can write it incrementally across
    /// `POLLOUT` readiness without re-serialising after a partial write.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut wire = self.head_bytes(keep_alive);
        wire.extend_from_slice(&self.body);
        wire
    }

    /// Serialises the head alone — status line through the blank line —
    /// with `Content-Length` still describing the (unserialised) body.
    /// `content-type: application/json` is the default; a response whose
    /// extra headers spell out their own content type (e.g. a binary
    /// snapshot export) suppresses it, so the wire never carries two.
    fn head_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let has_content_type = self
            .headers
            .iter()
            .any(|(name, _)| name.eq_ignore_ascii_case("content-type"));
        let content_type = if has_content_type {
            ""
        } else {
            "content-type: application/json\r\n"
        };
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\n{content_type}content-length: {}\r\nconnection: {connection}\r\n",
            self.status,
            reason(self.status),
            self.body.len()
        )
        .into_bytes();
        for (name, value) in &self.headers {
            wire.extend_from_slice(name.as_bytes());
            wire.extend_from_slice(b": ");
            wire.extend_from_slice(value.as_bytes());
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire
    }

    /// Writes the response to a blocking transport in one call.
    pub fn write_to<W: Write>(&self, writer: &mut W, keep_alive: bool) -> io::Result<()> {
        writer.write_all(&self.to_bytes(keep_alive))?;
        writer.flush()
    }
}

/// Streams a [`Response`] onto a nonblocking socket in bounded chunks.
///
/// The event loop's write path used to serialise the whole response into
/// one contiguous buffer ([`Response::to_bytes`]) before the first byte
/// hit the wire — a large body (batch results, corpus listings, future
/// exports) therefore existed twice: once as the body `Vec` and once
/// inside the wire buffer, held for the connection's entire `Writing`
/// phase. An emitter keeps the body exactly where the encoder left it and
/// offers the wire form as a cursor over `head ++ body`: each
/// [`ResponseEmitter::next_chunk`] is at most the configured chunk size,
/// and [`ResponseEmitter::advance`] moves the cursor by however much the
/// socket accepted, so a partial write resumes mid-chunk on the next
/// writability event without re-serialising anything.
///
/// Responses small enough that head + body fit inside one chunk are
/// coalesced into a single buffer at construction (still O(chunk) memory):
/// the common cache-hit exchange stays one `write(2)` — one TCP segment —
/// exactly as the whole-buffer path produced.
#[derive(Debug)]
pub struct ResponseEmitter {
    /// The serialised head; for coalesced small responses, head + body.
    head: Vec<u8>,
    /// The body, untouched from the encoder (empty when coalesced).
    body: Vec<u8>,
    /// Absolute cursor over `head ++ body`.
    pos: usize,
    /// Upper bound on the slice [`ResponseEmitter::next_chunk`] offers.
    chunk: usize,
}

impl ResponseEmitter {
    /// The default emission granularity: large enough that syscall count
    /// stays low, small enough that a connection's write state is bounded.
    pub const DEFAULT_CHUNK: usize = 16 * 1024;

    /// An emitter over `response`'s wire form (consuming it — the body is
    /// moved, never copied) with the default chunk size.
    pub fn new(response: Response, keep_alive: bool) -> ResponseEmitter {
        ResponseEmitter::with_chunk_size(response, keep_alive, ResponseEmitter::DEFAULT_CHUNK)
    }

    /// As [`ResponseEmitter::new`] with an explicit chunk size (tests use
    /// tiny chunks to exercise resumption).
    pub fn with_chunk_size(response: Response, keep_alive: bool, chunk: usize) -> ResponseEmitter {
        let chunk = chunk.max(1);
        let mut head = response.head_bytes(keep_alive);
        let mut body = response.body;
        if head.len() + body.len() <= chunk {
            head.append(&mut body);
        }
        ResponseEmitter {
            head,
            body,
            pos: 0,
            chunk,
        }
    }

    /// Total wire length (head + body).
    pub fn total_len(&self) -> usize {
        self.head.len() + self.body.len()
    }

    /// Bytes not yet accepted by the socket.
    pub fn remaining(&self) -> usize {
        self.total_len() - self.pos
    }

    /// Whether every byte has been emitted.
    pub fn is_done(&self) -> bool {
        self.pos >= self.total_len()
    }

    /// The next bounded slice to offer the socket: at most the chunk size,
    /// never spanning the head/body seam (each part is already contiguous).
    /// `None` once the response is fully emitted.
    pub fn next_chunk(&self) -> Option<&[u8]> {
        if self.pos < self.head.len() {
            let end = self.head.len().min(self.pos + self.chunk);
            return Some(&self.head[self.pos..end]);
        }
        let body_pos = self.pos - self.head.len();
        if body_pos < self.body.len() {
            let end = self.body.len().min(body_pos + self.chunk);
            return Some(&self.body[body_pos..end]);
        }
        None
    }

    /// Records that the socket accepted `n` bytes of the offered chunk.
    pub fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n).min(self.total_len());
    }
}

/// The interim response unblocking an `Expect: 100-continue` client.
pub const CONTINUE: &[u8] = b"HTTP/1.1 100 Continue\r\n\r\n";

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        401 => "Unauthorized",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The unit tests' blocking pull harness over [`RequestBuffer`]: each
    /// [`read_request`](Self::read_request) feeds the buffer from `reader`
    /// until one whole request parses, keeping any pipelined bytes.
    pub(super) struct RequestReader<R> {
        reader: R,
        buf: RequestBuffer,
    }

    impl<R: Read> RequestReader<R> {
        pub(super) fn new(reader: R) -> Self {
            RequestReader {
                reader,
                buf: RequestBuffer::new(),
            }
        }

        fn has_buffered(&self) -> bool {
            self.buf.has_buffered()
        }

        /// The next request, or the parse error; end of input before a
        /// whole request is [`HttpError::Incomplete`].
        pub(super) fn read_request(
            &mut self,
            limits: &Limits,
            mut on_continue: impl FnMut(),
        ) -> Result<Request, HttpError> {
            loop {
                if let Parse::Complete(request) = self.buf.try_parse(limits, &mut on_continue)? {
                    return Ok(request);
                }
                let n = self
                    .buf
                    .read_from(&mut self.reader)
                    .expect("test readers do not fail");
                if n == 0 {
                    return Err(HttpError::Incomplete);
                }
            }
        }
    }

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        RequestReader::new(bytes).read_request(&Limits::default(), || {})
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/generate?x=1 HTTP/1.1\r\nHost: localhost\r\nContent-Length: 11\r\n\r\nhello world";
        let request = parse(raw).unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/generate");
        assert_eq!(request.header("host"), Some("localhost"));
        assert_eq!(request.body, b"hello world");
    }

    #[test]
    fn parses_a_get_without_body() {
        let request = parse(b"GET /v1/healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/healthz");
        assert!(request.body.is_empty());
    }

    #[test]
    fn header_names_are_case_insensitive() {
        let request =
            parse(b"POST / HTTP/1.1\r\ncOnTeNt-LeNgTh: 2\r\nX-Custom:  padded \r\n\r\nok").unwrap();
        assert_eq!(request.header("content-length"), Some("2"));
        assert_eq!(request.header("x-custom"), Some("padded"));
        assert_eq!(request.body, b"ok");
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse(b"NOT_HTTP\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET / SMTP/9\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_transfer_encoding_as_unimplemented() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert!(matches!(err, HttpError::Unsupported(_)), "{err:?}");
        assert_eq!(err.status(), 501);
        assert!(err.message().contains("chunked"));
        // Any transfer-encoding is refused, not just chunked.
        let gzip = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n").unwrap_err();
        assert_eq!(gzip.status(), 501);
    }

    #[test]
    fn rejects_duplicate_content_length() {
        // Conflicting lengths are the classic desync payload...
        let conflicting = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\nok";
        let err = parse(conflicting).unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)), "{err:?}");
        assert_eq!(err.status(), 400);
        // ...but even agreeing duplicates are refused: a sender that emits
        // two is already outside the spec.
        let agreeing = b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok";
        assert_eq!(parse(agreeing).unwrap_err().status(), 400);
    }

    #[test]
    fn rejects_nonconformant_framing_spellings() {
        // Whitespace before the colon must not be trimmed into a valid
        // framing header ("Content-Length : 5" smuggling variant)...
        let spaced = b"POST / HTTP/1.1\r\nContent-Length : 2\r\n\r\nok";
        assert_eq!(parse(spaced).unwrap_err().status(), 400);
        // ...nor may a folded continuation line start a new header...
        let folded = b"POST / HTTP/1.1\r\nX-A: 1\r\n Content-Length: 2\r\n\r\nok";
        assert_eq!(parse(folded).unwrap_err().status(), 400);
        // ...and the length value is digits only (no "+5", no empty).
        for raw in [
            &b"POST / HTTP/1.1\r\nContent-Length: +2\r\n\r\nok"[..],
            &b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n"[..],
        ] {
            assert_eq!(parse(raw).unwrap_err().status(), 400, "{raw:?}");
        }
    }

    #[test]
    fn keep_alive_follows_version_and_connection_header() {
        assert!(parse(b"GET / HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        assert!(!parse(b"GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")
                .unwrap()
                .keep_alive,
            "connection tokens are case-insensitive"
        );
        assert!(
            !parse(b"GET / HTTP/1.1\r\nConnection: keep-alive, close\r\n\r\n")
                .unwrap()
                .keep_alive,
            "close anywhere in the token list wins"
        );
    }

    #[test]
    fn rejects_oversized_head_and_body() {
        let limits = Limits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(128));
        assert!(matches!(
            RequestReader::new(long_head.as_bytes()).read_request(&limits, || {}),
            Err(HttpError::TooLarge(_))
        ));
        let big_body = b"POST / HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        assert!(matches!(
            RequestReader::new(&big_body[..]).read_request(&limits, || {}),
            Err(HttpError::TooLarge(_))
        ));
    }

    #[test]
    fn pipelined_bytes_become_the_next_request() {
        let raw = b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nokGET /second HTTP/1.1\r\n\r\n";
        let mut reader = RequestReader::new(&raw[..]);
        let first = reader.read_request(&Limits::default(), || {}).unwrap();
        assert_eq!(first.body, b"ok");
        assert!(reader.has_buffered(), "pipelined tail must be retained");
        let second = reader.read_request(&Limits::default(), || {}).unwrap();
        assert_eq!(second.method, "GET");
        assert_eq!(second.path, "/second");
        assert!(!reader.has_buffered());
    }

    #[test]
    fn three_pipelined_requests_parse_back_to_back() {
        let raw: Vec<u8> = [
            &b"POST /a HTTP/1.1\r\nContent-Length: 3\r\n\r\none"[..],
            &b"GET /b HTTP/1.1\r\n\r\n"[..],
            &b"POST /c HTTP/1.1\r\nContent-Length: 5\r\n\r\nthree"[..],
        ]
        .concat();
        let mut reader = RequestReader::new(&raw[..]);
        let limits = Limits::default();
        let bodies: Vec<Vec<u8>> = (0..3)
            .map(|_| reader.read_request(&limits, || {}).unwrap().body)
            .collect();
        assert_eq!(bodies, vec![b"one".to_vec(), Vec::new(), b"three".to_vec()]);
        assert!(matches!(
            reader.read_request(&limits, || {}),
            Err(HttpError::Incomplete)
        ));
    }

    /// A reader that yields one byte per `read`, the worst case for the
    /// incremental head-terminator scan.
    struct Trickle<'a>(&'a [u8]);
    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.split_first() {
                None => Ok(0),
                Some((&byte, rest)) => {
                    out[0] = byte;
                    self.0 = rest;
                    Ok(1)
                }
            }
        }
    }

    #[test]
    fn trickled_requests_parse_byte_by_byte() {
        let raw = b"POST /slow HTTP/1.1\r\nContent-Length: 5\r\nX-Pad: abcdef\r\n\r\nhello";
        let request = RequestReader::new(Trickle(raw))
            .read_request(&Limits::default(), || {})
            .unwrap();
        assert_eq!(request.path, "/slow");
        assert_eq!(request.body, b"hello");
    }

    #[test]
    fn push_parser_reports_phase_and_completes_across_fragments() {
        let raw = b"POST /frag HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        let mut buf = RequestBuffer::new();
        let limits = Limits::default();
        // Feed byte by byte: the parser must report NeedHead until the blank
        // line, NeedBody until the final body byte, and consume exactly one
        // request when it completes.
        let head_len = raw.len() - 4;
        for (i, &byte) in raw.iter().enumerate() {
            buf.read_from(&mut &[byte][..]).unwrap();
            let parsed = buf.try_parse(&limits, || {}).unwrap();
            if i + 1 < head_len {
                assert_eq!(parsed, Parse::NeedHead, "byte {i}");
            } else if i + 1 < raw.len() {
                assert_eq!(parsed, Parse::NeedBody, "byte {i}");
            } else {
                let Parse::Complete(request) = parsed else {
                    panic!("expected completion at byte {i}, got {parsed:?}");
                };
                assert_eq!(request.path, "/frag");
                assert_eq!(request.body, b"body");
            }
        }
        assert!(!buf.has_buffered());
    }

    #[test]
    fn push_parser_signals_continue_exactly_once() {
        let head = b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n";
        let mut buf = RequestBuffer::new();
        let limits = Limits::default();
        let mut continues = 0;
        buf.read_from(&mut &head[..]).unwrap();
        // Body missing: head parse fires the callback...
        assert_eq!(
            buf.try_parse(&limits, || continues += 1).unwrap(),
            Parse::NeedBody
        );
        // ...and repeated polls of the still-short body must not re-fire it.
        assert_eq!(
            buf.try_parse(&limits, || continues += 1).unwrap(),
            Parse::NeedBody
        );
        buf.read_from(&mut &b"ok"[..]).unwrap();
        let parsed = buf.try_parse(&limits, || continues += 1).unwrap();
        assert!(matches!(parsed, Parse::Complete(ref r) if r.body == b"ok"));
        assert_eq!(continues, 1);
    }

    #[test]
    fn truncated_body_is_incomplete() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort";
        assert_eq!(parse(raw), Err(HttpError::Incomplete));
    }

    #[test]
    fn expect_continue_triggers_the_callback() {
        let raw = b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut continued = false;
        let request = RequestReader::new(&raw[..])
            .read_request(&Limits::default(), || continued = true)
            .unwrap();
        assert!(continued);
        assert_eq!(request.body, b"ok");
    }

    #[test]
    fn responses_carry_length_and_connection_mode() {
        let mut wire = Vec::new();
        Response::json(503, r#"{"error":"full"}"#)
            .with_header("retry-after", "1")
            .write_to(&mut wire, false)
            .unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("content-length: 16\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.contains("retry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"full\"}"));

        let mut wire = Vec::new();
        Response::json(200, "{}").write_to(&mut wire, true).unwrap();
        let text = String::from_utf8(wire).unwrap();
        assert!(text.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn explicit_content_type_replaces_the_json_default() {
        let mut wire = Vec::new();
        Response::json(200, vec![0u8, 1, 2])
            .with_header("content-type", "application/octet-stream")
            .write_to(&mut wire, true)
            .unwrap();
        let text = String::from_utf8_lossy(&wire);
        assert!(text.contains("content-type: application/octet-stream\r\n"));
        assert!(
            !text.contains("application/json"),
            "default content-type must be suppressed: {text}"
        );
        assert_eq!(text.matches("content-type").count(), 1);
    }

    #[test]
    fn emitter_chunks_reassemble_to_the_whole_buffer_form() {
        // A body far larger than the chunk size, with an extra header.
        let body = "x".repeat(10_000);
        let response = Response::json(200, body.clone()).with_header("retry-after", "1");
        let expected = response.to_bytes(true);
        let mut emitter = ResponseEmitter::with_chunk_size(response, true, 512);
        assert_eq!(emitter.total_len(), expected.len());
        let mut reassembled = Vec::new();
        while let Some(chunk) = emitter.next_chunk() {
            assert!(!chunk.is_empty());
            assert!(
                chunk.len() <= 512,
                "chunk of {} exceeds the bound",
                chunk.len()
            );
            // Accept a partial write of the offered chunk: resumption must
            // pick up mid-chunk.
            let take = chunk.len().min(100);
            reassembled.extend_from_slice(&chunk[..take]);
            emitter.advance(take);
        }
        assert!(emitter.is_done());
        assert_eq!(emitter.remaining(), 0);
        assert_eq!(reassembled, expected);
    }

    #[test]
    fn emitter_coalesces_small_responses_into_one_chunk() {
        let response = Response::json(200, "{}");
        let expected = response.to_bytes(false);
        let emitter = ResponseEmitter::new(response, false);
        // The whole wire form fits one chunk: a single write, one segment.
        let first = emitter.next_chunk().unwrap();
        assert_eq!(first, &expected[..]);
    }

    #[test]
    fn emitter_respects_the_connection_mode() {
        let keep = ResponseEmitter::new(Response::json(200, "{}"), true);
        let close = ResponseEmitter::new(Response::json(200, "{}"), false);
        let keep_text = String::from_utf8(keep.next_chunk().unwrap().to_vec()).unwrap();
        let close_text = String::from_utf8(close.next_chunk().unwrap().to_vec()).unwrap();
        assert!(keep_text.contains("connection: keep-alive\r\n"));
        assert!(close_text.contains("connection: close\r\n"));
    }

    #[test]
    fn emitter_never_holds_head_and_large_body_contiguously() {
        // The anti-goal of the old write path: a big body duplicated into
        // one giant wire buffer. With a bounded chunk the head buffer must
        // stay head-sized.
        let body = "y".repeat(1 << 20);
        let response = Response::json(200, body);
        let emitter = ResponseEmitter::new(response, true);
        let first = emitter.next_chunk().unwrap();
        assert!(
            first.len() < 1024,
            "first chunk should be the bare head, got {}",
            first.len()
        );
        assert!(emitter.total_len() > 1 << 20);
    }

    #[test]
    fn status_reasons_cover_the_emitted_codes() {
        for status in [
            200, 400, 401, 403, 404, 405, 408, 409, 413, 429, 500, 501, 503,
        ] {
            assert_ne!(reason(status), "Unknown", "status {status}");
        }
    }
}

#[cfg(all(test, feature = "proptests"))]
mod proptests {
    use super::tests::RequestReader;
    use super::*;
    use proptest::prelude::*;

    /// A reader delivering `data` in caller-chosen fragment sizes, cycling
    /// through `sizes` — the adversarial transport: every split point the
    /// strategy can express, including mid-`\r\n\r\n` and mid-body.
    struct Fragmented<'a> {
        data: &'a [u8],
        sizes: &'a [usize],
        next: usize,
    }

    impl Read for Fragmented<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            if self.data.is_empty() {
                return Ok(0);
            }
            let size = if self.sizes.is_empty() {
                out.len()
            } else {
                let size = self.sizes[self.next % self.sizes.len()].max(1);
                self.next += 1;
                size
            };
            let n = size.min(out.len()).min(self.data.len());
            out[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    const METHODS: [&str; 3] = ["GET", "POST", "PUT"];

    /// One valid request on the wire: arbitrary method/path/padding header
    /// and an arbitrary *byte* body (it may contain `\r\n\r\n`, partial
    /// request lines, anything — framing is by `Content-Length` alone).
    fn wire_request(method: &str, path: &str, pad: &str, body: &[u8]) -> Vec<u8> {
        let mut wire = format!(
            "{method} /{path} HTTP/1.1\r\nhost: prop\r\nx-pad: {pad}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        wire
    }

    /// Parses requests until the stream errors out; returns the sequence
    /// and the terminal error.
    fn parse_all(reader: impl Read) -> (Vec<Request>, HttpError) {
        let mut reader = RequestReader::new(reader);
        let mut requests = Vec::new();
        loop {
            match reader.read_request(&Limits::default(), || {}) {
                Ok(request) => requests.push(request),
                Err(e) => return (requests, e),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Byte-level fragmentation is invisible: however a valid pipelined
        /// request stream is split across transport reads, the parsed
        /// `Request` sequence is identical to one-shot delivery, and both
        /// deliveries end cleanly at end-of-stream.
        #[test]
        fn any_fragmentation_parses_identically_to_one_shot(
            specs in prop::collection::vec(
                (
                    0usize..3,
                    "[a-z]{1,12}",
                    "[a-z ]{0,16}",
                    prop::collection::vec(0u8..=255u8, 0..96),
                ),
                1..5,
            ),
            sizes in prop::collection::vec(1usize..40, 0..24),
        ) {
            let wire: Vec<u8> = specs
                .iter()
                .flat_map(|(m, path, pad, body)| wire_request(METHODS[*m], path, pad, body))
                .collect();

            let (oneshot, oneshot_end) = parse_all(&wire[..]);
            prop_assert_eq!(oneshot.len(), specs.len(), "one-shot must parse every request");
            prop_assert_eq!(oneshot_end, HttpError::Incomplete);
            for (request, (m, path, _, body)) in oneshot.iter().zip(&specs) {
                prop_assert_eq!(&request.method, METHODS[*m]);
                prop_assert_eq!(&request.path, &format!("/{path}"));
                prop_assert_eq!(&request.body, body);
            }

            let (fragmented, fragmented_end) = parse_all(Fragmented {
                data: &wire,
                sizes: &sizes,
                next: 0,
            });
            prop_assert_eq!(&fragmented, &oneshot, "fragmentation changed the parse");
            prop_assert_eq!(fragmented_end, HttpError::Incomplete);
        }

        /// The smuggling rejections are split-proof: a request bearing any
        /// `Transfer-Encoding` is a `501` and a duplicate/conflicting
        /// `Content-Length` is a `400`, no matter how the bytes fragment —
        /// no split may let the request parse as valid.
        #[test]
        fn smuggling_rejections_hold_under_any_split(
            which in 0usize..4,
            path in "[a-z]{1,10}",
            body in prop::collection::vec(0u8..=255u8, 0..64),
            sizes in prop::collection::vec(1usize..24, 0..16),
        ) {
            let (poison, expected_status) = match which {
                0 => ("transfer-encoding: chunked\r\n".to_string(), 501),
                1 => ("transfer-encoding: gzip\r\n".to_string(), 501),
                // Conflicting and even agreeing duplicates are refused.
                2 => ("content-length: 9999\r\n".to_string(), 400),
                _ => (format!("content-length: {}\r\n", body.len()), 400),
            };
            let mut wire = format!(
                "POST /{path} HTTP/1.1\r\nhost: prop\r\n{poison}content-length: {}\r\n\r\n",
                body.len()
            )
            .into_bytes();
            wire.extend_from_slice(&body);

            let mut reader = RequestReader::new(Fragmented {
                data: &wire,
                sizes: &sizes,
                next: 0,
            });
            match reader.read_request(&Limits::default(), || {}) {
                Ok(request) => prop_assert!(
                    false,
                    "smuggling-shaped request parsed as valid: {request:?}"
                ),
                Err(e) => prop_assert_eq!(
                    e.status(),
                    expected_status,
                    "wrong rejection for poison header {:?}: {:?}",
                    poison,
                    e
                ),
            }
        }
    }
}
