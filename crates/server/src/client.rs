//! A tiny blocking HTTP client for loopback use: the integration tests,
//! the throughput bench, and smoke checks all drive the server through
//! this code path.
//!
//! Two modes mirror the server's two connection policies: the free
//! functions ([`request`], [`post_json`], [`get`]) are one-shot — they send
//! `Connection: close` and read to end-of-stream — while [`Conn`] holds a
//! persistent keep-alive connection and frames responses by
//! `Content-Length`, so many exchanges ride one TCP connection.

use crate::http::find_head_end;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The status code.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body as text.
    pub body: String,
}

impl ClientResponse {
    /// The first header with this (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server announced it will close the connection after
    /// this exchange.
    pub fn closes_connection(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Issues one request on a fresh connection (`Connection: close`) and reads
/// the response until the server hangs up.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> std::io::Result<ClientResponse> {
    request_with(addr, method, path, body, &[])
}

/// Like [`request`] with extra headers (e.g. an `authorization` bearer
/// key).
pub fn request_with(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    headers: &[(&str, &str)],
) -> std::io::Result<ClientResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    let _ = stream.set_nodelay(true);
    write_request(&mut stream, addr, method, path, body, false, headers)?;
    let mut buf = Vec::new();
    read_response(&mut stream, &mut buf)
}

/// Shorthand for `POST` with a JSON body.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    request(addr, "POST", path, Some(body))
}

/// Shorthand for a body-less `GET`.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    request(addr, "GET", path, None)
}

/// The header pair carrying a bearer key, for the `headers` parameter of
/// the `*_with` request functions.
pub fn bearer(key: &str) -> (String, String) {
    ("authorization".to_string(), format!("Bearer {key}"))
}

fn write_request<W: Write>(
    writer: &mut W,
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
    keep_alive: bool,
    headers: &[(&str, &str)],
) -> std::io::Result<()> {
    let body = body.unwrap_or("");
    let connection = if keep_alive { "keep-alive" } else { "close" };
    // One write for head + body: a second small segment on a keep-alive
    // socket can sit in Nagle's buffer until the server's delayed ACK.
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\nconnection: {connection}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body.as_bytes());
    writer.write_all(&wire)?;
    writer.flush()
}

/// A persistent keep-alive connection serving many sequential exchanges.
///
/// Responses are framed by `Content-Length`, so the connection stays usable
/// after each one; bytes past the current response (from a pipelined read)
/// stay buffered for the next.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Opens a persistent connection to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        // Request + response per exchange are each one small write; Nagle
        // would serialise them against the peer's delayed ACK (~40ms).
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::new(),
        })
    }

    /// The address this connection is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Issues one request on the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        self.request_with(method, path, body, &[])
    }

    /// Like [`Conn::request`] with extra headers.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientResponse> {
        write_request(
            &mut self.stream,
            self.addr,
            method,
            path,
            body,
            true,
            headers,
        )?;
        read_response(&mut self.stream, &mut self.buf)
    }

    /// Shorthand for `POST` with a JSON body.
    pub fn post_json(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Shorthand for a body-less `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }
}

fn invalid(reason: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason.to_string())
}

/// Reads exactly one HTTP response off `reader`, carrying excess bytes in
/// `buf` across calls (the persistent-connection case). Interim
/// `100 Continue` responses are skipped. Bodies are framed by
/// `Content-Length` when present, end-of-stream otherwise.
pub fn read_response<R: Read>(
    reader: &mut R,
    buf: &mut Vec<u8>,
) -> std::io::Result<ClientResponse> {
    loop {
        // Accumulate the head.
        let mut scanned = 0usize;
        let head_end = loop {
            if let Some(pos) = find_head_end(buf, &mut scanned) {
                break pos;
            }
            let mut chunk = [0u8; 4096];
            let n = reader.read(&mut chunk)?;
            if n == 0 {
                // Zero response bytes = the peer closed before seeing the
                // request (a stale keep-alive connection); a partial head means
                // it died mid-response, which is a different failure.
                return Err(if buf.is_empty() {
                    std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "connection closed before response head",
                    )
                } else {
                    invalid("connection closed mid-head")
                });
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = std::str::from_utf8(&buf[..head_end])
            .map_err(|_| invalid("response head is not UTF-8"))?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or_else(|| invalid("empty response"))?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let headers: Vec<(String, String)> = lines
            .filter_map(|line| {
                line.split_once(':')
                    .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
            })
            .collect();
        buf.drain(..head_end + 4);
        if status == 100 {
            continue;
        }

        let content_length: Option<usize> = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok());
        let body = match content_length {
            Some(length) => {
                while buf.len() < length {
                    let mut chunk = [0u8; 16 * 1024];
                    let n = reader.read(&mut chunk)?;
                    if n == 0 {
                        return Err(invalid("connection closed mid-body"));
                    }
                    buf.extend_from_slice(&chunk[..n]);
                }
                buf.drain(..length).collect::<Vec<u8>>()
            }
            None => {
                // No framing: the body runs to end-of-stream (one-shot
                // connections only).
                let mut rest = std::mem::take(buf);
                reader.read_to_end(&mut rest)?;
                rest
            }
        };
        let body = String::from_utf8(body).map_err(|_| invalid("response body is not UTF-8"))?;
        return Ok(ClientResponse {
            status,
            headers,
            body,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> std::io::Result<ClientResponse> {
        let mut buf = Vec::new();
        read_response(&mut &raw[..], &mut buf)
    }

    #[test]
    fn parses_a_plain_response() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\n\r\n{\"ok\":true}";
        let response = parse(raw).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.header("content-type"), Some("application/json"));
        assert_eq!(response.body, "{\"ok\":true}");
    }

    #[test]
    fn skips_interim_continue() {
        let raw = b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 503 Service Unavailable\r\nretry-after: 1\r\n\r\n{}";
        let response = parse(raw).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert!(!response.closes_connection());
    }

    #[test]
    fn frames_by_content_length_and_keeps_the_tail() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: keep-alive\r\n\r\n{}HTTP/1.1 404 Not Found\r\ncontent-length: 4\r\n\r\nnope";
        let mut buf = Vec::new();
        let mut reader = &raw[..];
        let first = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!(first.status, 200);
        assert_eq!(first.body, "{}");
        assert!(!first.closes_connection());
        let second = read_response(&mut reader, &mut buf).unwrap();
        assert_eq!(second.status, 404);
        assert_eq!(second.body, "nope");
        assert!(buf.is_empty());
    }

    #[test]
    fn close_announcement_is_visible() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nconnection: close\r\n\r\n{}";
        assert!(parse(raw).unwrap().closes_connection());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse(b"not http").is_err());
        assert!(parse(b"HTTP/1.1 banana\r\n\r\n").is_err());
    }
}
