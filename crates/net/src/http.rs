//! The HTTP/1.1 message format, in one place.
//!
//! smrseekd speaks a deliberately small HTTP/1.1: one request per
//! connection, no TLS, no chunked encoding, bounded sizes. Every message
//! carries `Connection: close`, so no peer reasons about keep-alive
//! against a draining daemon and every client simply reads to EOF.
//! [`crate::RequestFramer`] parses requests; this module writes every
//! message head, builds [`Response`]s, parses responses
//! ([`parse_response`]) and runs the one blocking client ([`fetch`]).

use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// How long a [`fetch`] may spend connecting, and separately reading or
/// writing, before it fails.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// The reason phrase sent after a status code.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        _ => "Status",
    }
}

/// Writes one message head: the start line, `headers`, `connection:
/// close`, `extra`, and the blank line that ends the head.
fn write_head(start_line: &str, headers: &[(&str, &str)], extra: &[(String, String)]) -> Vec<u8> {
    fn push<N: AsRef<str>, V: AsRef<str>>(head: &mut String, pairs: &[(N, V)]) {
        for (name, value) in pairs {
            head.push_str(name.as_ref());
            head.push_str(": ");
            head.push_str(value.as_ref());
            head.push_str("\r\n");
        }
    }
    let mut head = String::with_capacity(256);
    head.push_str(start_line);
    head.push_str("\r\n");
    push(&mut head, headers);
    head.push_str("connection: close\r\n");
    push(&mut head, extra);
    head.push_str("\r\n");
    head.into_bytes()
}

/// A response head, through the blank line: the status line, `headers`
/// (those describing the body), `connection: close`, then `extra`.
pub fn response_head(status: u16, headers: &[(&str, &str)], extra: &[(String, String)]) -> Vec<u8> {
    write_head(
        &format!("HTTP/1.1 {status} {}", reason(status)),
        headers,
        extra,
    )
}

/// A request head, through the blank line: the request line, `headers`,
/// then `connection: close`.
pub fn request_head(method: &str, target: &str, headers: &[(&str, &str)]) -> Vec<u8> {
    write_head(&format!("{method} {target} HTTP/1.1"), headers, &[])
}

/// One HTTP response with a `Content-Length` body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Type`/`Content-Length`/`Connection`,
    /// written in order after them.
    pub extra: Vec<(String, String)>,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            extra: Vec::new(),
            content_type: "application/json",
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response (health checks, Prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            extra: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// Adds one extra header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.push((name.into(), value.into()));
        self
    }

    /// The response body bytes.
    pub fn body(&self) -> &[u8] {
        &self.body
    }

    /// The wire bytes: head, then body.
    pub fn into_bytes(self) -> Vec<u8> {
        let length = self.body.len().to_string();
        let mut out = response_head(
            self.status,
            &[
                ("content-type", self.content_type),
                ("content-length", &length),
            ],
            &self.extra,
        );
        out.extend_from_slice(&self.body);
        out
    }
}

/// The first header named `name` (case-insensitive) in `headers`.
pub(crate) fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Header lines as `(name, value)` pairs, names as received and values
/// trimmed. Lines without a `:` (including the empty ones that end a
/// head) are skipped.
pub(crate) fn parse_headers<'a>(lines: impl Iterator<Item = &'a str>) -> Vec<(String, String)> {
    lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.to_owned(), value.trim().to_owned()))
        .collect()
}

/// A response as read off the wire.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order (see [`Reply::header`]).
    pub headers: Vec<(String, String)>,
    /// Everything after the head.
    pub body: Vec<u8>,
}

impl Reply {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Parses the raw bytes of a full `Connection: close` exchange, read to
/// EOF.
///
/// # Errors
///
/// Returns a message when the bytes do not look like an HTTP/1.1 response.
pub fn parse_response(raw: &[u8]) -> Result<Reply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| "response head never terminated".to_owned())?;
    let head = std::str::from_utf8(&raw[..head_end])
        .map_err(|_| "response head is not UTF-8".to_owned())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    match (parts.next(), parts.next()) {
        (Some(version), Some(code)) if version.starts_with("HTTP/1.") => Ok(Reply {
            status: code
                .parse()
                .map_err(|_| format!("bad status code {code:?}"))?,
            headers: parse_headers(lines),
            body: raw[head_end + 4..].to_vec(),
        }),
        _ => Err(format!("bad status line {status_line:?}")),
    }
}

/// Why a [`fetch`] failed.
#[derive(Debug)]
pub enum FetchError {
    /// Resolving, connecting, sending or reading failed.
    Io(String),
    /// The peer answered with bytes that are not an HTTP/1.1 response.
    Malformed(String),
}

impl fmt::Display for FetchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FetchError::Io(msg) | FetchError::Malformed(msg) => f.write_str(msg),
        }
    }
}

/// One blocking exchange: connects to `addr`, sends `request` (head and
/// body), reads the response to EOF and parses it. Connect, read and
/// write each time out after 5 s. `who` names the peer in errors.
///
/// # Errors
///
/// [`FetchError::Io`] for transport failures, [`FetchError::Malformed`]
/// when the response does not parse.
pub fn fetch(addr: &str, who: &str, request: &[u8]) -> Result<Reply, FetchError> {
    let io = |stage: &str, e: std::io::Error| FetchError::Io(format!("{stage} {who}: {e}"));
    let target = addr
        .to_socket_addrs()
        .ok()
        .and_then(|mut addrs| addrs.next());
    let target = target.ok_or_else(|| FetchError::Io(format!("cannot resolve {who}")))?;
    let mut stream =
        TcpStream::connect_timeout(&target, FETCH_TIMEOUT).map_err(|e| io("connect to", e))?;
    let _ = stream.set_read_timeout(Some(FETCH_TIMEOUT));
    let _ = stream.set_write_timeout(Some(FETCH_TIMEOUT));
    stream.write_all(request).map_err(|e| io("send to", e))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| io("read from", e))?;
    parse_response(&raw).map_err(|e| FetchError::Malformed(format!("bad response from {who}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_wire_format() {
        let resp = Response::json(503, "{}").with_header("retry-after", "1");
        let text = String::from_utf8(resp.into_bytes()).expect("utf8");
        assert_eq!(
            text,
            "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
             content-length: 2\r\nconnection: close\r\nretry-after: 1\r\n\r\n{}"
        );
    }

    #[test]
    fn request_head_ends_with_connection_close() {
        let head = request_head("GET", "/v1/trace/ab", &[("host", "h:1")]);
        assert_eq!(
            head,
            b"GET /v1/trace/ab HTTP/1.1\r\nhost: h:1\r\nconnection: close\r\n\r\n"
        );
    }

    #[test]
    fn parse_response_splits_status_headers_and_body() {
        let resp = Response::json(503, r#"{"error":"full"}"#).with_header("Retry-After", "1");
        let reply = parse_response(&resp.into_bytes()).expect("parses");
        assert_eq!(reply.status, 503);
        assert_eq!(reply.header("retry-after"), Some("1"));
        assert_eq!(reply.header("content-length"), Some("16"));
        assert_eq!(reply.header("absent"), None);
        assert_eq!(reply.body, br#"{"error":"full"}"#);
        assert!(parse_response(b"not-http").is_err());
        assert!(parse_response(b"SPAM/9 200\r\n\r\n").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn fetch_to_dead_peer_names_the_peer() {
        // Port 1 on localhost refuses connections (nothing listens there).
        let err = fetch("127.0.0.1:1", "peer 127.0.0.1:1", b"GET / HTTP/1.1\r\n\r\n")
            .expect_err("dead peer");
        assert!(matches!(err, FetchError::Io(_)), "{err:?}");
        assert!(
            err.to_string().starts_with("connect to peer 127.0.0.1:1: "),
            "{err}"
        );
    }
}
