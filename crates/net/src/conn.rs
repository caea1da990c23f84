//! Incremental HTTP/1.1 request framing and parsing for nonblocking reads.
//!
//! The reactor feeds whatever bytes `read(2)` returned into a
//! [`RequestFramer`]; the framer finds the end of the request head,
//! parses it — request line, headers, `Content-Length` — in one pass,
//! enforces size limits, and hands over a parsed [`Request`] once the
//! complete body has arrived. This is the only HTTP request parser in the
//! workspace: the dispatcher receives the [`Request`], never raw bytes.

use crate::http::find_header;

/// Size limits enforced while framing a request.
#[derive(Debug, Clone, Copy)]
pub struct FramingLimits {
    /// Maximum bytes of request head (request line + headers + blank line).
    pub max_head: usize,
    /// Maximum `Content-Length` accepted.
    pub max_body: usize,
}

impl Default for FramingLimits {
    fn default() -> Self {
        FramingLimits {
            max_head: 16 * 1024,
            max_body: 8 * 1024 * 1024,
        }
    }
}

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method (`GET`, `POST`, ...), as received.
    pub method: String,
    /// Request target path (query strings are kept attached verbatim).
    pub target: String,
    /// Headers as `(name, value)` pairs in arrival order, names as
    /// received and values trimmed (see [`Request::header`]).
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header named `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }
}

/// Outcome of feeding bytes to a [`RequestFramer`].
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStatus {
    /// More bytes are needed.
    Partial,
    /// A complete request (head + declared body). `Err` carries why its
    /// request line was refused — a malformed line or an HTTP version
    /// other than 1.x — for the dispatcher to answer with a 400.
    Complete(Result<Request, String>),
    /// The request cannot be framed: its head (431) or declared body (413)
    /// exceeds the limit, or its head is not UTF-8 or carries an unusable
    /// `Content-Length` (400). Carries the status to answer with and why;
    /// the connection answers and closes.
    Refused(u16, &'static str),
}

/// Accumulates request bytes until one full HTTP/1.1 request is buffered.
#[derive(Debug)]
pub struct RequestFramer {
    buf: Vec<u8>,
    scanned: usize,
    /// The parsed head (body still empty) and the byte offset one past
    /// its terminating `\r\n\r\n`, once seen.
    head: Option<(Result<Request, String>, usize)>,
    /// Total bytes needed (head + declared body), once the head is parsed.
    need: usize,
    limits: FramingLimits,
}

impl RequestFramer {
    /// Creates a framer enforcing `limits`.
    pub fn new(limits: FramingLimits) -> RequestFramer {
        RequestFramer {
            buf: Vec::new(),
            scanned: 0,
            head: None,
            need: 0,
            limits,
        }
    }

    /// Feeds freshly read bytes; call repeatedly until non-[`Partial`].
    ///
    /// [`Partial`]: FrameStatus::Partial
    pub fn push(&mut self, bytes: &[u8]) -> FrameStatus {
        self.buf.extend_from_slice(bytes);
        if self.head.is_none() {
            // Rescan from 3 bytes back so a terminator split across reads
            // is still found.
            let start = self.scanned.saturating_sub(3);
            match find_terminator(&self.buf[start..]) {
                Some(at) => {
                    let head_end = start + at + 4;
                    if head_end > self.limits.max_head {
                        return FrameStatus::Refused(431, "request head exceeds limit");
                    }
                    let (request, body_len) = match parse_head(&self.buf[..head_end]) {
                        Ok(parsed) => parsed,
                        Err(msg) => return FrameStatus::Refused(400, msg),
                    };
                    if body_len > self.limits.max_body {
                        return FrameStatus::Refused(413, "request body exceeds limit");
                    }
                    self.head = Some((request, head_end));
                    self.need = head_end + body_len;
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buf.len() > self.limits.max_head {
                        return FrameStatus::Refused(431, "request head exceeds limit");
                    }
                    return FrameStatus::Partial;
                }
            }
        }
        if self.buf.len() < self.need {
            return FrameStatus::Partial;
        }
        let (mut request, head_end) = self.head.take().expect("head parsed above");
        if let Ok(request) = &mut request {
            let mut body = std::mem::take(&mut self.buf);
            // A compliant client sends nothing past the declared body on a
            // Connection: close exchange; drop any surplus.
            body.truncate(self.need);
            body.drain(..head_end);
            request.body = body;
        }
        FrameStatus::Complete(request)
    }
}

fn find_terminator(hay: &[u8]) -> Option<usize> {
    hay.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a complete head into the request (body still empty) and its
/// declared body length. A bad request line is the inner `Err`: the body
/// is still framed. A head that cannot be framed is the outer `Err`.
fn parse_head(head: &[u8]) -> Result<(Result<Request, String>, usize), &'static str> {
    let text = std::str::from_utf8(head).map_err(|_| "request head is not valid UTF-8")?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let headers = crate::http::parse_headers(lines);
    let mut body_len: Option<usize> = None;
    for (name, value) in &headers {
        if !name.eq_ignore_ascii_case("content-length") {
            continue;
        }
        let parsed: usize = value
            .parse()
            .map_err(|_| "content-length is not a number")?;
        match body_len {
            Some(prev) if prev != parsed => return Err("conflicting content-length headers"),
            _ => body_len = Some(parsed),
        }
    }
    let request = parse_request_line(request_line).map(|(method, target)| Request {
        method: method.to_owned(),
        target: target.to_owned(),
        headers,
        body: Vec::new(),
    });
    Ok((request, body_len.unwrap_or(0)))
}

/// Splits `METHOD /target HTTP/1.x` into method and target.
fn parse_request_line(line: &str) -> Result<(&str, &str), String> {
    let mut parts = line.split(' ');
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version))
            if !method.is_empty() && target.starts_with('/') =>
        {
            if version.starts_with("HTTP/1.") {
                Ok((method, target))
            } else {
                Err(format!("unsupported version {version:?}"))
            }
        }
        _ => Err(format!("bad request line {line:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framer() -> RequestFramer {
        RequestFramer::new(FramingLimits::default())
    }

    /// Frames `raw` in one push and expects a complete, parsed request.
    fn parse(raw: &[u8]) -> Request {
        match framer().push(raw) {
            FrameStatus::Complete(Ok(request)) => request,
            other => panic!("unexpected status: {other:?}"),
        }
    }

    /// Frames `raw` in one push and expects a refused request line.
    fn refused(raw: &[u8]) -> String {
        match framer().push(raw) {
            FrameStatus::Complete(Err(msg)) => msg,
            other => panic!("unexpected status: {other:?}"),
        }
    }

    #[test]
    fn frames_request_with_body_in_one_push() {
        let req = parse(b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd");
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/v1/jobs");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn parses_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert_eq!(req.headers, [("host".to_owned(), "x".to_owned())]);
        assert!(req.body.is_empty());
    }

    #[test]
    fn frames_request_across_byte_by_byte_pushes() {
        let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 13\r\n\r\n{\"body\":true}";
        let mut f = framer();
        for (i, b) in raw.iter().enumerate() {
            match f.push(std::slice::from_ref(b)) {
                FrameStatus::Partial => assert!(i + 1 < raw.len(), "finished early"),
                FrameStatus::Complete(Ok(req)) => {
                    assert_eq!(i + 1, raw.len(), "finished late");
                    assert_eq!(req.method, "POST");
                    assert_eq!(req.body, b"{\"body\":true}");
                    return;
                }
                other => panic!("unexpected status: {other:?}"),
            }
        }
        panic!("request never completed");
    }

    #[test]
    fn body_split_across_pushes() {
        let mut f = framer();
        assert_eq!(
            f.push(b"POST / HTTP/1.1\r\nContent-Length: 6\r\n\r\nab"),
            FrameStatus::Partial
        );
        match f.push(b"cdef") {
            FrameStatus::Complete(Ok(req)) => assert_eq!(req.body, b"abcdef"),
            other => panic!("unexpected status: {other:?}"),
        }
    }

    #[test]
    fn surplus_after_declared_body_is_dropped() {
        let req = parse(b"POST / HTTP/1.1\r\ncontent-length: 2\r\n\r\nokEXTRA");
        assert_eq!(req.body, b"ok");
    }

    #[test]
    fn oversized_head_is_rejected() {
        let mut f = RequestFramer::new(FramingLimits {
            max_head: 64,
            max_body: 1024,
        });
        let long = vec![b'a'; 128];
        assert!(matches!(f.push(&long), FrameStatus::Refused(431, _)));
        // A terminated head past the limit is refused just the same.
        let mut f = framer();
        let mut wire = b"GET /x HTTP/1.1\r\nx-pad: ".to_vec();
        wire.resize(FramingLimits::default().max_head + 10, b'a');
        wire.extend_from_slice(b"\r\n\r\n");
        assert_eq!(
            f.push(&wire),
            FrameStatus::Refused(431, "request head exceeds limit")
        );
    }

    #[test]
    fn oversized_declared_body_is_rejected_before_body_arrives() {
        let mut f = RequestFramer::new(FramingLimits {
            max_head: 1024,
            max_body: 8,
        });
        let status = f.push(b"POST / HTTP/1.1\r\ncontent-length: 9\r\n\r\n");
        assert_eq!(
            status,
            FrameStatus::Refused(413, "request body exceeds limit")
        );
    }

    #[test]
    fn bad_content_length_is_malformed() {
        let status = framer().push(b"POST / HTTP/1.1\r\ncontent-length: lots\r\n\r\n");
        assert!(matches!(status, FrameStatus::Refused(400, _)));
        let status =
            framer().push(b"POST / HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx");
        assert!(matches!(status, FrameStatus::Refused(400, _)));
        let status = framer().push(b"GET / HTTP/1.1\r\nx-bytes: \xff\r\n\r\n");
        assert_eq!(
            status,
            FrameStatus::Refused(400, "request head is not valid UTF-8")
        );
    }

    #[test]
    fn missing_content_length_means_empty_body() {
        assert!(parse(b"GET /metrics HTTP/1.1\r\n\r\n").body.is_empty());
    }

    #[test]
    fn bad_request_lines_and_versions_are_refused_after_framing() {
        assert_eq!(
            refused(b"NOT-HTTP\r\n\r\n"),
            "bad request line \"NOT-HTTP\""
        );
        assert_eq!(
            refused(b"GET x HTTP/1.1\r\n\r\n"),
            "bad request line \"GET x HTTP/1.1\""
        );
        assert_eq!(
            refused(b"GET /x HTTP/2.0\r\n\r\n"),
            "unsupported version \"HTTP/2.0\""
        );
        // The declared body is still read before the refusal is handed over.
        let mut f = framer();
        assert_eq!(
            f.push(b"BAD\r\ncontent-length: 2\r\n\r\n"),
            FrameStatus::Partial
        );
        assert!(matches!(f.push(b"xy"), FrameStatus::Complete(Err(_))));
    }

    #[test]
    fn headers_are_kept_and_matched_case_insensitively() {
        let req = parse(
            b"POST /v1/jobs HTTP/1.1\r\nX-Smrseek-Forwarded: 1\r\nHost: a\r\nno-colon\r\n\r\n",
        );
        assert_eq!(req.header("x-smrseek-forwarded"), Some("1"));
        assert_eq!(req.header("HOST"), Some("a"));
        assert_eq!(req.header("absent"), None);
        assert_eq!(req.headers.len(), 2, "lines without a colon are skipped");
    }
}
