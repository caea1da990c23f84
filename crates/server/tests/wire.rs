//! Golden wire test: the exact bytes `smrseekd` puts on the socket.
//!
//! Every case sends raw request bytes to an in-process daemon over a real
//! loopback socket and compares the response against a golden rendering:
//! the status line, every header name and value in order, a blank line,
//! and the body. Values that change from run to run are masked —
//! request ids (`<id>`), trace contexts (`<trace>`) and peer addresses
//! (`<peer>`). The `/metrics` body depends on timing, so its golden keeps
//! only the request accounting (`smrseekd_http_requests_total`); the full
//! exposition is pinned by the metrics module's own golden test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends `request` on a fresh connection and reads the response to EOF
/// (the daemon closes every connection after answering).
fn exchange(addr: &str, request: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    stream.write_all(request).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    raw
}

/// Splits a response into its masked head and its body, checking that
/// `content-length` (when sent) matches the body. A request id echoed in
/// the body is masked there too.
fn render(raw: &[u8]) -> (String, String) {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response head terminates");
    let head = std::str::from_utf8(&raw[..split]).expect("utf8 head");
    let body = String::from_utf8(raw[split + 4..].to_vec()).expect("utf8 body");
    let mut lines = head.split("\r\n");
    let mut out = format!("{}\n", lines.next().expect("status line"));
    let mut masked_body = body.clone();
    for line in lines {
        let (name, value) = line.split_once(": ").expect("header line");
        let value = match name {
            "x-request-id" => {
                masked_body = masked_body.replace(value, "<id>");
                "<id>"
            }
            "x-smrseek-trace" => "<trace>",
            "x-smrseek-peer" => "<peer>",
            "content-length" => {
                assert_eq!(value, body.len().to_string(), "content-length matches");
                value
            }
            _ => value,
        };
        out.push_str(&format!("{name}: {value}\n"));
    }
    (out, masked_body)
}

/// The masked rendering of a complete response: head, blank line, body.
fn golden(raw: &[u8]) -> String {
    let (head, body) = render(raw);
    format!("{head}\n{body}")
}

fn start(config: smrseek_server::ServerConfig) -> smrseek_server::Handle {
    smrseek_server::start(smrseek_server::ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("start in-process daemon")
}

#[test]
fn daemon_responses_match_the_golden_wire_bytes() {
    let handle = start(smrseek_server::ServerConfig {
        workers: 1,
        ..smrseek_server::ServerConfig::default()
    });
    let addr = handle.addr().to_string();

    // Requests the daemon answers itself: a request line it cannot split,
    // and a version it does not speak. Both carry an `x-request-id` and
    // count under `endpoint="other"`.
    assert_eq!(
        golden(&exchange(&addr, b"NOT-HTTP\r\n\r\n")),
        "HTTP/1.1 400 Bad Request\n\
         content-type: application/json\n\
         content-length: 41\n\
         connection: close\n\
         x-request-id: <id>\n\
         \n\
         {\"error\":\"bad request line \\\"NOT-HTTP\\\"\"}"
    );
    assert_eq!(
        golden(&exchange(&addr, b"GET /healthz HTTP/2.0\r\n\r\n")),
        "HTTP/1.1 400 Bad Request\n\
         content-type: application/json\n\
         content-length: 44\n\
         connection: close\n\
         x-request-id: <id>\n\
         \n\
         {\"error\":\"unsupported version \\\"HTTP/2.0\\\"\"}"
    );

    // Framing failures: answered by the event loop before any routing,
    // so no request id and no endpoint accounting.
    assert_eq!(
        golden(&exchange(
            &addr,
            b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\nx",
        )),
        "HTTP/1.1 400 Bad Request\n\
         content-type: application/json\n\
         content-length: 46\n\
         connection: close\n\
         \n\
         {\"error\":\"conflicting content-length headers\"}"
    );
    let mut big_head = b"GET /healthz HTTP/1.1\r\nx-pad: ".to_vec();
    big_head.resize(16 * 1024 + 16, b'a');
    big_head.extend_from_slice(b"\r\n\r\n");
    assert_eq!(
        golden(&exchange(&addr, &big_head)),
        "HTTP/1.1 431 Request Header Fields Too Large\n\
         content-type: application/json\n\
         content-length: 38\n\
         connection: close\n\
         \n\
         {\"error\":\"request head exceeds limit\"}"
    );
    assert_eq!(
        golden(&exchange(
            &addr,
            b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 9000000\r\n\r\n",
        )),
        "HTTP/1.1 413 Payload Too Large\n\
         content-type: application/json\n\
         content-length: 38\n\
         connection: close\n\
         \n\
         {\"error\":\"request body exceeds limit\"}"
    );

    assert_eq!(
        golden(&exchange(&addr, b"GET /nope HTTP/1.1\r\nhost: x\r\n\r\n")),
        "HTTP/1.1 404 Not Found\n\
         content-type: application/json\n\
         content-length: 21\n\
         connection: close\n\
         x-request-id: <id>\n\
         \n\
         {\"error\":\"not found\"}"
    );
    assert_eq!(
        golden(&exchange(&addr, b"GET /v1/jobs HTTP/1.1\r\n\r\n")),
        "HTTP/1.1 200 OK\n\
         content-type: application/json\n\
         content-length: 11\n\
         connection: close\n\
         x-request-id: <id>\n\
         \n\
         {\"jobs\":[]}"
    );

    let (head, body) = render(&exchange(&addr, b"GET /metrics HTTP/1.1\r\n\r\n"));
    let head = head.replacen(&format!("content-length: {}\n", body.len()), "", 1);
    assert_eq!(
        head,
        "HTTP/1.1 200 OK\n\
         content-type: text/plain; charset=utf-8\n\
         connection: close\n\
         x-request-id: <id>\n"
    );
    let accounting: Vec<&str> = body
        .lines()
        .filter(|l| l.starts_with("smrseekd_http_requests_total{"))
        .collect();
    assert_eq!(
        accounting,
        [
            "smrseekd_http_requests_total{endpoint=\"healthz\"} 0",
            "smrseekd_http_requests_total{endpoint=\"metrics\"} 0",
            "smrseekd_http_requests_total{endpoint=\"jobs_post\"} 0",
            "smrseekd_http_requests_total{endpoint=\"jobs_get\"} 1",
            "smrseekd_http_requests_total{endpoint=\"job_result\"} 0",
            "smrseekd_http_requests_total{endpoint=\"job_events\"} 0",
            "smrseekd_http_requests_total{endpoint=\"trace\"} 0",
            "smrseekd_http_requests_total{endpoint=\"other\"} 3",
        ]
    );

    // A submission, then its event stream: the SSE head has no
    // content-length, and the stream runs until the job is done.
    let body = r#"{"trace": {"profile": "hm_1", "ops": 200}}"#;
    let submit = format!(
        "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    assert_eq!(
        golden(&exchange(&addr, submit.as_bytes())),
        "HTTP/1.1 202 Accepted\n\
         content-type: application/json\n\
         content-length: 72\n\
         connection: close\n\
         x-smrseek-trace: <trace>\n\
         x-request-id: <id>\n\
         \n\
         {\"id\":1,\"status\":\"queued\",\"cache\":\"miss\",\"request_id\":\"<id>\"}"
    );
    let (head, events) = render(&exchange(&addr, b"GET /v1/jobs/1/events HTTP/1.1\r\n\r\n"));
    assert_eq!(
        head,
        "HTTP/1.1 200 OK\n\
         content-type: text/event-stream\n\
         cache-control: no-store\n\
         connection: close\n\
         x-request-id: <id>\n"
    );
    assert!(events.starts_with("event: queued\n"), "{events}");
    assert!(events.contains("event: done\n"), "{events}");
    handle.shutdown();
}

#[test]
fn forwarded_503_relays_the_owners_retry_after() {
    // Daemon B owns part of the key space but can queue nothing, so every
    // submission daemon A forwards to it comes back 503.
    let mut attempt = 0;
    let (a, b) = loop {
        attempt += 1;
        let reserve = || {
            std::net::TcpListener::bind("127.0.0.1:0")
                .expect("bind")
                .local_addr()
                .expect("addr")
                .to_string()
        };
        let peers = vec![reserve(), reserve()];
        let config = |addr: &str, queue_depth: usize| smrseek_server::ServerConfig {
            addr: addr.to_owned(),
            queue_depth,
            workers: 0,
            peers: peers.clone(),
            ..smrseek_server::ServerConfig::default()
        };
        match smrseek_server::start(config(&peers[0], 64)) {
            Ok(a) => match smrseek_server::start(config(&peers[1], 0)) {
                Ok(b) => break (a, b),
                Err(e) => {
                    a.shutdown();
                    assert!(attempt < 5, "could not bind reserved port: {e}");
                }
            },
            Err(e) => assert!(attempt < 5, "could not bind reserved port: {e}"),
        }
    };
    let addr = a.addr().to_string();
    let forwarded = (0..64u64)
        .map(|seed| {
            let body = format!(r#"{{"trace": {{"profile": "hm_1", "seed": {seed}, "ops": 50}}}}"#);
            let request = format!(
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            golden(&exchange(&addr, request.as_bytes()))
        })
        .find(|response| response.contains("x-smrseek-peer"))
        .expect("some key is owned by the other daemon");
    assert_eq!(
        forwarded,
        "HTTP/1.1 503 Service Unavailable\n\
         content-type: application/json\n\
         content-length: 26\n\
         connection: close\n\
         x-smrseek-peer: <peer>\n\
         retry-after: 1\n\
         x-smrseek-trace: <trace>\n\
         x-request-id: <id>\n\
         \n\
         {\"error\":\"job queue full\"}"
    );
    a.shutdown();
    b.shutdown();
}
