//! The `smrseek bench-daemon` load generator: drives a daemon with
//! thousands of concurrent submissions and reports the latency tail.
//!
//! The generator is built on the same [`Poller`] the daemon's reactor
//! uses, pointed the other way: one thread multiplexes up to
//! `concurrency` nonblocking client connections, each performing one
//! `POST /v1/jobs` and reading to EOF (the daemon closes per request).
//! Every submission is accounted for exactly once — completed with a
//! status, or *dropped* if the connection died or timed out before a
//! full response arrived. Connect latency is reported apart from
//! response latency, so an overflowing listen backlog (connects stalled
//! on SYN retransmits) shows up as itself. A healthy daemon may answer 503 under
//! backpressure, but it must never silently drop a connection, so
//! [`LoadReport::dropped`] is the invariant the daemon bench gate
//! checks against zero.

use smrseek_net::{Event, Interest, Poller};
use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Load shape for one run.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Total submissions to perform.
    pub requests: usize,
    /// Maximum in-flight connections.
    pub concurrency: usize,
    /// Distinct job identities to spread submissions across (the rest
    /// are result-cache hits, like a real sweep fleet re-requesting).
    pub distinct: usize,
    /// Generator-profile ops per distinct job (kept small so the bench
    /// measures the daemon, not the simulator).
    pub ops: u64,
    /// Per-request deadline; exceeding it counts the request as dropped.
    pub timeout: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:7070".parse().expect("literal parses"),
            requests: 2000,
            concurrency: 256,
            distinct: 16,
            ops: 200,
            timeout: Duration::from_secs(30),
        }
    }
}

/// What one run observed.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Submissions attempted.
    pub requests: u64,
    /// Full responses received (any status).
    pub completed: u64,
    /// Connections that died or timed out mid-exchange — the daemon's
    /// cardinal sin; must be zero.
    pub dropped: u64,
    /// Responses with status >= 400 other than 503.
    pub errors: u64,
    /// 503 backpressure rejections (an orderly answer, not an error).
    pub rejected: u64,
    /// Response count by HTTP status.
    pub statuses: BTreeMap<u16, u64>,
    /// Wall time for the whole run.
    pub elapsed: Duration,
    /// Response latency percentiles over completed requests — from the
    /// connection being established to the last response byte — in
    /// microseconds.
    pub p50_us: u64,
    /// 99th percentile latency (µs).
    pub p99_us: u64,
    /// 99.9th percentile latency (µs).
    pub p999_us: u64,
    /// Worst completed request (µs).
    pub max_us: u64,
    /// Median time to establish a connection (µs), over every
    /// connection that was established.
    pub connect_p50_us: u64,
    /// 99th percentile connect time (µs).
    pub connect_p99_us: u64,
    /// Worst connect time (µs).
    pub connect_max_us: u64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
}

/// One in-flight client exchange.
struct Flight {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    started: Instant,
    deadline: Instant,
}

/// The sorted-sample percentile at quantile `q`: classical nearest-rank,
/// `ceil(q * n)` one-indexed.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The submission body for distinct-job index `i`: a generator-profile
/// trace, so the daemon needs no files and each distinct seed is a
/// distinct cache key.
fn job_body(i: usize, ops: u64) -> String {
    format!(r#"{{"trace": {{"profile": "hm_1", "seed": {i}, "ops": {ops}}}}}"#)
}

fn request_bytes(addr: SocketAddr, body: &str) -> Vec<u8> {
    let mut request = smrseek_net::request_head(
        "POST",
        "/v1/jobs",
        &[
            ("host", &addr.to_string()),
            ("content-type", "application/json"),
            ("content-length", &body.len().to_string()),
        ],
    );
    request.extend_from_slice(body.as_bytes());
    request
}

/// Microseconds in `d`, saturating.
fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Runs one load shape against a daemon and reports what came back.
///
/// # Errors
///
/// Only infrastructure failures (creating the poller) error out;
/// per-connection failures are accounted in the report instead.
pub fn run(config: &LoadConfig) -> std::io::Result<LoadReport> {
    let mut poller = Poller::new()?;
    let bodies: Vec<Vec<u8>> = (0..config.distinct.max(1))
        .map(|i| request_bytes(config.addr, &job_body(i, config.ops)))
        .collect();

    let started_run = Instant::now();
    let mut report = LoadReport {
        requests: config.requests as u64,
        ..LoadReport::default()
    };
    let mut samples: Vec<u64> = Vec::with_capacity(config.requests);
    let mut connect_samples: Vec<u64> = Vec::with_capacity(config.requests);
    let mut flights: Vec<Option<Flight>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut launched = 0usize;
    let mut settled = 0usize;
    let mut events: Vec<Event> = Vec::new();

    let finish = |flight: Flight, report: &mut LoadReport, samples: &mut Vec<u64>| {
        let Ok(reply) = smrseek_net::parse_response(&flight.rbuf) else {
            report.dropped += 1;
            return;
        };
        report.completed += 1;
        *report.statuses.entry(reply.status).or_insert(0) += 1;
        if reply.status == 503 {
            report.rejected += 1;
        } else if reply.status >= 400 {
            report.errors += 1;
        }
        samples.push(micros(flight.started.elapsed()));
    };

    while settled < config.requests {
        // Top up to the concurrency cap. Connect is the one blocking
        // step (loopback: the kernel completes it as soon as the SYN
        // lands in the daemon's accept backlog), timed on its own.
        while launched < config.requests && launched - settled < config.concurrency {
            let connecting = Instant::now();
            match TcpStream::connect_timeout(&config.addr, config.timeout) {
                Ok(stream) => {
                    let now = Instant::now();
                    connect_samples.push(micros(now - connecting));
                    stream.set_nonblocking(true)?;
                    let slot = free.pop().unwrap_or_else(|| {
                        flights.push(None);
                        flights.len() - 1
                    });
                    let flight = Flight {
                        stream,
                        wbuf: bodies[launched % bodies.len()].clone(),
                        wpos: 0,
                        rbuf: Vec::with_capacity(512),
                        started: now,
                        deadline: now + config.timeout,
                    };
                    poller.add(flight.stream.as_raw_fd(), slot as u64, Interest::WRITE)?;
                    flights[slot] = Some(flight);
                }
                Err(_) => {
                    // Could not even connect: that is a drop — the daemon
                    // (or its backlog) turned us away without an answer.
                    report.dropped += 1;
                    settled += 1;
                }
            }
            launched += 1;
        }
        if settled >= config.requests {
            break;
        }

        poller.wait(&mut events, Some(Duration::from_millis(50)))?;
        for ev in events.drain(..) {
            let slot = ev.token as usize;
            let Some(flight) = flights[slot].as_mut() else {
                continue;
            };
            let mut done = false;
            let mut died = false;
            if ev.writable && flight.wpos < flight.wbuf.len() {
                loop {
                    match flight.stream.write(&flight.wbuf[flight.wpos..]) {
                        Ok(0) => {
                            died = true;
                            break;
                        }
                        Ok(n) => {
                            flight.wpos += n;
                            if flight.wpos == flight.wbuf.len() {
                                let _ = poller.modify(
                                    flight.stream.as_raw_fd(),
                                    slot as u64,
                                    Interest::READ,
                                );
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            died = true;
                            break;
                        }
                    }
                }
            }
            if !died && (ev.readable || ev.closed) {
                let mut chunk = [0u8; 4096];
                loop {
                    match flight.stream.read(&mut chunk) {
                        Ok(0) => {
                            done = true;
                            break;
                        }
                        Ok(n) => flight.rbuf.extend_from_slice(&chunk[..n]),
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => {
                            died = true;
                            break;
                        }
                    }
                }
            } else if ev.closed && flight.wpos < flight.wbuf.len() {
                died = true;
            }
            if done || died {
                let flight = flights[slot].take().expect("flight present");
                let _ = poller.delete(flight.stream.as_raw_fd());
                if done {
                    finish(flight, &mut report, &mut samples);
                } else {
                    report.dropped += 1;
                }
                free.push(slot);
                settled += 1;
            }
        }

        // Reap flights past their deadline: those are silent drops.
        let now = Instant::now();
        for (slot, entry) in flights.iter_mut().enumerate() {
            let expired = entry.as_ref().is_some_and(|f| now >= f.deadline);
            if expired {
                let flight = entry.take().expect("flight present");
                let _ = poller.delete(flight.stream.as_raw_fd());
                report.dropped += 1;
                free.push(slot);
                settled += 1;
            }
        }
    }

    samples.sort_unstable();
    connect_samples.sort_unstable();
    [report.p50_us, report.p99_us, report.p999_us, report.max_us] =
        [0.50, 0.99, 0.999, 1.0].map(|q| percentile(&samples, q));
    [
        report.connect_p50_us,
        report.connect_p99_us,
        report.connect_max_us,
    ] = [0.50, 0.99, 1.0].map(|q| percentile(&connect_samples, q));
    report.elapsed = started_run.elapsed();
    let secs = report.elapsed.as_secs_f64();
    report.throughput_rps = if secs > 0.0 {
        report.completed as f64 / secs
    } else {
        0.0
    };
    Ok(report)
}

impl LoadReport {
    /// Human-readable summary block, `key: value` per line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(out, "requests: {}", self.requests);
        let _ = writeln!(out, "completed: {}", self.completed);
        let _ = writeln!(out, "dropped: {}", self.dropped);
        let _ = writeln!(out, "rejected_503: {}", self.rejected);
        let _ = writeln!(out, "errors: {}", self.errors);
        for (status, count) in &self.statuses {
            let _ = writeln!(out, "status_{status}: {count}");
        }
        let _ = writeln!(out, "elapsed_s: {:.3}", self.elapsed.as_secs_f64());
        let _ = writeln!(out, "throughput_rps: {:.1}", self.throughput_rps);
        let _ = writeln!(out, "latency_p50_us: {}", self.p50_us);
        let _ = writeln!(out, "latency_p99_us: {}", self.p99_us);
        let _ = writeln!(out, "latency_p999_us: {}", self.p999_us);
        let _ = writeln!(out, "latency_max_us: {}", self.max_us);
        let _ = writeln!(out, "connect_p50_us: {}", self.connect_p50_us);
        let _ = writeln!(out, "connect_p99_us: {}", self.connect_p99_us);
        let _ = writeln!(out, "connect_max_us: {}", self.connect_max_us);
        out
    }

    /// The report as a JSON object (the `daemon` section of
    /// `BENCH_*.json`).
    pub fn to_json(&self) -> serde::Value {
        use serde::{Number, Value};
        let statuses: Vec<(String, Value)> = self
            .statuses
            .iter()
            .map(|(&status, &count)| (status.to_string(), Value::Number(Number::U(count))))
            .collect();
        let u = |v: u64| Value::Number(Number::U(v));
        let f = |v: f64| Value::Number(Number::F(v));
        Value::Object(vec![
            ("requests".to_owned(), u(self.requests)),
            ("completed".to_owned(), u(self.completed)),
            ("dropped".to_owned(), u(self.dropped)),
            ("rejected_503".to_owned(), u(self.rejected)),
            ("errors".to_owned(), u(self.errors)),
            ("statuses".to_owned(), Value::Object(statuses)),
            ("elapsed_s".to_owned(), f(self.elapsed.as_secs_f64())),
            ("throughput_rps".to_owned(), f(self.throughput_rps)),
            ("p50_us".to_owned(), u(self.p50_us)),
            ("p99_us".to_owned(), u(self.p99_us)),
            ("p999_us".to_owned(), u(self.p999_us)),
            ("max_us".to_owned(), u(self.max_us)),
            ("connect_p50_us".to_owned(), u(self.connect_p50_us)),
            ("connect_p99_us".to_owned(), u(self.connect_p99_us)),
            ("connect_max_us".to_owned(), u(self.connect_max_us)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&sorted, 0.50), 500);
        assert_eq!(percentile(&sorted, 0.99), 990);
        assert_eq!(percentile(&sorted, 0.999), 999);
        assert_eq!(percentile(&sorted, 1.0), 1000);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.999), 7);
    }

    #[test]
    fn report_serializes_both_ways() {
        let mut report = LoadReport {
            requests: 10,
            completed: 9,
            dropped: 1,
            rejected: 2,
            p50_us: 120,
            p99_us: 900,
            p999_us: 1500,
            max_us: 1600,
            throughput_rps: 123.4,
            elapsed: Duration::from_millis(73),
            ..LoadReport::default()
        };
        report.statuses.insert(202, 7);
        report.statuses.insert(503, 2);
        let text = report.render_text();
        assert!(text.contains("dropped: 1\n"), "{text}");
        assert!(text.contains("status_503: 2\n"), "{text}");
        assert!(text.contains("latency_p999_us: 1500\n"), "{text}");
        let json = serde_json::to_string(&report.to_json()).expect("serializes");
        assert!(json.contains("\"p999_us\":1500"), "{json}");
        assert!(json.contains("\"dropped\":1"), "{json}");
        assert!(json.contains("\"503\":2"), "{json}");
    }

    #[test]
    fn job_bodies_are_distinct_by_seed() {
        let a = job_body(0, 100);
        let b = job_body(1, 100);
        assert_ne!(a, b);
        assert!(a.contains("\"seed\": 0"), "{a}");
        crate::api::parse_job_request(a.as_bytes()).expect("body parses as a job request");
    }
}
