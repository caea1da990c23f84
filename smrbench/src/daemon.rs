//! The job phase: `smrseek serve` in a child process, driven by a closed
//! loop of client connections from this process. Each client submits a
//! standard-sweep job and waits for it: on a 202 it follows the job's SSE
//! stream to `done`, then fetches `/result`. A submit→result cycle is one
//! operation; a dropped connection, an error status or a 503 fails it.

use crate::inputs::{JobMix, JobTrace};
use crate::stats::{median, percentile, Tally};
use smrseek_obs::SpanEvent;
use smrseek_sim::experiments::ExpOptions;
use smrseek_sim::runner::{RunMatrix, TraceSource};
use smrseek_sim::{saf, SimConfig};
use smrseek_trace::binary::MmapTrace;
use smrseek_workloads::profiles;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Client connections in the closed loop.
pub const CLIENTS: usize = 2;
/// The fewest cycles a job phase runs, so that ten samples lie beyond the
/// reported p99.
pub const MIN_JOBS: usize = 1100;
/// Completions per window of the throughput samples.
const RATE_WINDOW: usize = 200;
/// Hard stop for the job phase, however many cycles remain.
const PHASE_DEADLINE: Duration = Duration::from_secs(90);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `smrseek serve` child. Dropping it kills and reaps it.
pub struct Daemon {
    child: Child,
    // Held open so the daemon's later stdout writes never hit a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon with `workers` workers on an ephemeral port and
    /// waits until it answers `/healthz`.
    pub fn start(bin: &Path, workers: usize) -> std::io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--workers"])
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .rsplit("http://")
            .next()
            .and_then(|a| a.parse().ok());
        // Built before the address is checked, so that an error return
        // still kills and reaps the child.
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
        };
        daemon.addr = addr.ok_or_else(|| {
            std::io::Error::other(format!("daemon did not report its address: {line:?}"))
        })?;
        let reply = exchange(daemon.addr, &get("/healthz"))?;
        if reply.status != 200 {
            return Err(std::io::Error::other("daemon /healthz is not 200"));
        }
        Ok(daemon)
    }

    /// The daemon's peak resident set in KiB.
    pub fn peak_rss_kib(&self) -> u64 {
        crate::peak_rss_kib(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One HTTP response, read to EOF (the daemon closes every connection).
pub struct Reply {
    pub status: u16,
    pub head: String,
    pub body: Vec<u8>,
    /// Time to establish the TCP connection.
    pub connect: Duration,
    /// Time from connected to the last response byte.
    pub exchange: Duration,
}

impl Reply {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (k, v) = line.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    fn json(&self) -> Option<serde::Value> {
        serde_json::from_str(std::str::from_utf8(&self.body).ok()?).ok()
    }
}

fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n").into_bytes()
}

fn post(target: &str, body: &str, trace_header: &str) -> Vec<u8> {
    format!(
        "POST {target} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\n\
         {}: {trace_header}\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{body}",
        smrseek_obs::dtrace::TRACE_HEADER,
        body.len()
    )
    .into_bytes()
}

/// Connects, sends `request`, and reads the response to EOF.
pub fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<Reply> {
    let t = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    let connect = t.elapsed();
    let t = Instant::now();
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.write_all(request)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let exchange = t.elapsed();
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| std::io::Error::other("response has no header terminator"))?;
    let head = String::from_utf8_lossy(&raw[..split]).into_owned();
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other("response has no status"))?;
    let body = raw[split + 4..].to_vec();
    let reply = Reply {
        status,
        head,
        body,
        connect,
        exchange,
    };
    if let Some(len) = reply
        .header("content-length")
        .and_then(|v| v.parse::<usize>().ok())
    {
        if len != reply.body.len() {
            return Err(std::io::Error::other("truncated response body"));
        }
    }
    Ok(reply)
}

/// One completed submit→result cycle.
pub struct JobSample {
    pub latency: Duration,
    /// When the cycle completed, from the start of the phase.
    pub done_at: Duration,
    pub connect_us: f64,
    pub submit_us: f64,
    pub result_us: f64,
    /// 202 → SSE `done`, for submissions that had to wait.
    pub wait_ms: Option<f64>,
    pub fresh: bool,
    pub cache_hit: bool,
}

/// Daemon-side spans of one fresh job, from `GET /v1/trace/<id>`.
#[derive(Default, Clone, Copy)]
pub struct ServerSpans {
    pub dispatch_us: f64,
    pub queue_ms: f64,
    pub replay_ms: f64,
}

/// What the job phase observed.
#[derive(Default)]
pub struct JobPhase {
    pub samples: Vec<JobSample>,
    pub elapsed: Duration,
    pub tally: Tally,
    /// Result documents of the keys the oracle replays offline.
    pub results: Vec<(u32, Vec<u8>)>,
    pub server_spans: Vec<ServerSpans>,
    pub events: Vec<SpanEvent>,
}

impl JobPhase {
    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    pub fn p50_ms(&self) -> f64 {
        percentile(&self.latencies_ms(), 0.50).unwrap_or(0.0)
    }

    pub fn p99_ms(&self) -> f64 {
        percentile(&self.latencies_ms(), 0.99).unwrap_or(0.0)
    }

    /// Lower-quartile throughput over windows of [`RATE_WINDOW`]
    /// consecutive completions (the same statistic as the replay rates;
    /// see `ReplayTimes::rate`).
    pub fn jobs_per_s(&self) -> f64 {
        let mut done: Vec<f64> = self
            .samples
            .iter()
            .map(|s| s.done_at.as_secs_f64())
            .collect();
        done.sort_by(f64::total_cmp);
        let rates: Vec<f64> = done
            .windows(RATE_WINDOW + 1)
            .step_by(RATE_WINDOW)
            .map(|w| RATE_WINDOW as f64 / (w[RATE_WINDOW] - w[0]))
            .collect();
        crate::replay::ReplayTimes::rate(&rates)
    }
}

/// Whether key `k`'s result is kept for the offline byte comparison.
fn oracle_key(k: u32) -> bool {
    k < 2 || k.is_multiple_of(16)
}

/// Clock for spans: nanoseconds since `epoch`, on the Unix timeline the
/// daemon's spans use.
struct Clock {
    epoch_unix_ns: u64,
    epoch: Instant,
}

impl Clock {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }
}

/// Spans of client-side work kept per phase for the Chrome trace.
const KEEP_JOB_SPANS: usize = 400;

struct Shared<'a> {
    addr: SocketAddr,
    mix: &'a JobMix,
    first_use: Vec<bool>,
    next: AtomicUsize,
    start: Instant,
    jobs: usize,
    traced: bool,
    clock: Clock,
    out: Mutex<JobPhase>,
}

/// Runs the closed loop for the first `jobs` submissions of the schedule.
/// A fixed count, not a time budget, keeps the work (and the daemon's
/// result cache and trace registry) the same size in every run.
pub fn run_phase(addr: SocketAddr, mix: &JobMix, jobs: usize, traced: bool) -> JobPhase {
    let jobs = jobs.clamp(MIN_JOBS, mix.schedule.len());
    let mut seen = vec![false; mix.keys.len()];
    let first_use = mix
        .schedule
        .iter()
        .map(|&k| !std::mem::replace(&mut seen[k as usize], true))
        .collect();
    let shared = Shared {
        addr,
        mix,
        first_use,
        next: AtomicUsize::new(0),
        start: Instant::now(),
        jobs,
        traced,
        clock: Clock {
            epoch_unix_ns: smrseek_obs::unix_nanos(),
            epoch: Instant::now(),
        },
        out: Mutex::new(JobPhase::default()),
    };
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let shared = &shared;
            scope.spawn(move || client_loop(shared, client as u64 + 1));
        }
    });
    let mut phase = shared.out.into_inner().expect("no client panicked");
    phase.elapsed = shared.start.elapsed();
    // Every repeat submission must be a result-cache hit and every first
    // submission of a key a miss: an exact count, when nothing failed.
    if phase.tally.failed == 0 {
        let hits = phase.samples.iter().filter(|s| s.cache_hit).count();
        let repeats = phase.samples.iter().filter(|s| !s.fresh).count();
        phase.tally.check(hits == repeats, || {
            format!("daemon reported {hits} cache hits for {repeats} repeat submissions")
        });
    }
    phase
}

fn client_loop(shared: &Shared, tid: u64) {
    loop {
        if shared.start.elapsed() >= PHASE_DEADLINE {
            return;
        }
        let j = shared.next.fetch_add(1, Ordering::Relaxed);
        if j >= shared.jobs {
            return;
        }
        let k = shared.mix.schedule[j];
        let fresh = shared.first_use[j];
        let key = &shared.mix.keys[k as usize];
        if let Err(e) = key.materialize() {
            let mut out = shared.out.lock().expect("no client panicked");
            out.tally
                .check(false, || format!("cannot write job trace: {e}"));
            continue;
        }
        let result = cycle(shared, key, k, fresh, tid);
        let mut out = shared.out.lock().expect("no client panicked");
        match result {
            Ok(cycle) => {
                out.tally.check(true, String::new);
                if out.events.len() < KEEP_JOB_SPANS * 4 {
                    out.events.extend(cycle.events);
                }
                if let Some(doc) = cycle.result_doc {
                    out.results.push((k, doc));
                }
                if let Some(spans) = cycle.server_spans {
                    out.server_spans.push(spans);
                }
                out.samples.push(cycle.sample);
            }
            Err(msg) => {
                out.tally
                    .check(false, || format!("job {j} (key {k}): {msg}"));
            }
        }
    }
}

struct Cycle {
    sample: JobSample,
    result_doc: Option<Vec<u8>>,
    server_spans: Option<ServerSpans>,
    events: Vec<SpanEvent>,
}

fn cycle(shared: &Shared, key: &JobTrace, k: u32, fresh: bool, tid: u64) -> Result<Cycle, String> {
    let addr = shared.addr;
    let ctx = smrseek_obs::TraceContext::mint();
    let t0 = Instant::now();
    let submit = exchange(addr, &post("/v1/jobs", &key.body(), &ctx.header_value()))
        .map_err(|e| format!("submit: {e}"))?;
    let submitted = Instant::now();
    let envelope = submit.json().ok_or("submit body is not JSON")?;
    let (id, status, cache) = match submit.status {
        202 | 200 => (
            envelope
                .get("id")
                .and_then(|v| v.as_u64())
                .ok_or("no job id")?,
            envelope
                .get("status")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_owned(),
            envelope
                .get("cache")
                .and_then(|v| v.as_str())
                .unwrap_or("")
                .to_owned(),
        ),
        other => return Err(format!("submit answered {other}")),
    };
    let mut wait_ms = None;
    let mut sse_span = None;
    if status != "done" {
        let t = Instant::now();
        let events = exchange(addr, &get(&format!("/v1/jobs/{id}/events")))
            .map_err(|e| format!("events: {e}"))?;
        if events.status != 200 {
            return Err(format!("events answered {}", events.status));
        }
        if !String::from_utf8_lossy(&events.body).contains("event: done") {
            return Err("event stream closed without `done`".into());
        }
        wait_ms = Some(submitted.elapsed().as_secs_f64() * 1e3);
        sse_span = Some((t, t.elapsed()));
    }
    let t_result = Instant::now();
    let result = exchange(addr, &get(&format!("/v1/jobs/{id}/result")))
        .map_err(|e| format!("result: {e}"))?;
    if result.status != 200 {
        return Err(format!("result answered {}", result.status));
    }
    let latency = t0.elapsed();
    let mut server_spans = None;
    let mut events = Vec::new();
    if shared.traced {
        let clock = &shared.clock;
        let mut push = |name: &str, start: Instant, dur: Duration| {
            events.push(SpanEvent {
                name: name.to_owned(),
                start_ns: clock.ns(start),
                dur_ns: dur.as_nanos() as u64,
                tid,
                depth: 1,
            })
        };
        push("job", t0, latency);
        push("net:connect", t0, submit.connect);
        push("server:submit", t0 + submit.connect, submit.exchange);
        if let Some((t, d)) = sse_span {
            push("server:wait(sse)", t, d);
        }
        push("net:connect", t_result, result.connect);
        push("server:result", t_result + result.connect, result.exchange);
        if let Some(events) = events.first_mut() {
            events.depth = 0;
        }
        if cache == "miss" {
            let (spans, dist) = fetch_server_spans(addr, &ctx.trace_hex(), clock)?;
            server_spans = Some(spans);
            events.extend(dist);
        }
    }
    Ok(Cycle {
        sample: JobSample {
            latency,
            done_at: shared.start.elapsed(),
            connect_us: submit.connect.as_secs_f64() * 1e6,
            submit_us: submit.exchange.as_secs_f64() * 1e6,
            result_us: result.exchange.as_secs_f64() * 1e6,
            wait_ms,
            fresh,
            cache_hit: cache == "hit",
        },
        result_doc: (fresh && oracle_key(k)).then_some(result.body),
        server_spans,
        events,
    })
}

/// The daemon's `dispatch`, `queue` and `replay` spans of one trace, as
/// durations and as Chrome events on the benchmark's timeline.
fn fetch_server_spans(
    addr: SocketAddr,
    trace_hex: &str,
    clock: &Clock,
) -> Result<(ServerSpans, Vec<SpanEvent>), String> {
    let reply = exchange(addr, &get(&format!("/v1/trace/{trace_hex}")))
        .map_err(|e| format!("trace: {e}"))?;
    if reply.status != 200 {
        return Err(format!("trace answered {}", reply.status));
    }
    let doc = reply.json().ok_or("trace body is not JSON")?;
    let mut spans = ServerSpans::default();
    let mut events = Vec::new();
    for span in doc
        .get("spans")
        .and_then(|s| s.as_array())
        .ok_or("no spans")?
    {
        let name = span.get("name").and_then(|v| v.as_str()).unwrap_or("");
        let dur_ns = span.get("dur_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        let start = span
            .get("start_unix_ns")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        match name {
            "dispatch" => spans.dispatch_us = dur_ns as f64 / 1e3,
            "queue" => spans.queue_ms = dur_ns as f64 / 1e6,
            "replay" => spans.replay_ms = dur_ns as f64 / 1e6,
            _ => {}
        }
        events.push(SpanEvent {
            name: format!("server:{name}"),
            start_ns: start.saturating_sub(clock.epoch_unix_ns),
            dur_ns,
            tid: 100 + span.get("tid").and_then(|v| v.as_u64()).unwrap_or(0),
            depth: 1,
        });
    }
    Ok((spans, events))
}

/// The result document an offline sweep of `key` produces — what the
/// daemon's `/result` must equal byte for byte.
pub fn offline_result(key: &JobTrace) -> std::io::Result<Vec<u8>> {
    let source = match key {
        JobTrace::Profile { name, seed, ops } => {
            let profile = profiles::by_name(name).expect("job profiles are Table-I names");
            TraceSource::from_profile(
                &profile,
                &ExpOptions {
                    seed: *seed,
                    ops: *ops as usize,
                },
            )
        }
        JobTrace::ScrambleFile { path, .. } => {
            let map = MmapTrace::open(path).map_err(|e| std::io::Error::other(e.to_string()))?;
            TraceSource::from_mmap(path.display().to_string(), Arc::new(map))
        }
    };
    let outcomes =
        RunMatrix::cross(&[source], &SimConfig::standard_sweep()).execute(crate::replay::threads());
    let doc = serde_json::to_string_pretty(&saf::sweep_safs(&outcomes))
        .map_err(|e| std::io::Error::other(e.to_string()))?;
    Ok(doc.into_bytes())
}

/// Byte-compares every kept daemon result with its offline replay.
pub fn oracle(phase: &JobPhase, mix: &JobMix, tally: &mut Tally) {
    for (k, doc) in &phase.results {
        let key = &mix.keys[*k as usize];
        match offline_result(key) {
            Ok(offline) => tally.check(&offline == doc, || {
                format!("daemon result for key {k} differs from the offline sweep")
            }),
            Err(e) => tally.check(false, || format!("offline replay of key {k}: {e}")),
        };
    }
}

/// Median of `f` over the samples it is defined for.
pub fn median_of(samples: &[JobSample], f: impl Fn(&JobSample) -> Option<f64>) -> f64 {
    median(&samples.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(done_ms: u64, latency_ms: u64) -> JobSample {
        JobSample {
            latency: Duration::from_millis(latency_ms),
            done_at: Duration::from_millis(done_ms),
            connect_us: 0.0,
            submit_us: 0.0,
            result_us: 0.0,
            wait_ms: None,
            fresh: false,
            cache_hit: true,
        }
    }

    #[test]
    fn throughput_is_the_lower_quartile_of_windows() {
        // 1000 cycles one per ms, then 1000 one per 2 ms: windows of 200
        // read 1000/s and 500/s; the lower quartile is the slower level.
        let samples = (1..=1000)
            .map(|i| sample(i, 1))
            .chain((1..=1000).map(|i| sample(1000 + 2 * i, 1)))
            .collect();
        let phase = JobPhase {
            samples,
            ..JobPhase::default()
        };
        assert!((phase.jobs_per_s() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn latency_percentiles_are_nearest_rank() {
        let phase = JobPhase {
            samples: (1..=1000).map(|i| sample(i, i)).collect(),
            ..JobPhase::default()
        };
        assert_eq!(phase.p50_ms(), 500.0);
        assert_eq!(phase.p99_ms(), 990.0);
    }
}
