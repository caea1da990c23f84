//! smrbench: the smrseek benchmark.
//!
//! ```text
//! smrbench --workload scramble|table1|daemon --seed N --seconds S --trace 0|1
//!          --smrseek PATH [--work-dir DIR]
//! ```
//!
//! Every workload sets up its inputs (and a `smrseek serve` daemon), then
//! spends its seconds in two phases: a replay phase that times
//! `Simulation` and `RunMatrix` over the workload's traces, and a job
//! phase that drives the daemon with a closed loop of clients. Every
//! simulated result is checked (serial, sharded, matrix and decomposed
//! replays must agree by digest; sampled daemon results must equal the
//! offline sweep byte for byte), and the last stdout line is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! run instead times the benchmark's own calls into each layer and
//! reports per-layer metrics, writes a Chrome trace, and prints a
//! self-time table.

mod daemon;
mod decompose;
mod inputs;
mod layers;
mod probe;
mod replay;
mod stats;

use daemon::Daemon;
use inputs::{Input, JobMix, Workload};
use probe::Untimed;
use replay::{configs, report_digest, References, ReplayTimes, CONFIG_NAMES};
use smrseek_sim::{RunReport, Simulation};
use stats::{median, percentile, Tally};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Submissions the job schedule is generated for (far more than a run
/// completes).
const SCHEDULE_JOBS: usize = 200_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smrseek: PathBuf,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smrseek) =
        (None, None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/smrbench");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--smrseek" => smrseek = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.unwrap_or(false),
        smrseek: smrseek.ok_or("--smrseek is required")?,
        work_dir,
    })
}

/// `VmHWM` (peak resident set) in KiB from a `/proc/<pid>/status` file.
pub fn peak_rss_kib(status_path: &str) -> u64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Removes the run's job-trace directory on every exit path.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

struct Setup {
    inputs: Vec<Input>,
    daemon: Daemon,
    setup_s: f64,
}

/// Generates, encodes and maps the replay traces and starts the daemon,
/// [`SETUP_REPS`] times; keeps the last and reports the median time.
fn setup(args: &Args) -> std::io::Result<Setup> {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let t = Instant::now();
        let inputs = inputs::replay_inputs(args.workload, args.seed);
        let daemon = Daemon::start(&args.smrseek, replay::threads().get())?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some((inputs, daemon));
    }
    let (inputs, daemon) = kept.expect("at least one set-up ran");
    Ok(Setup {
        inputs,
        daemon,
        setup_s: median(&times).unwrap_or(0.0),
    })
}

/// Checks the decomposed replay of every cell against `Simulation`: the
/// report digest, and its seek, log-structured and policy statistics.
pub fn check_fidelity(
    tally: &mut Tally,
    input: usize,
    config: usize,
    decomposed: &RunReport,
    engine: &RunReport,
    refs: &References,
) {
    let same_stats = decomposed.seeks == engine.seeks
        && decomposed.ls_stats == engine.ls_stats
        && decomposed.policy == engine.policy;
    tally.check(same_stats, || {
        format!(
            "decomposed replay of {} on input {input} diverges from Simulation: \
             seeks {:?} vs {:?}, ls {:?} vs {:?}, policy {:?} vs {:?}",
            CONFIG_NAMES[config],
            decomposed.seeks,
            engine.seeks,
            decomposed.ls_stats,
            engine.ls_stats,
            decomposed.policy,
            engine.policy
        )
    });
    let got = report_digest(decomposed);
    tally.check(got == refs.digests[input][config], || {
        format!(
            "decomposed report of {} on input {input} has digest {got:032x}, serial has {:032x}",
            CONFIG_NAMES[config], refs.digests[input][config]
        )
    });
}

/// Digests must repeat across processes: the first run of a (workload,
/// seed) by this build of the benchmark records them, later runs compare.
fn check_repeat(args: &Args, refs: &References, tally: &mut Tally) -> std::io::Result<()> {
    let text: String = refs
        .digests
        .iter()
        .flat_map(|row| row.iter().map(|d| format!("{d:032x}\n")))
        .collect();
    // A rebuilt benchmark may replay other inputs: key the record by the
    // executable's content, not only by workload and seed.
    let build = stats::digest(&std::fs::read(std::env::current_exe()?)?);
    let path = args.work_dir.join(format!(
        "digests-{}-{}-{:08x}.txt",
        args.workload.name(),
        args.seed,
        build as u32
    ));
    match std::fs::read_to_string(&path) {
        Ok(previous) => {
            tally.check(previous == text, || {
                format!(
                    "report digests differ from an earlier run ({})",
                    path.display()
                )
            });
        }
        Err(_) => {
            let _ = std::fs::write(&path, &text);
        }
    }
    Ok(())
}

fn run(args: &Args) -> std::io::Result<(Tally, Metrics)> {
    std::fs::create_dir_all(&args.work_dir)?;
    let jobs_dir = args.work_dir.join(format!("jobs-{}", std::process::id()));
    std::fs::create_dir_all(&jobs_dir)?;
    let _cleanup = RemoveOnDrop(jobs_dir.clone());
    let jobs_dir = std::fs::canonicalize(&jobs_dir)?;
    let mix = JobMix::new(args.workload, args.seed, SCHEDULE_JOBS, &jobs_dir);
    let setup = setup(args)?;
    let mut tally = Tally::default();
    let refs = References::compute(&setup.inputs);
    let seconds = Duration::from_secs(args.seconds);
    let replay_budget = seconds.mul_f64(args.workload.replay_share());
    let jobs = args
        .workload
        .jobs_for(seconds.saturating_sub(replay_budget));
    let metrics = if args.trace {
        traced(args, &setup, &mix, &refs, replay_budget, jobs, &mut tally)?
    } else {
        untraced(&setup, &mix, &refs, replay_budget, jobs, &mut tally)
    };
    check_repeat(args, &refs, &mut tally)?;
    Ok((tally, metrics))
}

fn untraced(
    setup: &Setup,
    mix: &JobMix,
    refs: &References,
    replay_budget: Duration,
    jobs: usize,
    tally: &mut Tally,
) -> Metrics {
    let times = replay::timed_phase(&setup.inputs, refs, replay_budget, tally);
    let jobs = daemon::run_phase(setup.daemon.addr, mix, jobs, false);
    tally.add(jobs.tally);
    // Untimed checks.
    replay::oracle(&setup.inputs, refs, tally);
    let configs = configs();
    for (i, input) in setup.inputs.iter().enumerate() {
        for (c, config) in configs.iter().enumerate() {
            let decomposed = decompose::replay(config, &input.map, &mut Untimed);
            let engine = Simulation::new(config).run_trace(&*input.map);
            check_fidelity(tally, i, c, &decomposed.report, &engine, refs);
        }
    }
    daemon::oracle(&jobs, mix, tally);

    let rss_kib = peak_rss_kib("/proc/self/status") + setup.daemon.peak_rss_kib();
    let mut m = Metrics::default();
    m.put("setup_s", setup.setup_s, "s");
    m.put("peak_rss_mib", rss_kib as f64 / 1024.0, "MiB");
    for (c, name) in [
        "nols_rec_per_s",
        "ls_rec_per_s",
        "ls_defrag_rec_per_s",
        "ls_prefetch_rec_per_s",
        "ls_cache_rec_per_s",
        "ls_adaptive_rec_per_s",
    ]
    .into_iter()
    .enumerate()
    {
        m.put(name, ReplayTimes::rate(&times.serial[c]), "rec/s");
    }
    m.put(
        "nols_sharded_rec_per_s",
        ReplayTimes::sharded_rate(&times.nols_sharded),
        "rec/s",
    );
    m.put(
        "ls_sharded_rec_per_s",
        ReplayTimes::sharded_rate(&times.ls_sharded),
        "rec/s",
    );
    m.put("sweep_s", ReplayTimes::time(&times.sweep_s), "s");
    m.put("job_p50_ms", jobs.p50_ms(), "ms");
    m.put("job_p99_ms", jobs.p99_ms(), "ms");
    m.put("jobs_per_s", jobs.jobs_per_s(), "1/s");
    let quartiles = |name: &str, v: &[f64]| {
        let q = |p| percentile(v, p).unwrap_or(0.0);
        eprintln!(
            "smrbench: {name}: n={} p25={} median={} p75={}",
            v.len(),
            q(0.25),
            median(v).unwrap_or(0.0),
            q(0.75)
        );
    };
    for (c, name) in CONFIG_NAMES.iter().enumerate() {
        quartiles(name, &times.serial[c]);
    }
    quartiles("nols_sharded", &times.nols_sharded);
    quartiles("ls_sharded", &times.ls_sharded);
    quartiles("sweep_s", &times.sweep_s);
    eprintln!(
        "smrbench: {} replay rounds, {} jobs ({} fresh) in {:.2} s, {} host CPU(s)",
        times.sweep_s.len(),
        jobs.samples.len(),
        jobs.samples.iter().filter(|s| s.fresh).count(),
        jobs.elapsed.as_secs_f64(),
        replay::threads()
    );
    m
}

fn traced(
    args: &Args,
    setup: &Setup,
    mix: &JobMix,
    refs: &References,
    replay_budget: Duration,
    jobs: usize,
    tally: &mut Tally,
) -> std::io::Result<Metrics> {
    let mut run = layers::replay(&setup.inputs, refs, replay_budget, tally);
    let jobs = daemon::run_phase(setup.daemon.addr, mix, jobs, true);
    tally.add(jobs.tally);
    daemon::oracle(&jobs, mix, tally);
    let metrics = layers::metrics(&run, &jobs);
    layers::print_self_times(&run, &jobs);
    run.events.extend(jobs.events);
    let path = args
        .work_dir
        .join(format!("trace-{}-{}.json", args.workload.name(), args.seed));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    smrseek_obs::chrome::write_trace(&mut file, &run.events)?;
    std::io::Write::flush(&mut file)?;
    println!(
        "chrome trace: {} ({} spans)",
        path.display(),
        run.events.len()
    );
    Ok(metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("smrbench: {msg}");
            std::process::exit(2);
        }
    };
    if !Path::new(&args.smrseek).is_file() {
        eprintln!(
            "smrbench: daemon binary {} not found",
            args.smrseek.display()
        );
        std::process::exit(2);
    }
    match run(&args) {
        Ok((tally, metrics)) => {
            println!(
                "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
                tally.correct(),
                tally.attempted,
                tally.failed,
                metrics.json()
            );
            if args.trace && tally.failed > 0 {
                eprintln!("smrbench: traced run FAILED its checks; per-layer numbers are void");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("smrbench: {e}");
            std::process::exit(1);
        }
    }
}
