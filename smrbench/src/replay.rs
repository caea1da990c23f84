//! The replay phase: serial, sharded and matrix replays of a workload's
//! traces through `Simulation` and `RunMatrix`, timed on the host clock,
//! with every report checked against the serial reference by digest.

use crate::inputs::Input;
use crate::stats::{digest, percentile, Tally};
use smrseek_sim::runner::{RunMatrix, ShardPolicy, TraceSource};
use smrseek_sim::{RunReport, SimConfig, Simulation};
use std::num::NonZeroUsize;
use std::time::{Duration, Instant};

/// The six configurations every replay workload is timed under.
pub const CONFIG_NAMES: [&str; 6] = [
    "nols",
    "ls",
    "ls_defrag",
    "ls_prefetch",
    "ls_cache",
    "ls_adaptive",
];

pub fn configs() -> [SimConfig; 6] {
    [
        SimConfig::no_ls(),
        SimConfig::log_structured(),
        SimConfig::ls_defrag(),
        SimConfig::ls_prefetch(),
        SimConfig::ls_cache(),
        SimConfig::ls_adaptive(),
    ]
}

/// Index of a standard-sweep config within [`configs`] (the sweep is the
/// first five).
const SWEEP_CONFIGS: usize = 5;

/// A timed sample is extended by whole passes until it lasts this long, so
/// fast configs are not timed on a few milliseconds.
const MIN_SAMPLE: Duration = Duration::from_millis(50);
/// The same for sharded and matrix samples, whose thread start-up and
/// scheduling on a small host vary more from pass to pass.
const MIN_PARALLEL_SAMPLE: Duration = Duration::from_millis(200);

/// Rounds the phase always completes, whatever the time budget.
const MIN_ROUNDS: usize = 3;

/// The serialized report's digest: what "the same result" means.
pub fn report_digest(report: &RunReport) -> u128 {
    digest(
        serde_json::to_string(report)
            .expect("reports serialize")
            .as_bytes(),
    )
}

/// Reference digests, one per (input, config), from the first serial
/// replay; every later replay of the same cell must reproduce them.
pub struct References {
    pub digests: Vec<[u128; 6]>,
}

impl References {
    /// Serial replays of every cell (untimed).
    pub fn compute(inputs: &[Input]) -> References {
        let configs = configs();
        let digests = inputs
            .iter()
            .map(|input| {
                let mut row = [0u128; 6];
                for (slot, config) in row.iter_mut().zip(&configs) {
                    *slot = report_digest(&Simulation::new(config).run_trace(&*input.map));
                }
                row
            })
            .collect();
        References { digests }
    }

    fn check(&self, tally: &mut Tally, input: usize, config: usize, report: &RunReport, how: &str) {
        let got = report_digest(report);
        tally.check(got == self.digests[input][config], || {
            format!(
                "{how} report of config {} on input {input} has digest {got:032x}, serial has {:032x}",
                CONFIG_NAMES[config], self.digests[input][config]
            )
        });
    }
}

/// Per-round samples of every timed replay.
#[derive(Default)]
pub struct ReplayTimes {
    /// Records per host second, per config, serial.
    pub serial: [Vec<f64>; 6],
    pub nols_sharded: Vec<f64>,
    pub ls_sharded: Vec<f64>,
    /// Wall seconds of the standard-sweep matrix.
    pub sweep_s: Vec<f64>,
}

impl ReplayTimes {
    /// The run's lower-quartile throughput of a set of rate samples.
    ///
    /// The host's speed moves in episodes of seconds (shared cores and
    /// caches), and the share of a run spent in fast episodes varies from
    /// run to run. The median flips between the two speeds as that share
    /// crosses one half; the lower quartile stays on the slower, steadier
    /// level.
    pub fn rate(samples: &[f64]) -> f64 {
        percentile(samples, 0.25).unwrap_or(0.0)
    }

    /// The same statistic for a time: the upper quartile of the samples.
    pub fn time(samples: &[f64]) -> f64 {
        percentile(samples, 0.75).unwrap_or(0.0)
    }

    /// The upper-quartile throughput of sharded samples. A sharded pass
    /// needs both CPUs at once, each for about a millisecond per trace;
    /// on a shared host the second CPU is intermittently taken or asleep,
    /// and waking it costs a good part of that. The upper quartile
    /// measures the passes that had both CPUs, which is what sharding can
    /// deliver; the lower quartile tracks the host's other tenants.
    pub fn sharded_rate(samples: &[f64]) -> f64 {
        percentile(samples, 0.75).unwrap_or(0.0)
    }
}

pub fn threads() -> NonZeroUsize {
    std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN)
}

/// Records per second of repeated passes over `records` records each,
/// extended to at least `min`. `pass` returns the time it spent
/// replaying, which leaves its report checks off the clock.
fn sample(records: u64, min: Duration, mut pass: impl FnMut() -> Duration) -> f64 {
    let mut spent = Duration::ZERO;
    let mut passes = 0u64;
    while passes == 0 || spent < min {
        spent += pass();
        passes += 1;
    }
    (records * passes) as f64 / spent.as_secs_f64()
}

/// Replays every input under `config` (sharded when `shards > 1`),
/// checking each report; returns the replay time.
fn pass(
    inputs: &[Input],
    refs: &References,
    config: usize,
    shards: usize,
    tally: &mut Tally,
) -> Duration {
    let config_value = configs()[config];
    let mut spent = Duration::ZERO;
    for (i, input) in inputs.iter().enumerate() {
        let t = Instant::now();
        let report = Simulation::new(&config_value)
            .shards(shards)
            .run_trace(&*input.map);
        spent += t.elapsed();
        refs.check(
            tally,
            i,
            config,
            &report,
            if shards > 1 { "sharded" } else { "serial" },
        );
    }
    spent
}

/// Times serial, sharded and matrix replays round-robin until `budget` is
/// spent (and at least [`MIN_ROUNDS`] rounds ran), checking every report.
pub fn timed_phase(
    inputs: &[Input],
    refs: &References,
    budget: Duration,
    tally: &mut Tally,
) -> ReplayTimes {
    let configs = configs();
    let threads = threads();
    let records: u64 = inputs.iter().map(|i| i.map.len() as u64).sum();
    let sources: Vec<TraceSource> = inputs
        .iter()
        .map(|i| TraceSource::from_mmap(i.name.clone(), i.map.clone()))
        .collect();
    let sweep = RunMatrix::cross(&sources, &SimConfig::standard_sweep());
    let mut times = ReplayTimes::default();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < budget {
        rounds += 1;
        for c in 0..configs.len() {
            let rate = sample(records, MIN_SAMPLE, || pass(inputs, refs, c, 1, tally));
            times.serial[c].push(rate);
        }
        // NoLS shards directly; LS pays a serial transition prepass.
        let shards = threads.get();
        let rate = sample(records, MIN_PARALLEL_SAMPLE, || {
            pass(inputs, refs, 0, shards, tally)
        });
        times.nols_sharded.push(rate);
        let rate = sample(records, MIN_PARALLEL_SAMPLE, || {
            pass(inputs, refs, 1, shards, tally)
        });
        times.ls_sharded.push(rate);
        let (mut spent, mut sweeps) = (Duration::ZERO, 0u32);
        while sweeps == 0 || spent < MIN_PARALLEL_SAMPLE {
            let t = Instant::now();
            let outcomes = sweep.execute_with(threads, ShardPolicy::Auto);
            spent += t.elapsed();
            sweeps += 1;
            for (k, outcome) in outcomes.iter().enumerate() {
                refs.check(
                    tally,
                    k / SWEEP_CONFIGS,
                    k % SWEEP_CONFIGS,
                    &outcome.report,
                    "matrix",
                );
            }
        }
        times.sweep_s.push(spent.as_secs_f64() / f64::from(sweeps));
    }
    times
}

/// The untimed oracle: every config's sharded replay (at least two
/// shards, so it shards even on one CPU) and a six-config matrix must
/// reproduce the serial digests.
pub fn oracle(inputs: &[Input], refs: &References, tally: &mut Tally) {
    let configs = configs();
    let shards = threads().get().max(2);
    for (i, input) in inputs.iter().enumerate() {
        for (c, config) in configs.iter().enumerate() {
            let report = Simulation::new(config)
                .shards(shards)
                .run_trace(&*input.map);
            refs.check(tally, i, c, &report, "sharded");
        }
    }
    let sources: Vec<TraceSource> = inputs
        .iter()
        .map(|i| TraceSource::from_mmap(i.name.clone(), i.map.clone()))
        .collect();
    let outcomes = RunMatrix::cross(&sources, &configs).execute(threads());
    for (k, outcome) in outcomes.iter().enumerate() {
        refs.check(tally, k / 6, k % 6, &outcome.report, "matrix");
    }
}
