//! The traced run: per-layer busy time from the benchmark's own spans
//! around each call into a layer, the counts that explain it, and the
//! self-time table.

use crate::daemon::{self, JobPhase, JobSample, ServerSpans};
use crate::decompose;
use crate::inputs::Input;
use crate::probe::{self, Slot, Timed, Untimed};
use crate::replay::{self, configs, report_digest, References, CONFIG_NAMES};
use crate::stats::{median, percentile, ratio, Tally};
use crate::{check_fidelity, Metrics};
use smrseek_obs::SpanEvent;
use smrseek_sim::{prepass_records_total, RunMatrix, RunReport, SimConfig, Simulation};
use smrseek_sim::{ShardPolicy, TraceSource};
use smrseek_stl::LsStats;
use std::time::{Duration, Instant};

/// One config's accumulators.
struct Traced {
    /// Untraced `Simulation::run_trace` host seconds.
    engine_s: f64,
    /// Traced decomposed host seconds (probe cost included).
    traced_s: f64,
    probe: Timed,
    records: u64,
    /// First-round reports, one per input.
    reports: Vec<RunReport>,
    prefetch_consulted: u64,
}

/// Everything the traced replay measured.
pub struct LayerRun {
    per: Vec<Traced>,
    shadow: Timed,
    /// Untraced shadow seconds per pass over all inputs.
    shadow_s: f64,
    shadow_inserts: u64,
    shadow_lookups: u64,
    shadow_segments: u64,
    prepass: u64,
    fallbacks: u64,
    parallel_eff: f64,
    overhead_ns: f64,
    pub events: Vec<SpanEvent>,
}

/// Alternates untraced `run_trace` and the traced decomposed replay per
/// config for `budget` (at least two rounds), checks the decomposed
/// replay against `Simulation` every time, then measures the map-only
/// shadow, the sharding prepass and the matrix's parallel efficiency.
pub fn replay(
    inputs: &[Input],
    refs: &References,
    budget: Duration,
    tally: &mut Tally,
) -> LayerRun {
    let epoch = Instant::now();
    let overhead_ns = probe::calibrate();
    let configs = configs();
    let mut per: Vec<Traced> = configs
        .iter()
        .map(|_| Traced {
            engine_s: 0.0,
            traced_s: 0.0,
            probe: Timed::new(epoch),
            records: 0,
            reports: Vec::new(),
            prefetch_consulted: 0,
        })
        .collect();
    let mut run = LayerRun {
        per: Vec::new(),
        shadow: Timed::new(epoch),
        shadow_s: 0.0,
        shadow_inserts: 0,
        shadow_lookups: 0,
        shadow_segments: 0,
        prepass: 0,
        fallbacks: 0,
        parallel_eff: 0.0,
        overhead_ns,
        events: Vec::new(),
    };
    let start = Instant::now();
    let mut rounds = 0u32;
    while rounds < 2 || start.elapsed() < budget {
        for (c, config) in configs.iter().enumerate() {
            let acc = &mut per[c];
            for (i, input) in inputs.iter().enumerate() {
                let t = Instant::now();
                let engine = Simulation::new(config).run_trace(&*input.map);
                acc.engine_s += t.elapsed().as_secs_f64();
                let t = Instant::now();
                let decomposed = decompose::replay(config, &input.map, &mut acc.probe);
                let d = t.elapsed();
                acc.traced_s += d.as_secs_f64();
                acc.records += input.map.len() as u64;
                run.events.push(SpanEvent {
                    name: format!("sim:decomposed {} {}", CONFIG_NAMES[c], input.name),
                    start_ns: t.duration_since(epoch).as_nanos() as u64,
                    dur_ns: d.as_nanos() as u64,
                    tid: 0,
                    depth: 0,
                });
                check_fidelity(tally, i, c, &decomposed.report, &engine, refs);
                if rounds == 0 {
                    if c == 1 {
                        let shadow = decompose::shadow(&input.map, &mut Untimed);
                        tally.check(shadow.map_digest == decomposed.map_digest, || {
                            format!("map-only shadow of input {i} ends in a different map than LS")
                        });
                    }
                    acc.prefetch_consulted += decomposed.prefetch_consulted;
                    acc.reports.push(decomposed.report);
                }
            }
        }
        for input in inputs {
            let t = Instant::now();
            std::hint::black_box(decompose::shadow(&input.map, &mut Untimed).segments);
            run.shadow_s += t.elapsed().as_secs_f64();
            let timed = decompose::shadow(&input.map, &mut run.shadow);
            if rounds == 0 {
                run.shadow_inserts += timed.inserts;
                run.shadow_lookups += timed.lookups;
                run.shadow_segments += timed.segments;
            }
        }
        rounds += 1;
    }
    run.shadow_s /= f64::from(rounds);
    run.per = per;

    let threads = replay::threads();
    let prepass_before = prepass_records_total();
    for (i, input) in inputs.iter().enumerate() {
        for c in [0, 1] {
            let report = Simulation::new(&configs[c])
                .shards(threads.get())
                .run_trace(&*input.map);
            run.fallbacks += u64::from(report.sharding.fallback_reason().is_some());
            tally.check(report_digest(&report) == refs.digests[i][c], || {
                format!("sharded {} differs on input {i}", CONFIG_NAMES[c])
            });
        }
    }
    run.prepass = prepass_records_total() - prepass_before;
    let sources: Vec<TraceSource> = inputs
        .iter()
        .map(|i| TraceSource::from_mmap(i.name.clone(), i.map.clone()))
        .collect();
    let t = Instant::now();
    let outcomes = RunMatrix::cross(&sources, &SimConfig::standard_sweep())
        .execute_with(threads, ShardPolicy::Auto);
    let sweep_s = t.elapsed().as_secs_f64();
    let cells_s: f64 = outcomes.iter().map(|o| o.metrics.wall.as_secs_f64()).sum();
    run.parallel_eff = cells_s / (sweep_s * threads.get() as f64);
    for acc in &run.per {
        run.events.extend(acc.probe.events.iter().cloned());
    }
    run.events.extend(run.shadow.events.iter().cloned());
    run
}

impl LayerRun {
    fn busy(&self, config: usize, slots: &[Slot]) -> f64 {
        slots
            .iter()
            .map(|&s| self.per[config].probe.busy_ns(s, self.overhead_ns))
            .sum()
    }

    fn calls(&self, config: usize, slot: Slot) -> f64 {
        self.per[config].probe.calls[slot as usize] as f64
    }

    /// Busy ns per call of `slot` under `config`.
    fn per_call(&self, config: usize, slot: Slot) -> f64 {
        ratio(self.busy(config, &[slot]), self.calls(config, slot))
    }

    /// `f` summed over `config`'s first-round `LsStats`.
    fn ls_sum(&self, config: usize, f: impl Fn(&LsStats) -> u64) -> f64 {
        self.per[config]
            .reports
            .iter()
            .filter_map(|r| r.ls_stats.as_ref())
            .map(f)
            .sum::<u64>() as f64
    }

    /// Busy ns summed over every config.
    fn busy_all(&self, slot: Slot) -> f64 {
        (0..self.per.len()).map(|c| self.busy(c, &[slot])).sum()
    }

    fn calls_all(&self, slot: Slot) -> f64 {
        (0..self.per.len()).map(|c| self.calls(c, slot)).sum()
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(run: &LayerRun, jobs: &JobPhase) -> Metrics {
    const LS: usize = 1;
    const DEFRAG: usize = 2;
    const PREFETCH: usize = 3;
    const CACHE: usize = 4;
    const ADAPTIVE: usize = 5;
    let stl = [Slot::StlRead, Slot::StlWrite];
    let ls = &run.per[LS];
    // Extra `apply_into` ns per record of a mechanism over plain LS.
    let extra_ns = |c: usize| (run.busy(c, &stl) - run.busy(LS, &stl)) / ls.records as f64;
    let records: f64 = run.per.iter().map(|a| a.records as f64).sum();
    let engine_s: f64 = run.per.iter().map(|a| a.engine_s).sum();
    let traced_s: f64 = run.per.iter().map(|a| a.traced_s).sum();
    let layer_ns: f64 = run
        .per
        .iter()
        .map(|a| a.probe.total_busy_ns(run.overhead_ns))
        .sum();
    let rounds = ls.records as f64 / ls.reports.iter().map(|r| r.logical_ops).sum::<u64>() as f64;
    let reads = run.ls_sum(LS, |s| s.logical_reads);
    let writes = run.ls_sum(LS, |s| s.logical_writes);
    let adaptive = &run.per[ADAPTIVE].reports;
    let mut tiers = smrseek_cache::TierStats::default();
    for t in adaptive.iter().filter_map(|r| r.cache_tiers) {
        tiers.merge(&t);
    }
    let flips: u64 = adaptive
        .iter()
        .filter_map(|r| r.policy.map(|p| p.total_flips()))
        .sum();
    let (seeks, ios) = run
        .per
        .iter()
        .flat_map(|a| a.reports.iter())
        .fold((0u64, 0u64), |(s, o), r| {
            (s + r.seeks.total(), o + r.seeks.ops)
        });
    let samples = &jobs.samples;
    let connect: Vec<f64> = samples.iter().map(|s| s.connect_us).collect();
    let span_median = |f: fn(&ServerSpans) -> f64| {
        median(&jobs.server_spans.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };

    let mut m = Metrics::default();
    m.put(
        "trace.decode_ns",
        run.busy_all(Slot::Decode) / records,
        "ns",
    );
    let shadow_per_call = |slot: Slot| {
        ratio(
            run.shadow.busy_ns(slot, run.overhead_ns),
            run.shadow.calls[slot as usize] as f64,
        )
    };
    m.put("extent.insert_ns", shadow_per_call(Slot::MapInsert), "ns");
    m.put("extent.insert_calls", run.shadow_inserts as f64, "count");
    m.put(
        "extent.busy_frac",
        ratio(run.shadow_s, ls.engine_s / rounds),
        "ratio",
    );
    m.put("extent.lookup_ns", shadow_per_call(Slot::MapLookup), "ns");
    m.put("extent.lookup_calls", run.shadow_lookups as f64, "count");
    m.put(
        "extent.segments_per_lookup",
        ratio(run.shadow_segments as f64, run.shadow_lookups as f64),
        "count",
    );
    m.put(
        "extent.segments_peak",
        ls.reports
            .iter()
            .map(|r| r.peak_extent_segments)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
    m.put("stl.read_ns", run.per_call(LS, Slot::StlRead), "ns");
    m.put("stl.write_ns", run.per_call(LS, Slot::StlWrite), "ns");
    m.put("stl.defrag_ns", extra_ns(DEFRAG), "ns");
    m.put("stl.prefetch_ns", extra_ns(PREFETCH), "ns");
    m.put("stl.cache_ns", extra_ns(CACHE), "ns");
    m.put(
        "stl.phys_ios_per_op",
        ratio(
            run.ls_sum(LS, |s| s.phys_reads + s.phys_writes),
            reads + writes,
        ),
        "ratio",
    );
    m.put(
        "stl.fragmented_read_frac",
        ratio(run.ls_sum(LS, |s| s.fragmented_reads), reads),
        "ratio",
    );
    m.put(
        "stl.defrag_rewrites",
        run.ls_sum(DEFRAG, |s| s.defrag_rewrites),
        "count",
    );
    m.put(
        "stl.prefetch_hit_frac",
        ratio(
            run.ls_sum(PREFETCH, |s| s.prefetch_hit_fragments),
            run.per[PREFETCH].prefetch_consulted as f64,
        ),
        "ratio",
    );
    m.put(
        "stl.cache_hit_frac",
        ratio(
            run.ls_sum(CACHE, |s| s.cache_hit_fragments),
            run.ls_sum(CACHE, |s| s.cache_hit_fragments + s.cache_miss_fragments),
        ),
        "ratio",
    );
    m.put("cache.hit_frac", tiers.hit_rate(), "ratio");
    m.put(
        "cache.flash_hit_frac",
        ratio(
            tiers.flash_hits as f64,
            (tiers.ram_hits + tiers.flash_hits + tiers.misses) as f64,
        ),
        "ratio",
    );
    m.put(
        "policy.observe_ns",
        run.per_call(ADAPTIVE, Slot::PolicyObserve),
        "ns",
    );
    m.put("policy.gate_flips", flips as f64, "count");
    m.put(
        "disk.observe_ns",
        ratio(
            run.busy_all(Slot::DiskObserve),
            run.calls_all(Slot::DiskObserve),
        ),
        "ns",
    );
    m.put("disk.ios", ios as f64, "count");
    m.put("disk.seek_rate", ratio(seeks as f64, ios as f64), "ratio");
    m.put("sim.glue_ns", (engine_s * 1e9 - layer_ns) / records, "ns");
    m.put("sim.prepass_records", run.prepass as f64, "count");
    m.put("sim.shard_fallbacks", run.fallbacks as f64, "count");
    m.put("sim.parallel_eff", run.parallel_eff, "ratio");
    m.put(
        "net.connect_us.p50",
        percentile(&connect, 0.5).unwrap_or(0.0),
        "us",
    );
    m.put(
        "net.connect_us.p99",
        percentile(&connect, 0.99).unwrap_or(0.0),
        "us",
    );
    m.put(
        "server.submit_us.p50",
        daemon::median_of(samples, |s| Some(s.submit_us)),
        "us",
    );
    m.put(
        "server.result_us.p50",
        daemon::median_of(samples, |s| Some(s.result_us)),
        "us",
    );
    m.put("server.dispatch_us", span_median(|s| s.dispatch_us), "us");
    m.put("server.queue_ms", span_median(|s| s.queue_ms), "ms");
    m.put("server.replay_ms", span_median(|s| s.replay_ms), "ms");
    m.put(
        "server.wait_ms",
        daemon::median_of(samples, |s| s.wait_ms),
        "ms",
    );
    m.put(
        "server.cache_hit_frac",
        ratio(
            samples.iter().filter(|s| s.cache_hit).count() as f64,
            samples.len() as f64,
        ),
        "ratio",
    );
    m.put(
        "bench.trace_overhead_frac",
        traced_s / engine_s - 1.0,
        "ratio",
    );
    m
}

/// Prints busy time per layer function and per layer, and the engine's
/// self time: what `run_trace` spends outside the decomposed calls.
pub fn print_self_times(run: &LayerRun, jobs: &JobPhase) {
    let overhead = run.overhead_ns;
    println!("per-layer self time (probe cost {overhead:.1} ns/call removed)");
    println!(
        "{:<44} {:>12} {:>14} {:>10}",
        "span", "calls", "self ms", "ns/call"
    );
    let row = |name: &str, calls: f64, ns: f64| {
        println!(
            "{name:<44} {calls:>12.0} {:>14.3} {:>10.1}",
            ns / 1e6,
            ratio(ns, calls)
        );
    };
    let glue = |a: &Traced| a.engine_s * 1e9 - a.probe.total_busy_ns(overhead);
    for (c, acc) in run.per.iter().enumerate() {
        println!("-- {}: {} records", CONFIG_NAMES[c], acc.records);
        for slot in Slot::ALL {
            if acc.probe.calls[slot as usize] > 0 {
                row(slot.name(), run.calls(c, slot), run.busy(c, &[slot]));
            }
        }
        row(
            "sim:run_trace outside layer calls",
            acc.records as f64,
            glue(acc),
        );
    }
    println!("-- per layer, all configs");
    for layer in ["trace", "policy", "stl", "disk"] {
        let slots = Slot::ALL.into_iter().filter(|s| s.layer() == layer);
        let (calls, ns) = slots.fold((0.0, 0.0), |(c, n), s| {
            (c + run.calls_all(s), n + run.busy_all(s))
        });
        row(layer, calls, ns);
    }
    let records: u64 = run.per.iter().map(|a| a.records).sum();
    row(
        "sim (run_trace self time)",
        records as f64,
        run.per.iter().map(glue).sum(),
    );
    println!("-- extent, map-only shadow replay");
    for slot in [Slot::MapInsert, Slot::MapLookup] {
        row(
            slot.name(),
            run.shadow.calls[slot as usize] as f64,
            run.shadow.busy_ns(slot, overhead),
        );
    }
    println!("-- net and server: {} job cycles", jobs.samples.len());
    let total = |f: fn(&JobSample) -> f64| jobs.samples.iter().map(f).sum::<f64>();
    let n = jobs.samples.len() as f64;
    row("net:connect (submit)", n, total(|s| s.connect_us) * 1e3);
    row("server:submit", n, total(|s| s.submit_us) * 1e3);
    row("server:result", n, total(|s| s.result_us) * 1e3);
    let waits: Vec<f64> = jobs.samples.iter().filter_map(|s| s.wait_ms).collect();
    row(
        "server:wait(sse)",
        waits.len() as f64,
        waits.iter().sum::<f64>() * 1e6,
    );
}
