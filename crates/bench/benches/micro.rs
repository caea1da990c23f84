//! Substrate micro-benchmarks: the data structures on the simulator's hot
//! paths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smrseek_bench::{bench_trace, BENCH_OPS};
use smrseek_cache::{RangeCache, TieredCache};
use smrseek_extent::ExtentMap;
use smrseek_sim::{SimConfig, Simulation};
use smrseek_stl::count_misordered_writes;
use smrseek_trace::binary::{write_binary_v2, MmapTrace};
use smrseek_trace::parse::{parse_reader, CpParser};
use smrseek_trace::writer::write_cp_csv;
use smrseek_trace::{Lba, Pba, MIB};
use smrseek_workloads::Zipf;
use std::hint::black_box;
use std::io::{BufReader, BufWriter};

fn extent_map(c: &mut Criterion) {
    let mut group = c.benchmark_group("extent_map");
    let ops: Vec<(u64, u64, u64)> = {
        let mut rng = StdRng::seed_from_u64(1);
        (0..10_000u64)
            .map(|i| (rng.gen_range(0..1 << 20), rng.gen_range(1..64), i * 64))
            .collect()
    };
    group.throughput(Throughput::Elements(ops.len() as u64));
    group.bench_function("insert_10k_random", |b| {
        b.iter(|| {
            let mut map = ExtentMap::new();
            for &(lba, len, pba) in &ops {
                map.insert(Lba::new(lba), len, Pba::new(1 << 30 | pba));
            }
            black_box(map.len())
        })
    });

    let mut map = ExtentMap::new();
    for &(lba, len, pba) in &ops {
        map.insert(Lba::new(lba), len, Pba::new(1 << 30 | pba));
    }
    group.throughput(Throughput::Elements(1000));
    group.bench_function("lookup_1k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += map.lookup(Lba::new(q), 128).len();
            }
            black_box(total)
        })
    });
    // Same queries as lookup_1k, through the non-allocating visitor: the
    // delta between the two is the per-lookup Vec cost on the hot path.
    group.bench_function("lookup_each_1k", |b| {
        let mut rng = StdRng::seed_from_u64(2);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                map.lookup_each(Lba::new(q), 128, |_| total += 1);
            }
            black_box(total)
        })
    });
    group.bench_function("fragments_in_1k", |b| {
        let mut rng = StdRng::seed_from_u64(3);
        let queries: Vec<u64> = (0..1000).map(|_| rng.gen_range(0..1 << 20)).collect();
        b.iter(|| {
            let mut total = 0usize;
            for &q in &queries {
                total += map.fragments_in(Lba::new(q), 128);
            }
            black_box(total)
        })
    });

    // The shape `smrseek bench` and the benchmark's scramble workload put
    // on the map: 100k records over a 16 GiB span, 16-sector writes
    // appended at the frontier (~66k extents at the peak) and 8-sector
    // reads between them.
    let scramble_lba = |i: u64| i.wrapping_mul(1001).wrapping_mul(2654435761) % (1 << 22) * 8;
    let (reads, writes): (Vec<u64>, Vec<u64>) = (0..100_000u64).partition(|i| i % 3 == 0);
    let writes: Vec<u64> = writes.into_iter().map(scramble_lba).collect();
    let reads: Vec<u64> = reads.into_iter().map(scramble_lba).collect();
    let scramble = |writes: &[u64]| {
        let mut map = ExtentMap::new();
        for (k, &lba) in writes.iter().enumerate() {
            map.insert(Lba::new(lba), 16, Pba::new((1 << 25) + k as u64 * 16));
        }
        map
    };
    group.throughput(Throughput::Elements(writes.len() as u64));
    group.bench_function("insert_scramble_66k", |b| {
        b.iter(|| black_box(scramble(&writes).len()))
    });
    let map = scramble(&writes);
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("lookup_each_scramble_33k", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &lba in &reads {
                map.lookup_each(Lba::new(lba), 8, |_| total += 1);
            }
            black_box(total)
        })
    });
    group.finish();
}

fn caches(c: &mut Criterion) {
    let mut group = c.benchmark_group("caches");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("range_cache_mixed_10k", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let ops: Vec<(u64, bool)> = (0..10_000)
            .map(|_| (rng.gen_range(0..1u64 << 24), rng.gen_bool(0.5)))
            .collect();
        b.iter(|| {
            let mut cache = RangeCache::with_capacity_bytes(64 * MIB);
            let mut hits = 0u64;
            for &(pba, is_query) in &ops {
                if is_query {
                    hits += u64::from(cache.covers(Pba::new(pba), 32));
                } else {
                    cache.insert(Pba::new(pba), 32);
                }
            }
            black_box(hits)
        })
    });

    // The selective cache on a read-mostly trace (w91): ~8k small cached
    // fragments, re-read at random, a quarter of the reads also spanning
    // the next 8 sectors (cached half the time). Most queries hit and
    // refresh one or two entries.
    let mut rng = StdRng::seed_from_u64(6);
    let mut warm = RangeCache::with_capacity_bytes(64 * MIB);
    let starts: Vec<u64> = (0..16_384u64)
        .filter(|_| rng.gen_bool(0.5))
        .map(|slot| slot * 8)
        .collect();
    for &s in &starts {
        warm.insert(Pba::new(s), 8);
    }
    let reads: Vec<(u64, u64)> = (0..8192)
        .map(|_| {
            let s = starts[rng.gen_range(0..starts.len())];
            (s, if rng.gen_bool(0.25) { 16 } else { 8 })
        })
        .collect();
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("range_cache_hits_8k", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &(pba, len) in &reads {
                hits += u64::from(warm.covers(Pba::new(pba), len));
            }
            black_box(hits)
        })
    });

    // The two-tier cache under churn (w20 with a flash tier): reads over
    // a span four times both tiers; every miss is admitted, so RAM
    // victims demote to flash and flash victims drop, call after call.
    let mut rng = StdRng::seed_from_u64(7);
    let mut tiered = TieredCache::with_flash_sectors(16_384, 65_536);
    let reads: Vec<u64> = (0..10_000)
        .map(|_| rng.gen_range(0..1u64 << 14) * 20)
        .collect();
    group.throughput(Throughput::Elements(reads.len() as u64));
    group.bench_function("tiered_churn_flash", |b| {
        b.iter(|| {
            let mut hits = 0u64;
            for &pba in &reads {
                if tiered.lookup(Pba::new(pba), 16).is_hit() {
                    hits += 1;
                } else {
                    tiered.admit(Pba::new(pba), 16);
                }
            }
            black_box(hits)
        })
    });
    group.finish();
}

fn generators(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    let zipf = Zipf::new(100_000, 1.0);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("zipf_sample_100k", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(5);
            let mut acc = 0usize;
            for _ in 0..100_000 {
                acc = acc.wrapping_add(zipf.sample(&mut rng));
            }
            black_box(acc)
        })
    });
    group.throughput(Throughput::Elements(BENCH_OPS as u64));
    group.bench_function("profile_w91_generate", |b| {
        b.iter(|| black_box(bench_trace("w91").len()))
    });
    group.finish();
}

fn simulator_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulator");
    let trace = bench_trace("w91");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, config) in [
        ("nols", SimConfig::no_ls()),
        ("ls", SimConfig::log_structured()),
        ("ls_defrag", SimConfig::ls_defrag()),
        ("ls_prefetch", SimConfig::ls_prefetch()),
        ("ls_cache", SimConfig::ls_cache()),
    ] {
        group.bench_with_input(
            BenchmarkId::new("replay_w91", name),
            &config,
            |b, config| b.iter(|| black_box(Simulation::new(config).run_trace(&trace).seeks)),
        );
    }
    group.finish();
}

/// Intra-trace sharding: serial vs sharded replay of one trace for the
/// direct-seeded NoLS path and the checkpoint-seeded log-structured path
/// (whose shards pay a serial transition prepass first). Speedups are
/// bounded by the host's CPU count; on a single-CPU host these measure
/// sharding overhead.
fn sharded_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_replay");
    let trace = bench_trace("w91");
    group.throughput(Throughput::Elements(trace.len() as u64));
    for (name, config) in [
        ("nols", SimConfig::no_ls()),
        ("ls", SimConfig::log_structured()),
    ] {
        for shards in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("w91_{name}"), shards),
                &shards,
                |b, &shards| {
                    b.iter(|| {
                        black_box(
                            Simulation::new(&config)
                                .shards(shards)
                                .run_trace(&trace)
                                .seeks,
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

/// Trace ingestion: records/sec of CSV parsing vs mmapped binary replay —
/// the speedup the `.smrt` cache buys a repeat experiment run.
fn trace_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_ingest");
    let trace = bench_trace("w91");
    let dir = std::env::temp_dir();
    let csv_path = dir.join(format!("smrseek_bench_{}.csv", std::process::id()));
    let bin_path = dir.join(format!("smrseek_bench_{}.smrt", std::process::id()));
    {
        let mut f = BufWriter::new(std::fs::File::create(&csv_path).expect("csv temp"));
        write_cp_csv(&mut f, &trace).expect("csv written");
    }
    {
        let mut f = BufWriter::new(std::fs::File::create(&bin_path).expect("bin temp"));
        write_binary_v2(&mut f, &trace).expect("binary written");
    }
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("csv_parse_w91", |b| {
        b.iter(|| {
            let f = std::fs::File::open(&csv_path).expect("open csv");
            let parsed = parse_reader(BufReader::new(f), CpParser::new()).expect("parses");
            black_box(parsed.len())
        })
    });
    group.bench_function("binary_mmap_w91", |b| {
        b.iter(|| {
            let map = MmapTrace::open(&bin_path).expect("maps");
            let mut sectors = 0u64;
            for r in map.iter() {
                sectors = sectors.wrapping_add(u64::from(r.sectors));
            }
            black_box((map.len(), sectors))
        })
    });
    group.finish();
    std::fs::remove_file(&csv_path).ok();
    std::fs::remove_file(&bin_path).ok();
}

/// Observability overhead: the cost of a disabled span (what every
/// instrumented call site pays when nothing records), a live span, and a
/// full engine replay with coarse phase accounting on — the price the
/// daemon pays for `/metrics` phase breakdowns. The `simulator` group
/// above is the accounting-off baseline for the same replay.
fn obs_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs");
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("span_disabled_100k", |b| {
        b.iter(|| {
            for _ in 0..100_000 {
                let span = smrseek_obs::span("bench:noop");
                black_box(&span);
            }
        })
    });
    group.bench_function("span_recording_100k", |b| {
        smrseek_obs::span::start_recording(1 << 20);
        b.iter(|| {
            for _ in 0..100_000 {
                let span = smrseek_obs::span("bench:live");
                black_box(&span);
            }
        });
        smrseek_obs::span::stop_recording();
        black_box(smrseek_obs::span::take_events().1);
    });
    // Registry handle hot paths: what the daemon pays per request to
    // bump a counter or feed a latency histogram. Both are single
    // relaxed atomic RMWs (the histogram adds a leading_zeros bucket
    // pick), so they should sit within a few ns of the disabled span.
    let registry = smrseek_obs::Registry::new();
    let counter = registry.counter("bench_requests_total", "Bench counter.");
    group.bench_function("registry_counter_100k", |b| {
        b.iter(|| {
            for _ in 0..100_000 {
                counter.inc();
            }
            black_box(counter.get())
        })
    });
    let histogram =
        registry.labeled_histogram("bench_latency_us", "Bench histogram.", "endpoint", "jobs");
    group.bench_function("registry_histogram_100k", |b| {
        let mut us = 0u64;
        b.iter(|| {
            for _ in 0..100_000 {
                us = us.wrapping_add(977) & 0xffff;
                histogram.observe(us);
            }
            black_box(histogram.count())
        })
    });
    let trace = bench_trace("w91");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("replay_w91_ls_phases_on", |b| {
        smrseek_obs::set_phase_accounting(true);
        b.iter(|| {
            black_box(
                Simulation::new(&SimConfig::log_structured())
                    .run_trace(&trace)
                    .seeks,
            )
        });
        smrseek_obs::set_phase_accounting(false);
    });
    group.finish();
}

fn misorder_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("misorder");
    let trace = bench_trace("src2_2");
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("count_misordered_src2_2", |b| {
        b.iter(|| black_box(count_misordered_writes(&trace, 256 * 1024)))
    });
    group.finish();
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(10);
    targets = extent_map, caches, generators, simulator_throughput, sharded_replay, trace_ingest,
        obs_overhead, misorder_scan,
}
criterion_main!(micro);
