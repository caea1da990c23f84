//! Golden physical-I/O streams of the finite-log and media-cache layers.
//!
//! A fixed churn trace (overwrites of a hot region, first writes of a cold
//! region, and reads that straddle mapped data and never-written holes) is
//! replayed through `CleaningLog` under each victim policy and through
//! `MediaCacheStl` with frequent merges. The exact `PhysIo` sequence each
//! layer emits is pinned by its length, its sector total and an FNV-1a
//! digest over every `(op, pba, sectors)` in order, so any refactor of the
//! layers' emission or read translation must reproduce it bit for bit.

use smrseek_disk::PhysIo;
use smrseek_stl::{
    CleanerConfig, CleanerPolicy, CleaningLog, MediaCacheConfig, MediaCacheStl, TranslationLayer,
};
use smrseek_trace::{Lba, OpKind, Pba, TraceRecord};

/// Hot region overwritten by the churn.
const HOT_SECTORS: u64 = 1600;
/// Base of the cold region, written once stripe by stripe.
const COLD_BASE: u64 = 10_000;

/// 3000 records: every third a read, every twentieth a cold first write,
/// the rest hot overwrites. Reads range past the hot region into holes.
fn churn_trace() -> Vec<TraceRecord> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut cold_stripe = 0;
    (0..3000u64)
        .map(|t| {
            if t % 20 == 0 {
                cold_stripe += 1;
                TraceRecord::write(t, Lba::new(COLD_BASE + (cold_stripe - 1) * 8), 8)
            } else if t % 3 == 0 {
                let len = 1 + next() % 128;
                let lba = if next() % 4 == 0 {
                    COLD_BASE + next() % (cold_stripe * 8)
                } else {
                    next() % (HOT_SECTORS + 100)
                };
                TraceRecord::read(t, Lba::new(lba), len as u32)
            } else {
                let len = 1 + next() % 48;
                TraceRecord::write(t, Lba::new(next() % (HOT_SECTORS - len)), len as u32)
            }
        })
        .collect()
}

/// `(count, total sectors, FNV-1a digest)` of a physical-I/O stream.
fn fingerprint(ios: &[PhysIo]) -> (usize, u64, u64) {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for io in ios {
        mix(match io.op {
            OpKind::Read => 0,
            OpKind::Write => 1,
        });
        mix(io.pba.sector());
        mix(io.sectors);
    }
    (ios.len(), ios.iter().map(|io| io.sectors).sum(), h)
}

fn replay(layer: &mut dyn TranslationLayer) -> Vec<PhysIo> {
    churn_trace()
        .iter()
        .flat_map(|rec| layer.apply(rec))
        .collect()
}

fn cleaning(config: CleanerConfig) -> ((usize, u64, u64), u64) {
    let mut log = CleaningLog::new(config);
    let ios = replay(&mut log);
    (fingerprint(&ios), log.stats().cleanings)
}

fn cleaner_config() -> CleanerConfig {
    CleanerConfig::new(Pba::new(1 << 20), 256, 24)
}

#[test]
fn churn_trace_shape() {
    let trace = churn_trace();
    let reads = trace.iter().filter(|r| r.op == OpKind::Read).count();
    assert_eq!((trace.len(), reads), (3000, 950));
}

#[test]
fn cleaning_log_greedy_stream_is_pinned() {
    assert_eq!(
        cleaning(cleaner_config()),
        ((10082, 121_660, 15_859_757_989_150_355_000), 192)
    );
}

#[test]
fn cleaning_log_cost_benefit_stream_is_pinned() {
    let config = cleaner_config().with_policy(CleanerPolicy::CostBenefit);
    assert_eq!(
        cleaning(config),
        ((9905, 120_206, 10_119_243_141_975_339_962), 188)
    );
}

#[test]
fn cleaning_log_greedy_hot_cold_stream_is_pinned() {
    let config = cleaner_config().with_hot_cold_separation();
    assert_eq!(
        cleaning(config),
        ((9340, 119_440, 7_279_419_616_026_729_636), 187)
    );
}

#[test]
fn media_cache_stream_with_merges_is_pinned() {
    let config = MediaCacheConfig {
        cache_start: Pba::new(1 << 20),
        capacity_sectors: 512,
        zone_sectors: 128,
    };
    let mut stl = MediaCacheStl::new(config);
    let ios = replay(&mut stl);
    assert_eq!(
        (fingerprint(&ios), stl.stats().merges),
        ((7932, 420_481, 1_330_183_478_296_306_990), 88)
    );
}
