//! Golden round-trip of `LsSnapshot`'s serialized form.
//!
//! Checkpoint files embed a serialized `LsSnapshot` and are loaded by later
//! processes, so the JSON text of a snapshot (the extent map inside it
//! included) is pinned here, and loading it must restore a layer that
//! behaves exactly like the one that wrote it.

use smrseek_stl::{DefragConfig, LogStructured, LsConfig, LsSnapshot, TranslationLayer};
use smrseek_trace::{Lba, TraceRecord};

fn records() -> Vec<TraceRecord> {
    vec![
        TraceRecord::write(0, Lba::new(0), 8),
        TraceRecord::write(10, Lba::new(2), 2),
        TraceRecord::write(20, Lba::new(40), 4),
        TraceRecord::write(30, Lba::new(44), 4),
        TraceRecord::read(40, Lba::new(0), 8),
        TraceRecord::read(50, Lba::new(30), 4),
    ]
}

fn layer() -> LogStructured {
    let config = LsConfig::new(Lba::new(1000)).with_defrag(DefragConfig::idle(1_000_000));
    let mut ls = LogStructured::new(config);
    for rec in &records() {
        ls.apply(rec);
    }
    ls
}

const GOLDEN: &str = concat!(
    r#"{"config":{"frontier_start":1000,"defrag":{"min_fragments":2,"min_accesses":1,"#,
    r#""timing":{"Idle":{"min_gap_us":1000000}}},"prefetch":null,"cache":null,"#,
    r#""flash_cache_bytes":null,"track_fragments":false,"zone_sectors":null},"#,
    r#""map":{"extents":{"0":[2,1000],"2":[2,1008],"4":[4,1004],"40":[8,1010]},"#,
    r#""mapped_sectors":16},"frontier":1018,"#,
    r#""stats":{"logical_reads":2,"logical_writes":4,"fragmented_reads":1,"phys_reads":4,"#,
    r#""phys_writes":4,"defrag_rewrites":0,"defrag_sectors":0,"cache_hit_fragments":0,"#,
    r#""cache_miss_fragments":0,"prefetch_hit_fragments":0,"prefetched_sectors":0},"#,
    r#""tracker":null,"cache":null,"prefetch_buffer":null,"range_accesses":[],"#,
    r#""pending_defrag":[[0,8]],"last_timestamp_us":50}"#,
);

#[test]
fn snapshot_text_is_pinned() {
    let text = serde_json::to_string(&layer().to_snapshot()).unwrap();
    assert_eq!(text, GOLDEN);
}

#[test]
fn pinned_snapshot_restores_an_equivalent_layer() {
    let snap: LsSnapshot = serde_json::from_str(GOLDEN).unwrap();
    let original = layer();
    assert_eq!(snap, original.to_snapshot());
    assert_eq!(serde_json::to_string(&snap).unwrap(), GOLDEN);

    let mut restored = LogStructured::from_snapshot(snap);
    let mut live = original;
    assert_eq!(restored.map(), live.map());
    assert_eq!(restored.map().digest(), live.map().digest());
    let tail = [
        TraceRecord::read(2_000_000, Lba::new(0), 8),
        TraceRecord::write(2_000_010, Lba::new(5), 1),
        TraceRecord::read(2_000_020, Lba::new(0), 48),
    ];
    for rec in &tail {
        assert_eq!(restored.apply(rec), live.apply(rec));
    }
    assert_eq!(restored.to_snapshot(), live.to_snapshot());
}
