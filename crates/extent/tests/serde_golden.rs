//! Golden test of `ExtentMap`'s serialized form.
//!
//! `.smrs` checkpoints (and the daemon's `--checkpoint-dir` snapshots)
//! embed the extent map's serde value and outlive the process that wrote
//! them, so the exact JSON text is a compatibility contract: it must not
//! change when the map's in-memory representation does.

use smrseek_extent::{Extent, ExtentMap};
use smrseek_trace::{Lba, Pba};

/// A map holding a split extent, a coalesced extent and a hole-separated
/// identity extent.
fn sample() -> ExtentMap {
    let mut map = ExtentMap::new();
    map.insert(Lba::new(0), 10, Pba::new(1000));
    map.insert(Lba::new(4), 2, Pba::new(5000)); // splits [0,10)
    map.insert(Lba::new(20), 4, Pba::new(2000));
    map.insert(Lba::new(24), 4, Pba::new(2004)); // coalesces into [20,28)
    map.insert(Lba::new(100), 8, Pba::new(100)); // identity, behind a hole
    map
}

const GOLDEN: &str = r#"{"extents":{"0":[4,1000],"4":[2,5000],"6":[4,1006],"20":[8,2000],"100":[8,100]},"mapped_sectors":26}"#;

#[test]
fn serialized_text_is_pinned() {
    let map = sample();
    assert_eq!(serde_json::to_string(&map).unwrap(), GOLDEN);
}

#[test]
fn golden_text_loads_back_to_the_same_map() {
    let map: ExtentMap = serde_json::from_str(GOLDEN).unwrap();
    let want = sample();
    assert_eq!(map, want);
    assert_eq!(map.digest(), want.digest());
    assert_eq!(map.len(), 5);
    assert_eq!(map.mapped_sectors(), 26);
    assert_eq!(
        map.iter().collect::<Vec<_>>(),
        vec![
            Extent::new(Lba::new(0), 4, Pba::new(1000)),
            Extent::new(Lba::new(4), 2, Pba::new(5000)),
            Extent::new(Lba::new(6), 4, Pba::new(1006)),
            Extent::new(Lba::new(20), 8, Pba::new(2000)),
            Extent::new(Lba::new(100), 8, Pba::new(100)),
        ]
    );
    assert_eq!(map.translate(Lba::new(5)), Some(Pba::new(5001)));
    assert_eq!(map.translate(Lba::new(50)), None);
    assert_eq!(serde_json::to_string(&map).unwrap(), GOLDEN);
}

#[test]
fn keys_load_in_any_order() {
    let shuffled = r#"{"extents":{"100":[8,100],"6":[4,1006],"0":[4,1000],"20":[8,2000],"4":[2,5000]},"mapped_sectors":26}"#;
    let map: ExtentMap = serde_json::from_str(shuffled).unwrap();
    assert_eq!(map, sample());
    assert_eq!(serde_json::to_string(&map).unwrap(), GOLDEN);
}

#[test]
fn empty_map_text_is_pinned() {
    let empty = r#"{"extents":{},"mapped_sectors":0}"#;
    assert_eq!(serde_json::to_string(&ExtentMap::new()).unwrap(), empty);
    let map: ExtentMap = serde_json::from_str(empty).unwrap();
    assert_eq!(map, ExtentMap::new());
    assert!(map.is_empty());
}

#[test]
fn malformed_values_are_rejected() {
    for bad in [
        r#"{"extents":{"x":[1,2]},"mapped_sectors":1}"#,
        r#"{"extents":{"0":[1]},"mapped_sectors":1}"#,
        r#"{"extents":[],"mapped_sectors":0}"#,
        r#"{"extents":{}}"#,
    ] {
        assert!(serde_json::from_str::<ExtentMap>(bad).is_err(), "{bad}");
    }
}
