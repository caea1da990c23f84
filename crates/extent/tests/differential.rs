//! Differential property test: `ExtentMap` against a plain `BTreeMap`
//! interval map over long operation sequences in a wide logical space.
//!
//! The sequences are long enough (thousands of operations, well over a
//! thousand live extents) that the map's leaves fill, split, and are
//! emptied and dropped, and edits splice across leaf boundaries. After
//! every step every read-side view of the map must match the oracle.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use smrseek_extent::{Extent, ExtentMap, Segment};
use smrseek_trace::{Lba, Pba};
use std::collections::BTreeMap;

/// Wide enough that random short writes mostly land apart.
const SPACE: u64 = 1 << 16;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Write at the advancing frontier (the log-structured pattern).
    Frontier { lba: u64, len: u64 },
    /// Write to an arbitrary physical place.
    Random { lba: u64, len: u64, pba: u64 },
    /// Write back to the identity location (defragmentation's target).
    Identity { lba: u64, len: u64 },
    /// Unmap a range, often spanning many leaves.
    Remove { lba: u64, len: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SPACE, 1..64u64).prop_map(|(lba, len)| Op::Frontier { lba, len }),
        1 => (0..SPACE, 1..1024u64).prop_map(|(lba, len)| Op::Frontier { lba, len }),
        2 => (0..SPACE, 1..64u64, 0..1u64 << 40)
            .prop_map(|(lba, len, pba)| Op::Random { lba, len, pba }),
        1 => (0..SPACE, 1..256u64).prop_map(|(lba, len)| Op::Identity { lba, len }),
        1 => (0..SPACE, 1..2048u64).prop_map(|(lba, len)| Op::Remove { lba, len }),
    ]
}

/// The obviously-correct reference: start -> (len, pba), rebuilt naively.
#[derive(Default)]
struct Oracle {
    extents: BTreeMap<u64, (u64, u64)>,
}

impl Oracle {
    fn unmap(&mut self, start: u64, end: u64) {
        let hit: Vec<(u64, (u64, u64))> = self
            .extents
            .iter()
            .filter(|(&s, &(len, _))| s < end && s + len > start)
            .map(|(&s, &v)| (s, v))
            .collect();
        for (s, (len, pba)) in hit {
            self.extents.remove(&s);
            if s < start {
                self.extents.insert(s, (start - s, pba));
            }
            if s + len > end {
                self.extents.insert(end, (s + len - end, pba + (end - s)));
            }
        }
    }

    fn insert(&mut self, start: u64, len: u64, pba: u64) {
        self.unmap(start, start + len);
        self.extents.insert(start, (len, pba));
        // Coalesce with the neighbours when they abut logically and
        // physically (everything else was already maximal).
        let before = self.extents.range(..start).next_back();
        let (mut start, mut len, mut pba) = (start, len, pba);
        if let Some((&ps, &(plen, ppba))) = before {
            if ps + plen == start && ppba + plen == pba {
                self.extents.remove(&start);
                (start, len, pba) = (ps, plen + len, ppba);
                self.extents.insert(start, (len, pba));
            }
        }
        let after = self.extents.range(start + len..).next();
        if let Some((&ns, &(nlen, npba))) = after {
            if start + len == ns && pba + len == npba {
                self.extents.remove(&ns);
                self.extents.insert(start, (len + nlen, pba));
            }
        }
    }

    fn mapped_sectors(&self) -> u64 {
        self.extents.values().map(|&(len, _)| len).sum()
    }

    fn translate(&self, sector: u64) -> Option<(u64, u64)> {
        let (&s, &(len, pba)) = self.extents.range(..=sector).next_back()?;
        (sector < s + len).then_some((s, pba + (sector - s)))
    }

    /// Tiles `[start, start + len)` sector by sector: a segment ends where
    /// the covering extent (or the hole) changes.
    fn lookup(&self, start: u64, len: u64) -> Vec<Segment> {
        let mut out: Vec<Segment> = Vec::new();
        let mut owner_of_last = None;
        for sector in start..start + len {
            let here = self.translate(sector);
            let owner = here.map(|(s, _)| s);
            let extends = !out.is_empty() && owner == owner_of_last;
            match (out.last_mut(), here) {
                (Some(Segment::Mapped(e)), Some(_)) if extends => e.sectors += 1,
                (Some(Segment::Hole { sectors, .. }), None) if extends => *sectors += 1,
                (_, Some((_, pba))) => {
                    out.push(Segment::Mapped(Extent::new(
                        Lba::new(sector),
                        1,
                        Pba::new(pba),
                    )));
                }
                (_, None) => out.push(Segment::Hole {
                    lba: Lba::new(sector),
                    sectors: 1,
                }),
            }
            owner_of_last = owner;
        }
        out
    }

    fn fragments_in(&self, start: u64, len: u64) -> usize {
        let mut count = 0;
        let mut prev_end = None;
        for sector in start..start + len {
            let phys = self.translate(sector).map_or(sector, |(_, p)| p);
            if prev_end != Some(phys) {
                count += 1;
            }
            prev_end = Some(phys + 1);
        }
        count
    }

    /// FNV-1a 128 over the `(start, len, pba)` triples in order.
    fn digest(&self) -> u128 {
        let mut state: u128 = 0x6c62272e07bb014262b821756295c58d;
        for (&s, &(len, pba)) in &self.extents {
            for b in [s, len, pba].iter().flat_map(|v| v.to_le_bytes()) {
                state ^= u128::from(b);
                state = state.wrapping_mul(0x0000000001000000000000000000013b);
            }
        }
        state
    }

    fn extents(&self) -> Vec<Extent> {
        self.extents
            .iter()
            .map(|(&s, &(len, pba))| Extent::new(Lba::new(s), len, Pba::new(pba)))
            .collect()
    }

    /// The serialized value `ExtentMap` has always produced: the derived
    /// form of `{extents: BTreeMap<u64, (u64, u64)>, mapped_sectors}`.
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("extents".to_string(), self.extents.to_value()),
            (
                "mapped_sectors".to_string(),
                self.mapped_sectors().to_value(),
            ),
        ])
    }
}

fn reload(map: &ExtentMap) -> ExtentMap {
    ExtentMap::from_value(&map.to_value()).expect("own serialized form loads")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every view of the map matches the oracle after every step, also
    /// when the map is periodically replaced by a bulk-loaded copy (full
    /// leaves) or a clone, and edits continue on that.
    #[test]
    fn matches_btreemap_oracle(
        steps in prop::collection::vec((op_strategy(), 0..SPACE, 1..256u64), 1..3000),
    ) {
        let mut map = ExtentMap::new();
        let mut oracle = Oracle::default();
        let mut frontier = 1u64 << 41;
        let mut peak = 0;
        for (step, &(op, qlba, qlen)) in steps.iter().enumerate() {
            match op {
                Op::Frontier { lba, len } => {
                    map.insert(Lba::new(lba), len, Pba::new(frontier));
                    oracle.insert(lba, len, frontier);
                    frontier += len;
                }
                Op::Random { lba, len, pba } => {
                    map.insert(Lba::new(lba), len, Pba::new(pba));
                    oracle.insert(lba, len, pba);
                }
                Op::Identity { lba, len } => {
                    map.insert(Lba::new(lba), len, Pba::new(lba));
                    oracle.insert(lba, len, lba);
                }
                Op::Remove { lba, len } => {
                    map.remove(Lba::new(lba), len);
                    oracle.unmap(lba, lba + len);
                }
            }
            peak = peak.max(map.len());

            prop_assert_eq!(map.iter().collect::<Vec<_>>(), oracle.extents(), "step {}", step);
            prop_assert_eq!(map.len(), oracle.extents.len());
            prop_assert_eq!(map.mapped_sectors(), oracle.mapped_sectors());
            prop_assert_eq!(map.digest(), oracle.digest());
            prop_assert_eq!(map.to_value(), oracle.to_value());
            prop_assert_eq!(map.lookup(Lba::new(qlba), qlen), oracle.lookup(qlba, qlen));
            prop_assert_eq!(
                map.fragments_in(Lba::new(qlba), qlen),
                oracle.fragments_in(qlba, qlen)
            );
            let (first, last) = (qlba.saturating_sub(1), qlba + qlen);
            for sector in [first, qlba, qlba + qlen / 2, last] {
                prop_assert_eq!(
                    map.translate(Lba::new(sector)),
                    oracle.translate(sector).map(|(_, p)| Pba::new(p)),
                    "sector {}", sector
                );
            }

            if step % 512 == 511 {
                let loaded = reload(&map);
                prop_assert_eq!(&loaded, &map);
                prop_assert_eq!(loaded.digest(), map.digest());
                map = if step % 1024 == 511 { loaded } else { map.clone() };
            }
        }
        prop_assert!(steps.len() < 1500 || peak > 256, "peak only {} extents", peak);

        let loaded = reload(&map);
        prop_assert_eq!(&loaded, &map);
        prop_assert_eq!(loaded.digest(), map.digest());
        prop_assert_eq!(loaded.to_value(), map.to_value());
        prop_assert_eq!(loaded.static_fragmentation(), map.static_fragmentation());
        let whole = oracle.extents.iter().next().zip(oracle.extents.iter().next_back());
        if let Some(((&lo, _), (&hi, &(hi_len, _)))) = whole {
            prop_assert_eq!(map.static_fragmentation(), oracle.fragments_in(lo, hi + hi_len - lo));
        } else {
            prop_assert_eq!(map.static_fragmentation(), 0);
        }
    }

    /// Equality and digests ignore how the extents are split into leaves:
    /// the same content built by different edit histories compares equal.
    #[test]
    fn equality_ignores_leaf_layout(
        starts in prop::collection::vec(0..SPACE / 8, 1..400),
    ) {
        // Build the same disjoint, non-coalescing extents front-to-back,
        // back-to-front, and through a bulk load.
        let mut sorted: Vec<u64> = starts.iter().map(|s| s * 8).collect();
        sorted.sort_unstable();
        sorted.dedup();
        let extents: Vec<Extent> = sorted
            .iter()
            .map(|&s| Extent::new(Lba::new(s), 4, Pba::new(1_000_000 + s * 2)))
            .collect();
        let forward: ExtentMap = extents.iter().copied().collect();
        let backward: ExtentMap = extents.iter().rev().copied().collect();
        let loaded = reload(&forward);
        prop_assert_eq!(&forward, &backward);
        prop_assert_eq!(&forward, &loaded);
        prop_assert_eq!(forward.digest(), backward.digest());
        prop_assert_eq!(forward.digest(), loaded.digest());
        let mut other = backward.clone();
        other.insert(Lba::new(sorted[0]), 1, Pba::new(7));
        prop_assert_ne!(&other, &forward);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Removes and overwrites spanning many leaves of a large map: whole
    /// leaves are dropped, the last one is cut or dropped, the first is
    /// spliced, and the map can be emptied outright.
    #[test]
    fn wide_edits_drop_and_splice_leaves(
        count in 200..2000u64,
        cuts in prop::collection::vec((0..10_000u64, 1..4_000u64, 0..3u32), 1..24),
    ) {
        let mut map = ExtentMap::new();
        let mut oracle = Oracle::default();
        // Disjoint 3-sector extents two sectors apart, physically scattered.
        for i in 0..count {
            let (lba, pba) = (i * 5, (i * 7919) % 100_000 * 8);
            map.insert(Lba::new(lba), 3, Pba::new(pba));
            oracle.insert(lba, 3, pba);
        }
        for &(lba, len, kind) in &cuts {
            match kind {
                0 => {
                    map.remove(Lba::new(lba), len);
                    oracle.unmap(lba, lba + len);
                }
                1 => {
                    map.insert(Lba::new(lba), len, Pba::new(lba));
                    oracle.insert(lba, len, lba);
                }
                _ => {
                    // Refill the cut with fresh fragments so later cuts
                    // cross leaves again.
                    for i in 0..len.min(2048) / 5 {
                        let at = lba + i * 5;
                        map.insert(Lba::new(at), 2, Pba::new((1 << 30) + at * 3));
                        oracle.insert(at, 2, (1 << 30) + at * 3);
                    }
                }
            }
            prop_assert_eq!(map.iter().collect::<Vec<_>>(), oracle.extents());
            prop_assert_eq!(map.len(), oracle.extents.len());
            prop_assert_eq!(map.mapped_sectors(), oracle.mapped_sectors());
            prop_assert_eq!(map.digest(), oracle.digest());
            prop_assert_eq!(map.to_value(), oracle.to_value());
            prop_assert_eq!(map.lookup(Lba::new(lba), 64), oracle.lookup(lba, 64));
        }
        map.remove(Lba::new(0), u64::MAX / 2);
        prop_assert!(map.is_empty());
        prop_assert_eq!(map.mapped_sectors(), 0);
        prop_assert_eq!(&map, &ExtentMap::new());

        map.insert(Lba::new(9), 1, Pba::new(9));
        prop_assert_eq!(map.len(), 1);
    }
}
