//! Differential property tests: `RangeCache` and `TieredCache` against a
//! test-only copy of the original `BTreeMap`-indexed range cache.
//!
//! The oracle below is the cache as it was first written: a `BTreeMap`
//! from range start to slab node, with a `Vec` per call. Random sequences
//! of queries, inserts, clears, clones and serde round trips run through
//! both. After every step the answers, the eviction victims (in order),
//! the listed ranges, the counters and the serialized JSON must agree, so
//! any index the real cache uses is held to the oracle's exact behaviour:
//! the same hits, the same LRU order, the same slab slots.
//!
//! The pinned-JSON tests at the bottom fix the serialized form, so
//! checkpoints written by any version keep loading.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use smrseek_cache::range::RangeCacheStats;
use smrseek_cache::tier::{TierLookup, TierStats};
use smrseek_cache::{RangeCache, TieredCache};
use smrseek_trace::Pba;
use std::collections::BTreeMap;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Node {
    start: u64,
    sectors: u64,
    prev: usize,
    next: usize,
}

/// The reference range cache. Its field names, order and types are the
/// serialized form's, so both caches must print the same JSON.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct OracleCache {
    by_start: BTreeMap<u64, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    sectors_used: u64,
    capacity_sectors: u64,
    stats: RangeCacheStats,
}

impl OracleCache {
    fn with_capacity_sectors(capacity_sectors: u64) -> Self {
        OracleCache {
            by_start: BTreeMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            sectors_used: 0,
            capacity_sectors,
            stats: RangeCacheStats::default(),
        }
    }

    fn len(&self) -> usize {
        self.by_start.len()
    }

    fn covers(&mut self, start: u64, sectors: u64) -> bool {
        match self.covering_nodes(start, sectors) {
            Some(involved) => {
                for idx in involved {
                    self.unlink(idx);
                    self.push_front(idx);
                }
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    fn peek_covers(&self, start: u64, sectors: u64) -> bool {
        self.covering_nodes(start, sectors).is_some()
    }

    fn insert_evicting(
        &mut self,
        start: u64,
        sectors: u64,
        on_evict: &mut dyn FnMut(Pba, u64),
    ) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let end = start + sectors;
        let mut gaps: Vec<(u64, u64)> = Vec::new();
        let mut touched: Vec<usize> = Vec::new();
        let mut cursor = start;
        if let Some((_, &idx)) = self.by_start.range(..start).next_back() {
            let n = &self.nodes[idx];
            if n.start + n.sectors > start {
                touched.push(idx);
                cursor = (n.start + n.sectors).min(end);
            }
        }
        let in_range: Vec<usize> = self.by_start.range(start..end).map(|(_, &i)| i).collect();
        for idx in in_range {
            let (es, elen) = (self.nodes[idx].start, self.nodes[idx].sectors);
            if es > cursor {
                gaps.push((cursor, es - cursor));
            }
            touched.push(idx);
            cursor = (es + elen).min(end).max(cursor);
        }
        if cursor < end {
            gaps.push((cursor, end - cursor));
        }
        for idx in touched {
            self.unlink(idx);
            self.push_front(idx);
        }
        for (gs, glen) in gaps {
            let idx = self.alloc_node(gs, glen);
            self.by_start.insert(gs, idx);
            self.sectors_used += glen;
            self.push_front(idx);
        }
        self.evict_to_budget(on_evict)
    }

    fn clear(&mut self) {
        self.by_start.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.sectors_used = 0;
    }

    fn ranges(&self) -> Vec<(Pba, u64)> {
        self.by_start
            .values()
            .map(|&i| (Pba::new(self.nodes[i].start), self.nodes[i].sectors))
            .collect()
    }

    fn covering_nodes(&self, start: u64, sectors: u64) -> Option<Vec<usize>> {
        let end = start + sectors;
        let mut cursor = start;
        let mut involved: Vec<usize> = Vec::new();
        if let Some((_, &idx)) = self.by_start.range(..=start).next_back() {
            let n = &self.nodes[idx];
            if n.start + n.sectors > start {
                involved.push(idx);
                cursor = (n.start + n.sectors).min(end);
            }
        }
        if cursor < end {
            for (_, &idx) in self.by_start.range(start + 1..end) {
                let n = &self.nodes[idx];
                if n.start > cursor {
                    return None;
                }
                involved.push(idx);
                cursor = (n.start + n.sectors).min(end).max(cursor);
                if cursor >= end {
                    break;
                }
            }
        }
        (cursor >= end).then_some(involved)
    }

    fn alloc_node(&mut self, start: u64, sectors: u64) -> usize {
        let node = Node {
            start,
            sectors,
            prev: NIL,
            next: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.nodes[i] = node;
                i
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    fn evict_to_budget(&mut self, on_evict: &mut dyn FnMut(Pba, u64)) -> u64 {
        let mut evicted = 0;
        while self.sectors_used > self.capacity_sectors && self.by_start.len() > 1 {
            let victim = self.tail;
            let (start, len) = (self.nodes[victim].start, self.nodes[victim].sectors);
            self.by_start.remove(&start);
            self.unlink(victim);
            self.sectors_used -= len;
            self.free.push(victim);
            evicted += len;
            self.stats.evictions += 1;
            on_evict(Pba::new(start), len);
        }
        evicted
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// The reference two-tier cache: `TieredCache`'s logic over the oracle.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct OracleTiered {
    ram: OracleCache,
    flash: Option<OracleCache>,
    stats: TierStats,
}

impl OracleTiered {
    fn new(ram: u64, flash: Option<u64>) -> Self {
        OracleTiered {
            ram: OracleCache::with_capacity_sectors(ram),
            flash: flash.map(OracleCache::with_capacity_sectors),
            stats: TierStats::default(),
        }
    }

    fn lookup(&mut self, start: u64, sectors: u64) -> TierLookup {
        if self.ram.covers(start, sectors) {
            self.stats.ram_hits += 1;
            return TierLookup::Ram;
        }
        let flash_hit = self
            .flash
            .as_mut()
            .is_some_and(|flash| flash.covers(start, sectors));
        if flash_hit {
            self.stats.flash_hits += 1;
            self.stats.promotions += 1;
            self.admit(start, sectors);
            TierLookup::Flash
        } else {
            self.stats.misses += 1;
            TierLookup::Miss
        }
    }

    fn admit(&mut self, start: u64, sectors: u64) {
        match &mut self.flash {
            None => {
                self.ram.insert_evicting(start, sectors, &mut |_, _| {});
            }
            Some(flash) => {
                let stats = &mut self.stats;
                self.ram
                    .insert_evicting(start, sectors, &mut |victim, len| {
                        stats.demoted_sectors += len;
                        stats.flash_evicted_sectors +=
                            flash.insert_evicting(victim.sector(), len, &mut |_, _| {});
                    });
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Covers(u64, u64),
    Peek(u64, u64),
    Insert(u64, u64),
    Clear,
    Clone,
    RoundTrip,
}

/// Operations over `[0, space)`: mostly inserts and queries of short
/// ranges, some long ones that straddle many entries, and rare resets.
fn ops(space: u64, max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            8 => (0..space, 1u64..24).prop_map(|(s, l)| Op::Insert(s, l)),
            1 => (0..space, 1u64..256).prop_map(|(s, l)| Op::Insert(s, l)),
            6 => (0..space, 0u64..24).prop_map(|(s, l)| Op::Covers(s, l)),
            1 => (0..space, 1u64..256).prop_map(|(s, l)| Op::Covers(s, l)),
            2 => (0..space, 0u64..24).prop_map(|(s, l)| Op::Peek(s, l)),
            1 => Just(Op::Clone),
            1 => Just(Op::RoundTrip),
            1 => (0u8..20).prop_map(|x| if x == 0 { Op::Clear } else { Op::Clone }),
        ],
        1..max,
    )
}

fn json<T: Serialize>(v: &T) -> String {
    serde_json::to_string(v).expect("serializes")
}

/// Runs `ops` through a real cache and the oracle at `budget` sectors,
/// comparing every observable after every step.
fn check_range(budget: u64, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut real = RangeCache::with_capacity_sectors(budget);
    let mut oracle = OracleCache::with_capacity_sectors(budget);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Covers(s, l) => {
                prop_assert_eq!(
                    real.covers(Pba::new(s), l),
                    oracle.covers(s, l),
                    "step {}: covers({}, {})",
                    step,
                    s,
                    l
                );
            }
            Op::Peek(s, l) => {
                prop_assert_eq!(
                    real.peek_covers(Pba::new(s), l),
                    oracle.peek_covers(s, l),
                    "step {}: peek_covers({}, {})",
                    step,
                    s,
                    l
                );
            }
            Op::Insert(s, l) => {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let n = real.insert_evicting(Pba::new(s), l, &mut |p, len| got.push((p, len)));
                let m = oracle.insert_evicting(s, l, &mut |p, len| want.push((p, len)));
                prop_assert_eq!(n, m, "step {}: evicted sectors", step);
                prop_assert_eq!(got, want, "step {}: victims of insert({}, {})", step, s, l);
            }
            Op::Clear => {
                real.clear();
                oracle.clear();
            }
            Op::Clone => {
                real = real.clone();
                oracle = oracle.clone();
            }
            Op::RoundTrip => {
                let text = json(&real);
                prop_assert_eq!(&text, &json(&oracle), "step {}: serialized form", step);
                let back: RangeCache = serde_json::from_str(&text).expect("own output loads");
                prop_assert_eq!(&back, &real, "step {}: round trip", step);
                real = back;
                oracle = serde_json::from_str(&text).expect("oracle loads");
            }
        }
        prop_assert_eq!(real.ranges(), oracle.ranges(), "step {}: ranges", step);
        prop_assert_eq!(real.len(), oracle.len(), "step {}: len", step);
        prop_assert_eq!(real.sectors_used(), oracle.sectors_used, "step {}", step);
        prop_assert_eq!(real.stats(), oracle.stats, "step {}: stats", step);
        prop_assert_eq!(json(&real), json(&oracle), "step {}: serialized form", step);
    }
    Ok(())
}

/// Runs `ops` through a real two-tier cache and the oracle's.
fn check_tiered(ram: u64, flash: Option<u64>, ops: &[Op]) -> Result<(), TestCaseError> {
    let mut real = match flash {
        Some(f) => TieredCache::with_flash_sectors(ram, f),
        None => TieredCache::single_sectors(ram),
    };
    let mut oracle = OracleTiered::new(ram, flash);
    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Covers(s, l) | Op::Peek(s, l) => {
                prop_assert_eq!(
                    real.lookup(Pba::new(s), l),
                    oracle.lookup(s, l),
                    "step {}: lookup({}, {})",
                    step,
                    s,
                    l
                );
            }
            Op::Insert(s, l) => {
                real.admit(Pba::new(s), l);
                oracle.admit(s, l);
            }
            Op::Clear => {
                real.reset_stats();
                oracle.stats = TierStats::default();
            }
            Op::Clone => {
                real = real.clone();
                oracle = oracle.clone();
            }
            Op::RoundTrip => {
                let text = json(&real);
                prop_assert_eq!(&text, &json(&oracle), "step {}: serialized form", step);
                let back: TieredCache = serde_json::from_str(&text).expect("own output loads");
                prop_assert_eq!(&back, &real, "step {}: round trip", step);
                real = back;
                oracle = serde_json::from_str(&text).expect("oracle loads");
            }
        }
        prop_assert_eq!(real.stats(), oracle.stats, "step {}: tier stats", step);
        prop_assert_eq!(real.ram().ranges(), oracle.ram.ranges(), "step {}", step);
        prop_assert_eq!(
            real.flash().map(RangeCache::ranges),
            oracle.flash.as_ref().map(OracleCache::ranges),
            "step {}: flash ranges",
            step
        );
        prop_assert_eq!(json(&real), json(&oracle), "step {}: serialized form", step);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A tight budget: constant eviction, a handful of live entries.
    #[test]
    fn range_cache_matches_oracle_tight(ops in ops(512, 400), budget in 8u64..128) {
        check_range(budget, &ops)?;
    }

    /// A budget of a few hundred entries in a wide space: the index
    /// spans several leaves, which split, empty and drop under churn.
    #[test]
    fn range_cache_matches_oracle_churn(ops in ops(1 << 14, 1500), budget in 600u64..4000) {
        check_range(budget, &ops)?;
    }

    /// An effectively unbounded budget: entries only accumulate, and
    /// long inserts fill many gaps at once.
    #[test]
    fn range_cache_matches_oracle_loose(ops in ops(4096, 1500)) {
        check_range(1 << 40, &ops)?;
    }

    /// `TieredCache` without flash is the oracle's single tier.
    #[test]
    fn tiered_single_matches_oracle(ops in ops(2048, 800), ram in 16u64..1024) {
        check_tiered(ram, None, &ops)?;
    }

    /// `TieredCache` with flash: demotions and promotions move ranges
    /// between two indexed tiers.
    #[test]
    fn tiered_flash_matches_oracle(
        ops in ops(2048, 800),
        ram in 16u64..512,
        flash in 64u64..4096,
    ) {
        check_tiered(ram, Some(flash), &ops)?;
    }
}

/// A cache with a reused slab slot, a slot still on the free list and an
/// LRU order unlike both insertion and PBA order.
fn pinned_range_cache() -> RangeCache {
    let mut c = RangeCache::with_capacity_sectors(35);
    c.insert(Pba::new(0), 10);
    c.insert(Pba::new(100), 10);
    c.insert(Pba::new(200), 10);
    assert!(c.covers(Pba::new(0), 10));
    c.insert(Pba::new(300), 10); // evicts [100,110): slot 1 freed
    c.insert(Pba::new(150), 5); // reuses slot 1
    c.insert(Pba::new(400), 10); // evicts [200,210): slot 2 stays free
    assert!(!c.covers(Pba::new(200), 1));
    c
}

const PINNED_RANGE_JSON: &str = concat!(
    r#"{"by_start":{"0":0,"150":1,"300":3,"400":4},"#,
    r#""nodes":[{"start":0,"sectors":10,"prev":3,"next":18446744073709551615},"#,
    r#"{"start":150,"sectors":5,"prev":4,"next":3},"#,
    r#"{"start":200,"sectors":10,"prev":18446744073709551615,"next":18446744073709551615},"#,
    r#"{"start":300,"sectors":10,"prev":1,"next":0},"#,
    r#"{"start":400,"sectors":10,"prev":18446744073709551615,"next":1}],"#,
    r#""free":[2],"head":4,"tail":0,"sectors_used":35,"capacity_sectors":35,"#,
    r#""stats":{"hits":1,"misses":1,"evictions":2}}"#,
);

#[test]
fn range_cache_json_is_pinned() {
    let c = pinned_range_cache();
    assert_eq!(json(&c), PINNED_RANGE_JSON);
    let mut back: RangeCache = serde_json::from_str(PINNED_RANGE_JSON).expect("loads");
    assert_eq!(back, c);
    assert_eq!(json(&back), PINNED_RANGE_JSON);
    // The loaded cache keeps the LRU order and the free slot: the next
    // insert reuses slot 2 and evicts the LRU entry, [0,10).
    let mut victims = Vec::new();
    back.insert_evicting(Pba::new(500), 10, &mut |p, len| victims.push((p, len)));
    assert_eq!(victims, vec![(Pba::new(0), 10)]);
    assert!(json(&back).contains(r#""by_start":{"150":1,"300":3,"400":4,"500":2}"#));
}

/// A flash tier holding demoted ranges, one promoted back to RAM into a
/// reused slot (RAM slot 1 held `[100,110)`, then `[0,10)`).
fn pinned_tiered_cache() -> TieredCache {
    let mut c = TieredCache::with_flash_sectors(20, 40);
    c.admit(Pba::new(0), 10);
    c.admit(Pba::new(100), 10);
    c.admit(Pba::new(200), 10); // [0,10) demotes
    c.admit(Pba::new(300), 10); // [100,110) demotes
    assert_eq!(c.lookup(Pba::new(0), 10), TierLookup::Flash);
    assert_eq!(c.lookup(Pba::new(300), 10), TierLookup::Ram);
    assert_eq!(c.lookup(Pba::new(50), 10), TierLookup::Miss);
    c
}

const PINNED_TIERED_JSON: &str = concat!(
    r#"{"ram":{"by_start":{"0":1,"300":0},"#,
    r#""nodes":[{"start":300,"sectors":10,"prev":18446744073709551615,"next":1},"#,
    r#"{"start":0,"sectors":10,"prev":0,"next":18446744073709551615},"#,
    r#"{"start":200,"sectors":10,"prev":18446744073709551615,"next":18446744073709551615}],"#,
    r#""free":[2],"head":0,"tail":1,"sectors_used":20,"capacity_sectors":20,"#,
    r#""stats":{"hits":1,"misses":2,"evictions":3}},"#,
    r#""flash":{"by_start":{"0":0,"100":1,"200":2},"#,
    r#""nodes":[{"start":0,"sectors":10,"prev":2,"next":1},"#,
    r#"{"start":100,"sectors":10,"prev":0,"next":18446744073709551615},"#,
    r#"{"start":200,"sectors":10,"prev":18446744073709551615,"next":0}],"#,
    r#""free":[],"head":2,"tail":1,"sectors_used":30,"capacity_sectors":40,"#,
    r#""stats":{"hits":1,"misses":1,"evictions":0}},"#,
    r#""stats":{"ram_hits":1,"flash_hits":1,"misses":1,"promotions":1,"#,
    r#""demoted_sectors":30,"flash_evicted_sectors":0}}"#,
);

#[test]
fn tiered_cache_json_is_pinned() {
    let c = pinned_tiered_cache();
    assert_eq!(json(&c), PINNED_TIERED_JSON);
    let back: TieredCache = serde_json::from_str(PINNED_TIERED_JSON).expect("loads");
    assert_eq!(back, c);
    assert_eq!(json(&back), PINNED_TIERED_JSON);
}
