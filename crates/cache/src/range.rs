//! An LRU-evicted cache of sector ranges in physical (PBA) space.

use serde::{Deserialize, Error, MapKey, Serialize, Value};
use smrseek_trace::{Pba, SECTOR_SIZE};
use std::fmt;

const NIL: usize = usize::MAX;

/// Most entries one index leaf holds; a leaf that grows past it splits in
/// half. The extent map's measured leaf size (DESIGN.md §17).
const LEAF_CAP: usize = 64;

/// One insert grows a leaf by one entry, so leaves get exactly this room:
/// reaching the split point never reallocates a leaf's buffer.
const LEAF_ROOM: usize = LEAF_CAP + 1;

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Node {
    start: u64,
    sectors: u64,
    prev: usize,
    next: usize,
}

impl Node {
    fn end(&self) -> u64 {
        self.start + self.sectors
    }
}

/// One index entry: a cached range's start sector and its slab node.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Entry {
    start: u64,
    node: usize,
}

/// A slot in the index: `(leaf, index in leaf)`. The index equals the
/// leaf's length only in the last leaf, where it marks the end.
type Pos = (usize, usize);

/// The cache's start-ordered index of `(start, node)` entries, laid out
/// like the extent map: a sorted `Vec` of leaves, each a sorted `Vec` of
/// at most [`LEAF_CAP`] entries, plus every leaf's first start. A lookup
/// is two binary searches, and a walk over neighbouring ranges reads
/// contiguous memory.
///
/// Equality, `Debug` and serde see only the entry sequence, never the
/// leaf split; `Debug` and serde print it as the `{start: node}` map the
/// index used to be.
#[derive(Clone, Default)]
struct Index {
    /// `firsts[i]` is the start of `leaves[i]`'s first entry.
    firsts: Vec<u64>,
    /// Non-empty leaves, sorted and disjoint.
    leaves: Vec<Vec<Entry>>,
    /// Entry count across all leaves.
    len: usize,
}

impl Index {
    fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.leaves.iter().flatten()
    }

    fn get(&self, (l, i): Pos) -> Option<Entry> {
        self.leaves.get(l)?.get(i).copied()
    }

    /// The slot after `(l, i)`.
    fn next(&self, (l, i): Pos) -> Pos {
        if i + 1 == self.leaves[l].len() && l + 1 < self.leaves.len() {
            (l + 1, 0)
        } else {
            (l, i + 1)
        }
    }

    /// The slot of the first entry whose range ends after `sector`: the
    /// range containing it, or else the next one above it.
    fn seek(&self, sector: u64, nodes: &[Node]) -> Pos {
        let l = self
            .firsts
            .partition_point(|&f| f <= sector)
            .saturating_sub(1);
        let Some(leaf) = self.leaves.get(l) else {
            return (0, 0);
        };
        let i = leaf.partition_point(|e| e.start <= sector);
        if i > 0 && nodes[leaf[i - 1].node].end() > sector {
            (l, i - 1)
        } else if i == leaf.len() && l + 1 < self.leaves.len() {
            (l + 1, 0)
        } else {
            (l, i)
        }
    }

    /// Inserts `entry` at `pos`, which must keep the entries sorted, and
    /// returns the entry's slot after any leaf split.
    fn insert_at(&mut self, (l, i): Pos, entry: Entry) -> Pos {
        self.len += 1;
        let Some(leaf) = self.leaves.get_mut(l) else {
            let mut leaf = Vec::with_capacity(LEAF_ROOM);
            leaf.push(entry);
            self.leaves.push(leaf);
            self.firsts.push(entry.start);
            return (0, 0);
        };
        leaf.insert(i, entry);
        if i == 0 {
            self.firsts[l] = entry.start;
        }
        if leaf.len() <= LEAF_CAP {
            return (l, i);
        }
        let mid = leaf.len() / 2;
        let mut right = Vec::with_capacity(LEAF_ROOM);
        right.extend_from_slice(&leaf[mid..]);
        leaf.truncate(mid);
        self.firsts.insert(l + 1, right[0].start);
        self.leaves.insert(l + 1, right);
        if i < mid {
            (l, i)
        } else {
            (l + 1, i - mid)
        }
    }

    /// Removes the entry at `pos`, dropping its leaf if it empties.
    fn remove_at(&mut self, (l, i): Pos) {
        self.len -= 1;
        let leaf = &mut self.leaves[l];
        leaf.remove(i);
        if leaf.is_empty() {
            self.leaves.remove(l);
            self.firsts.remove(l);
        } else if i == 0 {
            self.firsts[l] = leaf[0].start;
        }
    }
}

impl PartialEq for Index {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.entries().eq(other.entries())
    }
}

impl Eq for Index {}

impl fmt::Debug for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries().map(|e| (e.start, e.node)))
            .finish()
    }
}

impl Serialize for Index {
    fn to_value(&self) -> Value {
        Value::Object(
            self.entries()
                .map(|e| (e.start.to_key(), e.node.to_value()))
                .collect(),
        )
    }
}

/// Accepts the `{start: node}` map in any key order (a repeated start
/// keeps its last value) and bulk-loads full leaves.
impl Deserialize for Index {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let object = v
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {v:?}")))?;
        let mut entries = object
            .iter()
            .rev()
            .map(|(k, node)| {
                Ok(Entry {
                    start: u64::from_key(k)?,
                    node: usize::from_value(node)?,
                })
            })
            .collect::<Result<Vec<Entry>, Error>>()?;
        // Reversed then stably sorted: of equal starts the last one read
        // comes first and survives the dedup.
        entries.sort_by_key(|e| e.start);
        entries.dedup_by_key(|e| e.start);
        let leaves: Vec<Vec<Entry>> = entries
            .chunks(LEAF_CAP)
            .map(|chunk| {
                let mut leaf = Vec::with_capacity(LEAF_ROOM);
                leaf.extend_from_slice(chunk);
                leaf
            })
            .collect();
        Ok(Index {
            firsts: leaves.iter().map(|leaf| leaf[0].start).collect(),
            leaves,
            len: entries.len(),
        })
    }
}

/// Aggregate hit/miss statistics of a [`RangeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RangeCacheStats {
    /// `covers` queries answered `true`.
    pub hits: u64,
    /// `covers` queries answered `false`.
    pub misses: u64,
    /// Entries evicted to stay within budget.
    pub evictions: u64,
}

impl RangeCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no queries were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// An LRU-evicted set of disjoint sector ranges over PBA space with a byte
/// budget.
///
/// This models a data cache indexed by physical location (the paper's
/// selective-caching fragments and prefetch buffers are both such caches):
/// only presence and recency are tracked, not payloads. In a log-structured
/// system physical sectors are written once and never re-used (infinite
/// disk), so entries never become incoherent — superseded data simply stops
/// being referenced and ages out.
///
/// Ranges are stored at insert granularity (entries are not merged), so LRU
/// eviction keeps the granularity of the original insertions.
///
/// Each range lives in a slab node threaded on an intrusive LRU list, and
/// a two-level sorted index of `(start, node)` finds it by position
/// (DESIGN.md §20): every call seeks once and walks forward in place, and
/// none allocates beyond an occasional leaf split.
///
/// # Example
///
/// ```
/// use smrseek_cache::RangeCache;
/// use smrseek_trace::Pba;
///
/// let mut c = RangeCache::with_capacity_sectors(64);
/// c.insert(Pba::new(100), 16);
/// c.insert(Pba::new(116), 16); // adjacent but separately evictable
/// assert!(c.covers(Pba::new(100), 32));
/// assert!(!c.covers(Pba::new(96), 8)); // partially outside
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct RangeCache {
    by_start: Index,
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    sectors_used: u64,
    capacity_sectors: u64,
    stats: RangeCacheStats,
}

impl RangeCache {
    /// Creates a cache with a budget of `capacity_sectors` sectors.
    pub fn with_capacity_sectors(capacity_sectors: u64) -> Self {
        RangeCache {
            by_start: Index::default(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            sectors_used: 0,
            capacity_sectors,
            stats: RangeCacheStats::default(),
        }
    }

    /// Creates a cache with a budget of `capacity_bytes` bytes (rounded
    /// down to whole sectors).
    pub fn with_capacity_bytes(capacity_bytes: u64) -> Self {
        Self::with_capacity_sectors(capacity_bytes / SECTOR_SIZE)
    }

    /// Budget in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.capacity_sectors
    }

    /// Cached sectors.
    pub fn sectors_used(&self) -> u64 {
        self.sectors_used
    }

    /// Cached bytes.
    pub fn bytes_used(&self) -> u64 {
        self.sectors_used * SECTOR_SIZE
    }

    /// Number of cached ranges.
    pub fn len(&self) -> usize {
        self.by_start.len
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.by_start.len == 0
    }

    /// Hit/miss/eviction counters.
    pub fn stats(&self) -> RangeCacheStats {
        self.stats
    }

    /// Returns `true` — and refreshes the recency of every involved entry —
    /// if `[pba, pba + sectors)` is entirely covered by cached ranges.
    ///
    /// Zero-length queries are vacuously covered and counted as hits.
    pub fn covers(&mut self, pba: Pba, sectors: u64) -> bool {
        match self.covering(pba.sector(), sectors) {
            Some((mut pos, involved)) => {
                for _ in 0..involved {
                    let idx = self.by_start.leaves[pos.0][pos.1].node;
                    self.unlink(idx);
                    self.push_front(idx);
                    pos = self.by_start.next(pos);
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

    /// Like [`covers`](Self::covers) but without touching recency or
    /// counting toward statistics.
    pub fn peek_covers(&self, pba: Pba, sectors: u64) -> bool {
        self.covering(pba.sector(), sectors).is_some()
    }

    /// Inserts `[pba, pba + sectors)`, creating entries only for the
    /// currently-uncovered gaps (existing overlapping entries are touched),
    /// then evicts least-recently-used ranges to fit the budget. Returns
    /// the number of sectors evicted.
    pub fn insert(&mut self, pba: Pba, sectors: u64) -> u64 {
        self.insert_evicting(pba, sectors, &mut |_, _| {})
    }

    /// Like [`insert`](Self::insert), but reports each evicted range to
    /// `on_evict` as `(start, sectors)` in eviction (LRU-first) order.
    /// Multi-level caches use this to demote RAM victims to a lower tier
    /// instead of dropping them.
    pub fn insert_evicting(
        &mut self,
        pba: Pba,
        sectors: u64,
        on_evict: &mut dyn FnMut(Pba, u64),
    ) -> u64 {
        if sectors == 0 {
            return 0;
        }
        let start = pba.sector();
        let end = start + sectors;
        let first = self.by_start.seek(start, &self.nodes);

        // Touch every entry overlapping the range, in PBA order…
        let mut pos = first;
        let mut touched = 0;
        while let Some(e) = self.by_start.get(pos).filter(|e| e.start < end) {
            self.unlink(e.node);
            self.push_front(e.node);
            touched += 1;
            pos = self.by_start.next(pos);
        }
        // …then walk them again and fill the gaps around them, in PBA order.
        let mut pos = first;
        let mut cursor = start;
        for _ in 0..touched {
            let e = self.by_start.leaves[pos.0][pos.1];
            if e.start > cursor {
                pos = self.fill(pos, cursor, e.start);
            }
            cursor = self.nodes[e.node].end().min(end);
            pos = self.by_start.next(pos);
        }
        if cursor < end {
            self.fill(pos, cursor, end);
        }
        self.evict_to_budget(on_evict)
    }

    /// Drops every cached range.
    pub fn clear(&mut self) {
        self.by_start = Index::default();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.sectors_used = 0;
    }

    /// Cached ranges in PBA order as `(start, sectors)` pairs.
    pub fn ranges(&self) -> Vec<(Pba, u64)> {
        self.by_start
            .entries()
            .map(|e| (Pba::new(e.start), self.nodes[e.node].sectors))
            .collect()
    }

    /// Where the entries covering `[start, start + sectors)` in full begin
    /// and how many there are, or `None` if any sector is uncovered. A
    /// zero-length query involves the range containing `start`, if any.
    fn covering(&self, start: u64, sectors: u64) -> Option<(Pos, usize)> {
        let end = start + sectors;
        let first = self.by_start.seek(start, &self.nodes);
        let (mut pos, mut cursor, mut involved) = (first, start, 0);
        while let Some(e) = self.by_start.get(pos).filter(|e| e.start <= cursor) {
            involved += 1;
            cursor = self.nodes[e.node].end().min(end);
            if cursor >= end {
                break;
            }
            pos = self.by_start.next(pos);
        }
        (cursor >= end).then_some((first, involved))
    }

    /// Caches the gap `[start, end)` as a new most-recent entry at `pos`
    /// and returns the slot after it.
    fn fill(&mut self, pos: Pos, start: u64, end: u64) -> Pos {
        let node = self.alloc_node(start, end - start);
        let at = self.by_start.insert_at(pos, Entry { start, node });
        self.sectors_used += end - start;
        self.push_front(node);
        self.by_start.next(at)
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
        while self.sectors_used > self.capacity_sectors && self.by_start.len > 1 {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            let (start, len) = (self.nodes[victim].start, self.nodes[victim].sectors);
            let at = self.by_start.seek(start, &self.nodes);
            self.by_start.remove_at(at);
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

    /// Checks the invariants every operation relies on, naming the first
    /// one broken: each index entry names a node with its start and a
    /// non-empty range; the ranges are disjoint; `head → tail`
    /// visits exactly the indexed nodes with consistent links; `free`
    /// holds every other slot once; `sectors_used` sums the ranges.
    fn check(&self) -> Result<(), String> {
        let n = self.nodes.len();
        let mut indexed = vec![false; n];
        let (mut sum, mut prev_end) = (0u64, 0u64);
        for e in self.by_start.entries() {
            let node = self
                .nodes
                .get(e.node)
                .ok_or_else(|| format!("range at {} names node {} of {n}", e.start, e.node))?;
            if node.start != e.start {
                return Err(format!(
                    "range at {} names node {}, which starts at {}",
                    e.start, e.node, node.start
                ));
            }
            // Starts are unique keys and each must equal its node's start,
            // so no node can be indexed twice.
            indexed[e.node] = true;
            if node.sectors == 0 || node.start.checked_add(node.sectors).is_none() {
                return Err(format!("range at {} has {} sectors", e.start, node.sectors));
            }
            if node.start < prev_end {
                return Err(format!("range at {} overlaps the one before", e.start));
            }
            prev_end = node.end();
            sum += node.sectors;
        }
        if sum != self.sectors_used {
            return Err(format!(
                "sectors_used is {} but the ranges hold {sum}",
                self.sectors_used
            ));
        }
        let mut seen = vec![false; n];
        let (mut prev, mut idx, mut linked) = (NIL, self.head, 0);
        while idx != NIL {
            if !indexed.get(idx).copied().unwrap_or(false) || seen[idx] {
                return Err(format!("LRU list revisits or strays to node {idx}"));
            }
            if self.nodes[idx].prev != prev {
                return Err(format!("node {idx} links back to the wrong node"));
            }
            seen[idx] = true;
            linked += 1;
            (prev, idx) = (idx, self.nodes[idx].next);
        }
        if prev != self.tail || linked != self.by_start.len {
            return Err(format!(
                "LRU list links {linked} of {} ranges and ends at {prev}, not the tail {}",
                self.by_start.len, self.tail
            ));
        }
        for &slot in &self.free {
            if slot >= n || seen[slot] {
                return Err(format!(
                    "free list names slot {slot}, which is live or listed"
                ));
            }
            seen[slot] = true;
        }
        if self.free.len() + self.by_start.len != n {
            return Err(format!(
                "{} of {n} slab slots are neither cached nor free",
                n - self.free.len() - self.by_start.len
            ));
        }
        Ok(())
    }
}

/// Reads the derived serialized form, then refuses a cache whose slab,
/// LRU list, free list and index disagree ([`RangeCache::check`]), so a
/// damaged checkpoint fails to load instead of panicking on first use.
impl Deserialize for RangeCache {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let field = |name: &str| v.expect_field(name);
        let cache = RangeCache {
            by_start: Deserialize::from_value(field("by_start")?)?,
            nodes: Deserialize::from_value(field("nodes")?)?,
            free: Deserialize::from_value(field("free")?)?,
            head: Deserialize::from_value(field("head")?)?,
            tail: Deserialize::from_value(field("tail")?)?,
            sectors_used: Deserialize::from_value(field("sectors_used")?)?,
            capacity_sectors: Deserialize::from_value(field("capacity_sectors")?)?,
            stats: Deserialize::from_value(field("stats")?)?,
        };
        cache
            .check()
            .map_err(|why| Error::custom(format!("invalid range cache: {why}")))?;
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn empty_cache_covers_nothing() {
        let mut c = RangeCache::with_capacity_sectors(100);
        assert!(c.is_empty());
        assert!(!c.covers(pba(0), 1));
        assert!(c.covers(pba(0), 0)); // vacuous
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn exact_and_partial_coverage() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(10), 10);
        assert!(c.covers(pba(10), 10));
        assert!(c.covers(pba(12), 4));
        assert!(!c.covers(pba(5), 10));
        assert!(!c.covers(pba(15), 10));
        assert!(!c.covers(pba(30), 1));
    }

    #[test]
    fn coverage_across_multiple_entries() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(0), 10);
        c.insert(pba(10), 10);
        c.insert(pba(20), 10);
        assert!(c.covers(pba(5), 20)); // spans three entries
        c.insert(pba(40), 5);
        assert!(!c.covers(pba(25), 20)); // gap [30,40)
    }

    #[test]
    fn insert_fills_only_gaps() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(10), 10);
        c.insert(pba(5), 20); // covers [5,10) and [20,25) as new entries
        assert_eq!(c.sectors_used(), 20);
        assert_eq!(c.len(), 3);
        assert!(c.covers(pba(5), 20));
    }

    #[test]
    fn eviction_is_lru_over_ranges() {
        let mut c = RangeCache::with_capacity_sectors(30);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        c.insert(pba(200), 10);
        assert!(c.covers(pba(0), 10)); // refresh the oldest
        c.insert(pba(300), 10); // must evict [100,110)
        assert!(c.peek_covers(pba(0), 10));
        assert!(!c.peek_covers(pba(100), 10));
        assert!(c.peek_covers(pba(200), 10));
        assert!(c.peek_covers(pba(300), 10));
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.sectors_used(), 30);
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = RangeCache::with_capacity_sectors(20);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        assert!(c.peek_covers(pba(0), 10)); // would refresh if it touched
        c.insert(pba(200), 10); // evicts true LRU: [0,10)
        assert!(!c.peek_covers(pba(0), 10));
        assert!(c.peek_covers(pba(100), 10));
    }

    #[test]
    fn covering_query_protects_from_eviction() {
        let mut c = RangeCache::with_capacity_sectors(20);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        assert!(c.covers(pba(0), 10)); // touch
        c.insert(pba(200), 10); // evicts [100,110)
        assert!(c.peek_covers(pba(0), 10));
        assert!(!c.peek_covers(pba(100), 10));
    }

    #[test]
    fn byte_capacity_constructor() {
        let c = RangeCache::with_capacity_bytes(64 * 1024 * 1024);
        assert_eq!(c.capacity_sectors(), 131_072);
        assert_eq!(c.bytes_used(), 0);
    }

    #[test]
    fn clear_resets() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(0), 50);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.sectors_used(), 0);
        assert!(!c.covers(pba(0), 1));
        c.insert(pba(0), 10);
        assert!(c.covers(pba(0), 10));
    }

    #[test]
    fn ranges_listing_sorted() {
        let mut c = RangeCache::with_capacity_sectors(100);
        c.insert(pba(50), 5);
        c.insert(pba(0), 5);
        assert_eq!(c.ranges(), vec![(pba(0), 5), (pba(50), 5)]);
    }

    #[test]
    fn overlapping_insert_touches_existing() {
        let mut c = RangeCache::with_capacity_sectors(25);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        // Overlapping insert refreshes [0,10) and adds [10,15).
        c.insert(pba(0), 15);
        c.insert(pba(200), 10); // evicts LRU = [100,110)
        assert!(c.peek_covers(pba(0), 15));
        assert!(!c.peek_covers(pba(100), 10));
    }

    #[test]
    fn insert_evicting_reports_victims_lru_first() {
        let mut c = RangeCache::with_capacity_sectors(30);
        c.insert(pba(0), 10);
        c.insert(pba(100), 10);
        c.insert(pba(200), 10);
        let mut victims = Vec::new();
        let n = c.insert_evicting(pba(300), 20, &mut |p, len| victims.push((p, len)));
        assert_eq!(n, 20);
        assert_eq!(victims, vec![(pba(0), 10), (pba(100), 10)]);
        assert!(!c.peek_covers(pba(0), 1));
        assert!(c.peek_covers(pba(200), 10));
        assert!(c.peek_covers(pba(300), 20));
    }

    #[test]
    fn heavy_churn_reuses_slab() {
        let mut c = RangeCache::with_capacity_sectors(64);
        for i in 0..10_000u64 {
            c.insert(pba(i * 1000), 32);
        }
        assert!(c.nodes.len() <= 64, "slab grew to {}", c.nodes.len());
        assert!(c.sectors_used() <= 64);
    }

    /// The JSON of a cache with budget 100 built from the given parts;
    /// `nodes` are `(start, sectors, prev, next)`.
    fn cache_json(
        by_start: &str,
        nodes: &[(u64, u64, usize, usize)],
        free: &str,
        (head, tail): (usize, usize),
        sectors_used: u64,
    ) -> String {
        let nodes: Vec<String> = nodes
            .iter()
            .map(|&(s, l, p, n)| format!(r#"{{"start":{s},"sectors":{l},"prev":{p},"next":{n}}}"#))
            .collect();
        format!(
            concat!(
                r#"{{"by_start":{{{}}},"nodes":[{}],"free":[{}],"head":{},"tail":{},"#,
                r#""sectors_used":{},"capacity_sectors":100,"#,
                r#""stats":{{"hits":0,"misses":0,"evictions":0}}}}"#
            ),
            by_start,
            nodes.join(","),
            free,
            head,
            tail,
            sectors_used
        )
    }

    const X: usize = NIL;
    /// `[0,10)`, `[20,30)`, `[40,50)` inserted in that order (LRU
    /// `2 → 1 → 0`), plus slot 3 on the free list.
    const INDEX: &str = r#""0":0,"20":1,"40":2"#;
    const NODES: [(u64, u64, usize, usize); 4] = [
        (0, 10, 1, X),
        (20, 10, 2, 0),
        (40, 10, X, 1),
        (60, 10, X, X),
    ];

    fn load(json: &str) -> Result<RangeCache, String> {
        serde_json::from_str(json).map_err(|e| e.to_string())
    }

    fn rejects(json: &str, why: &str) {
        match load(json) {
            Ok(c) => panic!("loaded a broken cache: {c:?}"),
            Err(e) => assert!(
                e.contains("invalid range cache") && e.contains(why),
                "wrong error for {json}: {e}"
            ),
        }
    }

    #[test]
    fn well_formed_cache_loads_and_behaves() {
        let json = cache_json(INDEX, &NODES, "3", (2, 0), 30);
        let mut loaded = load(&json).expect("well-formed");
        assert_eq!(serde_json::to_string(&loaded).unwrap(), json);
        assert_eq!(
            loaded.ranges(),
            vec![(pba(0), 10), (pba(20), 10), (pba(40), 10)]
        );
        assert!(!loaded.covers(pba(0), 30));
        assert!(loaded.covers(pba(20), 10));
        loaded.insert(pba(80), 10); // reuses free slot 3
        assert_eq!(loaded.nodes[3].start, 80);
        assert_eq!(loaded.head, 3);
    }

    #[test]
    fn index_naming_a_missing_node_is_rejected() {
        // Loaded, then panicked on the first `covers` when the derived
        // form was all the checking there was.
        rejects(
            &cache_json(r#""10":7"#, &[], "", (5, 5), 0),
            "names node 7 of 0",
        );
        rejects(
            &cache_json(r#""0":0,"20":1,"40":9"#, &NODES, "3", (2, 0), 30),
            "names node 9 of 4",
        );
    }

    #[test]
    fn index_start_must_match_its_node() {
        rejects(
            &cache_json(r#""0":0,"20":2,"40":1"#, &NODES, "3", (2, 0), 30),
            "which starts at 40",
        );
    }

    #[test]
    fn empty_and_overlapping_ranges_are_rejected() {
        let mut nodes = NODES;
        nodes[1].1 = 0;
        rejects(&cache_json(INDEX, &nodes, "3", (2, 0), 20), "has 0 sectors");
        let mut nodes = NODES;
        nodes[0].1 = 25;
        rejects(&cache_json(INDEX, &nodes, "3", (2, 0), 45), "overlaps");
    }

    #[test]
    fn sectors_used_must_sum_the_ranges() {
        rejects(
            &cache_json(INDEX, &NODES, "3", (2, 0), 31),
            "sectors_used is 31",
        );
    }

    #[test]
    fn lru_list_must_link_exactly_the_cached_ranges() {
        // Starts mid-list: [40,50) is never reached.
        let mut nodes = NODES;
        nodes[1].2 = X;
        rejects(&cache_json(INDEX, &nodes, "3", (1, 0), 30), "links 2 of 3");
        // Ends early: the tail is not where the links end.
        rejects(
            &cache_json(INDEX, &NODES, "3", (2, 1), 30),
            "not the tail 1",
        );
        // A back link that disagrees with the forward one.
        let mut nodes = NODES;
        nodes[0].2 = 2;
        rejects(
            &cache_json(INDEX, &nodes, "3", (2, 0), 30),
            "node 0 links back",
        );
        // A cycle.
        let mut nodes = NODES;
        nodes[0].3 = 2;
        rejects(&cache_json(INDEX, &nodes, "3", (2, 0), 30), "revisits");
        // A link to a free slot.
        let mut nodes = NODES;
        nodes[0].3 = 3;
        rejects(
            &cache_json(INDEX, &nodes, "3", (2, 0), 30),
            "strays to node 3",
        );
        // An empty cache with a head.
        rejects(&cache_json("", &[], "", (0, X), 0), "strays to node 0");
    }

    #[test]
    fn free_list_must_hold_exactly_the_other_slots() {
        rejects(
            &cache_json(INDEX, &NODES, "", (2, 0), 30),
            "neither cached nor free",
        );
        rejects(
            &cache_json(INDEX, &NODES, "3,0", (2, 0), 30),
            "free list names slot 0",
        );
        rejects(
            &cache_json(INDEX, &NODES, "3,3", (2, 0), 30),
            "free list names slot 3",
        );
        rejects(
            &cache_json(INDEX, &NODES, "3,9", (2, 0), 30),
            "free list names slot 9",
        );
    }

    #[test]
    fn broken_ram_tier_fails_a_tiered_load() {
        let bad = cache_json(r#""10":7"#, &[], "", (5, 5), 0);
        let json = format!(
            concat!(
                r#"{{"ram":{},"flash":null,"stats":{{"ram_hits":0,"flash_hits":0,"#,
                r#""misses":0,"promotions":0,"demoted_sectors":0,"flash_evicted_sectors":0}}}}"#
            ),
            bad
        );
        let err = serde_json::from_str::<crate::TieredCache>(&json).unwrap_err();
        assert!(err.to_string().contains("invalid range cache"), "{err}");
    }
}
