//! The coalescing LBA→PBA interval map.
//!
//! The map is two levels deep: a sorted `Vec` of *leaves*, each a sorted
//! `Vec` of at most [`LEAF_CAP`] extents, plus a parallel `Vec` of every
//! leaf's first start LBA. Two binary searches (leaf, then position inside
//! it) find any extent, a range walk is a linear scan of contiguous
//! memory, and an overwrite is one in-place edit of a few adjacent slots.

use crate::segment::{Extent, Segment};
use serde::{Deserialize, Error, MapKey, Serialize, Value};
use smrseek_trace::{Lba, Pba};
use std::fmt;

/// Most extents one leaf holds; a leaf that grows past it splits in half.
///
/// Measured on the scramble benchmark (66k-extent peak): 64 keeps a
/// leaf's binary search and its splice memmove both within a few cache
/// lines, while the leaf index stays small enough to stay cached.
const LEAF_CAP: usize = 64;

/// One edit grows a leaf by at most two runs (one run split into head,
/// new and tail), so leaves get exactly this room: reaching the split
/// point never reallocates, let alone doubles, a leaf's buffer.
const LEAF_ROOM: usize = LEAF_CAP + 2;

/// One stored extent in raw sector numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Run {
    start: u64,
    len: u64,
    pba: u64,
}

impl Run {
    fn end(&self) -> u64 {
        self.start + self.len
    }

    /// `true` when `next` continues this run logically and physically.
    fn abuts(&self, next: &Run) -> bool {
        self.end() == next.start && self.pba + self.len == next.pba
    }

    /// The part of this run from logical sector `at` (inside it) onwards.
    fn from(&self, at: u64) -> Run {
        Run {
            start: at,
            len: self.end() - at,
            pba: self.pba + (at - self.start),
        }
    }
}

/// A map from logical sector ranges to physical sector ranges with
/// split-on-overwrite and coalesce-on-insert semantics.
///
/// Invariants (checked by the property tests in `tests/`):
///
/// 1. stored extents never overlap logically,
/// 2. adjacent stored extents are never coalescible (maximal extents),
/// 3. a lookup over any range tiles the range exactly, in order, with no
///    gaps or overlaps between returned segments.
///
/// Equality compares content, not how the extents happen to be split
/// into leaves.
///
/// # Example
///
/// ```
/// use smrseek_extent::{ExtentMap, Segment};
/// use smrseek_trace::{Lba, Pba};
///
/// let mut map = ExtentMap::new();
/// map.insert(Lba::new(10), 10, Pba::new(500));
/// map.insert(Lba::new(15), 2, Pba::new(900)); // split the middle
/// let segs = map.lookup(Lba::new(10), 10);
/// assert_eq!(segs.len(), 3);
/// assert_eq!(segs[1].as_mapped().unwrap().pba, Pba::new(900));
/// ```
#[derive(Clone, Default)]
pub struct ExtentMap {
    /// `firsts[i]` is the start LBA of `leaves[i]`'s first run.
    firsts: Vec<u64>,
    /// Non-empty leaves of at most `LEAF_CAP` runs, sorted and disjoint.
    leaves: Vec<Vec<Run>>,
    /// Stored run count across all leaves.
    len: usize,
    mapped_sectors: u64,
}

impl ExtentMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        ExtentMap::default()
    }

    /// Number of stored extents.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if nothing is mapped.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total mapped sectors.
    pub fn mapped_sectors(&self) -> u64 {
        self.mapped_sectors
    }

    /// Maps the logical range `[lba, lba + sectors)` to the physical range
    /// `[pba, pba + sectors)`, overwriting any previous mappings of those
    /// logical sectors (splitting partially-covered extents), then
    /// coalescing with neighbours that abut both logically and physically.
    ///
    /// Inserting zero sectors is a no-op.
    pub fn insert(&mut self, lba: Lba, sectors: u64, pba: Pba) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        self.edit(start, start + sectors, Some(pba.sector()));
    }

    /// Removes any mapping of the logical range `[lba, lba + sectors)`.
    pub fn remove(&mut self, lba: Lba, sectors: u64) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        self.edit(start, start + sectors, None);
    }

    /// Translates one logical sector, or `None` if unmapped.
    ///
    /// # Example
    ///
    /// ```
    /// use smrseek_extent::ExtentMap;
    /// use smrseek_trace::{Lba, Pba};
    ///
    /// let mut map = ExtentMap::new();
    /// map.insert(Lba::new(4), 4, Pba::new(100));
    /// assert_eq!(map.translate(Lba::new(5)), Some(Pba::new(101)));
    /// assert_eq!(map.translate(Lba::new(3)), None);
    /// ```
    pub fn translate(&self, lba: Lba) -> Option<Pba> {
        let sector = lba.sector();
        let (l, i) = self.seek(sector);
        let run = self.leaves.get(l)?.get(i)?;
        (run.start <= sector).then(|| Pba::new(run.pba + (sector - run.start)))
    }

    /// Tiles the logical range `[lba, lba + sectors)` with mapped and hole
    /// segments, in logical order.
    pub fn lookup(&self, lba: Lba, sectors: u64) -> Vec<Segment> {
        let mut out = Vec::new();
        self.lookup_each(lba, sectors, |seg| out.push(seg));
        out
    }

    /// Non-allocating form of [`lookup`](Self::lookup): visits the same
    /// segments in the same order, calling `f` for each instead of
    /// collecting a `Vec`. This is the hot read path — every translated
    /// read walks the map — so callers that only fold over the tiles
    /// (fragment counting, run merging) should use this.
    pub fn lookup_each(&self, lba: Lba, sectors: u64, mut f: impl FnMut(Segment)) {
        if sectors == 0 {
            return;
        }
        let start = lba.sector();
        let end = start + sectors;
        let mut cursor = start;
        let (l, i) = self.seek(start);
        let mut from = i;
        'walk: for leaf in &self.leaves[l..] {
            for run in &leaf[from..] {
                if run.start >= end {
                    break 'walk;
                }
                if run.start > cursor {
                    f(Segment::Hole {
                        lba: Lba::new(cursor),
                        sectors: run.start - cursor,
                    });
                    cursor = run.start;
                }
                let take = run.end().min(end) - cursor;
                f(Segment::Mapped(Extent::new(
                    Lba::new(cursor),
                    take,
                    Pba::new(run.pba + (cursor - run.start)),
                )));
                cursor += take;
            }
            from = 0;
        }
        if cursor < end {
            f(Segment::Hole {
                lba: Lba::new(cursor),
                sectors: end - cursor,
            });
        }
    }

    /// **Dynamic fragmentation** of one read (§IV-A): the number of
    /// physically non-contiguous pieces required to fetch the logical range.
    ///
    /// Holes count using identity placement (PBA = LBA sector), matching the
    /// disk model's treatment of never-written data; two consecutive pieces
    /// merge when the second starts at the physical sector immediately
    /// following the first.
    pub fn fragments_in(&self, lba: Lba, sectors: u64) -> usize {
        let mut count = 0usize;
        let mut prev_phys_end: Option<u64> = None;
        self.lookup_each(lba, sectors, |seg| {
            let (phys_start, len) = match seg {
                Segment::Mapped(e) => (e.pba.sector(), e.sectors),
                Segment::Hole { lba, sectors } => (lba.sector(), sectors),
            };
            if prev_phys_end != Some(phys_start) {
                count += 1;
            }
            prev_phys_end = Some(phys_start + len);
        });
        count
    }

    /// **Static fragmentation** (§IV-A): the number of physically
    /// discontiguous runs across the entire mapped LBA space — equivalently,
    /// the seeks incurred by one sequential read of the whole LBA space
    /// (holes again reading from their identity location).
    pub fn static_fragmentation(&self) -> usize {
        let (Some(&first), Some(last)) = (
            self.firsts.first(),
            self.leaves.last().and_then(|leaf| leaf.last()),
        ) else {
            return 0;
        };
        self.fragments_in(Lba::new(first), last.end() - first)
    }

    /// Iterates the stored extents in logical order.
    pub fn iter(&self) -> impl Iterator<Item = Extent> + '_ {
        self.runs()
            .map(|r| Extent::new(Lba::new(r.start), r.len, Pba::new(r.pba)))
    }

    fn runs(&self) -> impl Iterator<Item = &Run> + '_ {
        self.leaves.iter().flatten()
    }

    /// Position `(leaf, index)` of the first run that ends after `sector`:
    /// the run containing it, or else the next run above it. The index may
    /// equal the leaf's length (the next run, if any, opens the next leaf).
    fn seek(&self, sector: u64) -> (usize, usize) {
        let l = self
            .firsts
            .partition_point(|&f| f <= sector)
            .saturating_sub(1);
        let Some(leaf) = self.leaves.get(l) else {
            return (0, 0);
        };
        let i = leaf.partition_point(|r| r.start <= sector);
        if i > 0 && leaf[i - 1].end() > sector {
            (l, i - 1)
        } else {
            (l, i)
        }
    }

    /// Maps `[start, end)` to the physical range starting at `pba`, or
    /// unmaps it when `pba` is `None`, in one pass:
    /// locate the predecessor, read the covered runs and the neighbours in
    /// place, then splice at most three runs (head, new or merged, tail)
    /// over the affected slots.
    fn edit(&mut self, start: u64, end: u64, pba: Option<u64>) {
        let new = pba.map(|pba| Run {
            start,
            len: end - start,
            pba,
        });
        if self.leaves.is_empty() {
            if new.is_none() {
                return;
            }
            self.leaves.push(Vec::with_capacity(LEAF_ROOM));
            self.firsts.push(start);
        }
        // The last run starting before `start` is the predecessor. It sits
        // at `(l0, i0 - 1)`; `i0 == 0` only when there is none.
        let l0 = self
            .firsts
            .partition_point(|&f| f < start)
            .saturating_sub(1);
        let i0 = self.leaves[l0].partition_point(|r| r.start < start);

        // The runs to replace are the slots `[first, after)`.
        let mut first = None;
        let mut after = (l0, i0);
        let mut removed = (0usize, 0u64); // (runs, sectors)
        let mut head = None;
        let mut tail = None;
        if i0 > 0 {
            let p = self.leaves[l0][i0 - 1];
            // Taken when it overlaps the range, or when it ends exactly at
            // `start` and continues physically into `new` (coalesce).
            if p.end() > start || new.is_some_and(|n| p.abuts(&n)) {
                first = Some((l0, i0 - 1));
                removed = (1, p.len);
                head = Some(Run {
                    len: start - p.start,
                    ..p
                });
                if p.end() > end {
                    tail = Some(p.from(end));
                }
            }
        }
        let (mut l, mut i) = (l0, i0);
        'scan: while let Some(leaf) = self.leaves.get(l) {
            for run in &leaf[i..] {
                // Past the range, only a run `new` coalesces into is taken.
                let covered = run.start < end;
                if !covered && !new.is_some_and(|n| n.abuts(run)) {
                    break 'scan;
                }
                first.get_or_insert((l, i));
                removed.0 += 1;
                removed.1 += run.len;
                i += 1;
                after = (l, i);
                if !covered {
                    tail = Some(*run);
                    break 'scan;
                }
                if run.end() > end {
                    tail = Some(run.from(end));
                }
            }
            (l, i) = (l + 1, 0);
        }

        // The replacement: head, new, tail, coalescing the abutting ones.
        let mut pieces = [Run::default(); 3];
        let mut n = 0;
        for run in [head, new, tail].into_iter().flatten() {
            match pieces[..n].last_mut() {
                Some(prev) if prev.abuts(&run) => prev.len += run.len,
                _ => {
                    pieces[n] = run;
                    n += 1;
                }
            }
        }
        let pieces = &pieces[..n];
        if removed.0 == 0 && pieces.is_empty() {
            return;
        }
        self.len = self.len - removed.0 + pieces.len();
        self.mapped_sectors =
            self.mapped_sectors - removed.1 + pieces.iter().map(|r| r.len).sum::<u64>();

        let (la, ia) = first.unwrap_or(after);
        let (lb, mut ib) = after;
        if lb > la {
            // The splice crosses leaves: drop the wholly covered ones, cut
            // the covered prefix off the last, then splice the first's tail.
            let last = &mut self.leaves[lb];
            last.drain(..ib);
            let drop_end = if last.is_empty() {
                lb + 1
            } else {
                self.firsts[lb] = last[0].start;
                lb
            };
            self.leaves.drain(la + 1..drop_end);
            self.firsts.drain(la + 1..drop_end);
            ib = self.leaves[la].len();
        }
        let leaf = &mut self.leaves[la];
        let grows = pieces.len().saturating_sub(ib - ia);
        debug_assert!(leaf.len() + grows <= LEAF_ROOM);
        if leaf.len() + grows > leaf.capacity() {
            leaf.reserve_exact(LEAF_ROOM - leaf.len());
        }
        leaf.splice(ia..ib, pieces.iter().copied());
        self.settle(la);
    }

    /// Restores the leaf invariants of `leaves[l]` after an edit: an
    /// emptied leaf is dropped, an overfull one split in half, and its
    /// first start refreshed.
    fn settle(&mut self, l: usize) {
        let leaf = &mut self.leaves[l];
        let Some(head) = leaf.first() else {
            self.leaves.remove(l);
            self.firsts.remove(l);
            return;
        };
        self.firsts[l] = head.start;
        if leaf.len() > LEAF_CAP {
            let mid = leaf.len() / 2;
            let mut right = Vec::with_capacity(LEAF_ROOM);
            right.extend_from_slice(&leaf[mid..]);
            leaf.truncate(mid);
            self.firsts.insert(l + 1, right[0].start);
            self.leaves.insert(l + 1, right);
        }
    }
}

impl PartialEq for ExtentMap {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.mapped_sectors == other.mapped_sectors
            && self.runs().eq(other.runs())
    }
}

impl fmt::Debug for ExtentMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Runs<'a>(&'a ExtentMap);
        impl fmt::Debug for Runs<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_map()
                    .entries(self.0.runs().map(|r| (r.start, (r.len, r.pba))))
                    .finish()
            }
        }
        f.debug_struct("ExtentMap")
            .field("extents", &Runs(self))
            .field("mapped_sectors", &self.mapped_sectors)
            .finish()
    }
}

/// The serialized form is `{"extents": {start: [len, pba], …},
/// "mapped_sectors": n}` with starts in ascending order — independent of
/// the leaf layout, so checkpoints written by any version load.
impl Serialize for ExtentMap {
    fn to_value(&self) -> Value {
        let extents = self
            .runs()
            .map(|r| (r.start.to_key(), (r.len, r.pba).to_value()))
            .collect();
        Value::Object(vec![
            ("extents".to_string(), Value::Object(extents)),
            ("mapped_sectors".to_string(), self.mapped_sectors.to_value()),
        ])
    }
}

/// Accepts the serialized form in any key order (a repeated start keeps
/// its last value) and bulk-loads the leaves.
impl Deserialize for ExtentMap {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let extents = v.expect_field("extents")?;
        let entries = extents
            .as_object()
            .ok_or_else(|| Error::custom(format!("expected object, got {extents:?}")))?;
        let mut runs = entries
            .iter()
            .rev()
            .map(|(k, val)| {
                let (len, pba) = <(u64, u64)>::from_value(val)?;
                Ok(Run {
                    start: u64::from_key(k)?,
                    len,
                    pba,
                })
            })
            .collect::<Result<Vec<Run>, Error>>()?;
        // Reversed then stably sorted: of equal starts the last one read
        // comes first and survives the dedup.
        runs.sort_by_key(|r| r.start);
        runs.dedup_by_key(|r| r.start);
        let leaves: Vec<Vec<Run>> = runs.chunks(LEAF_CAP).map(<[Run]>::to_vec).collect();
        Ok(ExtentMap {
            firsts: leaves.iter().map(|leaf| leaf[0].start).collect(),
            leaves,
            len: runs.len(),
            mapped_sectors: u64::from_value(v.expect_field("mapped_sectors")?)?,
        })
    }
}

// FNV-1a 128-bit, the same hash `smrseek_trace::digest` uses for trace
// identity (constants duplicated so this crate stays dependency-free).
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

impl ExtentMap {
    /// FNV-1a 128-bit digest over the stored `(start, len, pba)` triples in
    /// logical order. Two maps digest equal iff they hold the same extents
    /// (the map's invariants make the maximal-extent representation
    /// canonical), so a digest comparison stands in for full map equality
    /// without cloning either map.
    pub fn digest(&self) -> u128 {
        let mut state = FNV_OFFSET;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                state ^= u128::from(b);
                state = state.wrapping_mul(FNV_PRIME);
            }
        };
        for run in self.runs() {
            mix(run.start);
            mix(run.len);
            mix(run.pba);
        }
        state
    }
}

/// A compact fingerprint of an [`ExtentMap`]'s state at one replay
/// boundary: the content digest plus the cheap structural counters.
///
/// Sharded replay captures one of these per shard boundary during its
/// map-state prepass and compares it against the map each shard actually
/// reaches, detecting any divergence between the prepass and the full
/// replay without storing (or diffing) whole map clones.
///
/// # Example
///
/// ```
/// use smrseek_extent::{ExtentMap, ExtentMapCheckpoint};
/// use smrseek_trace::{Lba, Pba};
///
/// let mut map = ExtentMap::new();
/// map.insert(Lba::new(0), 4, Pba::new(1000));
/// let ck = ExtentMapCheckpoint::capture(&map);
/// assert!(ck.matches(&map));
/// map.insert(Lba::new(2), 1, Pba::new(2000));
/// assert!(!ck.matches(&map));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentMapCheckpoint {
    /// Content digest ([`ExtentMap::digest`]).
    pub digest: u128,
    /// Stored extent count at capture time.
    pub segments: usize,
    /// Total mapped sectors at capture time.
    pub mapped_sectors: u64,
}

impl ExtentMapCheckpoint {
    /// Fingerprints `map` as it stands.
    pub fn capture(map: &ExtentMap) -> Self {
        ExtentMapCheckpoint {
            digest: map.digest(),
            segments: map.len(),
            mapped_sectors: map.mapped_sectors(),
        }
    }

    /// Returns `true` when `map`'s current state matches the captured
    /// fingerprint.
    pub fn matches(&self, map: &ExtentMap) -> bool {
        self.segments == map.len()
            && self.mapped_sectors == map.mapped_sectors()
            && self.digest == map.digest()
    }
}

impl fmt::Display for ExtentMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ExtentMap({} extents, {} sectors)",
            self.len(),
            self.mapped_sectors
        )
    }
}

impl FromIterator<Extent> for ExtentMap {
    fn from_iter<I: IntoIterator<Item = Extent>>(iter: I) -> Self {
        let mut map = ExtentMap::new();
        for e in iter {
            map.insert(e.lba, e.sectors, e.pba);
        }
        map
    }
}

impl Extend<Extent> for ExtentMap {
    fn extend<I: IntoIterator<Item = Extent>>(&mut self, iter: I) {
        for e in iter {
            self.insert(e.lba, e.sectors, e.pba);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lba(s: u64) -> Lba {
        Lba::new(s)
    }
    fn pba(s: u64) -> Pba {
        Pba::new(s)
    }

    #[test]
    fn empty_map() {
        let map = ExtentMap::new();
        assert!(map.is_empty());
        assert_eq!(map.translate(lba(0)), None);
        assert_eq!(map.static_fragmentation(), 0);
        assert!(map.lookup(lba(0), 0).is_empty());
        let segs = map.lookup(lba(5), 3);
        assert_eq!(segs.len(), 1);
        assert!(segs[0].is_hole());
    }

    #[test]
    fn insert_and_translate() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 5, pba(100));
        assert_eq!(map.translate(lba(10)), Some(pba(100)));
        assert_eq!(map.translate(lba(14)), Some(pba(104)));
        assert_eq!(map.translate(lba(15)), None);
        assert_eq!(map.translate(lba(9)), None);
        assert_eq!(map.mapped_sectors(), 5);
    }

    #[test]
    fn overwrite_middle_splits() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        map.insert(lba(4), 2, pba(500));
        assert_eq!(map.len(), 3);
        assert_eq!(map.translate(lba(3)), Some(pba(103)));
        assert_eq!(map.translate(lba(4)), Some(pba(500)));
        assert_eq!(map.translate(lba(5)), Some(pba(501)));
        assert_eq!(map.translate(lba(6)), Some(pba(106)));
        assert_eq!(map.mapped_sectors(), 10);
    }

    #[test]
    fn overwrite_head_and_tail() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 10, pba(100));
        map.insert(lba(5), 8, pba(300)); // covers head 10..13
        assert_eq!(map.translate(lba(12)), Some(pba(307)));
        assert_eq!(map.translate(lba(13)), Some(pba(103)));
        map.insert(lba(18), 5, pba(400)); // covers tail 18..20
        assert_eq!(map.translate(lba(17)), Some(pba(107)));
        assert_eq!(map.translate(lba(19)), Some(pba(401)));
        assert_eq!(map.mapped_sectors(), 10 + 8 + 5 - 3 - 2); // = 18
    }

    #[test]
    fn overwrite_exact_and_superset() {
        let mut map = ExtentMap::new();
        map.insert(lba(10), 4, pba(100));
        map.insert(lba(10), 4, pba(200)); // exact replacement
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(201)));
        map.insert(lba(8), 8, pba(300)); // superset swallows it
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(303)));
        assert_eq!(map.mapped_sectors(), 8);
    }

    #[test]
    fn overwrite_spanning_multiple_extents() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(100));
        map.insert(lba(8), 4, pba(200));
        map.insert(lba(16), 4, pba(300));
        map.insert(lba(2), 16, pba(1000)); // spans all three
        assert_eq!(map.translate(lba(1)), Some(pba(101)));
        assert_eq!(map.translate(lba(2)), Some(pba(1000)));
        assert_eq!(map.translate(lba(17)), Some(pba(1015)));
        assert_eq!(map.translate(lba(18)), Some(pba(302)));
        assert_eq!(map.mapped_sectors(), 2 + 16 + 2);
    }

    #[test]
    fn coalesce_log_append() {
        let mut map = ExtentMap::new();
        // Sequential log writes of logically-consecutive data coalesce.
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(4), 4, pba(1004));
        map.insert(lba(8), 4, pba(1008));
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(11)), Some(pba(1011)));
    }

    #[test]
    fn no_coalesce_when_physically_apart() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(4), 4, pba(2000));
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn coalesce_bridges_predecessor_and_successor() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(8), 4, pba(1008));
        map.insert(lba(4), 4, pba(1004)); // bridges both sides
        assert_eq!(map.len(), 1);
        assert_eq!(map.translate(lba(9)), Some(pba(1009)));
    }

    #[test]
    fn lookup_tiles_range() {
        let mut map = ExtentMap::new();
        map.insert(lba(2), 3, pba(100));
        map.insert(lba(8), 2, pba(200));
        let segs = map.lookup(lba(0), 12);
        // hole [0,2), mapped [2,5), hole [5,8), mapped [8,10), hole [10,12)
        assert_eq!(segs.len(), 5);
        let mut cursor = lba(0);
        for seg in &segs {
            assert_eq!(seg.lba(), cursor);
            cursor = seg.lba_end();
        }
        assert_eq!(cursor, lba(12));
        assert!(segs[0].is_hole());
        assert_eq!(segs[1].as_mapped().unwrap().pba, pba(100));
        assert_eq!(segs[3].as_mapped().unwrap().sectors, 2);
    }

    #[test]
    fn lookup_each_matches_lookup() {
        let mut map = ExtentMap::new();
        map.insert(lba(2), 3, pba(100));
        map.insert(lba(8), 2, pba(200));
        map.insert(lba(20), 10, pba(500));
        for (start, len) in [(0, 12), (0, 0), (5, 1), (2, 3), (19, 12), (30, 4)] {
            let mut visited = Vec::new();
            map.lookup_each(lba(start), len, |seg| visited.push(seg));
            assert_eq!(visited, map.lookup(lba(start), len), "range {start}+{len}");
        }
    }

    #[test]
    fn lookup_partial_front_extent() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        let segs = map.lookup(lba(5), 3);
        assert_eq!(segs.len(), 1);
        let e = segs[0].as_mapped().unwrap();
        assert_eq!(e.lba, lba(5));
        assert_eq!(e.sectors, 3);
        assert_eq!(e.pba, pba(105));
    }

    #[test]
    fn dynamic_fragmentation_counts_identity_holes() {
        let mut map = ExtentMap::new();
        // Hole-only range: one identity fragment.
        assert_eq!(map.fragments_in(lba(0), 10), 1);
        map.insert(lba(4), 2, pba(1000));
        // [0,4) identity @0, [4,6) @1000, [6,10) identity @6 -> 3 pieces
        assert_eq!(map.fragments_in(lba(0), 10), 3);
        // Mapped piece physically continuous with identity hole merges.
        let mut map2 = ExtentMap::new();
        map2.insert(lba(4), 2, pba(4)); // identity-placed mapping
        assert_eq!(map2.fragments_in(lba(0), 10), 1);
    }

    #[test]
    fn fragmentation_of_fragmented_log() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 6, pba(1000)); // contiguous original
        map.insert(lba(2), 1, pba(2000)); // update
        map.insert(lba(4), 1, pba(2001)); // update
                                          // pieces: [0,2)@1000, [2,3)@2000, [3,4)@1003, [4,5)@2001, [5,6)@1005
        assert_eq!(map.fragments_in(lba(0), 6), 5);
        assert_eq!(map.fragments_in(lba(0), 2), 1);
        assert_eq!(map.fragments_in(lba(2), 1), 1);
    }

    #[test]
    fn adjacent_updates_merge_physically() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 6, pba(1000));
        map.insert(lba(2), 1, pba(2000));
        map.insert(lba(3), 1, pba(2001)); // physically continues previous update
                                          // pieces: [0,2)@1000, [2,4)@2000, [4,6)@1004
        assert_eq!(map.fragments_in(lba(0), 6), 3);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn static_fragmentation_spans_whole_map() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(1000));
        map.insert(lba(100), 4, pba(1004));
        // [0,4)@1000, [4,100) identity hole @4, [100,104)@1004 -> 3 runs
        assert_eq!(map.static_fragmentation(), 3);
    }

    #[test]
    fn remove_unmaps() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 10, pba(100));
        map.remove(lba(3), 4);
        assert_eq!(map.translate(lba(2)), Some(pba(102)));
        assert_eq!(map.translate(lba(3)), None);
        assert_eq!(map.translate(lba(6)), None);
        assert_eq!(map.translate(lba(7)), Some(pba(107)));
        assert_eq!(map.mapped_sectors(), 6);
        map.remove(lba(0), 100);
        assert!(map.is_empty());
        assert_eq!(map.mapped_sectors(), 0);
    }

    #[test]
    fn zero_length_ops_are_noops() {
        let mut map = ExtentMap::new();
        map.insert(lba(5), 0, pba(0));
        map.remove(lba(5), 0);
        assert!(map.is_empty());
        assert_eq!(map.fragments_in(lba(0), 0), 0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let map: ExtentMap = vec![
            Extent::new(lba(0), 4, pba(100)),
            Extent::new(lba(4), 4, pba(104)),
        ]
        .into_iter()
        .collect();
        assert_eq!(map.len(), 1); // coalesced
        let mut map2 = ExtentMap::new();
        map2.extend(map.iter());
        assert_eq!(map2, map);
    }

    #[test]
    fn digest_tracks_content_not_history() {
        let mut a = ExtentMap::new();
        a.insert(lba(0), 4, pba(1000));
        a.insert(lba(4), 4, pba(1004)); // coalesces with the first
        let mut b = ExtentMap::new();
        b.insert(lba(0), 8, pba(1000)); // same content, one insert
        assert_eq!(a, b);
        assert_eq!(a.digest(), b.digest());
        b.insert(lba(2), 1, pba(9000));
        assert_ne!(a.digest(), b.digest());
        assert_ne!(ExtentMap::new().digest(), a.digest());
    }

    #[test]
    fn checkpoint_matches_only_the_captured_state() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 6, pba(1000));
        let ck = ExtentMapCheckpoint::capture(&map);
        assert!(ck.matches(&map));
        assert!(!ck.matches(&ExtentMap::new()));
        map.insert(lba(2), 1, pba(2000));
        assert!(!ck.matches(&map));
        // Same segment count and sector total, different placement.
        let mut other = ExtentMap::new();
        other.insert(lba(0), 6, pba(5000));
        assert_eq!(other.len(), 1);
        assert_eq!(other.mapped_sectors(), 6);
        assert!(!ck.matches(&other));
    }

    #[test]
    fn display_mentions_size() {
        let mut map = ExtentMap::new();
        map.insert(lba(0), 4, pba(9));
        assert_eq!(map.to_string(), "ExtentMap(1 extents, 4 sectors)");
    }
}
