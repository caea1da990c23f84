//! Extension: a **finite** log with segment cleaning.
//!
//! The paper's disk model assumes an infinite disk — "for archival
//! workloads cleaning may never be needed, and for traditional workloads
//! cleaning performance has been extensively examined" (§II). This module
//! supplies the finite-disk counterpart so the cleaning-vs-seek trade-off
//! studied by the related work (Rosenblum & Ousterhout's LFS, the greedy
//! and age-threshold cleaners) can be measured on the same substrate:
//!
//! * the log is `segment_count` segments of `segment_sectors` sectors,
//! * writes fill an active segment sequentially,
//! * overwrites invalidate sectors in older segments,
//! * when free segments run low, a **greedy** cleaner copies the victim
//!   segment with the fewest valid sectors to the log head and frees it.

use crate::layer::TranslationLayer;
use crate::log::physical_runs_into;
use serde::{Deserialize, Serialize};
use smrseek_disk::PhysIo;
use smrseek_extent::{ExtentMap, Segment};
use smrseek_trace::{Lba, OpKind, Pba, TraceRecord};

/// Victim-selection policy for cleaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CleanerPolicy {
    /// Clean the closed segment with the fewest valid sectors.
    Greedy,
    /// Rosenblum & Ousterhout's cost-benefit policy: maximize
    /// `(1 - u) * age / (1 + u)`, preferring old, mostly-stale segments.
    /// Old cold segments get cleaned while still somewhat live, keeping
    /// them from pinning space forever.
    CostBenefit,
}

/// Configuration of the finite cleaning log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanerConfig {
    /// First physical sector of the log region (must exceed all LBAs).
    pub log_start: Pba,
    /// Sectors per segment.
    pub segment_sectors: u64,
    /// Number of segments in the log.
    pub segment_count: usize,
    /// Clean when free segments drop to this count (≥1; the cleaner needs
    /// headroom to copy valid data).
    pub reserve_segments: usize,
    /// How cleaning victims are chosen.
    pub policy: CleanerPolicy,
    /// Write hot (overwriting) and cold (first-write + GC-copied) data to
    /// separate active segments — the WOLF-style separation of the related
    /// work, which concentrates staleness and cuts cleaning copies.
    pub separate_hot_cold: bool,
}

impl CleanerConfig {
    /// A log of `segment_count` segments of `segment_sectors` sectors
    /// starting at `log_start`, with a 2-segment cleaning reserve, greedy
    /// cleaning, and no hot/cold separation.
    pub fn new(log_start: Pba, segment_sectors: u64, segment_count: usize) -> Self {
        CleanerConfig {
            log_start,
            segment_sectors,
            segment_count,
            reserve_segments: 2,
            policy: CleanerPolicy::Greedy,
            separate_hot_cold: false,
        }
    }

    /// Selects the victim policy.
    pub fn with_policy(mut self, policy: CleanerPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables hot/cold stream separation.
    pub fn with_hot_cold_separation(mut self) -> Self {
        self.separate_hot_cold = true;
        self
    }

    /// Total log capacity in sectors.
    pub fn capacity_sectors(&self) -> u64 {
        self.segment_sectors * self.segment_count as u64
    }

    fn stream_count(&self) -> usize {
        if self.separate_hot_cold {
            2
        } else {
            1
        }
    }
}

/// Stream index for hot (overwriting) data.
const HOT: usize = 0;
/// Stream index for cold (first-write and GC-copied) data.
const COLD: usize = 1;

/// Counters of the cleaning log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CleanerStats {
    /// Sectors written by the host.
    pub host_write_sectors: u64,
    /// Sectors copied by the cleaner (read + rewritten).
    pub gc_copied_sectors: u64,
    /// Cleaning episodes.
    pub cleanings: u64,
    /// Segments reclaimed.
    pub segments_freed: u64,
}

impl CleanerStats {
    /// Write amplification factor: media writes per host write.
    pub fn waf(&self) -> f64 {
        if self.host_write_sectors == 0 {
            0.0
        } else {
            (self.host_write_sectors + self.gc_copied_sectors) as f64
                / self.host_write_sectors as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SegState {
    Free,
    Active,
    Closed,
}

/// The finite log-structured layer with greedy cleaning.
///
/// # Example
///
/// ```
/// use smrseek_stl::{CleanerConfig, CleaningLog, TranslationLayer};
/// use smrseek_trace::{Lba, Pba, TraceRecord};
///
/// let config = CleanerConfig::new(Pba::new(1 << 20), 1024, 8);
/// let mut log = CleaningLog::new(config);
/// // Overwrite a small region many times: the log wraps and cleans.
/// for i in 0..100 {
///     log.apply(&TraceRecord::write(i, Lba::new((i % 4) * 128), 128));
/// }
/// assert!(log.stats().cleanings > 0);
/// assert!(log.stats().waf() >= 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct CleaningLog {
    config: CleanerConfig,
    map: ExtentMap,
    /// Valid (live) sectors per segment.
    valid: Vec<u64>,
    state: Vec<SegState>,
    /// Active `(segment, fill_offset)` per stream: one stream normally,
    /// hot + cold when separation is on.
    streams: Vec<(usize, u64)>,
    /// Logical clock (writes so far), for segment age.
    op_clock: u64,
    /// Last-write clock per segment (cost-benefit age).
    seg_mtime: Vec<u64>,
    stats: CleanerStats,
}

impl CleaningLog {
    /// Creates an empty log.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer than `reserve_segments + 2`
    /// segments, zero-sized segments, or no reserve.
    pub fn new(config: CleanerConfig) -> Self {
        assert!(config.segment_sectors > 0, "segments must be non-empty");
        assert!(config.reserve_segments >= 1, "cleaner needs a reserve");
        let streams = config.stream_count();
        assert!(
            config.segment_count > config.reserve_segments + streams,
            "log needs at least reserve + {} segments",
            streams + 1
        );
        let mut state = vec![SegState::Free; config.segment_count];
        let mut stream_states = Vec::with_capacity(streams);
        for (s, slot) in state.iter_mut().enumerate().take(streams) {
            *slot = SegState::Active;
            stream_states.push((s, 0));
        }
        CleaningLog {
            map: ExtentMap::new(),
            valid: vec![0; config.segment_count],
            state,
            streams: stream_states,
            op_clock: 0,
            seg_mtime: vec![0; config.segment_count],
            stats: CleanerStats::default(),
            config,
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> CleanerStats {
        self.stats
    }

    /// Total sectors currently mapped (ground truth from the extent map;
    /// equals [`Self::live_sectors`] when accounting is consistent).
    pub fn map_mapped_sectors(&self) -> u64 {
        self.map.mapped_sectors()
    }

    /// Live (valid) sectors across the log.
    pub fn live_sectors(&self) -> u64 {
        self.valid.iter().sum()
    }

    /// Current utilization: live sectors / capacity.
    pub fn utilization(&self) -> f64 {
        self.live_sectors() as f64 / self.config.capacity_sectors() as f64
    }

    /// Free segments remaining.
    pub fn free_segments(&self) -> usize {
        self.state.iter().filter(|&&s| s == SegState::Free).count()
    }

    fn segment_start(&self, seg: usize) -> Pba {
        self.config.log_start + seg as u64 * self.config.segment_sectors
    }

    fn segment_of(&self, pba: Pba) -> Option<usize> {
        if pba < self.config.log_start {
            return None;
        }
        let idx = (pba - self.config.log_start) / self.config.segment_sectors;
        usize::try_from(idx)
            .ok()
            .filter(|&i| i < self.config.segment_count)
    }

    /// Devalidates whatever `[lba, lba+sectors)` currently maps to.
    ///
    /// Extents in the map coalesce across segment boundaries (segments
    /// are physically adjacent), so each mapped piece must be split at
    /// segment boundaries before decrementing per-segment valid counts.
    fn devalidate(&mut self, lba: Lba, sectors: u64) {
        for seg in self.map.lookup(lba, sectors) {
            if let Segment::Mapped(e) = seg {
                let mut pba = e.pba;
                let mut left = e.sectors;
                while left > 0 {
                    let Some(idx) = self.segment_of(pba) else {
                        break; // outside the log region: not tracked
                    };
                    let seg_end = self.segment_start(idx) + self.config.segment_sectors;
                    let take = left.min(seg_end - pba);
                    self.valid[idx] = self.valid[idx].saturating_sub(take);
                    pba += take;
                    left -= take;
                }
            }
        }
    }

    /// Classifies a host write: hot if it overwrites any data currently
    /// in the log (churn), cold if it is a first write. Without
    /// separation everything shares stream 0.
    fn classify(&self, lba: Lba, sectors: u64) -> usize {
        if !self.config.separate_hot_cold {
            return 0;
        }
        let overwrites = self.map.lookup(lba, sectors).iter().any(|s| !s.is_hole());
        if overwrites {
            HOT
        } else {
            COLD
        }
    }

    /// Appends `sectors` for `lba` on `stream` for a **host** write,
    /// opening segments and cleaning as needed. Emits the physical writes
    /// (and any cleaning I/O) into `sink`.
    fn append(
        &mut self,
        mut lba: Lba,
        mut sectors: u64,
        stream: usize,
        sink: &mut dyn FnMut(PhysIo),
    ) {
        while sectors > 0 {
            let (active, offset) = self.streams[stream];
            let room = self.config.segment_sectors - offset;
            if room == 0 {
                self.state[active] = SegState::Closed;
                // Clean *before* opening the next segment; the cleaner's
                // own copies draw on the reserve via `append_gc`, never
                // re-entering this path.
                while self.free_segments() <= self.config.reserve_segments {
                    self.clean_one(sink);
                }
                // Cleaning copies may themselves have opened (and
                // partially filled) a new active segment on this stream —
                // keep using it rather than leaking it; only activate a
                // fresh segment when the current one is unusable.
                // (If the GC left this stream's active segment exactly
                // full, the next loop iteration closes it properly.)
                if self.state[self.streams[stream].0] != SegState::Active {
                    self.activate_next_free(stream);
                }
                continue;
            }
            let take = sectors.min(room);
            self.write_at_head(lba, take, stream, sink);
            lba += take;
            sectors -= take;
        }
    }

    /// Append path for cleaning copies: identical to [`Self::append`] but
    /// never triggers cleaning — the `reserve_segments` exist exactly so
    /// GC copies always have room. Copies are cold by definition (they
    /// survived at least one cleaning generation).
    ///
    /// # Panics
    ///
    /// Panics if the reserve is exhausted mid-copy (a configuration with
    /// `reserve_segments` < 1, which the constructor rejects).
    fn append_gc(&mut self, mut lba: Lba, mut sectors: u64, sink: &mut dyn FnMut(PhysIo)) {
        let stream = if self.config.separate_hot_cold {
            COLD
        } else {
            0
        };
        while sectors > 0 {
            let (active, offset) = self.streams[stream];
            let room = self.config.segment_sectors - offset;
            if room == 0 {
                self.state[active] = SegState::Closed;
                self.activate_next_free(stream);
                continue;
            }
            let take = sectors.min(room);
            self.write_at_head(lba, take, stream, sink);
            lba += take;
            sectors -= take;
        }
    }

    fn write_at_head(&mut self, lba: Lba, take: u64, stream: usize, sink: &mut dyn FnMut(PhysIo)) {
        let (active, offset) = self.streams[stream];
        let at = self.segment_start(active) + offset;
        self.devalidate(lba, take);
        self.map.insert(lba, take, at);
        self.valid[active] += take;
        self.streams[stream].1 += take;
        self.op_clock += 1;
        self.seg_mtime[active] = self.op_clock;
        sink(PhysIo::write(at, take));
    }

    fn activate_next_free(&mut self, stream: usize) {
        let next = self
            .state
            .iter()
            .position(|&s| s == SegState::Free)
            .expect("a free segment must exist (cleaning reserve)");
        self.state[next] = SegState::Active;
        self.streams[stream] = (next, 0);
    }

    /// Greedy cleaning: copy the closed segment with the fewest valid
    /// sectors to the log head and free it.
    ///
    /// # Panics
    ///
    /// Panics if no closed segment exists (the log is misconfigured) or
    /// the log is overcommitted (utilization too close to 1 to make
    /// progress).
    fn clean_one(&mut self, sink: &mut dyn FnMut(PhysIo)) {
        let victim = self
            .select_victim()
            .expect("a closed segment must exist to clean");
        assert!(
            self.valid[victim] < self.config.segment_sectors,
            "log overcommitted: victim segment is fully live (utilization {:.2})",
            self.utilization()
        );
        let start = self.segment_start(victim);
        let seg_end = start + self.config.segment_sectors;
        // Collect the victim's live data by scanning the map. Physically
        // adjacent appends coalesce across segment boundaries, so an
        // extent may straddle the victim's edges: clip each overlapping
        // extent to the victim's range.
        let live: Vec<(Lba, u64, Pba)> = self
            .map
            .iter()
            .filter_map(|e| {
                let p0 = e.pba.max(start);
                let p1 = e.pba_end().min(seg_end);
                (p0 < p1).then(|| {
                    let offset = p0 - e.pba;
                    (e.lba + offset, p1 - p0, p0)
                })
            })
            .collect();
        self.stats.cleanings += 1;
        self.stats.segments_freed += 1;
        for (lba, sectors, pba) in live {
            sink(PhysIo::read(pba, sectors));
            self.stats.gc_copied_sectors += sectors;
            // Rewriting live data uses the GC append path, which draws on
            // the cleaning reserve and never re-enters cleaning. Each
            // remap devalidates the victim's copy, so its valid count
            // drains to exactly zero by the end of the loop. The victim is
            // freed only *after* the copies, so the GC cannot reuse it as
            // the new active segment while old mappings still point into
            // it (which would corrupt the valid accounting).
            self.append_gc(lba, sectors, sink);
        }
        debug_assert_eq!(
            self.valid[victim], 0,
            "all live data must have left the victim"
        );
        self.state[victim] = SegState::Free;
        self.valid[victim] = 0;
    }

    /// Picks the cleaning victim per the configured policy.
    fn select_victim(&self) -> Option<usize> {
        let closed = self
            .state
            .iter()
            .enumerate()
            .filter(|&(_, &s)| s == SegState::Closed)
            .map(|(i, _)| i);
        match self.config.policy {
            CleanerPolicy::Greedy => closed.min_by_key(|&i| self.valid[i]),
            CleanerPolicy::CostBenefit => closed.max_by(|&a, &b| {
                self.cost_benefit(a)
                    .partial_cmp(&self.cost_benefit(b))
                    .expect("scores are finite")
            }),
        }
    }

    /// Rosenblum's cost-benefit score: `(1 - u) * age / (1 + u)`.
    fn cost_benefit(&self, seg: usize) -> f64 {
        let u = self.valid[seg] as f64 / self.config.segment_sectors as f64;
        let age = (self.op_clock - self.seg_mtime[seg]) as f64;
        (1.0 - u) * age / (1.0 + u)
    }
}

impl TranslationLayer for CleaningLog {
    fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        let sectors = u64::from(rec.sectors);
        match rec.op {
            OpKind::Write => {
                self.stats.host_write_sectors += sectors;
                let stream = self.classify(rec.lba, sectors);
                self.append(rec.lba, sectors, stream, sink);
            }
            OpKind::Read => physical_runs_into(&self.map, rec.lba, sectors, |pba, len| {
                sink(PhysIo::read(pba, len));
            }),
        }
    }

    fn name(&self) -> &str {
        "CleaningLog"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(segments: usize, sectors: u64) -> CleanerConfig {
        CleanerConfig::new(Pba::new(1_000_000), sectors, segments)
    }

    #[test]
    fn writes_fill_segments_sequentially() {
        let mut log = CleaningLog::new(config(8, 100));
        let w = log.apply(&TraceRecord::write(0, Lba::new(0), 150));
        assert_eq!(
            w,
            vec![
                PhysIo::write(Pba::new(1_000_000), 100),
                PhysIo::write(Pba::new(1_000_100), 50)
            ]
        );
        assert_eq!(log.live_sectors(), 150);
        assert_eq!(log.free_segments(), 6);
    }

    #[test]
    fn read_after_write_translates() {
        let mut log = CleaningLog::new(config(8, 100));
        log.apply(&TraceRecord::write(0, Lba::new(40), 10));
        let r = log.apply(&TraceRecord::read(1, Lba::new(40), 10));
        assert_eq!(r, vec![PhysIo::read(Pba::new(1_000_000), 10)]);
        // Unwritten data reads from identity.
        let r = log.apply(&TraceRecord::read(2, Lba::new(0), 10));
        assert_eq!(r, vec![PhysIo::read(Pba::new(0), 10)]);
    }

    #[test]
    fn overwrites_devalidate_old_segments() {
        let mut log = CleaningLog::new(config(8, 100));
        log.apply(&TraceRecord::write(0, Lba::new(0), 100)); // fills seg 0
        log.apply(&TraceRecord::write(1, Lba::new(0), 50)); // overwrite half
        assert_eq!(log.live_sectors(), 100); // 50 stale + 100 live - 50
        assert_eq!(log.valid[0], 50);
        assert_eq!(log.valid[1], 50);
    }

    #[test]
    fn cleaning_reclaims_stale_segments() {
        let mut log = CleaningLog::new(config(6, 100));
        // Keep overwriting the same 100 sectors: utilization stays low but
        // segments fill with stale data, forcing cleaning.
        let mut cleaned_io = 0usize;
        for i in 0..40u64 {
            let ios = log.apply(&TraceRecord::write(i, Lba::new(0), 100));
            cleaned_io += ios.iter().filter(|io| io.op == OpKind::Read).count();
        }
        assert!(log.stats().cleanings > 0, "log must have cleaned");
        assert_eq!(log.live_sectors(), 100);
        // Victims were fully stale, so greedy cleaning copied nothing.
        assert_eq!(log.stats().gc_copied_sectors, 0);
        assert_eq!(cleaned_io, 0);
        assert!((log.stats().waf() - 1.0).abs() < 1e-9);
        // Data stays correct across cleanings.
        let r = log.apply(&TraceRecord::read(100, Lba::new(0), 100));
        assert_eq!(r.len(), 1);
    }

    /// Interleaves hot overwrites with cold write-once stripes so every
    /// segment mixes both: overwriting the hot halves leaves segments
    /// half-live, forcing the cleaner to copy the cold halves.
    fn churn_with_cold(cold_stripes: u64) -> CleaningLog {
        let mut log = CleaningLog::new(config(10, 100));
        let mut t = 0u64;
        for i in 0..120u64 {
            t += 1;
            // Hot: 4 stripes of 50 sectors, cyclically overwritten.
            log.apply(&TraceRecord::write(t, Lba::new((i % 4) * 50), 50));
            if i % 12 == 0 && i / 12 < cold_stripes {
                t += 1;
                // Cold: written once, never again (distinct LBAs far
                // away), spread through the run so cold data co-locates
                // with hot churn in many segments.
                let k = i / 12;
                log.apply(&TraceRecord::write(t, Lba::new(100_000 + k * 50), 50));
            }
        }
        log
    }

    #[test]
    fn cleaning_copies_live_data_and_preserves_translation() {
        let log = churn_with_cold(8);
        assert!(log.stats().cleanings > 0);
        assert!(
            log.stats().gc_copied_sectors > 0,
            "cold halves of mixed segments must be copied"
        );
        assert!(log.stats().waf() > 1.0);
        // Hot and cold data still translate into the log (not identity).
        for lba in [0u64, 150, 100_000, 100_000 + 7 * 50] {
            let pba = log.map.translate(Lba::new(lba)).expect("still mapped");
            assert!(pba >= Pba::new(1_000_000), "lba {lba} left the log");
        }
        assert_eq!(log.live_sectors(), 4 * 50 + 8 * 50);
    }

    #[test]
    fn waf_grows_with_cold_data_share() {
        // The classic LFS result: the more live (cold) data shares
        // segments with churn, the more the cleaner must copy.
        let none = churn_with_cold(0).stats().waf();
        let some = churn_with_cold(8).stats().waf();
        assert!(
            (none - 1.0).abs() < 0.2,
            "aligned hot-only churn needs almost no copying, WAF {none:.2}"
        );
        assert!(
            some > none + 0.05,
            "cold data must raise WAF: {some:.2} vs {none:.2}"
        );
    }

    /// Hot/cold churn mix used by the separation and policy tests: 4 hot
    /// stripes overwritten continuously, `cold_stripes` written once.
    fn churn(config: CleanerConfig, cold_stripes: u64) -> CleaningLog {
        let mut log = CleaningLog::new(config);
        let mut t = 0u64;
        for i in 0..160u64 {
            t += 1;
            log.apply(&TraceRecord::write(t, Lba::new((i % 4) * 50), 50));
            if i % 16 == 0 && i / 16 < cold_stripes {
                t += 1;
                log.apply(&TraceRecord::write(
                    t,
                    Lba::new(100_000 + (i / 16) * 50),
                    50,
                ));
            }
        }
        log
    }

    #[test]
    fn hot_cold_separation_reduces_copying() {
        let base = config(12, 100);
        let mixed = churn(base, 8);
        let separated = churn(base.with_hot_cold_separation(), 8);
        assert!(separated.stats().cleanings > 0);
        assert!(
            separated.stats().gc_copied_sectors <= mixed.stats().gc_copied_sectors,
            "separated {} vs mixed {} copied sectors",
            separated.stats().gc_copied_sectors,
            mixed.stats().gc_copied_sectors
        );
        // Translation stays correct under separation.
        let mut log = separated;
        for lba in [0u64, 150, 100_000, 100_000 + 7 * 50] {
            let r = log.apply(&TraceRecord::read(10_000, Lba::new(lba), 10));
            assert_eq!(r.len(), 1, "lba {lba}");
            assert!(r[0].pba >= Pba::new(1_000_000));
        }
    }

    #[test]
    fn separated_streams_use_distinct_segments() {
        let mut log = CleaningLog::new(config(12, 100).with_hot_cold_separation());
        // First write = cold.
        let w_cold = log.apply(&TraceRecord::write(0, Lba::new(0), 10));
        // Overwrite = hot.
        let w_hot = log.apply(&TraceRecord::write(1, Lba::new(0), 10));
        let seg_of = |io: &PhysIo| (io.pba - Pba::new(1_000_000)) / 100;
        assert_ne!(
            seg_of(&w_cold[0]),
            seg_of(&w_hot[0]),
            "hot and cold land in different segments"
        );
        // Another first-write joins the cold segment.
        let w_cold2 = log.apply(&TraceRecord::write(2, Lba::new(5_000), 10));
        assert_eq!(seg_of(&w_cold[0]), seg_of(&w_cold2[0]));
    }

    #[test]
    fn cost_benefit_policy_cleans_and_stays_correct() {
        let log = churn(config(12, 100).with_policy(CleanerPolicy::CostBenefit), 6);
        assert!(log.stats().cleanings > 0);
        assert!(log.stats().waf() >= 1.0);
        assert_eq!(log.live_sectors(), log.map_mapped_sectors());
    }

    #[test]
    fn cost_benefit_prefers_old_stale_over_young_staler() {
        // Construct: segment A is old and 40% stale; segment B is young
        // and 60% stale. Greedy picks B (fewer valid); cost-benefit
        // weighs age (mtime) and picks A.
        let mut log = CleaningLog::new(config(8, 100).with_policy(CleanerPolicy::CostBenefit));
        // Fill segment 0 (becomes A) early: lba 0..100.
        log.apply(&TraceRecord::write(0, Lba::new(0), 100));
        // Aging traffic: ten small writes to distinct LBAs (segment 1),
        // advancing the logical clock well past A's mtime.
        for k in 0..10u64 {
            log.apply(&TraceRecord::write(1 + k, Lba::new(1000 + k * 10), 10));
        }
        // Fill segment 2 (becomes B) recently: lba 200..300.
        log.apply(&TraceRecord::write(20, Lba::new(200), 100));
        // Invalidate 40 of A and 60 of B (overwrites land in segment 3).
        log.apply(&TraceRecord::write(21, Lba::new(0), 40));
        log.apply(&TraceRecord::write(22, Lba::new(200), 60));
        let greedy = log.clone();
        let a_score = log.cost_benefit(0);
        let b_score = log.cost_benefit(2);
        assert!(
            a_score > b_score,
            "older segment must score higher: A {a_score:.1} vs B {b_score:.1}"
        );
        // Greedy would pick the segment with fewer valid sectors (B).
        assert!(greedy.valid[2] < greedy.valid[0]);
        assert_eq!(log.select_victim(), Some(0));
    }

    #[test]
    fn name_is_cleaning_log() {
        assert_eq!(CleaningLog::new(config(4, 10)).name(), "CleaningLog");
    }

    #[test]
    #[should_panic(expected = "reserve + 2")]
    fn too_few_segments_panics() {
        CleaningLog::new(config(3, 10));
    }

    #[test]
    #[should_panic(expected = "overcommitted")]
    fn overcommit_panics() {
        let mut log = CleaningLog::new(config(4, 100));
        // 4 segments, reserve 2 -> only ~2 segments of live capacity;
        // writing 350 distinct live sectors cannot fit.
        log.apply(&TraceRecord::write(0, Lba::new(0), 350));
    }
}
