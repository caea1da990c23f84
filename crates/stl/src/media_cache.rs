//! The media-cache translation layer used by shipped drive-managed SMR
//! devices (Section II).
//!
//! *"Existing translation layers for SMR have typically been very simple,
//! logging updates to a reserved region of the disk (the media cache), and
//! then merging them back to data zones, where they are stored in logical
//! order... As a result almost all data is stored in LBA order, resulting
//! in little or no read seek amplification, but at the price of high
//! cleaning overhead."*
//!
//! This layer provides the contrast case for the paper's argument: its read
//! seek behaviour is nearly conventional, but every media-cache fill
//! triggers read-modify-write merges whose cost the log-structured layer
//! avoids entirely.

use crate::layer::TranslationLayer;
use crate::log::physical_runs_into;
use serde::{Deserialize, Serialize};
use smrseek_disk::PhysIo;
use smrseek_extent::{ExtentMap, Segment};
use smrseek_trace::{Lba, OpKind, Pba, TraceRecord, MIB};
use std::collections::BTreeSet;

/// Configuration of the media-cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaCacheConfig {
    /// First sector of the reserved media-cache region; must exceed every
    /// LBA of the workload.
    pub cache_start: Pba,
    /// Media-cache capacity in sectors; reaching it triggers a merge.
    pub capacity_sectors: u64,
    /// Data-zone size in sectors: merges rewrite whole zones in LBA order.
    pub zone_sectors: u64,
}

impl MediaCacheConfig {
    /// A typical small configuration: merge zones of 16 MiB, cache of
    /// `capacity_sectors`, cache region starting at `cache_start`.
    pub fn new(cache_start: Pba, capacity_sectors: u64) -> Self {
        MediaCacheConfig {
            cache_start,
            capacity_sectors,
            zone_sectors: 16 * MIB / 512,
        }
    }
}

/// Counters for the media-cache layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaCacheStats {
    /// Merge episodes (cache fills).
    pub merges: u64,
    /// Data zones rewritten across all merges.
    pub zones_rewritten: u64,
    /// Sectors written by the host.
    pub host_write_sectors: u64,
    /// Sectors written to the medium (cache appends + zone rewrites).
    pub media_write_sectors: u64,
}

impl MediaCacheStats {
    /// Write amplification factor: media writes per host write.
    pub fn waf(&self) -> f64 {
        if self.host_write_sectors == 0 {
            0.0
        } else {
            self.media_write_sectors as f64 / self.host_write_sectors as f64
        }
    }
}

/// The media-cache translation layer.
///
/// # Example
///
/// ```
/// use smrseek_stl::{MediaCacheConfig, MediaCacheStl, TranslationLayer};
/// use smrseek_trace::{Lba, Pba, TraceRecord};
///
/// let cfg = MediaCacheConfig::new(Pba::new(1 << 30), 1024);
/// let mut stl = MediaCacheStl::new(cfg);
/// stl.apply(&TraceRecord::write(0, Lba::new(0), 8));
/// let r = stl.apply(&TraceRecord::read(1, Lba::new(0), 8));
/// assert_eq!(r[0].pba, Pba::new(1 << 30)); // still in the media cache
/// ```
#[derive(Debug, Clone)]
pub struct MediaCacheStl {
    config: MediaCacheConfig,
    map: ExtentMap,
    cache_frontier: Pba,
    cache_used: u64,
    stats: MediaCacheStats,
}

impl MediaCacheStl {
    /// Creates a layer from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_sectors` or `zone_sectors` is zero.
    pub fn new(config: MediaCacheConfig) -> Self {
        assert!(config.capacity_sectors > 0, "cache must be non-empty");
        assert!(config.zone_sectors > 0, "zones must be non-empty");
        MediaCacheStl {
            cache_frontier: config.cache_start,
            map: ExtentMap::new(),
            cache_used: 0,
            stats: MediaCacheStats::default(),
            config,
        }
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> MediaCacheStats {
        self.stats
    }

    /// Sectors currently held in the media cache.
    pub fn cache_used(&self) -> u64 {
        self.cache_used
    }

    /// Merges every dirty zone back to its identity location, in LBA
    /// order, and resets the cache. Calls `sink` with the physical
    /// operations of the merge (zone read + cached-extent reads +
    /// sequential zone write, per zone).
    pub fn merge(&mut self, sink: &mut dyn FnMut(PhysIo)) {
        let zones: BTreeSet<u64> = self
            .map
            .iter()
            .flat_map(|e| {
                let first = e.lba.sector() / self.config.zone_sectors;
                let last = (e.lba_end().sector() - 1) / self.config.zone_sectors;
                first..=last
            })
            .collect();
        for zone in zones {
            let zone_start = zone * self.config.zone_sectors;
            // Read the old zone contents...
            sink(PhysIo::read(Pba::new(zone_start), self.config.zone_sectors));
            // ...and the cached updates belonging to it...
            self.map
                .lookup_each(Lba::new(zone_start), self.config.zone_sectors, |seg| {
                    if let Segment::Mapped(e) = seg {
                        sink(PhysIo::read(e.pba, e.sectors));
                    }
                });
            // ...then rewrite the zone sequentially in place.
            sink(PhysIo::write(
                Pba::new(zone_start),
                self.config.zone_sectors,
            ));
            self.stats.zones_rewritten += 1;
            self.stats.media_write_sectors += self.config.zone_sectors;
        }
        self.map = ExtentMap::new();
        self.cache_frontier = self.config.cache_start;
        self.cache_used = 0;
        self.stats.merges += 1;
    }
}

impl TranslationLayer for MediaCacheStl {
    fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        let sectors = u64::from(rec.sectors);
        match rec.op {
            OpKind::Write => {
                let at = self.cache_frontier;
                self.map.insert(rec.lba, sectors, at);
                self.cache_frontier += sectors;
                self.cache_used += sectors;
                self.stats.host_write_sectors += sectors;
                self.stats.media_write_sectors += sectors;
                sink(PhysIo::write(at, sectors));
                if self.cache_used >= self.config.capacity_sectors {
                    self.merge(sink);
                }
            }
            OpKind::Read => physical_runs_into(&self.map, rec.lba, sectors, |pba, len| {
                sink(PhysIo::read(pba, len));
            }),
        }
    }

    fn name(&self) -> &str {
        "MediaCache"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: u64) -> MediaCacheConfig {
        MediaCacheConfig {
            cache_start: Pba::new(1_000_000),
            capacity_sectors: capacity,
            zone_sectors: 100,
        }
    }

    #[test]
    fn writes_log_to_cache_region() {
        let mut stl = MediaCacheStl::new(cfg(1000));
        let a = stl.apply(&TraceRecord::write(0, Lba::new(5), 8));
        let b = stl.apply(&TraceRecord::write(1, Lba::new(500), 8));
        assert_eq!(a, vec![PhysIo::write(Pba::new(1_000_000), 8)]);
        assert_eq!(b, vec![PhysIo::write(Pba::new(1_000_008), 8)]);
        assert_eq!(stl.cache_used(), 16);
    }

    #[test]
    fn reads_mix_cache_and_identity() {
        let mut stl = MediaCacheStl::new(cfg(1000));
        stl.apply(&TraceRecord::write(0, Lba::new(10), 4));
        let r = stl.apply(&TraceRecord::read(1, Lba::new(8), 8));
        assert_eq!(
            r,
            vec![
                PhysIo::read(Pba::new(8), 2),
                PhysIo::read(Pba::new(1_000_000), 4),
                PhysIo::read(Pba::new(14), 2),
            ]
        );
    }

    #[test]
    fn cache_fill_triggers_merge() {
        let mut stl = MediaCacheStl::new(cfg(16));
        stl.apply(&TraceRecord::write(0, Lba::new(10), 8));
        assert_eq!(stl.stats().merges, 0);
        let phys = stl.apply(&TraceRecord::write(1, Lba::new(150), 8));
        // Cache hit capacity: merge of zones 0 and 1 follows the append.
        assert_eq!(stl.stats().merges, 1);
        assert_eq!(stl.stats().zones_rewritten, 2);
        assert_eq!(stl.cache_used(), 0);
        // Append + (zone read, extent read, zone write) x 2.
        assert_eq!(phys.len(), 1 + 3 + 3);
        // After the merge, reads come from identity locations.
        let r = stl.apply(&TraceRecord::read(2, Lba::new(10), 8));
        assert_eq!(r, vec![PhysIo::read(Pba::new(10), 8)]);
    }

    #[test]
    fn merge_spanning_extent_touches_both_zones() {
        let mut stl = MediaCacheStl::new(cfg(1000));
        stl.apply(&TraceRecord::write(0, Lba::new(95), 10)); // zones 0 and 1
        let mut phys = Vec::new();
        stl.merge(&mut |io| phys.push(io));
        assert_eq!(stl.stats().zones_rewritten, 2);
        let writes: Vec<_> = phys.iter().filter(|p| p.op == OpKind::Write).collect();
        assert_eq!(writes.len(), 2);
        assert_eq!(writes[0].pba, Pba::new(0));
        assert_eq!(writes[1].pba, Pba::new(100));
    }

    #[test]
    fn waf_reflects_merge_cost() {
        let mut stl = MediaCacheStl::new(cfg(8));
        stl.apply(&TraceRecord::write(0, Lba::new(0), 8)); // fills cache -> merge
        let s = stl.stats();
        assert_eq!(s.host_write_sectors, 8);
        // 8 cache sectors + 100-sector zone rewrite.
        assert_eq!(s.media_write_sectors, 108);
        assert!((s.waf() - 13.5).abs() < 1e-9);
    }

    #[test]
    fn name_and_empty_read() {
        let mut stl = MediaCacheStl::new(cfg(100));
        assert_eq!(stl.name(), "MediaCache");
        let r = stl.apply(&TraceRecord::read(0, Lba::new(0), 4));
        assert_eq!(r, vec![PhysIo::read(Pba::new(0), 4)]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_capacity_panics() {
        MediaCacheStl::new(cfg(0));
    }
}
