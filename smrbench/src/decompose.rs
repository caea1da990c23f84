//! The decomposed replay: drives `policy → stl → disk` through their
//! public functions in the engine's order, so each call can be timed on
//! its own. It must reproduce `Simulation`'s report exactly; the
//! benchmark checks that before it trusts any per-layer number.
//!
//! Also the map-only shadow replay: the extent-map calls plain
//! log-structuring makes (`insert` at the frontier per write,
//! `lookup_each` per read), with nothing else around them.

use crate::probe::{Probe, Slot};
use smrseek_disk::{PhysIo, SeekCounter};
use smrseek_extent::ExtentMap;
use smrseek_obs::PhaseTotals;
use smrseek_policy::PolicyEngine;
use smrseek_sim::{LayerChoice, RunReport, ShardOutcome, SimConfig};
use smrseek_stl::{LogStructured, LsConfig, NoLs, TranslationLayer};
use smrseek_trace::binary::MmapTrace;
use smrseek_trace::Pba;

/// What the decomposed replay produced beyond the report.
pub struct Decomposed {
    pub report: RunReport,
    /// Fragments of fragmented reads the prefetch buffer was consulted
    /// for (each either hit the buffer or issued one prefetching read).
    pub prefetch_consulted: u64,
    /// Digest of the final extent map (0 for NoLS).
    pub map_digest: u128,
}

/// The layer a fresh `Simulation` run of `config` over a trace with
/// frontier bound `top` builds.
fn ls_layer(config: &SimConfig, top: u64) -> Option<LogStructured> {
    match config.layer {
        LayerChoice::NoLs => None,
        LayerChoice::Ls {
            defrag,
            prefetch,
            cache,
        } => {
            let mut ls = LsConfig::above_sector(config.frontier_hint.unwrap_or(top));
            ls.defrag = defrag;
            ls.prefetch = prefetch;
            ls.cache = cache;
            ls.flash_cache_bytes = config.flash_cache_bytes;
            ls.track_fragments = config.track_fragments;
            ls.zone_sectors = config.zone_sectors;
            Some(LogStructured::new(ls))
        }
    }
}

/// Replays `trace` under `config` call by call. Configs with host caches,
/// distance recording or long-seek series are outside the benchmark's
/// sweep and are not modelled here.
pub fn replay<P: Probe>(config: &SimConfig, trace: &MmapTrace, probe: &mut P) -> Decomposed {
    assert!(
        config.host_cache_bytes.is_none()
            && !config.record_distances
            && config.longseek_bucket_ops == 0,
        "the decomposed replay covers the benchmark's configurations only"
    );
    let mut ls = ls_layer(config, trace.top_sector());
    let mut nols = NoLs::new();
    let mut policy = match (&ls, config.policy) {
        (Some(_), Some(p)) => {
            let mut engine = PolicyEngine::new(p);
            engine.set_cache_present(matches!(
                config.layer,
                LayerChoice::Ls { cache: Some(_), .. }
            ));
            Some(engine)
        }
        _ => None,
    };
    let mut counter = SeekCounter::new();
    let mut ios: Vec<PhysIo> = Vec::with_capacity(8);
    let (mut ops, mut phys_sectors, mut peak, mut prefetch_consulted) = (0u64, 0u64, 0u64, 0u64);
    let mut blocks = trace.blocks();
    while let Some(block) = probe.time(Slot::Decode, || blocks.next_block()) {
        for rec in block {
            ops += 1;
            ios.clear();
            match &mut ls {
                None => ios.extend(probe.time(Slot::NoLsApply, || nols.apply(rec))),
                Some(ls) => {
                    let before = ls.stats();
                    let sector = rec.lba.sector();
                    if let Some(policy) = &mut policy {
                        let gates = probe.time(Slot::PolicyObserve, || {
                            policy.observe(sector, rec.op.is_read())
                        });
                        ls.set_gates(gates);
                    }
                    let slot = if rec.op.is_read() {
                        Slot::StlRead
                    } else {
                        Slot::StlWrite
                    };
                    probe.time(slot, || ls.apply_into(rec, &mut |io| ios.push(io)));
                    let after = ls.stats();
                    if after.fragmented_reads > before.fragmented_reads {
                        if let Some(policy) = &mut policy {
                            probe.time(Slot::PolicyRecord, || {
                                if after.phys_reads > before.phys_reads {
                                    policy.record_fragmented(sector);
                                } else {
                                    policy.record_cache_absorbed(sector);
                                }
                            });
                        }
                        prefetch_consulted += (after.prefetch_hit_fragments
                            - before.prefetch_hit_fragments)
                            + (after.phys_reads - before.phys_reads);
                    }
                }
            }
            for io in &ios {
                phys_sectors += io.sectors;
                probe.time(Slot::DiskObserve, || counter.observe(io));
            }
            if let Some(ls) = &ls {
                peak = peak.max(ls.map().len() as u64);
            }
        }
    }
    let layer_name = match (&ls, &policy) {
        (_, Some(_)) => "LS+adaptive".to_owned(),
        (Some(ls), None) => ls.name().to_owned(),
        (None, None) => nols.name().to_owned(),
    };
    let map_digest = ls.as_ref().map_or(0, |l| l.map().digest());
    let report = RunReport {
        layer_name,
        logical_ops: ops,
        seeks: counter.stats(),
        distances: None,
        longseek_series: None,
        phys_sectors,
        host_cache_hits: 0,
        ls_stats: ls.as_ref().map(LogStructured::stats),
        fragments: ls.as_ref().and_then(|l| l.fragment_tracker().cloned()),
        peak_extent_segments: peak,
        policy: policy.map(|p| p.stats()),
        cache_tiers: ls.as_ref().and_then(LogStructured::tier_stats),
        phases: PhaseTotals::default(),
        sharding: ShardOutcome::Serial,
    };
    Decomposed {
        report,
        prefetch_consulted,
        map_digest,
    }
}

/// Counts from the map-only shadow replay.
pub struct Shadow {
    pub inserts: u64,
    pub lookups: u64,
    /// Segments (mapped pieces and holes) the lookups returned.
    pub segments: u64,
    pub map_digest: u128,
}

/// Replays only the extent-map calls plain log-structuring makes.
pub fn shadow<P: Probe>(trace: &MmapTrace, probe: &mut P) -> Shadow {
    let mut map = ExtentMap::new();
    let mut frontier = LsConfig::above_sector(trace.top_sector())
        .frontier_start
        .sector();
    let (mut inserts, mut lookups, mut segments) = (0u64, 0u64, 0u64);
    let mut blocks = trace.blocks();
    while let Some(block) = blocks.next_block() {
        for rec in block {
            let sectors = u64::from(rec.sectors);
            if rec.op.is_read() {
                lookups += 1;
                probe.time(Slot::MapLookup, || {
                    map.lookup_each(rec.lba, sectors, |_| segments += 1)
                });
            } else {
                inserts += 1;
                let at = Pba::new(frontier);
                probe.time(Slot::MapInsert, || map.insert(rec.lba, sectors, at));
                frontier += sectors;
            }
        }
    }
    Shadow {
        inserts,
        lookups,
        segments,
        map_digest: map.digest(),
    }
}
