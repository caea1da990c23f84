//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Probe`] wraps one call. [`Untimed`] compiles to the bare call, so
//! the same replay code serves the untraced fidelity check and the traced
//! run. [`Timed`] reads the clock around every call, accumulates busy time
//! and call counts per [`Slot`], and keeps the first few spans of each
//! slot for the Chrome trace (keeping every span of a million-record
//! replay would cost more memory than the replay itself).

use smrseek_obs::SpanEvent;
use std::time::Instant;

/// The layer functions the decomposed replay calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Slot {
    /// `MmapTrace::blocks` → `next_block` (trace).
    Decode,
    /// `PolicyEngine::observe` (policy).
    PolicyObserve,
    /// `PolicyEngine::record_fragmented` / `record_cache_absorbed` (policy).
    PolicyRecord,
    /// `LogStructured::apply_into` on a read (stl).
    StlRead,
    /// `LogStructured::apply_into` on a write (stl).
    StlWrite,
    /// `NoLs::apply` (stl, the baseline layer).
    NoLsApply,
    /// `SeekCounter::observe` (disk).
    DiskObserve,
    /// `ExtentMap::insert` in the map-only shadow replay (extent).
    MapInsert,
    /// `ExtentMap::lookup_each` in the map-only shadow replay (extent).
    MapLookup,
}

pub const SLOTS: usize = 9;

impl Slot {
    pub const ALL: [Slot; SLOTS] = [
        Slot::Decode,
        Slot::PolicyObserve,
        Slot::PolicyRecord,
        Slot::StlRead,
        Slot::StlWrite,
        Slot::NoLsApply,
        Slot::DiskObserve,
        Slot::MapInsert,
        Slot::MapLookup,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Slot::Decode => "trace:MmapTrace::blocks",
            Slot::PolicyObserve => "policy:PolicyEngine::observe",
            Slot::PolicyRecord => "policy:PolicyEngine::record_*",
            Slot::StlRead => "stl:LogStructured::apply_into(read)",
            Slot::StlWrite => "stl:LogStructured::apply_into(write)",
            Slot::NoLsApply => "stl:NoLs::apply",
            Slot::DiskObserve => "disk:SeekCounter::observe",
            Slot::MapInsert => "extent:ExtentMap::insert",
            Slot::MapLookup => "extent:ExtentMap::lookup_each",
        }
    }

    /// The crate a slot's function belongs to.
    pub fn layer(self) -> &'static str {
        self.name().split(':').next().unwrap_or("")
    }
}

/// Wraps one call into a layer.
pub trait Probe {
    fn time<R>(&mut self, slot: Slot, f: impl FnOnce() -> R) -> R;
}

/// No clock reads: the bare call.
pub struct Untimed;

impl Probe for Untimed {
    #[inline(always)]
    fn time<R>(&mut self, _slot: Slot, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Spans kept per slot for the Chrome trace.
const KEEP_PER_SLOT: usize = 64;

/// Clock reads around every call.
pub struct Timed {
    epoch: Instant,
    pub ns: [u64; SLOTS],
    pub calls: [u64; SLOTS],
    pub events: Vec<SpanEvent>,
    kept: [usize; SLOTS],
}

impl Timed {
    pub fn new(epoch: Instant) -> Timed {
        Timed {
            epoch,
            ns: [0; SLOTS],
            calls: [0; SLOTS],
            events: Vec::new(),
            kept: [0; SLOTS],
        }
    }

    /// Busy nanoseconds of `slot`, less the probe's own cost per call
    /// (`overhead_ns`, from [`calibrate`]).
    pub fn busy_ns(&self, slot: Slot, overhead_ns: f64) -> f64 {
        let i = slot as usize;
        (self.ns[i] as f64 - overhead_ns * self.calls[i] as f64).max(0.0)
    }

    /// Busy nanoseconds summed over every slot, probe cost removed.
    pub fn total_busy_ns(&self, overhead_ns: f64) -> f64 {
        Slot::ALL
            .iter()
            .map(|&s| self.busy_ns(s, overhead_ns))
            .sum()
    }
}

impl Probe for Timed {
    #[inline(always)]
    fn time<R>(&mut self, slot: Slot, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed().as_nanos() as u64;
        let i = slot as usize;
        self.ns[i] += dur;
        self.calls[i] += 1;
        if self.kept[i] < KEEP_PER_SLOT {
            self.kept[i] += 1;
            self.events.push(SpanEvent {
                name: slot.name().to_owned(),
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                dur_ns: dur,
                tid: 0,
                depth: 1,
            });
        }
        out
    }
}

/// The probe's own cost per call in nanoseconds: a timed empty call,
/// measured as the median of a few batches.
pub fn calibrate() -> f64 {
    let mut batches = Vec::new();
    for _ in 0..7 {
        let mut probe = Timed::new(Instant::now());
        for _ in 0..200_000 {
            probe.time(Slot::Decode, || std::hint::black_box(()));
        }
        batches.push(probe.ns[0] as f64 / probe.calls[0] as f64);
    }
    crate::stats::median(&batches).unwrap_or(0.0)
}
