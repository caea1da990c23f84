//! The simulation engine: trace × translation layer → seek statistics.
//!
//! The single entry point is the [`Simulation`] builder: configure with a
//! [`SimConfig`] (validated construction via [`SimConfig::builder`]), then
//! [`run`](Simulation::run) a record stream serially or
//! [`run_trace`](Simulation::run_trace) a random-access trace — the latter
//! can split the record stream across worker threads
//! ([`Simulation::shards`]) and merge the per-shard statistics into a
//! report byte-identical to the serial run.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::checkpoint::CheckpointStore;

use serde::{Deserialize, Serialize};
use smrseek_cache::{RangeCache, TierStats};
use smrseek_disk::{Cdf, LongSeekSeries, PhysIo, SeekCounter, SeekCounterState, SeekStats};
use smrseek_extent::ExtentMapCheckpoint;
use smrseek_obs::{phase_accounting, Phase, PhaseTotals};
use smrseek_policy::{PolicyConfig, PolicyEngine, PolicyStats};
use smrseek_stl::{
    CacheConfig, DefragConfig, FragmentAccessTracker, LogStructured, LsConfig, LsSnapshot, LsStats,
    NoLs, PrefetchConfig, TranslationLayer,
};
use smrseek_trace::binary::{MmapTrace, DEFAULT_BLOCK_RECORDS};
use smrseek_trace::{stream, TraceRecord};

/// Which translation layer to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LayerChoice {
    /// Conventional update-in-place (the paper's NoLS baseline).
    NoLs,
    /// Log-structured translation with optional mechanisms.
    Ls {
        /// Opportunistic defragmentation (§IV-A).
        defrag: Option<DefragConfig>,
        /// Look-ahead-behind prefetching (§IV-B).
        prefetch: Option<PrefetchConfig>,
        /// Selective caching (§IV-C).
        cache: Option<CacheConfig>,
    },
}

/// Configuration of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// The translation layer under test.
    pub layer: LayerChoice,
    /// Record every seek's signed distance (needed for Fig 4 CDFs;
    /// memory-heavy on large traces).
    pub record_distances: bool,
    /// Long-seek series bucket width in logical operations
    /// (0 disables the Fig 3 series).
    pub longseek_bucket_ops: u64,
    /// Track per-fragment access statistics (Fig 5 / Fig 10).
    pub track_fragments: bool,
    /// Model a host buffer cache of this many bytes in front of the
    /// translation layer (extension; §IV-C's competition argument): reads
    /// fully covered by recently-touched LBA ranges never reach the
    /// device, writes are write-through and populate the cache.
    pub host_cache_bytes: Option<u64>,
    /// Back the log with ZBC-style zones of this many sectors (guard-band
    /// splits; extension) instead of the paper's continuous infinite
    /// frontier. Ignored for the NoLS baseline.
    pub zone_sectors: Option<u64>,
    /// Drive the layer's mechanisms through the adaptive policy engine
    /// (`smrseek-policy`): per-region online heat classification gates
    /// defrag rewrites, scales the prefetch window, and admits or denies
    /// cache fills, per record. Requires a log-structured layer with at
    /// least one mechanism to gate (validated by the builder).
    pub policy: Option<PolicyConfig>,
    /// Back the selective cache with a simulated flash tier of this many
    /// bytes (`smrseek_cache::TieredCache`): RAM evictions demote, flash
    /// hits promote. Requires the selective cache (validated by the
    /// builder); the per-tier counters surface as
    /// [`RunReport::cache_tiers`].
    pub flash_cache_bytes: Option<u64>,
    /// Logical-space bound for streaming runs: one past the highest sector
    /// the trace touches. Log-structured layers place their write frontier
    /// at the first 1 MiB boundary at or above this (§III). Required by
    /// [`Simulation::run`] for LS layers — an iterator cannot be scanned
    /// for its maximum LBA up front; [`Simulation::run_trace`] derives it
    /// from the trace when unset. Ignored for the NoLS baseline.
    pub frontier_hint: Option<u64>,
    /// Emit an engine checkpoint every this many records (fed to the
    /// sink set by [`Simulation::checkpoint_sink`]; `None` disables
    /// emission). Purely
    /// operational — it cannot change any report — so
    /// [`canonical`](Self::canonical) clears it and it never affects cache
    /// keys.
    pub checkpoint_every: Option<u64>,
}

impl SimConfig {
    /// The NoLS baseline.
    pub fn no_ls() -> Self {
        SimConfig {
            layer: LayerChoice::NoLs,
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
        }
    }

    /// Plain log-structured translation.
    pub fn log_structured() -> Self {
        SimConfig {
            layer: LayerChoice::Ls {
                defrag: None,
                prefetch: None,
                cache: None,
            },
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
        }
    }

    /// Log-structured + opportunistic defragmentation (paper defaults).
    pub fn ls_defrag() -> Self {
        Self::ls_with(Some(DefragConfig::default()), None, None)
    }

    /// Log-structured + look-ahead-behind prefetching (paper defaults).
    pub fn ls_prefetch() -> Self {
        Self::ls_with(None, Some(PrefetchConfig::default()), None)
    }

    /// Log-structured + 64 MB selective caching (paper defaults).
    pub fn ls_cache() -> Self {
        Self::ls_with(None, None, Some(CacheConfig::default()))
    }

    /// Log-structured with an arbitrary mechanism combination.
    pub fn ls_with(
        defrag: Option<DefragConfig>,
        prefetch: Option<PrefetchConfig>,
        cache: Option<CacheConfig>,
    ) -> Self {
        SimConfig {
            layer: LayerChoice::Ls {
                defrag,
                prefetch,
                cache,
            },
            record_distances: false,
            longseek_bucket_ops: 0,
            track_fragments: false,
            host_cache_bytes: None,
            zone_sectors: None,
            policy: None,
            flash_cache_bytes: None,
            frontier_hint: None,
            checkpoint_every: None,
        }
    }

    /// The adaptive configuration: all three mechanisms at paper defaults,
    /// gated per region by the policy engine, with a 256 MiB flash tier
    /// behind the 64 MB selective cache.
    pub fn ls_adaptive() -> Self {
        Self::ls_with(
            Some(DefragConfig::default()),
            Some(PrefetchConfig::default()),
            Some(CacheConfig::default()),
        )
        .with_policy(PolicyConfig::default())
        .with_flash_cache(256 * 1024 * 1024)
    }

    /// Drives the layer's mechanisms through the adaptive policy engine.
    pub fn with_policy(mut self, policy: PolicyConfig) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Backs the selective cache with a flash tier of `bytes` bytes.
    pub fn with_flash_cache(mut self, bytes: u64) -> Self {
        self.flash_cache_bytes = Some(bytes);
        self
    }

    /// Enables seek-distance recording.
    pub fn with_distances(mut self) -> Self {
        self.record_distances = true;
        self
    }

    /// Enables the long-seek series with the given bucket width.
    pub fn with_longseek_series(mut self, bucket_ops: u64) -> Self {
        self.longseek_bucket_ops = bucket_ops;
        self
    }

    /// Enables fragment tracking.
    pub fn with_fragment_tracking(mut self) -> Self {
        self.track_fragments = true;
        self
    }

    /// Interposes a host buffer cache of `bytes` bytes.
    pub fn with_host_cache(mut self, bytes: u64) -> Self {
        self.host_cache_bytes = Some(bytes);
        self
    }

    /// Backs the log with zones of `sectors` sectors.
    pub fn with_zones(mut self, sectors: u64) -> Self {
        self.zone_sectors = Some(sectors);
        self
    }

    /// Declares the logical-space bound (`top` = one past the highest
    /// sector the trace touches), letting [`Simulation::run`] place the
    /// write frontier without scanning the trace.
    pub fn with_frontier_hint(mut self, top: u64) -> Self {
        self.frontier_hint = Some(top);
        self
    }

    /// Emits an engine checkpoint every `n_records` records when the run
    /// has a [`Simulation::checkpoint_sink`]. Operational only:
    /// the emitted snapshots change no report and no cache key.
    pub fn with_checkpoint_every(mut self, n_records: u64) -> Self {
        self.checkpoint_every = Some(n_records);
        self
    }

    /// The standard five-layer sweep replayed by `smrseek simulate` and by
    /// daemon sweep jobs: the NoLS baseline first (so downstream SAF
    /// computation can divide by it), then plain LS and the three
    /// single-mechanism variants at paper defaults.
    pub fn standard_sweep() -> [SimConfig; 5] {
        [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_defrag(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ]
    }

    /// Canonical form for result-cache keying: two configs that cannot
    /// produce different [`RunReport`]s on the same trace map to the same
    /// canonical value, and any canonical difference is observable in some
    /// report.
    ///
    /// * The NoLS baseline ignores every log-structured knob
    ///   (`zone_sectors`, `frontier_hint`, `track_fragments`), so they are
    ///   cleared.
    /// * For LS layers an unset frontier hint is resolved against `top`
    ///   (one past the trace's highest sector) when known: a run that
    ///   derives the hint from the trace equals one that passes the same
    ///   bound explicitly.
    ///
    /// Knobs that change report *content* (`record_distances`,
    /// `longseek_bucket_ops`, `host_cache_bytes`) are kept verbatim.
    pub fn canonical(mut self, top: Option<u64>) -> Self {
        match self.layer {
            LayerChoice::NoLs => {
                self.zone_sectors = None;
                self.frontier_hint = None;
                self.track_fragments = false;
                self.policy = None;
                self.flash_cache_bytes = None;
            }
            LayerChoice::Ls { .. } => {
                if self.frontier_hint.is_none() {
                    self.frontier_hint = top;
                }
            }
        }
        // Checkpoint cadence never changes a report: two runs differing only
        // in `checkpoint_every` are interchangeable, so they share a key.
        self.checkpoint_every = None;
        self
    }

    /// A stable cache-key fragment: the [`canonical`](Self::canonical)
    /// form serialized as compact JSON. Equal keys imply byte-identical
    /// reports on the same trace; differing keys imply an observable
    /// config difference.
    pub fn cache_key(&self, top: Option<u64>) -> String {
        serde_json::to_string(&self.canonical(top)).expect("SimConfig always serializes")
    }

    /// A validating builder over `layer`: the same knobs as the `with_*`
    /// methods, but degenerate values (zero-byte caches, a zero checkpoint
    /// cadence, zones too small for a guard band) surface as a typed
    /// [`ConfigError`] at [`build`](SimConfigBuilder::build) time instead of
    /// panicking, hanging or being silently clamped mid-run.
    pub fn builder(layer: LayerChoice) -> SimConfigBuilder {
        SimConfigBuilder {
            config: SimConfig {
                layer,
                ..SimConfig::no_ls()
            },
            longseek_bucket_ops: None,
        }
    }
}

/// Why a [`SimConfigBuilder`] refused to produce a [`SimConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A host buffer cache of zero bytes can never hold a range: every
    /// lookup would miss, which is the same as no cache — almost certainly
    /// a unit mistake (bytes vs KiB/MiB) at the call site.
    ZeroHostCache,
    /// The selective cache ([`CacheConfig`]) was given zero capacity.
    ZeroSelectiveCache,
    /// Zones need at least two sectors: one for data and the guard band
    /// after it. A one-sector zone is all guard and holds no write; a
    /// zero-sector zone has no extent at all.
    ZoneTooSmall,
    /// A checkpoint cadence of zero records would either checkpoint after
    /// every record or never, depending on interpretation; the engine used
    /// to silently disable it — now it is rejected up front.
    ZeroCheckpointCadence,
    /// A long-seek series with zero operations per bucket has no time
    /// axis ([`LongSeekSeries::new`] panics on it mid-run otherwise).
    ZeroLongseekBucket,
    /// Zoned logging was requested for the NoLS baseline, which keeps no
    /// log — the knob would be silently ignored.
    ZonesWithoutLs,
    /// The policy classifier was given zero-sector regions: every sector
    /// would be its own region boundary division by zero.
    ZeroPolicyRegion,
    /// An adaptive policy was requested for the NoLS baseline, which has
    /// no mechanisms to gate.
    PolicyWithoutLs,
    /// An adaptive policy was requested for a log-structured layer with no
    /// mechanisms enabled: every gate decision would be a no-op, silently.
    PolicyWithoutMechanisms,
    /// The flash tier was given zero capacity.
    ZeroFlashCache,
    /// A flash tier was requested without the selective cache it backs.
    FlashCacheWithoutSelectiveCache,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            ConfigError::ZeroHostCache => "host cache capacity must be at least one byte",
            ConfigError::ZeroSelectiveCache => "selective cache capacity must be at least one byte",
            ConfigError::ZoneTooSmall => {
                "zones must span at least two sectors (one data sector and its guard band)"
            }
            ConfigError::ZeroCheckpointCadence => "checkpoint cadence must be at least one record",
            ConfigError::ZeroLongseekBucket => {
                "long-seek series buckets must span at least one operation"
            }
            ConfigError::ZonesWithoutLs => "the NoLS baseline keeps no log to zone",
            ConfigError::ZeroPolicyRegion => "policy regions must span at least one sector",
            ConfigError::PolicyWithoutLs => "the NoLS baseline has no mechanisms for a policy to gate",
            ConfigError::PolicyWithoutMechanisms => {
                "an adaptive policy needs at least one mechanism (defrag, prefetch, or cache) to gate"
            }
            ConfigError::ZeroFlashCache => "flash tier capacity must be at least one byte",
            ConfigError::FlashCacheWithoutSelectiveCache => {
                "a flash tier backs the selective cache; enable the cache too"
            }
        };
        f.write_str(msg)
    }
}

impl std::error::Error for ConfigError {}

/// Typed construction of a [`SimConfig`] that validates at build time.
///
/// # Example
///
/// ```
/// use smrseek_sim::{ConfigError, LayerChoice, SimConfig};
///
/// let config = SimConfig::builder(LayerChoice::NoLs)
///     .distances()
///     .longseek_series(1000)
///     .build()
///     .unwrap();
/// assert!(config.record_distances);
///
/// let err = SimConfig::builder(LayerChoice::NoLs)
///     .host_cache(0)
///     .build()
///     .unwrap_err();
/// assert_eq!(err, ConfigError::ZeroHostCache);
/// ```
#[derive(Debug, Clone)]
pub struct SimConfigBuilder {
    config: SimConfig,
    /// Kept apart from the config because `longseek_bucket_ops: 0` is the
    /// *disabled* default there: only an explicit zero is an error.
    longseek_bucket_ops: Option<u64>,
}

impl SimConfigBuilder {
    /// Enables seek-distance recording.
    pub fn distances(mut self) -> Self {
        self.config.record_distances = true;
        self
    }

    /// Enables the long-seek series with the given bucket width.
    pub fn longseek_series(mut self, bucket_ops: u64) -> Self {
        self.longseek_bucket_ops = Some(bucket_ops);
        self
    }

    /// Enables fragment tracking.
    pub fn fragment_tracking(mut self) -> Self {
        self.config.track_fragments = true;
        self
    }

    /// Interposes a host buffer cache of `bytes` bytes.
    pub fn host_cache(mut self, bytes: u64) -> Self {
        self.config.host_cache_bytes = Some(bytes);
        self
    }

    /// Backs the log with zones of `sectors` sectors.
    pub fn zones(mut self, sectors: u64) -> Self {
        self.config.zone_sectors = Some(sectors);
        self
    }

    /// Declares the logical-space bound (see
    /// [`SimConfig::with_frontier_hint`]).
    pub fn frontier_hint(mut self, top: u64) -> Self {
        self.config.frontier_hint = Some(top);
        self
    }

    /// Emits an engine checkpoint every `n_records` records.
    pub fn checkpoint_every(mut self, n_records: u64) -> Self {
        self.config.checkpoint_every = Some(n_records);
        self
    }

    /// Drives the layer's mechanisms through the adaptive policy engine.
    pub fn policy(mut self, policy: PolicyConfig) -> Self {
        self.config.policy = Some(policy);
        self
    }

    /// Backs the selective cache with a flash tier of `bytes` bytes.
    pub fn flash_cache(mut self, bytes: u64) -> Self {
        self.config.flash_cache_bytes = Some(bytes);
        self
    }

    /// Validates the accumulated knobs and produces the config.
    ///
    /// # Errors
    ///
    /// A [`ConfigError`] naming the first degenerate knob found; see the
    /// variants for what each rejects.
    pub fn build(self) -> Result<SimConfig, ConfigError> {
        let mut config = self.config;
        if config.host_cache_bytes == Some(0) {
            return Err(ConfigError::ZeroHostCache);
        }
        if config.zone_sectors.is_some_and(|z| z < 2) {
            return Err(ConfigError::ZoneTooSmall);
        }
        if config.checkpoint_every == Some(0) {
            return Err(ConfigError::ZeroCheckpointCadence);
        }
        if let Some(bucket_ops) = self.longseek_bucket_ops {
            if bucket_ops == 0 {
                return Err(ConfigError::ZeroLongseekBucket);
            }
            config.longseek_bucket_ops = bucket_ops;
        }
        if let LayerChoice::Ls { cache, .. } = config.layer {
            if cache.is_some_and(|cc| cc.capacity_bytes == 0) {
                return Err(ConfigError::ZeroSelectiveCache);
            }
        }
        if matches!(config.layer, LayerChoice::NoLs) && config.zone_sectors.is_some() {
            return Err(ConfigError::ZonesWithoutLs);
        }
        if config.flash_cache_bytes == Some(0) {
            return Err(ConfigError::ZeroFlashCache);
        }
        if let Some(policy) = config.policy {
            if policy.region_sectors == 0 {
                return Err(ConfigError::ZeroPolicyRegion);
            }
        }
        match config.layer {
            LayerChoice::NoLs => {
                if config.policy.is_some() {
                    return Err(ConfigError::PolicyWithoutLs);
                }
                if config.flash_cache_bytes.is_some() {
                    return Err(ConfigError::FlashCacheWithoutSelectiveCache);
                }
            }
            LayerChoice::Ls {
                defrag,
                prefetch,
                cache,
            } => {
                // Without a mechanism every gate decision is a no-op; worse,
                // a gated prepass could not mirror the full run's classifier
                // evidence exactly. Rejected rather than silently inert.
                if config.policy.is_some()
                    && defrag.is_none()
                    && prefetch.is_none()
                    && cache.is_none()
                {
                    return Err(ConfigError::PolicyWithoutMechanisms);
                }
                if config.flash_cache_bytes.is_some() && cache.is_none() {
                    return Err(ConfigError::FlashCacheWithoutSelectiveCache);
                }
            }
        }
        Ok(config)
    }
}

/// How a run was actually executed with respect to intra-trace sharding.
///
/// `--shards N` is a request, not a guarantee: a handful of shapes (a
/// one-record trace, an active checkpoint sink) still force serial
/// execution. When that happens the engine warns once per process and
/// records the reason here, so no sweep cell can degrade silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// Serial execution; sharding was never requested.
    Serial,
    /// The record stream was split across shard workers.
    Sharded {
        /// Worker count actually used (the request clamped to the record
        /// count).
        shards: usize,
    },
    /// Sharding was requested but the run fell back to serial.
    SerialFallback {
        /// Why the run could not shard.
        reason: &'static str,
    },
}

impl ShardOutcome {
    /// The degradation reason, when sharding was requested but refused.
    pub fn fallback_reason(&self) -> Option<&'static str> {
        match self {
            ShardOutcome::SerialFallback { reason } => Some(reason),
            _ => None,
        }
    }
}

impl std::fmt::Display for ShardOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardOutcome::Serial => f.write_str("serial"),
            ShardOutcome::Sharded { shards } => write!(f, "sharded({shards})"),
            ShardOutcome::SerialFallback { reason } => write!(f, "serial ({reason})"),
        }
    }
}

/// One-shot (per process) stderr warning for a requested-but-refused
/// shard split; every affected report still records its own reason.
static FALLBACK_WARNED: AtomicBool = AtomicBool::new(false);

fn warn_serial_fallback(reason: &'static str) {
    if !FALLBACK_WARNED.swap(true, Ordering::Relaxed) {
        smrseek_obs::warn!("sharding requested but running serial: {reason} (warned once)");
    }
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Layer name ("NoLS", "LS", "LS+cache", ...).
    pub layer_name: String,
    /// Logical operations replayed.
    pub logical_ops: u64,
    /// Seek statistics at the medium.
    pub seeks: SeekStats,
    /// Signed seek distances (when enabled).
    pub distances: Option<Vec<i64>>,
    /// Long-seek series (when enabled).
    pub longseek_series: Option<LongSeekSeries>,
    /// Total sectors moved by physical operations (for time weighting).
    pub phys_sectors: u64,
    /// Logical reads absorbed by the modeled host buffer cache.
    pub host_cache_hits: u64,
    /// Layer-internal counters (log-structured layers only).
    pub ls_stats: Option<LsStats>,
    /// Fragment statistics (when tracked; log-structured layers only).
    pub fragments: Option<FragmentAccessTracker>,
    /// Largest extent-map segment count observed during the run (0 for
    /// NoLS, which keeps no map) — the run's dominant memory term.
    pub peak_extent_segments: u64,
    /// Adaptive-policy decision and flip counters, when the run was driven
    /// by a [`SimConfig::with_policy`] engine.
    pub policy: Option<PolicyStats>,
    /// Per-tier cache hit/promotion/demotion counters, when the selective
    /// cache had a flash tier ([`SimConfig::with_flash_cache`]).
    pub cache_tiers: Option<TierStats>,
    /// Engine phase accounting (where simulation wall time went). All
    /// zeros unless [`smrseek_obs::set_phase_accounting`] was on when the
    /// run started. A timing side channel like `RunMetrics`: deliberately
    /// excluded from the hand-written [`Serialize`] impl below, because
    /// serialized reports must stay byte-deterministic across machines,
    /// thread counts, and resume points.
    pub phases: PhaseTotals,
    /// How the run actually executed ([`ShardOutcome`]). Execution shape,
    /// not simulation result: excluded from the hand-written [`Serialize`]
    /// impl below for the same reason as `phases` — serialized reports are
    /// byte-identical across shard counts by contract.
    pub sharding: ShardOutcome,
}

/// Hand-written (the vendored `serde_derive` has no `#[serde(skip)]`):
/// reproduces exactly what the derive emitted for every field except
/// `phases` and `sharding`, which are execution-shape noise and must not
/// reach serialized reports. The adaptive fields (`policy`, `cache_tiers`)
/// are appended only when present, so reports from policy-free runs stay
/// byte-identical to those from before the fields existed.
impl Serialize for RunReport {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            (String::from("layer_name"), self.layer_name.to_value()),
            (String::from("logical_ops"), self.logical_ops.to_value()),
            (String::from("seeks"), self.seeks.to_value()),
            (String::from("distances"), self.distances.to_value()),
            (
                String::from("longseek_series"),
                self.longseek_series.to_value(),
            ),
            (String::from("phys_sectors"), self.phys_sectors.to_value()),
            (
                String::from("host_cache_hits"),
                self.host_cache_hits.to_value(),
            ),
            (String::from("ls_stats"), self.ls_stats.to_value()),
            (String::from("fragments"), self.fragments.to_value()),
            (
                String::from("peak_extent_segments"),
                self.peak_extent_segments.to_value(),
            ),
        ];
        if self.policy.is_some() {
            fields.push((String::from("policy"), self.policy.to_value()));
        }
        if self.cache_tiers.is_some() {
            fields.push((String::from("cache_tiers"), self.cache_tiers.to_value()));
        }
        serde::Value::Object(fields)
    }
}

impl RunReport {
    /// Builds a distance CDF from the recorded distances, or `None` when
    /// the run was not configured with
    /// [`SimConfig::with_distances`](SimConfig::with_distances).
    pub fn distance_cdf(&self) -> Option<Cdf> {
        self.distances.as_deref().map(Cdf::from_slice)
    }
}

/// The concrete layers the engine can drive (static dispatch keeps the hot
/// loop monomorphic and lets the engine extract layer-specific results
/// after the run).
enum LayerImpl {
    NoLs(NoLs),
    Ls(Box<LogStructured>),
}

impl LayerImpl {
    fn apply_into(&mut self, rec: &TraceRecord, sink: &mut dyn FnMut(PhysIo)) {
        match self {
            LayerImpl::NoLs(l) => l.apply_into(rec, sink),
            LayerImpl::Ls(l) => l.apply_into(rec, sink),
        }
    }

    fn name(&self) -> &str {
        match self {
            LayerImpl::NoLs(l) => l.name(),
            LayerImpl::Ls(l) => l.name(),
        }
    }
}

/// Serializable state of the translation layer inside an
/// [`EngineSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LayerSnapshot {
    /// The NoLS baseline carries no state.
    NoLs,
    /// Full log-structured layer state (boxed: it dwarfs the other
    /// variant).
    Ls(Box<LsSnapshot>),
}

/// Complete engine state after consuming some prefix of a trace: restoring
/// it and replaying the remaining records yields a [`RunReport`] identical
/// to the uninterrupted run. Produced by a [`Simulation::checkpoint_sink`],
/// consumed by [`Simulation::resume_from`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Translation-layer state (extent map, frontier, caches, counters).
    pub layer: LayerSnapshot,
    /// Seek-model state (head position, statistics, recorded distances).
    pub counter: SeekCounterState,
    /// Long-seek series accumulated so far (when enabled).
    pub longseek_series: Option<LongSeekSeries>,
    /// Host buffer-cache contents (when modeled).
    pub host_cache: Option<RangeCache>,
    /// Logical reads absorbed by the host cache so far.
    pub host_cache_hits: u64,
    /// Physical sectors moved so far.
    pub phys_sectors: u64,
    /// Records consumed so far — the resume index: replay continues with
    /// record `logical_ops` of the original trace.
    pub logical_ops: u64,
    /// Largest extent-map segment count observed so far.
    pub peak_extent_segments: u64,
    /// Adaptive policy engine state (region classifier + counters), when
    /// the run is policy-driven.
    pub policy: Option<PolicyEngine>,
}

/// Live engine state: the deconstructed body of the historical
/// `simulate_stream` loop, split so a run can be started fresh, started
/// from a snapshot, stepped, checkpointed mid-flight, and finished into a
/// [`RunReport`] — all through the same code path, which is what makes
/// resumed runs byte-identical to uninterrupted ones.
struct EngineState {
    config: SimConfig,
    layer: LayerImpl,
    counter: SeekCounter,
    series: Option<LongSeekSeries>,
    host_cache: Option<RangeCache>,
    host_cache_hits: u64,
    phys_sectors: u64,
    logical_ops: u64,
    peak_extent_segments: u64,
    /// The adaptive policy engine, when configured: consulted before every
    /// record that reaches the layer, fed fragmented-read evidence after.
    policy: Option<PolicyEngine>,
    /// Sampled from [`phase_accounting`] once at construction so a run's
    /// behavior cannot change mid-flight; when false, `step` pays a single
    /// branch and no clock reads.
    timing: bool,
    phases: PhaseTotals,
    /// Scratch buffer for the physical I/O of the record being replayed,
    /// reused so a step allocates nothing. Transient: cleared per record,
    /// never snapshotted.
    ios: Vec<PhysIo>,
}

/// The [`LsConfig`] a fresh run of `config` builds its layer from.
///
/// # Panics
///
/// Panics when `config` is log-structured without a frontier hint (see the
/// message; [`Simulation::run_trace`] derives the hint before calling), or
/// with zones under two sectors ([`SimConfig::builder`] rejects those).
fn ls_config_for(config: &SimConfig) -> Option<LsConfig> {
    match config.layer {
        LayerChoice::NoLs => None,
        LayerChoice::Ls {
            defrag,
            prefetch,
            cache,
        } => {
            let top = config.frontier_hint.expect(
                "Simulation::run needs SimConfig::with_frontier_hint for log-structured \
                 layers: a stream cannot be pre-scanned for its highest LBA (use \
                 Simulation::run_trace for random-access traces, or pass the bound from a \
                 header or a first pass)",
            );
            let mut ls_config = LsConfig::above_sector(top);
            ls_config.defrag = defrag;
            ls_config.prefetch = prefetch;
            ls_config.cache = cache;
            ls_config.flash_cache_bytes = config.flash_cache_bytes;
            ls_config.track_fragments = config.track_fragments;
            Some(match config.zone_sectors {
                Some(z) => ls_config.with_zones(z),
                None => ls_config,
            })
        }
    }
}

impl EngineState {
    fn new(config: &SimConfig) -> Self {
        let layer = match ls_config_for(config) {
            None => LayerImpl::NoLs(NoLs::new()),
            Some(ls_config) => LayerImpl::Ls(Box::new(LogStructured::new(ls_config))),
        };
        let counter = if config.record_distances {
            SeekCounter::with_distances()
        } else {
            SeekCounter::new()
        };
        let series = (config.longseek_bucket_ops > 0)
            .then(|| LongSeekSeries::new(config.longseek_bucket_ops));
        // The host cache is indexed by *logical* sector; `RangeCache` is
        // address-space agnostic, so LBA sectors are passed as its keys.
        let host_cache = config
            .host_cache_bytes
            .map(smrseek_cache::RangeCache::with_capacity_bytes);
        // Policy without LS is rejected by the builder; tolerated here by
        // simply never constructing the engine.
        let policy = match config.layer {
            LayerChoice::Ls { .. } => config.policy.map(|p| fresh_policy(p, config)),
            LayerChoice::NoLs => None,
        };
        EngineState {
            config: *config,
            layer,
            counter,
            series,
            host_cache,
            host_cache_hits: 0,
            phys_sectors: 0,
            logical_ops: 0,
            peak_extent_segments: 0,
            policy,
            timing: phase_accounting(),
            phases: PhaseTotals::default(),
            ios: Vec::new(),
        }
    }

    fn resume(config: &SimConfig, snap: &EngineSnapshot) -> Self {
        let layer = match (&snap.layer, config.layer) {
            (LayerSnapshot::NoLs, LayerChoice::NoLs) => LayerImpl::NoLs(NoLs::new()),
            (LayerSnapshot::Ls(ls), LayerChoice::Ls { .. }) => {
                LayerImpl::Ls(Box::new(LogStructured::from_snapshot((**ls).clone())))
            }
            _ => panic!(
                "snapshot layer does not match the config's layer — validate the snapshot's \
                 config key against SimConfig::cache_key before resuming"
            ),
        };
        EngineState {
            config: *config,
            layer,
            counter: SeekCounter::from_state(snap.counter.clone()),
            series: snap.longseek_series.clone(),
            host_cache: snap.host_cache.clone(),
            host_cache_hits: snap.host_cache_hits,
            phys_sectors: snap.phys_sectors,
            logical_ops: snap.logical_ops,
            peak_extent_segments: snap.peak_extent_segments,
            policy: snap.policy.clone(),
            timing: phase_accounting(),
            // Snapshots carry no timing (it is wall-clock noise, not
            // simulation state): a resumed run accounts only for the
            // records it replays itself.
            phases: PhaseTotals::default(),
            ios: Vec::new(),
        }
    }

    /// Replays one record. Behaviorally identical with phase accounting on
    /// or off: timing wraps the same statements, it never reorders them.
    fn step(&mut self, rec: &TraceRecord) {
        #[cfg(feature = "fine-spans")]
        let _span = smrseek_obs::span("engine:step");
        let i = self.logical_ops;
        self.logical_ops += 1;
        let mut mark = self.timing.then(Instant::now);
        if let Some(cache) = &mut self.host_cache {
            let key = smrseek_trace::Pba::new(rec.lba.sector());
            let hit = rec.op.is_read() && cache.covers(key, u64::from(rec.sectors));
            if !hit {
                cache.insert(key, u64::from(rec.sectors));
            }
            if let Some(t) = &mut mark {
                self.phases.record(Phase::HostCache, t.elapsed());
                *t = Instant::now();
            }
            if hit {
                self.host_cache_hits += 1;
                return; // served from host RAM: nothing reaches the device
            }
        }
        let frag_before = match (&self.policy, &self.layer) {
            (Some(_), LayerImpl::Ls(ls)) => {
                let s = ls.stats();
                Some((s.fragmented_reads, s.phys_reads))
            }
            _ => None,
        };
        if let (Some(policy), LayerImpl::Ls(ls)) = (&mut self.policy, &mut self.layer) {
            let gates = policy.observe(rec.lba.sector(), rec.op.is_read());
            ls.set_gates(gates);
            if let Some(t) = &mut mark {
                self.phases.record(Phase::Classify, t.elapsed());
                *t = Instant::now();
            }
        }
        let ios = &mut self.ios;
        ios.clear();
        self.layer.apply_into(rec, &mut |io| ios.push(io));
        if let Some(t) = &mut mark {
            self.phases.record(Phase::Lookup, t.elapsed());
            *t = Instant::now();
        }
        if let Some((frag, phys)) = frag_before {
            if let (Some(policy), LayerImpl::Ls(ls)) = (&mut self.policy, &self.layer) {
                let s = ls.stats();
                if s.fragmented_reads > frag {
                    // A fragmented read that paid disk I/O is hot evidence;
                    // one fully absorbed by the cache or prefetch buffer is
                    // evidence the cheaper mechanisms already cover this
                    // region, so defrag rewrites would be pure cost.
                    if s.phys_reads > phys {
                        policy.record_fragmented(rec.lba.sector());
                    } else {
                        policy.record_cache_absorbed(rec.lba.sector());
                    }
                }
            }
            if let Some(t) = &mut mark {
                self.phases.record(Phase::Classify, t.elapsed());
                *t = Instant::now();
            }
        }
        for io in &self.ios {
            self.phys_sectors += io.sectors;
            if let Some(seek) = self.counter.observe(io) {
                if let Some(series) = &mut self.series {
                    series.record(i, &seek);
                }
            }
        }
        if let LayerImpl::Ls(ls) = &self.layer {
            self.peak_extent_segments = self.peak_extent_segments.max(ls.map().len() as u64);
        }
        if let Some(t) = &mark {
            self.phases.record(Phase::Seek, t.elapsed());
        }
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            layer: match &self.layer {
                LayerImpl::NoLs(_) => LayerSnapshot::NoLs,
                LayerImpl::Ls(ls) => LayerSnapshot::Ls(Box::new(ls.to_snapshot())),
            },
            counter: self.counter.to_state(),
            longseek_series: self.series.clone(),
            host_cache: self.host_cache.clone(),
            host_cache_hits: self.host_cache_hits,
            phys_sectors: self.phys_sectors,
            logical_ops: self.logical_ops,
            peak_extent_segments: self.peak_extent_segments,
            policy: self.policy.clone(),
        }
    }

    fn finish(self) -> RunReport {
        let layer_name = if self.policy.is_some() {
            // The mechanism mix is config-visible; what defines this run is
            // that the policy engine drove it.
            String::from("LS+adaptive")
        } else {
            self.layer.name().to_owned()
        };
        let (ls_stats, fragments, cache_tiers) = match self.layer {
            LayerImpl::NoLs(_) => (None, None, None),
            LayerImpl::Ls(ls) => (
                Some(ls.stats()),
                ls.fragment_tracker().cloned(),
                ls.tier_stats(),
            ),
        };
        RunReport {
            layer_name,
            logical_ops: self.logical_ops,
            phys_sectors: self.phys_sectors,
            host_cache_hits: self.host_cache_hits,
            seeks: self.counter.stats(),
            distances: self
                .config
                .record_distances
                .then(|| self.counter.into_distances()),
            longseek_series: self.series,
            ls_stats,
            fragments,
            peak_extent_segments: self.peak_extent_segments,
            policy: self.policy.map(|p| p.stats()),
            cache_tiers,
            phases: self.phases,
            sharding: ShardOutcome::Serial,
        }
    }
}

/// A trace the engine can replay with random access: sharded execution
/// needs the total record count (to split), any single record (to seed a
/// shard's head position from its overlap record), and batched sequential
/// access to an arbitrary record range. Implemented for in-memory slices
/// (zero-copy blocks) and for [`MmapTrace`] (block decode off the shared
/// mapping).
pub trait ShardableTrace: Sync {
    /// Number of records available to replay.
    fn num_records(&self) -> usize;

    /// Record `index` (random access; panics out of bounds).
    fn record(&self, index: usize) -> TraceRecord;

    /// The frontier bound derived from this trace — what an LS run uses
    /// when [`SimConfig::frontier_hint`] is unset. Each implementation
    /// preserves the derivation its pre-`Simulation` replay path used, so
    /// reports stay byte-identical across the API change.
    fn frontier_top(&self) -> u64;

    /// Streams records `[start, end)` to `f` as consecutive non-empty
    /// blocks whose concatenation is exactly that range.
    fn for_each_block(&self, start: usize, end: usize, f: &mut dyn FnMut(&[TraceRecord]));
}

impl ShardableTrace for [TraceRecord] {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn record(&self, index: usize) -> TraceRecord {
        self[index]
    }

    /// Highest *starting* LBA plus one — the derivation the historical
    /// slice-based `simulate` used (via `stream::max_lba`), kept so
    /// derived frontiers land on the same sector.
    fn frontier_top(&self) -> u64 {
        stream::max_lba(self).map_or(0, |l| l.sector() + 1)
    }

    fn for_each_block(&self, start: usize, end: usize, f: &mut dyn FnMut(&[TraceRecord])) {
        for block in self[start..end].chunks(DEFAULT_BLOCK_RECORDS) {
            f(block);
        }
    }
}

impl ShardableTrace for Vec<TraceRecord> {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn record(&self, index: usize) -> TraceRecord {
        self[index]
    }

    fn frontier_top(&self) -> u64 {
        self.as_slice().frontier_top()
    }

    fn for_each_block(&self, start: usize, end: usize, f: &mut dyn FnMut(&[TraceRecord])) {
        self.as_slice().for_each_block(start, end, f);
    }
}

impl ShardableTrace for MmapTrace {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn record(&self, index: usize) -> TraceRecord {
        self.get(index)
    }

    /// One past the highest sector any record touches — from the v2
    /// header when present, exactly the hint mmap-backed replay always
    /// passed explicitly.
    fn frontier_top(&self) -> u64 {
        self.top_sector()
    }

    fn for_each_block(&self, start: usize, end: usize, f: &mut dyn FnMut(&[TraceRecord])) {
        let mut blocks = self.blocks_range(start, end, DEFAULT_BLOCK_RECORDS);
        while let Some(block) = blocks.next_block() {
            f(block);
        }
    }
}

/// One configured simulation run: the single entry point that replaces the
/// historical `simulate` / `simulate_stream` / `simulate_stream_from` /
/// `simulate_stream_checkpointed` family.
///
/// Build one with [`Simulation::new`], optionally chain
/// [`resume_from`](Self::resume_from) (replay continues from a snapshot),
/// [`checkpoint_every`](Self::checkpoint_every) (emit snapshots on a
/// cadence), and [`shards`](Self::shards) (split the record stream across
/// worker threads), then consume records with [`run`](Self::run) (any
/// iterator, strictly serial) or [`run_trace`](Self::run_trace)
/// (random-access traces, shardable). Whatever the combination, the
/// serialized [`RunReport`] is byte-identical to the plain serial run.
///
/// # Example
///
/// ```
/// use smrseek_sim::{SimConfig, Simulation};
/// use smrseek_workloads::profiles;
///
/// let trace = profiles::by_name("mds_0").unwrap().generate_scaled(1, 4000);
/// let nols = Simulation::new(&SimConfig::no_ls()).shards(4).run_trace(&trace);
/// let ls = Simulation::new(&SimConfig::log_structured()).run_trace(&trace);
/// // mds_0 is write-intensive: log-structuring removes most seeks.
/// assert!(ls.seeks.total() < nols.seeks.total());
/// ```
pub struct Simulation<'a> {
    config: SimConfig,
    resume_from: Option<&'a EngineSnapshot>,
    sink: Option<SnapshotSink<'a>>,
    shards: usize,
    prepass_store: Option<(&'a CheckpointStore, u128)>,
}

/// Boxed checkpoint consumer installed by [`Simulation::checkpoint_sink`].
type SnapshotSink<'a> = Box<dyn FnMut(&EngineSnapshot) + 'a>;

impl<'a> Simulation<'a> {
    /// A simulation of `config` (copied; later chained knobs act on the
    /// copy).
    pub fn new(config: &SimConfig) -> Simulation<'a> {
        Simulation {
            config: *config,
            resume_from: None,
            sink: None,
            shards: 1,
            prepass_store: None,
        }
    }

    /// Resumes from `snapshot`: the subsequent [`run`](Self::run) /
    /// [`run_trace`](Self::run_trace) must be given the *remaining*
    /// records — those from index [`EngineSnapshot::logical_ops`] onward
    /// of the original trace — and produces a [`RunReport`]
    /// byte-identical (as JSON) to the uninterrupted run over the whole
    /// trace.
    pub fn resume_from(mut self, snapshot: &'a EngineSnapshot) -> Self {
        self.resume_from = Some(snapshot);
        self
    }

    /// Emits an [`EngineSnapshot`] to `sink` after every `n_records`-th
    /// consumed record, at absolute record indices counted over the whole
    /// trace (a resumed run keeps the original cadence). Overrides any
    /// cadence already on the config. An active sink forces serial
    /// execution: snapshots capture total engine state at a record
    /// boundary, which a half-merged sharded run does not have.
    pub fn checkpoint_every(
        mut self,
        n_records: u64,
        sink: impl FnMut(&EngineSnapshot) + 'a,
    ) -> Self {
        self.config.checkpoint_every = Some(n_records);
        self.sink = Some(Box::new(sink));
        self
    }

    /// Like [`checkpoint_every`](Self::checkpoint_every), but keeps the
    /// cadence already configured via [`SimConfig::with_checkpoint_every`]
    /// (no emission when the config sets none).
    pub fn checkpoint_sink(mut self, sink: impl FnMut(&EngineSnapshot) + 'a) -> Self {
        self.sink = Some(Box::new(sink));
        self
    }

    /// Requests the record stream be split across `k` worker threads in
    /// [`run_trace`](Self::run_trace) (clamped to at least 1; ignored by
    /// the strictly-serial [`run`](Self::run)). Every sweep configuration
    /// shards exactly: history-free NoLS replay is seeded directly from
    /// its one-record overlap, and everything else (log-structured layers,
    /// host caches) replays from boundary state checkpoints captured by a
    /// transition-only prepass. The few shapes that still force serial
    /// execution (a one-record trace, an active checkpoint sink) warn once
    /// and record the reason in [`RunReport::sharding`] — a shard request
    /// is always safe, never silent.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Persists (and reuses) the sharding prepass's boundary checkpoints
    /// in `store`, keyed by (`trace_digest` × canonical config key ×
    /// shard-split geometry). A later sharded run of the same work loads
    /// its seeds instead of serially replaying the prefix; a file that is
    /// missing, damaged, or from different work degrades to a fresh
    /// prepass — never to wrong state (the boundary cross-check still runs
    /// against every loaded seed). Ignored by resumed runs, whose seeds
    /// also depend on the resume snapshot.
    pub fn prepass_store(mut self, store: &'a CheckpointStore, trace_digest: u128) -> Self {
        self.prepass_store = Some((store, trace_digest));
        self
    }

    /// Whether this run would actually execute sharded on `trace`.
    pub fn is_sharded(&self, trace: &(impl ShardableTrace + ?Sized)) -> bool {
        self.shards > 1 && self.shard_refusal(trace.num_records()).is_none()
    }

    /// Why a requested shard split cannot run, or `None` when it can.
    /// Only two shapes refuse: a trace too short to split, and an active
    /// checkpoint sink (snapshots capture total engine state at a record
    /// boundary, which a half-merged sharded run does not have).
    fn shard_refusal(&self, records: usize) -> Option<&'static str> {
        if records < 2 {
            return Some("trace has fewer than two records");
        }
        if self.sink.is_some() && self.config.checkpoint_every.is_some_and(|n| n > 0) {
            return Some("an active checkpoint sink requires serial replay");
        }
        None
    }

    /// Replays a stream of records through the configured layer, feeding
    /// every physical operation to the seek model. Consumes the records
    /// one at a time and never materializes the trace, so memory stays
    /// bounded by the layer's own state regardless of trace length.
    /// Strictly serial — a bare iterator offers no random access to split
    /// on; use [`run_trace`](Self::run_trace) for sharded replay.
    ///
    /// # Panics
    ///
    /// Log-structured layers place their write frontier just above the
    /// trace's highest LBA (§III), which a stream cannot reveal up front:
    /// running an LS layer requires [`SimConfig::with_frontier_hint`] and
    /// panics without it ([`run_trace`](Self::run_trace) derives it).
    /// Also panics when resuming from a snapshot whose layer kind does
    /// not match the config's.
    pub fn run<I>(mut self, records: I) -> RunReport
    where
        I: IntoIterator<Item = TraceRecord>,
    {
        let outcome = if self.shards > 1 {
            let reason = "record streams have no random access to split across shards";
            warn_serial_fallback(reason);
            ShardOutcome::SerialFallback { reason }
        } else {
            ShardOutcome::Serial
        };
        let mut state = match self.resume_from {
            Some(snap) => EngineState::resume(&self.config, snap),
            None => EngineState::new(&self.config),
        };
        let every = self.config.checkpoint_every.filter(|&n| n > 0);
        let timing = state.timing;
        let mut records = records.into_iter();
        loop {
            // Pulling the next record is where trace parse / mmap-read
            // cost lives, so it is accounted as the ingest phase.
            let mark = timing.then(Instant::now);
            let Some(rec) = records.next() else { break };
            if let Some(t) = mark {
                state.phases.record(Phase::Ingest, t.elapsed());
            }
            state.step(&rec);
            if let Some(n) = every {
                if state.logical_ops % n == 0 {
                    let mark = timing.then(Instant::now);
                    let snap = state.snapshot();
                    if let Some(sink) = &mut self.sink {
                        sink(&snap);
                    }
                    if let Some(t) = mark {
                        state.phases.record(Phase::Checkpoint, t.elapsed());
                    }
                }
            }
        }
        let mut report = state.finish();
        report.sharding = outcome;
        report
    }

    /// Replays a random-access trace: derives the LS frontier hint from
    /// the trace when the config leaves it unset, ingests in decoded
    /// blocks rather than record-at-a-time, and — when
    /// [`shards`](Self::shards) requested it and the configuration is
    /// exactly shardable (see [`is_sharded`](Self::is_sharded)) — splits
    /// the record range across worker threads and merges the per-shard
    /// statistics. Serialized reports are byte-identical to
    /// [`run`](Self::run) over the same records in every case.
    pub fn run_trace<T>(mut self, trace: &T) -> RunReport
    where
        T: ShardableTrace + ?Sized,
    {
        if matches!(self.config.layer, LayerChoice::Ls { .. })
            && self.config.frontier_hint.is_none()
        {
            self.config.frontier_hint = Some(trace.frontier_top());
        }
        let outcome = if self.shards > 1 {
            match self.shard_refusal(trace.num_records()) {
                None => return self.run_sharded(trace),
                Some(reason) => {
                    warn_serial_fallback(reason);
                    ShardOutcome::SerialFallback { reason }
                }
            }
        } else {
            ShardOutcome::Serial
        };
        let mut state = match self.resume_from {
            Some(snap) => EngineState::resume(&self.config, snap),
            None => EngineState::new(&self.config),
        };
        let every = self.config.checkpoint_every.filter(|&n| n > 0);
        let mut sink = self.sink;
        let n = trace.num_records();
        run_range(&mut state, trace, 0, n, &mut |state| {
            if let Some(n) = every {
                if state.logical_ops % n == 0 {
                    let mark = state.timing.then(Instant::now);
                    let snap = state.snapshot();
                    if let Some(sink) = &mut sink {
                        sink(&snap);
                    }
                    if let Some(t) = mark {
                        state.phases.record(Phase::Checkpoint, t.elapsed());
                    }
                }
            }
        });
        let mut report = state.finish();
        report.sharding = outcome;
        report
    }

    /// The sharded executor. Preconditions (`is_sharded`): at least 2
    /// records, no active checkpoint sink.
    ///
    /// Each shard replays a contiguous record range `[s, e)` from exact
    /// boundary state:
    ///
    /// * **Direct seeding** — NoLS without a host cache translates 1:1 and
    ///   statelessly, so the only cross-record state is the head position,
    ///   which after record `s-1` is exactly that record's end sector.
    ///   Shard workers start their seek counter there with zeroed
    ///   statistics; no prepass is needed.
    /// * **Boundary checkpoints** (LFS-style checkpoint regions) — every
    ///   other configuration carries history (extent map, caches, defrag
    ///   queues). A serial transition-only prepass replays just the
    ///   behaviour-relevant state ([`LogStructured::apply_transition`]: no
    ///   seek accounting, no I/O materialization, fragment tracking off)
    ///   and captures a normalized [`EngineSnapshot`] plus an
    ///   [`ExtentMapCheckpoint`] fingerprint at each interior boundary;
    ///   shard `k` then resumes from boundary `k`'s snapshot.
    ///
    /// Per-shard reports merge associatively back into the serial result:
    /// counts add, distances and fragment records concatenate in shard
    /// order, and the long-seek series — bucketed by *absolute* logical
    /// index — sums bucket-wise. As a cross-check, each shard's end state
    /// must agree with the next boundary's prepass checkpoint (head
    /// position, map fingerprint, host-cache contents; full behavioural
    /// state in debug builds, where divergence asserts). A mismatch is
    /// expected never; if one is ever detected in release builds the run
    /// falls back to a full serial replay rather than returning a wrong
    /// report.
    fn run_sharded<T>(self, trace: &T) -> RunReport
    where
        T: ShardableTrace + ?Sized,
    {
        let n = trace.num_records();
        let shards = self.shards.min(n);
        // A resumed run replays the remaining records only; seed indices
        // stay absolute so series buckets and op indices line up.
        let base_logical = self.resume_from.map_or(0, |s| s.logical_ops);
        let base_head_ops = self.resume_from.map_or(0, |s| s.counter.head_ops_seen);
        let bounds: Vec<usize> = (0..=shards).map(|i| i * n / shards).collect();
        let config = self.config;
        let resume_from = self.resume_from;
        // NoLS without a host cache is history-free: seed directly.
        let direct = matches!(config.layer, LayerChoice::NoLs) && config.host_cache_bytes.is_none();
        let prepass_store = self.prepass_store.filter(|_| resume_from.is_none());
        let seeds: Vec<BoundarySeed> = if direct {
            Vec::new()
        } else if let Some(seeds) = prepass_store
            .and_then(|(store, digest)| load_prepass_seeds(store, digest, &config, &bounds))
        {
            seeds
        } else {
            let seeds = prepass_seeds(&config, resume_from, trace, &bounds);
            if let Some((store, digest)) = prepass_store {
                for (seed, &bound) in seeds.iter().zip(&bounds[1..]) {
                    // Save failures are non-fatal: a stored seed is an
                    // optimization, the fresh prepass's result stands.
                    store
                        .save(digest, &prepass_key(&config, shards, bound), &seed.snapshot)
                        .ok();
                }
            }
            seeds
        };
        let ranges: Vec<(usize, usize, usize)> = bounds
            .windows(2)
            .enumerate()
            .map(|(k, w)| (k, w[0], w[1]))
            .collect();
        let workers = NonZeroUsize::new(shards).expect("is_sharded implies shards >= 2");
        let results = crate::runner::parallel_map(&ranges, workers, |&(k, start, end)| {
            let mut state = if start == 0 {
                match resume_from {
                    Some(snap) => EngineState::resume(&config, snap),
                    None => EngineState::new(&config),
                }
            } else if direct {
                let mut state = EngineState::new(&config);
                let overlap = trace.record(start - 1);
                state.counter = SeekCounter::from_state(SeekCounterState {
                    head_position: overlap.end().sector(),
                    head_ops_seen: base_head_ops + start as u64,
                    stats: SeekStats::default(),
                    record_distances: config.record_distances,
                    distances: Vec::new(),
                });
                state.logical_ops = base_logical + start as u64;
                state
            } else {
                EngineState::resume(&config, &seeds[k - 1].snapshot)
            };
            run_range(&mut state, trace, start, end, &mut |_| {});
            let end_state = (!direct && end < n).then(|| ShardEnd::capture(&state));
            (state.finish(), end_state)
        });
        // Cross-check every interior boundary before trusting the merge:
        // shard k must have ended in exactly the state the prepass seeded
        // shard k+1 from.
        for (k, seed) in seeds.iter().enumerate() {
            let end = results[k]
                .1
                .as_ref()
                .expect("checkpoint-path shards capture their end state");
            if !end.matches_seed(seed, &config) {
                let reason = "shard boundary state diverged from the prepass";
                debug_assert!(false, "{reason}");
                warn_serial_fallback(reason);
                let mut state = match resume_from {
                    Some(snap) => EngineState::resume(&config, snap),
                    None => EngineState::new(&config),
                };
                run_range(&mut state, trace, 0, n, &mut |_| {});
                let mut report = state.finish();
                report.sharding = ShardOutcome::SerialFallback { reason };
                return report;
            }
        }
        let mut reports = results.into_iter().map(|(report, _)| report);
        let mut merged = reports.next().expect("at least one shard ran");
        for shard in reports {
            merged.seeks.merge(&shard.seeks);
            if let (Some(all), Some(part)) = (&mut merged.distances, &shard.distances) {
                all.extend_from_slice(part);
            }
            if let (Some(all), Some(part)) = (&mut merged.longseek_series, &shard.longseek_series) {
                all.merge(part);
            }
            if let (Some(all), Some(part)) = (&mut merged.ls_stats, &shard.ls_stats) {
                all.merge(part);
            }
            if let (Some(all), Some(part)) = (&mut merged.fragments, &shard.fragments) {
                all.merge(part);
            }
            if let (Some(all), Some(part)) = (&mut merged.policy, &shard.policy) {
                all.merge(part);
            }
            if let (Some(all), Some(part)) = (&mut merged.cache_tiers, &shard.cache_tiers) {
                all.merge(part);
            }
            merged.phys_sectors += shard.phys_sectors;
            merged.host_cache_hits += shard.host_cache_hits;
            merged.logical_ops = merged.logical_ops.max(shard.logical_ops);
            merged.peak_extent_segments =
                merged.peak_extent_segments.max(shard.peak_extent_segments);
            merged.phases.merge(&shard.phases);
        }
        merged.sharding = ShardOutcome::Sharded { shards };
        merged
    }
}

/// One interior shard boundary produced by the transition prepass: the
/// normalized engine state the next shard resumes from, plus the
/// extent-map fingerprint used to cross-check the previous shard's end
/// state.
///
/// Normalization is what makes checkpoint-seeded shards mergeable: the
/// *behavioural* state (map, frontier, caches, defrag bookkeeping, head
/// position, host-cache contents) is exact, while every *accounting*
/// accumulator (seek stats, distances, series, layer counters, fragment
/// records, hit/sector/peak totals) restarts from zero so the per-shard
/// partial sums concatenate back into the serial totals.
struct BoundarySeed {
    snapshot: EngineSnapshot,
    map_check: Option<ExtentMapCheckpoint>,
}

/// A shard worker's state at its final record boundary, captured for the
/// prepass cross-check.
struct ShardEnd {
    head_position: u64,
    layer: LayerSnapshot,
    host_cache: Option<RangeCache>,
    map_check: Option<ExtentMapCheckpoint>,
    /// Policy engine with stats normalized away (stats are per-shard
    /// accounting; the classifier state is what must agree).
    policy: Option<PolicyEngine>,
}

impl ShardEnd {
    fn capture(state: &EngineState) -> Self {
        let (layer, map_check) = match &state.layer {
            LayerImpl::NoLs(_) => (LayerSnapshot::NoLs, None),
            LayerImpl::Ls(ls) => (
                LayerSnapshot::Ls(Box::new(ls.to_snapshot())),
                Some(ExtentMapCheckpoint::capture(ls.map())),
            ),
        };
        let policy = state.policy.clone().map(|mut p| {
            p.reset_stats();
            p
        });
        ShardEnd {
            head_position: state.counter.to_state().head_position,
            layer,
            host_cache: state.host_cache.clone(),
            map_check,
            policy,
        }
    }

    /// Whether this shard's end state agrees with the seed the prepass
    /// captured for the next shard. Release builds compare the head
    /// position, the extent-map fingerprint, and the host-cache contents;
    /// debug builds additionally assert full behavioural-state equality.
    fn matches_seed(&self, seed: &BoundarySeed, config: &SimConfig) -> bool {
        debug_assert_eq!(
            normalize_layer(self.layer.clone(), config.track_fragments),
            seed.snapshot.layer,
            "prepass layer state diverged from full replay"
        );
        self.head_position == seed.snapshot.counter.head_position
            && self.map_check == seed.map_check
            && self.host_cache == seed.snapshot.host_cache
            // Classifier state steers future gating but need not show in
            // the map fingerprint (e.g. a denied cache fill), so it is
            // compared outright even in release builds.
            && self.policy == seed.snapshot.policy
    }
}

/// Strips the accounting fields a [`BoundarySeed`] normalizes away, so a
/// replayed layer state can be compared against a prepass-captured one.
fn normalize_layer(mut snap: LayerSnapshot, track_fragments: bool) -> LayerSnapshot {
    if let LayerSnapshot::Ls(ls) = &mut snap {
        ls.stats = LsStats::default();
        ls.tracker = track_fragments.then(FragmentAccessTracker::new);
        if let Some(cache) = &mut ls.cache {
            cache.reset_stats();
        }
    }
    snap
}

/// Trace records serially consumed by sharding prepasses, process-wide.
static PREPASS_RECORDS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Per-thread share of [`PREPASS_RECORDS`]. A prepass always runs on
    /// the thread that invoked `run_trace`, so this isolates one caller's
    /// prepass work from concurrent runs on other threads.
    static PREPASS_RECORDS_THREAD: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Total trace records serially replayed by sharding prepasses since
/// process start. Persisted boundary checkpoints
/// ([`Simulation::prepass_store`]) exist to keep this flat on repeat runs
/// of the same work.
pub fn prepass_records_total() -> u64 {
    PREPASS_RECORDS.load(Ordering::Relaxed)
}

/// Like [`prepass_records_total`], but counting only prepasses run by the
/// calling thread — hermetic under concurrent simulations, which is what
/// tests assert on.
pub fn prepass_records_on_thread() -> u64 {
    PREPASS_RECORDS_THREAD.with(|c| c.get())
}

/// Constructs a policy engine for a fresh (non-resumed) run, informing it
/// whether the layer carries a selective cache — with one downstream, the
/// policy reserves defrag rewrites entirely (cache fills mitigate the same
/// fragmented reads at zero media cost; see
/// [`PolicyEngine::set_cache_present`]).
fn fresh_policy(config: PolicyConfig, sim: &SimConfig) -> PolicyEngine {
    let mut engine = PolicyEngine::new(config);
    engine.set_cache_present(matches!(sim.layer, LayerChoice::Ls { cache: Some(_), .. }));
    engine
}

/// Store key for the prepass boundary checkpoint at record `bound` of a
/// `shards`-way split: the canonical config key (the frontier hint was
/// already resolved by `run_trace`) extended with the split geometry so
/// different shard counts never collide.
fn prepass_key(config: &SimConfig, shards: usize, bound: usize) -> String {
    format!("{}|prepass:{shards}:{bound}", config.cache_key(None))
}

/// Loads every interior boundary seed of a `bounds` split from `store`, or
/// `None` when any is missing or unusable — a damaged or foreign cache
/// degrades to a fresh prepass, never to wrong state. The extent-map
/// fingerprint is recomputed from the loaded layer state, so the
/// shard-end cross-check holds exactly as for a fresh prepass.
fn load_prepass_seeds(
    store: &CheckpointStore,
    trace_digest: u128,
    config: &SimConfig,
    bounds: &[usize],
) -> Option<Vec<BoundarySeed>> {
    let shards = bounds.len() - 1;
    let interior = &bounds[1..bounds.len() - 1];
    let mut seeds = Vec::with_capacity(interior.len());
    for &bound in interior {
        let snap = store
            .load(trace_digest, &prepass_key(config, shards, bound))
            .ok()
            .flatten()?;
        if snap.logical_ops != bound as u64 {
            return None;
        }
        let map_check = match &snap.layer {
            LayerSnapshot::NoLs => None,
            LayerSnapshot::Ls(ls) => Some(ExtentMapCheckpoint::capture(&ls.map)),
        };
        seeds.push(BoundarySeed {
            snapshot: snap,
            map_check,
        });
    }
    Some(seeds)
}

/// The serial transition-only prepass behind checkpoint-seeded sharding:
/// replays records `[0, bounds[shards-1])` through the behaviour-relevant
/// state only — extent-map transitions via
/// [`LogStructured::apply_transition`], the host-cache covers/insert
/// mirror of [`EngineState::step`], and the head position — and captures a
/// [`BoundarySeed`] at each interior boundary `bounds[1..shards]`.
///
/// Fragment tracking is disabled on the prepass layer (its records would
/// grow without bound and are normalized away at every boundary anyway);
/// captured snapshots reinstate the run's `track_fragments` flag with a
/// fresh tracker so shard layers restore correctly.
fn prepass_seeds<T>(
    config: &SimConfig,
    resume_from: Option<&EngineSnapshot>,
    trace: &T,
    bounds: &[usize],
) -> Vec<BoundarySeed>
where
    T: ShardableTrace + ?Sized,
{
    let base_logical = resume_from.map_or(0, |s| s.logical_ops);
    let mut layer: Option<Box<LogStructured>> = match resume_from {
        Some(snap) => match &snap.layer {
            LayerSnapshot::NoLs => None,
            LayerSnapshot::Ls(ls) => {
                let mut s = (**ls).clone();
                s.tracker = None;
                s.config.track_fragments = false;
                Some(Box::new(LogStructured::from_snapshot(s)))
            }
        },
        None => ls_config_for(config).map(|mut ls_config| {
            ls_config.track_fragments = false;
            Box::new(LogStructured::new(ls_config))
        }),
    };
    let mut host_cache = match resume_from {
        Some(snap) => snap.host_cache.clone(),
        None => config.host_cache_bytes.map(RangeCache::with_capacity_bytes),
    };
    // The gates steer layer behaviour, so the prepass must run the same
    // classifier over the same evidence. Policy configs always carry a
    // mechanism (builder-validated), which keeps `apply_transition` on its
    // full `apply_into` path — `fragmented_reads` advances exactly as in
    // the real run, so the classifier sees identical evidence.
    let mut policy: Option<PolicyEngine> = match resume_from {
        Some(snap) => snap.policy.clone(),
        None => match config.layer {
            LayerChoice::Ls { .. } => config.policy.map(|p| fresh_policy(p, config)),
            LayerChoice::NoLs => None,
        },
    };
    let mut head = match resume_from {
        Some(snap) => snap.counter.head_position,
        None => SeekCounter::new().to_state().head_position,
    };
    let interior = &bounds[1..bounds.len() - 1];
    let mut seeds = Vec::with_capacity(interior.len());
    let mut prev = bounds[0];
    for &bound in interior {
        trace.for_each_block(prev, bound, &mut |block| {
            for rec in block {
                if let Some(cache) = &mut host_cache {
                    let key = smrseek_trace::Pba::new(rec.lba.sector());
                    let hit = rec.op.is_read() && cache.covers(key, u64::from(rec.sectors));
                    if !hit {
                        cache.insert(key, u64::from(rec.sectors));
                    }
                    if hit {
                        // Served from host RAM: nothing reaches the layer
                        // or the disk head.
                        continue;
                    }
                }
                match &mut layer {
                    // NoLS emits exactly one identity I/O per record.
                    None => head = rec.lba.sector() + u64::from(rec.sectors),
                    Some(ls) => {
                        let frag_before = policy.as_ref().map(|_| {
                            let s = ls.stats();
                            (s.fragmented_reads, s.phys_reads)
                        });
                        if let Some(policy) = &mut policy {
                            ls.set_gates(policy.observe(rec.lba.sector(), rec.op.is_read()));
                        }
                        if let Some(end) = ls.apply_transition(rec) {
                            head = end;
                        }
                        if let (Some(policy), Some((frag, phys))) = (&mut policy, frag_before) {
                            // Mirrors `step`'s feedback exactly: disk-paying
                            // fragmented reads are hot evidence, absorbed
                            // ones count against defrag.
                            let s = ls.stats();
                            if s.fragmented_reads > frag {
                                if s.phys_reads > phys {
                                    policy.record_fragmented(rec.lba.sector());
                                } else {
                                    policy.record_cache_absorbed(rec.lba.sector());
                                }
                            }
                        }
                    }
                }
            }
        });
        prev = bound;
        seeds.push(capture_seed(
            config,
            layer.as_deref(),
            &host_cache,
            policy.as_ref(),
            head,
            base_logical + bound as u64,
        ));
    }
    let consumed = (prev - bounds[0]) as u64;
    PREPASS_RECORDS.fetch_add(consumed, Ordering::Relaxed);
    PREPASS_RECORDS_THREAD.with(|c| c.set(c.get() + consumed));
    seeds
}

/// Freezes the prepass state at one boundary into a [`BoundarySeed`] (see
/// there for the normalization contract).
fn capture_seed(
    config: &SimConfig,
    layer: Option<&LogStructured>,
    host_cache: &Option<RangeCache>,
    policy: Option<&PolicyEngine>,
    head: u64,
    logical_ops: u64,
) -> BoundarySeed {
    let (layer_snap, map_check) = match layer {
        None => (LayerSnapshot::NoLs, None),
        Some(ls) => {
            let mut snap = ls.to_snapshot();
            snap.stats = LsStats::default();
            snap.config.track_fragments = config.track_fragments;
            snap.tracker = config.track_fragments.then(FragmentAccessTracker::new);
            if let Some(cache) = &mut snap.cache {
                // Tier counters are per-shard accounting, like `LsStats`:
                // contents carry across the boundary, counts restart.
                cache.reset_stats();
            }
            (
                LayerSnapshot::Ls(Box::new(snap)),
                Some(ExtentMapCheckpoint::capture(ls.map())),
            )
        }
    };
    BoundarySeed {
        snapshot: EngineSnapshot {
            layer: layer_snap,
            counter: SeekCounterState {
                head_position: head,
                // `Seek::op_index` never reaches a RunReport, so shard
                // counters restart their op numbering — the absolute
                // numbering lives in `logical_ops`.
                head_ops_seen: 0,
                stats: SeekStats::default(),
                record_distances: config.record_distances,
                distances: Vec::new(),
            },
            longseek_series: (config.longseek_bucket_ops > 0)
                .then(|| LongSeekSeries::new(config.longseek_bucket_ops)),
            host_cache: host_cache.clone(),
            host_cache_hits: 0,
            phys_sectors: 0,
            logical_ops,
            peak_extent_segments: 0,
            // Same normalization as the tier counters: classifier state is
            // behavioural and carries over, decision counts restart.
            policy: policy.cloned().map(|mut p| {
                p.reset_stats();
                p
            }),
        },
        map_check,
    }
}

/// Replays records `[start, end)` of `trace` through `state` block by
/// block, calling `after_step` after every record (checkpoint cadence
/// hook; a no-op closure for shard workers). Block decode time is
/// accounted to the ingest phase — once per block, which is the point of
/// batching.
fn run_range<T>(
    state: &mut EngineState,
    trace: &T,
    start: usize,
    end: usize,
    after_step: &mut dyn FnMut(&mut EngineState),
) where
    T: ShardableTrace + ?Sized,
{
    let timing = state.timing;
    let mut last = timing.then(Instant::now);
    trace.for_each_block(start, end, &mut |block| {
        if let Some(t) = &mut last {
            state.phases.record(Phase::Ingest, t.elapsed());
        }
        for rec in block {
            state.step(rec);
            after_step(state);
        }
        if let Some(t) = &mut last {
            *t = Instant::now();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use smrseek_trace::Lba;

    fn toy_trace() -> Vec<TraceRecord> {
        vec![
            TraceRecord::write(0, Lba::new(0), 8),
            TraceRecord::write(1, Lba::new(1000), 8),
            TraceRecord::read(2, Lba::new(0), 8),
        ]
    }

    #[test]
    fn nols_counts_trace_seeks() {
        let report = Simulation::new(&SimConfig::no_ls()).run_trace(&toy_trace());
        assert_eq!(report.layer_name, "NoLS");
        assert_eq!(report.logical_ops, 3);
        // write@0 (no seek from rest at 0), write@1000 (seek), read@0 (seek)
        assert_eq!(report.seeks.write_seeks, 1);
        assert_eq!(report.seeks.read_seeks, 1);
    }

    #[test]
    fn ls_removes_write_seeks() {
        let report = Simulation::new(&SimConfig::log_structured()).run_trace(&toy_trace());
        // Both writes land contiguously at the frontier: one frontier seek.
        assert_eq!(report.seeks.write_seeks, 1);
    }

    #[test]
    fn distances_recorded_when_enabled() {
        let report = Simulation::new(&SimConfig::no_ls().with_distances()).run_trace(&toy_trace());
        let cdf = report.distance_cdf().expect("distances were recorded");
        assert_eq!(cdf.len() as u64, report.seeks.total());
        assert!(
            report.distances.is_some(),
            "building the CDF must not consume the recorded samples"
        );
        let report = Simulation::new(&SimConfig::no_ls()).run_trace(&toy_trace());
        assert!(report.distances.is_none());
    }

    #[test]
    fn distance_cdf_is_none_without_recording() {
        assert!(Simulation::new(&SimConfig::no_ls())
            .run_trace(&toy_trace())
            .distance_cdf()
            .is_none());
    }

    #[test]
    fn stream_matches_slice_for_every_layer() {
        let trace = toy_trace();
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in [
            SimConfig::no_ls(),
            SimConfig::log_structured(),
            SimConfig::ls_defrag(),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache(),
        ] {
            let slice = Simulation::new(&config.with_distances()).run_trace(&trace);
            let stream = Simulation::new(&config.with_distances().with_frontier_hint(top))
                .run(trace.iter().copied());
            assert_eq!(slice.layer_name, stream.layer_name);
            assert_eq!(slice.seeks, stream.seeks);
            assert_eq!(slice.distances, stream.distances);
            assert_eq!(slice.phys_sectors, stream.phys_sectors);
            assert_eq!(slice.logical_ops, stream.logical_ops);
            assert_eq!(slice.peak_extent_segments, stream.peak_extent_segments);
        }
    }

    #[test]
    fn stream_replays_generated_records_without_materializing() {
        // A generator-backed iterator: no Vec of records ever exists.
        let n: u64 = if cfg!(debug_assertions) {
            200_000
        } else {
            10_000_000
        };
        let records = (0..n).map(|i| TraceRecord::write(i, Lba::new((i % 1024) * 8), 8));
        let report = Simulation::new(&SimConfig::no_ls()).run(records);
        assert_eq!(report.logical_ops, n);
        assert_eq!(report.peak_extent_segments, 0);
    }

    #[test]
    fn streaming_ls_tracks_peak_extent_size() {
        let report = Simulation::new(&SimConfig::log_structured()).run_trace(&toy_trace());
        assert!(report.peak_extent_segments > 0);
    }

    #[test]
    #[should_panic(expected = "frontier_hint")]
    fn streaming_ls_requires_frontier_hint() {
        Simulation::new(&SimConfig::log_structured()).run(toy_trace());
    }

    #[test]
    fn longseek_series_when_enabled() {
        let trace = vec![
            TraceRecord::write(0, Lba::new(0), 8),
            TraceRecord::read(1, Lba::new(10_000_000), 8),
        ];
        let report = Simulation::new(&SimConfig::no_ls().with_longseek_series(1)).run_trace(&trace);
        let series = report.longseek_series.unwrap();
        assert_eq!(series.total(), 1);
        assert_eq!(series.buckets(), &[0, 1]);
    }

    #[test]
    fn canonical_clears_unobservable_knobs() {
        // NoLS: every LS-only knob is cleared, whatever its value.
        let noisy = SimConfig {
            zone_sectors: Some(1 << 20),
            frontier_hint: Some(999),
            track_fragments: true,
            ..SimConfig::no_ls()
        };
        assert_eq!(noisy.canonical(Some(42)), SimConfig::no_ls());
        assert_eq!(
            noisy.cache_key(Some(42)),
            SimConfig::no_ls().cache_key(None),
            "derived-vs-explicit NoLS configs share a cache key"
        );

        // LS: an unset hint resolves to the trace bound, so deriving the
        // frontier equals passing it explicitly.
        let derived = SimConfig::log_structured();
        let explicit = SimConfig::log_structured().with_frontier_hint(1008);
        assert_eq!(
            derived.canonical(Some(1008)),
            explicit.canonical(Some(1008))
        );
        assert_eq!(derived.cache_key(Some(1008)), explicit.cache_key(None));
        // ...but a *different* explicit hint stays a different key.
        let other = SimConfig::log_structured().with_frontier_hint(2048);
        assert_ne!(derived.cache_key(Some(1008)), other.cache_key(Some(1008)));
    }

    #[test]
    fn canonical_keeps_report_shaping_knobs() {
        let config = SimConfig::ls_cache()
            .with_distances()
            .with_longseek_series(64)
            .with_host_cache(1 << 20);
        let canon = config.canonical(Some(100));
        assert!(canon.record_distances);
        assert_eq!(canon.longseek_bucket_ops, 64);
        assert_eq!(canon.host_cache_bytes, Some(1 << 20));
        assert_ne!(
            config.cache_key(Some(100)),
            SimConfig::ls_cache().cache_key(Some(100))
        );
    }

    #[test]
    fn standard_sweep_leads_with_baseline() {
        let sweep = SimConfig::standard_sweep();
        assert_eq!(sweep.len(), 5);
        assert!(matches!(sweep[0].layer, LayerChoice::NoLs));
        for config in &sweep[1..] {
            assert!(matches!(config.layer, LayerChoice::Ls { .. }));
        }
    }

    #[test]
    fn config_constructors() {
        assert!(matches!(SimConfig::no_ls().layer, LayerChoice::NoLs));
        for (config, has_defrag, has_prefetch, has_cache) in [
            (SimConfig::log_structured(), false, false, false),
            (SimConfig::ls_defrag(), true, false, false),
            (SimConfig::ls_prefetch(), false, true, false),
            (SimConfig::ls_cache(), false, false, true),
        ] {
            match config.layer {
                LayerChoice::Ls {
                    defrag,
                    prefetch,
                    cache,
                } => {
                    assert_eq!(defrag.is_some(), has_defrag);
                    assert_eq!(prefetch.is_some(), has_prefetch);
                    assert_eq!(cache.is_some(), has_cache);
                }
                LayerChoice::NoLs => panic!("expected LS"),
            }
        }
    }

    #[test]
    fn builder_matches_with_chain() {
        let built = SimConfig::builder(LayerChoice::NoLs)
            .distances()
            .longseek_series(64)
            .host_cache(1 << 20)
            .checkpoint_every(50)
            .build()
            .expect("valid config");
        let chained = SimConfig::no_ls()
            .with_distances()
            .with_longseek_series(64)
            .with_host_cache(1 << 20)
            .with_checkpoint_every(50);
        assert_eq!(built, chained);

        let built = SimConfig::builder(SimConfig::ls_cache().layer)
            .fragment_tracking()
            .zones(512)
            .frontier_hint(4096)
            .build()
            .expect("valid config");
        let chained = SimConfig::ls_cache()
            .with_fragment_tracking()
            .with_zones(512)
            .with_frontier_hint(4096);
        assert_eq!(built, chained);
    }

    #[test]
    fn builder_rejects_zones_below_two_sectors() {
        let zoned = |sectors| {
            SimConfig::builder(SimConfig::log_structured().layer)
                .zones(sectors)
                .build()
        };
        assert_eq!(zoned(0), Err(ConfigError::ZoneTooSmall));
        assert_eq!(zoned(1), Err(ConfigError::ZoneTooSmall));
        assert_eq!(zoned(2).map(|c| c.zone_sectors), Ok(Some(2)));
    }

    #[test]
    fn builder_rejects_degenerate_knobs() {
        let nols = || SimConfig::builder(LayerChoice::NoLs);
        assert_eq!(
            nols().host_cache(0).build(),
            Err(ConfigError::ZeroHostCache)
        );
        assert_eq!(
            nols().checkpoint_every(0).build(),
            Err(ConfigError::ZeroCheckpointCadence)
        );
        assert_eq!(
            nols().longseek_series(0).build(),
            Err(ConfigError::ZeroLongseekBucket)
        );
        assert_eq!(nols().zones(512).build(), Err(ConfigError::ZonesWithoutLs));
        let empty_cache = CacheConfig { capacity_bytes: 0 };
        assert_eq!(
            SimConfig::builder(SimConfig::ls_with(None, None, Some(empty_cache)).layer).build(),
            Err(ConfigError::ZeroSelectiveCache)
        );
        assert_eq!(
            SimConfig::builder(SimConfig::ls_cache().layer)
                .flash_cache(0)
                .build(),
            Err(ConfigError::ZeroFlashCache)
        );
        assert_eq!(
            SimConfig::builder(SimConfig::ls_cache().layer)
                .policy(PolicyConfig {
                    region_sectors: 0,
                    ..PolicyConfig::default()
                })
                .build(),
            Err(ConfigError::ZeroPolicyRegion)
        );
        assert_eq!(
            nols().policy(PolicyConfig::default()).build(),
            Err(ConfigError::PolicyWithoutLs)
        );
        assert_eq!(
            nols().flash_cache(1 << 20).build(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // A policy over a bare log has nothing to gate.
        assert_eq!(
            SimConfig::builder(SimConfig::log_structured().layer)
                .policy(PolicyConfig::default())
                .build(),
            Err(ConfigError::PolicyWithoutMechanisms)
        );
        // A flash tier needs the selective cache in front of it.
        assert_eq!(
            SimConfig::builder(SimConfig::ls_defrag().layer)
                .flash_cache(1 << 20)
                .build(),
            Err(ConfigError::FlashCacheWithoutSelectiveCache)
        );
        // Errors render as actionable prose.
        assert!(ConfigError::ZeroHostCache
            .to_string()
            .contains("host cache"));
        assert!(ConfigError::PolicyWithoutMechanisms
            .to_string()
            .contains("mechanism"));
    }

    #[test]
    fn policy_off_report_bytes_are_pinned() {
        // Reports without a policy must keep exactly the pre-policy key
        // set, in order — downstream caches key on these bytes.
        let trace = busy_trace(120);
        let report = Simulation::new(&SimConfig::ls_cache()).run_trace(&trace);
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(!json.contains("\"policy\""));
        assert!(!json.contains("\"cache_tiers\""));
        let keys: Vec<&str> = json
            .match_indices('\"')
            .map(|(i, _)| i)
            .collect::<Vec<_>>()
            .chunks(2)
            .filter_map(|c| json.get(c[0] + 1..c[1]))
            .collect();
        for key in [
            "layer_name",
            "logical_ops",
            "seeks",
            "distances",
            "longseek_series",
            "phys_sectors",
            "host_cache_hits",
            "ls_stats",
            "fragments",
            "peak_extent_segments",
        ] {
            assert!(keys.contains(&key), "missing report key {key}");
        }
    }

    #[test]
    fn adaptive_report_carries_policy_and_tier_stats() {
        let trace = busy_trace(400);
        let report = Simulation::new(&adaptive_config()).run_trace(&trace);
        assert_eq!(report.layer_name, "LS+adaptive");
        let policy = report.policy.expect("adaptive run reports policy stats");
        assert_eq!(policy.records_observed, report.logical_ops);
        let tiers = report
            .cache_tiers
            .expect("flash-tier run reports tier stats");
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("\"policy\""));
        assert!(json.contains("\"cache_tiers\""));
        // Both tiers are accounted: every lookup lands in exactly one bin.
        let lookups = tiers.ram_hits + tiers.flash_hits + tiers.misses;
        assert!(lookups > 0, "cache saw no traffic");
    }

    /// A mixed read/write workload long enough to exercise defrag,
    /// prefetch, caching, zones, and the host cache.
    fn busy_trace(n: u64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| {
                let lba = Lba::new((i * 37) % 4096);
                if i % 3 == 0 {
                    TraceRecord::read(i, lba, 8)
                } else {
                    TraceRecord::write(i, lba, 16)
                }
            })
            .collect()
    }

    /// Adaptive config sized so `busy_trace` (LBAs 0..4096) spans several
    /// classifier regions and flips gates mid-run.
    fn adaptive_config() -> SimConfig {
        SimConfig::ls_adaptive().with_policy(PolicyConfig {
            region_sectors: 512,
            ..PolicyConfig::default()
        })
    }

    fn resume_configs() -> Vec<SimConfig> {
        let mut configs = SimConfig::standard_sweep().to_vec();
        configs.push(
            SimConfig::ls_defrag()
                .with_distances()
                .with_longseek_series(16)
                .with_fragment_tracking()
                .with_zones(512),
        );
        configs.push(SimConfig::log_structured().with_host_cache(64 * 512));
        configs.push(SimConfig::no_ls().with_distances().with_host_cache(8 * 512));
        configs.push(adaptive_config().with_fragment_tracking());
        configs
    }

    #[test]
    fn resume_is_byte_identical_to_uninterrupted_run() {
        let trace = busy_trace(240);
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in resume_configs() {
            let config = config.with_frontier_hint(top);
            let whole = serde_json::to_string(&Simulation::new(&config).run(trace.iter().copied()))
                .expect("report serializes");
            for split in [0usize, 1, 100, 239, 240] {
                let mut state = EngineState::new(&config);
                for rec in &trace[..split] {
                    state.step(rec);
                }
                let snap = state.snapshot();
                assert_eq!(snap.logical_ops as usize, split);
                let resumed = Simulation::new(&config)
                    .resume_from(&snap)
                    .run(trace[split..].iter().copied());
                assert_eq!(
                    serde_json::to_string(&resumed).expect("report serializes"),
                    whole,
                    "resume at {split} diverged for {config:?}"
                );
            }
        }
    }

    #[test]
    fn snapshot_survives_serde_round_trip() {
        let trace = busy_trace(150);
        let top = smrseek_trace::stream::max_lba(&trace).map_or(0, |l| l.sector() + 1);
        for config in resume_configs() {
            let config = config.with_frontier_hint(top);
            let whole = serde_json::to_string(&Simulation::new(&config).run(trace.iter().copied()))
                .expect("report serializes");
            let mut state = EngineState::new(&config);
            for rec in &trace[..75] {
                state.step(rec);
            }
            let json = serde_json::to_string(&state.snapshot()).expect("snapshot serializes");
            let snap: EngineSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
            let resumed = Simulation::new(&config)
                .resume_from(&snap)
                .run(trace[75..].iter().copied());
            assert_eq!(
                serde_json::to_string(&resumed).expect("report serializes"),
                whole,
                "serde round-trip broke resume for {config:?}"
            );
        }
    }

    #[test]
    fn checkpoints_emitted_on_cadence() {
        let trace = busy_trace(35);
        let config = SimConfig::no_ls();
        let mut emitted = Vec::new();
        let report = Simulation::new(&config)
            .checkpoint_every(10, |snap: &EngineSnapshot| emitted.push(snap.logical_ops))
            .run(trace.iter().copied());
        assert_eq!(report.logical_ops, 35);
        assert_eq!(emitted, vec![10, 20, 30]);
    }

    #[test]
    fn run_trace_honors_checkpoint_cadence() {
        // The random-access path checkpoints on the same cadence as the
        // streaming path, and an active sink forces serial execution.
        let trace = busy_trace(35);
        let mut emitted = Vec::new();
        let report = Simulation::new(&SimConfig::no_ls())
            .checkpoint_every(10, |snap: &EngineSnapshot| emitted.push(snap.logical_ops))
            .shards(4)
            .run_trace(&trace);
        assert_eq!(report.logical_ops, 35);
        assert_eq!(emitted, vec![10, 20, 30]);
    }

    #[test]
    fn resumed_run_keeps_checkpoint_cadence() {
        // Resuming at 15 with every(10) must fire at absolute records
        // 20 and 30, not 25 and 35.
        let trace = busy_trace(35);
        let config = SimConfig::no_ls().with_checkpoint_every(10);
        let mut state = EngineState::new(&config);
        for rec in &trace[..15] {
            state.step(rec);
        }
        let snap = state.snapshot();
        let mut emitted = Vec::new();
        Simulation::new(&config)
            .resume_from(&snap)
            .checkpoint_sink(|s: &EngineSnapshot| emitted.push(s.logical_ops))
            .run(trace[15..].iter().copied());
        assert_eq!(emitted, vec![20, 30]);
    }

    #[test]
    #[should_panic(expected = "config key")]
    fn resume_with_mismatched_layer_panics() {
        let config = SimConfig::no_ls();
        let snap = EngineState::new(&config).snapshot();
        Simulation::new(&SimConfig::log_structured())
            .resume_from(&snap)
            .run(toy_trace());
    }

    #[test]
    fn canonical_clears_checkpoint_cadence() {
        let a = SimConfig::ls_cache().with_checkpoint_every(1000);
        let b = SimConfig::ls_cache();
        assert_eq!(a.canonical(Some(42)), b.canonical(Some(42)));
        assert_eq!(a.cache_key(Some(42)), b.cache_key(Some(42)));
    }

    #[test]
    fn sharding_predicate_accepts_every_sweep_config() {
        let trace = busy_trace(100);
        let sharded = |config: &SimConfig| Simulation::new(config).shards(4).is_sharded(&trace);
        for config in SimConfig::standard_sweep() {
            assert!(sharded(&config), "{config:?} must shard");
        }
        // History-dependent state now shards via boundary checkpoints.
        assert!(sharded(&SimConfig::log_structured()));
        assert!(sharded(&SimConfig::no_ls().with_host_cache(1 << 20)));
        assert!(sharded(
            &SimConfig::ls_defrag()
                .with_fragment_tracking()
                .with_zones(1 << 16)
        ));
        // An active checkpoint sink still forces serial replay...
        let sim = Simulation::new(&SimConfig::no_ls())
            .checkpoint_every(10, |_: &EngineSnapshot| {})
            .shards(4);
        assert!(!sim.is_sharded(&trace));
        // ...but a cadence with no sink shards fine (nobody observes it).
        let sim = Simulation::new(&SimConfig::no_ls().with_checkpoint_every(10)).shards(4);
        assert!(sim.is_sharded(&trace));
        // Degenerate shapes stay serial.
        assert!(!Simulation::new(&SimConfig::no_ls()).is_sharded(&trace));
        let single = busy_trace(1);
        assert!(!Simulation::new(&SimConfig::no_ls())
            .shards(4)
            .is_sharded(&single));
    }

    #[test]
    fn sharded_run_is_byte_identical_to_serial() {
        let trace = busy_trace(500);
        let configs = [
            SimConfig::no_ls(),
            SimConfig::no_ls().with_distances().with_longseek_series(64),
            SimConfig::log_structured().with_distances(),
            SimConfig::no_ls().with_host_cache(8 * 512),
            // The checkpoint-seeded paths, covering every layer mechanism.
            SimConfig::log_structured()
                .with_longseek_series(64)
                .with_host_cache(8 * 512),
            SimConfig::ls_defrag().with_fragment_tracking(),
            SimConfig::ls_prefetch().with_distances(),
            SimConfig::ls_cache()
                .with_fragment_tracking()
                .with_zones(1 << 12),
            adaptive_config(),
            adaptive_config()
                .with_fragment_tracking()
                .with_zones(1 << 12),
        ];
        for config in configs {
            let serial = serde_json::to_string(&Simulation::new(&config).run_trace(&trace))
                .expect("report serializes");
            for shards in [1usize, 2, 3, 7, 16, 500] {
                let sharded = serde_json::to_string(
                    &Simulation::new(&config).shards(shards).run_trace(&trace),
                )
                .expect("report serializes");
                assert_eq!(sharded, serial, "shards={shards} diverged for {config:?}");
            }
        }
    }

    #[test]
    fn persisted_prepass_seeds_skip_repeat_prepasses() {
        let trace = busy_trace(400);
        let dir =
            std::env::temp_dir().join(format!("smrseek_prepass_store_test_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = CheckpointStore::new(&dir);
        let digest = 0x5eed_u128;
        for config in [
            SimConfig::ls_defrag().with_host_cache(8 * 512),
            adaptive_config(),
        ] {
            let serial = serde_json::to_string(&Simulation::new(&config).run_trace(&trace))
                .expect("report serializes");
            let run = || {
                let before = prepass_records_on_thread();
                let report = Simulation::new(&config)
                    .shards(4)
                    .prepass_store(&store, digest)
                    .run_trace(&trace);
                (
                    serde_json::to_string(&report).expect("report serializes"),
                    prepass_records_on_thread() - before,
                )
            };
            let (cold, cold_records) = run();
            assert_eq!(cold_records, 300, "cold run replays up to the last bound");
            assert_eq!(cold, serial, "cold sharded run diverged for {config:?}");
            // Second run: every boundary seed loads, zero prepass records.
            let (warm, warm_records) = run();
            assert_eq!(warm_records, 0, "warm run must load every seed");
            assert_eq!(warm, serial, "warm sharded run diverged for {config:?}");
            // A different trace digest is different work: full prepass.
            let before = prepass_records_on_thread();
            Simulation::new(&config)
                .shards(4)
                .prepass_store(&store, digest + 1)
                .run_trace(&trace);
            assert_eq!(prepass_records_on_thread() - before, 300);
            // A different shard count keys differently: full prepass.
            let before = prepass_records_on_thread();
            Simulation::new(&config)
                .shards(5)
                .prepass_store(&store, digest)
                .run_trace(&trace);
            assert_eq!(prepass_records_on_thread() - before, 320);
        }
        // Damage degrades to a fresh prepass, never to wrong state.
        let config = SimConfig::ls_defrag().with_host_cache(8 * 512);
        for entry in std::fs::read_dir(&dir).expect("store dir exists") {
            let path = entry.expect("dir entry").path();
            let mut bytes = std::fs::read(&path).expect("read seed");
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            std::fs::write(&path, &bytes).expect("write seed");
        }
        let before = prepass_records_on_thread();
        let report = Simulation::new(&config)
            .shards(4)
            .prepass_store(&store, digest)
            .run_trace(&trace);
        assert_eq!(prepass_records_on_thread() - before, 300);
        assert_eq!(
            serde_json::to_string(&report).expect("report serializes"),
            serde_json::to_string(&Simulation::new(&config).run_trace(&trace))
                .expect("report serializes"),
        );
        assert!(prepass_records_total() >= prepass_records_on_thread());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_resume_is_byte_identical_to_serial_resume() {
        let trace = busy_trace(300);
        let configs = [
            SimConfig::no_ls().with_distances().with_longseek_series(32),
            SimConfig::ls_defrag()
                .with_longseek_series(32)
                .with_fragment_tracking(),
            adaptive_config().with_longseek_series(32),
        ];
        for config in configs {
            let whole = serde_json::to_string(&Simulation::new(&config).run_trace(&trace))
                .expect("report serializes");
            for split in [1usize, 77, 299] {
                let mut state = EngineState::new(&config.with_frontier_hint(trace.frontier_top()));
                for rec in &trace[..split] {
                    state.step(rec);
                }
                let snap = state.snapshot();
                let resumed = Simulation::new(&config)
                    .resume_from(&snap)
                    .shards(5)
                    .run_trace(&trace[split..]);
                assert_eq!(
                    serde_json::to_string(&resumed).expect("report serializes"),
                    whole,
                    "sharded resume at {split} diverged for {config:?}"
                );
            }
        }
    }

    #[test]
    fn prepass_checkpoints_match_serial_map_state() {
        // The transition-only prepass must land on exactly the map (and
        // head, and host-cache) state a full serial replay reaches at each
        // shard boundary.
        let trace = busy_trace(240);
        let configs = [
            SimConfig::log_structured(),
            SimConfig::ls_defrag().with_host_cache(8 * 512),
            SimConfig::ls_prefetch(),
            SimConfig::ls_cache().with_fragment_tracking(),
            adaptive_config(),
        ];
        for config in configs {
            let config = config.with_frontier_hint(trace.frontier_top());
            let bounds: Vec<usize> = (0..=4).map(|i| i * trace.len() / 4).collect();
            let seeds = prepass_seeds(&config, None, trace.as_slice(), &bounds);
            assert_eq!(seeds.len(), 3);
            let mut state = EngineState::new(&config);
            let mut prev = 0;
            for (seed, &bound) in seeds.iter().zip(&bounds[1..]) {
                for rec in &trace[prev..bound] {
                    state.step(rec);
                }
                prev = bound;
                let check = seed.map_check.expect("LS configs carry a fingerprint");
                match &state.layer {
                    LayerImpl::Ls(ls) => {
                        assert!(check.matches(ls.map()), "digest diverged at {bound}")
                    }
                    LayerImpl::NoLs(_) => unreachable!("LS configs only"),
                }
                assert_eq!(
                    seed.snapshot.counter.head_position,
                    state.counter.to_state().head_position,
                    "head diverged at {bound} for {config:?}"
                );
                assert_eq!(
                    seed.snapshot.host_cache, state.host_cache,
                    "host cache diverged at {bound}"
                );
                assert_eq!(seed.snapshot.logical_ops, bound as u64);
            }
        }
    }

    #[test]
    fn run_report_records_the_execution_shape() {
        let trace = busy_trace(100);
        let config = SimConfig::log_structured();
        let serial = Simulation::new(&config).run_trace(&trace);
        assert_eq!(serial.sharding, ShardOutcome::Serial);
        let sharded = Simulation::new(&config).shards(4).run_trace(&trace);
        assert_eq!(sharded.sharding, ShardOutcome::Sharded { shards: 4 });
        assert_eq!(sharded.sharding.to_string(), "sharded(4)");
        // A refused request records why it fell back.
        let single = busy_trace(1);
        let refused = Simulation::new(&config).shards(4).run_trace(&single);
        assert_eq!(
            refused.sharding.fallback_reason(),
            Some("trace has fewer than two records")
        );
        let mut sink_hits = 0usize;
        let report = Simulation::new(&SimConfig::no_ls().with_checkpoint_every(10))
            .checkpoint_every(10, |_: &EngineSnapshot| sink_hits += 1)
            .shards(4)
            .run_trace(&trace);
        assert_eq!(
            report.sharding.fallback_reason(),
            Some("an active checkpoint sink requires serial replay")
        );
        assert_eq!(sink_hits, 10);
        // Streaming runs cannot shard and say so.
        let report = Simulation::new(&config.with_frontier_hint(trace.frontier_top()))
            .shards(4)
            .run(trace.iter().copied());
        assert_eq!(
            report.sharding.fallback_reason(),
            Some("record streams have no random access to split across shards")
        );
        // The outcome is an execution detail: serialized reports stay
        // identical across shapes.
        assert_eq!(
            serde_json::to_string(&serial).expect("report serializes"),
            serde_json::to_string(&sharded).expect("report serializes"),
        );
    }
}
