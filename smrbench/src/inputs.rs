//! Workload inputs, generated from the benchmark seed. The program under
//! test only ever sees the generated records (or job requests naming
//! them), never the seed.

use smrseek_trace::binary::{self, MmapTrace};
use smrseek_trace::{Lba, TraceRecord};
use smrseek_workloads::profiles;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The three workloads. Every workload drives its inputs both through the
/// offline engine (replay phase) and through the daemon (job phase); they
/// differ in the inputs and in how the run's time is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Scramble,
    Table1,
    Daemon,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "scramble" => Some(Workload::Scramble),
            "table1" => Some(Workload::Table1),
            "daemon" => Some(Workload::Daemon),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Scramble => "scramble",
            Workload::Table1 => "table1",
            Workload::Daemon => "daemon",
        }
    }

    /// Share of the measured seconds spent in the replay phase; the rest
    /// drives the daemon.
    pub fn replay_share(self) -> f64 {
        match self {
            Workload::Scramble | Workload::Table1 => 0.7,
            Workload::Daemon => 0.4,
        }
    }

    /// Daemon cycles a job phase of `budget` runs: the budget at the
    /// workload's typical cycle rate on a 2-CPU host, so that a run's work
    /// does not depend on how fast that host happens to be.
    pub fn jobs_for(self, budget: std::time::Duration) -> usize {
        let per_s = match self {
            Workload::Scramble | Workload::Table1 => 750.0,
            Workload::Daemon => 250.0,
        };
        (budget.as_secs_f64() * per_s) as usize
    }
}

/// Records in the `scramble` replay trace.
pub const SCRAMBLE_RECORDS: usize = 100_000;
/// Operations per Table-I stand-in in the `table1` replay set.
pub const TABLE1_OPS: usize = 40_000;
/// The Table-I stand-ins replayed by `table1`.
pub const TABLE1_PROFILES: [&str; 3] = ["w91", "hm_1", "w20"];
/// Records per scramble trace submitted to the daemon.
pub const SCRAMBLE_JOB_RECORDS: usize = 4_000;
/// Operations per Table-I job submitted to the daemon by `table1`.
pub const TABLE1_JOB_OPS: u64 = 4_000;
/// Operations per `hm_1` job submitted by `daemon`.
pub const DAEMON_JOB_OPS: u64 = 20_000;
/// Operations in the `hm_1` trace the `daemon` workload replays offline:
/// the profile its jobs draw from, as one trace long enough that sharded
/// passes are not dominated by thread start-up.
pub const DAEMON_REPLAY_OPS: usize = 120_000;
/// One submission in this many carries a fresh key; the rest repeat.
pub const FRESH_ONE_IN: u64 = 8;

/// A deterministic 64-bit mixer (SplitMix64 finalizer).
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `smrseek bench` generator: a multiplicative scramble over a 16 GiB
/// span, one 8-sector read per three records and 16-sector writes
/// otherwise. `mult` must be odd, which makes the LBA sequence a
/// permutation of the 2^22 slots.
pub fn scramble_records(n: usize, mult: u64) -> Vec<TraceRecord> {
    (0..n as u64)
        .map(|i| {
            let lba = Lba::new(i.wrapping_mul(mult).wrapping_mul(2654435761) % (1 << 22) * 8);
            if i % 3 == 0 {
                TraceRecord::read(i, lba, 8)
            } else {
                TraceRecord::write(i, lba, 16)
            }
        })
        .collect()
}

/// Encodes records as a binary v2 trace and maps it in memory.
pub fn encode(records: &[TraceRecord]) -> Arc<MmapTrace> {
    let mut buf = Vec::new();
    binary::write_binary_v2(&mut buf, records).expect("encoding into a Vec cannot fail");
    Arc::new(MmapTrace::from_bytes(buf).expect("a freshly encoded trace decodes"))
}

/// One trace of the replay phase.
pub struct Input {
    pub name: String,
    pub map: Arc<MmapTrace>,
}

/// What one daemon job replays.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobTrace {
    /// A Table-I generator key; the daemon generates the records itself.
    Profile {
        name: &'static str,
        seed: u64,
        ops: u64,
    },
    /// A scramble trace in a binary file the benchmark writes before the
    /// first submission naming it.
    ScrambleFile { mult: u64, path: PathBuf },
}

impl JobTrace {
    /// The `POST /v1/jobs` body: a standard-sweep job over this trace.
    pub fn body(&self) -> String {
        match self {
            JobTrace::Profile { name, seed, ops } => {
                format!(r#"{{"trace": {{"profile": "{name}", "seed": {seed}, "ops": {ops}}}}}"#)
            }
            JobTrace::ScrambleFile { path, .. } => {
                format!(r#"{{"trace": {{"path": "{}"}}}}"#, path.display())
            }
        }
    }

    /// The records the daemon replays for this key.
    pub fn records(&self) -> Vec<TraceRecord> {
        match self {
            JobTrace::Profile { name, seed, ops } => profiles::by_name(name)
                .expect("job profiles are Table-I names")
                .generate_scaled(*seed, *ops as usize),
            JobTrace::ScrambleFile { mult, .. } => scramble_records(SCRAMBLE_JOB_RECORDS, *mult),
        }
    }

    /// Writes the trace file a path-backed key names (no-op for profile
    /// keys, or when the file already exists).
    pub fn materialize(&self) -> std::io::Result<()> {
        if let JobTrace::ScrambleFile { path, .. } = self {
            if !path.exists() {
                let mut buf = Vec::new();
                binary::write_binary_v2(&mut buf, &self.records())
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                // Two clients can need the same new key at once: each
                // writes its own temporary file, and the rename is atomic.
                let tmp = path.with_extension(format!("tmp{:?}", std::thread::current().id()));
                std::fs::write(&tmp, buf)?;
                std::fs::rename(&tmp, path)?;
            }
        }
        Ok(())
    }
}

/// The daemon job mix: the key every submission names, in submission
/// order. Index 0 is fresh; afterwards one submission in
/// [`FRESH_ONE_IN`] names a new key and the rest repeat an earlier key
/// chosen uniformly.
pub struct JobMix {
    pub keys: Vec<JobTrace>,
    pub schedule: Vec<u32>,
}

impl JobMix {
    pub fn new(workload: Workload, seed: u64, jobs: usize, dir: &Path) -> JobMix {
        let mut keys = Vec::new();
        let mut schedule = Vec::with_capacity(jobs);
        for j in 0..jobs as u64 {
            let r = mix(seed.wrapping_mul(0x1_0000_0001) ^ j);
            if j == 0 || r.is_multiple_of(FRESH_ONE_IN) {
                schedule.push(keys.len() as u32);
                keys.push(job_key(workload, seed, keys.len() as u64, dir));
            } else {
                schedule.push(((r >> 8) % keys.len() as u64) as u32);
            }
        }
        JobMix { keys, schedule }
    }
}

fn job_key(workload: Workload, seed: u64, k: u64, dir: &Path) -> JobTrace {
    let job_seed = seed.wrapping_mul(1_000_003).wrapping_add(k);
    match workload {
        Workload::Scramble => {
            // Only the multiplier's low 22 bits shape the trace; stepping
            // them by two per key keeps every key's records distinct.
            let mult = ((mix(seed) & !1).wrapping_add(2 * k) % (1 << 22)) | 1;
            JobTrace::ScrambleFile {
                mult,
                path: dir.join(format!("scramble-{mult:016x}.smrt")),
            }
        }
        Workload::Table1 => JobTrace::Profile {
            name: TABLE1_PROFILES[(k % 3) as usize],
            seed: job_seed,
            ops: TABLE1_JOB_OPS,
        },
        Workload::Daemon => JobTrace::Profile {
            name: "hm_1",
            seed: job_seed,
            ops: DAEMON_JOB_OPS,
        },
    }
}

/// Generates, encodes and maps the replay-phase traces.
pub fn replay_inputs(workload: Workload, seed: u64) -> Vec<Input> {
    let named = |name: String, records: Vec<TraceRecord>| Input {
        name,
        map: encode(&records),
    };
    match workload {
        Workload::Scramble => vec![named(
            "scramble".into(),
            scramble_records(SCRAMBLE_RECORDS, seed.wrapping_mul(2) | 1),
        )],
        Workload::Table1 => TABLE1_PROFILES
            .iter()
            .map(|&name| {
                let profile = profiles::by_name(name).expect("Table-I profile");
                named(name.into(), profile.generate_scaled(seed, TABLE1_OPS))
            })
            .collect(),
        Workload::Daemon => {
            let profile = profiles::by_name("hm_1").expect("Table-I profile");
            vec![named(
                "hm_1".into(),
                profile.generate_scaled(seed, DAEMON_REPLAY_OPS),
            )]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_mix_is_seeded_and_about_one_in_eight_fresh() {
        let dir = Path::new("unused");
        let a = JobMix::new(Workload::Daemon, 7, 4000, dir);
        let b = JobMix::new(Workload::Daemon, 7, 4000, dir);
        let c = JobMix::new(Workload::Daemon, 8, 4000, dir);
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.keys, b.keys);
        assert_ne!(a.schedule, c.schedule);
        assert_eq!(a.schedule[0], 0);
        let fresh = a.keys.len() as f64 / 4000.0;
        assert!((0.09..0.16).contains(&fresh), "fresh share {fresh}");
        // Every repeat names a key that an earlier submission introduced.
        let mut seen = 0u32;
        for &k in &a.schedule {
            assert!(k <= seen);
            if k == seen {
                seen += 1;
            }
        }
    }

    #[test]
    fn scramble_matches_the_cli_generator_shape() {
        let r = scramble_records(9, 43);
        assert!(r[0].op.is_read() && r[3].op.is_read());
        assert!(!r[1].op.is_read() && !r[2].op.is_read());
        assert_eq!((r[0].sectors, r[1].sectors), (8, 16));
    }
}
