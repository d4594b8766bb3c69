//! Run configuration and small helpers shared by the workloads.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gisolap_geom::BBox;
use gisolap_serve::ServeStats;
use gisolap_shard::GridSpec;
use gisolap_stream::RollupRow;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Tiny inputs, for the benchmark's own tests.
    pub smoke: bool,
    /// Scratch directory for stores (inside the checkout).
    pub work: PathBuf,
}

impl RunConfig {
    pub fn measure(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// How many times set-up is repeated for the `setup_s` median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            9
        }
    }

    /// A derived seed for one input stream of the workload.
    pub fn sub_seed(&self, stream: u64) -> u64 {
        // splitmix64 of (seed, stream): nearby seeds give unrelated inputs.
        let mut z = self
            .seed
            .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The pool index of every operation of `cycles` cycles of a weighted
/// mix: each class's slots (`weights`, per cycle) are spread evenly over
/// the cycle, and each slot takes the class's next pool entry in turn.
pub fn schedule<C: Copy + PartialEq>(
    weights: &[(C, usize)],
    class_of: &[C],
    cycles: usize,
) -> Vec<usize> {
    let total: usize = weights.iter().map(|&(_, w)| w).sum();
    let mut slots: Vec<(f64, usize)> = Vec::with_capacity(total);
    for (c, &(_, weight)) in weights.iter().enumerate() {
        for k in 0..weight {
            slots.push(((k as f64 + 0.5) * total as f64 / weight as f64, c));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0));
    let members: Vec<Vec<usize>> = weights
        .iter()
        .map(|&(class, _)| {
            (0..class_of.len())
                .filter(|&i| class_of[i] == class)
                .collect()
        })
        .collect();
    let mut next = vec![0usize; weights.len()];
    let mut out = Vec::with_capacity(total * cycles);
    for _ in 0..cycles {
        for &(_, c) in &slots {
            out.push(members[c][next[c] % members[c].len()]);
            next[c] += 1;
        }
    }
    out
}

/// The movement area of the `live` and `scatter` fleets.
pub fn fleet_area() -> BBox {
    BBox::new(0.0, 0.0, 64.0, 64.0)
}

/// The fleets' hot district, where most objects live.
pub fn hot_district() -> BBox {
    BBox::new(4.0, 4.0, 24.0, 12.0)
}

/// The 4 × 4 overlay grid the served tenants resolve cells with.
pub fn fleet_grid() -> GridSpec {
    GridSpec::new(fleet_area(), 4, 4).expect("valid grid")
}

/// Rollup rows equal bit for bit.
pub fn same_bits(a: &[RollupRow], b: &[RollupRow]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.granule == y.granule && x.geo == y.geo && x.value.to_bits() == y.value.to_bits()
        })
}

/// Requests a server refused as `Busy` (any of its three caps).
pub fn refused(stats: &ServeStats) -> u64 {
    stats.busy_rejections + stats.quota_rejections + stats.connections_rejected
}

/// A scratch directory removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn create(path: PathBuf) -> std::io::Result<WorkDir> {
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spreads a closed-loop caller over every CPU it may run on.
///
/// A client and the server thread that answers it tend to share one CPU
/// for a whole run, and on a shared host each CPU's speed drifts on its
/// own, so a run would measure whichever CPU it landed on. Called between
/// operations, [`CpuRotation::tick`] moves the calling thread to the next
/// allowed CPU every [`CpuRotation::EVERY`]; the server thread, woken
/// from the caller's CPU, follows it. Dropping it restores the thread's
/// own affinity. It does nothing on one CPU or off Linux.
///
/// Only a thread that spawns no workers may rotate: threads inherit the
/// affinity of the thread that spawns them.
pub struct CpuRotation {
    original: Option<affinity::CpuSet>,
    cpus: Vec<usize>,
    next: usize,
    since: Instant,
}

impl CpuRotation {
    pub const EVERY: Duration = Duration::from_millis(100);

    pub fn new() -> CpuRotation {
        let original = affinity::get();
        let cpus = original.map_or_else(Vec::new, |set| {
            (0..affinity::CPUS)
                .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        });
        let mut rotation = CpuRotation {
            original,
            cpus,
            next: 0,
            since: Instant::now(),
        };
        rotation.advance();
        rotation
    }

    /// The CPUs rotated over (fewer than two: no rotation).
    pub fn cpus(&self) -> usize {
        self.cpus.len()
    }

    pub fn tick(&mut self) {
        if self.since.elapsed() >= Self::EVERY {
            self.advance();
        }
    }

    fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut set = [0u64; affinity::CPUS / 64];
        set[cpu / 64] |= 1 << (cpu % 64);
        affinity::set(&set);
        self.since = Instant::now();
    }
}

impl Drop for CpuRotation {
    fn drop(&mut self) {
        if let (Some(original), true) = (self.original, self.cpus.len() >= 2) {
            affinity::set(&original);
        }
    }
}

/// The calling thread's CPU affinity (`sched_getaffinity(2)`).
#[cfg(target_os = "linux")]
mod affinity {
    /// Bits in the C library's `cpu_set_t`.
    pub const CPUS: usize = 1024;
    pub type CpuSet = [u64; CPUS / 64];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }

    pub fn get() -> Option<CpuSet> {
        let mut set = [0u64; CPUS / 64];
        // SAFETY: `set` is a writable buffer of the size passed; pid 0 is
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        (rc == 0).then_some(set)
    }

    pub fn set(set: &CpuSet) -> bool {
        // SAFETY: `set` is a readable buffer of the size passed; pid 0 is
        // the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub const CPUS: usize = 1024;
    pub type CpuSet = [u64; CPUS / 64];

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_: &CpuSet) -> bool {
        false
    }
}
