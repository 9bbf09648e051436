//! The three seeded workloads. Each builds its world and population, then
//! runs rounds of foreground ops that end in a sync point. The program sees
//! only the generated operations; the generators never read its outputs.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use ficus_core::resolver::{ResolutionPolicy, ResolverConfig};
use ficus_core::WorldParams;
use ficus_net::HostId;
use ficus_vnode::syscall::OpenMode;
use ficus_workload::{DevTrace, TraceOp};

use crate::harness::Bench;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["devloop", "bigfile", "partition"];

/// A workload: world parameters, population, and one round of load.
pub trait Workload {
    /// World parameters.
    fn params(&self) -> WorldParams;
    /// Writes the initial population (set-up, not timed).
    fn populate(&mut self, b: &mut Bench);
    /// One round of foreground ops, ending in a sync point.
    fn run_round(&mut self, b: &mut Bench, round: usize);
    /// Rounds a run of `seconds` makes. The work is fixed by the seed and
    /// the run length, so every count in a run repeats exactly; the rate
    /// sets a run of `seconds` to about that long on a 2-core x86-64 host.
    fn rounds(&self, seconds: u64) -> usize;
}

/// The workload named `name`, seeded with `seed`.
#[must_use]
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    match name {
        "devloop" => Some(Box::new(Devloop::new(seed))),
        "bigfile" => Some(Box::new(Bigfile::new(seed))),
        "partition" => Some(Box::new(Partition::new(seed))),
        _ => None,
    }
}

/// Builds a world for `w`, populates it, and settles it (one sync point,
/// gate included).
#[must_use]
pub fn setup(w: &mut dyn Workload, traced: bool) -> Bench {
    let mut b = Bench::new(w.params(), traced);
    w.populate(&mut b);
    b.sync_point(false);
    b
}

fn rounds_at(rate_per_s: f64, seconds: u64) -> usize {
    ((rate_per_s * seconds as f64).round() as usize).max(1)
}

/// `len` bytes of seeded, text-like file contents.
fn blob(rng: &mut StdRng, len: usize) -> Vec<u8> {
    const ALPHABET: &[u8; 64] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \n";
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        let mut w = rng.next_u64();
        for _ in 0..8 {
            out.push(ALPHABET[(w & 63) as usize]);
            w >>= 6;
        }
    }
    out.truncate(len);
    out
}

// --- devloop ------------------------------------------------------------

/// Edit/build/run cycles over `/src` and `/obj` (`DevTrace`).
pub struct Devloop {
    rng: StdRng,
    trace: DevTrace,
}

impl Devloop {
    /// Source files (objects mirror them 1:1).
    pub const SOURCES: usize = 256;
    /// Editor saves per cycle (Zipf-chosen, so some repeat).
    pub const EDITS_PER_CYCLE: usize = 16;

    fn new(seed: u64) -> Self {
        Devloop {
            rng: StdRng::seed_from_u64(seed ^ 0xDE71_0000),
            trace: DevTrace::new(Self::SOURCES, Self::EDITS_PER_CYCLE, seed),
        }
    }

    fn src(s: usize) -> String {
        format!("/src/s{s:03}.c")
    }

    fn obj(s: usize) -> String {
        format!("/obj/s{s:03}.o")
    }

    fn source_len(&mut self) -> usize {
        self.rng.gen_range(1024..6 * 1024)
    }

    /// Compiler output: its length varies from build to build.
    fn object_len(&mut self) -> usize {
        self.rng.gen_range(2 * 1024..8 * 1024)
    }
}

impl Workload for Devloop {
    fn params(&self) -> WorldParams {
        WorldParams::default()
    }

    fn populate(&mut self, b: &mut Bench) {
        b.mkdir_op(1, "/src");
        b.mkdir_op(1, "/obj");
        for s in 0..Self::SOURCES {
            let len = self.source_len();
            let data = blob(&mut self.rng, len);
            b.write_op(1, &Self::src(s), OpenMode::CreateTruncate, 0, &data);
            let len = self.object_len();
            let data = blob(&mut self.rng, len);
            b.write_op(1, &Self::obj(s), OpenMode::CreateTruncate, 0, &data);
        }
    }

    fn run_round(&mut self, b: &mut Bench, _round: usize) {
        let mut rebuilt = Vec::new();
        for op in self.trace.cycle() {
            match op {
                TraceOp::EditSource(s) => {
                    // An editor save: write a temporary, rename it over.
                    let tmp = format!("{}.tmp", Self::src(s));
                    let len = self.source_len();
                    let data = blob(&mut self.rng, len);
                    b.write_op(1, &tmp, OpenMode::CreateTruncate, 0, &data);
                    b.rename_op(1, &tmp, &Self::src(s));
                }
                TraceOp::ReadSource(s) => b.read_op(1, &Self::src(s), 0, None),
                TraceOp::WriteObject(s) => {
                    let len = self.object_len();
                    let data = blob(&mut self.rng, len);
                    b.write_op(1, &Self::obj(s), OpenMode::CreateTruncate, 0, &data);
                    rebuilt.push(s);
                }
                // The test run happens on another workstation: it loads
                // every object just rebuilt, then the few the trace names.
                TraceOp::ReadObject(s) => {
                    for r in rebuilt.drain(..) {
                        b.read_op(2, &Self::obj(r), 0, None);
                    }
                    b.read_op(2, &Self::obj(s), 0, None);
                }
            }
        }
        b.sync_point(false);
    }

    fn rounds(&self, seconds: u64) -> usize {
        rounds_at(1.7, seconds)
    }
}

// --- bigfile ------------------------------------------------------------

/// Patches and range reads over eight 2 MiB files, one per directory.
pub struct Bigfile {
    rng: StdRng,
}

impl Bigfile {
    /// Files (one directory each).
    pub const FILES: usize = 8;
    /// Size of each file.
    pub const SIZE: usize = 2 << 20;
    /// Bytes per patch.
    pub const PATCH: usize = 16 << 10;
    /// Patches between sync points.
    pub const PATCHES_PER_ROUND: usize = 8;

    fn new(seed: u64) -> Self {
        Bigfile {
            rng: StdRng::seed_from_u64(seed ^ 0xB16F_0000),
        }
    }

    fn path(k: usize) -> String {
        format!("/b{k}/data")
    }
}

impl Workload for Bigfile {
    fn params(&self) -> WorldParams {
        WorldParams::default()
    }

    fn populate(&mut self, b: &mut Bench) {
        for k in 0..Self::FILES {
            b.mkdir_op(1, &format!("/b{k}"));
            let data = blob(&mut self.rng, Self::SIZE);
            b.write_op(1, &Self::path(k), OpenMode::CreateTruncate, 0, &data);
        }
    }

    fn run_round(&mut self, b: &mut Bench, _round: usize) {
        for _ in 0..Self::PATCHES_PER_ROUND {
            let k = self.rng.gen_range(0..Self::FILES);
            let off = self.rng.gen_range(0..=Self::SIZE - Self::PATCH);
            let data = blob(&mut self.rng, Self::PATCH);
            b.write_op(1, &Self::path(k), OpenMode::ReadWrite, off as u64, &data);
            for host in [2, 3] {
                let k = self.rng.gen_range(0..Self::FILES);
                let len = self.rng.gen_range(4 << 10..=64 << 10);
                let off = self.rng.gen_range(0..=Self::SIZE - len);
                b.stat_op(host, &Self::path(k));
                b.read_op(host, &Self::path(k), off as u64, Some(len));
            }
        }
        b.sync_point(false);
    }

    fn rounds(&self, seconds: u64) -> usize {
        rounds_at(1.9, seconds)
    }
}

// --- partition ----------------------------------------------------------

/// Two-group partition epochs with last-writer-wins resolution at heal.
/// In each epoch one seeded host is cut off from the other two; every host
/// overwrites set-up files, creates unique names, unlinks names it created,
/// and reads; and both sides overwrite the same few hot files, so that
/// every heal resolves real conflicts.
pub struct Partition {
    rng: StdRng,
    /// Names created in earlier epochs (every host sees them).
    settled: Vec<String>,
    /// Which host each epoch of the current three cuts off.
    isolation_order: [u32; 3],
}

impl Partition {
    /// Directories.
    pub const DIRS: usize = 8;
    /// Files per directory at set-up.
    pub const FILES: usize = 64;
    /// Hot files: `/d0/f00` to `/d0/f07`. Only the epochs' conflicting
    /// overwrites write them; any host reads them.
    pub const HOT: usize = 8;
    /// Hot files both sides overwrite in every epoch. Every heal resolves
    /// conflicts: one that resolves some makes one or two more passes than
    /// one that resolves none, so with a seeded number of conflicts the
    /// median heal time jumped between the two kinds from seed to seed.
    pub const CONFLICTS: usize = 2;
    /// Ops each host makes per epoch.
    pub const OPS_PER_HOST: usize = 18;

    fn new(seed: u64) -> Self {
        Partition {
            rng: StdRng::seed_from_u64(seed ^ 0x9A27_0000),
            settled: Vec::new(),
            isolation_order: [1, 2, 3],
        }
    }

    fn base(d: usize, f: usize) -> String {
        format!("/d{d}/f{f:02}")
    }

    fn any_base(&mut self) -> String {
        if self.rng.gen_bool(0.3) {
            Self::base(0, self.rng.gen_range(0..Self::HOT))
        } else {
            Self::base(
                self.rng.gen_range(0..Self::DIRS),
                self.rng.gen_range(0..Self::FILES),
            )
        }
    }

    /// A set-up file that is not hot.
    fn cold_base(&mut self) -> String {
        let i = self.rng.gen_range(Self::HOT..Self::DIRS * Self::FILES);
        Self::base(i / Self::FILES, i % Self::FILES)
    }

    fn file_len(&mut self) -> usize {
        self.rng.gen_range(256..4096)
    }

    /// A name a host can see: a set-up file, an earlier epoch's creation,
    /// or one it created itself this epoch.
    fn visible(&mut self, own: &[String]) -> String {
        let extra = self.settled.len() + own.len();
        if extra == 0 || self.rng.gen_bool(0.8) {
            return self.any_base();
        }
        let i = self.rng.gen_range(0..extra);
        match self.settled.get(i) {
            Some(p) => p.clone(),
            None => own[i - self.settled.len()].clone(),
        }
    }
}

impl Workload for Partition {
    fn params(&self) -> WorldParams {
        WorldParams {
            resolver: Some(ResolverConfig::uniform(ResolutionPolicy::LastWriterWins)),
            ..WorldParams::default()
        }
    }

    fn populate(&mut self, b: &mut Bench) {
        for d in 0..Self::DIRS {
            b.mkdir_op(1, &format!("/d{d}"));
            for f in 0..Self::FILES {
                let len = self.file_len();
                let data = blob(&mut self.rng, len);
                b.write_op(1, &Self::base(d, f), OpenMode::CreateTruncate, 0, &data);
            }
        }
    }

    fn run_round(&mut self, b: &mut Bench, round: usize) {
        // Every three epochs cut off each host once, in a seeded order, so
        // that seeds differ in the order of partitions but not their mix.
        if round.is_multiple_of(3) {
            let mut order = [1u32, 2, 3];
            for i in (1..order.len()).rev() {
                order.swap(i, self.rng.gen_range(0..=i));
            }
            self.isolation_order = order;
        }
        let alone = self.isolation_order[round % 3];
        let lone = [HostId(alone)];
        let rest: Vec<HostId> = (1..=3).filter(|&h| h != alone).map(HostId).collect();
        b.world.partition(&[&lone, &rest]);
        // Names each host created this epoch. A host's group-mates cannot
        // see them before the next sync point delivers its update notes.
        let mut created: [Vec<String>; 3] = Default::default();
        for i in 0..Self::OPS_PER_HOST {
            for host in 1..=3usize {
                let own = &mut created[host - 1];
                match self.rng.gen_range(0..100) {
                    0..=34 => {
                        let p = self.visible(own);
                        b.read_op(host, &p, 0, None);
                    }
                    35..=59 => {
                        let p = self.cold_base();
                        let len = self.file_len();
                        let data = blob(&mut self.rng, len);
                        b.write_op(host, &p, OpenMode::CreateTruncate, 0, &data);
                    }
                    60..=69 => {
                        let d = self.rng.gen_range(0..Self::DIRS);
                        let p = format!("/d{d}/n{round}-{host}-{i}");
                        b.create_op(host, &p);
                        own.push(p);
                    }
                    70..=74 if !own.is_empty() => {
                        let j = self.rng.gen_range(0..own.len());
                        let p = own.swap_remove(j);
                        b.unlink_op(host, &p);
                    }
                    70..=89 => {
                        let p = self.visible(own);
                        b.stat_op(host, &p);
                    }
                    _ => {
                        let d = self.rng.gen_range(0..Self::DIRS);
                        b.readdir_op(host, &format!("/d{d}"));
                    }
                }
            }
        }
        // The conflicting overwrites: the cut-off host and a seeded one of
        // the other two each write the same hot files.
        let mate = rest[self.rng.gen_range(0..rest.len())].0 as usize;
        let mut hot: Vec<usize> = (0..Self::HOT).collect();
        for i in 0..Self::CONFLICTS {
            let j = self.rng.gen_range(i..hot.len());
            hot.swap(i, j);
        }
        for &f in &hot[..Self::CONFLICTS] {
            let p = Self::base(0, f);
            for host in [alone as usize, mate] {
                let len = self.file_len();
                let data = blob(&mut self.rng, len);
                b.write_op(host, &p, OpenMode::CreateTruncate, 0, &data);
            }
        }
        for own in created {
            self.settled.extend(own);
        }
        b.sync_point(true);
    }

    fn rounds(&self, seconds: u64) -> usize {
        // Whole blocks of three epochs on each of an untraced run's three
        // worlds, so that every run cuts off each host equally often: heals
        // after host 2 was cut off make one reconciliation pass more.
        let r = rounds_at(1.8, seconds);
        if r >= 9 {
            r / 9 * 9
        } else {
            r
        }
    }
}
