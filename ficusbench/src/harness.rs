//! Drives one seeded workload through `FicusWorld` and `Process`, timing
//! every foreground operation and every daemon entry point, and checking
//! outputs against the POSIX model and the replica-convergence gate.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ficus_core::phys::FicusPhysical;
use ficus_core::{FicusFileId, FicusWorld, WorldParams, ROOT_FILE};
use ficus_net::HostId;
use ficus_vnode::syscall::{OpenMode, Process};
use ficus_vnode::{Credentials, FileSystem, FsError, FsResult, VnodeType};

use crate::counters::Counters;
use crate::oracle::{Model, Verdict};
use crate::trace::{TracedFs, Tracer};

/// Block size of every host's UFS (`Geometry::medium`).
pub const BLOCK: usize = 4096;

/// Largest read a whole-file read asks for at once (a `cat`-sized buffer).
const READ_CHUNK: usize = 64 * 1024;

/// Passes after which a sync point that still changes something counts as
/// a failure to converge.
const MAX_PASSES: usize = 16;

/// Reconciliation rounds after which a heal counts as a failure to
/// converge (`reconcile_until_quiescent` panics).
const MAX_RECON_ROUNDS: usize = 32;

/// Op id of the first sync point (foreground ops count up from 1).
const SYNC_OP_BASE: u64 = 1 << 40;

/// The class an operation's latency is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// open + read + close.
    Read = 0,
    /// open + write + close.
    Write = 1,
    /// One name-space or attribute call.
    Meta = 2,
}

impl Class {
    /// All classes, in index order.
    pub const ALL: [Class; 3] = [Class::Read, Class::Write, Class::Meta];
}

/// What the daemons reported, summed over the timed phase.
#[derive(Debug, Clone, Default)]
pub struct DaemonTotals {
    /// Propagation (`run_propagation` and `drain_propagation`).
    pub prop: ficus_core::propagate::PropagationStats,
    /// Reconciliation (`reconcile_until_quiescent`).
    pub recon: ficus_core::recon::ReconStats,
    /// Automatic resolution (`run_resolution`).
    pub resolve: ficus_core::resolver::ResolveStats,
    /// Passes over the daemons, over all sync points.
    pub passes: u64,
    /// Largest new-version-cache backlog seen after a delivery.
    pub notes_pending_max: u64,
    /// Daemon calls that returned an error.
    pub errors: u64,
}

/// Everything measured during the timed phase.
#[derive(Debug, Default)]
pub struct RunStats {
    /// Latency samples per class, microseconds.
    pub lat_us: [Vec<f64>; 3],
    /// Foreground ops per class (attempted).
    pub ops: [u64; 3],
    /// Ops that returned an error.
    pub failed: u64,
    /// Failure descriptions (capped).
    pub failures: Vec<String>,
    /// Reads checked against the model.
    pub reads: u64,
    /// Reads that returned an older acknowledged version.
    pub stale: u64,
    /// Reads that matched no acknowledged version.
    pub wrong: u64,
    /// Wrong reads, `host op path` (capped).
    pub wrong_reads: Vec<String>,
    /// Bytes users wrote.
    pub user_bytes: u64,
    /// Blocks spanned by user writes.
    pub user_blocks: u64,
    /// Wall time per sync point, milliseconds.
    pub sync_ms: Vec<f64>,
    /// Wall time inside foreground ops.
    pub op_wall: Duration,
    /// Wall time inside sync points.
    pub sync_wall: Duration,
    /// Counter deltas inside foreground ops, per class (traced runs only).
    pub class_counters: [Counters; 3],
    /// Wall time inside each daemon entry point, by span name.
    pub daemon_busy: BTreeMap<&'static str, Duration>,
    /// What the daemons reported.
    pub totals: DaemonTotals,
}

impl RunStats {
    /// Foreground ops attempted.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.ops.iter().sum()
    }

    /// Adds `o`, measured on another world of the same run.
    pub fn absorb(&mut self, o: RunStats) {
        for c in 0..Class::ALL.len() {
            self.lat_us[c].extend(&o.lat_us[c]);
            self.ops[c] += o.ops[c];
            self.class_counters[c].absorb(o.class_counters[c]);
        }
        self.failed += o.failed;
        for f in o.failures {
            push_capped(&mut self.failures, f);
        }
        self.reads += o.reads;
        self.stale += o.stale;
        self.wrong += o.wrong;
        for w in o.wrong_reads {
            push_capped(&mut self.wrong_reads, w);
        }
        self.user_bytes += o.user_bytes;
        self.user_blocks += o.user_blocks;
        self.sync_ms.extend(o.sync_ms);
        self.op_wall += o.op_wall;
        self.sync_wall += o.sync_wall;
        for (name, d) in o.daemon_busy {
            *self.daemon_busy.entry(name).or_default() += d;
        }
        let t = &mut self.totals;
        t.prop.absorb(o.totals.prop);
        t.recon.absorb(o.totals.recon);
        t.resolve.absorb(o.totals.resolve);
        t.passes += o.totals.passes;
        t.notes_pending_max = t.notes_pending_max.max(o.totals.notes_pending_max);
        t.errors += o.totals.errors;
    }
}

/// Outcome of the replica-convergence gate and the model comparison.
#[derive(Debug, Default)]
pub struct GateLog {
    /// Gate checks made.
    pub checks: u64,
    /// Gate violations (the run fails when any exist).
    pub violations: Vec<String>,
    /// Converged files whose bytes match no acknowledged version, summed
    /// over checks (reported, not gated: see the `O_TRUNC` note).
    pub divergent_files: u64,
    /// Examples of the above (capped).
    pub examples: Vec<String>,
    /// Wall time spent checking (outside the timed phase).
    pub wall: Duration,
}

impl GateLog {
    /// Adds `o`, the gate of another world of the same run.
    pub fn absorb(&mut self, o: GateLog) {
        self.checks += o.checks;
        for v in o.violations {
            push_capped(&mut self.violations, v);
        }
        self.divergent_files += o.divergent_files;
        for e in o.examples {
            push_capped(&mut self.examples, e);
        }
        self.wall += o.wall;
    }
}

/// Entries kept in each list of examples.
const CAP: usize = 20;

fn push_capped(v: &mut Vec<String>, s: String) {
    if v.len() < CAP {
        v.push(s);
    }
}

/// One benchmark world: three hosts, one `Process` each, and the model.
pub struct Bench {
    /// The system under test.
    pub world: FicusWorld,
    procs: Vec<Process>,
    /// Span recorder (disabled in untraced runs).
    pub tracer: Arc<Tracer>,
    /// The POSIX model.
    pub model: Model,
    /// Measurements of the timed phase.
    pub stats: RunStats,
    /// Gate results.
    pub gate: GateLog,
    timing: bool,
    next_op: u64,
    next_sync: u64,
    /// Paths written, created, renamed or unlinked since the last gate.
    dirty: BTreeSet<String>,
    excluded: Counters,
    start: Option<Counters>,
}

fn blocks_spanned(off: u64, len: usize) -> u64 {
    if len == 0 {
        return 0;
    }
    let b = BLOCK as u64;
    (off + len as u64 - 1) / b - off / b + 1
}

impl Bench {
    /// Builds a world; `traced` interposes [`TracedFs`] under every
    /// `Process`. Tracing stays off until [`Bench::start_timed`].
    #[must_use]
    pub fn new(params: WorldParams, traced: bool) -> Self {
        let world = FicusWorld::new(params);
        let tracer = Tracer::new(traced);
        tracer.pause(true);
        let procs = world
            .host_ids()
            .into_iter()
            .map(|h| {
                let logical = Arc::clone(world.logical(h)) as Arc<dyn FileSystem>;
                let fs = if traced {
                    TracedFs::new(logical, Arc::clone(&tracer)) as Arc<dyn FileSystem>
                } else {
                    logical
                };
                Process::new(fs, Credentials::root())
            })
            .collect();
        Bench {
            world,
            procs,
            tracer,
            model: Model::default(),
            stats: RunStats::default(),
            gate: GateLog::default(),
            timing: false,
            next_op: 1,
            next_sync: 0,
            dirty: BTreeSet::new(),
            excluded: Counters::default(),
            start: None,
        }
    }

    /// Ends set-up: clears what set-up recorded, snapshots the counters,
    /// and starts recording spans (traced runs).
    pub fn start_timed(&mut self) {
        self.stats = RunStats::default();
        self.excluded = Counters::default();
        self.timing = true;
        self.start = Some(Counters::capture(&self.world));
        self.tracer.pause(false);
    }

    /// Ends the timed phase: the counter deltas of the whole phase, with
    /// the gate's own reads taken out.
    pub fn end_timed(&mut self) -> Counters {
        self.tracer.pause(true);
        self.timing = false;
        let end = Counters::capture(&self.world);
        let start = self.start.take().unwrap_or(end);
        end - start - self.excluded
    }

    /// Runs one foreground op on host `host` (1-based), filing its latency
    /// under `class`. `f` makes the op's `Process` calls.
    fn run_op<T>(
        &mut self,
        host: usize,
        class: Class,
        (verb, path): (&str, &str),
        f: impl FnOnce(&mut Process, &Tracer) -> FsResult<T>,
    ) -> Option<T> {
        let id = self.next_op;
        self.next_op += 1;
        self.tracer.set_op(id);
        let before = self
            .tracer
            .enabled()
            .then(|| Counters::capture(&self.world));
        let t0 = Instant::now();
        let out = f(&mut self.procs[host - 1], &self.tracer);
        let dt = t0.elapsed();
        if let Some(before) = before {
            let delta = Counters::capture(&self.world) - before;
            self.stats.class_counters[class as usize].absorb(delta);
        }
        if self.timing {
            self.stats.op_wall += dt;
            self.stats.lat_us[class as usize].push(dt.as_secs_f64() * 1e6);
        }
        self.stats.ops[class as usize] += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.stats.failed += 1;
                push_capped(
                    &mut self.stats.failures,
                    format!("host {host} {verb} {path}: {e:?}"),
                );
                None
            }
        }
    }

    /// Reads `len` bytes at `off` of `path` on `host` (the whole file when
    /// `len` is `None`) and checks the bytes against the model.
    pub fn read_op(&mut self, host: usize, path: &str, off: u64, len: Option<usize>) {
        let got = self.run_op(host, Class::Read, ("read", path), |p, t| {
            let fd = call(t, "syscall.open", || p.open(path, OpenMode::Read))?;
            let body = (|| {
                if off > 0 {
                    call(t, "syscall.seek", || p.seek(fd, off))?;
                }
                let mut data = Vec::new();
                loop {
                    let want = len.map_or(READ_CHUNK, |l| l - data.len());
                    let part = call(t, "syscall.read", || p.read(fd, want))?;
                    data.extend_from_slice(&part);
                    if part.len() < want || len.is_some_and(|l| data.len() >= l) {
                        return Ok(data);
                    }
                }
            })();
            let closed = call(t, "syscall.close", || p.close(fd));
            let data = body?;
            closed?;
            Ok(data)
        });
        let Some(got) = got else { return };
        let off = usize::try_from(off).unwrap_or(usize::MAX);
        self.stats.reads += 1;
        match self
            .model
            .classify(host, path, off, len.unwrap_or(usize::MAX), &got)
        {
            Verdict::Current => {}
            Verdict::Stale => self.stats.stale += 1,
            Verdict::Wrong => {
                self.stats.wrong += 1;
                push_capped(
                    &mut self.stats.wrong_reads,
                    format!(
                        "host {host} read {path} @{off}: {} bytes, model has {}",
                        got.len(),
                        self.model.size(path)
                    ),
                );
            }
        }
    }

    /// Opens `path` on `host` with `mode`, writes `data` at `off`, closes.
    pub fn write_op(&mut self, host: usize, path: &str, mode: OpenMode, off: u64, data: &[u8]) {
        let ok = self.run_op(host, Class::Write, ("write", path), |p, t| {
            let fd = call(t, "syscall.open", || p.open(path, mode))?;
            let body = (|| {
                if off > 0 {
                    call(t, "syscall.seek", || p.seek(fd, off))?;
                }
                let n = call(t, "syscall.write", || p.write(fd, data))?;
                if n == data.len() {
                    Ok(())
                } else {
                    Err(FsError::Io)
                }
            })();
            let closed = call(t, "syscall.close", || p.close(fd));
            body?;
            closed
        });
        self.dirty.insert(path.to_owned());
        if ok.is_none() {
            return;
        }
        let off_us = usize::try_from(off).unwrap_or(usize::MAX);
        if mode == OpenMode::CreateTruncate {
            let mut v = vec![0u8; off_us];
            v.extend_from_slice(data);
            self.model.rewrite(host, path, &v);
        } else {
            self.model.patch(host, path, off_us, data);
        }
        self.stats.user_bytes += data.len() as u64;
        self.stats.user_blocks += blocks_spanned(off, data.len());
    }

    /// `open(O_CREAT)` + `close` of a new, empty file (`touch`).
    pub fn create_op(&mut self, host: usize, path: &str) {
        let ok = self.run_op(host, Class::Meta, ("create", path), |p, t| {
            let fd = call(t, "syscall.open", || p.open(path, OpenMode::Create))?;
            call(t, "syscall.close", || p.close(fd))
        });
        self.dirty.insert(path.to_owned());
        if ok.is_some() && !self.model.exists(path) {
            self.model.rewrite(host, path, b"");
        }
    }

    /// `rename(from, to)`.
    pub fn rename_op(&mut self, host: usize, from: &str, to: &str) {
        self.dirty.insert(to.to_owned());
        let done = self.run_op(host, Class::Meta, ("rename", from), |p, t| {
            call(t, "syscall.rename", || p.rename(from, to))
        });
        if done.is_some() {
            self.model.rename(host, from, to);
        }
    }

    /// `unlink(path)`.
    pub fn unlink_op(&mut self, host: usize, path: &str) {
        self.dirty.insert(path.to_owned());
        let done = self.run_op(host, Class::Meta, ("unlink", path), |p, t| {
            call(t, "syscall.unlink", || p.unlink(path))
        });
        if done.is_some() {
            self.model.unlink(path);
        }
    }

    /// `mkdir(path)`.
    pub fn mkdir_op(&mut self, host: usize, path: &str) {
        self.run_op(host, Class::Meta, ("mkdir", path), |p, t| {
            call(t, "syscall.mkdir", || p.mkdir(path, 0o755))
        });
    }

    /// `stat(path)`.
    pub fn stat_op(&mut self, host: usize, path: &str) {
        self.run_op(host, Class::Meta, ("stat", path), |p, t| {
            call(t, "syscall.stat", || p.stat(path))
        });
    }

    /// `readdir(path)`.
    pub fn readdir_op(&mut self, host: usize, path: &str) {
        self.run_op(host, Class::Meta, ("readdir", path), |p, t| {
            call(t, "syscall.readdir", || p.readdir(path))
        });
    }

    /// Calls one daemon entry point under a span named `name`.
    fn daemon<T>(&mut self, name: &'static str, f: impl FnOnce(&FicusWorld) -> T) -> T {
        let t0 = Instant::now();
        let out = {
            let _s = self.tracer.span(name);
            f(&self.world)
        };
        if self.timing {
            *self.stats.daemon_busy.entry(name).or_default() += t0.elapsed();
        }
        out
    }

    /// A sync point: with `heal`, heal the network and reconcile; call the
    /// daemon entry points in a fixed order until a pass changes nothing;
    /// then run the gate.
    pub fn sync_point(&mut self, heal: bool) {
        self.tracer.set_op(SYNC_OP_BASE + self.next_sync);
        self.next_sync += 1;
        let t0 = Instant::now();
        let mut totals = std::mem::take(&mut self.stats.totals);
        if heal {
            self.world.heal();
        }
        let hosts = self.world.host_ids();
        let mut converged = false;
        for _ in 0..MAX_PASSES {
            totals.passes += 1;
            let mut changed = 0u64;
            changed += self.daemon("propagate.deliver_notifications", |w| {
                w.deliver_notifications() as u64
            });
            let pending: u64 = hosts
                .iter()
                .map(|&h| self.world.pending_notes(h) as u64)
                .sum();
            totals.notes_pending_max = totals.notes_pending_max.max(pending);
            for &h in &hosts {
                match self.daemon("propagate.run_propagation", |w| w.run_propagation(h)) {
                    Ok(s) => {
                        changed += s.notes_taken;
                        totals.prop.absorb(s);
                    }
                    Err(_) => totals.errors += 1,
                }
            }
            if heal {
                let s = self.daemon("recon.reconcile_until_quiescent", |w| {
                    w.reconcile_until_quiescent(MAX_RECON_ROUNDS)
                });
                changed += u64::from(!s.quiescent());
                totals.recon.absorb(s);
                for &h in &hosts {
                    let s = self.daemon("resolver.run_resolution", |w| w.run_resolution(h));
                    changed += s.resolved;
                    totals.resolve.absorb(s);
                }
                let s = self.daemon("propagate.drain_propagation", |w| {
                    w.drain_propagation(MAX_PASSES)
                });
                changed += s.notes_taken;
                totals.prop.absorb(s);
            }
            if changed == 0 {
                converged = true;
                break;
            }
        }
        let dt = t0.elapsed();
        self.stats.totals = totals;
        if self.timing {
            self.stats.sync_wall += dt;
            self.stats.sync_ms.push(dt.as_secs_f64() * 1e3);
        }
        if !converged {
            self.violation(format!(
                "sync point {} did not quiesce in {MAX_PASSES} passes",
                self.next_sync
            ));
        }
        self.check_gate(false);
    }

    /// The gate: every replica holds identical directory listings naming
    /// exactly the model's files, identical contents, and no pending
    /// conflict. Contents are
    /// compared for every path changed since the previous check, by chunk
    /// digest (bytes where the model disagrees), and with `final_check`
    /// byte by byte for every path, when every host's UFS must also be
    /// fsck-clean. Replicas are read through each host's `FicusPhysical`
    /// directly, so the gate sees what each replica stores rather than what
    /// replica selection picks. What the replicas converged on becomes
    /// the oldest version any host may read from then on. The gate's own
    /// work is taken out of the timed counters.
    pub fn check_gate(&mut self, final_check: bool) {
        let before = Counters::capture(&self.world);
        let t0 = Instant::now();
        self.gate.checks += 1;
        let vol = self.world.root_volume();
        let hosts = self.world.host_ids();
        let mut physes = Vec::new();
        for &h in &hosts {
            let Some(p) = self.world.phys(h, vol) else {
                self.violation(format!("host {h}: no replica"));
                continue;
            };
            match ficus_core::resolve::pending(&p) {
                Ok(c) if c.is_empty() => {}
                Ok(c) => self.violation(format!("host {h}: {} conflicts pending", c.len())),
                Err(e) => self.violation(format!("host {h}: listing conflicts failed: {e:?}")),
            }
            physes.push(p);
        }
        if physes.len() == hosts.len() {
            self.compare_replicas(&hosts, &physes, final_check);
        }
        self.model.settle();
        self.dirty.clear();
        if final_check {
            for &h in &hosts {
                match ficus_ufs::fsck::check(&self.world.host(h).ufs) {
                    Ok(r) if r.is_clean() => {}
                    Ok(r) => {
                        self.violation(format!("host {h}: fsck found {:?}", r.problems.first()))
                    }
                    Err(e) => self.violation(format!("host {h}: fsck {e:?}")),
                }
            }
        }
        if self.timing {
            self.excluded
                .absorb(Counters::capture(&self.world) - before);
        }
        self.gate.wall += t0.elapsed();
    }

    fn violation(&mut self, v: String) {
        push_capped(&mut self.gate.violations, v);
    }

    /// Walks every replica's tree breadth-first in lock step, comparing
    /// listings and the bytes of changed files (of all files with `all`),
    /// and reconciles the model with the result.
    fn compare_replicas(&mut self, hosts: &[HostId], physes: &[Arc<FicusPhysical>], all: bool) {
        let mut seen_files = Vec::new();
        let mut queue = VecDeque::from([("/".to_owned(), vec![ROOT_FILE; physes.len()])]);
        while let Some((path, dirs)) = queue.pop_front() {
            let listings: FsResult<Vec<Listing>> =
                physes.iter().zip(&dirs).map(|(p, &d)| list(p, d)).collect();
            let listings = match listings {
                Ok(l) => l,
                Err(e) => {
                    self.violation(format!("listing {path}: {e:?}"));
                    continue;
                }
            };
            let names = |l: &Listing| l.iter().map(|e| (e.0.clone(), e.1)).collect::<Vec<_>>();
            let first = names(&listings[0]);
            for (h, l) in hosts.iter().zip(&listings).skip(1) {
                if names(l) != first {
                    self.violation(format!(
                        "host {h}: listing of {path} differs from host {}",
                        hosts[0]
                    ));
                }
            }
            for (i, (name, kind)) in first.iter().enumerate() {
                let child = if path == "/" {
                    format!("/{name}")
                } else {
                    format!("{path}/{name}")
                };
                let ids: Vec<FicusFileId> = listings
                    .iter()
                    .filter_map(|l| l.get(i))
                    .map(|e| e.2)
                    .collect();
                if ids.len() != physes.len() {
                    continue; // listing mismatch, reported above
                }
                if kind.is_directory_like() {
                    queue.push_back((child, ids));
                    continue;
                }
                if !all && !self.dirty.contains(&child) {
                    seen_files.push(child);
                    continue;
                }
                if !all {
                    match self.digests_agree(&child, physes, &ids) {
                        Ok(true) => {
                            seen_files.push(child);
                            continue;
                        }
                        Ok(false) => {}
                        Err(v) => {
                            self.violation(format!("{child}: {v}"));
                            continue;
                        }
                    }
                }
                let contents: FsResult<Vec<Vec<u8>>> = physes
                    .iter()
                    .zip(&ids)
                    .map(|(p, &f)| p.read(f, 0, usize::MAX).map(|b| b.to_vec()))
                    .collect();
                let contents = match contents {
                    Ok(c) => c,
                    Err(e) => {
                        self.violation(format!("reading {child}: {e:?}"));
                        continue;
                    }
                };
                for (h, c) in hosts.iter().zip(&contents).skip(1) {
                    if *c != contents[0] {
                        self.violation(format!(
                            "host {h}: contents of {child} differ from host {}",
                            hosts[0]
                        ));
                    }
                }
                if !self.model.exists(&child) {
                    self.violation(format!("{child} is on every replica but not in the model"));
                } else if !self.model.adopt(&child, &contents[0]) {
                    self.gate.divergent_files += 1;
                    push_capped(
                        &mut self.gate.examples,
                        format!(
                            "{child}: replicas agree on {} bytes that no write produced \
                             (model has {})",
                            contents[0].len(),
                            self.model.size(&child)
                        ),
                    );
                }
                seen_files.push(child);
            }
        }
        seen_files.sort();
        let missing: Vec<String> = self
            .model
            .paths()
            .filter(|p| seen_files.binary_search_by(|s| s.as_str().cmp(p)).is_err())
            .map(str::to_owned)
            .collect();
        for p in missing {
            self.violation(format!("{p} is in the model but missing on the replicas"));
        }
    }

    /// Between sync points the replicas' chunk maps (per-chunk length and
    /// FNV-1a digest) stand in for their bytes: `Ok(true)` when every
    /// replica's map agrees and matches the model's current contents,
    /// `Ok(false)` when they agree but the model differs (the caller then
    /// compares bytes), and `Err` when the replicas disagree.
    fn digests_agree(
        &self,
        path: &str,
        physes: &[Arc<FicusPhysical>],
        ids: &[FicusFileId],
    ) -> Result<bool, String> {
        let mut maps = Vec::new();
        for (p, &f) in physes.iter().zip(ids) {
            let m = p.chunk_map(f).map_err(|e| format!("chunk map: {e:?}"))?;
            let chunks: Vec<(u32, u64)> = m.chunks.iter().map(|c| (c.len, c.digest)).collect();
            maps.push((m.chunk_size, m.size, chunks));
        }
        if maps.iter().any(|m| *m != maps[0]) {
            return Err("replica chunk maps differ".into());
        }
        let (chunk_size, size, chunks) = &maps[0];
        let Some(model) = self.model.contents(path) else {
            return Ok(false);
        };
        let model_chunks: Vec<(u32, u64)> = model
            .chunks((*chunk_size).max(1) as usize)
            .map(|c| (c.len() as u32, ficus_core::chunks::digest(c)))
            .collect();
        Ok(model.len() as u64 == *size && model_chunks == *chunks)
    }
}

/// One `Process` call under a root span.
fn call<T>(t: &Tracer, name: &'static str, f: impl FnOnce() -> FsResult<T>) -> FsResult<T> {
    let _s = t.span(name);
    f()
}

/// A directory's live entries as `(name, kind, file)`, sorted by name.
type Listing = Vec<(String, VnodeType, FicusFileId)>;

fn list(phys: &FicusPhysical, dir: FicusFileId) -> FsResult<Listing> {
    let d = phys.dir_entries(dir)?;
    let mut out: Listing = d
        .live()
        .map(|e| {
            let primary = d.primary(&e.name).map(|p| p.id) == Some(e.id);
            (e.display_name(primary), e.kind, e.file)
        })
        .collect();
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}
