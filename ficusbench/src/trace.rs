//! In-memory spans and the pass-through layer that records them.
//!
//! A [`Tracer`] keeps every span of a traced run in memory and writes them
//! out when the run ends. The benchmark opens a root span around each
//! `Process` call and a span around each daemon entry point; [`TracedFs`]
//! sits between `Process` and `FicusLogical` and opens a child span for
//! every vnode operation that crosses it. The program itself is not
//! instrumented: every span is recorded from the benchmark's own files.

use std::any::Any;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use bytes::Bytes;
use ficus_vnode::{
    AccessMode, Credentials, DirEntry, FileSystem, FsError, FsResult, FsStats, OpenFlags, SetAttr,
    Vnode, VnodeAttr, VnodeRef, VnodeType,
};

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `logical.lookup`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The foreground operation (or sync point) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Inclusive duration.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer part of the name (`logical` for `logical.lookup`).
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// The span recorder. Disabled or paused tracers record nothing and cost
/// one branch per call.
pub struct Tracer {
    enabled: bool,
    paused: AtomicBool,
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    #[must_use]
    pub fn new(enabled: bool) -> Arc<Self> {
        Arc::new(Tracer {
            enabled,
            paused: AtomicBool::new(false),
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    /// Whether spans are being recorded right now.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled && !self.paused.load(Ordering::Relaxed)
    }

    /// Stops (`true`) or resumes (`false`) recording, e.g. around set-up.
    pub fn pause(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        // Every update leaves the span list valid, so a guard poisoned by a
        // panic elsewhere is still safe to use.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&self, op: u64) {
        if self.enabled() {
            self.state().op = op;
        }
    }

    /// Opens a span under the innermost open one; it closes when the guard
    /// drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                tracer: self,
                idx: None,
            };
        }
        let start_ns = self.now_ns();
        let mut st = self.state();
        let idx = st.spans.len();
        let parent = st.open.last().copied();
        let op = st.op;
        st.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        st.open.push(idx);
        SpanGuard {
            tracer: self,
            idx: Some(idx),
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// Writes the spans as tab-separated lines:
    /// `index name start_ns end_ns parent op` (parent `-` for roots).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\top")?;
        for (i, s) in self.state().spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        Ok(())
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(idx) = self.idx else { return };
        let end = self.tracer.now_ns();
        let mut st = self.tracer.state();
        if let Some(s) = st.spans.get_mut(idx) {
            s.end_ns = end;
        }
        st.open.pop();
    }
}

/// Self time of each span: its duration minus what its direct children
/// cover. Children of one span never overlap (the run is single-threaded).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// A pass-through layer that records a `logical.<op>` span for every
/// vnode operation, then forwards it unchanged.
pub struct TracedFs {
    lower: Arc<dyn FileSystem>,
    tracer: Arc<Tracer>,
}

impl TracedFs {
    /// Interposes the layer over `lower`.
    #[must_use]
    pub fn new(lower: Arc<dyn FileSystem>, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(TracedFs { lower, tracer })
    }
}

impl FileSystem for TracedFs {
    fn root(&self) -> VnodeRef {
        let _s = self.tracer.span("logical.root");
        Arc::new(TracedVnode {
            lower: self.lower.root(),
            tracer: Arc::clone(&self.tracer),
        })
    }

    fn statfs(&self) -> FsResult<FsStats> {
        let _s = self.tracer.span("logical.statfs");
        self.lower.statfs()
    }

    fn sync(&self) -> FsResult<()> {
        let _s = self.tracer.span("logical.sync");
        self.lower.sync()
    }
}

struct TracedVnode {
    lower: VnodeRef,
    tracer: Arc<Tracer>,
}

impl TracedVnode {
    fn wrap(&self, lower: FsResult<VnodeRef>) -> FsResult<VnodeRef> {
        Ok(Arc::new(TracedVnode {
            lower: lower?,
            tracer: Arc::clone(&self.tracer),
        }))
    }

    fn unwrap_peer(peer: &VnodeRef) -> FsResult<&VnodeRef> {
        peer.as_any()
            .downcast_ref::<TracedVnode>()
            .map(|n| &n.lower)
            .ok_or(FsError::Xdev)
    }
}

impl Vnode for TracedVnode {
    fn kind(&self) -> VnodeType {
        self.lower.kind()
    }

    fn fsid(&self) -> u64 {
        self.lower.fsid()
    }

    fn fileid(&self) -> u64 {
        self.lower.fileid()
    }

    fn getattr(&self, cred: &Credentials) -> FsResult<VnodeAttr> {
        let _s = self.tracer.span("logical.getattr");
        self.lower.getattr(cred)
    }

    fn setattr(&self, cred: &Credentials, set: &SetAttr) -> FsResult<VnodeAttr> {
        let _s = self.tracer.span("logical.setattr");
        self.lower.setattr(cred, set)
    }

    fn access(&self, cred: &Credentials, mode: AccessMode) -> FsResult<()> {
        let _s = self.tracer.span("logical.access");
        self.lower.access(cred, mode)
    }

    fn open(&self, cred: &Credentials, flags: OpenFlags) -> FsResult<()> {
        let _s = self.tracer.span("logical.open");
        self.lower.open(cred, flags)
    }

    fn close(&self, cred: &Credentials, flags: OpenFlags) -> FsResult<()> {
        let _s = self.tracer.span("logical.close");
        self.lower.close(cred, flags)
    }

    fn read(&self, cred: &Credentials, offset: u64, len: usize) -> FsResult<Bytes> {
        let _s = self.tracer.span("logical.read");
        self.lower.read(cred, offset, len)
    }

    fn write(&self, cred: &Credentials, offset: u64, data: &[u8]) -> FsResult<usize> {
        let _s = self.tracer.span("logical.write");
        self.lower.write(cred, offset, data)
    }

    fn fsync(&self, cred: &Credentials) -> FsResult<()> {
        let _s = self.tracer.span("logical.fsync");
        self.lower.fsync(cred)
    }

    fn lookup(&self, cred: &Credentials, name: &str) -> FsResult<VnodeRef> {
        let _s = self.tracer.span("logical.lookup");
        self.wrap(self.lower.lookup(cred, name))
    }

    fn create(&self, cred: &Credentials, name: &str, mode: u32) -> FsResult<VnodeRef> {
        let _s = self.tracer.span("logical.create");
        self.wrap(self.lower.create(cred, name, mode))
    }

    fn mkdir(&self, cred: &Credentials, name: &str, mode: u32) -> FsResult<VnodeRef> {
        let _s = self.tracer.span("logical.mkdir");
        self.wrap(self.lower.mkdir(cred, name, mode))
    }

    fn remove(&self, cred: &Credentials, name: &str) -> FsResult<()> {
        let _s = self.tracer.span("logical.remove");
        self.lower.remove(cred, name)
    }

    fn rmdir(&self, cred: &Credentials, name: &str) -> FsResult<()> {
        let _s = self.tracer.span("logical.rmdir");
        self.lower.rmdir(cred, name)
    }

    fn rename(&self, cred: &Credentials, from: &str, to_dir: &VnodeRef, to: &str) -> FsResult<()> {
        let _s = self.tracer.span("logical.rename");
        self.lower
            .rename(cred, from, Self::unwrap_peer(to_dir)?, to)
    }

    fn link(&self, cred: &Credentials, target: &VnodeRef, name: &str) -> FsResult<()> {
        let _s = self.tracer.span("logical.link");
        self.lower.link(cred, Self::unwrap_peer(target)?, name)
    }

    fn symlink(&self, cred: &Credentials, name: &str, target: &str) -> FsResult<VnodeRef> {
        let _s = self.tracer.span("logical.symlink");
        self.wrap(self.lower.symlink(cred, name, target))
    }

    fn readlink(&self, cred: &Credentials) -> FsResult<String> {
        let _s = self.tracer.span("logical.readlink");
        self.lower.readlink(cred)
    }

    fn readdir(&self, cred: &Credentials, cookie: u64, count: usize) -> FsResult<Vec<DirEntry>> {
        let _s = self.tracer.span("logical.readdir");
        self.lower.readdir(cred, cookie, count)
    }

    fn ioctl(&self, cred: &Credentials, cmd: u32, data: &[u8]) -> FsResult<Vec<u8>> {
        let _s = self.tracer.span("logical.ioctl");
        self.lower.ioctl(cred, cmd, data)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
