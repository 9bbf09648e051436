//! The POSIX model every read is checked against.
//!
//! For each path the model keeps the current contents plus enough undo
//! information to rebuild every version acknowledged since the last sync
//! point, when the replicas converged; earlier versions may never be read
//! again, so the model forgets them. A read that
//! returns the current bytes is *current*. One that returns the bytes of an
//! earlier acknowledged version is *stale*, which is allowed only at a host
//! whose update notes have not arrived yet: the version must be no older
//! than the one the replicas converged on at the last sync point, nor than
//! the last one the reading host wrote itself. Anything else is *wrong*.

use std::collections::BTreeMap;

/// How a read compared with the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The latest acknowledged version.
    Current,
    /// An earlier acknowledged version.
    Stale,
    /// No acknowledged version.
    Wrong,
}

#[derive(Debug, Clone)]
enum Undo {
    /// The whole previous contents (truncating rewrite, rename over).
    Replace(Vec<u8>),
    /// A patch: the bytes it overwrote and the length before it.
    Patch {
        off: usize,
        old: Vec<u8>,
        old_len: usize,
    },
}

/// Versions are numbered from 0, the one the replicas converged on at the
/// last sync point (or an empty file created since), up to the current
/// one, `undo.len()`.
#[derive(Debug, Clone, Default)]
struct FileModel {
    cur: Vec<u8>,
    undo: Vec<Undo>,
    /// The last version each host wrote since the last sync point.
    written: BTreeMap<usize, usize>,
}

impl FileModel {
    fn current(&self) -> usize {
        self.undo.len()
    }

    /// The oldest version `host` may read.
    fn oldest_readable(&self, host: usize) -> usize {
        self.written.get(&host).copied().unwrap_or(0)
    }

    fn replace(&mut self, data: &[u8]) {
        let old = std::mem::replace(&mut self.cur, data.to_vec());
        self.undo.push(Undo::Replace(old));
    }

    /// Every acknowledged version, newest first.
    fn versions(&self) -> impl Iterator<Item = Vec<u8>> + '_ {
        let mut v = self.cur.clone();
        std::iter::once(v.clone()).chain(self.undo.iter().rev().map(move |u| {
            match u {
                Undo::Replace(old) => v.clone_from(old),
                Undo::Patch { off, old, old_len } => {
                    v[*off..*off + old.len()].copy_from_slice(old);
                    v.truncate(*old_len);
                }
            }
            v.clone()
        }))
    }
}

fn range(data: &[u8], off: usize, len: usize) -> &[u8] {
    let start = off.min(data.len());
    &data[start..(off.saturating_add(len)).min(data.len())]
}

/// The model of the whole name space.
#[derive(Debug, Clone, Default)]
pub struct Model {
    files: BTreeMap<String, FileModel>,
}

impl Model {
    /// Whether `path` names a file.
    #[must_use]
    pub fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Current size of `path` (0 when absent).
    #[must_use]
    pub fn size(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |f| f.cur.len())
    }

    /// Current contents of `path`.
    #[must_use]
    pub fn contents(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.cur.as_slice())
    }

    /// Every file path, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// `open(O_CREAT|O_TRUNC)` then a write of `data` at offset 0, on
    /// `host`.
    pub fn rewrite(&mut self, host: usize, path: &str, data: &[u8]) {
        let f = self.files.entry(path.to_owned()).or_default();
        f.replace(data);
        f.written.insert(host, f.current());
    }

    /// A write of `data` at `off` into an existing (or new, empty) file, on
    /// `host`.
    pub fn patch(&mut self, host: usize, path: &str, off: usize, data: &[u8]) {
        let f = self.files.entry(path.to_owned()).or_default();
        let old_len = f.cur.len();
        let end = off + data.len();
        let old = range(&f.cur, off, data.len()).to_vec();
        if f.cur.len() < end {
            f.cur.resize(end, 0);
        }
        f.cur[off..end].copy_from_slice(data);
        f.undo.push(Undo::Patch { off, old, old_len });
        f.written.insert(host, f.current());
    }

    /// `rename(from, to)` on `host`, replacing `to` if it exists.
    pub fn rename(&mut self, host: usize, from: &str, to: &str) {
        let Some(src) = self.files.remove(from) else {
            return;
        };
        let dst = self.files.entry(to.to_owned()).or_default();
        dst.replace(&src.cur);
        dst.written.insert(host, dst.current());
    }

    /// `unlink(path)`.
    pub fn unlink(&mut self, path: &str) {
        self.files.remove(path);
    }

    /// Classifies `got`, the bytes a read of `len` bytes at `off` on `host`
    /// returned.
    #[must_use]
    pub fn classify(&self, host: usize, path: &str, off: usize, len: usize, got: &[u8]) -> Verdict {
        let Some(f) = self.files.get(path) else {
            return Verdict::Wrong;
        };
        if range(&f.cur, off, len) == got {
            return Verdict::Current;
        }
        let readable = f.current() - f.oldest_readable(host) + 1;
        if f.versions()
            .take(readable)
            .skip(1)
            .any(|v| range(&v, off, len) == got)
        {
            Verdict::Stale
        } else {
            Verdict::Wrong
        }
    }

    /// Adopts `converged`, the contents every replica agreed on after a
    /// sync point, when it is an earlier acknowledged version no older than
    /// the last sync point's (a conflict resolver picked it). Returns
    /// `false` when it matches no such version.
    pub fn adopt(&mut self, path: &str, converged: &[u8]) -> bool {
        let Some(f) = self.files.get_mut(path) else {
            return false;
        };
        if f.cur == converged {
            return true;
        }
        if !f.versions().skip(1).any(|v| v == converged) {
            return false;
        }
        f.replace(converged);
        true
    }

    /// Ends a sync point: the replicas converged, so no host may read any
    /// version older than the current one from now on.
    pub fn settle(&mut self) {
        for f in self.files.values_mut() {
            f.undo.clear();
            f.written.clear();
        }
    }

    /// Blocks of `block_size` the live files occupy.
    #[must_use]
    pub fn live_blocks(&self, block_size: usize) -> u64 {
        self.files
            .values()
            .map(|f| f.cur.len().div_ceil(block_size) as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewrites_and_patches_keep_every_version() {
        let mut m = Model::default();
        m.rewrite(1, "/a", b"0123456789");
        m.patch(1, "/a", 8, b"XYZ");
        m.rewrite(1, "/a", b"abc");
        assert_eq!(m.classify(2, "/a", 0, 64, b"abc"), Verdict::Current);
        assert_eq!(m.classify(2, "/a", 0, 64, b"01234567XYZ"), Verdict::Stale);
        assert_eq!(m.classify(2, "/a", 0, 64, b"0123456789"), Verdict::Stale);
        // What a non-truncating open would leave behind.
        assert_eq!(m.classify(2, "/a", 0, 64, b"abc34567XYZ"), Verdict::Wrong);
        assert_eq!(m.classify(2, "/a", 1, 1, b"b"), Verdict::Current);
    }

    #[test]
    fn a_writer_never_reads_an_older_version_than_its_own() {
        let mut m = Model::default();
        m.rewrite(1, "/f", b"one");
        m.rewrite(2, "/f", b"two");
        m.rewrite(3, "/f", b"three");
        // Host 1 has not seen the later writes yet; host 2 has not seen
        // host 3's. Neither may go back before its own write.
        assert_eq!(m.classify(1, "/f", 0, 64, b"one"), Verdict::Stale);
        assert_eq!(m.classify(2, "/f", 0, 64, b"two"), Verdict::Stale);
        assert_eq!(m.classify(2, "/f", 0, 64, b"one"), Verdict::Wrong);
        assert_eq!(m.classify(3, "/f", 0, 64, b"two"), Verdict::Wrong);
    }

    #[test]
    fn no_host_reads_behind_the_last_sync_point() {
        let mut m = Model::default();
        m.rewrite(1, "/f", b"one");
        m.rewrite(1, "/f", b"two");
        assert_eq!(m.classify(2, "/f", 0, 64, b"one"), Verdict::Stale);
        m.settle();
        assert_eq!(m.classify(2, "/f", 0, 64, b"one"), Verdict::Wrong);
        m.rewrite(1, "/f", b"three");
        assert_eq!(m.classify(2, "/f", 0, 64, b"two"), Verdict::Stale);
        assert_eq!(m.classify(2, "/f", 0, 64, b"one"), Verdict::Wrong);
    }

    #[test]
    fn rename_over_keeps_the_target_history() {
        let mut m = Model::default();
        m.rewrite(1, "/s", b"old");
        m.rewrite(1, "/s.tmp", b"new");
        m.rename(1, "/s.tmp", "/s");
        assert!(!m.exists("/s.tmp"));
        assert_eq!(m.classify(1, "/s", 0, 64, b"new"), Verdict::Current);
        assert_eq!(m.classify(1, "/s", 0, 64, b"old"), Verdict::Wrong);
        assert_eq!(m.classify(2, "/s", 0, 64, b"old"), Verdict::Stale);
    }

    #[test]
    fn adopt_accepts_only_versions_since_the_last_sync_point() {
        let mut m = Model::default();
        m.rewrite(1, "/f", b"older");
        m.rewrite(1, "/f", b"zero");
        m.settle();
        m.rewrite(1, "/f", b"one");
        m.rewrite(2, "/f", b"two");
        assert!(m.adopt("/f", b"one"));
        assert_eq!(m.classify(3, "/f", 0, 64, b"one"), Verdict::Current);
        assert!(!m.adopt("/f", b"three"));
        assert!(!m.adopt("/f", b"older"));
        assert_eq!(m.live_blocks(4096), 1);
    }
}
