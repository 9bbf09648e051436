//! Snapshots of every public stats getter of a [`FicusWorld`], summed over
//! hosts, so that the benchmark can diff them around any stretch of work.

use std::ops::{Index, Sub};

use ficus_core::FicusWorld;
use ficus_vnode::{FileSystem, TimeSource};

/// One counter of a [`Counters`] reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum C {
    Rpcs,
    RpcBytes,
    RpcsUnreachable,
    DatagramsSent,
    DatagramsDropped,
    WireBytes,
    SimUs,
    DiskReads,
    DiskWrites,
    CacheHits,
    CacheMisses,
    CacheWritebacks,
    CacheEvictions,
    DnlcHits,
    DnlcMisses,
    Selections,
    Notifications,
    LcacheHits,
    LcacheMisses,
    LcacheInvalidations,
    LcacheRpcsAvoided,
    ChunksWritten,
    ChunksReused,
    MapsCommitted,
    CommitAborts,
    OrphansRemoved,
    LogAppends,
    FullWalkFallbacks,
    CursorResets,
}

/// Number of counters.
const N: usize = C::CursorResets as usize + 1;

/// A point-in-time reading of every counter (or the difference of two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters([u64; N]);

impl Default for Counters {
    fn default() -> Self {
        Counters([0; N])
    }
}

impl Index<C> for Counters {
    type Output = u64;

    fn index(&self, c: C) -> &u64 {
        &self.0[c as usize]
    }
}

impl Sub for Counters {
    type Output = Counters;

    fn sub(self, earlier: Counters) -> Counters {
        let mut out = self;
        for (o, e) in out.0.iter_mut().zip(earlier.0) {
            *o = o.saturating_sub(e);
        }
        out
    }
}

impl Counters {
    /// Reads every getter of `world`, summing per-host values.
    #[must_use]
    pub fn capture(world: &FicusWorld) -> Counters {
        let mut c = Counters::default();
        let net = world.net().stats();
        c.0[C::Rpcs as usize] = net.rpcs;
        c.0[C::RpcBytes as usize] = net.rpc_request_bytes + net.rpc_reply_bytes;
        c.0[C::RpcsUnreachable as usize] = net.rpcs_unreachable;
        c.0[C::DatagramsSent as usize] = net.datagrams_sent;
        c.0[C::DatagramsDropped as usize] = net.datagrams_dropped;
        c.0[C::WireBytes as usize] = net.total_bytes();
        c.0[C::SimUs as usize] = world.clock().now().0;
        let vol = world.root_volume();
        for h in world.host_ids() {
            let host = world.host(h);
            let disk = host.ufs.disk().stats();
            let cache = host.ufs.cache().stats();
            let dnlc = host.ufs.dnlc().stats();
            let logical = host.logical.stats();
            let mut add = |k: C, v: u64| c.0[k as usize] += v;
            add(C::DiskReads, disk.reads);
            add(C::DiskWrites, disk.writes);
            add(C::CacheHits, cache.hits);
            add(C::CacheMisses, cache.misses);
            add(C::CacheWritebacks, cache.writebacks);
            add(C::CacheEvictions, cache.evictions);
            add(C::DnlcHits, dnlc.hits);
            add(C::DnlcMisses, dnlc.misses);
            add(C::Selections, logical.selections);
            add(C::Notifications, logical.notifications);
            add(C::LcacheHits, logical.cache_hits);
            add(C::LcacheMisses, logical.cache_misses);
            add(C::LcacheInvalidations, logical.invalidations);
            add(C::LcacheRpcsAvoided, logical.rpcs_avoided);
            if let Some(phys) = world.phys(h, vol) {
                let chunks = phys.chunk_stats();
                let log = phys.changelog_stats();
                add(C::ChunksWritten, chunks.chunks_written);
                add(C::ChunksReused, chunks.chunks_reused);
                add(C::MapsCommitted, chunks.maps_committed);
                add(C::CommitAborts, chunks.commit_aborts);
                add(C::OrphansRemoved, chunks.orphan_chunks_removed);
                add(C::LogAppends, log.log_appends);
                add(C::FullWalkFallbacks, log.full_walk_fallbacks);
                add(C::CursorResets, log.cursor_resets);
            }
        }
        c
    }

    /// Adds `delta` into `self`, counter by counter.
    pub fn absorb(&mut self, delta: Counters) {
        for (o, d) in self.0.iter_mut().zip(delta.0) {
            *o += d;
        }
    }
}

/// Blocks in use on every host's UFS, from `statfs`.
#[must_use]
pub fn used_blocks(world: &FicusWorld) -> u64 {
    world
        .host_ids()
        .into_iter()
        .filter_map(|h| world.host(h).ufs.statfs().ok())
        .map(|s| s.total_blocks - s.free_blocks)
        .sum()
}
