//! One benchmark run: set-up, the timed phase, and the metrics of both.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::calib::{self, Yardstick, ARENA_MIB, REFERENCE_NS};
use crate::counters::{used_blocks, Counters, C};
use crate::harness::{Bench, Class, GateLog, RunStats, BLOCK};
use crate::report::{fmt_num, median, tail, Metric, Ratio, Value};
use crate::trace::{self_times, Span, Tracer};
use crate::workloads::{self, Workload};

/// Replicas of every file (`WorldParams::default`).
const REPLICAS: u64 = 3;

/// Worlds per untraced run. Each is set up (`setup_s` is the median of
/// their set-up times) and runs its share of the rounds, so that the
/// timings come from three stretches of the run, each on a world no more
/// than a third as worn by the workload.
const WORLDS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Rounds in the timed phase.
    pub rounds: usize,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// A timed phase stops after the round that crosses this much wall
    /// time, so that a badly regressed program still exits in time.
    pub phase_limit: Duration,
}

/// A finished run.
pub struct Outcome {
    /// The gate held.
    pub correct: bool,
    /// Foreground ops attempted.
    pub attempted: u64,
    /// Foreground ops that returned an error.
    pub failed: u64,
    /// Every metric of the run.
    pub metrics: Vec<Metric>,
    /// The human-readable report.
    pub report: String,
    /// Spans of the traced phase, as TSV (traced runs only).
    pub spans_tsv: Option<Vec<u8>>,
}

/// What the timed phase on one world (or several, absorbed) measured.
struct Phase {
    stats: RunStats,
    gate: GateLog,
    tracer: Arc<Tracer>,
    yard: Yardstick,
    at_ref: RefTimes,
    counters: Counters,
    used_blocks: u64,
    live_blocks: u64,
    rounds: usize,
}

impl Phase {
    /// Foreground ops per wall second of the timed phase.
    fn ops_per_s(&self) -> f64 {
        self.stats.attempted() as f64 / self.timed_wall().as_secs_f64()
    }

    /// Foreground ops per second of the timed phase at reference speed.
    fn ref_ops_per_s(&self) -> f64 {
        self.stats.attempted() as f64 / self.at_ref.timed_s
    }

    /// Wall time of the timed phase: foreground ops plus sync points.
    fn timed_wall(&self) -> Duration {
        self.stats.op_wall + self.stats.sync_wall
    }

    /// Adds `o`, measured on another world.
    fn absorb(&mut self, o: Phase) {
        self.stats.absorb(o.stats);
        self.gate.absorb(o.gate);
        self.yard.absorb(o.yard);
        self.at_ref.absorb(o.at_ref);
        self.counters.absorb(o.counters);
        self.used_blocks += o.used_blocks;
        self.live_blocks += o.live_blocks;
        self.rounds += o.rounds;
    }
}

/// The timed phase's timings at reference speed: each round's, scaled by
/// the kernel times measured either side of it ([`calib::scale`]).
#[derive(Default)]
struct RefTimes {
    /// Latency samples per class, microseconds.
    lat_us: [Vec<f64>; 3],
    /// Wall time per sync point, milliseconds.
    sync_ms: Vec<f64>,
    /// Wall time of the timed phase, seconds.
    timed_s: f64,
}

impl RefTimes {
    /// Adds what `s` recorded since `from` (`RefTimes::mark`), at `scale`.
    fn add_round(&mut self, s: &RunStats, from: &([usize; 3], usize, Duration), scale: f64) {
        let (lat, sync, wall) = from;
        for (c, n) in lat.iter().enumerate() {
            self.lat_us[c].extend(s.lat_us[c][*n..].iter().map(|v| v * scale));
        }
        self.sync_ms
            .extend(s.sync_ms[*sync..].iter().map(|v| v * scale));
        self.timed_s += (s.op_wall + s.sync_wall - *wall).as_secs_f64() * scale;
    }

    /// Where `s` stands: samples per class, sync points, timed wall time.
    fn mark(s: &RunStats) -> ([usize; 3], usize, Duration) {
        (
            std::array::from_fn(|c| s.lat_us[c].len()),
            s.sync_ms.len(),
            s.op_wall + s.sync_wall,
        )
    }

    fn absorb(&mut self, o: RefTimes) {
        for (mine, theirs) in self.lat_us.iter_mut().zip(o.lat_us) {
            mine.extend(theirs);
        }
        self.sync_ms.extend(o.sync_ms);
        self.timed_s += o.timed_s;
    }
}

/// Converts a wall-clock timing metric to reference speed with one `scale`
/// for the whole phase ([`Yardstick::scale`]), keeping the wall-clock value
/// in the note. The per-layer metrics use it.
fn at_reference(mut m: Metric, scale: f64) -> Metric {
    let Value::Num(wall) = m.value else { return m };
    let v = match m.unit {
        "us" | "ms" | "s" => wall * scale,
        "1/s" => wall / scale,
        _ => return m,
    };
    m.value = Value::Num(v);
    m.note = format!("wall {}; {}", fmt_num(wall), m.note);
    m
}

/// A timing metric at reference speed, with its wall-clock value in the
/// note.
fn timing(name: &'static str, unit: &'static str, at_ref: f64, wall: f64, note: String) -> Metric {
    num(
        name,
        unit,
        at_ref,
        format!("wall {}; {note}", fmt_num(wall)),
    )
}

/// Rounds each world of an untraced run makes, of `rounds` in all.
fn per_world(rounds: usize) -> usize {
    (rounds / WORLDS).max(1)
}

/// Builds world `world` of the run: each world's inputs have a seed of
/// their own, derived from the run's.
fn build(opts: &Options, world: u64, traced: bool) -> Result<(Box<dyn Workload>, Bench), String> {
    let seed = opts.seed.wrapping_mul(WORLDS as u64).wrapping_add(world);
    let mut w = workloads::by_name(&opts.workload, seed)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let b = workloads::setup(w.as_mut(), traced);
    Ok((w, b))
}

fn measure(w: &mut dyn Workload, mut b: Bench, max_rounds: usize, limit: Duration) -> Phase {
    let mut yard = Yardstick::default();
    let mut at_ref = RefTimes::default();
    b.start_timed();
    let t0 = Instant::now();
    let mut rounds = 0;
    let mut before = yard.sample();
    while rounds < max_rounds && t0.elapsed() < limit {
        let mark = RefTimes::mark(&b.stats);
        w.run_round(&mut b, rounds);
        let after = yard.sample();
        at_ref.add_round(&b.stats, &mark, calib::scale(before, after));
        before = after;
        rounds += 1;
    }
    let counters = b.end_timed();
    let used_blocks = used_blocks(&b.world);
    b.check_gate(true);
    let Bench {
        stats,
        gate,
        tracer,
        model,
        ..
    } = b;
    Phase {
        stats,
        gate,
        tracer,
        yard,
        at_ref,
        counters,
        used_blocks,
        live_blocks: model.live_blocks(BLOCK),
        rounds,
    }
}

/// Runs the workload as `opts` says.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let t_run = Instant::now();
    let mut report = String::new();
    let (phase, metrics, spans_tsv) = if opts.trace {
        // The untraced baseline for the overhead, then the same rounds
        // traced on a fresh world: half the run's rounds each, so that a
        // traced run measures as long as an untraced one.
        let half = (opts.rounds / 2).max(1);
        let (mut w, b) = build(opts, 0, false)?;
        let plain = measure(w.as_mut(), b, half, opts.phase_limit);
        let plain_rate = plain.ref_ops_per_s();
        let (plain_rounds, plain_gate) = (plain.rounds, plain.gate.violations.clone());
        drop(plain);
        let (mut w, b) = build(opts, 0, true)?;
        let mut traced = measure(w.as_mut(), b, plain_rounds, opts.phase_limit);
        for v in plain_gate {
            traced
                .gate
                .violations
                .push(format!("untraced baseline: {v}"));
        }
        let spans = traced.tracer.spans();
        let mut tsv = Vec::new();
        traced
            .tracer
            .write_tsv(&mut tsv)
            .map_err(|e| format!("writing spans: {e}"))?;
        let metrics = per_layer(&traced, &spans, plain_rate);
        self_time_table(&spans, &mut report);
        (traced, metrics, Some(tsv))
    } else {
        // Set-up times, wall and at reference speed.
        let mut setup_s = (Vec::new(), Vec::new());
        let mut setup_yard = Yardstick::default();
        let mut phase: Option<Phase> = None;
        let rounds = per_world(opts.rounds);
        for world in 0..WORLDS as u64 {
            let before = setup_yard.sample();
            let t0 = Instant::now();
            let (mut w, b) = build(opts, world, false)?;
            let wall = t0.elapsed().as_secs_f64();
            setup_s.0.push(wall);
            setup_s
                .1
                .push(wall * calib::scale(before, setup_yard.sample()));
            let p = measure(w.as_mut(), b, rounds, opts.phase_limit / WORLDS as u32);
            match phase.as_mut() {
                Some(acc) => acc.absorb(p),
                None => phase = Some(p),
            }
        }
        let phase = phase.expect("at least one world");
        let metrics = end_to_end(&phase, &setup_s);
        (phase, metrics, None)
    };
    let correct = phase.gate.violations.is_empty();
    let mut head = String::new();
    let _ = writeln!(
        head,
        "workload {} seed {} {}: rounds {} of {}, ops {}, failed {}; wall: timed {:.3} s, \
         gate {:.3} s, run {:.3} s",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        phase.rounds,
        if opts.trace {
            opts.rounds
        } else {
            per_world(opts.rounds) * WORLDS
        },
        phase.stats.attempted(),
        phase.stats.failed,
        phase.timed_wall().as_secs_f64(),
        phase.gate.wall.as_secs_f64(),
        t_run.elapsed().as_secs_f64(),
    );
    let _ = writeln!(
        head,
        "yardstick: {:.3} ms per kernel over the timed phase (reference {:.3} ms), scale {:.4}",
        phase.yard.mean_ns() / 1e6,
        REFERENCE_NS / 1e6,
        phase.yard.scale()
    );
    for m in &metrics {
        let _ = writeln!(
            head,
            "  {:<34} {:>28} {:<6} {}",
            m.name,
            m.value.render(),
            m.unit,
            m.note
        );
    }
    let _ = writeln!(
        head,
        "gate: {} checks, {} violations; {} daemon calls failed; {} converged files \
         matching no write",
        phase.gate.checks,
        phase.gate.violations.len(),
        phase.stats.totals.errors,
        phase.gate.divergent_files,
    );
    for v in &phase.gate.violations {
        let _ = writeln!(head, "  VIOLATION {v}");
    }
    for v in &phase.gate.examples {
        let _ = writeln!(head, "  model: {v}");
    }
    for v in &phase.stats.wrong_reads {
        let _ = writeln!(head, "  wrong read: {v}");
    }
    for v in &phase.stats.failures {
        let _ = writeln!(head, "  failed op: {v}");
    }
    head.push_str(&report);
    Ok(Outcome {
        correct,
        attempted: phase.stats.attempted(),
        failed: phase.stats.failed,
        metrics,
        report: head,
        spans_tsv,
    })
}

fn num(name: &'static str, unit: &'static str, v: f64, note: impl Into<String>) -> Metric {
    Metric {
        name,
        unit,
        value: Value::Num(v),
        on_result_line: true,
        note: note.into(),
    }
}

fn ratio(name: &'static str, unit: &'static str, r: Ratio) -> Metric {
    Metric {
        name,
        unit,
        value: Value::Ratio(r),
        on_result_line: true,
        note: String::new(),
    }
}

fn report_only(mut m: Metric) -> Metric {
    m.on_result_line = false;
    m
}

/// Peak resident set of this process, MiB (`VmHWM`), less the yardstick's
/// arena.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0 - ARENA_MIB as f64)
}

/// Failed ops and stale and wrong reads. They are 0 when all is well, so
/// they carry no regression bound: the untraced report prints them, and the
/// traced run's result line carries them with the per-layer metrics.
fn outcome_ratios(s: &RunStats) -> [Metric; 3] {
    [
        ratio(
            "op_fail_ratio",
            "ratio",
            Ratio::new(s.failed as f64, s.attempted() as f64),
        ),
        ratio(
            "stale_read_ratio",
            "ratio",
            Ratio::new(s.stale as f64, s.reads as f64),
        ),
        ratio(
            "wrong_read_ratio",
            "ratio",
            Ratio::new(s.wrong as f64, s.reads as f64),
        ),
    ]
}

/// The end-to-end metrics; `setup_s` holds the set-up times, wall and at
/// reference speed.
fn end_to_end(p: &Phase, setup_s: &(Vec<f64>, Vec<f64>)) -> Vec<Metric> {
    let s = &p.stats;
    let r = &p.at_ref;
    let c = &p.counters;
    let mut out = vec![timing(
        "ops_per_s",
        "1/s",
        p.ref_ops_per_s(),
        p.ops_per_s(),
        format!(
            "{} ops / {:.3} s incl. sync points",
            s.attempted(),
            r.timed_s
        ),
    )];
    let names = [
        ("read_p50_us", "read_tail_us"),
        ("write_p50_us", "write_tail_us"),
        ("meta_p50_us", "meta_tail_us"),
    ];
    for (class, (p50, tl)) in Class::ALL.into_iter().zip(names) {
        let (lat, wall) = (&r.lat_us[class as usize], &s.lat_us[class as usize]);
        let t = tail(lat);
        out.push(timing(
            p50,
            "us",
            median(lat),
            median(wall),
            format!("n={}", lat.len()),
        ));
        out.push(timing(
            tl,
            "us",
            t.value,
            tail(wall).value,
            format!("{} of n={} ({} beyond)", t.label, t.samples, t.beyond),
        ));
    }
    out.push(timing(
        "converge_p50_ms",
        "ms",
        median(&r.sync_ms),
        median(&s.sync_ms),
        format!("median of {} sync points", s.sync_ms.len()),
    ));
    out.push(ratio(
        "wire_bytes_per_user_byte",
        "ratio",
        Ratio::new(c[C::WireBytes] as f64, s.user_bytes as f64),
    ));
    out.push(ratio(
        "disk_write_amp",
        "ratio",
        Ratio::new(c[C::DiskWrites] as f64, s.user_blocks as f64),
    ));
    let live = p.live_blocks * REPLICAS;
    out.push(ratio(
        "space_amp",
        "ratio",
        Ratio::new(p.used_blocks as f64, live as f64),
    ));
    out.extend(outcome_ratios(s).into_iter().map(report_only));
    let setups: Vec<String> = setup_s.1.iter().map(|v| format!("{v:.3}")).collect();
    out.push(timing(
        "setup_s",
        "s",
        median(&setup_s.1),
        median(&setup_s.0),
        format!("median of [{}]", setups.join(", ")),
    ));
    out.push(num(
        "peak_rss_mib",
        "MiB",
        peak_rss_mib(),
        "VmHWM less the yardstick arena",
    ));
    out
}

fn per_layer(p: &Phase, spans: &[Span], untraced_ops_per_s: f64) -> Vec<Metric> {
    let scale = p.yard.scale();
    let s = &p.stats;
    let t = &s.totals;
    let c = &p.counters;
    let ops = s.attempted() as f64;
    let [reads, writes, metas] = s.ops.map(|n| n as f64);
    let mut fg = Counters::default();
    for cc in &s.class_counters {
        fg.absorb(*cc);
    }
    let class = |k: Class, x: C| s.class_counters[k as usize][x] as f64;
    let f = |x: C| fg[x] as f64;
    let total = |x: C| c[x] as f64;
    let selfs = self_times(spans);
    let layer_us = |layer: &str, use_self: bool| -> (Vec<f64>, usize) {
        let v: Vec<f64> = spans
            .iter()
            .zip(&selfs)
            .filter(|(sp, _)| sp.layer() == layer && sp.op < (1 << 40))
            .map(|(sp, st)| (if use_self { *st } else { sp.dur_ns() }) as f64 / 1e3)
            .collect();
        let n = v.len();
        (v, n)
    };
    let (syscall_self, syscall_n) = layer_us("syscall", true);
    let (logical_incl, logical_n) = layer_us("logical", false);
    let busy_ms = |prefix: &str| -> f64 {
        s.daemon_busy
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, d)| d.as_secs_f64() * 1e3)
            .fold(0.0, |a, b| a + b)
    };
    let syncs = s.sync_ms.len() as f64;
    let traced_rate = p.ref_ops_per_s();
    let count = |name, v: u64| num(name, "count", v as f64, "");
    let per_op = |name, num: f64, den: f64| ratio(name, "ratio", Ratio::new(num, den));
    let mut out = vec![
        num(
            "syscall.self_us_p50",
            "us",
            median(&syscall_self),
            format!("n={syscall_n} Process calls"),
        ),
        per_op("logical.calls_per_op", logical_n as f64, ops),
        num(
            "logical.incl_us_p50",
            "us",
            median(&logical_incl),
            format!("n={logical_n}"),
        ),
        per_op("logical.selections_per_op", f(C::Selections), ops),
        per_op(
            "logical.notifications_per_write",
            class(Class::Write, C::Notifications),
            writes,
        ),
        per_op(
            "lcache.hit_ratio",
            f(C::LcacheHits),
            f(C::LcacheHits) + f(C::LcacheMisses),
        ),
        per_op("lcache.misses_per_op", f(C::LcacheMisses), ops),
        count("lcache.invalidations", c[C::LcacheInvalidations]),
        count("lcache.rpcs_avoided", c[C::LcacheRpcsAvoided]),
        per_op("net.rpcs_per_op", f(C::Rpcs), ops),
        per_op("net.rpc_bytes_per_op", f(C::RpcBytes), ops),
        per_op(
            "net.datagrams_per_write",
            class(Class::Write, C::DatagramsSent),
            writes,
        ),
        count("net.datagrams_dropped", c[C::DatagramsDropped]),
        count("net.rpcs_unreachable", c[C::RpcsUnreachable]),
        per_op("net.sim_ms_per_op", f(C::SimUs) / 1e3, ops),
        per_op(
            "chunks.written_per_write",
            class(Class::Write, C::ChunksWritten),
            writes,
        ),
        per_op(
            "chunks.reuse_ratio",
            total(C::ChunksReused),
            total(C::ChunksReused) + total(C::ChunksWritten),
        ),
        count("chunks.maps_committed", c[C::MapsCommitted]),
        count("chunks.commit_aborts", c[C::CommitAborts]),
        count("chunks.orphans_removed", c[C::OrphansRemoved]),
        count("changelog.appends", c[C::LogAppends]),
        count("changelog.full_walk_fallbacks", c[C::FullWalkFallbacks]),
        count("changelog.cursor_resets", c[C::CursorResets]),
        per_op(
            "ufs.cache_hit_ratio",
            total(C::CacheHits),
            total(C::CacheHits) + total(C::CacheMisses),
        ),
        per_op("ufs.cache_misses_per_op", f(C::CacheMisses), ops),
        per_op("ufs.writebacks_per_op", f(C::CacheWritebacks), ops),
        per_op("ufs.evictions_per_op", f(C::CacheEvictions), ops),
        per_op(
            "ufs.dnlc_hit_ratio",
            total(C::DnlcHits),
            total(C::DnlcHits) + total(C::DnlcMisses),
        ),
        count("ufs.used_blocks", p.used_blocks),
        per_op(
            "disk.reads_per_read",
            class(Class::Read, C::DiskReads),
            reads,
        ),
        per_op(
            "disk.writes_per_write",
            class(Class::Write, C::DiskWrites),
            writes,
        ),
        per_op(
            "disk.writes_per_meta",
            class(Class::Meta, C::DiskWrites),
            metas,
        ),
        count("disk.reads_total", c[C::DiskReads]),
        count("disk.writes_total", c[C::DiskWrites]),
        num("propagate.busy_ms", "ms", busy_ms("propagate."), ""),
        per_op("propagate.passes_per_sync", t.passes as f64, syncs),
        count("propagate.notes_pending_max", t.notes_pending_max),
        count("propagate.files_pulled", t.prop.files_pulled),
        count("propagate.bytes_fetched", t.prop.bytes_fetched),
        report_only(per_op(
            "propagate.block_reuse_ratio",
            t.prop.blocks_reused as f64,
            (t.prop.blocks_shipped + t.prop.blocks_reused) as f64,
        )),
        per_op(
            "propagate.already_current_ratio",
            t.prop.already_current as f64,
            t.prop.notes_taken as f64,
        ),
        count("propagate.requeued", t.prop.requeued),
        count("propagate.peers_skipped", t.prop.peers_skipped),
        num("recon.busy_ms", "ms", busy_ms("recon."), ""),
        count("recon.dirs_examined", t.recon.dirs_examined),
        count("recon.files_pulled", t.recon.files_pulled),
        count(
            "recon.entries_changed",
            t.recon.entries_inserted + t.recon.entries_tombstoned,
        ),
        report_only(per_op(
            "recon.useful_ratio",
            (t.recon.files_pulled + t.recon.entries_inserted + t.recon.entries_tombstoned) as f64,
            t.recon.dirs_examined as f64,
        )),
        count("recon.rpcs_saved", t.recon.rpcs_saved),
        count("recon.peers_failed", t.recon.peers_failed),
        count("recon.update_conflicts", t.recon.update_conflicts),
        num("resolver.busy_ms", "ms", busy_ms("resolver."), ""),
        count("resolver.attempted", t.resolve.attempted),
        count("resolver.resolved", t.resolve.resolved),
        count("resolver.declined", t.resolve.declined),
        count("resolver.bytes_merged", t.resolve.bytes_merged),
        num(
            "trace.overhead_pct",
            "%",
            100.0 * (untraced_ops_per_s - traced_rate) / untraced_ops_per_s,
            format!(
                "reference-speed ops/s untraced {untraced_ops_per_s:.1}, traced {traced_rate:.1}"
            ),
        ),
    ];
    out.extend(outcome_ratios(s));
    out.into_iter().map(|m| at_reference(m, scale)).collect()
}

/// Per span name: calls, inclusive and self time, median self time.
fn self_time_table(spans: &[Span], out: &mut String) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, (u64, Duration, Vec<f64>)> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += Duration::from_nanos(s.dur_ns());
        e.2.push(st as f64 / 1e3);
    }
    let _ = writeln!(
        out,
        "self time by span ({} spans)\n  {:<36} {:>8} {:>12} {:>12} {:>12}",
        spans.len(),
        "span",
        "calls",
        "incl_ms",
        "self_ms",
        "self_us_p50"
    );
    for (name, (n, incl, selfs)) in by_name {
        let self_ms: f64 = selfs.iter().sum::<f64>() / 1e3;
        let _ = writeln!(
            out,
            "  {name:<36} {n:>8} {:>12} {:>12} {:>12}",
            fmt_num(incl.as_secs_f64() * 1e3),
            fmt_num(self_ms),
            fmt_num(median(&selfs))
        );
    }
}
