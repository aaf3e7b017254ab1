//! The benchmark's in-memory span recorder, the interval arithmetic that
//! turns spans into self and busy time, and the `/proc` readers for
//! process CPU and peak memory.
//!
//! Stage spans are recorded around calls into the workspace's public
//! functions, on the benchmark's own thread. Calls too frequent to keep
//! one record each — every `Resolver::query` the bench-side decorator
//! sees, on whichever worker thread made it — are leaf calls: they are
//! folded per (pass, parent stage, thread, name) into counts, busy time
//! and first/last instants, and their durations are kept for
//! percentiles. Nothing is written until the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded stage call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u32,
    /// The stage span that was open on the benchmark thread when this
    /// span started (0 for a top-level span).
    pub parent: u32,
    /// Which pass of the workload recorded it.
    pub run: u32,
    /// Dense per-process thread index.
    pub thread: u32,
    /// Call name, `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Process CPU (all threads) consumed over the span, when
    /// `/proc/self/stat` could be read.
    pub cpu_ns: Option<u64>,
}

impl Span {
    /// The span's wall-clock length.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Which fold a leaf call lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LeafKey {
    /// Pass number.
    pub run: u32,
    /// The stage span open on the benchmark thread (0 if none).
    pub parent: u32,
    /// Thread that made the calls.
    pub thread: u32,
    /// Call name.
    pub name: &'static str,
}

/// The folded leaf calls of one [`LeafKey`]. A thread makes its calls
/// one after another, so `busy_ns` is also the union of their intervals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeafTotals {
    /// Calls folded in.
    pub calls: u64,
    /// Summed call durations.
    pub busy_ns: u64,
    /// Start of the first call.
    pub first_ns: u64,
    /// End of the last call.
    pub last_ns: u64,
}

#[derive(Debug, Default)]
struct Leaves {
    totals: HashMap<LeafKey, LeafTotals>,
    durations: HashMap<(u32, &'static str), Vec<u32>>,
}

static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD_INDEX: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's dense index.
pub fn thread_index() -> u32 {
    THREAD_INDEX.with(|ix| *ix)
}

/// Records spans when enabled; when disabled, [`Tracer::stage`] only
/// times the call, which is what the untraced end-to-end passes need.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: AtomicU32,
    next_id: AtomicU32,
    current: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// Leaf folds, sharded by thread so concurrent workers do not
    /// contend on one lock (a key's thread fixes its shard).
    leaves: Vec<Mutex<Leaves>>,
}

const LEAF_SHARDS: usize = 16;

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: AtomicU32::new(0),
            next_id: AtomicU32::new(1),
            current: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
            leaves: (0..LEAF_SHARDS)
                .map(|_| Mutex::new(Leaves::default()))
                .collect(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag every later span with pass number `run`.
    pub fn set_run(&self, run: u32) {
        self.run.store(run, Ordering::Relaxed);
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` as a stage span named `name` and return its result with
    /// its wall-clock duration. Stages nest: spans started while `f`
    /// runs, on any thread, name this one as their parent.
    pub fn stage<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        if !self.enabled {
            let started = Instant::now();
            let out = f();
            return (out, started.elapsed());
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        let cpu_before = process_cpu_ns();
        let started = Instant::now();
        let out = f();
        let ended = Instant::now();
        let cpu_after = process_cpu_ns();
        self.current.store(parent, Ordering::SeqCst);
        let span = Span {
            id,
            parent,
            run: self.run.load(Ordering::Relaxed),
            thread: thread_index(),
            name,
            start_ns: self.ns(started),
            end_ns: self.ns(ended),
            cpu_ns: match (cpu_before, cpu_after) {
                (Some(a), Some(b)) => Some(b.saturating_sub(a)),
                _ => None,
            },
        };
        self.spans.lock().expect("span buffer lock").push(span);
        (out, ended - started)
    }

    /// Fold one leaf call under the currently open stage.
    pub fn leaf(&self, name: &'static str, started: Instant, ended: Instant) {
        if !self.enabled {
            return;
        }
        let key = LeafKey {
            run: self.run.load(Ordering::Relaxed),
            parent: self.current.load(Ordering::SeqCst),
            thread: thread_index(),
            name,
        };
        let (start_ns, end_ns) = (self.ns(started), self.ns(ended));
        let took = end_ns.saturating_sub(start_ns);
        let mut leaves = self.leaves[key.thread as usize % LEAF_SHARDS]
            .lock()
            .expect("leaf buffer lock");
        let totals = leaves.totals.entry(key).or_insert(LeafTotals {
            first_ns: start_ns,
            ..LeafTotals::default()
        });
        totals.calls += 1;
        totals.busy_ns += took;
        totals.first_ns = totals.first_ns.min(start_ns);
        totals.last_ns = totals.last_ns.max(end_ns);
        leaves
            .durations
            .entry((key.run, name))
            .or_default()
            .push(u32::try_from(took).unwrap_or(u32::MAX));
    }

    /// Every stage span recorded for pass `run`.
    pub fn spans_of(&self, run: u32) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock")
            .iter()
            .filter(|s| s.run == run)
            .copied()
            .collect()
    }

    /// Every leaf fold, in key order.
    fn folds(&self) -> Vec<(LeafKey, LeafTotals)> {
        let mut out: Vec<(LeafKey, LeafTotals)> = Vec::new();
        for shard in &self.leaves {
            let shard = shard.lock().expect("leaf buffer lock");
            out.extend(shard.totals.iter().map(|(k, t)| (*k, *t)));
        }
        out.sort_unstable_by_key(|(k, _)| *k);
        out
    }

    /// Every leaf fold of pass `run`, in key order.
    pub fn leaves_of(&self, run: u32) -> Vec<(LeafKey, LeafTotals)> {
        let mut folds = self.folds();
        folds.retain(|(k, _)| k.run == run);
        folds
    }

    /// Durations (ns) of every leaf call `name` in pass `run`.
    pub fn durations_of(&self, run: u32, name: &'static str) -> Vec<u32> {
        let mut out = Vec::new();
        for shard in &self.leaves {
            let shard = shard.lock().expect("leaf buffer lock");
            if let Some(durations) = shard.durations.get(&(run, name)) {
                out.extend_from_slice(durations);
            }
        }
        out
    }

    /// Stage spans plus leaf calls recorded so far.
    pub fn span_count(&self) -> u64 {
        let leaf_calls: u64 = self.folds().iter().map(|(_, t)| t.calls).sum();
        self.spans.lock().expect("span buffer lock").len() as u64 + leaf_calls
    }

    /// Write every stage span, then every leaf fold, as tab-separated
    /// lines, each section after its own column header, after a `# `
    /// header line.
    pub fn write_tsv(&self, out: &mut impl Write, header: &str) -> std::io::Result<()> {
        writeln!(out, "# {header}")?;
        writeln!(
            out,
            "id\tparent\trun\tthread\tname\tstart_ns\tend_ns\tcpu_ns"
        )?;
        for s in self.spans.lock().expect("span buffer lock").iter() {
            let cpu = s.cpu_ns.map_or_else(|| "-".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.run, s.thread, s.name, s.start_ns, s.end_ns, cpu
            )?;
        }
        writeln!(
            out,
            "leaf\tparent\trun\tthread\tname\tcalls\tbusy_ns\tfirst_ns\tlast_ns"
        )?;
        for (k, t) in self.folds() {
            writeln!(
                out,
                "leaf\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                k.parent, k.run, k.thread, k.name, t.calls, t.busy_ns, t.first_ns, t.last_ns
            )?;
        }
        out.flush()
    }
}

/// Total length covered by a set of half-open `[start, end)` intervals.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(a, b)| b > a).collect();
    sorted.sort_unstable();
    let mut total = 0u64;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in sorted {
        match current {
            Some((cs, ce)) if start <= ce => current = Some((cs, ce.max(end))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// A span's duration minus the part of it its children cover. Children
/// are clipped to the parent's interval first.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .collect();
    pe.saturating_sub(ps) - union_len(&clipped).min(pe.saturating_sub(ps))
}

/// Self time of a parallel call, computed per thread from its leaf
/// folds: for every thread that made leaf calls inside `parent`, the
/// stretch from its first call's start to its last call's end (clipped
/// to the parent) minus the time spent in those calls, summed over the
/// threads. This is worker time spent inside the call between its leaf
/// calls, and it stays right when a call runs several short-lived
/// worker pools one after another.
pub fn per_thread_self_time(parent: &Span, leaves: &[(LeafKey, LeafTotals)]) -> u64 {
    let mut by_thread: HashMap<u32, (u64, u64, u64)> = HashMap::new();
    for (key, t) in leaves.iter().filter(|(k, _)| k.parent == parent.id) {
        let first = t.first_ns.max(parent.start_ns);
        let last = t.last_ns.min(parent.end_ns);
        let entry = by_thread.entry(key.thread).or_insert((first, last, 0));
        entry.0 = entry.0.min(first);
        entry.1 = entry.1.max(last);
        entry.2 += t.busy_ns;
    }
    by_thread
        .values()
        .map(|&(first, last, busy)| last.saturating_sub(first).saturating_sub(busy))
        .sum()
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual reporting percentiles that still leaves at
/// least ten of `n` samples beyond its nearest-rank position, or `None`
/// below twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // Per-mille, so the rank arithmetic stays exact.
    [999usize, 990, 950, 900, 500]
        .into_iter()
        .find(|&pm| n - (n * pm).div_ceil(1000) >= 10)
        .map(|pm| pm as f64 / 10.0)
}

/// Median of an unsorted list (mean of the middle pair for even length).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (Linux
/// `USER_HZ`, 100 on every mainstream architecture).
const USER_HZ: u64 = 100;

/// User + system CPU of the whole process, from `/proc/self/stat`
/// (10 ms resolution).
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000_000 / USER_HZ))
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent: 0,
            run: 0,
            thread,
            name: "t",
            start_ns,
            end_ns,
            cpu_ns: None,
        }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty_intervals() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10)]), 10);
        assert_eq!(union_len(&[(0, 10), (5, 15)]), 15);
        assert_eq!(union_len(&[(20, 30), (0, 10)]), 20);
        assert_eq!(union_len(&[(0, 10), (10, 20)]), 20);
        assert_eq!(union_len(&[(0, 100), (10, 20), (30, 40)]), 100);
        assert_eq!(union_len(&[(5, 5), (7, 3)]), 0);
    }

    #[test]
    fn self_time_subtracts_the_clipped_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (15, 30)]), 80);
        // Children reaching outside the parent only count inside it.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((0, 100), &[(0, 100), (0, 100)]), 0);
    }

    fn fold(
        parent: u32,
        thread: u32,
        calls: u64,
        busy: u64,
        first: u64,
        last: u64,
    ) -> (LeafKey, LeafTotals) {
        (
            LeafKey {
                run: 0,
                parent,
                thread,
                name: "q",
            },
            LeafTotals {
                calls,
                busy_ns: busy,
                first_ns: first,
                last_ns: last,
            },
        )
    }

    #[test]
    fn per_thread_self_time_sums_each_worker_separately() {
        let parent = span(1, 0, 0, 100);
        let leaves = [
            // Thread 1: calls from 0 to 40, 40 of it in calls.
            fold(1, 1, 2, 40, 0, 40),
            // Thread 2: two folds (e.g. two outcome buckets) from 50 to
            // 120, clipped to the parent's end; 20 in calls.
            fold(1, 2, 1, 10, 50, 60),
            fold(1, 2, 1, 10, 90, 120),
            // Another stage's calls do not count.
            fold(9, 3, 5, 1, 0, 100),
        ];
        assert_eq!(per_thread_self_time(&parent, &leaves), 30);
        assert_eq!(per_thread_self_time(&parent, &[]), 0);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn stage_spans_nest_and_leaves_fold_under_the_open_stage() {
        let tracer = Tracer::new(true);
        tracer.set_run(7);
        let (value, _) = tracer.stage("outer", || {
            tracer.stage("inner", || {
                let now = Instant::now();
                tracer.leaf("leaf", now, now + Duration::from_nanos(5));
                tracer.leaf("leaf", now, now + Duration::from_nanos(7));
            });
            42
        });
        assert_eq!(value, 42);
        let spans = tracer.spans_of(7);
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).expect("span");
        let (outer, inner) = (by_name("outer"), by_name("inner"));
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let leaves = tracer.leaves_of(7);
        assert_eq!(leaves.len(), 1);
        let (key, totals) = leaves[0];
        assert_eq!((key.parent, key.name), (inner.id, "leaf"));
        assert_eq!((totals.calls, totals.busy_ns), (2, 12));
        assert_eq!(tracer.durations_of(7, "leaf"), vec![5, 7]);
        assert_eq!(tracer.span_count(), 4);
        assert!(tracer.spans_of(8).is_empty() && tracer.leaves_of(8).is_empty());

        let off = Tracer::new(false);
        let (value, _) = off.stage("outer", || 1);
        off.leaf("leaf", Instant::now(), Instant::now());
        assert_eq!(value, 1);
        assert_eq!(off.span_count(), 0);
    }
}
