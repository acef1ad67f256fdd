//! The static-key metrics registry.
//!
//! Writers record into a per-thread shard (one uncontended mutex lock per
//! record); [`snapshot`] merges every shard that ever existed into
//! `BTreeMap`s. Merging is commutative — counters and histogram bins sum,
//! gauges take the maximum — so the merged totals are independent of thread
//! count and scheduling, which is what makes sweep-level metrics
//! reproducible. Shards of finished threads stay registered (the global
//! list holds an `Arc` clone), so nothing recorded is ever lost to thread
//! teardown.
//!
//! Keys are `&'static str` by design: the set of metrics is part of the
//! program, not of the data, and static keys keep the disabled path free of
//! any formatting or allocation.

use simcore::Histogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the registry is currently recording. Instrumented sites check
/// this first; when `false` they cost one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn recording on or off. Prefer [`recording`] (RAII + reset +
/// exclusivity) unless managing the flag manually.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Binning of a distribution metric: `bins` equal-width bins over
/// `[lo, hi)` plus under/overflow buckets. Every record site for a given
/// key must pass the same spec (the merge asserts identical binning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSpec {
    /// Inclusive lower bound of the binned range.
    pub lo: f64,
    /// Exclusive upper bound of the binned range.
    pub hi: f64,
    /// Number of equal-width bins.
    pub bins: usize,
}

#[derive(Default)]
struct Shard {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
    dists: BTreeMap<&'static str, Histogram>,
}

/// Every shard ever created, including those of finished threads.
static SHARDS: Mutex<Vec<Arc<Mutex<Shard>>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: Arc<Mutex<Shard>> = {
        let shard = Arc::new(Mutex::new(Shard::default()));
        shards_lock().push(Arc::clone(&shard));
        shard
    };
}

/// Lock a registry mutex, surviving poisoning: a panicking test thread must
/// not wedge every later telemetry user in the process.
fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn shards_lock() -> MutexGuard<'static, Vec<Arc<Mutex<Shard>>>> {
    lock_or_recover(&SHARDS)
}

/// Add `delta` to the counter `key` (no-op when disabled).
#[inline]
pub fn counter_add(key: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|s| *lock_or_recover(s).counters.entry(key).or_insert(0) += delta);
}

/// Add a whole batch of counter deltas with a single shard access (one
/// thread-local lookup, one uncontended lock) instead of one per entry.
/// Zero-delta entries are skipped, so hot loops can accumulate into a
/// fixed, unconditionally-incremented scratch block and flush it wholesale
/// — the engine does this once per beacon period for its own per-window
/// counters. Sites whose key set is not known at the call site (the
/// protocol- and crypto-layer event counters) use [`LocalCounter`]
/// instead, which batches per thread rather than per call.
#[inline]
pub fn counter_add_many(entries: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    LOCAL.with(|s| {
        let mut shard = lock_or_recover(s);
        for &(key, delta) in entries {
            if delta != 0 {
                *shard.counters.entry(key).or_insert(0) += delta;
            }
        }
    });
}

/// Names of every [`LocalCounter`] that has been assigned a pending slot,
/// indexed by slot. Slots are process-global and monotonic; the pending
/// vectors below are indexed by the same slots.
static LOCAL_KEYS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    /// Per-thread pending deltas for [`LocalCounter`]s, indexed by slot.
    /// Moved into the thread's shard by [`flush_local`].
    static PENDING: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A statically-declared counter that accumulates into a plain per-thread
/// vector slot (no lock, no map lookup) and is folded into the registry by
/// [`flush_local`]. This is the per-event-site complement of
/// [`counter_add_many`]: `counter_add_many` batches a *fixed block* of keys
/// once per loop iteration, while `LocalCounter` batches *scattered* event
/// sites (µTESLA verdicts, SSTSP accept/reject classification) whose
/// firing pattern is data-dependent. An [`add`](LocalCounter::add) costs a
/// relaxed load plus a thread-local vector index — cheap enough that
/// telemetry-enabled runs stay within a few percent of disabled ones.
///
/// Deltas become visible to [`snapshot`] only after a flush. The registry
/// flushes the calling thread automatically in [`snapshot`] and when a
/// [`RecordingGuard`] drops. Any other thread must call [`flush_local`]
/// before it exits, or its pending deltas are lost with it: the sweep
/// pool's threads exit after each batch, and the engine's end-of-run
/// `flush_local` is what lands their counters.
pub struct LocalCounter {
    name: &'static str,
    /// `0` = unassigned; otherwise `slot + 1`.
    slot: AtomicUsize,
}

impl LocalCounter {
    /// Declare a counter with the given static key. Intended for
    /// `static C: LocalCounter = LocalCounter::new("...")` at the site.
    pub const fn new(name: &'static str) -> Self {
        LocalCounter {
            name,
            slot: AtomicUsize::new(0),
        }
    }

    /// Add `delta` to this counter's per-thread pending slot (no-op when
    /// disabled).
    #[inline]
    pub fn add(&self, delta: u64) {
        if !enabled() {
            return;
        }
        self.record(delta);
    }

    #[inline]
    fn record(&self, delta: u64) {
        let slot = match self.slot.load(Ordering::Acquire) {
            0 => self.assign_slot(),
            s => s - 1,
        };
        PENDING.with(|p| {
            let mut pending = p.borrow_mut();
            if pending.len() <= slot {
                pending.resize(slot + 1, 0);
            }
            pending[slot] += delta;
        });
    }

    #[cold]
    fn assign_slot(&self) -> usize {
        let mut keys = lock_or_recover(&LOCAL_KEYS);
        // Double-check under the lock: another thread may have raced us to
        // the assignment.
        let cur = self.slot.load(Ordering::Acquire);
        if cur != 0 {
            return cur - 1;
        }
        keys.push(self.name);
        let slot = keys.len() - 1;
        self.slot.store(slot + 1, Ordering::Release);
        slot
    }
}

/// Fold the calling thread's pending [`LocalCounter`] deltas into its
/// registry shard (one key-table lock + one shard lock for the whole
/// batch; free when nothing is pending). Called automatically by
/// [`snapshot`] and on [`RecordingGuard`] drop for the dropping thread.
pub fn flush_local() {
    PENDING.with(|p| {
        let mut pending = p.borrow_mut();
        if pending.iter().all(|&v| v == 0) {
            return;
        }
        let keys = lock_or_recover(&LOCAL_KEYS);
        LOCAL.with(|s| {
            let mut shard = lock_or_recover(s);
            for (slot, v) in pending.iter_mut().enumerate() {
                if *v != 0 {
                    *shard.counters.entry(keys[slot]).or_insert(0) += *v;
                    *v = 0;
                }
            }
        });
    });
}

/// Raise the gauge `key` to at least `value` (no-op when disabled). Gauges
/// merge by maximum — the only order-independent choice for a
/// "high-water mark" observable like peak queue depth.
#[inline]
pub fn gauge_max(key: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|s| {
        let mut shard = lock_or_recover(s);
        let g = shard.gauges.entry(key).or_insert(0);
        *g = (*g).max(value);
    });
}

/// Record `value` into the distribution `key` binned by `spec` (no-op when
/// disabled).
#[inline]
pub fn dist_record(key: &'static str, spec: DistSpec, value: f64) {
    if !enabled() {
        return;
    }
    LOCAL.with(|s| {
        lock_or_recover(s)
            .dists
            .entry(key)
            .or_insert_with(|| Histogram::new(spec.lo, spec.hi, spec.bins))
            .record(value);
    });
}

/// Merge a locally-accumulated histogram into the distribution `key` with
/// a single shard access (no-op when disabled or when `hist` is empty).
/// The batch-sink complement of [`dist_record`]: a hot loop that records
/// one sample per iteration (the engine records the clock spread once per
/// beacon period) accumulates into its own [`Histogram`] and folds it in
/// wholesale at the end of the run — one lock per run instead of one lock
/// plus one key lookup per sample. The merged totals are identical to
/// per-sample [`dist_record`] calls because bin merge is commutative; the
/// binning must match any samples already recorded under `key` (asserted
/// by [`Histogram::merge`]).
pub fn dist_merge(key: &'static str, hist: &Histogram) {
    if !enabled() || hist.count() == 0 {
        return;
    }
    LOCAL.with(|s| {
        let mut shard = lock_or_recover(s);
        match shard.dists.get_mut(key) {
            Some(acc) => acc.merge(hist),
            None => {
                shard.dists.insert(key, hist.clone());
            }
        }
    });
}

/// A deterministic merged view of every shard.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter totals (summed across shards), sorted by key.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge high-water marks (max across shards), sorted by key.
    pub gauges: BTreeMap<&'static str, u64>,
    /// Merged distributions, sorted by key.
    pub dists: BTreeMap<&'static str, Histogram>,
}

impl Snapshot {
    /// Counter total for `key` (0 when never recorded).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Gauge value for `key` (`None` when never recorded).
    pub fn gauge(&self, key: &str) -> Option<u64> {
        self.gauges.get(key).copied()
    }

    /// Plain-text rendering, one metric per line, keys sorted. Distribution
    /// lines report count, p50/p99 (flagging out-of-range tail estimates
    /// rather than clamping them — see `Histogram::quantile`), and
    /// under/overflow counts.
    pub fn render_text(&self) -> String {
        use simcore::stats::QuantileEstimate;
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("counter {k} = {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge   {k} = {v}\n"));
        }
        let render_q = |q: Option<QuantileEstimate>| match q {
            Some(QuantileEstimate::Value(v)) => format!("{v:.3}"),
            Some(QuantileEstimate::BelowRange) => "<lo".to_string(),
            Some(QuantileEstimate::AboveRange) => ">=hi".to_string(),
            None => "-".to_string(),
        };
        for (k, h) in &self.dists {
            out.push_str(&format!(
                "dist    {k}: n={} p50={} p99={} underflow={} overflow={}\n",
                h.count(),
                render_q(h.quantile(0.5)),
                render_q(h.quantile(0.99)),
                h.underflow(),
                h.overflow(),
            ));
        }
        out
    }
}

/// Merge every shard into a [`Snapshot`]. Deterministic: commutative
/// per-key merges plus sorted maps make the result independent of shard
/// order and thread interleaving.
pub fn snapshot() -> Snapshot {
    flush_local();
    let shards = shards_lock();
    let mut snap = Snapshot::default();
    for shard in shards.iter() {
        let shard = lock_or_recover(shard);
        for (&k, &v) in &shard.counters {
            *snap.counters.entry(k).or_insert(0) += v;
        }
        for (&k, &v) in &shard.gauges {
            let g = snap.gauges.entry(k).or_insert(0);
            *g = (*g).max(v);
        }
        for (&k, h) in &shard.dists {
            match snap.dists.get_mut(k) {
                Some(acc) => acc.merge(h),
                None => {
                    snap.dists.insert(k, h.clone());
                }
            }
        }
    }
    snap
}

/// Clear every shard's data (registrations survive; threads keep writing
/// into their existing shards).
pub fn reset() {
    let shards = shards_lock();
    for shard in shards.iter() {
        let mut shard = lock_or_recover(shard);
        shard.counters.clear();
        shard.gauges.clear();
        shard.dists.clear();
    }
    drop(shards);
    // Discard the calling thread's pending local-counter deltas too — a
    // fresh session must not inherit them.
    PENDING.with(|p| p.borrow_mut().fill(0));
}

/// Serializes recording sessions: one consumer (a CLI invocation, a test)
/// owns the registry at a time. Threads *within* a session record freely.
static SESSION: Mutex<()> = Mutex::new(());

/// RAII handle for an exclusive recording session (see [`recording`]).
pub struct RecordingGuard {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for RecordingGuard {
    fn drop(&mut self) {
        // Fold any still-pending local-counter deltas into the shard before
        // recording stops, so a snapshot taken after the session still sees
        // everything the session recorded on this thread.
        flush_local();
        set_enabled(false);
    }
}

/// Start an exclusive recording session: takes the session lock (blocking
/// out concurrent sessions, e.g. parallel tests in one binary), resets the
/// registry, and enables recording until the guard drops.
pub fn recording() -> RecordingGuard {
    let lock = lock_or_recover(&SESSION);
    reset();
    set_enabled(true);
    RecordingGuard { _lock: lock }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let _g = recording();
        set_enabled(false);
        counter_add("test.nothing", 5);
        gauge_max("test.nothing.g", 5);
        dist_record(
            "test.nothing.d",
            DistSpec {
                lo: 0.0,
                hi: 1.0,
                bins: 4,
            },
            0.5,
        );
        set_enabled(true);
        let snap = snapshot();
        assert_eq!(snap.counter("test.nothing"), 0);
        assert_eq!(snap.gauge("test.nothing.g"), None);
        assert!(!snap.dists.contains_key("test.nothing.d"));
    }

    #[test]
    fn counter_add_many_matches_individual_adds() {
        let _g = recording();
        counter_add("test.batch.a", 1);
        counter_add("test.batch.b", 2);
        let individual = (
            snapshot().counter("test.batch.a"),
            snapshot().counter("test.batch.b"),
        );
        reset();
        counter_add_many(&[
            ("test.batch.a", 1),
            ("test.batch.b", 2),
            ("test.batch.c", 0),
        ]);
        let snap = snapshot();
        assert_eq!(
            (snap.counter("test.batch.a"), snap.counter("test.batch.b")),
            individual
        );
        // Zero deltas never materialize a key.
        assert!(!snap.counters.contains_key("test.batch.c"));
        // Batches accumulate like individual adds.
        counter_add_many(&[("test.batch.a", 4)]);
        assert_eq!(snapshot().counter("test.batch.a"), 5);
    }

    #[test]
    fn counter_add_many_disabled_records_nothing() {
        let _g = recording();
        set_enabled(false);
        counter_add_many(&[("test.batch.off", 9)]);
        set_enabled(true);
        assert_eq!(snapshot().counter("test.batch.off"), 0);
    }

    #[test]
    fn counters_gauges_dists_round_trip() {
        let _g = recording();
        counter_add("test.rt.c", 2);
        counter_add("test.rt.c", 3);
        gauge_max("test.rt.g", 7);
        gauge_max("test.rt.g", 4);
        let spec = DistSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 10,
        };
        for x in [1.0, 2.0, 3.0, 42.0] {
            dist_record("test.rt.d", spec, x);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("test.rt.c"), 5);
        assert_eq!(snap.gauge("test.rt.g"), Some(7));
        let d = &snap.dists["test.rt.d"];
        assert_eq!(d.count(), 4);
        assert_eq!(d.overflow(), 1);
        let text = snap.render_text();
        assert!(text.contains("counter test.rt.c = 5"));
        assert!(text.contains("gauge   test.rt.g = 7"));
        assert!(text.contains("dist    test.rt.d: n=4"));
    }

    #[test]
    fn dist_merge_matches_per_sample_records() {
        let _g = recording();
        let spec = DistSpec {
            lo: 0.0,
            hi: 10.0,
            bins: 5,
        };
        let samples = [0.5, 3.2, 3.9, -1.0, 42.0];
        for x in samples {
            dist_record("test.dm.individual", spec, x);
        }
        let mut local = Histogram::new(spec.lo, spec.hi, spec.bins);
        for x in samples {
            local.record(x);
        }
        dist_merge("test.dm.batched", &local);
        // A second merge accumulates, like further record calls would.
        dist_merge("test.dm.batched", &local);
        for x in samples {
            dist_record("test.dm.individual", spec, x);
        }
        let snap = snapshot();
        let (a, b) = (
            &snap.dists["test.dm.individual"],
            &snap.dists["test.dm.batched"],
        );
        assert_eq!(a.bins(), b.bins());
        assert_eq!(a.count(), b.count());
        assert_eq!(a.underflow(), b.underflow());
        assert_eq!(a.overflow(), b.overflow());
        // An empty histogram merge must not materialize the key.
        dist_merge("test.dm.empty", &Histogram::new(0.0, 1.0, 2));
        assert!(!snapshot().dists.contains_key("test.dm.empty"));
    }

    #[test]
    fn shards_from_many_threads_merge_to_the_same_totals() {
        let _g = recording();
        let spec = DistSpec {
            lo: 0.0,
            hi: 100.0,
            bins: 20,
        };
        // The same 120 operations, partitioned over 1, 3 and 8 threads,
        // must merge to identical snapshots.
        let run_partitioned = |threads: usize| {
            reset();
            let chunk = 120 / threads;
            std::thread::scope(|s| {
                for t in 0..threads {
                    s.spawn(move || {
                        for i in (t * chunk)..((t + 1) * chunk) {
                            counter_add("test.merge.c", (i % 7) as u64);
                            gauge_max("test.merge.g", i as u64);
                            dist_record("test.merge.d", spec, i as f64);
                        }
                    });
                }
            });
            let snap = snapshot();
            (
                snap.counter("test.merge.c"),
                snap.gauge("test.merge.g"),
                snap.dists["test.merge.d"].bins().to_vec(),
                snap.dists["test.merge.d"].count(),
            )
        };
        let single = run_partitioned(1);
        for threads in [3, 8] {
            assert_eq!(run_partitioned(threads), single, "threads={threads}");
        }
    }

    #[test]
    fn reset_clears_all_shards() {
        let _g = recording();
        counter_add("test.reset.c", 9);
        reset();
        assert_eq!(snapshot().counter("test.reset.c"), 0);
    }

    #[test]
    fn local_counter_matches_counter_add() {
        static A: LocalCounter = LocalCounter::new("test.local.a");
        static B: LocalCounter = LocalCounter::new("test.local.b");
        let _g = recording();
        counter_add("test.local.a", 3);
        counter_add("test.local.b", 1);
        let direct = (
            snapshot().counter("test.local.a"),
            snapshot().counter("test.local.b"),
        );
        reset();
        A.add(1);
        A.add(2);
        B.add(1);
        // snapshot() flushes the calling thread's pending deltas itself.
        let snap = snapshot();
        assert_eq!(
            (snap.counter("test.local.a"), snap.counter("test.local.b")),
            direct
        );
        // Flushing again without new adds changes nothing.
        flush_local();
        assert_eq!(snapshot().counter("test.local.a"), direct.0);
    }

    #[test]
    fn local_counter_disabled_records_nothing() {
        static C: LocalCounter = LocalCounter::new("test.local.off");
        let _g = recording();
        set_enabled(false);
        C.add(7);
        set_enabled(true);
        assert_eq!(snapshot().counter("test.local.off"), 0);
    }

    #[test]
    fn local_counter_pending_does_not_survive_reset() {
        static D: LocalCounter = LocalCounter::new("test.local.reset");
        let _g = recording();
        D.add(5);
        // The delta is still pending, not yet in any shard; reset discards
        // it along with the shards.
        reset();
        assert_eq!(snapshot().counter("test.local.reset"), 0);
    }

    #[test]
    fn local_counters_from_worker_threads_merge_after_flush() {
        static E: LocalCounter = LocalCounter::new("test.local.workers");
        let _g = recording();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || {
                    for _ in 0..=t {
                        E.add(1);
                    }
                    flush_local();
                });
            }
        });
        // 1 + 2 + 3 + 4 adds across the workers.
        assert_eq!(snapshot().counter("test.local.workers"), 10);
    }
}
