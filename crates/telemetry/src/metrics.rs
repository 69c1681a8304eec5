//! Atomic metric handles and the global registry.
//!
//! Handles are `const`-constructible statics: a layer declares
//! `static STEPS: Counter = Counter::new("steps");` once and mutates it
//! from any thread.  Every mutation hides behind the single relaxed
//! [`crate::enabled`] branch, so a disabled build pays one predicted
//! branch per *burst* (instrumentation sites record at burst boundaries,
//! never per step) and zero atomics.
//!
//! The well-known handles of the workspace live in [`well_known`] and are
//! what [`registry`] snapshots into the `metrics` event at stream finish.
//! Counter and gauge values are exact u64s and are emitted as decimal
//! strings (the house style — an `f64` cast would round above 2⁵³);
//! histograms are log₂-bucketed, so a snapshot is a handful of
//! `[2^(k-1), 2^k)` rows rather than an unbounded reservoir.

use std::sync::atomic::{AtomicU64, Ordering};

use analysis::json::JsonValue;

use crate::enabled;

/// Number of histogram buckets: one for zero plus one per power of two of
/// the u64 range.
const BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// A new counter handle (usable as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `k` when telemetry is enabled; a no-op otherwise.
    #[inline(always)]
    pub fn add(&self, k: u64) {
        if enabled() {
            self.value.fetch_add(k, Ordering::Relaxed);
        }
    }

    /// Adds one when telemetry is enabled; a no-op otherwise.
    #[inline(always)]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (between benchmark phases and tests).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A last-value-wins gauge (e.g. the current worker-pool size).
#[derive(Debug)]
pub struct Gauge {
    name: &'static str,
    value: AtomicU64,
}

impl Gauge {
    /// A new gauge handle (usable as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Stores `v` when telemetry is enabled; a no-op otherwise.
    #[inline(always)]
    pub fn set(&self, v: u64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Resets to zero (between benchmark phases and tests).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// A log₂-bucketed value/latency histogram.
///
/// Bucket 0 counts zeros; bucket `k ≥ 1` counts values in
/// `[2^(k-1), 2^k)`.  Alongside the buckets the histogram tracks exact
/// count/sum/min/max, so a snapshot supports both "how many were slow"
/// and "what was the mean" questions without storing samples.
///
/// Histograms recording **wall-clock** quantities (latencies) are
/// constructed with [`Histogram::new_wall`]; their snapshots land in the
/// nondeterministic `"wall"` section of the `metrics` event, keeping the
/// deterministic section diffable across runs.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    wall: bool,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// A new histogram of deterministic values (usable as a `static`).
    pub const fn new(name: &'static str) -> Self {
        Self::with_wall(name, false)
    }

    /// A new histogram of wall-clock values: its snapshot is quarantined
    /// in the `"wall"` section of the `metrics` event.
    pub const fn new_wall(name: &'static str) -> Self {
        Self::with_wall(name, true)
    }

    const fn with_wall(name: &'static str, wall: bool) -> Self {
        Histogram {
            name,
            wall,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// `true` if this histogram records wall-clock quantities.
    pub fn is_wall(&self) -> bool {
        self.wall
    }

    /// The bucket index of a value: 0 for zero, `floor(log2(v)) + 1`
    /// otherwise.
    fn bucket(v: u64) -> usize {
        (u64::BITS - v.leading_zeros()) as usize
    }

    /// Records one value when telemetry is enabled; a no-op otherwise.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.buckets[Self::bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping beyond u64::MAX, which no
    /// workspace quantity reaches).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Resets every cell (between benchmark phases and tests).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The snapshot as a JSON object: exact `count`/`sum`/`min`/`max`
    /// decimal strings plus the non-empty buckets as `{lo, hi, count}`
    /// rows (`hi` exclusive; both decimal strings).
    pub fn snapshot(&self) -> JsonValue {
        let count = self.count();
        let mut rows = Vec::new();
        for (k, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let lo: u64 = if k == 0 { 0 } else { 1u64 << (k - 1) };
            let hi: u64 = if k == 0 {
                1
            } else if k == BUCKETS - 1 {
                u64::MAX
            } else {
                1u64 << k
            };
            rows.push(
                JsonValue::object()
                    .with("lo", lo.to_string())
                    .with("hi", hi.to_string())
                    .with("count", c.to_string()),
            );
        }
        let min = if count == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        };
        JsonValue::object()
            .with("count", count.to_string())
            .with("sum", self.sum().to_string())
            .with("min", min.to_string())
            .with("max", self.max.load(Ordering::Relaxed).to_string())
            .with("buckets", JsonValue::Array(rows))
    }
}

/// The well-known metric handles of the workspace, one static per
/// instrumented quantity.  Layers reference these directly; the
/// [`registry`] snapshot enumerates them.
pub mod well_known {
    use super::{Counter, Histogram};

    /// Steps executed by the uniform-sampler burst loop
    /// (`Simulation::run_steps`), counted once per burst.
    pub static HOT_STEPS: Counter = Counter::new("hot_steps");
    /// Steps executed under explicit per-step scheduler dispatch.
    pub static SCHEDULED_STEPS: Counter = Counter::new("scheduled_steps");
    /// Erased scenario runs started.
    pub static RUNS: Counter = Counter::new("runs");
    /// Runs that satisfied their stop predicate within budget.
    pub static CONVERGED_RUNS: Counter = Counter::new("converged_runs");
    /// Fault events fired (step-scheduled and triggered).
    pub static FAULTS_FIRED: Counter = Counter::new("faults_fired");
    /// Trigger predicates that fired their coupled fault.
    pub static TRIGGERS_FIRED: Counter = Counter::new("triggers_fired");
    /// Byzantine windows opened (first adversarial step executed).
    pub static BYZANTINE_WINDOWS: Counter = Counter::new("byzantine_windows");
    /// Confirmed configuration recurrences.
    pub static RECURRENCES: Counter = Counter::new("recurrences");
    /// Configuration fingerprint matches that the confirming `==` rejected
    /// (recurrence detection and configuration interning).  Counted on the
    /// cold path only, so a weak fingerprint hasher shows up here rather
    /// than in wall time.
    pub static RECURRENCE_FALSE_MATCHES: Counter = Counter::new("recurrence_false_matches");
    /// O(n) oracle passes: re-tallies after out-of-band writes plus due
    /// broadcasts (`RunStats::oracle_passes`, summed over runs).
    pub static ORACLE_PASSES: Counter = Counter::new("oracle_passes");
    /// Annealing candidate evaluations.
    pub static SEARCH_EVALUATIONS: Counter = Counter::new("search_evaluations");
    /// Annealing moves accepted (Metropolis).
    pub static SEARCH_ACCEPTS: Counter = Counter::new("search_accepts");
    /// Annealing moves rejected.
    pub static SEARCH_REJECTS: Counter = Counter::new("search_rejects");
    /// Fabric units executed by worker subprocesses.
    pub static FABRIC_EXECUTED: Counter = Counter::new("fabric_executed");
    /// Fabric units answered from the content-addressed cache.
    pub static FABRIC_CACHE_HITS: Counter = Counter::new("fabric_cache_hits");
    /// Fabric cache lookups that missed.
    pub static FABRIC_CACHE_MISSES: Counter = Counter::new("fabric_cache_misses");
    /// Fabric workers respawned after a crash or timeout.
    pub static FABRIC_RESPAWNS: Counter = Counter::new("fabric_respawns");
    /// Wall-clock microseconds one fabric unit spent executing on a worker.
    pub static FABRIC_UNIT_MICROS: Histogram = Histogram::new_wall("fabric_unit_micros");
    /// Wall-clock microseconds between a unit entering the queue and its
    /// dispatch to a worker.
    pub static FABRIC_QUEUE_MICROS: Histogram = Histogram::new_wall("fabric_queue_micros");
}

/// The fixed set of well-known handles, snapshot-able as one JSON object.
#[derive(Debug, Clone, Copy)]
pub struct Registry {
    counters: &'static [&'static Counter],
    histograms: &'static [&'static Histogram],
}

/// The global registry over [`well_known`].
pub fn registry() -> Registry {
    use well_known as w;
    static COUNTERS: &[&Counter] = &[
        &w::HOT_STEPS,
        &w::SCHEDULED_STEPS,
        &w::RUNS,
        &w::CONVERGED_RUNS,
        &w::FAULTS_FIRED,
        &w::TRIGGERS_FIRED,
        &w::BYZANTINE_WINDOWS,
        &w::RECURRENCES,
        &w::RECURRENCE_FALSE_MATCHES,
        &w::ORACLE_PASSES,
        &w::SEARCH_EVALUATIONS,
        &w::SEARCH_ACCEPTS,
        &w::SEARCH_REJECTS,
        &w::FABRIC_EXECUTED,
        &w::FABRIC_CACHE_HITS,
        &w::FABRIC_CACHE_MISSES,
        &w::FABRIC_RESPAWNS,
    ];
    static HISTOGRAMS: &[&Histogram] = &[&w::FABRIC_UNIT_MICROS, &w::FABRIC_QUEUE_MICROS];
    Registry {
        counters: COUNTERS,
        histograms: HISTOGRAMS,
    }
}

impl Registry {
    /// Snapshots every non-zero metric: counters as exact decimal strings
    /// under `"counters"`, deterministic histograms under `"histograms"`,
    /// wall-clock histograms under `"wall"` (the nondeterministic
    /// section).
    pub fn snapshot(&self) -> JsonValue {
        let mut counters = JsonValue::object();
        for c in self.counters {
            if c.get() > 0 {
                counters = counters.with(c.name(), c.get().to_string());
            }
        }
        let mut histograms = JsonValue::object();
        let mut wall = JsonValue::object();
        for h in self.histograms {
            if h.count() == 0 {
                continue;
            }
            if h.is_wall() {
                wall = wall.with(h.name(), h.snapshot());
            } else {
                histograms = histograms.with(h.name(), h.snapshot());
            }
        }
        JsonValue::object()
            .with("counters", counters)
            .with("histograms", histograms)
            .with("wall", wall)
    }

    /// Resets every handle (between benchmark phases and tests).
    pub fn reset(&self) {
        for c in self.counters {
            c.reset();
        }
        for h in self.histograms {
            h.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_enabled;

    #[test]
    fn disabled_handles_are_no_ops() {
        let _lock = crate::test_support::serialize();
        static C: Counter = Counter::new("test_disabled_counter");
        static H: Histogram = Histogram::new("test_disabled_histogram");
        static G: Gauge = Gauge::new("test_disabled_gauge");
        set_enabled(false);
        C.add(5);
        C.incr();
        H.record(7);
        G.set(3);
        assert_eq!(C.get(), 0);
        assert_eq!(H.count(), 0);
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn enabled_handles_accumulate_exactly() {
        let _lock = crate::test_support::serialize();
        static C: Counter = Counter::new("test_counter");
        static G: Gauge = Gauge::new("test_gauge");
        set_enabled(true);
        C.add(5);
        C.incr();
        G.set(7);
        G.set(2);
        set_enabled(false);
        assert_eq!(C.get(), 6);
        assert_eq!(G.get(), 2);
        C.reset();
        G.reset();
        assert_eq!(C.get(), 0);
        assert_eq!(G.get(), 0);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(Histogram::bucket(0), 0);
        assert_eq!(Histogram::bucket(1), 1);
        assert_eq!(Histogram::bucket(2), 2);
        assert_eq!(Histogram::bucket(3), 2);
        assert_eq!(Histogram::bucket(4), 3);
        assert_eq!(Histogram::bucket(1023), 10);
        assert_eq!(Histogram::bucket(1024), 11);
        assert_eq!(Histogram::bucket(u64::MAX), 64);
    }

    #[test]
    fn histogram_snapshot_is_exact_strings() {
        let _lock = crate::test_support::serialize();
        static H: Histogram = Histogram::new("test_hist");
        H.reset();
        set_enabled(true);
        H.record(0);
        H.record(3);
        H.record(3);
        H.record(u64::MAX);
        set_enabled(false);
        let snap = H.snapshot();
        assert_eq!(snap.get("count").and_then(JsonValue::as_str), Some("4"));
        // The sum wraps at u64 (documented): MAX + 6 ≡ 5.
        assert_eq!(snap.get("sum").and_then(JsonValue::as_str), Some("5"));
        assert_eq!(snap.get("min").and_then(JsonValue::as_str), Some("0"));
        assert_eq!(
            snap.get("max").and_then(JsonValue::as_str),
            Some(&u64::MAX.to_string()[..])
        );
        let buckets = snap.get("buckets").and_then(JsonValue::as_array).unwrap();
        assert_eq!(buckets.len(), 3, "zero, [2,4), top bucket");
        assert_eq!(
            buckets[1].get("lo").and_then(JsonValue::as_str),
            Some("2"),
            "3 lands in [2, 4)"
        );
        assert_eq!(buckets[1].get("hi").and_then(JsonValue::as_str), Some("4"));
        assert_eq!(
            buckets[1].get("count").and_then(JsonValue::as_str),
            Some("2")
        );
        H.reset();
        assert_eq!(H.count(), 0);
    }

    #[test]
    fn registry_snapshot_skips_zero_metrics_and_resets() {
        let _lock = crate::test_support::serialize();
        let reg = registry();
        reg.reset();
        set_enabled(true);
        well_known::HOT_STEPS.add(41);
        well_known::HOT_STEPS.add(1);
        well_known::FABRIC_UNIT_MICROS.record(100);
        set_enabled(false);
        let snap = reg.snapshot();
        let counters = snap.get("counters").unwrap();
        assert_eq!(
            counters.get("hot_steps").and_then(JsonValue::as_str),
            Some("42")
        );
        assert!(counters.get("runs").is_none(), "zero metrics are omitted");
        assert!(
            snap.get("wall")
                .unwrap()
                .get("fabric_unit_micros")
                .is_some(),
            "wall histograms are quarantined under \"wall\""
        );
        reg.reset();
        let empty = reg.snapshot();
        assert!(empty.get("counters").unwrap().get("hot_steps").is_none());
    }
}
