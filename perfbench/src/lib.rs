//! The repository benchmark: what `P_PL` runs actually pay, end to end and
//! layer by layer.
//!
//! Three workloads drive the crates' public API from one process with one
//! worker thread ([`population::BatchRunner::with_threads`]`(1)`):
//!
//! * `ppl-ring` — `P_PL` convergence trials at n = 1024 plus a closure
//!   stretch inside `S_PL` ([`convergence`]);
//! * `fj-oracle` — Fischer–Jiang trials at n = 256, where the `Ω?`
//!   environment hook dominates every step ([`convergence`]);
//! * `hostile-search` — `stabilization::run_cell` on two quick cells:
//!   custom schedulers, fault plans, certification and rate curves
//!   ([`hostile`]).
//!
//! An untraced run ([`Outcome::end_to_end`]) times only what a user pays.  A
//! traced run recomposes the same work from the layers' public functions,
//! times each call from here (nothing is instrumented inside the crates),
//! checks that the recomposition reproduces the production outputs, and
//! reports the per-layer split ([`Outcome::per_layer`]).  See `README.md`.

pub mod context;
pub mod convergence;
pub mod hostile;
pub mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use analysis::json::JsonValue;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `P_PL` on the directed ring from uniformly random starts.
    PplRing,
    /// Fischer–Jiang with the `Ω?` oracle on the directed ring.
    FjOracle,
    /// The worst-case stabilization search on two quick grid cells.
    HostileSearch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PplRing,
        Workload::FjOracle,
        Workload::HostileSearch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PplRing => "ppl-ring",
            Workload::FjOracle => "fj-oracle",
            Workload::HostileSearch => "hostile-search",
        }
    }

    /// The workload with the given command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, with their units.
///
/// `failed_frac` is not among them: it is 0 on a correct program, and a
/// metric that reads 0 has no spread to bound.  The result line carries it
/// exactly as `failed / attempted`, and the detail line prints it by name.
pub const END_TO_END: [(&str, &str); 6] = [
    ("converge_steps_per_s", "1/s"),
    ("trial_s_p50", "s"),
    ("closure_steps_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced run reports, with their units.  A
/// layer a workload never enters reports 0 (its call count is 0 too).
pub const PER_LAYER: [(&str, &str); 30] = [
    ("scheduler.draw_ns", "ns"),
    ("transition.ns", "ns"),
    ("transition.ns_closure", "ns"),
    ("burst.steps_per_s", "1/s"),
    ("burst.share", "ratio"),
    ("environment.ns", "ns"),
    ("environment.calls", "count"),
    ("environment.share", "ratio"),
    ("stop.checks", "count"),
    ("stop.us_per_check", "us"),
    ("stop.share", "ratio"),
    ("converge.steps", "count"),
    ("setup.prepare_ms", "ms"),
    ("search.evals", "count"),
    ("search.eval_ms_p50", "ms"),
    ("search.improve_ratio", "ratio"),
    ("eval.steps_per_s.random", "1/s"),
    ("eval.steps_per_s.epoch", "1/s"),
    ("eval.steps_per_s.greedy", "1/s"),
    ("certify.s", "s"),
    ("certify.attempts", "count"),
    ("certify.yield", "ratio"),
    ("rate.s", "s"),
    ("rate.replays", "count"),
    ("serialize.ms", "ms"),
    ("serialize.bytes", "bytes"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.traced_s", "s"),
    ("trace.untraced_s", "s"),
];

/// What one run does: the workload, its seed, its time budget, whether it
/// is the traced run, and the sizes — production sizes come from
/// [`Plan::new`]; tests shrink them.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; every trial seed derives from it.
    pub seed: u64,
    /// The run's time budget in seconds: it sizes the counted core, and an
    /// untraced run keeps measuring beyond the core until it is spent.
    pub seconds: u64,
    /// `true` for the traced (per-layer) run.
    pub trace: bool,
    /// Population size of the convergence workloads, or of the hostile
    /// cells.
    pub n: usize,
    /// Convergence trials in the counted core of an untraced
    /// `ppl-ring`/`fj-oracle` run; a traced run takes the first half of the
    /// same seed list and nothing beyond it.
    pub trials: usize,
    /// Length of each closure stretch, in multiples of n².
    pub closure_n2: u64,
    /// Passes over the hostile cells in the counted core (a traced run
    /// makes exactly this many).
    pub passes: usize,
    /// Replays of each hostile cell's worst case in the output check.
    pub replays: usize,
    /// Repetitions of each trial's or cell's set-up measurement, taken
    /// just before it runs; `setup_s` sums the per-trial medians.
    pub setup_reps: usize,
    /// The checkout root, where the tracked `BENCH_stabilization.json`
    /// lives (the hostile check splices its cells into it).
    pub root: PathBuf,
    /// Cuts the hostile search to one short island (tests only).
    pub shrink_search: bool,
}

impl Plan {
    /// The production plan of a workload.  The counted core scales with
    /// `seconds` by constants measured on a 2-core x86-64 container (a
    /// `ppl-ring` trial with its closure stretch takes about 1.2 s, an
    /// `fj-oracle` trial about 0.35 s, a pass over the hostile cells 7–10
    /// s): about 70% of `seconds` untraced, and about half of that traced,
    /// where every trial runs twice.  Exact counts cover the core only, so
    /// they depend only on the seed and `seconds`.
    pub fn new(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Self {
        let seconds = seconds.max(1);
        let scaled = |per_10s: u64| (seconds * per_10s).div_ceil(10).max(2) as usize;
        let (n, trials, closure_n2, passes, setup_reps) = match workload {
            Workload::PplRing => (1024, scaled(7), 4, 0, 15),
            Workload::FjOracle => (256, scaled(24), 1, 0, 15),
            // Set-up of two n = 64 cells takes microseconds: many more
            // repetitions steady its median.
            Workload::HostileSearch => (64, 0, 1024, (seconds as usize / 12).max(1), 201),
        };
        Plan {
            workload,
            seed,
            seconds,
            trace,
            n,
            trials,
            closure_n2,
            // A traced pass runs every cell twice (production and traced).
            passes: if trace { (passes / 2).max(1) } else { passes },
            replays: if workload == Workload::HostileSearch {
                32
            } else {
                0
            },
            setup_reps,
            root: PathBuf::from("."),
            shrink_search: false,
        }
    }

    /// Whether an untraced run starts another trial or pass after `done`
    /// of them took `elapsed` seconds: always until the `core` is done,
    /// then while one more of the mean length still ends within
    /// `seconds`.
    pub fn another(&self, done: usize, core: usize, elapsed: f64) -> bool {
        done < core || elapsed * (done + 1) as f64 <= self.seconds as f64 * done as f64
    }

    /// The counted trials of this run: the untraced core, or for a traced
    /// run its first half (a traced run runs every trial twice, production
    /// and traced).
    pub fn run_trials(&self) -> usize {
        if self.trace {
            self.trials.div_ceil(2)
        } else {
            self.trials
        }
    }

    /// The `i`-th trial seed of this plan (SplitMix64 over the workload
    /// seed, so neighbouring workload seeds give unrelated trials).
    pub fn trial_seed(&self, i: usize) -> u64 {
        stats::splitmix64(self.seed ^ stats::splitmix64(i as u64 + 1))
    }
}

/// Named layer timings and counts collected from outside the crates: one
/// entry per layer boundary, summed over every call.
#[derive(Clone, Debug, Default)]
pub struct Spans {
    entries: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Times `f` as one call into `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(layer, start.elapsed());
        out
    }

    /// Records one call into `layer` that took `elapsed`.
    pub fn add(&mut self, layer: &'static str, elapsed: Duration) {
        let entry = self.entries.entry(layer).or_default();
        entry.0 += elapsed;
        entry.1 += 1;
    }

    /// Adds every entry of `other` to this one.
    pub fn merge(&mut self, other: Spans) {
        for (layer, (elapsed, calls)) in other.entries {
            let entry = self.entries.entry(layer).or_default();
            entry.0 += elapsed;
            entry.1 += calls;
        }
    }

    /// Total time spent in `layer`, in seconds.
    pub fn secs(&self, layer: &str) -> f64 {
        self.entries
            .get(layer)
            .map_or(0.0, |(d, _)| d.as_secs_f64())
    }

    /// Calls recorded into `layer`.
    pub fn calls(&self, layer: &str) -> u64 {
        self.entries.get(layer).map_or(0, |(_, c)| *c)
    }

    /// Summed time over every layer, in seconds.
    pub fn total_secs(&self) -> f64 {
        self.entries.values().map(|(d, _)| d.as_secs_f64()).sum()
    }
}

/// The result of one run: attempted and failed checks, metrics, exact
/// counts and the run context.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Trials or cells attempted.
    pub attempted: u64,
    /// Trials or cells whose output failed a check.
    pub failures: Vec<String>,
    /// End-to-end metrics (untraced run), by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (traced run), by name.
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Exact counts that must repeat for the same seed (steps, checks,
    /// evaluations, per-seed hit steps).
    pub counts: Vec<(String, JsonValue)>,
    /// Sample counts behind the medians and rates.
    pub samples: Vec<(&'static str, usize)>,
    /// The individual timings behind the medians and rates (seconds or
    /// steps per second), for reading the spread within a run.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Failed trials or cells.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Records a check: `Err` counts as a failure, `Ok` as nothing.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Records an exact count.
    pub fn count(&mut self, name: impl Into<String>, value: impl Into<JsonValue>) {
        self.counts.push((name.into(), value.into()));
    }

    /// Fills the metrics both kinds of run share: `failed_frac` and
    /// `peak_rss_mb`.
    pub fn finish_common(&mut self) {
        let frac = self.failed() as f64 / self.attempted.max(1) as f64;
        self.end_to_end.insert("failed_frac", frac);
        self.end_to_end
            .insert("peak_rss_mb", context::peak_rss_mb());
    }

    /// The metrics of this run's kind, with units, as the result object's
    /// `metrics` field.
    pub fn metrics_json(&self, trace: bool) -> JsonValue {
        let (table, values): (&[(&str, &str)], _) = if trace {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        table
            .iter()
            .fold(JsonValue::object(), |obj, &(name, unit)| {
                let value = values.get(name).copied().unwrap_or(0.0);
                obj.with(
                    name,
                    JsonValue::object()
                        .with("value", finite(value))
                        .with("unit", unit),
                )
            })
    }

    /// The detail object printed before the result line: context, counts,
    /// samples, series, failures and both metric maps (`end_to_end` carries
    /// `failed_frac`).
    pub fn detail_json(&self, plan: &Plan, context: JsonValue) -> JsonValue {
        let map = |m: &BTreeMap<&'static str, f64>| {
            m.iter()
                .fold(JsonValue::object(), |o, (k, v)| o.with(*k, finite(*v)))
        };
        JsonValue::object()
            .with("workload", plan.workload.name())
            .with("seed", plan.seed.to_string().as_str())
            .with("seconds", plan.seconds as usize)
            .with("trace", plan.trace)
            .with("context", context)
            .with(
                "counts",
                self.counts.iter().fold(JsonValue::object(), |o, (k, v)| {
                    o.with(k.as_str(), v.clone())
                }),
            )
            .with(
                "samples",
                self.samples
                    .iter()
                    .fold(JsonValue::object(), |o, (k, v)| o.with(*k, *v)),
            )
            .with(
                "series",
                self.series.iter().fold(JsonValue::object(), |o, (k, v)| {
                    o.with(
                        *k,
                        JsonValue::Array(v.iter().map(|&x| finite(x).into()).collect()),
                    )
                }),
            )
            .with(
                "failures",
                JsonValue::Array(
                    self.failures
                        .iter()
                        .map(|f| JsonValue::String(f.clone()))
                        .collect(),
                ),
            )
            .with("end_to_end", map(&self.end_to_end))
            .with("per_layer", map(&self.per_layer))
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self, trace: bool) -> JsonValue {
        JsonValue::object()
            .with("correct", self.failures.is_empty())
            .with("attempted", self.attempted as usize)
            .with("failed", self.failed() as usize)
            .with("metrics", self.metrics_json(trace))
    }
}

/// JSON cannot carry NaN or infinities; a degenerate ratio reads as 0.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The median wall time of `reps` calls of `f`, in seconds.
pub fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&times)
}

/// Runs one plan to completion.
pub fn run(plan: &Plan) -> Outcome {
    let mut outcome = match plan.workload {
        Workload::PplRing | Workload::FjOracle => convergence::run(plan),
        Workload::HostileSearch => hostile::run(plan),
    };
    outcome.finish_common();
    outcome
}
