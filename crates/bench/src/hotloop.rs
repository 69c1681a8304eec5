//! Hot-loop throughput measurement.
//!
//! Everything in this workspace runs through the erased
//! `Simulation<DynProtocol, AnyGraph>` path with inline-slot
//! [`population::slot::DynState`]s, so its raw steps/second is the
//! throughput ceiling of the whole reproduction.  This module measures it
//! for the four Table 1 protocols, on the directed ring and the complete
//! graph, at `n ∈ {256, 4096}`.
//!
//! The `hotloop_report` binary writes the results to `BENCH_hotloop.json`
//! at the repository root so that later changes have a perf trajectory to
//! compare against.  CI runs the binary in `--quick` mode and validates the
//! emitted JSON against [`validate_report`] — a schema smoke, deliberately
//! not a flaky threshold gate.

use std::time::Instant;

use analysis::json::JsonValue;
use population::{
    Configuration, DynProtocol, DynState, GraphFamily, InteractionGraph, LeaderElection, Protocol,
    Simulation,
};

use crate::{ProtocolKind, Table1Visitor};

/// Schema identifier of `BENCH_hotloop.json`.
///
/// `v2` dropped v1's boxed-baseline columns (`steps_per_sec_boxed`,
/// `steps_per_sec_boxed_compact`, `speedup`, `speedup_compact`) together
/// with the pre-inline representation they timed.
pub const SCHEMA: &str = "hotloop-bench/v2";

/// The keys of one case object, in emission order.
const CASE_KEYS: [&str; 4] = ["protocol", "graph", "n", "steps_per_sec"];

/// The population sizes of the measurement grid.
pub const SIZES: [usize; 2] = [256, 4096];

/// The interaction graphs of the measurement grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotloopGraph {
    /// The paper's directed ring.
    Ring,
    /// The complete interaction graph.
    Complete,
}

impl HotloopGraph {
    /// Both graphs, in report order.
    pub const ALL: [HotloopGraph; 2] = [HotloopGraph::Ring, HotloopGraph::Complete];

    /// The key used in the JSON report.
    pub fn key(&self) -> &'static str {
        match self {
            HotloopGraph::Ring => "ring",
            HotloopGraph::Complete => "complete",
        }
    }

    /// The corresponding scenario-layer graph family.
    pub fn family(&self) -> GraphFamily {
        match self {
            HotloopGraph::Ring => GraphFamily::DirectedRing,
            HotloopGraph::Complete => GraphFamily::Complete,
        }
    }
}

/// The measured throughput of one case of the grid.
#[derive(Clone, Debug)]
pub struct CaseResult {
    /// Protocol key ([`ProtocolKind::key`]).
    pub protocol: &'static str,
    /// Graph key ([`HotloopGraph::key`]).
    pub graph: &'static str,
    /// Population size.
    pub n: usize,
    /// Erased-path throughput, in steps/second.
    pub steps_per_sec: f64,
}

/// A full hot-loop measurement: one [`CaseResult`] per
/// protocol × graph × size.
#[derive(Clone, Debug)]
pub struct HotloopReport {
    /// `true` if this was a quick (CI smoke) run with a reduced time budget.
    pub quick: bool,
    /// Timed-stretch budget per measurement, in seconds.
    pub budget_secs: f64,
    /// The measured cases, in grid order.
    pub cases: Vec<CaseResult>,
}

/// Builds the timed erased simulation of one case and measures steps/second
/// over (at least) `budget_secs` of wall clock.
///
/// The protocol and initial configuration are exactly those of the Table 1
/// scenarios (uniformly random states from `seed`), so the measured loop is
/// the one the figure binaries actually run.
pub fn measure(kind: ProtocolKind, graph: HotloopGraph, n: usize, budget_secs: f64) -> f64 {
    let seed = 0xB0B0 ^ n as u64;
    kind.with_table1_setup(
        n,
        seed,
        MeasureVisitor {
            graph,
            n,
            budget_secs,
            seed,
        },
    )
}

/// [`Table1Visitor`] that erases the typed setup into inline slots and
/// times the scheduler loop.
struct MeasureVisitor {
    graph: HotloopGraph,
    n: usize,
    budget_secs: f64,
    seed: u64,
}

impl Table1Visitor for MeasureVisitor {
    type Output = f64;

    fn visit<P, F>(self, protocol: P, config: Configuration<P::State>, _stop: F) -> f64
    where
        P: LeaderElection + 'static,
        P::State: population::SlotState,
        F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
    {
        let any_graph = self
            .graph
            .family()
            .build(self.n)
            .expect("hot-loop sizes are all >= 2");
        let config: Configuration<DynState> = config
            .into_states()
            .into_iter()
            .map(DynState::new)
            .collect();
        time_steps(
            Simulation::new(DynProtocol::erase(protocol), any_graph, config, self.seed),
            self.budget_secs,
        )
    }
}

/// Warm-up then time: runs the scheduler loop in chunks until the time
/// budget is spent and returns steps/second over the timed stretch.  A time
/// budget (rather than a fixed step count) keeps both the fast cases
/// (tens of millions of steps/s) and the slow oracle cases (tens of
/// thousands) statistically stable at bounded wall-clock cost.
fn time_steps<P: Protocol, G: InteractionGraph>(
    mut sim: Simulation<P, G>,
    budget_secs: f64,
) -> f64 {
    // Chunks start small and double, so slow cases (oracle protocols run
    // tens of thousands of steps/s) overshoot a small budget by at most one
    // short chunk instead of a fixed multi-second minimum, while fast cases
    // quickly reach large chunks where the timer checks are negligible.
    const FIRST_CHUNK: u64 = 2_000;
    const MAX_CHUNK: u64 = 1 << 20;
    // Warm-up through caches, branch predictors and the RNG.
    sim.run_steps(FIRST_CHUNK / 4);
    let start = Instant::now();
    let mut steps = 0u64;
    let mut chunk = FIRST_CHUNK;
    loop {
        sim.run_steps(chunk);
        steps += chunk;
        chunk = (chunk * 2).min(MAX_CHUNK);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= budget_secs {
            // Keep the final configuration observable so the loop cannot be
            // elided.
            std::hint::black_box(sim.config().len());
            return steps as f64 / elapsed.max(1e-9);
        }
    }
}

/// The timed-stretch budget per measurement of the given mode, in seconds.
pub fn budget_secs(quick: bool) -> f64 {
    if quick {
        0.05
    } else {
        1.0
    }
}

/// The grid's case descriptors, **in report order** — shared by [`run`]
/// and the fabric's work-unit builder so a distributed run assembles its
/// cases in exactly the order the in-process report emits them.
pub fn grid() -> Vec<(ProtocolKind, HotloopGraph, usize)> {
    let mut cases = Vec::with_capacity(ProtocolKind::ALL.len() * HotloopGraph::ALL.len() * 2);
    for kind in ProtocolKind::ALL {
        for graph in HotloopGraph::ALL {
            for n in SIZES {
                cases.push((kind, graph, n));
            }
        }
    }
    cases
}

/// Measures one case of the grid: `quick` takes a single short sample (CI
/// smoke); full mode reports the median of three samples to damp scheduler
/// noise.
pub fn run_case(kind: ProtocolKind, graph: HotloopGraph, n: usize, quick: bool) -> CaseResult {
    let budget = budget_secs(quick);
    let samples = if quick { 1 } else { 3 };
    let mut rates: Vec<f64> = (0..samples)
        .map(|_| measure(kind, graph, n, budget))
        .collect();
    rates.sort_by(f64::total_cmp);
    CaseResult {
        protocol: kind.key(),
        graph: graph.key(),
        n,
        steps_per_sec: rates[rates.len() / 2],
    }
}

/// Runs the whole measurement grid ([`run_case`] per [`grid`] entry).  The
/// grid — and hence the report schema — is identical in both modes.
pub fn run(quick: bool) -> HotloopReport {
    HotloopReport {
        quick,
        budget_secs: budget_secs(quick),
        cases: grid()
            .into_iter()
            .map(|(kind, graph, n)| run_case(kind, graph, n, quick))
            .collect(),
    }
}

/// Serializes one measured case to its report JSON object.  Single
/// definition shared by [`HotloopReport::to_json_value`] and the fabric
/// workers (same pattern as `stabilization::cell_to_json`; unlike the
/// stabilization cells the measurements are wall-clock timings, so a
/// distributed hot-loop report is *schema*-identical but not byte-identical
/// to an in-process rerun).
pub fn case_to_json(c: &CaseResult) -> JsonValue {
    JsonValue::object()
        .with("protocol", c.protocol)
        .with("graph", c.graph)
        .with("n", c.n)
        .with("steps_per_sec", c.steps_per_sec)
}

/// Assembles the full report JSON from pre-serialized case objects, in
/// [`grid`] order.
pub fn report_json_from_cases(quick: bool, cases: Vec<JsonValue>) -> JsonValue {
    JsonValue::object()
        .with("schema", SCHEMA)
        .with("quick", quick)
        .with("budget_secs", budget_secs(quick))
        .with("cases", JsonValue::Array(cases))
}

impl HotloopReport {
    /// Serializes to the `BENCH_hotloop.json` schema (see [`SCHEMA`]):
    /// [`case_to_json`] per case inside the [`report_json_from_cases`]
    /// shell.
    pub fn to_json_value(&self) -> JsonValue {
        report_json_from_cases(self.quick, self.cases.iter().map(case_to_json).collect())
    }
}

/// Renders the cases of a report document as a markdown table.  Reads the
/// JSON rather than [`CaseResult`]s, so in-process and fabric runs (which
/// only ever hold the JSON) print through this one renderer.
pub fn markdown_table(json: &JsonValue) -> String {
    let mut out = String::from("| protocol | graph | n | steps/s |\n|---|---|---:|---:|\n");
    for case in json
        .get("cases")
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
    {
        let text = |key| case.get(key).and_then(JsonValue::as_str).unwrap_or("?");
        let number = |key| {
            case.get(key)
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN)
        };
        out.push_str(&format!(
            "| {} | {} | {} | {:.0} |\n",
            text("protocol"),
            text("graph"),
            number("n"),
            number("steps_per_sec"),
        ));
    }
    out
}

/// Validates a parsed `BENCH_hotloop.json` against the expected schema:
/// schema tag, and one positive-throughput case per protocol × graph × size
/// of the grid carrying exactly the v2 case keys.  Returns a description of
/// the first violation.
pub fn validate_report(json: &JsonValue) -> Result<(), String> {
    if json.get("schema").and_then(JsonValue::as_str) != Some(SCHEMA) {
        return Err(format!("missing or wrong schema tag (want {SCHEMA:?})"));
    }
    if json
        .get("budget_secs")
        .and_then(JsonValue::as_f64)
        .is_none_or(|s| s <= 0.0)
    {
        return Err("budget_secs missing or non-positive".into());
    }
    let cases = json
        .get("cases")
        .and_then(JsonValue::as_array)
        .ok_or("cases array missing")?;
    let expected = ProtocolKind::ALL.len() * HotloopGraph::ALL.len() * SIZES.len();
    if cases.len() != expected {
        return Err(format!("expected {expected} cases, found {}", cases.len()));
    }
    for (kind, graph, n) in grid() {
        let name = format!("{}/{}/{n}", kind.key(), graph.key());
        let case = cases
            .iter()
            .find(|c| {
                c.get("protocol").and_then(JsonValue::as_str) == Some(kind.key())
                    && c.get("graph").and_then(JsonValue::as_str) == Some(graph.key())
                    && c.get("n").and_then(JsonValue::as_f64) == Some(n as f64)
            })
            .ok_or_else(|| format!("case {name} missing"))?;
        if let JsonValue::Object(entries) = case {
            if let Some((key, _)) = entries
                .iter()
                .find(|(k, _)| !CASE_KEYS.contains(&k.as_str()))
            {
                return Err(format!("case {name}: unexpected key {key:?}"));
            }
        }
        if case
            .get("steps_per_sec")
            .and_then(JsonValue::as_f64)
            .is_none_or(|v| v <= 0.0)
        {
            return Err(format!(
                "case {name}: steps_per_sec missing or non-positive"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny end-to-end of one case: measurement produces finite positive
    /// throughput.
    #[test]
    fn measurement_produces_positive_throughput() {
        let rate = measure(ProtocolKind::Ppl, HotloopGraph::Ring, 16, 1e-3);
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
    }

    /// A hand-built report with the right grid and the given per-case
    /// throughput, so the tests cost no measurement time.
    fn synthetic_report(steps_per_sec: f64) -> HotloopReport {
        HotloopReport {
            quick: true,
            budget_secs: 0.05,
            cases: grid()
                .into_iter()
                .map(|(kind, graph, n)| CaseResult {
                    protocol: kind.key(),
                    graph: graph.key(),
                    n,
                    steps_per_sec,
                })
                .collect(),
        }
    }

    /// The emitted JSON round-trips through the offline parser and passes
    /// schema validation (what the CI smoke checks against the real file).
    #[test]
    fn report_schema_round_trips_and_validates() {
        let text = synthetic_report(2.0e7).to_json_value().to_json();
        let parsed = analysis::json::JsonValue::parse(&text).expect("emitted JSON parses");
        validate_report(&parsed).expect("schema validates");
        let table = markdown_table(&parsed);
        assert!(table.contains("| ppl | ring | 256 | 20000000 |"), "{table}");
        assert_eq!(table.lines().count(), 2 + grid().len());
    }

    #[test]
    fn validation_rejects_broken_reports() {
        assert!(validate_report(&JsonValue::object()).is_err());
        let wrong_schema = JsonValue::object().with("schema", "other");
        assert!(validate_report(&wrong_schema).is_err());
        let no_cases = JsonValue::object()
            .with("schema", SCHEMA)
            .with("budget_secs", 0.1);
        assert!(validate_report(&no_cases).is_err());
        let stalled = synthetic_report(0.0).to_json_value();
        let err = validate_report(&stalled).unwrap_err();
        assert!(err.contains("steps_per_sec"), "{err}");
    }

    /// A document shaped like the last `hotloop-bench/v1` file (boxed
    /// baseline columns on every case) is rejected — under its own tag, and
    /// also when merely relabelled `v2`.
    #[test]
    fn validation_rejects_the_v1_shape() {
        let v1_cases = grid()
            .into_iter()
            .map(|(kind, graph, n)| {
                JsonValue::object()
                    .with("protocol", kind.key())
                    .with("graph", graph.key())
                    .with("n", n)
                    .with("steps_per_sec", 1.1e7)
                    .with("steps_per_sec_boxed", 0.9e7)
                    .with("steps_per_sec_boxed_compact", 1.0e7)
                    .with("speedup", 1.2)
                    .with("speedup_compact", 1.1)
            })
            .collect::<Vec<_>>();
        let shell = |schema: &str| {
            JsonValue::object()
                .with("schema", schema)
                .with("quick", false)
                .with("budget_secs", 1.0)
                .with("cases", JsonValue::Array(v1_cases.clone()))
        };
        let err = validate_report(&shell("hotloop-bench/v1")).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        let err = validate_report(&shell(SCHEMA)).unwrap_err();
        assert!(err.contains("steps_per_sec_boxed"), "{err}");
    }
}
