//! Fabric glue: the report grids as work units, and the worker-side
//! handlers that run them.
//!
//! This module is the bridge between the job-agnostic `ssle-fabric`
//! coordinator/worker machinery and the report grids:
//!
//! * the **unit builders** ([`stabilization_units`], [`recovery_units`],
//!   [`hotloop_units`])
//!   serialize each grid cell's *semantic identity* — protocol, graph,
//!   size, and every run knob that affects the result — into a
//!   [`WorkUnit`] spec, in the exact order the in-process report emits its
//!   cells.  Run-local knobs (thread counts, timeouts, worker counts) are
//!   deliberately **excluded** from the spec: they cannot change a
//!   deterministic cell's result, so they must not change its cache key;
//! * the **handlers** ([`stabilization_handler`], [`recovery_handler`],
//!   [`hotloop_handler`])
//!   validate a unit's spec (typed [`WorkError`]s for unknown jobs, wrong
//!   job-schema versions and malformed fields), run the cell through the
//!   same `run_cell`/`run_case` code the in-process path uses, and return
//!   the same `cell_to_json`/`case_to_json` encoding;
//! * the **drivers** ([`run_stabilization_fabric`],
//!   [`run_recovery_fabric`], [`run_hotloop_fabric`])
//!   run a grid through a coordinator pool and assemble the final report
//!   with the same `report_json_from_*` shell as the in-process path.
//!
//! Byte-identity of `--fabric N` stabilization reports against `--threads
//! N` ones therefore holds **by construction** — both paths execute the
//! identical per-cell code and the identical report assembly, and the
//! coordinator merges in submission order — and is additionally pinned
//! end-to-end by `tests/fabric_equivalence.rs`.  (Hot-loop cases are
//! wall-clock timings: a distributed run is schema-identical, not
//! byte-identical, and the cache makes it resumable.)

use std::path::PathBuf;
use std::time::Duration;

use analysis::json::JsonValue;
use population::BatchRunner;
use ssle_fabric::{run_units, CoordinatorOptions, ResultCache, WorkError, WorkUnit, WorkerCommand};

use crate::hotloop::{self, HotloopGraph};
use crate::recovery;
use crate::stabilization::{self, GridGraph, RunOptions};
use crate::ProtocolKind;

/// Job kind of one stabilization-grid cell.
pub const STABILIZATION_JOB: &str = "stabilization-cell";

/// Job kind of one hot-loop-grid case.
pub const HOTLOOP_JOB: &str = "hotloop-case";

/// Job kind of one recovery-grid cell.
pub const RECOVERY_JOB: &str = "recovery-cell";

/// Looks up a protocol by its report key.
fn protocol_from_key(key: &str) -> Option<ProtocolKind> {
    ProtocolKind::ALL.into_iter().find(|k| k.key() == key)
}

/// Looks up a report-grid graph by its report key.
fn graph_from_key(key: &str) -> Option<GridGraph> {
    GridGraph::from_key(key)
}

/// Looks up a hot-loop graph by its report key (the hot-loop grid stays on
/// the classic ring/complete pair — wall-clock timings want the O(1)
/// specialised samplers, not the generated families).
fn hotloop_graph_from_key(key: &str) -> Option<HotloopGraph> {
    HotloopGraph::ALL.into_iter().find(|g| g.key() == key)
}

/// The work-unit spec of one stabilization cell: the cell coordinates plus
/// every [`RunOptions`] knob that is part of the result's identity.
/// `threads` is intentionally absent — results are thread-count-invariant,
/// so the cache key must be too.
fn stabilization_spec(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    options: &RunOptions,
) -> JsonValue {
    JsonValue::object()
        .with("schema", stabilization::SCHEMA)
        .with("protocol", kind.key())
        .with("graph", graph.key())
        .with("n", n)
        .with("quick", options.quick)
        .with("trials", options.trials)
        .with("islands", options.islands as usize)
        .with("island_iterations", options.island_iterations as usize)
        .with("replays", options.replays)
}

/// The stabilization grid as work units, in [`stabilization::grid_cells`]
/// (= report) order.
pub fn stabilization_units(options: &RunOptions) -> Vec<WorkUnit> {
    stabilization::grid_cells(options)
        .into_iter()
        .enumerate()
        .map(|(i, (kind, graph, n))| {
            WorkUnit::new(
                i as u64,
                STABILIZATION_JOB,
                stabilization_spec(kind, graph, n, options),
            )
        })
        .collect()
}

/// The hot-loop grid as work units, in [`hotloop::grid`] (= report) order.
pub fn hotloop_units(quick: bool) -> Vec<WorkUnit> {
    hotloop::grid()
        .into_iter()
        .enumerate()
        .map(|(i, (kind, graph, n))| {
            WorkUnit::new(
                i as u64,
                HOTLOOP_JOB,
                JsonValue::object()
                    .with("schema", hotloop::SCHEMA)
                    .with("protocol", kind.key())
                    .with("graph", graph.key())
                    .with("n", n)
                    .with("quick", quick),
            )
        })
        .collect()
}

/// The work-unit spec of one recovery cell: the cell coordinates plus the
/// [`recovery::RunOptions`] knobs that are part of the result's identity
/// (`threads` excluded for the same cache-key reason as above).
fn recovery_spec(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    options: &recovery::RunOptions,
) -> JsonValue {
    JsonValue::object()
        .with("schema", recovery::SCHEMA)
        .with("protocol", kind.key())
        .with("graph", graph.key())
        .with("n", n)
        .with("quick", options.quick)
        .with("trials", options.trials)
}

/// The recovery grid as work units, in [`recovery::grid_cells`] (= report)
/// order.
pub fn recovery_units(options: &recovery::RunOptions) -> Vec<WorkUnit> {
    recovery::grid_cells(options)
        .into_iter()
        .enumerate()
        .map(|(i, (kind, graph, n))| {
            WorkUnit::new(
                i as u64,
                RECOVERY_JOB,
                recovery_spec(kind, graph, n, options),
            )
        })
        .collect()
}

/// Checks a spec's embedded job-schema version against what this worker
/// produces.
fn expect_job_schema(spec: &JsonValue, supported: &'static str) -> Result<(), WorkError> {
    match spec.get("schema").and_then(JsonValue::as_str) {
        Some(got) if got == supported => Ok(()),
        got => Err(WorkError::SchemaMismatch {
            requested: got.unwrap_or("<missing>").to_string(),
            supported: supported.to_string(),
        }),
    }
}

/// A small exact-usize field reader (the spec values are far below 2⁵³, so
/// they travel as plain JSON numbers; fractions and negatives are rejected,
/// not truncated).
fn spec_usize(spec: &JsonValue, name: &str) -> Result<usize, WorkError> {
    let x = spec
        .get(name)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| WorkError::BadSpec {
            detail: format!("{name} missing or not a number"),
        })?;
    if x.is_finite() && x.fract() == 0.0 && x >= 0.0 && x <= u32::MAX as f64 {
        Ok(x as usize)
    } else {
        Err(WorkError::BadSpec {
            detail: format!("{name} is not an exact small unsigned integer: {x}"),
        })
    }
}

fn spec_bool(spec: &JsonValue, name: &str) -> Result<bool, WorkError> {
    spec.get(name)
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| WorkError::BadSpec {
            detail: format!("{name} missing or not a boolean"),
        })
}

fn spec_protocol(spec: &JsonValue) -> Result<ProtocolKind, WorkError> {
    spec.get("protocol")
        .and_then(JsonValue::as_str)
        .and_then(protocol_from_key)
        .ok_or_else(|| WorkError::BadSpec {
            detail: "protocol missing or unknown".to_string(),
        })
}

fn spec_n(spec: &JsonValue) -> Result<usize, WorkError> {
    let n = spec_usize(spec, "n")?;
    if n < 2 {
        return Err(WorkError::BadSpec {
            detail: format!("population size {n} is below the model's minimum of 2"),
        });
    }
    Ok(n)
}

fn spec_cell(spec: &JsonValue) -> Result<(ProtocolKind, GridGraph, usize), WorkError> {
    let protocol = spec_protocol(spec)?;
    let graph = spec
        .get("graph")
        .and_then(JsonValue::as_str)
        .and_then(graph_from_key)
        .ok_or_else(|| WorkError::BadSpec {
            detail: "graph missing or unknown".to_string(),
        })?;
    Ok((protocol, graph, spec_n(spec)?))
}

fn spec_hotloop_case(spec: &JsonValue) -> Result<(ProtocolKind, HotloopGraph, usize), WorkError> {
    let protocol = spec_protocol(spec)?;
    let graph = spec
        .get("graph")
        .and_then(JsonValue::as_str)
        .and_then(hotloop_graph_from_key)
        .ok_or_else(|| WorkError::BadSpec {
            detail: "graph missing or unknown".to_string(),
        })?;
    Ok((protocol, graph, spec_n(spec)?))
}

/// The worker-side handler for [`STABILIZATION_JOB`] units: validates the
/// spec, runs the cell through [`stabilization::run_cell`] on an inner
/// runner of `threads` workers, and returns
/// [`stabilization::cell_to_json`] — exactly the bytes the in-process
/// report would emit for this cell.
pub fn stabilization_handler(
    threads: usize,
) -> impl Fn(&str, &JsonValue) -> Result<JsonValue, WorkError> {
    move |job, spec| {
        if job != STABILIZATION_JOB {
            return Err(WorkError::UnknownJob { job: job.into() });
        }
        expect_job_schema(spec, stabilization::SCHEMA)?;
        let (kind, graph, n) = spec_cell(spec)?;
        let options = RunOptions {
            quick: spec_bool(spec, "quick")?,
            sizes: vec![n],
            trials: spec_usize(spec, "trials")?,
            islands: spec_usize(spec, "islands")? as u32,
            island_iterations: spec_usize(spec, "island_iterations")? as u32,
            replays: spec_usize(spec, "replays")?,
            threads: Some(threads),
        };
        let runner = BatchRunner::with_threads(threads.max(1));
        let cell = stabilization::run_cell(kind, graph, n, &options, &runner);
        Ok(stabilization::cell_to_json(&cell))
    }
}

/// The worker-side handler for [`RECOVERY_JOB`] units: validates the spec,
/// runs the cell through [`recovery::run_cell`] on an inner runner of
/// `threads` workers, and returns [`recovery::cell_to_json`] — exactly the
/// bytes the in-process report would emit for this cell.
pub fn recovery_handler(
    threads: usize,
) -> impl Fn(&str, &JsonValue) -> Result<JsonValue, WorkError> {
    move |job, spec| {
        if job != RECOVERY_JOB {
            return Err(WorkError::UnknownJob { job: job.into() });
        }
        expect_job_schema(spec, recovery::SCHEMA)?;
        let (kind, graph, n) = spec_cell(spec)?;
        let options = recovery::RunOptions {
            quick: spec_bool(spec, "quick")?,
            sizes: vec![n],
            trials: spec_usize(spec, "trials")?,
            threads: Some(threads),
        };
        let runner = BatchRunner::with_threads(threads.max(1));
        let cell = recovery::run_cell(kind, graph, n, &options, &runner);
        Ok(recovery::cell_to_json(&cell))
    }
}

/// The worker-side handler for [`HOTLOOP_JOB`] units:
/// [`hotloop::run_case`] behind the same validation surface.
pub fn hotloop_handler() -> impl Fn(&str, &JsonValue) -> Result<JsonValue, WorkError> {
    move |job, spec| {
        if job != HOTLOOP_JOB {
            return Err(WorkError::UnknownJob { job: job.into() });
        }
        expect_job_schema(spec, hotloop::SCHEMA)?;
        let (kind, graph, n) = spec_hotloop_case(spec)?;
        let quick = spec_bool(spec, "quick")?;
        let case = hotloop::run_case(kind, graph, n, quick);
        Ok(hotloop::case_to_json(&case))
    }
}

/// Coordinator-side knobs of a `--fabric N` run.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Worker subprocesses (`--fabric N`, at least 1).
    pub workers: usize,
    /// Reuse cached results (`--resume`); without it the cache is
    /// write-only.
    pub resume: bool,
    /// Cache/journal directory (default [`ssle_fabric::DEFAULT_CACHE_DIR`]).
    pub cache_dir: PathBuf,
    /// Per-unit wall-clock budget before a worker is killed and the unit
    /// retried.
    pub unit_timeout: Duration,
}

impl FabricConfig {
    /// Defaults for the given pool size and mode: the standard cache
    /// directory, and a per-unit timeout generous enough that only a
    /// genuinely wedged worker trips it (full-mode stabilization cells run
    /// minutes, not hours).
    pub fn new(workers: usize, quick: bool) -> Self {
        FabricConfig {
            workers: workers.max(1),
            resume: false,
            cache_dir: PathBuf::from(ssle_fabric::DEFAULT_CACHE_DIR),
            unit_timeout: if quick {
                Duration::from_secs(600)
            } else {
                Duration::from_secs(3600)
            },
        }
    }

    fn coordinator_options(&self) -> Result<CoordinatorOptions, String> {
        let mut options = CoordinatorOptions::new(self.workers);
        options.unit_timeout = self.unit_timeout;
        options.cache = Some(ResultCache::open(&self.cache_dir).map_err(|e| e.to_string())?);
        options.reuse_cached = self.resume;
        Ok(options)
    }
}

/// What a fabric run did, for the binaries' summary line (and the CI
/// smoke's `executed=0` warm-cache assertion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricStats {
    /// Units executed by workers this run.
    pub executed: usize,
    /// Units answered from the cache.
    pub cached: usize,
    /// Worker subprocesses respawned after crashes/timeouts.
    pub worker_restarts: usize,
}

impl std::fmt::Display for FabricStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "executed={} cached={} worker_restarts={}",
            self.executed, self.cached, self.worker_restarts
        )
    }
}

/// Runs units through a coordinator pool and returns the payloads in unit
/// order, with typed per-unit failures flattened into one message naming
/// every failed cell (the grid is small; listing beats truncating).
fn run_grid(
    command: &WorkerCommand,
    units: &[WorkUnit],
    config: &FabricConfig,
) -> Result<(Vec<JsonValue>, FabricStats), String> {
    let outcome = run_units(command, units, &config.coordinator_options()?)
        .map_err(|e| format!("fabric run failed: {e}"))?;
    let stats = FabricStats {
        executed: outcome.executed,
        cached: outcome.cached,
        worker_restarts: outcome.worker_restarts,
    };
    let failures = outcome.failures();
    if !failures.is_empty() {
        let listed: Vec<String> = failures
            .iter()
            .map(|(i, e)| format!("unit {i} ({}): {e}", units[*i].spec.to_json()))
            .collect();
        return Err(format!(
            "{} of {} units failed after retries:\n  {}",
            failures.len(),
            units.len(),
            listed.join("\n  ")
        ));
    }
    let payloads = outcome
        .into_payloads()
        .map_err(|(i, e)| format!("unit {i}: {e}"))?;
    Ok((payloads, stats))
}

/// Runs the stabilization grid through worker subprocesses and assembles
/// the report JSON — byte-identical to `stabilization::run(options)`'s
/// `to_json_value()` (pinned by `tests/fabric_equivalence.rs`).
pub fn run_stabilization_fabric(
    command: &WorkerCommand,
    options: &RunOptions,
    config: &FabricConfig,
) -> Result<(JsonValue, FabricStats), String> {
    let units = stabilization_units(options);
    let (cells, stats) = run_grid(command, &units, config)?;
    Ok((stabilization::report_json_from_cells(options, cells), stats))
}

/// Runs the recovery grid through worker subprocesses and assembles the
/// report JSON — byte-identical to `recovery::run(options)`'s
/// `to_json_value()` by the same construction as the stabilization fabric.
pub fn run_recovery_fabric(
    command: &WorkerCommand,
    options: &recovery::RunOptions,
    config: &FabricConfig,
) -> Result<(JsonValue, FabricStats), String> {
    let units = recovery_units(options);
    let (cells, stats) = run_grid(command, &units, config)?;
    Ok((recovery::report_json_from_cells(options, cells), stats))
}

/// Runs the hot-loop grid through worker subprocesses and assembles the
/// report JSON (schema-identical to `hotloop::run(quick)`; timings are
/// wall-clock, so not byte-identical across runs).
pub fn run_hotloop_fabric(
    command: &WorkerCommand,
    quick: bool,
    config: &FabricConfig,
) -> Result<(JsonValue, FabricStats), String> {
    let units = hotloop_units(quick);
    let (cases, stats) = run_grid(command, &units, config)?;
    Ok((hotloop::report_json_from_cases(quick, cases), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_options() -> RunOptions {
        RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            islands: 2,
            island_iterations: 1,
            replays: 2,
            threads: Some(1),
        }
    }

    #[test]
    fn stabilization_units_follow_report_order_and_ignore_threads() {
        let options = tiny_options();
        let units = stabilization_units(&options);
        let cells = stabilization::grid_cells(&options);
        assert_eq!(units.len(), cells.len());
        for (i, (unit, (kind, graph, n))) in units.iter().zip(&cells).enumerate() {
            assert_eq!(unit.seq, i as u64);
            assert_eq!(unit.job, STABILIZATION_JOB);
            assert_eq!(
                unit.spec.get("protocol").and_then(JsonValue::as_str),
                Some(kind.key())
            );
            assert_eq!(
                unit.spec.get("graph").and_then(JsonValue::as_str),
                Some(graph.key())
            );
            assert_eq!(
                unit.spec.get("n").and_then(JsonValue::as_f64),
                Some(*n as f64)
            );
            assert!(
                unit.spec.get("threads").is_none(),
                "thread counts must not reach the cache key"
            );
        }
        // The cache key really is thread-invariant.
        let mut two_threads = options.clone();
        two_threads.threads = Some(2);
        let again = stabilization_units(&two_threads);
        for (a, b) in units.iter().zip(&again) {
            assert_eq!(a.cache_key(), b.cache_key());
        }
    }

    #[test]
    fn handler_runs_a_cell_to_the_exact_report_encoding() {
        let options = tiny_options();
        let unit = &stabilization_units(&options)[0];
        let handler = stabilization_handler(1);
        let payload = handler(&unit.job, &unit.spec).expect("cell runs");
        let (kind, graph, n) = stabilization::grid_cells(&options)[0];
        let runner = BatchRunner::with_threads(1);
        let direct = stabilization::cell_to_json(&stabilization::run_cell(
            kind, graph, n, &options, &runner,
        ));
        assert_eq!(
            payload.to_json(),
            direct.to_json(),
            "worker payload must be byte-identical to the in-process cell"
        );
    }

    #[test]
    fn handlers_reject_bad_units_with_typed_errors() {
        let handler = stabilization_handler(1);
        assert!(matches!(
            handler("other-job", &JsonValue::Null),
            Err(WorkError::UnknownJob { .. })
        ));
        let v2 = JsonValue::object().with("schema", "stabilization-bench/v2");
        match handler(STABILIZATION_JOB, &v2) {
            Err(WorkError::SchemaMismatch {
                requested,
                supported,
            }) => {
                assert_eq!(requested, "stabilization-bench/v2");
                assert_eq!(supported, stabilization::SCHEMA);
            }
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
        let no_protocol = JsonValue::object()
            .with("schema", stabilization::SCHEMA)
            .with("graph", "ring")
            .with("n", 8usize);
        assert!(matches!(
            handler(STABILIZATION_JOB, &no_protocol),
            Err(WorkError::BadSpec { .. })
        ));
        let tiny_n = JsonValue::object()
            .with("schema", stabilization::SCHEMA)
            .with("protocol", "ppl")
            .with("graph", "ring")
            .with("n", 1usize)
            .with("quick", true)
            .with("trials", 2usize)
            .with("islands", 2usize)
            .with("island_iterations", 1usize)
            .with("replays", 2usize);
        assert!(matches!(
            handler(STABILIZATION_JOB, &tiny_n),
            Err(WorkError::BadSpec { .. })
        ));

        let hotloop = hotloop_handler();
        assert!(matches!(
            hotloop("other-job", &JsonValue::Null),
            Err(WorkError::UnknownJob { .. })
        ));
        assert!(matches!(
            hotloop(HOTLOOP_JOB, &JsonValue::object().with("schema", "x")),
            Err(WorkError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn recovery_units_and_handler_match_the_in_process_path() {
        let options = recovery::RunOptions {
            quick: true,
            sizes: vec![8],
            trials: 2,
            threads: Some(1),
        };
        let units = recovery_units(&options);
        let cells = recovery::grid_cells(&options);
        assert_eq!(units.len(), cells.len());
        for (i, (unit, (kind, graph, n))) in units.iter().zip(&cells).enumerate() {
            assert_eq!(unit.seq, i as u64);
            assert_eq!(unit.job, RECOVERY_JOB);
            assert_eq!(
                unit.spec.get("protocol").and_then(JsonValue::as_str),
                Some(kind.key())
            );
            assert_eq!(
                unit.spec.get("graph").and_then(JsonValue::as_str),
                Some(graph.key())
            );
            assert_eq!(
                unit.spec.get("n").and_then(JsonValue::as_f64),
                Some(*n as f64)
            );
            assert!(
                unit.spec.get("threads").is_none(),
                "thread counts must not reach the cache key"
            );
        }
        let mut two_threads = options.clone();
        two_threads.threads = Some(2);
        for (a, b) in units.iter().zip(&recovery_units(&two_threads)) {
            assert_eq!(a.cache_key(), b.cache_key());
        }

        // The worker handler emits exactly the in-process cell bytes.
        let handler = recovery_handler(1);
        let payload = handler(&units[0].job, &units[0].spec).expect("cell runs");
        let (kind, graph, n) = cells[0];
        let runner = BatchRunner::with_threads(1);
        let direct = recovery::cell_to_json(&recovery::run_cell(kind, graph, n, &options, &runner));
        assert_eq!(payload.to_json(), direct.to_json());

        // Typed errors on bad units.
        assert!(matches!(
            handler("other-job", &JsonValue::Null),
            Err(WorkError::UnknownJob { .. })
        ));
        assert!(matches!(
            handler(RECOVERY_JOB, &JsonValue::object().with("schema", "x")),
            Err(WorkError::SchemaMismatch { .. })
        ));
        let no_protocol = JsonValue::object()
            .with("schema", recovery::SCHEMA)
            .with("graph", "ring")
            .with("n", 8usize);
        assert!(matches!(
            handler(RECOVERY_JOB, &no_protocol),
            Err(WorkError::BadSpec { .. })
        ));
    }

    #[test]
    fn hotloop_units_cover_the_grid() {
        let units = hotloop_units(true);
        assert_eq!(units.len(), hotloop::grid().len());
        assert!(units.iter().all(|u| u.job == HOTLOOP_JOB));
        // Quick and full grids are distinct cache populations.
        let full = hotloop_units(false);
        assert_ne!(units[0].cache_key(), full[0].cache_key());
    }

    /// The hot-loop specs carry the v2 schema tag, so a case cached by a v1
    /// build (whose payload still has the boxed-baseline columns) has a
    /// different content address and is never reused by `--resume`.
    #[test]
    fn hotloop_units_never_hit_a_v1_cache_entry() {
        for unit in hotloop_units(true) {
            assert_eq!(
                unit.spec.get("schema").and_then(JsonValue::as_str),
                Some("hotloop-bench/v2")
            );
            let mut v1_spec = JsonValue::object().with("schema", "hotloop-bench/v1");
            for key in ["protocol", "graph", "n", "quick"] {
                v1_spec = v1_spec.with(key, unit.spec.get(key).expect("spec key").clone());
            }
            let v1 = WorkUnit::new(unit.seq, HOTLOOP_JOB, v1_spec);
            assert_ne!(unit.cache_key(), v1.cache_key());
        }
    }
}
