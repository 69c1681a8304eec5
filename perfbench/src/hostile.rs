//! The `hostile-search` workload: `stabilization::run_cell` with the quick
//! (`RunOptions::new(true)`) budgets on the cells `angluin-mod-k/ring/64`
//! and `ppl/ring/64`.
//!
//! Every evaluation runs through a custom `DynScheduler` and fault-plan
//! mutations; a censored worst case then goes through recurrence detection,
//! the closure walk, the rate curve and JSON.  The cells are fixed by the
//! grid, so their inputs do not depend on the workload seed.
//!
//! The traced run first runs the production `run_cell` (the untraced
//! reference), then recomposes it from `evaluate`,
//! `worst_case_search_islands` (with a timing wrapper around the
//! evaluator), `certify_cell`, `rate_curve_with` and `cell_to_json`, and
//! requires the recomposed cell to serialize byte-identical to the
//! production one.

use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use analysis::json::JsonValue;
use population::{BatchRunner, SweepPoint};
use ssle_adversary::{
    worst_case_search_islands, Candidate, ChurnDomain, Evaluation, FaultDomain, GraphDomain,
    IslandConfig, IslandOutcome, SchedulerSpec, SearchSpace, SpecDomain,
};
use ssle_bench::stabilization::{
    cell_to_json, certificate_candidate, certify_cell, evaluate, rate_curve_with,
    report_json_from_cells, run_cell, stab_budget, stab_scenario, validate_report, variant_names,
    CellResult, GridGraph, RunOptions,
};
use ssle_bench::ProtocolKind;

use crate::convergence::closure_stretch;
use crate::stats::{median, ratio};
use crate::{median_time, Outcome, Plan, Spans};

/// The measured cells, in run order.
pub const CELLS: [(ProtocolKind, GridGraph); 2] = [
    (ProtocolKind::AngluinModK, GridGraph::Ring),
    (ProtocolKind::Ppl, GridGraph::Ring),
];

/// The tracked report the output check splices the measured cells into.
pub const TRACKED_REPORT: &str = "BENCH_stabilization.json";

/// The options `run_cell` gets: the quick budgets, the plan's size, one
/// worker thread.  `shrink` (tests only) cuts the search to one short
/// island.
pub fn options(plan: &Plan) -> RunOptions {
    let mut options = RunOptions {
        sizes: vec![plan.n],
        threads: Some(1),
        ..RunOptions::new(true)
    };
    if plan.shrink_search {
        options.trials = 1;
        options.islands = 1;
        options.island_iterations = 1;
        options.replays = 2;
    }
    options
}

/// The base seed of a grid cell, as `stabilization::run_cell` derives it
/// (the derivation is private to that module; the traced run's
/// byte-identity check fails if the two ever diverge).
pub fn cell_seed(kind: ProtocolKind, graph: GridGraph, n: usize) -> u64 {
    let ki = ProtocolKind::ALL
        .iter()
        .position(|k| *k == kind)
        .unwrap_or(7) as u64;
    let gi = GridGraph::ALL
        .iter()
        .position(|g| *g == graph)
        .expect("every grid graph is in ALL") as u64;
    0x5AB1 ^ (ki << 8) ^ (gi << 16) ^ ((n as u64) << 24)
}

/// Runs the hostile-search workload.
pub fn run(plan: &Plan) -> Outcome {
    let options = options(plan);
    let runner = BatchRunner::with_threads(1);
    let mut out = Outcome::default();
    if plan.trace {
        out.attempted = (plan.passes * CELLS.len()) as u64;
        traced(plan, &options, &runner, &mut out);
    } else {
        untraced(plan, &options, &runner, &mut out);
    }
    out
}

/// The production cell's output checks: the cell passes
/// `validate_report` when spliced into the tracked report, and its worst
/// candidate, rebuilt from the JSON, re-evaluates `replays` times to the
/// recorded `worst_steps`.  Returns the replayed steps and seconds.
fn check_cell(
    plan: &Plan,
    options: &RunOptions,
    kind: ProtocolKind,
    graph: GridGraph,
    cell: &CellResult,
    json: &JsonValue,
    replays: usize,
) -> Result<(u64, f64), String> {
    validate_spliced(&plan.root, options, json)?;
    let candidate =
        certificate_candidate(kind, json).ok_or("the worst candidate does not rebuild")?;
    let (mut steps, mut secs) = (0u64, 0.0f64);
    for _ in 0..replays {
        let start = Instant::now();
        let replay = evaluate(kind, graph, cell.n, cell.budget, &candidate);
        secs += start.elapsed().as_secs_f64();
        if replay.steps != cell.worst_steps || replay.converged != cell.worst_converged {
            return Err(format!(
                "worst case re-evaluates to {} steps (converged {}), recorded {} ({})",
                replay.steps, replay.converged, cell.worst_steps, cell.worst_converged
            ));
        }
        steps += replay.steps;
    }
    Ok((steps, secs))
}

/// Splices one cell into the tracked report in place of the cell with the
/// same protocol, graph and size, and runs `validate_report` on the result.
///
/// # Errors
///
/// Describes a missing or unreadable report, a cell that has no slot in
/// the grid, or the first violation `validate_report` finds.
pub fn validate_spliced(root: &Path, options: &RunOptions, cell: &JsonValue) -> Result<(), String> {
    let path = root.join(TRACKED_REPORT);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let tracked = JsonValue::parse(&text)?;
    let mut cells = tracked
        .get("cells")
        .and_then(JsonValue::as_array)
        .ok_or("the tracked report has no cells")?
        .to_vec();
    let key = |c: &JsonValue| {
        (
            c.get("protocol")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            c.get("graph")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            c.get("n").and_then(JsonValue::as_f64),
        )
    };
    let slot = cells
        .iter()
        .position(|c| key(c) == key(cell))
        .ok_or("the cell has no slot in the tracked grid")?;
    cells[slot] = cell.clone();
    validate_report(&report_json_from_cells(options, cells))
}

/// Closure at the cell's size: the cell protocol's Table 1 trial on the
/// ring, converged from the cell's base seed, then a closure stretch after
/// every burst of which the scenario's stop predicate still holds (the
/// leader itself may move: `angluin-mod-k` passes its token around).
/// Returns the stretch's steps and seconds.
fn closure(plan: &Plan, kind: ProtocolKind, graph: GridGraph) -> Result<(u64, f64), String> {
    let n = plan.n;
    let scenario = kind.scenario();
    let point = SweepPoint::new(n, cell_seed(kind, graph, n));
    let mut run = scenario.run_full(&point);
    if !run.report.converged() {
        return Err("the closure trial did not converge".to_string());
    }
    let mut stop = scenario.prepare(&point).stop;
    closure_stretch(&mut run.sim, n, plan.closure_n2, |sim| {
        stop(sim.config().states())
            .then_some(())
            .ok_or_else(|| format!("{} no longer holds", scenario.stop_name()))
    })
}

/// One cell's set-up cost: the median over `reps` repetitions of building
/// its scenario, preparing its base point and building its graph.
fn measure_setup(kind: ProtocolKind, graph: GridGraph, n: usize, budget: u64, reps: usize) -> f64 {
    let point = SweepPoint::new(n, cell_seed(kind, graph, n));
    median_time(reps, || {
        let scenario = stab_scenario(kind, graph, 0, budget);
        let prepared = scenario.prepare(&point);
        let built = graph.family().build(n).expect("the ring builds at n >= 2");
        std::hint::black_box((prepared, built));
    })
}

fn cell_label(kind: ProtocolKind, graph: GridGraph, n: usize) -> String {
    format!("{}/{}/{n}", kind.key(), graph.key())
}

/// The untraced run: the counted core of `plan.passes` passes over the
/// cells, then further passes while `plan.seconds` lasts.  `wall_s`,
/// `setup_s` and the exact counts cover the core.
fn untraced(plan: &Plan, options: &RunOptions, runner: &BatchRunner, out: &mut Outcome) {
    let n = plan.n;
    let mut setup = vec![Vec::new(); CELLS.len()];
    let (mut setup_elapsed, mut core_wall) = (0.0, 0.0);
    let mut cell_s = Vec::new();
    let (mut replay_steps, mut replay_s) = (0u64, 0.0f64);
    let (mut closure_steps, mut closure_s) = (0u64, 0.0f64);
    let mut first: Vec<String> = Vec::new();
    let start_run = Instant::now();
    let mut pass = 0;
    while plan.another(pass, plan.passes, start_run.elapsed().as_secs_f64()) {
        for (i, (kind, graph)) in CELLS.into_iter().enumerate() {
            if pass < plan.passes {
                let start = Instant::now();
                let budget = stab_budget(kind, n, options.quick);
                setup[i].push(measure_setup(kind, graph, n, budget, plan.setup_reps));
                setup_elapsed += start.elapsed().as_secs_f64();
            }
            let start = Instant::now();
            let cell = run_cell(kind, graph, n, options, runner);
            cell_s.push(start.elapsed().as_secs_f64());
            let json = cell_to_json(&cell);
            let label = cell_label(kind, graph, n);
            let repeated = repeatable(pass, &mut first, i, json.to_json(), &label, &cell, out);
            let checked = check_cell(plan, options, kind, graph, &cell, &json, plan.replays)
                .and_then(|(steps, secs)| {
                    replay_steps += steps;
                    replay_s += secs;
                    let (steps, secs) = closure(plan, kind, graph)?;
                    closure_steps += steps;
                    closure_s += secs;
                    Ok(())
                })
                .and(repeated);
            out.check(&label, checked);
        }
        pass += 1;
        if pass <= plan.passes {
            // The set-up measurements interleave with the cells; they are
            // not part of the timed work.
            core_wall = start_run.elapsed().as_secs_f64() - setup_elapsed;
        }
    }
    out.attempted = (pass * CELLS.len()) as u64;
    let setup_s: f64 = setup.iter().map(|per_pass| median(per_pass)).sum();
    out.end_to_end
        .insert("converge_steps_per_s", ratio(replay_steps as f64, replay_s));
    out.end_to_end.insert("trial_s_p50", median(&cell_s));
    out.end_to_end.insert(
        "closure_steps_per_s",
        ratio(closure_steps as f64, closure_s),
    );
    out.end_to_end.insert("wall_s", core_wall);
    out.end_to_end.insert("setup_s", setup_s);
    out.samples.push(("passes", pass));
    out.samples.push(("core_passes", plan.passes));
    out.samples.push(("cells", cell_s.len()));
    out.samples
        .push(("worst_replays", cell_s.len() * plan.replays));
    out.samples.push(("setup_reps", plan.setup_reps));
    out.series.push(("cell_s", cell_s));
}

/// Requires every pass to reproduce the first pass's cell JSON, and
/// records the first pass's exact counts.
fn repeatable(
    pass: usize,
    first: &mut Vec<String>,
    i: usize,
    text: String,
    label: &str,
    cell: &CellResult,
    out: &mut Outcome,
) -> Result<(), String> {
    if pass == 0 {
        out.count(format!("{label}.worst_steps"), cell.worst_steps as f64);
        out.count(
            format!("{label}.search_evaluations"),
            u64::from(cell.search_evaluations),
        );
        out.count(format!("{label}.certified"), cell.certified.is_some());
        out.count(format!("{label}.json_bytes"), text.len());
        first.push(text);
        Ok(())
    } else if first[i] == text {
        Ok(())
    } else {
        Err(format!("pass {pass} serialized differently from pass 0"))
    }
}

/// The pipeline stage an evaluation ran in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    Pool,
    Search,
    Rate,
}

/// One timed `evaluate` call.
#[derive(Clone, Copy, Debug)]
struct EvalRecord {
    stage: Stage,
    spec: &'static str,
    steps: u64,
    secs: f64,
}

fn spec_class(spec: &SchedulerSpec) -> &'static str {
    match spec {
        SchedulerSpec::Random => "random",
        SchedulerSpec::Weighted { .. } => "weighted",
        SchedulerSpec::EpochPartition { .. } => "epoch",
        SchedulerSpec::Greedy { .. } => "greedy",
    }
}

/// What the recomposition measured besides the spans.
#[derive(Default)]
struct Recomposed {
    evals: Vec<EvalRecord>,
    search_evaluations: u64,
    certify_attempts: u64,
    certified: u64,
    serialize_bytes: u64,
}

/// `run_cell`, recomposed from the public functions it calls, with every
/// stage timed into `spans` and every `evaluate` call logged.
fn recompose(
    kind: ProtocolKind,
    graph: GridGraph,
    n: usize,
    options: &RunOptions,
    runner: &BatchRunner,
    spans: &mut Spans,
    rec: &mut Recomposed,
) -> String {
    let budget = stab_budget(kind, n, options.quick);
    let base = cell_seed(kind, graph, n);
    let log: Mutex<Vec<EvalRecord>> = Mutex::new(Vec::new());
    let timed = |stage: Stage, c: &Candidate, budget: u64| -> Evaluation {
        let start = Instant::now();
        let e = evaluate(kind, graph, n, budget, c);
        let secs = start.elapsed().as_secs_f64();
        log.lock()
            .expect("the evaluation log is never poisoned")
            .push(EvalRecord {
                stage,
                spec: spec_class(&c.spec),
                steps: e.steps,
                secs,
            });
        e
    };

    let pool_candidates: Vec<Candidate> = (0..options.trials)
        .map(|t| Candidate::baseline(base.wrapping_add(t as u64)))
        .collect();
    let pool: Vec<(Candidate, Evaluation)> = spans.time("pool", || {
        runner
            .run_map(&pool_candidates, |c| timed(Stage::Pool, c, budget))
            .into_iter()
            .zip(pool_candidates.iter().cloned())
            .map(|(e, c)| (c, e))
            .collect()
    });
    let mean_steps = pool.iter().map(|(_, e)| e.steps as f64).sum::<f64>() / options.trials as f64;
    let converged_fraction =
        pool.iter().filter(|(_, e)| e.converged).count() as f64 / options.trials as f64;
    let space = SearchSpace {
        variants: variant_names(kind).len() as u32,
        specs: SpecDomain {
            greedy: n <= 64,
            ..SpecDomain::all()
        },
        faults: FaultDomain::bursts(budget.saturating_sub(1), n as u32),
        churn: ChurnDomain::disabled(),
        graph: GraphDomain::disabled(),
    };
    let search_seed = base ^ 0xFACE;
    let IslandOutcome {
        best,
        best_island,
        evaluations,
    } = spans.time("search", || {
        worst_case_search_islands(
            &space,
            &pool,
            |c| timed(Stage::Search, c, budget),
            &IslandConfig {
                islands: options.islands,
                iterations: options.island_iterations,
                seed: search_seed,
                cooling: 0.85,
            },
            runner,
        )
    });
    rec.search_evaluations += u64::from(evaluations);
    let attempts_certify =
        !best.converged && matches!(best.candidate.spec, SchedulerSpec::EpochPartition { .. });
    let certified = if best.converged {
        None
    } else {
        spans.time("certify", || {
            certify_cell(
                kind,
                graph,
                n,
                budget,
                options.step_ceiling(),
                &best.candidate,
            )
        })
    };
    rec.certify_attempts += u64::from(attempts_certify);
    rec.certified += u64::from(certified.is_some());
    let rate = spans.time("rate", || {
        rate_curve_with(
            budget,
            &best.candidate,
            certified.is_some(),
            base ^ 0x7A7E,
            options.replays,
            options.step_ceiling(),
            runner,
            |c, b| timed(Stage::Rate, c, b),
        )
    });
    let cell = CellResult {
        protocol: kind.key(),
        graph: graph.key(),
        graph_spec: graph.spec(),
        n,
        budget,
        trials: options.trials,
        mean_steps,
        converged_fraction,
        worst_steps: best.steps,
        worst_converged: best.converged,
        worst_variant: variant_names(kind)[best.candidate.variant as usize],
        worst_seed: best.candidate.seed,
        worst_scheduler: best.candidate.spec.key(),
        worst_spec: best.candidate.spec,
        worst_faults: best.candidate.faults,
        worst_churn: best.candidate.churn,
        worst_graph: best.candidate.graph,
        best_island,
        search_evaluations: evaluations,
        search_seed,
        certified,
        rate,
    };
    let text = spans.time("serialize", || cell_to_json(&cell).to_json());
    rec.serialize_bytes += text.len() as u64;
    rec.evals.extend(
        log.into_inner()
            .expect("the evaluation log is never poisoned"),
    );
    text
}

fn traced(plan: &Plan, options: &RunOptions, runner: &BatchRunner, out: &mut Outcome) {
    let n = plan.n;
    let mut spans = Spans::default();
    let mut rec = Recomposed::default();
    let (mut traced_s, mut untraced_s) = (0.0f64, 0.0f64);
    let mut prepare_ms = Vec::new();
    let mut first: Vec<String> = Vec::new();
    for pass in 0..plan.passes {
        for (i, (kind, graph)) in CELLS.into_iter().enumerate() {
            let start = Instant::now();
            let cell = run_cell(kind, graph, n, options, runner);
            untraced_s += start.elapsed().as_secs_f64();
            let json = cell_to_json(&cell);
            let production = json.to_json();
            let label = cell_label(kind, graph, n);
            let checked = check_cell(plan, options, kind, graph, &cell, &json, 1);

            let start = Instant::now();
            let recomposed = recompose(kind, graph, n, options, runner, &mut spans, &mut rec);
            traced_s += start.elapsed().as_secs_f64();

            let budget = stab_budget(kind, n, options.quick);
            let scenario = stab_scenario(kind, graph, 0, budget);
            let point = SweepPoint::new(n, cell_seed(kind, graph, n));
            let start = Instant::now();
            std::hint::black_box(scenario.prepare(&point));
            prepare_ms.push(start.elapsed().as_secs_f64() * 1e3);

            let identical = if recomposed == production {
                Ok(())
            } else {
                Err(
                    "the recomposed cell does not serialize byte-identical to run_cell's"
                        .to_string(),
                )
            };
            let repeated = repeatable(pass, &mut first, i, production, &label, &cell, out);
            out.check(&label, checked.and(identical).and(repeated));
        }
    }

    let stage = |s: Stage| rec.evals.iter().filter(move |e| e.stage == s);
    let search_ms: Vec<f64> = stage(Stage::Search).map(|e| e.secs * 1e3).collect();
    // An evaluation improves when it beats every evaluation before it,
    // starting from the pool's worst.
    let mut best = stage(Stage::Pool).map(|e| e.steps).max().unwrap_or(0);
    let mut improved = 0u64;
    for e in stage(Stage::Search) {
        if e.steps > best {
            best = e.steps;
            improved += 1;
        }
    }
    let rate_replays = stage(Stage::Rate).count() as u64;
    let class_rate = |class: &str| {
        let (steps, secs) = rec
            .evals
            .iter()
            .filter(|e| e.spec == class)
            .fold((0u64, 0.0f64), |(s, t), e| (s + e.steps, t + e.secs));
        ratio(steps as f64, secs)
    };
    let eval_steps: u64 = rec.evals.iter().map(|e| e.steps).sum();
    let layer = &mut out.per_layer;
    layer.insert("setup.prepare_ms", median(&prepare_ms));
    layer.insert("search.evals", rec.search_evaluations as f64);
    layer.insert("search.eval_ms_p50", median(&search_ms));
    layer.insert(
        "search.improve_ratio",
        ratio(improved as f64, search_ms.len() as f64),
    );
    layer.insert("eval.steps_per_s.random", class_rate("random"));
    layer.insert("eval.steps_per_s.epoch", class_rate("epoch"));
    layer.insert("eval.steps_per_s.greedy", class_rate("greedy"));
    layer.insert("certify.s", spans.secs("certify"));
    layer.insert("certify.attempts", rec.certify_attempts as f64);
    layer.insert(
        "certify.yield",
        ratio(rec.certified as f64, rec.certify_attempts as f64),
    );
    layer.insert("rate.s", spans.secs("rate"));
    layer.insert("rate.replays", rate_replays as f64);
    layer.insert("serialize.ms", spans.secs("serialize") * 1e3);
    layer.insert("serialize.bytes", rec.serialize_bytes as f64);
    layer.insert("trace.overhead", ratio(traced_s, untraced_s) - 1.0);
    layer.insert("trace.coverage", ratio(spans.total_secs(), traced_s));
    layer.insert("trace.traced_s", traced_s);
    layer.insert("trace.untraced_s", untraced_s);
    out.count("search.evals", rec.search_evaluations as f64);
    out.count("search.logged_evals", search_ms.len());
    out.count("certify.attempts", rec.certify_attempts as f64);
    out.count("rate.replays", rate_replays as f64);
    out.count("eval.steps", eval_steps as f64);
    out.samples.push(("cells", plan.passes * CELLS.len()));
    out.samples.push(("evaluations", rec.evals.len()));
}
