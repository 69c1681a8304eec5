//! The `ppl-ring` and `fj-oracle` workloads: convergence trials from
//! uniformly random starts on the directed ring, each followed by a closure
//! stretch of plain steps from inside the safe set.
//!
//! The untraced run times [`Scenario::run_full`], the production path every
//! figure and sweep pays.  The traced run first runs the same production
//! trial (its time is the untraced reference of `trace.overhead`), then
//! recomposes it from the layers' public functions — `Scenario::prepare`,
//! `GraphFamily::build`, `Simulation::new`, `run_steps` bursts of the
//! production `check_interval` and the prepared stop predicate — timing each
//! call, and requires the recomposed trial to hit at the production step.
//! Micro-timings on configuration snapshots taken during the traced trial
//! split a step into its scheduler draw, erased transition and environment
//! hook.

use std::hint::black_box;
use std::time::{Duration, Instant};

use population::{
    downcast_config, AnyGraph, Configuration, DynProtocol, DynState, Interaction, InteractionGraph,
    LeaderElection, Protocol, Scenario, Simulation, SweepPoint,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_baselines::fischer_jiang::{has_stable_unique_leader, FjState};
use ssle_bench::{check_interval, ProtocolKind};
use ssle_core::{in_s_pl, Params, PplState};

use crate::stats::{median, ratio};
use crate::{median_time, Outcome, Plan, Spans, Workload};

/// Scheduler draws and transitions per micro-timing.
const MICRO_STEPS: usize = 1 << 18;
/// Environment-hook calls per micro-timing (each is O(n) for an oracle).
const MICRO_ENV_CALLS: usize = 2048;

/// The protocol under test and the benchmark's own re-check of its safe
/// set.
#[derive(Clone, Copy, Debug)]
pub enum Target {
    /// `P_PL`; safe set `S_PL` ([`in_s_pl`]).
    Ppl,
    /// Fischer–Jiang; safe set "stable unique leader"
    /// ([`has_stable_unique_leader`]).
    FischerJiang,
}

impl Target {
    /// The target of a convergence workload.
    ///
    /// # Panics
    ///
    /// Panics for `hostile-search`, which is not a convergence workload.
    pub fn of(workload: Workload) -> Self {
        match workload {
            Workload::PplRing => Target::Ppl,
            Workload::FjOracle => Target::FischerJiang,
            Workload::HostileSearch => panic!("hostile-search has no convergence target"),
        }
    }

    /// The Table 1 protocol kind.
    pub fn kind(self) -> ProtocolKind {
        match self {
            Target::Ppl => ProtocolKind::Ppl,
            Target::FischerJiang => ProtocolKind::FischerJiang,
        }
    }

    /// Re-checks, independently of the scenario's stop predicate, that an
    /// erased configuration of `n` agents lies in the protocol's safe set.
    ///
    /// # Errors
    ///
    /// Describes why it does not.
    pub fn check_safe(self, config: &Configuration<DynState>, n: usize) -> Result<(), String> {
        match self {
            Target::Ppl => {
                let typed = downcast_config::<PplState>(config)
                    .ok_or("configuration does not hold P_PL states")?;
                in_s_pl(&typed, &Params::for_ring(n))
                    .then_some(())
                    .ok_or_else(|| "configuration is not in S_PL".to_string())
            }
            Target::FischerJiang => {
                let typed = downcast_config::<FjState>(config)
                    .ok_or("configuration does not hold Fischer-Jiang states")?;
                has_stable_unique_leader(&typed)
                    .then_some(())
                    .ok_or_else(|| "configuration has no stable unique leader".to_string())
            }
        }
    }
}

/// Runs a convergence workload.
pub fn run(plan: &Plan) -> Outcome {
    let target = Target::of(plan.workload);
    let scenario = target.kind().scenario();
    let mut out = Outcome::default();
    if plan.trace {
        traced(plan, target, &scenario, &mut out);
    } else {
        untraced(plan, target, &scenario, &mut out);
    }
    out
}

/// The checks every production trial must pass: convergence within the
/// trial budget, and a final configuration in the safe set.
fn check_trial(target: Target, n: usize, run: &population::ScenarioRun) -> Result<u64, String> {
    let budget = target.kind().trial_budget(n);
    let hit = run
        .report
        .converged_at
        .ok_or_else(|| format!("did not converge within {budget} steps"))?;
    if hit > budget {
        return Err(format!("converged at {hit}, beyond the budget {budget}"));
    }
    target.check_safe(run.sim.config(), n)?;
    Ok(hit)
}

/// The untraced run: the counted core of `plan.run_trials()` trials, then
/// further trials of the same seed sequence while `plan.seconds` lasts.
/// Rates and the trial median cover every trial; `wall_s`, `setup_s` and
/// the exact counts cover the core.
fn untraced(plan: &Plan, target: Target, scenario: &Scenario, out: &mut Outcome) {
    let n = plan.n;
    let core = plan.run_trials();
    let (mut setup_s, mut setup_elapsed) = (0.0, 0.0);
    let (mut converge_steps, mut converge_s) = (0u64, 0.0f64);
    let (mut closure_steps, mut closure_s) = (0u64, 0.0f64);
    let (mut core_steps, mut core_closure_steps, mut core_wall) = (0u64, 0u64, 0.0);
    let mut trial_s = Vec::new();
    let mut trial_rate = Vec::new();
    let mut closure_rate = Vec::new();
    let mut hits = Vec::new();
    let start_run = Instant::now();
    let mut i = 0;
    while plan.another(i, core, start_run.elapsed().as_secs_f64()) {
        let seed = plan.trial_seed(i);
        let point = SweepPoint::new(n, seed);
        if i < core {
            let start = Instant::now();
            setup_s += measure_setup(target.kind(), &point, plan.setup_reps);
            setup_elapsed += start.elapsed().as_secs_f64();
        }
        let start = Instant::now();
        let mut run = scenario.run_full(&point);
        let secs = start.elapsed().as_secs_f64();
        let steps = run.report.steps_executed;
        trial_s.push(secs);
        trial_rate.push(ratio(steps as f64, secs));
        converge_s += secs;
        converge_steps += steps;
        let checked = check_trial(target, n, &run).and_then(|_| {
            let (steps, secs) = trial_closure(target, &mut run.sim, n, plan.closure_n2)?;
            closure_steps += steps;
            closure_s += secs;
            closure_rate.push(ratio(steps as f64, secs));
            if i < core {
                core_closure_steps += steps;
            }
            Ok(())
        });
        out.check(&format!("trial seed {seed}"), checked);
        if i < core {
            core_steps += steps;
            hits.push(run.report.converged_at.map_or(-1.0, |s| s as f64));
            // The set-up measurements interleave with the trials; they are
            // not part of the timed work.
            core_wall = start_run.elapsed().as_secs_f64() - setup_elapsed;
        }
        i += 1;
    }
    out.attempted = i as u64;
    out.end_to_end.insert(
        "converge_steps_per_s",
        ratio(converge_steps as f64, converge_s),
    );
    out.end_to_end.insert("trial_s_p50", median(&trial_s));
    out.end_to_end.insert(
        "closure_steps_per_s",
        ratio(closure_steps as f64, closure_s),
    );
    out.end_to_end.insert("wall_s", core_wall);
    out.end_to_end.insert("setup_s", setup_s);
    out.count("converge.steps", core_steps as f64);
    out.count("closure.steps", core_closure_steps as f64);
    out.count("hit_steps", hits);
    out.samples.push(("trials", i));
    out.samples.push(("core_trials", core));
    out.samples.push(("setup_reps", plan.setup_reps));
    out.series.push(("trial_s", trial_s));
    out.series.push(("converge_steps_per_s", trial_rate));
    out.series.push(("closure_steps_per_s", closure_rate));
}

/// One trial's set-up cost: the median over `reps` repetitions of
/// building the scenario, preparing the trial's point and building its
/// graph.  `setup_s` sums it over the trials.
fn measure_setup(kind: ProtocolKind, point: &SweepPoint, reps: usize) -> f64 {
    median_time(reps, || {
        let scenario = kind.scenario();
        let prepared = scenario.prepare(point);
        let graph = scenario
            .graph_family()
            .build(point.n)
            .expect("the ring builds at every benchmark size");
        black_box((prepared, graph));
    })
}

/// The index of the unique leader, if exactly one agent outputs `L`.
fn unique_leader(sim: &Simulation<DynProtocol, AnyGraph>) -> Option<usize> {
    let mut leaders = sim
        .config()
        .states()
        .iter()
        .enumerate()
        .filter(|(_, s)| sim.protocol().is_leader(s))
        .map(|(i, _)| i);
    let first = leaders.next()?;
    leaders.next().is_none().then_some(first)
}

/// Runs `multiple · n²` plain steps in bursts of `n²/4` and checks
/// closure after every burst with `holds`.  Returns the steps run and the
/// seconds spent inside `run_steps`.
///
/// # Errors
///
/// Describes the first burst after which `holds` fails.
pub fn closure_stretch(
    sim: &mut Simulation<DynProtocol, AnyGraph>,
    n: usize,
    multiple: u64,
    mut holds: impl FnMut(&Simulation<DynProtocol, AnyGraph>) -> Result<(), String>,
) -> Result<(u64, f64), String> {
    let burst = (n as u64 * n as u64 / 4).max(1);
    let mut secs = 0.0;
    for i in 0..4 * multiple {
        let start = Instant::now();
        sim.run_steps(burst);
        secs += start.elapsed().as_secs_f64();
        holds(sim).map_err(|e| format!("closure broken after {} steps: {e}", (i + 1) * burst))?;
    }
    Ok((4 * multiple * burst, secs))
}

/// The closure stretch of a convergence trial: the unique leader at the
/// hit stays the unique leader after every burst, and the final
/// configuration is still safe.
fn trial_closure(
    target: Target,
    sim: &mut Simulation<DynProtocol, AnyGraph>,
    n: usize,
    multiple: u64,
) -> Result<(u64, f64), String> {
    let leader = unique_leader(sim).ok_or("the hit configuration has no unique leader")?;
    let stretch = closure_stretch(sim, n, multiple, |sim| {
        (unique_leader(sim) == Some(leader))
            .then_some(())
            .ok_or_else(|| format!("the unique leader u{leader} did not persist"))
    })?;
    target
        .check_safe(sim.config(), n)
        .map_err(|e| format!("after the closure stretch: {e}"))?;
    Ok(stretch)
}

/// What the traced recomposition accumulates over its trials.
#[derive(Default)]
struct Traced {
    spans: Spans,
    traced_s: f64,
    untraced_s: f64,
    burst_steps: u64,
    converge_steps: u64,
    env_calls: u64,
    draw_ns: Vec<f64>,
    transition_ns: Vec<f64>,
    transition_closure_ns: Vec<f64>,
    environment_ns: Vec<f64>,
    prepare_ms: Vec<f64>,
}

fn traced(plan: &Plan, target: Target, scenario: &Scenario, out: &mut Outcome) {
    let n = plan.n;
    let seeds: Vec<u64> = (0..plan.run_trials()).map(|i| plan.trial_seed(i)).collect();
    out.attempted = seeds.len() as u64;
    let budget = target.kind().trial_budget(n);
    let interval = check_interval(n).max(1);
    let timer_ns = timer_overhead_ns();
    let mut t = Traced::default();
    let mut hits = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let point = SweepPoint::new(n, seed);
        // The production trial: the untraced reference, and the hit step
        // the recomposition must reproduce.
        let start = Instant::now();
        let run = scenario.run_full(&point);
        t.untraced_s += start.elapsed().as_secs_f64();
        let production = check_trial(target, n, &run);
        let production_hit = run.report.converged_at;
        let env_active = run.sim.environment_active();
        drop(run);

        // The same trial, recomposed call by call.
        let mut spans = Spans::default();
        let start = Instant::now();
        let prepared = spans.time("prepare", || scenario.prepare(&point));
        let graph = spans.time("graph", || scenario.graph_family().build(n));
        let graph = graph.expect("the ring builds at every benchmark size");
        let mut sim = spans.time("simulation", || {
            Simulation::new(prepared.protocol, graph, prepared.config, point.seed)
        });
        let mut stop = prepared.stop;
        let midpoint = production_hit.unwrap_or(budget) / 2;
        let mut snapshot = None;
        let mut hit = spans.time("stop", || stop(sim.config().states()));
        let mut executed = 0u64;
        while !hit && executed < budget {
            let burst = interval.min(budget - executed);
            spans.time("burst", || sim.run_steps(burst));
            executed += burst;
            if snapshot.is_none() && executed >= midpoint {
                snapshot = Some(sim.config().clone());
            }
            hit = spans.time("stop", || stop(sim.config().states()));
        }
        t.traced_s += start.elapsed().as_secs_f64();
        let traced_hit = hit.then(|| sim.steps());
        hits.push(traced_hit.map_or(-1.0, |s| s as f64));
        t.burst_steps += executed;
        t.converge_steps += traced_hit.unwrap_or(executed);
        if env_active {
            t.env_calls += executed;
        }
        t.prepare_ms.push(spans.secs("prepare") * 1e3);

        let reproduced = production.and_then(|_| {
            if traced_hit == production_hit {
                Ok(())
            } else {
                Err(format!(
                    "traced trial hit at {traced_hit:?}, production at {production_hit:?}"
                ))
            }
        });
        out.check(&format!("trial seed {seed}"), reproduced);

        // Micro-timings on the mid-run snapshot (converging transitions)
        // and on the final configuration (transitions inside the safe set).
        let converging = snapshot.unwrap_or_else(|| sim.config().clone());
        let micro = micro_timings(sim.protocol(), sim.graph(), &converging, seed, timer_ns);
        t.draw_ns.push(micro.draw_ns);
        t.transition_ns.push(micro.transition_ns);
        t.environment_ns.push(micro.environment_ns);
        let closure = micro_timings(sim.protocol(), sim.graph(), sim.config(), !seed, timer_ns);
        t.transition_closure_ns.push(closure.transition_ns);
        t.spans.merge(spans);
    }

    let environment_ns = median(&t.environment_ns);
    let stop_s = t.spans.secs("stop");
    let stop_checks = t.spans.calls("stop");
    let layer = &mut out.per_layer;
    layer.insert("scheduler.draw_ns", median(&t.draw_ns));
    layer.insert("transition.ns", median(&t.transition_ns));
    layer.insert("transition.ns_closure", median(&t.transition_closure_ns));
    layer.insert(
        "burst.steps_per_s",
        ratio(t.burst_steps as f64, t.spans.secs("burst")),
    );
    layer.insert("burst.share", ratio(t.spans.secs("burst"), t.traced_s));
    layer.insert("environment.ns", environment_ns);
    layer.insert("environment.calls", t.env_calls as f64);
    layer.insert(
        "environment.share",
        ratio(t.env_calls as f64 * environment_ns * 1e-9, t.traced_s),
    );
    layer.insert("stop.checks", stop_checks as f64);
    layer.insert("stop.us_per_check", ratio(stop_s * 1e6, stop_checks as f64));
    layer.insert("stop.share", ratio(stop_s, t.traced_s));
    layer.insert("converge.steps", t.converge_steps as f64);
    layer.insert("setup.prepare_ms", median(&t.prepare_ms));
    layer.insert("trace.overhead", ratio(t.traced_s, t.untraced_s) - 1.0);
    layer.insert("trace.coverage", ratio(t.spans.total_secs(), t.traced_s));
    layer.insert("trace.traced_s", t.traced_s);
    layer.insert("trace.untraced_s", t.untraced_s);
    out.count("converge.steps", t.converge_steps as f64);
    out.count("stop.checks", stop_checks as f64);
    out.count("environment.calls", t.env_calls as f64);
    out.count("hit_steps", hits);
    out.samples.push(("trials", seeds.len()));
    out.samples.push(("micro_steps", MICRO_STEPS));
    out.samples.push(("micro_env_calls", MICRO_ENV_CALLS));
}

/// Per-call costs measured on one configuration snapshot.
struct Micro {
    draw_ns: f64,
    transition_ns: f64,
    environment_ns: f64,
}

/// Times [`InteractionGraph::sample`], [`Protocol::interact`] and
/// [`Protocol::environment`] of the erased protocol, starting from a copy
/// of `snapshot`: the draws are timed in one batch, then the drawn
/// interactions are applied in one batch (the copy evolves as a run
/// would), then the environment hook is timed call by call, interleaved
/// with interactions, less the cost of reading the clock.
fn micro_timings(
    protocol: &DynProtocol,
    graph: &AnyGraph,
    snapshot: &Configuration<DynState>,
    seed: u64,
    timer_ns: f64,
) -> Micro {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut arcs: Vec<Interaction> = Vec::with_capacity(MICRO_STEPS);
    let start = Instant::now();
    for _ in 0..MICRO_STEPS {
        arcs.push(graph.sample(&mut rng));
    }
    let draw = start.elapsed();

    let mut states: Vec<DynState> = snapshot.states().to_vec();
    let start = Instant::now();
    for &arc in &arcs {
        interact(protocol, &mut states, arc);
    }
    let transition = start.elapsed();
    black_box(&states);

    let mut states: Vec<DynState> = snapshot.states().to_vec();
    let mut environment = Duration::ZERO;
    for &arc in arcs.iter().take(MICRO_ENV_CALLS) {
        let start = Instant::now();
        protocol.environment(&mut states);
        environment += start.elapsed();
        interact(protocol, &mut states, arc);
    }
    black_box(&states);
    let per = |d: Duration, k: usize| d.as_secs_f64() * 1e9 / k as f64;
    Micro {
        draw_ns: per(draw, MICRO_STEPS),
        transition_ns: per(transition, MICRO_STEPS),
        environment_ns: (per(environment, MICRO_ENV_CALLS) - timer_ns).max(0.0),
    }
}

/// Applies one interaction to a state slice, as `Simulation::apply` does.
fn interact(protocol: &DynProtocol, states: &mut [DynState], arc: Interaction) {
    let (i, j) = (arc.initiator().index(), arc.responder().index());
    let (a, b) = if i < j {
        let (lo, hi) = states.split_at_mut(j);
        (&mut lo[i], &mut hi[0])
    } else {
        let (lo, hi) = states.split_at_mut(i);
        (&mut hi[0], &mut lo[j])
    };
    protocol.interact(a, b);
}

/// The cost of one `Instant::now()` / `elapsed()` pair, in ns, subtracted
/// from per-call timings.
fn timer_overhead_ns() -> f64 {
    const PAIRS: usize = 1 << 14;
    let mut total = Duration::ZERO;
    for _ in 0..PAIRS {
        let start = Instant::now();
        total += black_box(start).elapsed();
    }
    total.as_secs_f64() * 1e9 / PAIRS as f64
}
