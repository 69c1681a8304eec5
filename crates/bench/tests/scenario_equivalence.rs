//! The load-bearing guarantee of the Scenario redesign: the type-erased run
//! path (`DynProtocol` + inline-slot `DynState`s + `AnyGraph`) produces
//! **bit-identical** [`ConvergenceReport`]s and final states to a
//! static-dispatch reference run for every measurable protocol of Table 1,
//! at two population sizes and two seeds each, and bit-identical
//! leader-change tracking.
//!
//! The reference runs below intentionally re-create the pre-Scenario
//! plumbing (typed `Simulation` + `run_until`) by hand; if erasure ever
//! perturbed the RNG stream, the transition function, the check cadence or
//! the report bookkeeping, these tests would catch it.

use population::{
    downcast_config, slot, Configuration, ConvergenceReport, DirectedRing, DynState,
    LeaderElection, Simulation, SweepPoint,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use ssle_baselines::{
    angluin_mod_k::{AngluinModK, ModKState},
    fischer_jiang::{FischerJiang, FjState},
    yokota_linear::{YokotaLinear, YokotaState},
};
use ssle_bench::{check_interval, pick_k, ProtocolKind, Table1Visitor};
use ssle_core::{init, InitialCondition, Params, Ppl, PplState};

const SIZES: [usize; 2] = [8, 13];
const SEEDS: [u64; 2] = [3, 1_000_001];

/// Static-dispatch reference for the Table 1 trial of `kind` — the shape of
/// the deleted `run_*_trial` helpers, reproduced without any erasure.  The
/// typed setup (protocol, initial configuration, stop criterion) comes from
/// [`ProtocolKind::with_table1_setup`], the single authoritative typed
/// definition also used by the hot-loop benchmarks.  Returns the report and
/// whether the typed run's final states equal `erased_final`.
fn reference_trial(
    kind: ProtocolKind,
    n: usize,
    seed: u64,
    erased_final: &Configuration<DynState>,
) -> (ConvergenceReport, bool) {
    struct TypedReference<'a> {
        n: usize,
        seed: u64,
        check: u64,
        budget: u64,
        erased_final: &'a Configuration<DynState>,
    }
    impl Table1Visitor for TypedReference<'_> {
        type Output = (ConvergenceReport, bool);
        fn visit<P, F>(
            self,
            protocol: P,
            config: Configuration<P::State>,
            stop: F,
        ) -> (ConvergenceReport, bool)
        where
            P: LeaderElection + 'static,
            P::State: population::SlotState,
            F: Fn(&P, &Configuration<P::State>) -> bool + Send + Sync + 'static,
        {
            let mut sim = Simulation::new(
                protocol,
                DirectedRing::new(self.n).expect("n >= 2"),
                config,
                self.seed,
            );
            let report = sim.run_until(stop, self.check, self.budget);
            let erased =
                downcast_config::<P::State>(self.erased_final).expect("homogeneous states");
            (report, erased.states() == sim.config().states())
        }
    }
    let (mut report, states_match) = kind.with_table1_setup(
        n,
        seed,
        TypedReference {
            n,
            seed,
            check: check_interval(n),
            budget: kind.trial_budget(n),
            erased_final,
        },
    );
    // `run_until` names its criterion "predicate"; the scenario names it
    // after the stop criterion.  Align the names so every *other* field must
    // match bit for bit.
    report.criterion = kind.scenario().stop_name().to_string().into();
    (report, states_match)
}

/// Runs `kind`'s scenario at (`n`, `seed`) and asserts that its report and
/// final states are bit-identical to [`reference_trial`]'s.
fn assert_matches_static_dispatch(kind: ProtocolKind, n: usize, seed: u64) -> ConvergenceReport {
    let run = kind.scenario().run_full(&SweepPoint::new(n, seed));
    let (reference, states_match) = reference_trial(kind, n, seed, run.sim.config());
    assert_eq!(
        run.report,
        reference,
        "{} report diverged from the static reference at n = {n}, seed = {seed}",
        kind.name()
    );
    assert!(
        states_match,
        "{} final states diverged from the static reference at n = {n}, seed = {seed}",
        kind.name()
    );
    run.report
}

/// The scheduler plumbing (PR 4) must not perturb the default path: a
/// `Scenario` whose `SchedulerFamily` routes `RandomScheduler` through the
/// boxed `DynScheduler` loop consumes the RNG exactly like the inlined fast
/// path, so reports stay bit-identical to the static-dispatch reference for
/// every Table 1 protocol (and the default-family runs in the other tests of
/// this file keep pinning the fast path itself).
#[test]
fn boxed_random_scheduler_matches_the_fast_path_bit_for_bit() {
    use population::{RandomScheduler, SchedulerFamily};
    for kind in ProtocolKind::ALL {
        let fast = kind.scenario();
        let boxed = kind
            .scenario()
            .with_scheduler(SchedulerFamily::custom("random-boxed", |_pt, _g| {
                Box::new(RandomScheduler::new())
            }));
        for n in SIZES {
            for seed in SEEDS {
                let point = SweepPoint::new(n, seed);
                let fast_run = fast.run_full(&point);
                let boxed_run = boxed.run_full(&point);
                assert_eq!(
                    fast_run.report,
                    boxed_run.report,
                    "{}: boxed random scheduler diverged at n = {n}, seed = {seed}",
                    kind.name()
                );
                assert_eq!(
                    fast_run.sim.config().states(),
                    boxed_run.sim.config().states(),
                    "{}: final states diverged at n = {n}, seed = {seed}",
                    kind.name()
                );
            }
        }
    }
}

/// Reports *and* final states of the erased path equal the typed
/// reference for all four Table 1 protocols × [`SIZES`] × [`SEEDS`], plus
/// one further `P_PL` point (n = 8, seed = 5).
#[test]
fn dyn_erased_scenarios_match_static_dispatch_bit_for_bit() {
    let grid = ProtocolKind::ALL.into_iter().flat_map(|kind| {
        SIZES
            .into_iter()
            .flat_map(move |n| SEEDS.map(move |seed| (kind, n, seed)))
    });
    for (kind, n, seed) in grid.chain([(ProtocolKind::Ppl, 8, 5)]) {
        let report = assert_matches_static_dispatch(kind, n, seed);
        assert!(
            report.converged(),
            "{} should converge at n = {n} (otherwise the equivalence is vacuous)",
            kind.name()
        );
    }
}

#[test]
fn paper_constants_variant_also_matches() {
    for n in SIZES {
        assert_matches_static_dispatch(ProtocolKind::PplPaperConstants, n, 2);
    }
}

// ---------------------------------------------------------------------------
// Inline-slot representation (PR 3)
// ---------------------------------------------------------------------------

/// The inline slot was sized so that every Table 1 protocol state is stored
/// in-line; if a state ever outgrows the slot, this fails loudly instead of
/// silently re-boxing the hot loop.
#[test]
fn all_table1_states_take_the_inline_path() {
    assert!(slot::fits_inline::<PplState>(), "PplState must stay inline");
    assert!(slot::fits_inline::<YokotaState>());
    assert!(slot::fits_inline::<FjState>());
    assert!(slot::fits_inline::<ModKState>());

    let params = Params::for_ring(8);
    let ppl_state =
        init::generate(InitialCondition::UniformRandom, 8, &params, 1).states()[0].clone();
    assert!(DynState::new(ppl_state).is_inline());
    assert!(DynState::new(FjState::sample_uniform(&mut ChaCha8Rng::seed_from_u64(1))).is_inline());
    assert!(DynState::new(ModKState::new(2)).is_inline());
    let yokota = YokotaLinear::for_ring(8);
    assert!(DynState::new(YokotaState::sample_uniform(
        &mut ChaCha8Rng::seed_from_u64(1),
        yokota.cap()
    ))
    .is_inline());
}

// ---------------------------------------------------------------------------
// Incremental leader counting (PR 3)
// ---------------------------------------------------------------------------

/// One protocol's incremental-vs-recount check: `run_tracking_leader_changes`
/// (the incremental `LeaderCounter` path, for pure and oracle protocols
/// alike) against a from-scratch recount loop on an identical simulation.
fn assert_incremental_tracking_matches<P>(
    protocol: P,
    config: Configuration<P::State>,
    seed: u64,
    steps: u64,
) where
    P: LeaderElection + 'static,
{
    let n = config.len();
    let mut incremental = Simulation::new(
        protocol.clone(),
        DirectedRing::new(n).expect("n >= 2"),
        config.clone(),
        seed,
    );
    let changes = incremental.run_tracking_leader_changes(steps);

    // Reference: the pre-observer algorithm — recompute the full leader
    // index vector after every step.
    let mut reference = Simulation::new(
        protocol.clone(),
        DirectedRing::new(n).expect("n >= 2"),
        config,
        seed,
    );
    let mut reference_changes = Vec::new();
    let mut current = protocol.leader_indices(reference.config().states());
    for _ in 0..steps {
        reference.step();
        let now = protocol.leader_indices(reference.config().states());
        if now != current {
            reference_changes.push(reference.steps());
            current = now;
        }
    }

    assert_eq!(
        changes,
        reference_changes,
        "{}: change steps diverged",
        protocol.name()
    );
    assert_eq!(
        incremental.config().states(),
        reference.config().states(),
        "{}: final states diverged",
        protocol.name()
    );
    assert_eq!(
        incremental.count_leaders(),
        protocol.count_leaders(reference.config().states()),
        "{}: final leader count diverged",
        protocol.name()
    );
}

/// The incremental leader-count path is bit-identical to the recount
/// reference for all four Table 1 protocols × 2 sizes × 2 seeds.  For the
/// oracle baseline this pins that oracle broadcasts never change the
/// output map, which is what keeps the incremental observer exact there.
#[test]
fn incremental_leader_tracking_matches_the_recount_reference() {
    const STEPS: u64 = 20_000;
    for n in SIZES {
        for seed in SEEDS {
            let params = Params::for_ring(n);
            assert_incremental_tracking_matches(
                Ppl::new(params),
                init::generate(InitialCondition::UniformRandom, n, &params, seed),
                seed,
                STEPS,
            );
            let yokota = YokotaLinear::for_ring(n);
            let cap = yokota.cap();
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                yokota,
                Configuration::from_fn(n, |_| YokotaState::sample_uniform(&mut rng, cap)),
                seed,
                STEPS,
            );
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                FischerJiang::new(),
                Configuration::from_fn(n, |_| FjState::sample_uniform(&mut rng)),
                seed,
                STEPS,
            );
            let k = pick_k(n);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            assert_incremental_tracking_matches(
                AngluinModK::new(k),
                Configuration::from_fn(n, |_| ModKState::sample_uniform(&mut rng, k)),
                seed,
                STEPS,
            );
        }
    }
}

/// Inert hostile plumbing must be invisible: a fault plan whose Byzantine
/// window covers **zero agents** (dropped at attach time) and a plan whose
/// triggered event's predicate **never fires** both leave the RNG stream,
/// the report and the final configuration bit-identical to the plain run —
/// the inertness contract of the hostile-recovery fault vocabulary, at the
/// bench layer where the Table 1 scenarios are assembled.
#[test]
fn inert_byzantine_windows_and_triggers_leave_runs_bit_identical() {
    use population::{ByzantineWindow, FaultKind, FaultPlan};
    use ssle_bench::recovery::recovery_scenario;
    use ssle_bench::stabilization::GridGraph;

    for kind in ProtocolKind::ALL {
        for n in SIZES {
            for seed in SEEDS {
                let pt = SweepPoint::new(n, seed);
                let budget = kind.trial_budget(n);
                let plain = recovery_scenario(kind, GridGraph::Ring, budget).run_full(&pt);
                let inert = recovery_scenario(kind, GridGraph::Ring, budget)
                    .with_fault_plan(FaultPlan::new().with_byzantine(ByzantineWindow::new(
                        [],
                        0,
                        budget,
                    )))
                    .run_full(&pt);
                assert_eq!(
                    plain.report,
                    inert.report,
                    "{} n={n} seed={seed}: empty Byzantine window perturbed the report",
                    kind.key()
                );
                assert_eq!(
                    *plain.sim.config(),
                    *inert.sim.config(),
                    "{} n={n} seed={seed}: empty Byzantine window perturbed the final states",
                    kind.key()
                );
            }
        }
    }

    // Never-firing trigger: register a predicate that never holds and couple
    // a CorruptAll event to it — the run must not notice.
    for n in SIZES {
        for seed in SEEDS {
            let pt = SweepPoint::new(n, seed);
            let budget = ProtocolKind::Ppl.trial_budget(n);
            let scenario = || {
                ssle_bench::ppl_builder(InitialCondition::UniformRandom)
                    .step_budget(move |_pt| budget)
                    .corruption(|p: &Ppl, rng, _i| PplState::sample_uniform(rng, p.params()))
                    .trigger("never", |_p: &Ppl, _c| false)
                    .build()
                    .expect("complete scenario")
            };
            let plain = scenario().run_full(&pt);
            let inert = scenario()
                .with_fault_plan(FaultPlan::new().when("never", FaultKind::CorruptAll))
                .run_full(&pt);
            assert_eq!(
                plain.report, inert.report,
                "ppl n={n} seed={seed}: never-firing trigger perturbed the report"
            );
            assert_eq!(
                *plain.sim.config(),
                *inert.sim.config(),
                "ppl n={n} seed={seed}: never-firing trigger perturbed the final states"
            );
        }
    }
}

/// The static-topology half of the dynamic-topology contract: attaching a
/// churn plan that never does anything — the empty plan, and a plan whose
/// only event sits beyond any reachable step — leaves the RNG stream, the
/// report and the final configuration bit-identical to the plain run for
/// every Table 1 protocol.  Churn draws from a dedicated RNG stream keyed
/// by the fire step, so merely *carrying* a plan must be free.
#[test]
fn empty_and_unreached_churn_plans_leave_runs_bit_identical() {
    use population::{ChurnKind, ChurnPlan};
    for kind in ProtocolKind::ALL {
        for n in SIZES {
            for seed in SEEDS {
                let pt = SweepPoint::new(n, seed);
                let plain = kind.scenario().run_full(&pt);
                for (name, plan) in [
                    ("empty", ChurnPlan::new()),
                    ("unreached", ChurnPlan::new().at(u64::MAX, ChurnKind::Heal)),
                ] {
                    let churned = kind.scenario().with_churn_plan(plan).run_full(&pt);
                    assert_eq!(
                        plain.report,
                        churned.report,
                        "{} n={n} seed={seed}: {name} churn plan perturbed the report",
                        kind.key()
                    );
                    assert_eq!(
                        *plain.sim.config(),
                        *churned.sim.config(),
                        "{} n={n} seed={seed}: {name} churn plan perturbed the final states",
                        kind.key()
                    );
                }
            }
        }
    }
}

/// The dynamic half: runs that *do* churn — an early rewire followed by a
/// heal — are a deterministic function of the sweep point alone.  Sharding
/// the same batch over 1 and 4 [`population::BatchRunner`] threads yields
/// bit-identical reports and final configurations, the thread-invariance
/// contract every churned report cell relies on.
#[test]
fn churned_runs_are_bit_identical_across_thread_counts() {
    use population::{BatchRunner, ChurnKind, ChurnPlan};
    let points: Vec<SweepPoint> = SEEDS
        .iter()
        .flat_map(|&seed| SIZES.map(|n| SweepPoint::new(n, seed)))
        .collect();
    for kind in ProtocolKind::ALL {
        let run_batch = |threads: usize| {
            BatchRunner::with_threads(threads).run_map(&points, |pt| {
                let full = kind
                    .scenario()
                    .with_churn_plan(
                        ChurnPlan::new()
                            .at(32, ChurnKind::Rewire { count: 2 })
                            .at(512, ChurnKind::Heal),
                    )
                    .run_full(pt);
                (full.report, full.sim.config().clone())
            })
        };
        assert_eq!(
            run_batch(1),
            run_batch(4),
            "{}: churned batch diverged across thread counts",
            kind.key()
        );
    }
}
