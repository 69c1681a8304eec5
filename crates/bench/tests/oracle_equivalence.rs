//! The incremental `Ω?` oracle against the configuration-wide pass it
//! replaced.
//!
//! The simulation keeps Fischer–Jiang's oracle up to date from per-run
//! counts ([`Protocol::oracle_count`]) and pays an O(n) pass only when a
//! broadcast is due or an out-of-band write made the counts stale.  These
//! tests pin that this is exactly the oracle the `Θ(n³)` bound assumes — a
//! full pass over the configuration before every step:
//!
//! * step by step against the literal three-pass reference, typed and
//!   erased, with random single-agent corruption through `config_mut`;
//! * end to end against golden `run_full` results recorded with the
//!   full-pass oracle, fault-free and under every kind of out-of-band
//!   write (crash faults, churn, a Byzantine window);
//! * by the number of O(n) passes a converging run pays.

use analysis::digest::fnv1a_128;
use population::{
    downcast_config, ByzantineWindow, ChurnKind, ChurnPlan, Configuration, DirectedRing,
    DynProtocol, DynState, FaultKind, FaultPlan, InteractionGraph, LeaderElection, OracleCounts,
    Protocol, Scenario, Simulation, SweepPoint,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ssle_baselines::fischer_jiang::{has_stable_unique_leader, FischerJiang, FjState};
use ssle_bench::{fischer_jiang_builder, ProtocolKind};
use ssle_core::state::bullet;

/// The oracle as a full pass before every step: the body of Fischer–Jiang's
/// environment hook before the oracle became incremental, kept verbatim as
/// the independent reference.
fn three_pass_reference(states: &mut [FjState]) {
    let no_leader = !states.iter().any(|s| s.leader);
    let no_bullet = states.iter().all(|s| s.bullet == bullet::NONE);
    for s in states.iter_mut() {
        s.oracle_no_leader = no_leader;
        if no_bullet {
            s.may_fire = true;
        }
    }
}

/// Every one of the 48 Fischer–Jiang states.
fn all_fj_states() -> Vec<FjState> {
    let mut out = Vec::new();
    for bits in 0..16u8 {
        for b in [bullet::NONE, bullet::DUMMY, bullet::LIVE] {
            out.push(FjState {
                leader: bits & 1 != 0,
                bullet: b,
                shield: bits & 2 != 0,
                may_fire: bits & 4 != 0,
                oracle_no_leader: bits & 8 != 0,
            });
        }
    }
    out
}

/// The hooks' contract: a broadcast never changes an agent's output, for
/// every state and every verdict the counts can imply.
#[test]
fn fj_broadcasts_never_change_the_output_map() {
    let p = FischerJiang::new();
    for state in all_fj_states() {
        for (leaders, in_flight) in [(0, 0), (0, 1), (1, 0), (3, 2)] {
            let counts = OracleCounts {
                leaders,
                in_flight,
                ..OracleCounts::default()
            };
            let mut after = state;
            p.oracle_broadcast(&mut after, &counts);
            assert_eq!(p.is_leader(&after), p.is_leader(&state), "{state:?}");
        }
    }
}

/// [`Protocol::environment`], derived from the hooks, is the three-pass
/// reference on arbitrary configurations.
#[test]
fn fj_environment_is_the_three_pass_reference() {
    let p = FischerJiang::new();
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    for n in [1usize, 2, 3, 8, 33] {
        for _ in 0..200 {
            let mut states: Vec<FjState> =
                (0..n).map(|_| FjState::sample_uniform(&mut rng)).collect();
            // Bias towards the degenerate verdicts (no leader, no bullet).
            if rng.gen_bool(0.3) {
                states.iter_mut().for_each(|s| s.leader = false);
            }
            if rng.gen_bool(0.3) {
                states.iter_mut().for_each(|s| s.bullet = bullet::NONE);
            }
            let mut reference = states.clone();
            three_pass_reference(&mut reference);
            p.environment(&mut states);
            assert_eq!(states, reference);
        }
    }
}

/// Steps `sim` and a plain reference configuration side by side — the
/// reference takes the three-pass oracle and the transition on the
/// interaction the simulation drew — corrupting one random agent of both
/// through `config_mut` about every 300 steps, and asserts the typed
/// states agree after every step.
fn assert_step_by_step<P, G>(
    mut sim: Simulation<P, G>,
    typed: impl Fn(&Configuration<P::State>) -> Vec<FjState>,
    erase: impl Fn(FjState) -> P::State,
    steps: u64,
    seed: u64,
) where
    P: Protocol,
    G: InteractionGraph,
{
    let p = FischerJiang::new();
    let mut reference = typed(sim.config());
    let n = reference.len();
    let mut faults = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17);
    let mut corrupted = 0u64;
    for step in 0..steps {
        if faults.gen_range(0..300) == 0 {
            let agent = faults.gen_range(0..n);
            let state = FjState::sample_uniform(&mut faults);
            sim.config_mut()[agent] = erase(state);
            reference[agent] = state;
            corrupted += 1;
        }
        let e = sim.step();
        three_pass_reference(&mut reference);
        let (i, j) = (e.initiator().index(), e.responder().index());
        let (mut a, mut b) = (reference[i], reference[j]);
        p.interact(&mut a, &mut b);
        reference[i] = a;
        reference[j] = b;
        assert_eq!(
            typed(sim.config()),
            reference,
            "n = {n}, seed {seed}: diverged at step {step}"
        );
    }
    assert!(
        corrupted > 0,
        "n = {n}, seed {seed}: no corruption exercised"
    );
    assert!(
        sim.stats().oracle_passes() > corrupted,
        "n = {n}, seed {seed}: no broadcast exercised"
    );
}

/// The incremental oracle equals the three-pass reference after every
/// step, for the typed protocol and through the erased `DynProtocol`.
#[test]
fn incremental_oracle_matches_the_three_pass_reference_step_by_step() {
    const STEPS: u64 = 6_000;
    for n in [2usize, 3, 8, 33] {
        for seed in [0u64, 1, 7, 1_000_003] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let initial: Vec<FjState> = (0..n).map(|_| FjState::sample_uniform(&mut rng)).collect();
            let ring = DirectedRing::new(n).expect("n >= 2");

            let typed_sim = Simulation::new(
                FischerJiang::new(),
                ring,
                Configuration::from_states(initial.clone()),
                seed,
            );
            assert_step_by_step(typed_sim, |c| c.states().to_vec(), |s| s, STEPS, seed);

            let erased_sim = Simulation::new(
                DynProtocol::erase(FischerJiang::new()),
                ring,
                initial.iter().copied().map(DynState::new).collect(),
                seed,
            );
            assert_step_by_step(
                erased_sim,
                |c| {
                    downcast_config::<FjState>(c)
                        .expect("Fischer-Jiang states")
                        .into_states()
                },
                DynState::new,
                STEPS,
                seed,
            );
        }
    }
}

/// A byte-exact digest of an erased Fischer–Jiang configuration.
fn fj_digest(config: &Configuration<DynState>) -> u128 {
    let typed = downcast_config::<FjState>(config).expect("Fischer-Jiang states");
    let bytes: Vec<u8> = typed
        .states()
        .iter()
        .flat_map(|s| {
            [
                s.leader as u8,
                s.bullet,
                s.shield as u8,
                s.may_fire as u8,
                s.oracle_no_leader as u8,
            ]
        })
        .collect();
    fnv1a_128(&bytes)
}

/// The Fischer–Jiang Table 1 scenario under one golden variant: one per
/// way states change outside an interaction.
fn golden_scenario(variant: &str) -> Scenario {
    let budget = |pt: &SweepPoint| ProtocolKind::FischerJiang.trial_budget(pt.n);
    let corrupt =
        |_p: &FischerJiang, rng: &mut ChaCha8Rng, _agent: usize| FjState::sample_uniform(rng);
    let builder = fischer_jiang_builder().step_budget(budget);
    match variant {
        "fault-free" => builder,
        // A block crash before the first stop check, and a second crash
        // coupled to the first stable unique leader.
        "crash" => builder
            .trigger("stable", |_p: &FischerJiang, c| has_stable_unique_leader(c))
            .faults(
                |pt| {
                    FaultPlan::new()
                        .at(
                            3,
                            FaultKind::CorruptBlock {
                                start: 1,
                                count: pt.n / 2,
                            },
                        )
                        .when("stable", FaultKind::CorruptRandomAgents { count: pt.n / 4 })
                },
                corrupt,
            ),
        // Joins and leaves resize the population mid-run.
        "churn" => builder.corruption(corrupt).churn(|pt| {
            let n = pt.n as u64;
            ChurnPlan::new()
                .at(n, ChurnKind::Join { count: 3 })
                .at(3 * n, ChurnKind::Leave { count: 5 })
        }),
        // Two agents rewritten after every interaction touching them for
        // the first 20n steps.
        "byzantine" => builder
            .byzantine(|_p: &FischerJiang, rng, _agent, _s| FjState::sample_uniform(rng))
            .faults(
                |pt| {
                    FaultPlan::new().with_byzantine(ByzantineWindow::new(
                        [0, pt.n / 2],
                        0,
                        20 * pt.n as u64,
                    ))
                },
                corrupt,
            ),
        other => panic!("unknown variant {other}"),
    }
    .build()
    .expect("complete scenario")
}

/// `(variant, n, seed, converged_at, steps_executed, final digest)` of
/// `run_full`, recorded with the full-pass oracle.
#[allow(clippy::type_complexity)]
const GOLDEN: [(&str, usize, u64, Option<u64>, u64, u128); 64] = [
    (
        "fault-free",
        16,
        0,
        Some(1536),
        1536,
        0xb5d298d81e28884638852c83776680ac,
    ),
    (
        "fault-free",
        16,
        1,
        Some(1344),
        1344,
        0x1c8b32b240bee1f4710ff533402d20ee,
    ),
    (
        "fault-free",
        16,
        2,
        Some(704),
        704,
        0x258984602ff7d6b4d637235402628214,
    ),
    (
        "fault-free",
        16,
        3,
        Some(640),
        640,
        0xfa10acc5c0d045bb1b73f74dccc0d9ca,
    ),
    (
        "fault-free",
        16,
        4,
        Some(768),
        768,
        0x51dc6ad0fde693a6a5ab0bca39d1569e,
    ),
    (
        "fault-free",
        16,
        5,
        Some(832),
        832,
        0x37bdb19308d21fcdb3df138ed0cf13f6,
    ),
    (
        "fault-free",
        16,
        6,
        Some(960),
        960,
        0x3b5ddc5089090ca6cb0ee3a6bb0d822c,
    ),
    (
        "fault-free",
        16,
        7,
        Some(512),
        512,
        0xec559deb241ca4e0b802d123a67f8b13,
    ),
    (
        "fault-free",
        64,
        0,
        Some(14336),
        14336,
        0x807ef833ddfd2d8bd0e1db3d8e82f093,
    ),
    (
        "fault-free",
        64,
        1,
        Some(14336),
        14336,
        0x5106a8d4ec17d3f52ddd02c0770106e4,
    ),
    (
        "fault-free",
        64,
        2,
        Some(22528),
        22528,
        0x638e0eaeb764cf0280c72f9e3a77851d,
    ),
    (
        "fault-free",
        64,
        3,
        Some(15360),
        15360,
        0x27122dcb519a615ab8d3d010d92fca88,
    ),
    (
        "fault-free",
        64,
        4,
        Some(20480),
        20480,
        0x4c7ebf082bf18931ebd80f8e8658aac7,
    ),
    (
        "fault-free",
        64,
        5,
        Some(33792),
        33792,
        0x829d2a4fc98f079366c5392d6c011c71,
    ),
    (
        "fault-free",
        64,
        6,
        Some(20480),
        20480,
        0xf14af01abc67836b19ac89fcb96bf225,
    ),
    (
        "fault-free",
        64,
        7,
        Some(27648),
        27648,
        0xe69d011f130d23193965ab422158546f,
    ),
    (
        "crash",
        16,
        0,
        Some(1152),
        1152,
        0x723fef3d7a49bd86d153c7a0a5cf175f,
    ),
    (
        "crash",
        16,
        1,
        Some(1216),
        1216,
        0xe9b1eb4ad777a49f616fc4249c92a36c,
    ),
    (
        "crash",
        16,
        2,
        Some(640),
        640,
        0x1eeb8a8379099823f3ae9108cd0bde69,
    ),
    (
        "crash",
        16,
        3,
        Some(1984),
        1984,
        0xc92d7dcbd603d834e2c5baccaf8d8085,
    ),
    (
        "crash",
        16,
        4,
        Some(1344),
        1344,
        0x93c0ebd843e9769432921a295d204eaf,
    ),
    (
        "crash",
        16,
        5,
        Some(1216),
        1216,
        0x0b6e52d5463f117bb1b48e269c7fd4e6,
    ),
    (
        "crash",
        16,
        6,
        Some(512),
        512,
        0x302fcf58571ed7ba72410522b7e21850,
    ),
    (
        "crash",
        16,
        7,
        Some(1280),
        1280,
        0x3b420e185061c6b21ad158c6b28d026a,
    ),
    (
        "crash",
        64,
        0,
        Some(40960),
        40960,
        0x0d64d649d0adf64f477dc9a0c8a5498b,
    ),
    (
        "crash",
        64,
        1,
        Some(23552),
        23552,
        0x04ec7b8aaeaf3fd3d85d500b50bff590,
    ),
    (
        "crash",
        64,
        2,
        Some(46080),
        46080,
        0x4c327e1608b3c892faac2471016f3686,
    ),
    (
        "crash",
        64,
        3,
        Some(28672),
        28672,
        0x5c99fcf0162ea06a0555cc6bbfb4b642,
    ),
    (
        "crash",
        64,
        4,
        Some(29696),
        29696,
        0x3fa08cef6514298906d1c29e39971f96,
    ),
    (
        "crash",
        64,
        5,
        Some(23552),
        23552,
        0xae4c4f2dabf4a18831237daa28e71cb0,
    ),
    (
        "crash",
        64,
        6,
        Some(27648),
        27648,
        0x183b63a8ffe70ed83fa52b950052fa62,
    ),
    (
        "crash",
        64,
        7,
        Some(27648),
        27648,
        0xdabb4bd3f05b7b6a66e45c300008ebf3,
    ),
    (
        "churn",
        16,
        0,
        Some(1088),
        1088,
        0x9702338d5cc9813c2d7e5576fa8f34aa,
    ),
    (
        "churn",
        16,
        1,
        Some(320),
        320,
        0x7ec5574f7328be245bc4ff8d2132ddcb,
    ),
    (
        "churn",
        16,
        2,
        Some(960),
        960,
        0x1d44681b035097543242b506d21b847e,
    ),
    (
        "churn",
        16,
        3,
        Some(512),
        512,
        0xba02f83ab912044054322ba5f828c9ae,
    ),
    (
        "churn",
        16,
        4,
        Some(320),
        320,
        0x8627863e1c56d1aa4bb6760acf443ec7,
    ),
    (
        "churn",
        16,
        5,
        Some(576),
        576,
        0x3a6c263eea796fb73982af5a55566ea1,
    ),
    (
        "churn",
        16,
        6,
        Some(640),
        640,
        0xb74909f6ae39111b6ad6d990258eeede,
    ),
    (
        "churn",
        16,
        7,
        Some(896),
        896,
        0xbb108fe6ed302908c136da55d4be7b93,
    ),
    (
        "churn",
        64,
        0,
        Some(8192),
        8192,
        0x62b5476567a76f31a7a25c7526759cb0,
    ),
    (
        "churn",
        64,
        1,
        Some(15360),
        15360,
        0x82dc50857dac51dc53de33dc71ab7012,
    ),
    (
        "churn",
        64,
        2,
        Some(19456),
        19456,
        0xebcbca8db39220c1e26c97602c286597,
    ),
    (
        "churn",
        64,
        3,
        Some(12288),
        12288,
        0xacde2253e13060f3d0fd410bfbad94a0,
    ),
    (
        "churn",
        64,
        4,
        Some(13312),
        13312,
        0xe3329a85dec0d6f72932a41c2aba21f7,
    ),
    (
        "churn",
        64,
        5,
        Some(12288),
        12288,
        0x56a55b9cfb14f439ad2a64208e2948b3,
    ),
    (
        "churn",
        64,
        6,
        Some(20480),
        20480,
        0x79dc27fa4a1edf786f182bc503beb08c,
    ),
    (
        "churn",
        64,
        7,
        Some(28672),
        28672,
        0x0bb4f3a2fa0d2a85b7c1a862d07a581c,
    ),
    (
        "byzantine",
        16,
        0,
        Some(1664),
        1664,
        0x00e09e4537ddd6e91df1275366274c1a,
    ),
    (
        "byzantine",
        16,
        1,
        Some(768),
        768,
        0x3b20a663e747d009062fef0f9d052734,
    ),
    (
        "byzantine",
        16,
        2,
        Some(704),
        704,
        0x0b1f2a7fb7718df74079dce6f3dd325d,
    ),
    (
        "byzantine",
        16,
        3,
        Some(1728),
        1728,
        0x76182c6e3b313ae86ad9ceb7a75c4fb8,
    ),
    (
        "byzantine",
        16,
        4,
        Some(1408),
        1408,
        0x7872bf5ee4620d2ae4c599c3a3be44a8,
    ),
    (
        "byzantine",
        16,
        5,
        Some(832),
        832,
        0xddf5aa0a695489ea6316e3fd840c227f,
    ),
    (
        "byzantine",
        16,
        6,
        Some(1152),
        1152,
        0x030dcab5baa16eb8c7995e8bd0c5efea,
    ),
    (
        "byzantine",
        16,
        7,
        Some(1280),
        1280,
        0x8b0e838cf6723fb5e5487355909b6d89,
    ),
    (
        "byzantine",
        64,
        0,
        Some(18432),
        18432,
        0xb08115d8c4502e725a4583ef5e1c917b,
    ),
    (
        "byzantine",
        64,
        1,
        Some(11264),
        11264,
        0x9240f9370ff8a3ffdd7e81f7eea20f07,
    ),
    (
        "byzantine",
        64,
        2,
        Some(13312),
        13312,
        0x85967f8adabd6f1a406d60e52294719e,
    ),
    (
        "byzantine",
        64,
        3,
        Some(17408),
        17408,
        0x6b6b6ce8480644f569df556df6251675,
    ),
    (
        "byzantine",
        64,
        4,
        Some(13312),
        13312,
        0xf5a8c6c4a948feb9423787b392fd778d,
    ),
    (
        "byzantine",
        64,
        5,
        Some(13312),
        13312,
        0x0d2be0819819d67ccff3f182b8a0e03a,
    ),
    (
        "byzantine",
        64,
        6,
        Some(13312),
        13312,
        0x2464cdfa4f5e1a0aa5607e80df6032d1,
    ),
    (
        "byzantine",
        64,
        7,
        Some(27648),
        27648,
        0x31d68705d3eefe490ae02fcfa65d4776,
    ),
];

/// `run_full` reproduces the full-pass oracle's hit steps and final
/// configurations, fault-free and under crash faults, churn and a
/// Byzantine window — every path that invalidates the counts.
#[test]
fn run_full_matches_the_full_pass_golden_results() {
    for variant in ["fault-free", "crash", "churn", "byzantine"] {
        let scenario = golden_scenario(variant);
        for &(v, n, seed, converged_at, steps, digest) in &GOLDEN {
            if v != variant {
                continue;
            }
            let run = scenario.run_full(&SweepPoint::new(n, seed));
            let got = (
                run.report.converged_at,
                run.report.steps_executed,
                fj_digest(run.sim.config()),
            );
            assert_eq!(
                got,
                (converged_at, steps, digest),
                "{variant}, n = {n}, seed {seed}"
            );
        }
    }
}

/// A converging run plus a closure stretch pays at most one O(n) oracle
/// pass per `n` steps (a full-pass oracle pays one per step).
#[test]
fn oracle_passes_are_at_most_one_per_n_steps() {
    let scenario = ProtocolKind::FischerJiang.scenario();
    for n in [64usize, 256] {
        for seed in 0..8u64 {
            let mut run = scenario.run_full(&SweepPoint::new(n, seed));
            assert!(run.report.converged(), "n = {n}, seed {seed}");
            run.sim.run_steps(4 * (n * n) as u64);
            let steps = run.sim.steps();
            let passes = run.sim.stats().oracle_passes();
            assert!(
                passes <= steps / n as u64,
                "n = {n}, seed {seed}: {passes} passes in {steps} steps"
            );
        }
    }
}
