//! Recurrence detection, closure interning and the explorer key
//! configurations by a structural `Hash` fingerprint and confirm every
//! match with `==`.  These tests pin that the switch from the `Debug`-text
//! digest changed no output:
//!
//! * the quick `run_cell` JSON of `angluin-mod-k/ring/64` (a certified
//!   livelock) and `ppl/ring/64`, byte for byte, against goldens recorded
//!   with the `Debug`-digest implementation;
//! * a certificate's `config_digest` is still the position-salted sum of
//!   `DynState::digest` over the recurrent configuration;
//! * equal states have equal fingerprints, for every Table 1 state;
//! * a protocol whose `Hash` writes nothing — every fingerprint collides —
//!   detects, closes and explores exactly like the same protocol with the
//!   derived `Hash`.

use std::hash::{Hash, Hasher};

use population::{
    explore, phase_closure, BatchRunner, ClosureLimits, Configuration, DynState, ExploreLimits,
    GraphFamily, InteractionGraph, LeaderElection, Protocol, Scenario, ScenarioBuilder, SweepPoint,
};
use ssle_adversary::{spec_phases, SchedulerSpec};
use ssle_bench::stabilization::{
    cell_to_json, certificate_candidate, run_cell, stab_budget, stab_scenario, GridGraph,
    RunOptions, MAX_RATE_MULTIPLIER,
};
use ssle_bench::ProtocolKind;

/// Goldens of `cell_to_json(run_cell(..)).to_json()` at n = 64, quick
/// options, one thread, recorded with the `Debug`-digest implementation.
const GOLDEN_ANGLUIN: &str = include_str!("golden/angluin-mod-k_ring_64.json");
const GOLDEN_PPL: &str = include_str!("golden/ppl_ring_64.json");

fn quick_options() -> RunOptions {
    RunOptions {
        sizes: vec![64],
        threads: Some(1),
        ..RunOptions::new(true)
    }
}

#[test]
fn quick_run_cells_match_the_debug_digest_goldens() {
    for (kind, golden) in [
        (ProtocolKind::AngluinModK, GOLDEN_ANGLUIN),
        (ProtocolKind::Ppl, GOLDEN_PPL),
    ] {
        let cell = run_cell(
            kind,
            GridGraph::Ring,
            64,
            &quick_options(),
            &BatchRunner::with_threads(1),
        );
        assert_eq!(
            cell_to_json(&cell).to_json(),
            golden,
            "{}/ring/64: the quick cell differs from its golden",
            kind.key()
        );
    }
}

/// The position-salted `Debug`-FNV sum over a configuration.
fn debug_digest_sum(config: &Configuration<DynState>) -> u64 {
    config
        .states()
        .iter()
        .enumerate()
        .fold(0u64, |sum, (i, s)| sum.wrapping_add(s.digest(i as u64)))
}

#[test]
fn a_candidates_config_digest_is_the_debug_digest_sum() {
    // The golden angluin-mod-k cell's certified recurrence, replayed the way
    // `certify_cell` replays it (no topology axes in this candidate).
    let json = analysis::json::JsonValue::parse(GOLDEN_ANGLUIN).expect("the golden parses");
    let candidate = certificate_candidate(ProtocolKind::AngluinModK, &json).expect("rebuilds");
    let certified = json
        .get("worst")
        .and_then(|w| w.get("certified"))
        .expect("the golden cell is certified");
    let field = |name: &str| -> u64 {
        let value = certified.get(name).expect(name);
        value
            .as_str()
            .map(|s| s.parse().expect(name))
            .or_else(|| value.as_f64().map(|f| f as u64))
            .expect(name)
    };
    let budget = stab_budget(ProtocolKind::AngluinModK, 64, true);
    let detect_budget = (budget * MAX_RATE_MULTIPLIER).min(quick_options().step_ceiling());
    let scenario = stab_scenario(
        ProtocolKind::AngluinModK,
        GridGraph::Ring,
        candidate.variant as usize,
        detect_budget,
    )
    .with_scheduler(candidate.spec.family(None))
    .with_fault_plan(candidate.faults.plan());
    let run = scenario
        .try_run_detecting(&SweepPoint::new(64, candidate.seed))
        .unwrap();
    let found = run.recurrence.expect("the certified cell recurs");
    assert_eq!(found.config_digest, debug_digest_sum(&found.config));
    assert_eq!(found.config_digest, field("config_digest"));
    assert_eq!(found.entry_step, field("entry_step"));
    assert_eq!(found.period, field("period"));
    assert_eq!(found.phase, Some(field("phase")));
}

#[test]
fn equal_table1_states_have_equal_fingerprints() {
    for kind in ProtocolKind::ALL {
        // Random starts and the states a short run reaches from them.
        let mut states: Vec<DynState> = Vec::new();
        for seed in 0..4 {
            let point = SweepPoint::new(12, seed);
            let start = kind.scenario().prepare(&point).config;
            let run = stab_scenario(kind, GridGraph::Ring, 0, 2_000).run_full(&point);
            states.extend_from_slice(start.states());
            states.extend_from_slice(run.sim.config().states());
        }
        for (i, a) in states.iter().enumerate() {
            for salt in [0, 1, 63] {
                let fingerprint = a.fingerprint(salt);
                assert_eq!(a.clone().fingerprint(salt), fingerprint, "{}", kind.key());
                for b in &states[i + 1..] {
                    if a == b {
                        assert_eq!(b.fingerprint(salt), fingerprint, "{}", kind.key());
                    }
                }
            }
        }
    }
}

/// A mod-3 counter.  With `BLIND` its `Hash` writes nothing, so every state
/// — and every configuration — has the same fingerprint; otherwise it
/// hashes exactly like `#[derive(Hash)]`.  `Debug` is the same either way.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Count<const BLIND: bool>(u8);

impl<const BLIND: bool> Hash for Count<BLIND> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        if !BLIND {
            self.0.hash(state);
        }
    }
}

/// The responder adds the initiator's count plus one, mod 3.
#[derive(Clone, Debug)]
struct Spin<const BLIND: bool>;

impl<const BLIND: bool> Protocol for Spin<BLIND> {
    type State = Count<BLIND>;
    fn interact(&self, initiator: &mut Count<BLIND>, responder: &mut Count<BLIND>) {
        responder.0 = (responder.0 + initiator.0 + 1) % 3;
    }
}

impl<const BLIND: bool> LeaderElection for Spin<BLIND> {
    fn is_leader(&self, state: &Count<BLIND>) -> bool {
        state.0 == 0
    }
}

const SPIN_SPEC: SchedulerSpec = SchedulerSpec::EpochPartition {
    blocks: 2,
    epoch_len: 3,
};

/// `Spin` on a directed 5-ring under `SPIN_SPEC`, stopping when every
/// count is `target` (never, for `target = 3`).
fn spin<const BLIND: bool>(target: u8) -> Scenario {
    ScenarioBuilder::new("spin", |_pt: &SweepPoint| Spin::<BLIND>)
        .graph(GraphFamily::DirectedRing)
        .init(|_p, pt| {
            (0..pt.n)
                .map(|i| Count(((i as u64 + pt.seed) % 3) as u8))
                .collect()
        })
        .stop_when("all-target", move |_p: &Spin<BLIND>, c| {
            c.states().iter().all(|s| s.0 == target)
        })
        .check_every(|_pt| 16)
        .step_budget(|_pt| 1 << 20)
        .scheduler(SPIN_SPEC.family(None))
        .build()
        .unwrap()
}

/// Everything detection, closure and exploration decide for `Spin`, with
/// configurations rendered through `Debug` (identical for both hashes).
fn spin_outcomes<const BLIND: bool>(seed: u64, target: u8) -> String {
    let scenario = spin::<BLIND>(target);
    let point = SweepPoint::new(5, seed);
    let run = scenario.try_run_detecting(&point).unwrap();
    let mut out = format!("{:?}\n", run.report);
    let graph = scenario.graph_family().build(point.n).unwrap();
    let mut prepared = scenario.prepare(&point);
    if let Some(found) = &run.recurrence {
        out += &format!(
            "entry {} period {} phase {:?} digest {} config {:?}\n",
            found.entry_step, found.period, found.phase, found.config_digest, found.config
        );
        let closure = phase_closure(
            &prepared.protocol,
            &spec_phases(&SPIN_SPEC, graph.arcs()),
            &found.config,
            found.phase.expect("epoch partition has a phase"),
            &mut *prepared.stop,
            &ClosureLimits::default(),
        );
        out += &format!(
            "closure configs {} nodes {} closed {} stop_free {}\n",
            closure.configs, closure.nodes, closure.closed, closure.stop_free
        );
    }
    let explored = explore(
        &prepared.protocol,
        &graph.arcs(),
        &prepared.config,
        &mut *prepared.stop,
        &ExploreLimits::default(),
    );
    out += &format!(
        "explored {} stop {} {:?}\n",
        explored.reachable, explored.stop_configs, explored.verdict
    );
    out
}

#[test]
fn colliding_fingerprints_change_no_outcome() {
    use ssle_telemetry::metrics::well_known::RECURRENCE_FALSE_MATCHES;
    // Telemetry is process-global; only this test turns it on.
    ssle_telemetry::set_enabled(true);
    let mut recurrences = 0;
    for seed in 0..4 {
        for target in [0, 3] {
            let before = RECURRENCE_FALSE_MATCHES.get();
            let derived = spin_outcomes::<false>(seed, target);
            let between = RECURRENCE_FALSE_MATCHES.get();
            let blind = spin_outcomes::<true>(seed, target);
            assert_eq!(
                between, before,
                "seed {seed}: derived fingerprints collided"
            );
            assert!(
                RECURRENCE_FALSE_MATCHES.get() > between,
                "seed {seed}: blind fingerprints must be counted as false matches"
            );
            assert_eq!(blind, derived, "seed {seed}, target {target}");
            recurrences += derived.matches("entry").count();
        }
    }
    ssle_telemetry::set_enabled(false);
    assert!(
        recurrences >= 4,
        "the detector must fire ({recurrences} times)"
    );
}
