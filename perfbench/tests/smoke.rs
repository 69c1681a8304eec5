//! Tiny-size smoke runs of every workload, untraced and traced, and a
//! negative test of the `ppl-ring` safe-set check.

use std::path::PathBuf;

use analysis::json::JsonValue;
use perfbench::convergence::Target;
use perfbench::{run, Outcome, Plan, Workload, END_TO_END, PER_LAYER};
use population::{Configuration, LeaderElection, SweepPoint};
use ssle_bench::ProtocolKind;

/// A plan small enough for a test: a few short trials, or one shrunken
/// pass over the hostile cells (which stay at n = 64, the grid size their
/// output check splices into).
fn tiny(workload: Workload, trace: bool) -> Plan {
    let mut plan = Plan::new(workload, 3, 1, trace);
    plan.root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    plan.setup_reps = 3;
    match workload {
        Workload::PplRing => {
            plan.n = 32;
            plan.trials = 2;
        }
        Workload::FjOracle => {
            plan.n = 16;
            plan.trials = 2;
        }
        Workload::HostileSearch => {
            plan.shrink_search = true;
            plan.passes = 1;
            plan.replays = 1;
            plan.closure_n2 = 4;
        }
    }
    plan
}

/// Every metric of the run's kind is emitted, with its unit, and nothing
/// else; every check passed.
fn assert_complete(outcome: &Outcome, trace: bool) {
    assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
    let result = outcome.result_json(trace);
    assert_eq!(
        result.get("correct").and_then(JsonValue::as_bool),
        Some(true)
    );
    assert!(outcome.attempted >= 1);
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let Some(JsonValue::Object(metrics)) = result.get("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), table.len());
    for &(name, unit) in table {
        let metric = result
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("metric {name} missing"));
        assert_eq!(metric.get("unit").and_then(JsonValue::as_str), Some(unit));
        let value = metric.get("value").and_then(JsonValue::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
    if !trace {
        for &(name, _) in table {
            assert!(outcome.end_to_end[name] > 0.0, "end-to-end {name} reads 0");
        }
    }
}

#[test]
fn ppl_ring_emits_every_metric() {
    for trace in [false, true] {
        let outcome = run(&tiny(Workload::PplRing, trace));
        assert_complete(&outcome, trace);
    }
}

#[test]
fn fj_oracle_emits_every_metric() {
    for trace in [false, true] {
        let outcome = run(&tiny(Workload::FjOracle, trace));
        assert_complete(&outcome, trace);
    }
    let traced = run(&tiny(Workload::FjOracle, true));
    assert!(traced.per_layer["environment.calls"] > 0.0);
}

#[test]
fn hostile_search_emits_every_metric() {
    for trace in [false, true] {
        let outcome = run(&tiny(Workload::HostileSearch, trace));
        assert_complete(&outcome, trace);
    }
}

#[test]
fn exact_counts_repeat_for_the_same_seed() {
    let plan = tiny(Workload::PplRing, true);
    let (a, b) = (run(&plan), run(&plan));
    assert_eq!(a.counts, b.counts);
    assert!(a.counts.iter().any(|(k, _)| k == "stop.checks"));
}

#[test]
fn ppl_check_flags_a_final_configuration_outside_s_pl() {
    let n = 32;
    let point = SweepPoint::new(n, 5);
    let run = ProtocolKind::Ppl.scenario().run_full(&point);
    let safe = run.sim.config();
    assert_eq!(Target::Ppl.check_safe(safe, n), Ok(()));

    // Every agent copies the leader's state: n leaders, far outside S_PL.
    let leader = safe
        .states()
        .iter()
        .position(|s| run.sim.protocol().is_leader(s))
        .expect("a converged P_PL ring has a leader");
    let cloned = Configuration::from_states(vec![safe.states()[leader].clone(); n]);
    assert!(Target::Ppl.check_safe(&cloned, n).is_err());

    // The uniformly random start is outside S_PL too.
    let start = ProtocolKind::Ppl.scenario().prepare(&point).config;
    assert!(Target::Ppl.check_safe(&start, n).is_err());
}
