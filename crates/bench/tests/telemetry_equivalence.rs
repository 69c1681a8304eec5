//! The determinism contract of the telemetry layer, pinned at the bench
//! layer where the Table 1 scenarios are assembled: running a scenario with
//! an installed telemetry sink produces **bit-identical** reports and final
//! configurations to the plain run — instrumentation observes the RNG
//! stream, it never participates in it — and the captured trace is a
//! schema-valid, complete `ssle-telemetry/v1` stream whose run events match
//! the runs executed.

use population::SweepPoint;
use ssle_bench::ProtocolKind;
use std::sync::{Mutex, OnceLock};

/// Telemetry state (enabled flag, sink, registry) is process-global; tests
/// that install a sink must not interleave.
fn serialize() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn instrumented_runs_are_bit_identical_to_plain_runs() {
    let _guard = serialize();
    let n = 8;
    let seed = 3;
    for kind in ProtocolKind::ALL {
        let point = SweepPoint::new(n, seed);
        let plain = kind.scenario().run_full(&point);

        let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
        let instrumented = kind.scenario().run_full(&point);
        let text = trace.contents();
        ssle_telemetry::finish().expect("active stream finishes");

        assert_eq!(
            plain.report,
            instrumented.report,
            "{}: an installed telemetry sink perturbed the report",
            kind.name()
        );
        assert_eq!(
            *plain.sim.config(),
            *instrumented.sim.config(),
            "{}: an installed telemetry sink perturbed the final states",
            kind.name()
        );

        // The partial stream captured before `finish` is a valid prefix:
        // exactly one run ran under the sink.
        let stats = ssle_telemetry::validate_stream(&text).expect("schema-valid prefix");
        assert!(!stats.complete, "stream_end is only written by finish()");
        assert_eq!(stats.count("run_start"), 1, "{}", kind.name());
        assert_eq!(stats.count("run_end"), 1, "{}", kind.name());
        assert_eq!(stats.count("converged"), 1, "{}", kind.name());
    }
}

#[test]
fn finished_streams_validate_as_complete() {
    let _guard = serialize();
    let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
    let point = SweepPoint::new(8, 3);
    ProtocolKind::Ppl.scenario().run(&point);
    ProtocolKind::FischerJiang.scenario().run(&point);
    ssle_telemetry::finish().expect("active stream finishes");
    let text = trace.contents();

    let stats = ssle_telemetry::validate_stream(&text).expect("schema-valid stream");
    assert!(stats.complete);
    assert_eq!(stats.count("stream_start"), 1);
    assert_eq!(stats.count("stream_end"), 1);
    assert_eq!(stats.count("run_start"), 2);
    assert_eq!(stats.count("run_end"), 2);
    // The digest folds the same stream without error and sees both runs.
    use analysis::json::JsonValue;
    let digest = ssle_telemetry::TraceDigest::from_stream(&text).expect("digestible stream");
    let json = digest.to_json_value();
    let started = json
        .get("runs")
        .and_then(|r| r.get("started"))
        .and_then(JsonValue::as_str);
    assert_eq!(started, Some("2"));
}

/// Classic pairwise leader elimination: every agent starts a leader and a
/// leader initiator demotes a leader responder.
#[derive(Clone, Debug)]
struct Fratricide;
impl population::Protocol for Fratricide {
    type State = bool;
    fn interact(&self, initiator: &mut bool, responder: &mut bool) {
        if *initiator && *responder {
            *responder = false;
        }
    }
}
impl population::LeaderElection for Fratricide {
    fn is_leader(&self, s: &bool) -> bool {
        *s
    }
}

/// Fratricide on the complete graph under a Byzantine window that keeps
/// re-promoting agents 0 and 1 for the first 200 steps, on the uniform
/// sampler's path.
fn byzantine_fratricide() -> population::Scenario {
    use population::{ByzantineWindow, Configuration, FaultPlan, GraphFamily, ScenarioBuilder};
    ScenarioBuilder::new("byzantine-fratricide", |_pt: &SweepPoint| Fratricide)
        .graph(GraphFamily::Complete)
        .init(|_p, pt| Configuration::uniform(pt.n, true))
        .stop_when("unique-leader", |p: &Fratricide, c| {
            population::LeaderElection::has_unique_leader(p, c.states())
        })
        .check_every(|_pt| 7)
        .step_budget(|_pt| 100_000)
        .byzantine(|_p: &Fratricide, _rng, _agent, _state| true)
        .faults(
            |_pt| FaultPlan::new().with_byzantine(ByzantineWindow::new([0, 1], 0, 200)),
            |_p, _rng, _i| true,
        )
        .build()
        .expect("complete scenario")
}

/// Parses every line of a captured stream.
fn events(text: &str) -> Vec<analysis::json::JsonValue> {
    text.lines()
        .map(|line| analysis::json::JsonValue::parse(line).expect("one JSON object per line"))
        .collect()
}

/// Reads an exact u64 field (emitted as a decimal string).
fn exact(value: Option<&analysis::json::JsonValue>) -> u64 {
    use analysis::json::JsonValue;
    value
        .and_then(JsonValue::as_str)
        .map_or(0, |s| s.parse().expect("decimal u64"))
}

#[test]
fn every_converged_run_traces_exactly_one_converged_event() {
    let _guard = serialize();
    let point = SweepPoint::new(8, 3);
    let ppl = ProtocolKind::Ppl.scenario();
    let safe = ppl.run_full(&point);
    assert!(safe.report.converged());
    let resumed = ppl.clone().with_initial(safe.sim.config().clone());
    type Case<'a> = (&'a str, Box<dyn Fn() -> population::ConvergenceReport + 'a>);
    let cases: [Case; 3] = [
        (
            "detecting",
            Box::new(|| ppl.try_run_detecting(&point).unwrap().report),
        ),
        (
            "detecting from a converged start",
            Box::new(|| resumed.try_run_detecting(&point).unwrap().report),
        ),
        ("converged start", Box::new(|| resumed.run(&point))),
    ];
    for (label, run) in cases {
        let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
        let report = run();
        ssle_telemetry::finish().expect("active stream finishes");
        assert!(report.converged(), "{label}");
        let stats = ssle_telemetry::validate_stream(&trace.contents()).expect("valid stream");
        assert_eq!(stats.count("run_end"), 1, "{label}");
        assert_eq!(stats.count("converged"), 1, "{label}");
    }
}

#[test]
fn step_counters_account_for_every_traced_step() {
    let _guard = serialize();
    let point = SweepPoint::new(8, 3);
    let epoch = ssle_adversary::SchedulerSpec::EpochPartition {
        blocks: 2,
        epoch_len: 64,
    }
    .family(None);
    let angluin = ProtocolKind::AngluinModK.scenario().with_scheduler(epoch);
    let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
    ProtocolKind::Ppl.scenario().run(&point);
    ProtocolKind::Ppl
        .scenario()
        .try_run_detecting(&point)
        .unwrap();
    ProtocolKind::Ppl
        .scenario()
        .leader_trajectory(&point, 5_000, 500);
    angluin.run(&point);
    angluin.try_run_detecting(&point).unwrap();
    angluin.leader_trajectory(&point, 5_000, 500);
    byzantine_fratricide().run(&point);
    ssle_telemetry::finish().expect("active stream finishes");

    let events = events(&trace.contents());
    let kind = |e: &analysis::json::JsonValue| {
        e.get("event")
            .and_then(analysis::json::JsonValue::as_str)
            .map(str::to_owned)
    };
    let run_steps: u64 = events
        .iter()
        .filter(|e| kind(e).as_deref() == Some("run_end"))
        .map(|e| exact(e.get("steps")))
        .sum();
    let counters = events
        .iter()
        .rfind(|e| kind(e).as_deref() == Some("metrics"))
        .and_then(|e| e.get("registry"))
        .and_then(|r| r.get("counters"))
        .expect("the final metrics snapshot carries counters");
    let hot = exact(counters.get("hot_steps"));
    let scheduled = exact(counters.get("scheduled_steps"));
    assert!(
        hot > 0 && scheduled > 0,
        "both paths ran: {hot} + {scheduled}"
    );
    assert_eq!(
        hot + scheduled,
        run_steps,
        "every traced step is counted exactly once ({hot} hot + {scheduled} scheduled)"
    );
}

#[test]
fn oracle_passes_counter_sums_the_runs_oracle_passes() {
    let _guard = serialize();
    let trace = ssle_telemetry::install_memory("telemetry-equivalence").expect("fresh sink");
    let mut expected = 0;
    for seed in 0..3 {
        let point = SweepPoint::new(16, seed);
        let run = ProtocolKind::FischerJiang.scenario().run_full(&point);
        expected += run.sim.stats().oracle_passes();
        let pure = ProtocolKind::Ppl.scenario().run_full(&point);
        assert_eq!(pure.sim.stats().oracle_passes(), 0, "P_PL has no oracle");
    }
    ssle_telemetry::finish().expect("active stream finishes");

    let events = events(&trace.contents());
    let counters = events
        .iter()
        .rfind(|e| e.get("event").and_then(analysis::json::JsonValue::as_str) == Some("metrics"))
        .and_then(|e| e.get("registry"))
        .and_then(|r| r.get("counters"))
        .expect("the final metrics snapshot carries counters");
    assert!(expected > 0, "the oracle ran");
    assert_eq!(exact(counters.get("oracle_passes")), expected);
}
