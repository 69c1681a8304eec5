//! Tracked telemetry-overhead benchmark: pins the cost of the instrumented
//! hot loop and writes `BENCH_telemetry.json` (schema `telemetry-bench/v1`)
//! so the overhead budget of DESIGN.md has a measured trajectory.
//!
//! For each case the binary times the Table 1 hot loop (the same erased
//! simulation `hotloop_report` measures) twice:
//!
//! * **disabled** — telemetry off, the shipped default: every metric handle
//!   and `emit` is one relaxed load and a branch;
//! * **enabled, unsampled** — the global flag on but no sink installed,
//!   the worst case a `--telemetry` run pays *inside* the simulation loop
//!   (sink writes happen at run boundaries, not per burst).
//!
//! The two modes interleave per repetition and the best throughput of each
//! is compared, so machine noise cancels rather than accumulates.  The
//! headline number is `max_overhead_percent` across cases; the tracked
//! budget is ≤ 5 % in full mode (`--gate` turns the budget into an exit
//! code for CI).
//!
//! ```text
//! cargo run --release -p ssle-bench --bin telemetry_bench
//! cargo run --release -p ssle-bench --bin telemetry_bench -- --quick --gate 20
//! ```
//!
//! The binary self-validates: after writing, it re-reads the file, parses
//! it with `analysis::json` and checks it against the schema, exiting
//! non-zero on any mismatch.

use analysis::json::JsonValue;
use ssle_bench::hotloop::{measure, HotloopGraph};
use ssle_bench::ProtocolKind;

const USAGE: &str = "\
options:
  --quick        reduced time budget (CI smoke); same cases and schema
  --gate PCT     exit non-zero if max overhead exceeds PCT percent
  --out PATH     output file (default: BENCH_telemetry.json, or
                 BENCH_telemetry.quick.json under --quick so a local smoke
                 run never clobbers the committed full-mode trajectory)
  --json         also print the JSON document to stdout
  --help         print this message";

/// The measured cases: the paper protocol's ring hot loop at both tracked
/// sizes (cache-resident and cache-straining).
const CASES: [(ProtocolKind, usize); 2] = [(ProtocolKind::Ppl, 256), (ProtocolKind::Ppl, 4096)];

/// Interleaved repetitions per case (best-of per mode).
const REPETITIONS: usize = 3;

/// Parsed flags of one invocation.
#[derive(Debug, Default, PartialEq)]
struct Args {
    quick: bool,
    json: bool,
    out: Option<String>,
    gate: Option<f64>,
}

/// Parses the command line.  `Ok(None)` means `--help` was requested.
fn parse_args<I>(args: I) -> Result<Option<Args>, String>
where
    I: IntoIterator<Item = String>,
{
    let mut out = Args::default();
    let mut iter = args.into_iter();
    let value_of = |flag: &str, iter: &mut dyn Iterator<Item = String>| {
        iter.next()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => out.quick = true,
            "--json" => out.json = true,
            "--out" => out.out = Some(value_of("--out", &mut iter)?),
            "--gate" => match value_of("--gate", &mut iter)?.parse::<f64>() {
                Ok(g) if g.is_finite() && g > 0.0 => out.gate = Some(g),
                _ => return Err("--gate requires a positive percentage".to_string()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(Some(out))
}

/// One case's measurement.
struct CaseOutcome {
    kind: ProtocolKind,
    n: usize,
    disabled: f64,
    enabled: f64,
}

impl CaseOutcome {
    /// Throughput loss of the enabled-unsampled mode, in percent (negative
    /// when noise makes the enabled run faster).
    fn overhead_percent(&self) -> f64 {
        (1.0 - self.enabled / self.disabled) * 100.0
    }
}

/// Times one case in both modes, interleaved.
fn run_case(kind: ProtocolKind, n: usize, budget_secs: f64) -> CaseOutcome {
    let mut disabled = 0.0f64;
    let mut enabled = 0.0f64;
    for _ in 0..REPETITIONS {
        ssle_telemetry::set_enabled(false);
        disabled = disabled.max(measure(kind, HotloopGraph::Ring, n, budget_secs));
        ssle_telemetry::set_enabled(true);
        enabled = enabled.max(measure(kind, HotloopGraph::Ring, n, budget_secs));
        ssle_telemetry::set_enabled(false);
    }
    // The enabled passes counted hot-loop steps; drop them so a later sink
    // in the same process starts from zero.
    ssle_telemetry::registry().reset();
    CaseOutcome {
        kind,
        n,
        disabled,
        enabled,
    }
}

/// Serializes the report document.
fn report_json(quick: bool, budget_secs: f64, cases: &[CaseOutcome]) -> JsonValue {
    let max_overhead = cases
        .iter()
        .map(CaseOutcome::overhead_percent)
        .fold(f64::NEG_INFINITY, f64::max);
    JsonValue::object()
        .with("schema", ssle_telemetry::BENCH_SCHEMA)
        .with("mode", if quick { "quick" } else { "full" })
        .with("budget_secs", budget_secs)
        .with("repetitions", REPETITIONS)
        .with(
            "cases",
            JsonValue::Array(
                cases
                    .iter()
                    .map(|c| {
                        JsonValue::object()
                            .with("protocol", c.kind.key())
                            .with("graph", "ring")
                            .with("n", c.n)
                            .with("steps_per_sec_disabled", c.disabled)
                            .with("steps_per_sec_enabled_unsampled", c.enabled)
                            .with("overhead_percent", c.overhead_percent())
                    })
                    .collect(),
            ),
        )
        .with("max_overhead_percent", max_overhead)
}

/// Checks a parsed report against the `telemetry-bench/v1` schema.
fn validate_report(json: &JsonValue) -> Result<(), String> {
    if json.get("schema").and_then(JsonValue::as_str) != Some(ssle_telemetry::BENCH_SCHEMA) {
        return Err(format!(
            "missing or wrong schema tag (want {:?})",
            ssle_telemetry::BENCH_SCHEMA
        ));
    }
    match json.get("mode").and_then(JsonValue::as_str) {
        Some("quick") | Some("full") => {}
        other => return Err(format!("mode must be quick or full, got {other:?}")),
    }
    let positive = |key: &str, v: Option<f64>| match v {
        Some(x) if x.is_finite() && x > 0.0 => Ok(x),
        other => Err(format!("{key} must be a positive number, got {other:?}")),
    };
    positive(
        "budget_secs",
        json.get("budget_secs").and_then(JsonValue::as_f64),
    )?;
    let cases = match json.get("cases") {
        Some(JsonValue::Array(cases)) if !cases.is_empty() => cases,
        _ => return Err("cases must be a non-empty array".to_string()),
    };
    let mut max_seen = f64::NEG_INFINITY;
    for (i, case) in cases.iter().enumerate() {
        if case.get("protocol").and_then(JsonValue::as_str).is_none() {
            return Err(format!("case {i}: protocol must be a string"));
        }
        positive(
            "steps_per_sec_disabled",
            case.get("steps_per_sec_disabled")
                .and_then(JsonValue::as_f64),
        )?;
        positive(
            "steps_per_sec_enabled_unsampled",
            case.get("steps_per_sec_enabled_unsampled")
                .and_then(JsonValue::as_f64),
        )?;
        let overhead = case
            .get("overhead_percent")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("case {i}: overhead_percent must be a number"))?;
        max_seen = max_seen.max(overhead);
    }
    let declared = json
        .get("max_overhead_percent")
        .and_then(JsonValue::as_f64)
        .ok_or("max_overhead_percent must be a number")?;
    if (declared - max_seen).abs() > 1e-9 {
        return Err(format!(
            "max_overhead_percent {declared} does not match the cases' maximum {max_seen}"
        ));
    }
    Ok(())
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let out = args.out.clone().unwrap_or_else(|| {
        String::from(if args.quick {
            "BENCH_telemetry.quick.json"
        } else {
            "BENCH_telemetry.json"
        })
    });
    let budget_secs = if args.quick { 0.2 } else { 1.5 };

    let cases: Vec<CaseOutcome> = CASES
        .iter()
        .map(|&(kind, n)| run_case(kind, n, budget_secs))
        .collect();
    let json = report_json(args.quick, budget_secs, &cases);
    let text = json.to_json();

    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }

    // Self-validation: what we wrote must parse and match the schema.
    let reread = std::fs::read_to_string(&out).expect("just wrote the report file");
    let parsed = match JsonValue::parse(&reread) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {out} does not parse as JSON: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = validate_report(&parsed) {
        eprintln!(
            "error: {out} violates the {} schema: {e}",
            ssle_telemetry::BENCH_SCHEMA
        );
        std::process::exit(1);
    }

    println!(
        "# Telemetry overhead ({} mode)\n",
        if args.quick { "quick" } else { "full" }
    );
    println!("| protocol | n | off steps/s | on (unsampled) steps/s | overhead |");
    println!("|---|---|---|---|---|");
    for c in &cases {
        println!(
            "| {} | {} | {:.3e} | {:.3e} | {:+.2}% |",
            c.kind.key(),
            c.n,
            c.disabled,
            c.enabled,
            c.overhead_percent()
        );
    }
    let max_overhead = cases
        .iter()
        .map(CaseOutcome::overhead_percent)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("\nwrote {out} (max overhead {max_overhead:+.2}%)");
    if args.json {
        println!("{text}");
    }

    if let Some(gate) = args.gate {
        if max_overhead > gate {
            eprintln!("error: max overhead {max_overhead:.2}% exceeds the --gate budget {gate}%");
            std::process::exit(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Option<Args>, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let args = parse(&["--quick", "--gate", "5", "--out", "x.json"])
            .unwrap()
            .unwrap();
        assert!(args.quick);
        assert_eq!(args.gate, Some(5.0));
        assert_eq!(args.out.as_deref(), Some("x.json"));
        assert_eq!(parse(&["--help"]).unwrap(), None);
        for bad in [
            vec!["--gate", "0"],
            vec!["--gate", "x"],
            vec!["--gate"],
            vec!["--unknown"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let cases = vec![
            CaseOutcome {
                kind: ProtocolKind::Ppl,
                n: 256,
                disabled: 2.0e7,
                enabled: 1.95e7,
            },
            CaseOutcome {
                kind: ProtocolKind::Ppl,
                n: 4096,
                disabled: 1.0e7,
                enabled: 1.01e7,
            },
        ];
        let json = report_json(true, 0.2, &cases);
        validate_report(&json).expect("generated report must validate");
        let reparsed = JsonValue::parse(&json.to_json()).unwrap();
        validate_report(&reparsed).expect("report must survive serialization");
        assert!(
            (reparsed
                .get("max_overhead_percent")
                .and_then(JsonValue::as_f64)
                .unwrap()
                - 2.5)
                .abs()
                < 1e-9,
            "max is the 256 case's 2.5%"
        );
    }

    /// Rebuilds an object with one key's value replaced (`JsonValue::with`
    /// appends, and `get` finds the first occurrence).
    fn replace(json: &JsonValue, key: &str, value: impl Into<JsonValue>) -> JsonValue {
        let value = value.into();
        match json {
            JsonValue::Object(entries) => JsonValue::Object(
                entries
                    .iter()
                    .map(|(k, v)| {
                        let v = if k == key { value.clone() } else { v.clone() };
                        (k.clone(), v)
                    })
                    .collect(),
            ),
            other => panic!("replace on a non-object: {other:?}"),
        }
    }

    #[test]
    fn corrupted_reports_are_rejected() {
        let cases = vec![CaseOutcome {
            kind: ProtocolKind::Ppl,
            n: 256,
            disabled: 2.0e7,
            enabled: 1.9e7,
        }];
        let good = report_json(false, 1.5, &cases);
        for (corrupt, why) in [
            (replace(&good, "schema", "nope/v0"), "wrong schema"),
            (replace(&good, "mode", "fast"), "bad mode"),
            (replace(&good, "budget_secs", -1.0), "negative budget"),
            (
                replace(&good, "cases", JsonValue::Array(vec![])),
                "empty cases",
            ),
            (
                replace(&good, "max_overhead_percent", 99.0),
                "inconsistent max",
            ),
        ] {
            assert!(validate_report(&corrupt).is_err(), "{why} must be rejected");
        }
        validate_report(&good).expect("the uncorrupted report validates");
    }
}
