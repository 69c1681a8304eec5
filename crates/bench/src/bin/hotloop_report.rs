//! Hot-loop bench report: measures the erased run path's steps/second for
//! the four Table 1 protocols × {ring, complete} × n ∈ {256, 4096} and
//! writes the results to `BENCH_hotloop.json` (at the current directory —
//! run from the repository root) so later changes have a perf trajectory.
//!
//! ```text
//! cargo run --release -p ssle-bench --bin hotloop_report
//! cargo run --release -p ssle-bench --bin hotloop_report -- --quick --json
//! cargo run --release -p ssle-bench --bin hotloop_report -- --quick --fabric 2 --resume
//! ```
//!
//! `--fabric N` runs the case grid across N worker subprocesses (this
//! binary re-invoked with `--worker`) through the `ssle-fabric`
//! coordinator, with crash retry and a content-addressed result cache;
//! `--resume` reuses cached cases.  Timings are wall-clock, so — unlike the
//! stabilization report — a fabric run is *schema*-identical but not
//! byte-identical to an in-process rerun; the cache is what makes
//! interrupted measurement campaigns resumable.  The flags, with their
//! defaults, are listed once in `USAGE` (printed by `--help`).
//!
//! The binary self-validates: after writing, it re-reads the file, parses it
//! with `analysis::json` and checks it against the `hotloop-bench/v2`
//! schema, exiting non-zero on any mismatch.  The markdown table it prints
//! is rendered from that re-read document in both modes.

use ssle_bench::fabric::{hotloop_handler, run_hotloop_fabric, FabricConfig};
use ssle_bench::hotloop;
use ssle_fabric::{worker_loop, WorkerCommand};

/// Command-line help, printed by `--help` and after a bad flag.
const USAGE: &str = "\
options:
  --quick        reduced time budget (CI smoke); same case grid and schema
  --fabric N     run the grid across N worker subprocesses (coordinator mode)
  --resume       with --fabric: reuse cached case results
  --cache-dir P  with --fabric: result-cache directory (default .fabric-cache)
  --worker       run as a fabric worker: read work units on stdin, write
                 results on stdout (used by --fabric)
  --out PATH     output file (default: BENCH_hotloop.json, or
                 BENCH_hotloop.quick.json under --quick so a local smoke run
                 never clobbers the committed full-mode trajectory)
  --json         also print the JSON document to stdout
  --telemetry    write an ssle-telemetry/v1 NDJSON trace alongside the
                 report (default file: hotloop_report.trace.ndjson)
  --telemetry-out PATH
                 telemetry trace file (implies --telemetry)
  --help         print this message";

/// Parsed flags of one invocation.
#[derive(Debug, Default, PartialEq, Eq)]
struct Args {
    quick: bool,
    json: bool,
    out: Option<String>,
    worker: bool,
    fabric: Option<usize>,
    resume: bool,
    cache_dir: Option<String>,
    telemetry: bool,
    telemetry_out: Option<String>,
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
            "--worker" => out.worker = true,
            "--resume" => out.resume = true,
            "--out" => out.out = Some(value_of("--out", &mut iter)?),
            "--cache-dir" => out.cache_dir = Some(value_of("--cache-dir", &mut iter)?),
            "--telemetry" => out.telemetry = true,
            "--telemetry-out" => {
                out.telemetry_out = Some(value_of("--telemetry-out", &mut iter)?);
                out.telemetry = true;
            }
            "--fabric" => match value_of("--fabric", &mut iter)?.parse() {
                Ok(w) if w >= 1 => out.fabric = Some(w),
                _ => return Err("--fabric requires a number >= 1".to_string()),
            },
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    if out.worker && (out.fabric.is_some() || out.json || out.out.is_some() || out.telemetry) {
        return Err("--worker is a pure stdin/stdout mode".to_string());
    }
    if (out.resume || out.cache_dir.is_some()) && out.fabric.is_none() {
        return Err("--resume/--cache-dir only apply to --fabric runs".to_string());
    }
    Ok(Some(out))
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

    if args.worker {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = worker_loop(stdin.lock(), stdout.lock(), hotloop_handler()) {
            eprintln!("hotloop_report --worker: {e}");
            std::process::exit(2);
        }
        return;
    }

    let trace = ssle_bench::trace::TraceGuard::start(
        args.telemetry,
        args.telemetry_out.as_deref(),
        "hotloop_report",
    )
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    let out = args.out.clone().unwrap_or_else(|| {
        String::from(if args.quick {
            "BENCH_hotloop.quick.json"
        } else {
            "BENCH_hotloop.json"
        })
    });

    let (json, summary) = match args.fabric {
        None => {
            let report = hotloop::run(args.quick);
            let summary = format!(
                "{} cases, {:.2}s timed budget each",
                report.cases.len(),
                report.budget_secs
            );
            (report.to_json_value(), summary)
        }
        Some(workers) => {
            let mut config = FabricConfig::new(workers, args.quick);
            config.resume = args.resume;
            if let Some(dir) = &args.cache_dir {
                config.cache_dir = dir.into();
            }
            let command = WorkerCommand::current_exe(&["--worker"]).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            let (json, stats) =
                run_hotloop_fabric(&command, args.quick, &config).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            (json, format!("fabric: workers={workers} {stats}"))
        }
    };
    let text = json.to_json();

    if let Err(e) = std::fs::write(&out, &text) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(1);
    }

    // Self-validation: what we wrote must parse and match the schema.
    let reread = std::fs::read_to_string(&out).expect("just wrote the report file");
    let parsed = match analysis::json::JsonValue::parse(&reread) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {out} does not parse as JSON: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = hotloop::validate_report(&parsed) {
        eprintln!("error: {out} violates the {} schema: {e}", hotloop::SCHEMA);
        std::process::exit(1);
    }

    println!(
        "# Hot-loop throughput ({} mode)\n",
        if args.quick { "quick" } else { "full" }
    );
    println!("{}", hotloop::markdown_table(&parsed));
    println!("wrote {out} ({summary})");
    if args.json {
        println!("{text}");
    }
    trace.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> Result<Option<Args>, String> {
        parse_args(line.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flags_parse() {
        let args = parse(&["--quick", "--fabric", "2", "--resume"])
            .unwrap()
            .unwrap();
        assert!(args.quick && args.resume);
        assert_eq!(args.fabric, Some(2));
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert!(parse(&["--worker"]).unwrap().unwrap().worker);
    }

    #[test]
    fn telemetry_out_implies_telemetry() {
        let args = parse(&["--telemetry"]).unwrap().unwrap();
        assert!(args.telemetry && args.telemetry_out.is_none());
        let args = parse(&["--telemetry-out", "t.ndjson"]).unwrap().unwrap();
        assert!(args.telemetry);
        assert_eq!(args.telemetry_out.as_deref(), Some("t.ndjson"));
    }

    #[test]
    fn bad_lines_are_rejected() {
        for bad in [
            vec!["--fabric", "0"],
            vec!["--fabric"],
            vec!["--resume"],
            vec!["--cache-dir", "/tmp/c"],
            vec!["--worker", "--json"],
            vec!["--worker", "--telemetry"],
            vec!["--telemetry-out"],
            vec!["--unknown"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
