//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints two JSON lines on standard output: a detail
//! object (run context, exact counts, sample counts, failures, every
//! metric), then the result object `{correct, attempted, failed, metrics}`
//! — end-to-end metrics for `--trace 0`, per-layer metrics for
//! `--trace 1`.  Run it from the repository root.

use std::process::ExitCode;

use perfbench::{context, run, Plan, Workload};

const USAGE: &str = "usage: perfbench --workload <ppl-ring|fj-oracle|hostile-search> \
                     --seed <u64> --seconds <u64> --trace <0|1>";

fn parse(args: &[String]) -> Result<Plan, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Plan::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let plan = match parse(&args) {
        Ok(plan) => plan,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracked = plan.root.join(perfbench::hostile::TRACKED_REPORT);
    if !tracked.is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            tracked.display()
        );
        return ExitCode::from(2);
    }
    let load_start = context::load_average();
    let outcome = run(&plan);
    let ctx = context::run_context(&load_start, &context::load_average());
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", outcome.detail_json(&plan, ctx).to_json());
    println!("{}", outcome.result_json(plan.trace).to_json());
    ExitCode::SUCCESS
}
