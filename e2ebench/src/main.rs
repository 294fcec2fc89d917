//! `camelot-e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, prints the recorded parameters and every metric
//! by name and unit, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Exits nonzero on a wrong answer or a failed set-up. A traced run
//! also writes its spans to `.bench_spans/<workload>-seed<n>.tsv`
//! under the working directory.

#![forbid(unsafe_code)]

use camelot_e2ebench::{render, run, sys, trace, RunArgs, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn parse() -> Result<RunArgs, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 30.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let workload = workload.ok_or("--workload is required (clique6, poly-faults, service-mix)")?;
    Ok(RunArgs {
        workload,
        seed,
        seconds: Duration::from_secs_f64(seconds),
        trace,
        size: Size::Full,
    })
}

fn main() -> ExitCode {
    sys::mark_process_start();
    let args = match parse() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("camelot-e2ebench: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("camelot-e2ebench: {}: {err}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_spans").join(format!(
            "{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        if let Err(err) = trace::write_spans(&outcome.spans, &path) {
            eprintln!("camelot-e2ebench: writing {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    match render(&outcome, args.trace) {
        Ok(text) => print!("{text}"),
        Err(err) => {
            eprintln!("camelot-e2ebench: {err}");
            return ExitCode::FAILURE;
        }
    }
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "camelot-e2ebench: {} of {} operations failed",
            outcome.failed, outcome.attempted
        );
        ExitCode::FAILURE
    }
}
