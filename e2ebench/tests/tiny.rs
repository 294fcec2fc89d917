//! The benchmark's own tests, at tiny sizes: every metric is printed by
//! name and unit, traced self times account for each op's wall time,
//! the replay is bit-identical to the engine, and a second seed passes
//! the correctness gate too.

use camelot_e2ebench::trace::{profiles, unattributed_pct};
use camelot_e2ebench::{
    metric_table, render, run, RunArgs, Size, Workload, END_TO_END, PER_LAYER,
    UNATTRIBUTED_TOLERANCE_PCT,
};
use std::time::Duration;

fn tiny(workload: Workload, seed: u64, trace: bool) -> RunArgs {
    RunArgs { workload, seed, seconds: Duration::from_millis(300), trace, size: Size::Tiny }
}

fn note<'a>(notes: &'a [String], key: &str) -> Option<&'a str> {
    notes.iter().find_map(|n| n.strip_prefix(key).and_then(|rest| rest.strip_prefix('=')))
}

/// `BENCHMARK.json` at the repository root names exactly the metrics
/// the binary prints, with the same units.
#[test]
fn benchmark_json_lists_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
}

#[test]
fn every_metric_is_printed_with_its_unit_and_answers_are_correct() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&tiny(workload, 1, trace)).expect("tiny run");
            assert!(outcome.correct(), "{workload:?} trace={trace}: {:?}", outcome.notes);
            assert_eq!(outcome.failed, 0);
            let text = render(&outcome, trace).expect("every metric measured");
            for (name, unit) in metric_table(trace) {
                let line = text
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {name} ")))
                    .unwrap_or_else(|| panic!("{workload:?}: no line for {name}"));
                assert!(line.ends_with(&format!(" {unit}")), "{line}");
                assert!(text.contains(&format!("\"{name}\": {{\"value\": ")), "{name} not in JSON");
            }
            let last = text.lines().last().expect("result line");
            assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{last}");
            for key in ["thread_budget", "host_cores", "nodes", "f", "d", "e", "primes", "seed"] {
                assert!(note(&outcome.notes, key).is_some(), "{workload:?}: {key} not recorded");
            }
        }
    }
}

#[test]
fn traced_self_times_account_for_each_op_and_replays_are_bit_identical() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 3, true)).expect("tiny traced run");
        assert!(outcome.correct(), "{workload:?}: {:?}", outcome.notes);
        assert_eq!(note(&outcome.notes, "replay_mismatches"), Some("0"), "{workload:?}");
        let ops = profiles(&outcome.spans);
        assert!(ops.iter().any(|p| p.kind == "op.prepare"), "{workload:?}: no replayed prepare");
        for op in &ops {
            // Children nest inside their parents, so self times sum to
            // the op's wall time.
            assert!((op.self_total_ms() - op.wall_ms).abs() <= 1e-6 * op.wall_ms.max(1.0));
        }
        let glue = unattributed_pct(&ops);
        assert!(
            glue <= UNATTRIBUTED_TOLERANCE_PCT,
            "{workload:?}: {glue:.2}% of op time outside layer spans"
        );
        assert!(outcome.metrics["trace.overhead_ratio"] > 0.0);
    }
}

#[test]
fn a_second_seed_passes_the_correctness_gate() {
    for workload in Workload::ALL {
        let outcome = run(&tiny(workload, 0xD1CE, false)).expect("tiny run");
        assert!(outcome.correct(), "{workload:?}: {:?}", outcome.notes);
        assert!(outcome.attempted >= 3);
    }
}
