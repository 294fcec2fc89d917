//! End-to-end benchmark of the Camelot workspace.
//!
//! One binary runs a named workload from a seed for a fixed number of
//! seconds, checks every answer against a reference the benchmark
//! computes itself, and prints every metric by name and unit. The
//! untraced run (`--trace 0`) times whole operations through the
//! public entry points a user calls (`Engine::run`, `Engine::redeem`,
//! the daemon's `request` client). The traced run (`--trace 1`)
//! replays the same operations layer by layer through the public
//! functions of `core`, `cliques`, `cluster`, `rscode`, `ff`, `store`
//! and `server`, recording spans around each call, and reports the
//! per-layer metrics. `NOTES.md` maps every metric to its layer and to
//! the workload that loads it.

#![forbid(unsafe_code)]

pub mod clique6;
pub mod engine_bench;
pub mod poly_faults;
pub mod replay;
pub mod service_mix;
pub mod stats;
pub mod sys;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("prepare_p50_ms", "ms"),
    ("prepare_tail_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("verify_tail_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("hit_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("max_node_evals", "count"),
    ("wire_kib_per_proof", "KiB"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer a workload never calls reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.primes", "count"),
    ("core.prime_choice_ms", "ms"),
    ("core.spot_check_ms", "ms"),
    ("core.spot_trials", "count"),
    ("cliques.evaluator_build_ms", "ms"),
    ("cliques.eval_point_us", "us"),
    ("cluster.round_ms", "ms"),
    ("cluster.node_busy_ms", "ms"),
    ("cluster.round_wait_ms", "ms"),
    ("cluster.bytes_per_round", "B"),
    ("cluster.demotions", "count"),
    ("cluster.respawns", "count"),
    ("cluster.delivered_frac", "ratio"),
    ("rscode.decode_ms", "ms"),
    ("rscode.interpolate_ms", "ms"),
    ("rscode.xgcd_ms", "ms"),
    ("rscode.reencode_ms", "ms"),
    ("rscode.erasures", "count"),
    ("rscode.errors", "count"),
    ("ff.crt_ms", "ms"),
    ("store.get_us", "us"),
    ("store.put_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("server.direct_hit_us", "us"),
    ("server.direct_verify_us", "us"),
    ("server.daemon_ms", "ms"),
    ("server.wire_us", "us"),
    ("server.coalesced_per_batch", "count"),
    ("server.worker_failures", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_pct", "%"),
];

/// Largest share of an operation's wall time that its traced spans may
/// leave unattributed (time in the benchmark's own glue between layer
/// calls), in percent.
pub const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

/// The workloads, by the names the command line and `BENCHMARK.json`
/// use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 6-clique counting on the in-process backend.
    Clique6,
    /// A wire-expressible polynomial on a faulted socket worker pool.
    PolyFaults,
    /// The daemon on loopback under a hit/miss/verify request mix.
    ServiceMix,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Clique6, Workload::PolyFaults, Workload::ServiceMix];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Clique6 => "clique6",
            Workload::PolyFaults => "poly-faults",
            Workload::ServiceMix => "service-mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem sizes: the full sizes the benchmark measures, or tiny ones
/// for the benchmark's own tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The measured shapes recorded in `BENCHMARK.json`.
    Full,
    /// Shapes small enough for a debug-build test.
    Tiny,
}

/// One run's settings.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Which workload.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: Duration,
    /// Traced (per-layer) run instead of the untraced end-to-end run.
    pub trace: bool,
    /// Problem sizes.
    pub size: Size,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured loop.
    pub attempted: u64,
    /// Operations that errored or returned a wrong answer.
    pub failed: u64,
    /// Metric values by name (units come from [`END_TO_END`] /
    /// [`PER_LAYER`]).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Recorded parameters and details, one `key=value` line each.
    pub notes: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Counts one attempted operation; returns `ok` so call sites can
    /// chain on it.
    pub fn tally(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Records a `key=value` note.
    pub fn note(&mut self, key: &str, value: impl std::fmt::Display) {
        self.notes.push(format!("{key}={value}"));
    }

    /// Records the median and tail of a latency sample set (milliseconds)
    /// as `<prefix>_p50_ms` and `<prefix>_tail_ms`, and notes the tail's
    /// percentile and sample counts.
    pub fn latency(
        &mut self,
        prefix: &'static str,
        p50: &'static str,
        tail: &'static str,
        ms: &[f64],
    ) {
        self.metrics.insert(p50, stats::median(ms));
        let t = stats::tail(ms);
        self.metrics.insert(tail, t.value);
        self.note(
            &format!("{prefix}_tail"),
            format_args!(
                "p{:.1} beyond={} per block, blocks={} n={}",
                t.percentile, t.beyond, t.blocks, t.n
            ),
        );
        self.note(&format!("{prefix}_quartiles_ms"), format_args!("{:?}", stats::quartiles(ms)));
    }

    /// Fraction of attempted operations that failed.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether every answer was right (and at least one was attempted).
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Runs one workload.
///
/// # Errors
///
/// A set-up failure (daemon or worker pool that cannot start) — never
/// a wrong answer, which is counted in [`Outcome::failed`] instead.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = match args.workload {
        Workload::Clique6 => engine_bench::run(&clique6::Clique6::new(args.size), args),
        Workload::PolyFaults => engine_bench::run(&poly_faults::PolyFaults::new(args.size), args),
        Workload::ServiceMix => service_mix::run(args),
    }?;
    outcome.note("workload", args.workload.name());
    outcome.note("seed", args.seed);
    outcome.note("seconds", args.seconds.as_secs_f64());
    outcome.note("trace", u8::from(args.trace));
    outcome.note("thread_budget", camelot_core::thread_budget());
    outcome.note("host_cores", sys::host_cores());
    outcome.note("fail_frac", outcome.fail_frac());
    if !args.trace {
        outcome.metrics.insert("peak_rss_mib", sys::peak_rss_mib());
    }
    Ok(outcome)
}

/// The metric table a run prints: [`PER_LAYER`] when traced,
/// [`END_TO_END`] otherwise.
#[must_use]
pub fn metric_table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Renders the human-readable lines and the final JSON result line.
///
/// # Errors
///
/// A metric of the table that the workload did not measure (a bug in
/// the benchmark, reported rather than printed as a made-up value).
pub fn render(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let mut text = String::new();
    for note in &outcome.notes {
        let _ = writeln!(text, "# {note}");
    }
    let mut json = String::new();
    for (i, (name, unit)) in metric_table(trace).iter().enumerate() {
        let value = *outcome
            .metrics
            .get(name)
            .ok_or_else(|| format!("workload did not measure metric {name}"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let _ = writeln!(text, "metric {name} {value} {unit}");
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(json, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    let _ = writeln!(
        text,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    Ok(text)
}
