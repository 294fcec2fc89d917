//! `Engine::run` and `Engine::redeem`, replayed one layer at a time
//! through public functions, with a span around every layer call:
//! `EngineConfig::primes_for` → `CamelotProblem::evaluator` →
//! `Transport::run` → `RsCode::decode_profiled` → `spot_check` →
//! `CamelotProblem::recover`.
//!
//! The replay follows the engine's single-problem path with its
//! default settings (all nodes honest, the lowest deciding node
//! decodes, no recovery policy), so its certificate must be
//! bit-identical to the one `Engine::run` returns for the same input;
//! the traced run checks that on every operation.

use crate::stats::median;
use crate::trace::{self, OpProfile, Tracer};
use crate::Outcome;
use camelot_cluster::{EvalProgram, FaultPlan, RoundEval, RoundSpec, Transport};
use camelot_core::{
    code_length, spot_check, CamelotProblem, Certificate, EngineConfig, Evaluate, PrimeProof,
    PrimeSchedule,
};
use camelot_ff::PrimeField;
use camelot_rscode::RsCode;
use std::collections::BTreeSet;
use std::time::Duration;

/// What one prime's round and decode did.
#[derive(Clone, Debug, Default)]
pub struct RoundFacts {
    /// The busiest node's evaluation time.
    pub busiest_node: Duration,
    /// Evaluation time summed over nodes.
    pub node_time: Duration,
    /// Evaluations summed over nodes.
    pub evaluations: usize,
    /// Payload bytes the round put on the wire.
    pub bytes: u64,
    /// Nodes the transport demoted to erasures.
    pub demotions: usize,
    /// Nodes in the round.
    pub nodes: usize,
    /// Erasures the decoder filled.
    pub erasures: usize,
    /// Errors the decoder corrected.
    pub errors: usize,
    /// Decoder sub-phases: interpolation, partial xgcd, re-encoding.
    pub interpolate: Duration,
    /// See [`RoundFacts::interpolate`].
    pub xgcd: Duration,
    /// See [`RoundFacts::interpolate`].
    pub reencode: Duration,
}

/// A replayed preparation.
#[derive(Clone, Debug)]
pub struct Prepared<O> {
    /// The recovered answer.
    pub output: O,
    /// The assembled certificate.
    pub certificate: Certificate,
    /// One entry per prime round.
    pub rounds: Vec<RoundFacts>,
}

/// A width-1 round over one evaluator, shipping its wire program when
/// it has one (process-spanning transports need it).
struct OneEval<'a>(&'a dyn Evaluate);

impl RoundEval for OneEval<'_> {
    fn width(&self) -> usize {
        1
    }

    fn eval(&self, _poly: usize, x: u64) -> u64 {
        self.0.eval(x)
    }

    fn programs(&self) -> Option<Vec<EvalProgram>> {
        self.0.program().map(|p| vec![p])
    }
}

/// Replays `Engine::run(problem)` for an engine configured as `config`
/// whose rounds run on `transport`. `evaluator_span` names the span
/// around `CamelotProblem::evaluator` after the crate that implements
/// the problem.
///
/// # Errors
///
/// Any layer failure, as text naming the layer.
pub fn prepare<P: CamelotProblem>(
    tr: &mut Tracer,
    config: &EngineConfig,
    transport: &dyn Transport,
    problem: &P,
    evaluator_span: &'static str,
) -> Result<Prepared<P::Output>, String> {
    let nodes = config.cluster.nodes;
    let span = tr.enter("core.prime_choice");
    let spec = problem.spec();
    let e = code_length(&spec, config.fault_tolerance);
    let primes = config.primes_for(&spec, e);
    tr.exit(span);
    let plan = config.plan.clone().unwrap_or_else(|| FaultPlan::all_honest(nodes));
    let honest: Vec<usize> = (0..nodes).filter(|&n| !plan.kind(n).is_faulty()).collect();

    let mut proofs = Vec::with_capacity(primes.len());
    let mut rounds = Vec::with_capacity(primes.len());
    let mut faulty = BTreeSet::new();
    let mut crashed = BTreeSet::new();
    for &q in &primes {
        let span = tr.enter("rscode.code");
        let field = PrimeField::new_unchecked(q);
        let code = match config.prime_schedule {
            PrimeSchedule::Smallest => RsCode::consecutive(&field, e),
            PrimeSchedule::NttFriendly => {
                RsCode::roots_of_unity(&field, e).unwrap_or_else(|| RsCode::consecutive(&field, e))
            }
        };
        tr.exit(span);

        let span = tr.enter(evaluator_span);
        let evaluator = problem.evaluator(&field);
        tr.exit(span);

        let span = tr.enter("cluster.round");
        let round_spec = RoundSpec { field: &field, points: code.points(), plan: &plan };
        let round = transport
            .run(&round_spec, &OneEval(evaluator.as_ref()))
            .map_err(|err| format!("cluster: {} backend: {err}", transport.name()))?;
        tr.exit(span);
        let broadcast = round.broadcasts.first().ok_or("cluster: round returned no broadcast")?;
        let decider = honest
            .iter()
            .copied()
            .find(|&n| !round.demotions.iter().any(|d| d.node == n))
            .ok_or("cluster: every honest node was demoted")?;

        let span = tr.enter("rscode.decode");
        let view = broadcast.view_for(decider);
        let (decoded, profile) = code
            .decode_profiled(&field, &view, spec.degree_bound)
            .map_err(|err| format!("rscode: decode mod {q} failed: {err:?}"))?;
        tr.exit(span);
        for &pos in &decoded.error_positions {
            faulty.insert(broadcast.assignment[pos]);
        }
        for &pos in &decoded.erasure_positions {
            crashed.insert(broadcast.assignment[pos]);
        }
        rounds.push(RoundFacts {
            busiest_node: broadcast.stats.iter().map(|s| s.elapsed).max().unwrap_or_default(),
            node_time: broadcast.stats.iter().map(|s| s.elapsed).sum(),
            evaluations: broadcast.total_evaluations(),
            bytes: round.traffic.bytes_on_wire,
            demotions: round.demotions.len(),
            nodes,
            erasures: decoded.erasure_positions.len(),
            errors: decoded.error_positions.len(),
            interpolate: profile.interpolate,
            xgcd: profile.xgcd,
            reencode: profile.reencode,
        });
        let proof = PrimeProof { modulus: q, coefficients: decoded.poly.into_coeffs() };

        check(tr, config, problem, &proof)?;
        proofs.push(proof);
    }

    let span = tr.enter("ff.crt");
    let output = problem.recover(&proofs).map_err(|err| format!("ff: recovery failed: {err}"))?;
    tr.exit(span);
    let certificate = Certificate {
        proofs,
        code_length: e,
        degree_bound: spec.degree_bound,
        identified_faulty_nodes: faulty.into_iter().collect(),
        crashed_nodes: crashed.into_iter().collect(),
    };
    Ok(Prepared { output, certificate, rounds })
}

/// Replays `Engine::redeem(problem, certificate)`: a spot check per
/// prime proof, then CRT recovery.
///
/// # Errors
///
/// A rejected spot check or a failed recovery.
pub fn redeem<P: CamelotProblem>(
    tr: &mut Tracer,
    config: &EngineConfig,
    problem: &P,
    certificate: &Certificate,
) -> Result<P::Output, String> {
    for proof in &certificate.proofs {
        check(tr, config, problem, proof)?;
    }
    let span = tr.enter("ff.crt");
    let output =
        problem.recover(&certificate.proofs).map_err(|err| format!("ff: recovery failed: {err}"));
    tr.exit(span);
    output
}

fn check<P: CamelotProblem>(
    tr: &mut Tracer,
    config: &EngineConfig,
    problem: &P,
    proof: &PrimeProof,
) -> Result<(), String> {
    let span = tr.enter("core.spot_check");
    let verdict = spot_check(problem, proof, config.verification_trials, config.seed);
    tr.exit(span);
    match verdict {
        Ok(v) if v.accepted => Ok(()),
        Ok(_) => Err(format!("core: spot check rejected the proof mod {}", proof.modulus)),
        Err(err) => Err(format!("core: spot check failed: {err}")),
    }
}

/// What a replayed prepare did that its spans do not carry.
#[derive(Clone, Debug)]
pub struct PrepareFacts {
    /// One entry per prime round.
    pub rounds: Vec<RoundFacts>,
    /// Time in `Transport::run` over all rounds, in milliseconds.
    pub round_ms: f64,
    /// Pool lanes respawned while the prepare ran.
    pub respawns: usize,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The per-layer metrics every traced workload shares, from its
/// replayed ops: `op.prepare` (with `facts`), `op.verify` (a redeem
/// replay), `op.hit` (a store lookup plus a redeem replay) and `op.put`.
/// `clique` marks a workload whose evaluator is the clique one; the
/// `cliques.*` metrics are 0 elsewhere.
pub fn layer_metrics(
    out: &mut Outcome,
    facts: &[PrepareFacts],
    profiles: &[OpProfile],
    trials: usize,
    clique: bool,
) {
    let med = |kind: &str, name: &str| trace::median_self_ms(profiles, kind, name);
    let per_op =
        |f: &dyn Fn(&PrepareFacts) -> f64| median(&facts.iter().map(f).collect::<Vec<_>>());
    let sum =
        |p: &PrepareFacts, f: &dyn Fn(&RoundFacts) -> f64| p.rounds.iter().map(f).sum::<f64>();
    let busiest = |p: &PrepareFacts| sum(p, &|r| ms(r.busiest_node));
    let m = &mut out.metrics;
    m.insert("core.primes", per_op(&|p| p.rounds.len() as f64));
    m.insert("core.prime_choice_ms", med("op.prepare", "core.prime_choice"));
    m.insert("core.spot_check_ms", med("op.verify", "core.spot_check"));
    m.insert("core.spot_trials", per_op(&|p| (p.rounds.len() * trials) as f64));
    let (build_ms, point_us) = if clique {
        let point_us = per_op(&|p| {
            sum(p, &|r| r.node_time.as_secs_f64() * 1e6)
                / sum(p, &|r| r.evaluations as f64).max(1.0)
        });
        (med("op.prepare", crate::clique6::EVALUATOR_SPAN), point_us)
    } else {
        (0.0, 0.0)
    };
    m.insert("cliques.evaluator_build_ms", build_ms);
    m.insert("cliques.eval_point_us", point_us);
    m.insert("cluster.round_ms", per_op(&|p| p.round_ms));
    m.insert("cluster.node_busy_ms", per_op(&busiest));
    m.insert("cluster.round_wait_ms", per_op(&|p| p.round_ms - busiest(p)));
    m.insert(
        "cluster.bytes_per_round",
        per_op(&|p| sum(p, &|r| r.bytes as f64) / p.rounds.len().max(1) as f64),
    );
    m.insert("cluster.demotions", per_op(&|p| sum(p, &|r| r.demotions as f64)));
    m.insert("cluster.respawns", per_op(&|p| p.respawns as f64));
    m.insert(
        "cluster.delivered_frac",
        per_op(&|p| 1.0 - sum(p, &|r| r.demotions as f64) / sum(p, &|r| r.nodes as f64).max(1.0)),
    );
    m.insert("rscode.decode_ms", med("op.prepare", "rscode.decode"));
    m.insert("rscode.interpolate_ms", per_op(&|p| sum(p, &|r| ms(r.interpolate))));
    m.insert("rscode.xgcd_ms", per_op(&|p| sum(p, &|r| ms(r.xgcd))));
    m.insert("rscode.reencode_ms", per_op(&|p| sum(p, &|r| ms(r.reencode))));
    m.insert("rscode.erasures", per_op(&|p| sum(p, &|r| r.erasures as f64)));
    m.insert("rscode.errors", per_op(&|p| sum(p, &|r| r.errors as f64)));
    m.insert("ff.crt_ms", med("op.prepare", "ff.crt"));
    m.insert("store.get_us", 1e3 * med("op.hit", "store.get"));
    m.insert("store.put_us", 1e3 * med("op.put", "store.put"));
    m.insert("trace.unattributed_pct", trace::unattributed_pct(profiles));
    out.notes.extend(trace::self_time_table(profiles));
}
