//! The closed loop shared by the engine workloads (`clique6`,
//! `poly-faults`): one load-generator thread, and per iteration a
//! prepare of a fresh seeded input (`Engine::run`), a verify of the
//! fresh certificate (`Engine::redeem`), and a hit — the previous
//! input prepared again, served from a certificate store
//! (`CertStore::get` + `Engine::redeem`). Interleaving the three op
//! types in every iteration makes a drift in host speed hit them alike.

use crate::replay::{self, PrepareFacts};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{sys, Outcome, RunArgs};
use camelot_cluster::{SocketTransport, Transport};
use camelot_core::{CamelotProblem, Certificate, Engine, EngineConfig};
use camelot_store::{CertKey, CertStore};
use std::fmt::Debug;
use std::time::{Duration, Instant};

/// How many times a run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 3;

/// Certificates the hit path keeps (the hit always asks for the
/// previous input, so a small bound keeps memory flat over a run).
const STORE_CAPACITY: usize = 16;

/// Seed streams: warm-up inputs never repeat measured ones.
const WARMUP_STREAM: u64 = 1;
const MEASURED_STREAM: u64 = 2;

/// One input with its independently computed answer.
pub struct Case<P: CamelotProblem> {
    /// The problem.
    pub problem: P,
    /// The answer the benchmark computed without Camelot.
    pub expected: P::Output,
    /// The certificate store key of this input.
    pub key: CertKey,
}

/// An engine ready to run, the transport the replay shares with it,
/// and the worker pool behind both (if any).
pub struct Rig {
    /// The engine's configuration (the replay mirrors it).
    pub config: EngineConfig,
    /// The engine.
    pub engine: Engine,
    /// The transport rounds run on, for the replay.
    pub transport: Box<dyn Transport>,
    /// The persistent worker pool, when rounds run on one.
    pub pool: Option<SocketTransport>,
}

impl Rig {
    fn respawns(&self) -> usize {
        self.pool.as_ref().map_or(0, SocketTransport::pool_respawns)
    }

    fn shutdown(self) -> Result<(), String> {
        match self.pool {
            Some(pool) => pool.shutdown_pool().map_err(|e| format!("pool shutdown: {e}")),
            None => Ok(()),
        }
    }
}

/// A workload driven through the engine.
pub trait EngineWorkload {
    /// The problem family.
    type P: CamelotProblem<Output: PartialEq + Debug>;
    /// Name of the span around `CamelotProblem::evaluator`, after the
    /// crate implementing the problem.
    const EVALUATOR_SPAN: &'static str;
    /// Builds the engine (and starts its pool, if any).
    ///
    /// # Errors
    ///
    /// A pool that cannot start.
    fn rig(&self) -> Result<Rig, String>;
    /// Input `index` of seed stream `stream`.
    fn case(&self, seed: u64, stream: u64, index: u64) -> Case<Self::P>;
    /// Iterations of warm-up in each set-up.
    fn warmup_iterations(&self) -> usize;
    /// Verify/hit pairs per prepare: enough that the cheap op types
    /// gather tail samples when a prepare is slow.
    fn redeems_per_prepare(&self) -> usize;
    /// Records the workload's parameters.
    fn notes(&self, out: &mut Outcome);
}

/// Runs an engine workload, untraced or traced.
///
/// # Errors
///
/// Set-up failures, including a wrong answer during warm-up.
pub fn run<W: EngineWorkload>(w: &W, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    w.notes(&mut out);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = rig.take() {
            Rig::shutdown(old)?;
        }
        let started = if rep == 0 { sys::mark_process_start() } else { Instant::now() };
        let fresh = w.rig()?;
        warm_up(w, &fresh, args.seed)?;
        setups.push(started.elapsed().as_secs_f64());
        rig = Some(fresh);
    }
    let rig = rig.ok_or("no set-up ran")?;
    out.note("setup_reps_s", format_args!("{setups:?}"));
    let measured = if args.trace {
        traced(w, &rig, args, &mut out)
    } else {
        untraced(w, &rig, args, &mut out)
    };
    rig.shutdown()?;
    measured?;
    if !args.trace {
        out.metrics.insert("setup_s", median(&setups));
    }
    Ok(out)
}

fn warm_up<W: EngineWorkload>(w: &W, rig: &Rig, seed: u64) -> Result<(), String> {
    let mut store = CertStore::in_memory(STORE_CAPACITY);
    for i in 0..w.warmup_iterations() as u64 {
        let case = w.case(seed, WARMUP_STREAM, i);
        let prepared =
            rig.engine.run(&case.problem).map_err(|e| format!("warm-up prepare: {e}"))?;
        let redeemed = rig
            .engine
            .redeem(&case.problem, &prepared.certificate)
            .map_err(|e| format!("warm-up verify: {e}"))?;
        if prepared.output != case.expected || redeemed.output != case.expected {
            return Err(format!(
                "warm-up answer {:?} != reference {:?}",
                prepared.output, case.expected
            ));
        }
        store.put(&case.key, &prepared.certificate).map_err(|e| e.to_string())?;
        if store.get(&case.key).is_none() {
            return Err("warm-up: store lost a certificate".into());
        }
    }
    Ok(())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn untraced<W: EngineWorkload>(
    w: &W,
    rig: &Rig,
    args: &RunArgs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut store = CertStore::in_memory(STORE_CAPACITY);
    let (mut prepare, mut verify, mut hit) = (Vec::new(), Vec::new(), Vec::new());
    let (mut evals, mut wire) = (Vec::new(), Vec::new());
    let mut previous: Option<Case<W::P>> = None;
    let started = Instant::now();
    let deadline = started + args.seconds;
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        let case = w.case(args.seed, MEASURED_STREAM, i);
        i += 1;

        let t = Instant::now();
        let prepared = rig.engine.run(&case.problem);
        let took = t.elapsed();
        let Some(prepared) = prepared.ok().filter(|o| o.output == case.expected) else {
            out.tally(false);
            continue;
        };
        out.tally(true);
        prepare.push(ms(took));
        evals.push(prepared.report.max_node_evaluations as f64);
        wire.push(prepared.report.bytes_on_wire as f64 / 1024.0);
        let certificate = prepared.certificate;
        store.put(&case.key, &certificate).map_err(|e| e.to_string())?;

        let old = previous.as_ref().unwrap_or(&case);
        for _ in 0..w.redeems_per_prepare() {
            let t = Instant::now();
            let redeemed = rig.engine.redeem(&case.problem, &certificate);
            let took = t.elapsed();
            if out.tally(redeemed.is_ok_and(|o| o.output == case.expected)) {
                verify.push(ms(took));
            }

            let t = Instant::now();
            let served = store.get(&old.key).map(|cert| rig.engine.redeem(&old.problem, &cert));
            let took = t.elapsed();
            if out.tally(matches!(served, Some(Ok(o)) if o.output == old.expected)) {
                hit.push(ms(took));
            }
        }
        previous = Some(case);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let completed = (prepare.len() + verify.len() + hit.len()) as f64;
    out.latency("prepare", "prepare_p50_ms", "prepare_tail_ms", &prepare);
    out.latency("verify", "verify_p50_ms", "verify_tail_ms", &verify);
    out.latency("hit", "hit_p50_ms", "hit_tail_ms", &hit);
    out.metrics.insert("ops_per_s", completed / elapsed);
    out.metrics.insert("max_node_evals", median(&evals));
    out.metrics.insert("wire_kib_per_proof", median(&wire));
    out.note("measured_s", elapsed);
    Ok(())
}

fn traced<W: EngineWorkload>(
    w: &W,
    rig: &Rig,
    args: &RunArgs,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut store = CertStore::in_memory(STORE_CAPACITY);
    let mut untraced_ms = Vec::new();
    let mut facts: Vec<PrepareFacts> = Vec::new();
    let mut mismatches = 0u64;
    let mut previous: Option<(Case<W::P>, Certificate)> = None;
    let deadline = Instant::now() + args.seconds;
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        let case = w.case(args.seed, MEASURED_STREAM, i);
        i += 1;

        // The engine's own run: the bit-identity reference and the
        // untraced side of the tracing overhead.
        let t = Instant::now();
        let engine_run = rig.engine.run(&case.problem);
        untraced_ms.push(ms(t.elapsed()));
        let Some(reference) = engine_run.ok().filter(|o| o.output == case.expected) else {
            out.tally(false);
            continue;
        };

        let respawns_before = rig.respawns();
        let root = tr.enter("op.prepare");
        let replayed = replay::prepare(
            &mut tr,
            &rig.config,
            rig.transport.as_ref(),
            &case.problem,
            W::EVALUATOR_SPAN,
        );
        tr.exit(root);
        let round_ms = tr.op_total_ms(root, "cluster.round");
        let respawns = rig.respawns() - respawns_before;
        let replayed = match replayed {
            Ok(r) if r.output == case.expected => r,
            Ok(_) => {
                out.tally(false);
                continue;
            }
            Err(err) => {
                out.note("replay_error", err);
                out.tally(false);
                continue;
            }
        };
        if replayed.certificate != reference.certificate {
            mismatches += 1;
            out.tally(false);
            continue;
        }
        out.tally(true);
        facts.push(PrepareFacts { rounds: replayed.rounds, round_ms, respawns });
        let certificate = replayed.certificate;

        let root = tr.enter("op.put");
        let put = tr.leaf("store.put", || store.put(&case.key, &certificate));
        tr.exit(root);
        put.map_err(|e| e.to_string())?;

        let (old, old_cert) =
            previous.as_ref().map_or((&case, &certificate), |(c, cert)| (c, cert));
        for _ in 0..w.redeems_per_prepare() {
            let root = tr.enter("op.verify");
            let verified = replay::redeem(&mut tr, &rig.config, &case.problem, &certificate);
            tr.exit(root);
            out.tally(verified.is_ok_and(|o| o == case.expected));

            let root = tr.enter("op.hit");
            let cached = tr.leaf("store.get", || store.get(&old.key));
            let served = cached
                .as_ref()
                .map(|cert| replay::redeem(&mut tr, &rig.config, &old.problem, cert));
            tr.exit(root);
            out.tally(
                cached.as_ref() == Some(old_cert)
                    && matches!(served, Some(Ok(o)) if o == old.expected),
            );
        }
        previous = Some((case, certificate));
    }
    out.note("replay_mismatches", mismatches);

    let profiles = trace::profiles(tr.spans());
    let clique = W::EVALUATOR_SPAN == crate::clique6::EVALUATOR_SPAN;
    replay::layer_metrics(out, &facts, &profiles, rig.config.verification_trials, clique);
    let m = &mut out.metrics;
    let stats = store.stats();
    m.insert("store.hit_ratio", stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64);
    for name in [
        "server.direct_hit_us",
        "server.direct_verify_us",
        "server.daemon_ms",
        "server.wire_us",
        "server.coalesced_per_batch",
        "server.worker_failures",
    ] {
        m.insert(name, 0.0);
    }
    let replay_wall: Vec<f64> =
        profiles.iter().filter(|p| p.kind == "op.prepare").map(|p| p.wall_ms).collect();
    m.insert("trace.overhead_ratio", median(&replay_wall) / median(&untraced_ms));
    out.spans = tr.into_spans();
    Ok(())
}
