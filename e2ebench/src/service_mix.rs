//! `service-mix`: a `Service` behind `run_daemon` on loopback, driven
//! by closed-loop `request` clients (no more than the host has cores,
//! and at most two). Each client runs a seeded mix of repeat prepares
//! of a hot set (store hits), fresh prepares (misses: rounds on the
//! daemon's worker pool plus a store write) and `Verify` requests for
//! certificates it holds. Polynomials are small, so `server`, `store`
//! and the wire dominate while decode and evaluation are negligible;
//! writes run beside reads, so a change that helps one and hurts the
//! other shows.

use crate::engine_bench::SETUP_REPS;
use crate::poly_faults::reference_sum;
use crate::replay::{self, PrepareFacts};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{sys, Outcome, RunArgs, Size};
use camelot_core::{
    code_length, CamelotProblem, Certificate, EngineConfig, PrimeSchedule, SocketTransport,
    TransportTuning, WorkerMode,
};
use camelot_ff::RngLike;
use camelot_server::{
    read_frame, request, run_daemon, PolyRequest, Request, Response, Service, ServiceConfig,
    ServicePoly,
};
use camelot_store::{cert_key, CertKey, CertStore};
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Seed streams.
const HOT_STREAM: u64 = 10;
const WARMUP_STREAM: u64 = 20;
const MEASURED_STREAM: u64 = 30;
const TRACED_STREAM: u64 = 40;
/// Per-client offsets inside a stream family.
const MISS_OFFSET: u64 = 100;

/// The workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct ServiceMix {
    /// Degree `d` of every polynomial.
    pub degree: usize,
    /// Pool worker threads.
    pub nodes: usize,
    /// Fault budget `f`.
    pub fault_tolerance: usize,
    /// The answer bound in bits (fixes the number of primes).
    pub value_bits: u64,
    /// The answer is `P(0) + … + P(sum_count - 1)`.
    pub sum_count: u64,
    /// Coefficients are below `2^coefficient_bits`.
    pub coefficient_bits: u32,
    /// The daemon's admission window.
    pub batch_window: Duration,
    /// Certificates the daemon's store holds.
    pub store_capacity: usize,
    /// Hot-set size (prepared during set-up; smaller than the store).
    pub hot_set: usize,
    /// Percent of client ops that are repeat prepares of the hot set.
    pub hit_pct: u64,
    /// Percent of client ops that are fresh prepares (the rest verify).
    pub miss_pct: u64,
    /// Warm-up ops per client per set-up.
    pub warmup_ops: usize,
}

impl ServiceMix {
    /// The measured shape (`Full`) or a test-sized one (`Tiny`).
    #[must_use]
    pub fn new(size: Size) -> Self {
        let full = ServiceMix {
            degree: 63,
            nodes: 4,
            fault_tolerance: 8,
            value_bits: 64,
            sum_count: 2,
            coefficient_bits: 32,
            batch_window: Duration::from_millis(1),
            store_capacity: 4096,
            hot_set: 64,
            hit_pct: 50,
            miss_pct: 25,
            warmup_ops: 200,
        };
        match size {
            Size::Full => full,
            Size::Tiny => {
                ServiceMix { degree: 15, fault_tolerance: 2, hot_set: 8, warmup_ops: 10, ..full }
            }
        }
    }

    /// Load-generator threads: two, or fewer on a smaller host.
    #[must_use]
    pub fn clients() -> usize {
        sys::host_cores().clamp(1, 2)
    }

    fn service_config(&self) -> ServiceConfig {
        ServiceConfig {
            nodes: self.nodes,
            fault_tolerance: self.fault_tolerance,
            workers: WorkerMode::Threads,
            batch_window: self.batch_window,
            store_capacity: self.store_capacity,
            ..ServiceConfig::default()
        }
    }

    /// The engine configuration the service prepares with, for the
    /// replay.
    fn replay_config(&self) -> EngineConfig {
        let service = self.service_config();
        let mut config = EngineConfig::sequential(service.nodes, service.fault_tolerance);
        config.prime_schedule = service.schedule;
        config.verification_trials = service.verification_trials;
        config.seed = service.seed;
        config
    }

    fn poly(&self, seed: u64, stream: u64, index: u64) -> Item {
        let mut rng = sys::rng(seed, stream, index);
        let shift = 64 - self.coefficient_bits;
        let coefficients: Vec<u64> = (0..=self.degree).map(|_| rng.next_u64() >> shift).collect();
        let expected = reference_sum(&coefficients, self.sum_count);
        assert!(expected < 1u128 << self.value_bits, "answer exceeds value_bits");
        let bytes: Vec<u8> = coefficients.iter().flat_map(|c| c.to_le_bytes()).collect();
        let key = cert_key(&[b"service-mix", &bytes]);
        let poly = PolyRequest {
            coefficients,
            sum_count: self.sum_count,
            value_bits: self.value_bits,
            min_modulus: 0,
            schedule: PrimeSchedule::Smallest,
        };
        Item { poly, expected, key, certificate: String::new() }
    }

    fn notes(&self, out: &mut Outcome) {
        let spec = ServicePoly(self.poly(0, 0, 0).poly).spec();
        let e = code_length(&spec, self.fault_tolerance);
        let config = self.replay_config();
        out.note(
            "problem",
            format_args!(
                "service-poly sum_count={} coefficient_bits={} value_bits={}",
                self.sum_count, self.coefficient_bits, self.value_bits
            ),
        );
        out.note("nodes", self.nodes);
        out.note("f", self.fault_tolerance);
        out.note("d", spec.degree_bound);
        out.note("e", e);
        out.note("primes", format_args!("{:?}", config.primes_for(&spec, e)));
        out.note("schedule", "Smallest");
        out.note("backend", "daemon socket-pool workers=threads");
        out.note("batch_window_ms", self.batch_window.as_secs_f64() * 1e3);
        out.note("store_capacity", self.store_capacity);
        out.note("hot_set", self.hot_set);
        out.note("clients", Self::clients());
        out.note(
            "mix_pct",
            format_args!(
                "hit={} miss={} verify={}",
                self.hit_pct,
                self.miss_pct,
                100 - self.hit_pct - self.miss_pct
            ),
        );
        out.note("warmup_ops_per_client", self.warmup_ops);
    }
}

/// A polynomial with its reference answer, store key, and (once
/// prepared) certificate wire text.
#[derive(Clone, Debug)]
struct Item {
    poly: PolyRequest,
    expected: u128,
    key: CertKey,
    certificate: String,
}

/// A running daemon and what set-up prepared.
struct Daemon {
    service: Arc<Service>,
    addr: String,
    thread: JoinHandle<Result<(), String>>,
    hot: Arc<Vec<Item>>,
    max_node_evals: Vec<f64>,
}

impl Daemon {
    fn start(mix: &ServiceMix, seed: u64) -> Result<Daemon, String> {
        let service = Arc::new(Service::new(mix.service_config())?);
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
        let daemon_service = Arc::clone(&service);
        let thread = thread::spawn(move || run_daemon(&listener, &daemon_service));
        let mut hot = Vec::with_capacity(mix.hot_set);
        let mut max_node_evals = Vec::with_capacity(mix.hot_set);
        for i in 0..mix.hot_set as u64 {
            let mut item = mix.poly(seed, HOT_STREAM, i);
            let outcome = service.prepare(&item.poly).map_err(|e| format!("hot set: {e}"))?;
            if outcome.output != item.expected {
                return Err(format!(
                    "hot set answer {} != reference {}",
                    outcome.output, item.expected
                ));
            }
            max_node_evals.push(outcome.report.max_node_evaluations as f64);
            item.certificate = outcome.certificate.to_wire();
            hot.push(item);
        }
        Ok(Daemon { service, addr, thread, hot: Arc::new(hot), max_node_evals })
    }

    fn status(&self) -> Result<Response, String> {
        request(&self.addr, &Request::Status)
    }

    fn stop(self) -> Result<(), String> {
        let reply = request(&self.addr, &Request::Shutdown);
        let joined = self.thread.join().map_err(|_| "daemon thread panicked".to_string())?;
        reply?;
        joined
    }
}

/// When a client loop ends.
#[derive(Clone, Copy)]
enum Until {
    Ops(usize),
    Deadline(Instant),
}

/// One client's measurements.
#[derive(Default)]
struct ClientLog {
    prepare: Vec<f64>,
    verify: Vec<f64>,
    hit: Vec<f64>,
    coalesced: Vec<f64>,
    wire_kib: Vec<f64>,
    attempted: u64,
    failed: u64,
    unexpected: u64,
    errors: Vec<String>,
}

impl ClientLog {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 3 {
            self.errors.push(why);
        }
    }

    fn merge(&mut self, other: ClientLog) {
        self.prepare.extend(other.prepare);
        self.verify.extend(other.verify);
        self.hit.extend(other.hit);
        self.coalesced.extend(other.coalesced);
        self.wire_kib.extend(other.wire_kib);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.unexpected += other.unexpected;
        self.errors.extend(other.errors);
    }
}

/// The answer a response carries, if it is a success.
fn answer(response: &Result<Response, String>) -> Option<u128> {
    response.as_ref().ok().filter(|r| r.ok).and_then(|r| r.output)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A closed-loop client: the next request goes out when the previous
/// answer is in and checked.
fn client(
    mix: ServiceMix,
    addr: &str,
    hot: &[Item],
    seed: u64,
    stream: u64,
    id: u64,
    until: Until,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut choices = sys::rng(seed, stream, id);
    let (mut hits, mut misses, mut verifies) = (id as usize * hot.len() / 2, 0u64, id as usize);
    let mut op = 0usize;
    loop {
        match until {
            Until::Ops(n) if op >= n => break,
            Until::Deadline(t) if op > 0 && Instant::now() >= t => break,
            _ => {}
        }
        op += 1;
        log.attempted += 1;
        let draw = choices.next_u64() % 100;
        if draw < mix.hit_pct {
            let item = &hot[hits % hot.len()];
            hits += 1;
            let t = Instant::now();
            let response = request(addr, &Request::Prepare(item.poly.clone()));
            let took = ms(t.elapsed());
            match answer(&response) {
                Some(v) if v == item.expected => {
                    if response.is_ok_and(|r| r.cache_hit) {
                        log.hit.push(took);
                    } else {
                        log.unexpected += 1;
                    }
                }
                other => log.fail(format!("hit: {other:?} != {}", item.expected)),
            }
        } else if draw < mix.hit_pct + mix.miss_pct {
            let item = mix.poly(seed, stream + MISS_OFFSET + id, misses);
            misses += 1;
            let t = Instant::now();
            let response = request(addr, &Request::Prepare(item.poly.clone()));
            let took = ms(t.elapsed());
            match (answer(&response), response) {
                (Some(v), Ok(r)) if v == item.expected && !r.cache_hit => {
                    log.prepare.push(took);
                    let batch = r.coalesced.max(1) as f64;
                    log.coalesced.push(batch);
                    log.wire_kib.push(r.bytes as f64 / batch / 1024.0);
                }
                (Some(v), _) if v == item.expected => log.unexpected += 1,
                (other, _) => log.fail(format!("miss: {other:?} != {}", item.expected)),
            }
        } else {
            let item = &hot[verifies % hot.len()];
            verifies += 1;
            let verb =
                Request::Verify { poly: item.poly.clone(), certificate: item.certificate.clone() };
            let t = Instant::now();
            let response = request(addr, &verb);
            let took = ms(t.elapsed());
            match answer(&response) {
                Some(v) if v == item.expected => log.verify.push(took),
                other => log.fail(format!("verify: {other:?} != {}", item.expected)),
            }
        }
    }
    log
}

/// Runs every client to `until` on its own thread and merges their logs.
fn drive(
    mix: &ServiceMix,
    daemon: &Daemon,
    seed: u64,
    stream: u64,
    until: Until,
) -> Result<ClientLog, String> {
    let handles: Vec<_> = (0..ServiceMix::clients() as u64)
        .map(|id| {
            let (mix, addr, hot) = (*mix, daemon.addr.clone(), Arc::clone(&daemon.hot));
            thread::spawn(move || client(mix, &addr, &hot, seed, stream, id, until))
        })
        .collect();
    let mut log = ClientLog::default();
    for handle in handles {
        log.merge(handle.join().map_err(|_| "client thread panicked".to_string())?);
    }
    Ok(log)
}

/// Runs the workload.
///
/// # Errors
///
/// Set-up failures, including a wrong answer during set-up.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mix = ServiceMix::new(args.size);
    let mut out = Outcome::default();
    mix.notes(&mut out);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut daemon: Option<Daemon> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = daemon.take() {
            old.stop()?;
        }
        let started = if rep == 0 { sys::mark_process_start() } else { Instant::now() };
        let fresh = Daemon::start(&mix, args.seed)?;
        let warm = drive(
            &mix,
            &fresh,
            args.seed,
            WARMUP_STREAM + rep as u64 * 1000,
            Until::Ops(mix.warmup_ops),
        )?;
        if warm.failed > 0 {
            return Err(format!("warm-up: {} wrong answers: {:?}", warm.failed, warm.errors));
        }
        setups.push(started.elapsed().as_secs_f64());
        daemon = Some(fresh);
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    out.note("setup_reps_s", format_args!("{setups:?}"));

    let measured = if args.trace {
        traced(&mix, &daemon, args, &mut out)
    } else {
        untraced(&mix, &daemon, args, &mut out)
    };
    let status = daemon.status();
    daemon.stop()?;
    measured?;
    let status = status?;
    out.note("daemon_requests", status.requests);
    out.note("daemon_store_hits", status.store_hits);
    out.note("daemon_store_misses", status.store_misses);
    out.note("daemon_worker_failures", status.worker_failures);
    if args.trace {
        let lookups = (status.store_hits + status.store_misses).max(1) as f64;
        out.metrics.insert("store.hit_ratio", status.store_hits as f64 / lookups);
        out.metrics.insert("server.worker_failures", status.worker_failures as f64);
    } else {
        out.metrics.insert("setup_s", median(&setups));
    }
    Ok(out)
}

fn record(out: &mut Outcome, log: &ClientLog) {
    out.attempted += log.attempted;
    out.failed += log.failed;
    out.note("unexpected_cache_outcomes", log.unexpected);
    for err in &log.errors {
        out.note("error", err);
    }
}

fn untraced(
    mix: &ServiceMix,
    daemon: &Daemon,
    args: &RunArgs,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let log =
        drive(mix, daemon, args.seed, MEASURED_STREAM, Until::Deadline(started + args.seconds))?;
    let elapsed = started.elapsed().as_secs_f64();
    record(out, &log);
    out.latency("prepare", "prepare_p50_ms", "prepare_tail_ms", &log.prepare);
    out.latency("verify", "verify_p50_ms", "verify_tail_ms", &log.verify);
    out.latency("hit", "hit_p50_ms", "hit_tail_ms", &log.hit);
    let completed = (log.prepare.len() + log.verify.len() + log.hit.len()) as f64;
    out.metrics.insert("ops_per_s", completed / elapsed);
    out.metrics.insert("max_node_evals", median(&daemon.max_node_evals));
    out.metrics.insert("wire_kib_per_proof", median(&log.wire_kib));
    out.note("measured_s", elapsed);
    Ok(())
}

/// One request/response exchange with the daemon, split into the wire
/// encoding, the daemon round trip, and the wire decoding.
fn traced_exchange(tr: &mut Tracer, addr: &str, verb: &Request) -> Result<Response, String> {
    let frame = tr.leaf("server.wire", || verb.to_wire());
    let text = tr.leaf("server.daemon", || -> Result<String, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        writer
            .write_all(frame.as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| e.to_string())?;
        read_frame(&mut BufReader::new(stream))?.ok_or_else(|| "daemon hung up".to_string())
    })?;
    tr.leaf("server.wire", || Response::from_wire(&text))
}

/// The traced run: the first half of the time drives the same client
/// mix untraced (coalescing and the TCP hit latency), the second half
/// replays hits, misses and verifies one at a time with spans around
/// every layer call.
fn traced(
    mix: &ServiceMix,
    daemon: &Daemon,
    args: &RunArgs,
    out: &mut Outcome,
) -> Result<(), String> {
    let half = args.seconds / 2;
    let log =
        drive(mix, daemon, args.seed, MEASURED_STREAM, Until::Deadline(Instant::now() + half))?;
    record(out, &log);

    let config = mix.replay_config();
    let pool =
        SocketTransport::persistent(WorkerMode::Threads).with_tuning(TransportTuning::default());
    let mut tr = Tracer::new();
    let mut store = CertStore::in_memory(mix.store_capacity);
    let mut hot = Vec::with_capacity(daemon.hot.len());
    for item in daemon.hot.iter() {
        let cert = Certificate::from_wire(&item.certificate).map_err(|e| e.to_string())?;
        store.put(&item.key, &cert).map_err(|e| e.to_string())?;
        hot.push((item, cert));
    }
    let (mut tcp_hit, mut facts) = (Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let deadline = Instant::now() + (args.seconds - half);
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        let (item, cert) = &hot[i as usize % hot.len()];
        let problem = ServicePoly(item.poly.clone());
        i += 1;

        // Hit: the untraced client call (the overhead baseline), the
        // traced exchange, the direct in-process call, and the replay
        // of what the service does on a hit (store lookup + redeem).
        // The two alternate which goes first: a request sent right
        // after another waits out more of the daemon's accept-poll
        // sleep, and that must not read as tracing overhead.
        let verb = Request::Prepare(item.poly.clone());
        let mut plain = Err(String::new());
        let mut traced_reply = Err(String::new());
        for traced in [i.is_multiple_of(2), !i.is_multiple_of(2)] {
            if traced {
                let root = tr.enter("op.hit_tcp");
                traced_reply = traced_exchange(&mut tr, &daemon.addr, &verb);
                tr.exit(root);
            } else {
                let t = Instant::now();
                plain = request(&daemon.addr, &verb);
                tcp_hit.push(ms(t.elapsed()));
            }
        }
        let root = tr.enter("op.direct_hit");
        let direct = tr.leaf("server.direct_hit", || daemon.service.prepare(&item.poly));
        tr.exit(root);
        let root = tr.enter("op.hit");
        let cached = tr.leaf("store.get", || store.get(&item.key));
        let served = cached.as_ref().map(|c| replay::redeem(&mut tr, &config, &problem, c));
        tr.exit(root);
        out.tally(
            answer(&plain) == Some(item.expected) && answer(&traced_reply) == Some(item.expected),
        );
        out.tally(direct.is_ok_and(|o| o.output == item.expected && o.report.cache_hits == 1));
        out.tally(matches!(served, Some(Ok(v)) if v == item.expected));

        // Verify: the traced exchange, the direct call, and the redeem
        // replay.
        let verb =
            Request::Verify { poly: item.poly.clone(), certificate: item.certificate.clone() };
        let root = tr.enter("op.verify_tcp");
        let verified = traced_exchange(&mut tr, &daemon.addr, &verb);
        tr.exit(root);
        let root = tr.enter("op.direct_verify");
        let direct = tr
            .leaf("server.direct_verify", || daemon.service.verify(&item.poly, &item.certificate));
        tr.exit(root);
        let root = tr.enter("op.verify");
        let redeemed = replay::redeem(&mut tr, &config, &problem, cert);
        tr.exit(root);
        out.tally(answer(&verified) == Some(item.expected));
        out.tally(direct.is_ok_and(|o| o.output == item.expected));
        out.tally(redeemed.is_ok_and(|v| v == item.expected));

        // Miss: the daemon prepares a fresh polynomial; the replay must
        // produce the identical certificate.
        let fresh = mix.poly(args.seed, TRACED_STREAM, i);
        let response = request(&daemon.addr, &Request::Prepare(fresh.poly.clone()));
        let daemon_cert = response
            .as_ref()
            .ok()
            .and_then(|r| r.certificate.as_deref())
            .and_then(|text| Certificate::from_wire(text).ok());
        let respawns_before = pool.pool_respawns();
        let root = tr.enter("op.prepare");
        let replayed = replay::prepare(
            &mut tr,
            &config,
            &pool,
            &ServicePoly(fresh.poly.clone()),
            "server.evaluator",
        );
        tr.exit(root);
        let round_ms = tr.op_total_ms(root, "cluster.round");
        let respawns = pool.pool_respawns() - respawns_before;
        let replayed = match replayed {
            Ok(r) if r.output == fresh.expected && answer(&response) == Some(fresh.expected) => r,
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
        if daemon_cert.as_ref() != Some(&replayed.certificate) {
            mismatches += 1;
            out.tally(false);
            continue;
        }
        out.tally(true);
        let root = tr.enter("op.put");
        let put = tr.leaf("store.put", || store.put(&fresh.key, &replayed.certificate));
        tr.exit(root);
        put.map_err(|e| e.to_string())?;
        facts.push(PrepareFacts { rounds: replayed.rounds, round_ms, respawns });
    }
    pool.shutdown_pool().map_err(|e| format!("replay pool shutdown: {e}"))?;
    out.note("replay_mismatches", mismatches);

    let profiles = trace::profiles(tr.spans());
    replay::layer_metrics(out, &facts, &profiles, config.verification_trials, false);
    let wall = |kind: &str| {
        median(&profiles.iter().filter(|p| p.kind == kind).map(|p| p.wall_ms).collect::<Vec<_>>())
    };
    let direct_hit_ms = wall("op.direct_hit");
    let m = &mut out.metrics;
    m.insert("server.direct_hit_us", 1e3 * direct_hit_ms);
    m.insert("server.direct_verify_us", 1e3 * wall("op.direct_verify"));
    m.insert("server.daemon_ms", median(&log.hit) - direct_hit_ms);
    m.insert("server.wire_us", 1e3 * trace::median_self_ms(&profiles, "op.hit_tcp", "server.wire"));
    m.insert("server.coalesced_per_batch", crate::stats::mean(&log.coalesced));
    m.insert("trace.overhead_ratio", wall("op.hit_tcp") / median(&tcp_hit));
    out.spans = tr.into_spans();
    Ok(())
}
