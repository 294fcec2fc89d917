//! `poly-faults`: a wire-expressible `ServicePoly` on a persistent
//! loopback socket pool with worker threads, demotion on, and a fixed
//! clock-free chaos plan — one `Garble` node (its symbols become
//! errors) and one `DropFrame` node (an erasure, and its lane respawns
//! every round). `f` is sized so both fit the decoding radius, so
//! error-and-erasure decode (`rscode`/`poly`) dominates. `Delay` and
//! `Hang` are left out on purpose: they would time the I/O deadline,
//! not the program.

use crate::engine_bench::{Case, EngineWorkload, Rig};
use crate::{sys, Outcome, Size};
use camelot_cluster::node_slice;
use camelot_core::{
    code_length, Backend, CamelotProblem, ChaosEffect, ChaosPlan, Engine, EngineConfig,
    PrimeSchedule, SocketTransport, TransportTuning, WorkerMode,
};
use camelot_ff::RngLike;
use camelot_server::{PolyRequest, ServicePoly};
use camelot_store::cert_key;
use std::sync::Arc;

/// The workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct PolyFaults {
    /// Degree `d` of the polynomial.
    pub degree: usize,
    /// Cluster nodes (one pool worker thread each).
    pub nodes: usize,
    /// Fault budget `f`.
    pub fault_tolerance: usize,
    /// The answer bound in bits (fixes the number of primes).
    pub value_bits: u64,
    /// The answer is `P(0) + … + P(sum_count - 1)`.
    pub sum_count: u64,
    /// Coefficients are below `2^coefficient_bits`.
    pub coefficient_bits: u32,
    /// Node whose frames are garbled.
    pub garble_node: usize,
    /// Node whose frames are dropped.
    pub drop_node: usize,
    /// Warm-up iterations per set-up.
    pub warmup: usize,
}

impl PolyFaults {
    /// The measured shape (`Full`) or a test-sized one (`Tiny`).
    #[must_use]
    pub fn new(size: Size) -> Self {
        let full = PolyFaults {
            degree: 1500,
            nodes: 8,
            fault_tolerance: 450,
            value_bits: 64,
            sum_count: 2,
            coefficient_bits: 32,
            garble_node: 1,
            drop_node: 2,
            warmup: 2,
        };
        match size {
            Size::Full => full,
            Size::Tiny => {
                PolyFaults { degree: 59, nodes: 4, fault_tolerance: 90, warmup: 1, ..full }
            }
        }
    }

    fn e(&self) -> usize {
        self.degree + 1 + 2 * self.fault_tolerance
    }

    fn chaos(&self) -> Result<ChaosPlan, String> {
        ChaosPlan::with_effects(
            self.nodes,
            &[
                (self.garble_node, ChaosEffect::Garble { seed: 0x006A_2B1E }),
                (self.drop_node, ChaosEffect::DropFrame),
            ],
        )
        .map_err(|e| e.to_string())
    }

    fn tuning() -> TransportTuning {
        TransportTuning::default().with_demotion(true)
    }

    fn config(&self) -> Result<EngineConfig, String> {
        Ok(EngineConfig::auto(self.nodes, self.fault_tolerance)
            .with_backend(Backend::Socket(WorkerMode::Threads))
            .with_tuning(Self::tuning())
            .with_chaos(self.chaos()?))
    }

    /// Both faulty nodes' symbols fit the radius: `2·errors + erasures
    /// ≤ e - d - 1`.
    fn fits_radius(&self) -> bool {
        let owned = |node| {
            let (lo, hi) = node_slice(self.e(), self.nodes, node);
            hi - lo
        };
        2 * owned(self.garble_node) + owned(self.drop_node) < self.e() - self.degree
    }
}

/// `Σ_{x < sum_count} P(x)` over the integers, computed without any
/// modular arithmetic.
///
/// # Panics
///
/// When the sum overflows `u128` (a workload shape bug).
#[must_use]
pub fn reference_sum(coefficients: &[u64], sum_count: u64) -> u128 {
    let mut total = 0u128;
    for x in 0..u128::from(sum_count) {
        let mut acc = 0u128;
        for &c in coefficients.iter().rev() {
            acc = acc
                .checked_mul(x)
                .and_then(|a| a.checked_add(u128::from(c)))
                .expect("sum fits u128");
        }
        total = total.checked_add(acc).expect("sum fits u128");
    }
    total
}

impl EngineWorkload for PolyFaults {
    type P = ServicePoly;
    const EVALUATOR_SPAN: &'static str = "server.evaluator";

    fn rig(&self) -> Result<Rig, String> {
        if !self.fits_radius() {
            return Err("poly-faults: the chaos plan exceeds the decoding radius".into());
        }
        let pool = SocketTransport::persistent(WorkerMode::Threads)
            .with_tuning(Self::tuning())
            .with_chaos(Some(self.chaos()?));
        let config = self.config()?;
        Ok(Rig {
            engine: Engine::with_transport(config.clone(), Arc::new(pool.clone())),
            transport: Box::new(pool.clone()),
            config,
            pool: Some(pool),
        })
    }

    fn case(&self, seed: u64, stream: u64, index: u64) -> Case<ServicePoly> {
        let mut rng = sys::rng(seed, stream, index);
        let shift = 64 - self.coefficient_bits;
        let coefficients: Vec<u64> = (0..=self.degree).map(|_| rng.next_u64() >> shift).collect();
        let expected = reference_sum(&coefficients, self.sum_count);
        assert!(expected < 1u128 << self.value_bits, "answer exceeds value_bits");
        let bytes: Vec<u8> = coefficients.iter().flat_map(|c| c.to_le_bytes()).collect();
        let key = cert_key(&[b"poly-faults", &bytes]);
        let request = PolyRequest {
            coefficients,
            sum_count: self.sum_count,
            value_bits: self.value_bits,
            min_modulus: 0,
            schedule: PrimeSchedule::Smallest,
        };
        Case { problem: ServicePoly(request), expected, key }
    }

    fn warmup_iterations(&self) -> usize {
        self.warmup
    }

    fn redeems_per_prepare(&self) -> usize {
        8
    }

    fn notes(&self, out: &mut Outcome) {
        let spec = self.case(0, 0, 0).problem.spec();
        let e = code_length(&spec, self.fault_tolerance);
        let primes = self.config().map(|c| c.primes_for(&spec, e)).unwrap_or_default();
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
        out.note("primes", format_args!("{primes:?}"));
        out.note("schedule", "Smallest");
        out.note("backend", "socket-pool workers=threads demotion=on");
        out.note(
            "chaos",
            format_args!("garble@node{} dropframe@node{}", self.garble_node, self.drop_node),
        );
        out.note("warmup_iterations", self.warmup);
        out.note("redeems_per_prepare", self.redeems_per_prepare());
    }
}
