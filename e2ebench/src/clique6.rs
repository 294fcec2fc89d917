//! `clique6`: 6-clique counting (Theorem 1 of the paper) on seeded
//! planted-clique graphs, on the default in-process backend with the
//! default prime schedule. Node evaluation (`cliques`/`linalg`) is the
//! largest share; decode runs clean at the production shape
//! `e = d + 1 + 2f`, which is not a power of two.

use crate::engine_bench::{Case, EngineWorkload, Rig};
use crate::{sys, Outcome, Size};
use camelot_cliques::KCliqueCount;
use camelot_core::{code_length, CamelotProblem, Engine, EngineConfig};
use camelot_ff::UBig;
use camelot_graph::{count_k_cliques, gen};
use camelot_store::cert_key;

/// Span name for building the clique evaluator.
pub const EVALUATOR_SPAN: &str = "cliques.evaluator";

/// Clique size.
const K: usize = 6;

/// The workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Clique6 {
    /// Graph vertices.
    pub vertices: usize,
    /// Random edges added beside the planted 6-clique.
    pub extra_edges: usize,
    /// Cluster nodes.
    pub nodes: usize,
    /// Fault budget `f`.
    pub fault_tolerance: usize,
    /// Warm-up iterations per set-up.
    pub warmup: usize,
}

impl Clique6 {
    /// The measured shape (`Full`) or a test-sized one (`Tiny`).
    #[must_use]
    pub fn new(size: Size) -> Self {
        match size {
            Size::Full => {
                Clique6 { vertices: 8, extra_edges: 8, nodes: 16, fault_tolerance: 4, warmup: 6 }
            }
            Size::Tiny => {
                Clique6 { vertices: 7, extra_edges: 3, nodes: 4, fault_tolerance: 1, warmup: 1 }
            }
        }
    }

    fn config(&self) -> EngineConfig {
        EngineConfig::auto(self.nodes, self.fault_tolerance)
    }
}

impl EngineWorkload for Clique6 {
    type P = KCliqueCount;
    const EVALUATOR_SPAN: &'static str = EVALUATOR_SPAN;

    fn rig(&self) -> Result<Rig, String> {
        let config = self.config();
        Ok(Rig {
            engine: Engine::new(config.clone()),
            transport: config.cluster.transport(),
            config,
            pool: None,
        })
    }

    fn case(&self, seed: u64, stream: u64, index: u64) -> Case<KCliqueCount> {
        let graph = gen::planted_clique(
            self.vertices,
            self.extra_edges,
            K,
            sys::derive(seed, stream, index),
        );
        let expected = UBig::from(count_k_cliques(&graph, K));
        let mut edges = Vec::with_capacity(graph.edges().len() * 2);
        for &(u, v) in graph.edges() {
            edges.extend_from_slice(&[u as u8, v as u8]);
        }
        let key = cert_key(&[b"clique6", &(self.vertices as u64).to_le_bytes(), &edges]);
        Case { problem: KCliqueCount::new(graph, K), expected, key }
    }

    fn warmup_iterations(&self) -> usize {
        self.warmup
    }

    fn redeems_per_prepare(&self) -> usize {
        1
    }

    fn notes(&self, out: &mut Outcome) {
        let config = self.config();
        let spec = self.case(0, 0, 0).problem.spec();
        let e = code_length(&spec, self.fault_tolerance);
        out.note(
            "problem",
            format_args!(
                "k-clique k={K} planted_clique(n={}, m_extra={})",
                self.vertices, self.extra_edges
            ),
        );
        out.note("nodes", self.nodes);
        out.note("f", self.fault_tolerance);
        out.note("d", spec.degree_bound);
        out.note("e", e);
        out.note("primes", format_args!("{:?}", config.primes_for(&spec, e)));
        out.note("schedule", format_args!("{:?}", config.prime_schedule));
        out.note(
            "backend",
            format_args!("{:?} parallel={}", config.cluster.backend, config.cluster.parallel),
        );
        out.note("verification_trials", config.verification_trials);
        out.note("warmup_iterations", self.warmup);
        out.note("redeems_per_prepare", self.redeems_per_prepare());
    }
}
