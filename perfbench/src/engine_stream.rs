//! The in-process engine stream: mixed batches of 750 uniform inserts and 750
//! deletions sampled from the current graph, each applied with
//! `Engine::apply_batch` inside a thread pool.

use std::time::{Duration, Instant};

use greedy_core::prelude::{
    sequential_matching, sequential_mis, verify_maximal_matching, verify_mis,
};
use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_engine::priority::{edge_permutation, vertex_permutation};
use greedy_graph::edge_list::Edge;
use rayon::ThreadPool;

use crate::stats::{us, Rng};
use crate::trace::{SpanId, Tracer};
use crate::Checks;

pub const BATCH_INSERTS: usize = 750;
pub const BATCH_DELETES: usize = 750;

/// One timed `apply_batch` call.
#[derive(Debug, Clone, Copy)]
pub struct BatchSample {
    pub wall_us: f64,
    pub effective: u64,
    pub graph_us: f64,
    pub mm_repair_us: f64,
    pub mis_repair_us: f64,
    pub repack_us: f64,
    pub mis_decided: u64,
    pub mm_decided: u64,
    pub mis_flips: u64,
    pub mm_flips: u64,
    pub mis_rounds: u64,
    pub mm_rounds: u64,
    pub pages: u64,
}

impl BatchSample {
    /// `apply_batch` wall time the engine's four stage timers do not cover.
    pub fn untimed_us(&self) -> f64 {
        self.wall_us - (self.graph_us + self.mm_repair_us + self.mis_repair_us + self.repack_us)
    }
}

/// A mixed batch drawn from `rng`: uniform inserts plus deletions of edges
/// sampled from the engine's current graph (random vertex, random neighbor).
fn next_batch(engine: &Engine, rng: &mut Rng) -> EdgeBatch {
    let n = engine.num_vertices() as u64;
    let mut batch = EdgeBatch::new();
    for _ in 0..BATCH_INSERTS {
        let (u, v) = rng.pair(n);
        batch.insert(u, v);
    }
    for _ in 0..BATCH_DELETES {
        let x = rng.below(n) as u32;
        let adj = engine.graph().neighbors(x);
        if !adj.is_empty() {
            let w = adj[rng.below(adj.len() as u64) as usize];
            batch.delete(x, w);
        }
    }
    batch
}

/// Streams batches drawn from `rng` into `engine` inside `pool` until
/// `budget` is spent, making at least `min_batches` and at most
/// `max_batches` calls, and appends one sample per call to `out`. Batches
/// depend only on the stream's seed and the engine state, which is
/// thread-count independent, so two streams from the same engine and seed
/// apply identical batches.
#[allow(clippy::too_many_arguments)]
pub fn run(
    engine: &mut Engine,
    rng: &mut Rng,
    budget: Duration,
    min_batches: usize,
    max_batches: usize,
    pool: &ThreadPool,
    span_name: &'static str,
    tr: &Tracer,
    parent: SpanId,
    out: &mut Vec<BatchSample>,
) {
    let start = Instant::now();
    for made in 0..max_batches {
        if made >= min_batches && start.elapsed() >= budget {
            break;
        }
        let op = out.len() as u64;
        let (batch, _) = tr.time("bench.batch_gen", parent, op, |_| next_batch(engine, rng));
        let (report, d) = tr.time(span_name, parent, op, |_| {
            pool.install(|| engine.apply_batch(&batch))
        });
        let t = engine.last_batch_timings();
        out.push(BatchSample {
            wall_us: us(d),
            effective: (report.edges_inserted + report.edges_deleted) as u64,
            graph_us: t.graph_us as f64,
            mm_repair_us: t.matching_repair_us as f64,
            mis_repair_us: t.mis_repair_us as f64,
            repack_us: t.page_repack_us as f64,
            mis_decided: report.mis_repair.decided,
            mm_decided: report.matching_repair.decided,
            mis_flips: report.mis_repair.flips,
            mm_flips: report.matching_repair.flips,
            mis_rounds: report.mis_repair.rounds,
            mm_rounds: report.matching_repair.rounds,
            pages: engine.last_publication_pages() as u64,
        });
    }
}

/// Checks `engine`'s maintained MIS and matching against a from-scratch
/// sequential greedy run on its current graph, under its own priorities.
pub fn check_against_scratch(
    engine: &Engine,
    what: &str,
    tr: &Tracer,
    parent: SpanId,
    checks: &mut Checks,
) {
    let snap = engine.snapshot();
    let pi = vertex_permutation(engine.num_vertices(), engine.seed());
    let (expected_mis, _) = tr.time("core.sequential_mis", parent, 0, |_| {
        sequential_mis(&snap.graph, &pi)
    });
    checks.expect(
        snap.mis == expected_mis,
        &format!("{what}: MIS differs from greedy from scratch"),
    );
    checks.expect(
        verify_mis(&snap.graph, &snap.mis),
        &format!("{what}: MIS is not maximal independent"),
    );

    let el = snap.graph.to_edge_list();
    let pe = edge_permutation(engine.seed(), &el);
    let (ids, _) = tr.time("core.sequential_matching", parent, 0, |_| {
        sequential_matching(&el, &pe)
    });
    let mut expected: Vec<Edge> = ids.iter().map(|&id| el.edge(id as usize)).collect();
    expected.sort_unstable_by_key(|e| e.sort_key());
    checks.expect(
        snap.matching == expected,
        &format!("{what}: matching differs from greedy from scratch"),
    );
    checks.expect(
        verify_maximal_matching(&el, &ids),
        &format!("{what}: matching is not maximal"),
    );
}
