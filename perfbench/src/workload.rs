//! The workloads: which graphs each phase runs on, and the timed set-up.
//!
//! Every workload runs all three phases (static kernels, in-process engine
//! stream, durable serving), because every run reports every end-to-end
//! metric. The workloads differ in the input the layers' costs depend on: the
//! degree distribution (uniform versus skewed rMat, the paper's two graph
//! families) at the sizes below.

use std::path::{Path, PathBuf};
use std::time::Duration;

use greedy_core::prelude::{random_edge_permutation, random_permutation, Permutation};
use greedy_engine::prelude::Engine;
use greedy_graph::csr::Graph;
use greedy_graph::edge_list::EdgeList;
use greedy_graph::gen::random::random_edge_list;
use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
use greedy_server::serve::{serve, ServerConfig, ServerHandle};
use greedy_server::wal::WalConfig;

use crate::trace::{SpanId, Tracer};

/// A graph family at a size.
#[derive(Debug, Clone, Copy)]
pub enum GraphSpec {
    /// `m` distinct uniform random edges on `n` vertices.
    Uniform { n: usize, m: usize },
    /// rMat with `2^log_n` vertices from `m` samples (PBBS parameters), so
    /// slightly fewer than `m` edges after self-loops and duplicates go.
    Rmat { log_n: u32, m: usize },
}

impl GraphSpec {
    pub fn n(&self) -> usize {
        match *self {
            GraphSpec::Uniform { n, .. } => n,
            GraphSpec::Rmat { log_n, .. } => 1 << log_n,
        }
    }

    fn generate(&self, seed: u64) -> EdgeList {
        match *self {
            GraphSpec::Uniform { n, m } => random_edge_list(n, m, seed),
            GraphSpec::Rmat { log_n, m } => rmat_edge_list(log_n, m, RmatParams::default(), seed),
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// The paper's Figures 3-4 input: prefix kernels against serial greedy.
    pub static_graph: GraphSpec,
    /// The graph `Engine::apply_batch` streams over in process.
    pub engine_graph: GraphSpec,
    /// The graph the durable server starts from.
    pub serve_graph: GraphSpec,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "uniform",
        static_graph: GraphSpec::Uniform {
            n: 500_000,
            m: 2_500_000,
        },
        engine_graph: GraphSpec::Uniform {
            n: 100_000,
            m: 500_000,
        },
        serve_graph: GraphSpec::Uniform {
            n: 100_000,
            m: 500_000,
        },
    },
    Workload {
        name: "rmat",
        static_graph: GraphSpec::Rmat {
            log_n: 19,
            m: 2_500_000,
        },
        engine_graph: GraphSpec::Rmat {
            log_n: 17,
            m: 500_000,
        },
        serve_graph: GraphSpec::Rmat {
            log_n: 17,
            m: 500_000,
        },
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Seeds of the independent input streams one `--seed` expands into.
#[derive(Debug, Clone, Copy)]
pub struct Seeds {
    pub static_graph: u64,
    pub vertex_perm: u64,
    pub edge_perm: u64,
    pub engine_graph: u64,
    pub engine_priority: u64,
    pub engine_batches: u64,
    pub serve_graph: u64,
    pub serve_priority: u64,
    pub serve_traffic: u64,
}

impl Seeds {
    pub fn from(seed: u64) -> Self {
        let mut rng = crate::stats::Rng::new(seed);
        Self {
            static_graph: rng.next_u64(),
            vertex_perm: rng.next_u64(),
            edge_perm: rng.next_u64(),
            engine_graph: rng.next_u64(),
            engine_priority: rng.next_u64(),
            engine_batches: rng.next_u64(),
            serve_graph: rng.next_u64(),
            serve_priority: rng.next_u64(),
            serve_traffic: rng.next_u64(),
        }
    }
}

/// The static kernels' inputs, permutations included.
pub struct StaticInput {
    pub edges: EdgeList,
    pub graph: Graph,
    pub vertex_perm: Permutation,
    pub edge_perm: Permutation,
}

/// A running durable server and the WAL directory it owns.
pub struct Server {
    pub handle: ServerHandle,
    pub wal_dir: PathBuf,
}

impl Server {
    /// Shuts the server down and removes its WAL directory.
    pub fn discard(self) {
        drop(self.handle);
        let _ = std::fs::remove_dir_all(&self.wal_dir);
    }
}

/// Everything the measured phases start from, apart from the server.
pub struct Inputs {
    pub static_input: StaticInput,
    /// The engine the in-process stream starts from (cloned per pass).
    pub engine: Engine,
    /// The pre-traffic engine a server is started from (cloned per server).
    pub serve_engine: Engine,
}

/// Per-layer set-up costs of one [`setup`] call, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub csr_build_s: f64,
    pub vertex_perm_s: f64,
    pub edge_perm_s: f64,
    pub engine_build_s: f64,
    pub server_start_s: f64,
}

fn graph(
    spec: GraphSpec,
    seed: u64,
    tr: &Tracer,
    parent: SpanId,
    times: &mut SetupTimes,
) -> (EdgeList, Graph) {
    let (edges, d) = tr.time("graph.generate", parent, 0, |_| spec.generate(seed));
    times.generate_s += d.as_secs_f64();
    let (g, d) = tr.time("graph.csr_build", parent, 0, |_| {
        Graph::from_edge_list(&edges)
    });
    times.csr_build_s += d.as_secs_f64();
    (edges, g)
}

/// Starts the durable server for `engine`: WAL on (fsync every round),
/// everything else the default `ServerConfig`.
pub fn start_server(
    engine: Engine,
    wal_dir: &Path,
    tr: &Tracer,
    parent: SpanId,
) -> std::io::Result<(Server, Duration)> {
    let config = ServerConfig {
        wal: Some(WalConfig::durable(wal_dir)),
        ..ServerConfig::default()
    };
    let (handle, d) = tr.time("server.start", parent, 0, |_| serve(engine, config));
    Ok((
        Server {
            handle: handle?,
            wal_dir: wal_dir.to_path_buf(),
        },
        d,
    ))
}

/// Builds every input of `w` from `seeds`, up to the first timed call.
pub fn setup(
    w: &Workload,
    seeds: &Seeds,
    wal_dir: &Path,
    tr: &Tracer,
    parent: SpanId,
) -> std::io::Result<(Inputs, Server, SetupTimes)> {
    let mut t = SetupTimes::default();

    let (edges, g) = graph(w.static_graph, seeds.static_graph, tr, parent, &mut t);
    let (vertex_perm, d) = tr.time("prims.vertex_perm", parent, 0, |_| {
        random_permutation(g.num_vertices(), seeds.vertex_perm)
    });
    t.vertex_perm_s = d.as_secs_f64();
    let (edge_perm, d) = tr.time("prims.edge_perm", parent, 0, |_| {
        random_edge_permutation(edges.num_edges(), seeds.edge_perm)
    });
    t.edge_perm_s = d.as_secs_f64();
    let static_input = StaticInput {
        edges,
        graph: g,
        vertex_perm,
        edge_perm,
    };

    let (_, g) = graph(w.engine_graph, seeds.engine_graph, tr, parent, &mut t);
    let (engine, d) = tr.time("engine.build", parent, 0, |_| {
        Engine::from_graph(&g, seeds.engine_priority)
    });
    t.engine_build_s = d.as_secs_f64();
    drop(g);

    let (_, g) = graph(w.serve_graph, seeds.serve_graph, tr, parent, &mut t);
    let (serve_engine, d) = tr.time("engine.build", parent, 0, |_| {
        Engine::from_graph(&g, seeds.serve_priority)
    });
    t.engine_build_s += d.as_secs_f64();
    drop(g);
    // Creating the WAL (its first checkpoint) is part of starting the server.
    let _ = std::fs::remove_dir_all(wal_dir);
    let (server, d) = start_server(serve_engine.clone(), wal_dir, tr, parent)?;
    t.server_start_s = d.as_secs_f64();

    Ok((
        Inputs {
            static_input,
            engine,
            serve_engine,
        },
        server,
        t,
    ))
}
