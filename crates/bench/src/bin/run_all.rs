//! Runs every experiment binary in sequence at the configured scale and
//! writes each one's CSV to `results/<experiment>_<graph>.csv`.
//!
//! This is the one-command regeneration path for EXPERIMENTS.md:
//!
//! ```text
//! cargo run --release -p greedy_bench --bin run_all -- --scale small
//! ```
//!
//! In `--quick` mode it additionally times fixed-size hot paths — among them
//! the parallel runtime's `join` and 4096-item `par_iter` sum,
//! random-permutation construction, edge-list → CSR build, and serial and
//! prefix-based greedy MIS and matching — and writes them to
//! `results/BENCH_quick.json`. CI uploads that file as an artifact on every
//! run, giving future PRs a perf trajectory to compare against. Adding
//! `--compare` diffs the fresh rows against the trajectory file's pre-run
//! contents (the committed baseline in CI) and prints a warning — never a
//! failure — for every throughput row that regressed by more than 25%.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use greedy_bench::{
    compare_quick_entries, engine_matching_heavy_batch, engine_mixed_batch, merge_quick_entries,
    read_quick_entries, run_on_threads, secs, time_best_of, HarnessConfig,
};
use greedy_core::matching::prefix::prefix_matching;
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::mis::prefix::{prefix_mis, PrefixPolicy};
use greedy_core::mis::sequential::sequential_mis;
use greedy_core::ordering::{random_edge_permutation, random_permutation};
use greedy_engine::prelude::{DynGraph, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::gen::random::{random_edge_list, random_graph};
use greedy_prims::permutation::par_random_permutation;
use greedy_prims::random::hash64;
use rayon::prelude::*;

fn main() {
    let cfg = HarnessConfig::from_args();
    let scale = cfg.scale.name();
    let out_dir = PathBuf::from("results");
    fs::create_dir_all(&out_dir).expect("cannot create results/ directory");

    // (binary, graphs to run it on)
    let experiments: &[(&str, &[&str])] = &[
        ("fig1_mis_prefix", &["random", "rmat"]),
        ("fig2_mm_prefix", &["random", "rmat"]),
        ("fig3_mis_threads", &["random", "rmat"]),
        ("fig4_mm_threads", &["random", "rmat"]),
        ("dependence_length", &["random"]),
        ("ablation_mis_impls", &["random", "rmat"]),
        ("ablation_grain_size", &["random"]),
    ];

    let exe_dir = std::env::current_exe()
        .expect("current_exe")
        .parent()
        .expect("exe dir")
        .to_path_buf();

    if cfg.quick {
        // `--compare` diffs the fresh rows against whatever the trajectory
        // file held *before* this run — in CI that is the committed
        // baseline — so snapshot it ahead of the merge.
        let baseline = cfg
            .compare
            .then(|| read_quick_entries(&out_dir.join("BENCH_quick.json")));
        write_quick_bench(&cfg, &out_dir);
        if let Some(baseline) = baseline {
            compare_against_baseline(&baseline, &out_dir);
        }
    }

    for (bin, graphs) in experiments {
        for graph in *graphs {
            let out_path = out_dir.join(format!("{bin}_{graph}.csv"));
            eprintln!(
                "== running {bin} --graph {graph} --scale {scale} -> {}",
                out_path.display()
            );
            let threads = cfg
                .threads
                .iter()
                .map(|t| t.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let output = Command::new(exe_dir.join(bin))
                .args([
                    "--graph",
                    graph,
                    "--scale",
                    scale,
                    "--seed",
                    &cfg.seed.to_string(),
                ])
                .args([
                    "--threads",
                    &threads,
                    "--reps",
                    &cfg.reps.to_string(),
                    "--csv",
                ])
                .output()
                .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
            if !output.status.success() {
                eprintln!(
                    "experiment {bin} ({graph}) failed:\n{}",
                    String::from_utf8_lossy(&output.stderr)
                );
                std::process::exit(1);
            }
            fs::write(&out_path, &output.stdout)
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", out_path.display()));
        }
    }
    eprintln!("all experiments written to {}", out_dir.display());
}

/// The `--compare` step: diff the freshly merged `BENCH_quick.json` rows
/// against the pre-merge snapshot and warn on >25% throughput regressions.
/// Warning only, never a failure: quick-mode numbers from a shared CI box
/// are too noisy for a hard gate, but the warning makes a persistent
/// regression visible in the job log while the uploaded artifact keeps the
/// exact rows for the trajectory.
fn compare_against_baseline(baseline: &[String], out_dir: &Path) {
    if baseline.is_empty() {
        eprintln!("== compare: no baseline rows to diff against, skipping");
        return;
    }
    let fresh = read_quick_entries(&out_dir.join("BENCH_quick.json"));
    let warnings = compare_quick_entries(baseline, &fresh, 25.0);
    if warnings.is_empty() {
        eprintln!(
            "== compare: no >25% throughput regressions across {} baseline rows",
            baseline.len()
        );
    } else {
        for w in &warnings {
            eprintln!("   PERF WARNING: {w}");
        }
        eprintln!(
            "== compare: {} row(s) regressed >25% vs the baseline (warning only)",
            warnings.len()
        );
    }
}

/// Median wall time of `calls` calls of `f`, in seconds.
fn median_call<T>(calls: usize, f: impl Fn() -> T) -> f64 {
    let mut times: Vec<f64> = (0..calls)
        .map(|_| {
            let start = std::time::Instant::now();
            std::hint::black_box(f());
            secs(start.elapsed())
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[calls / 2]
}

/// One timed entry of the quick-bench trajectory file.
struct QuickEntry {
    name: &'static str,
    threads: usize,
    n: usize,
    m: usize,
    seconds: f64,
}

/// Times the parallel runtime's fork/join cost (median of 2000 calls), the
/// permutation and CSR-build hot paths, serial and prefix-based
/// greedy MIS and matching, the batch-dynamic engine's mixed-batch and
/// matching-heavy update paths (1 thread and the machine's full
/// parallelism), and the flat-vs-nested membership-probe microbench, and
/// writes `results/BENCH_quick.json`.
///
/// Sizes are fixed (1M-element permutation, 100k/500k uniform graph, 1k-edge
/// engine batches, 1M membership probes) regardless of `--scale`, so the
/// numbers are comparable across runs and across PRs; at these sizes the
/// whole sweep takes a few seconds.
fn write_quick_bench(cfg: &HarnessConfig, out_dir: &Path) {
    const PERM_N: usize = 1_000_000;
    const CSR_N: usize = 100_000;
    const CSR_M: usize = 500_000;
    const ENGINE_BATCH: u64 = 1_000;
    const ENGINE_ROUNDS: u64 = 5;
    const RT_CALLS: usize = 2_000;
    let reps = cfg.reps.max(2);
    let edges = random_edge_list(CSR_N, CSR_M, cfg.seed);
    let edge_pi = random_edge_permutation(edges.num_edges(), cfg.seed.wrapping_add(2));
    let vertex_pi = random_permutation(CSR_N, cfg.seed.wrapping_add(3));
    let mut entries: Vec<QuickEntry> = Vec::new();
    for &threads in &cfg.threads {
        // Fork/join cost of the parallel runtime: an empty `join` and a
        // `par_iter().map().sum()` over 4096 items.
        let items: Vec<u64> = (0..4096).collect();
        let (join_time, sum_time) = run_on_threads(threads, || {
            (
                median_call(RT_CALLS, || {
                    let (a, b) = rayon::join(|| 1u64, || 2u64);
                    a + b
                }),
                median_call(RT_CALLS, || {
                    items.par_iter().map(|&x| x ^ 0x5555).sum::<u64>()
                }),
            )
        });
        for (name, n, seconds) in [
            ("rt_join", 0, join_time),
            ("rt_par_sum_4096", items.len(), sum_time),
        ] {
            entries.push(QuickEntry {
                name,
                threads,
                n,
                m: 0,
                seconds,
            });
        }
        let (perm_time, perm) = run_on_threads(threads, || {
            time_best_of(reps, || par_random_permutation(PERM_N, cfg.seed))
        });
        assert_eq!(perm.len(), PERM_N);
        entries.push(QuickEntry {
            name: "par_random_permutation",
            threads,
            n: PERM_N,
            m: 0,
            seconds: secs(perm_time),
        });
        let (csr_time, graph) = run_on_threads(threads, || {
            time_best_of(reps, || Graph::from_edge_list(&edges))
        });
        entries.push(QuickEntry {
            name: "csr_from_edge_list",
            threads,
            n: CSR_N,
            m: graph.num_edges(),
            seconds: secs(csr_time),
        });
        // The paper's kernels on the same graph: serial greedy and
        // prefix-based MIS and matching at the default 2% prefixes, which
        // must return the serial results.
        let (mis_serial_time, serial_mis) =
            time_best_of(reps, || sequential_mis(&graph, &vertex_pi));
        let (mis_prefix_time, parallel_mis) = run_on_threads(threads, || {
            time_best_of(reps, || {
                prefix_mis(&graph, &vertex_pi, PrefixPolicy::default())
            })
        });
        assert_eq!(parallel_mis, serial_mis, "prefix MIS differs from serial");
        let (mm_serial_time, serial_mm) =
            time_best_of(reps, || sequential_matching(&edges, &edge_pi));
        let (mm_prefix_time, prefix_mm) = run_on_threads(threads, || {
            time_best_of(reps, || {
                prefix_matching(&edges, &edge_pi, PrefixPolicy::default())
            })
        });
        assert_eq!(prefix_mm, serial_mm, "prefix matching differs from serial");
        for (name, m, seconds) in [
            ("paper_mis_serial", graph.num_edges(), mis_serial_time),
            ("paper_mis_prefix", graph.num_edges(), mis_prefix_time),
            ("paper_mm_serial", edges.num_edges(), mm_serial_time),
            ("paper_mm_prefix", edges.num_edges(), mm_prefix_time),
        ] {
            entries.push(QuickEntry {
                name,
                threads,
                n: CSR_N,
                m,
                seconds: secs(seconds),
            });
        }
        // Batch-dynamic engine: a *fixed* stream of mixed batches (1k hashed
        // inserts + 500 deletes sampled from the live graph) applied to a
        // maintained 100k/500k graph; reported as mean seconds per batch.
        // The stream is the same regardless of `--reps` (each batch mutates
        // the engine, so best-of over reps would compare different
        // workloads), keeping the entry comparable across runs and PRs.
        let (engine_time, engine_edges) = run_on_threads(threads, || {
            let base = random_graph(CSR_N, CSR_M, cfg.seed);
            let mut engine = Engine::from_graph(&base, cfg.seed);
            let start = std::time::Instant::now();
            for round in 1..=ENGINE_ROUNDS {
                let batch = engine_mixed_batch(&engine, round, ENGINE_BATCH, ENGINE_BATCH / 2);
                engine.apply_batch(&batch);
            }
            (start.elapsed() / ENGINE_ROUNDS as u32, engine.num_edges())
        });
        entries.push(QuickEntry {
            name: "engine_apply_batch_1500",
            threads,
            n: CSR_N,
            m: engine_edges,
            seconds: secs(engine_time),
        });
        // Matching-heavy stream: the deletions target currently *matched*
        // edges, so every batch drives the matching's round-machinery
        // repair (freed slots + reseeded neighborhoods) — this entry tracks
        // the matching path separately from the mixed-batch entry above.
        let (match_time, match_edges) = run_on_threads(threads, || {
            let base = random_graph(CSR_N, CSR_M, cfg.seed);
            let mut engine = Engine::from_graph(&base, cfg.seed);
            let start = std::time::Instant::now();
            for round in 1..=ENGINE_ROUNDS {
                let batch =
                    engine_matching_heavy_batch(&engine, round, ENGINE_BATCH, ENGINE_BATCH / 2);
                engine.apply_batch(&batch);
            }
            (start.elapsed() / ENGINE_ROUNDS as u32, engine.num_edges())
        });
        entries.push(QuickEntry {
            name: "engine_matching_repair_1500",
            threads,
            n: CSR_N,
            m: match_edges,
            seconds: secs(match_time),
        });
    }

    // Storage-layout microbench: the same random membership probes against
    // the engine's flat slack-CSR arena and against the old nested
    // `Vec<Vec<u32>>` layout. Sequential by design (a probe is one lookup),
    // so one entry each. Note the nested baseline is measured at its best —
    // freshly cloned, so its per-vertex buffers come out of the allocator
    // nearly contiguous; the flat arena's advantage is that its layout
    // cannot fragment as the graph churns, so the flat entry's trajectory
    // is the one that must stay flat over time.
    {
        const PROBES: u64 = 1_000_000;
        let graph = random_graph(CSR_N, CSR_M, cfg.seed);
        let flat = DynGraph::from_graph(&graph);
        let nested: Vec<Vec<u32>> = graph.to_adjacency_lists();
        let probe_pair = |i: u64| {
            (
                (hash64(cfg.seed ^ 0x9E0B, 2 * i) % CSR_N as u64) as u32,
                (hash64(cfg.seed ^ 0x9E0B, 2 * i + 1) % CSR_N as u64) as u32,
            )
        };
        let (flat_time, flat_hits) = time_best_of(reps, || {
            (0..PROBES)
                .filter(|&i| {
                    let (u, v) = probe_pair(i);
                    flat.has_edge(u, v)
                })
                .count()
        });
        let (nested_time, nested_hits) = time_best_of(reps, || {
            (0..PROBES)
                .filter(|&i| {
                    let (u, v) = probe_pair(i);
                    u != v && {
                        let (a, b) = if nested[u as usize].len() <= nested[v as usize].len() {
                            (u, v)
                        } else {
                            (v, u)
                        };
                        nested[a as usize].binary_search(&b).is_ok()
                    }
                })
                .count()
        });
        assert_eq!(flat_hits, nested_hits, "probe layouts disagree");
        entries.push(QuickEntry {
            name: "membership_probe_flat",
            threads: 1,
            n: CSR_N,
            m: graph.num_edges(),
            seconds: secs(flat_time),
        });
        entries.push(QuickEntry {
            name: "membership_probe_nested",
            threads: 1,
            n: CSR_N,
            m: graph.num_edges(),
            seconds: secs(nested_time),
        });
    }

    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "    {{\"name\": \"{}\", \"threads\": {}, \"n\": {}, \"m\": {}, \"seconds\": {:.9}}}",
                e.name, e.threads, e.n, e.m, e.seconds
            )
        })
        .collect();
    // Merge rather than rewrite: `serve_load` owns the `server_*` rows of
    // the same file, and neither binary may destroy the other's trajectory.
    let path = out_dir.join("BENCH_quick.json");
    merge_quick_entries(
        &path,
        cfg.seed,
        &[
            "par_random_permutation",
            "csr_from_edge_list",
            "engine_",
            "membership_probe",
            "paper_mis_",
            "paper_mm_",
            "rt_",
        ],
        "run_all",
        &rows,
    );
    eprintln!("quick perf trajectory written to {}", path.display());
    for e in &entries {
        eprintln!(
            "  {:>24} threads={:<2} {:>11.4} ms",
            e.name,
            e.threads,
            e.seconds * 1e3
        );
    }
}
