//! Experiment E4 — Figure 4 of the paper.
//!
//! Running time versus thread count for the prefix-based maximal matching
//! against the sequential greedy matching (flat line).
//!
//! Expected shape (paper, 32 cores): the prefix-based algorithm overtakes the
//! sequential one at around 4 threads and reaches 21–24× speedup. Here both
//! do O(1) work per edge; at one thread the prefix-based matching takes about
//! twice the sequential time (0.07–0.10 s against 0.03–0.05 s on 5·10^5
//! vertices and 2.5·10^6 edges, 2-vCPU Xeon), so it needs a little over two
//! threads of real speedup to overtake it.

use greedy_bench::{
    print_csv_header, run_on_threads, secs, time_best_of, ExperimentGraph, HarnessConfig,
};
use greedy_core::matching::prefix::prefix_matching;
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::matching::verify::verify_maximal_matching;
use greedy_core::mis::prefix::PrefixPolicy;
use greedy_core::ordering::random_edge_permutation;

fn main() {
    let cfg = HarnessConfig::from_args();
    let input = ExperimentGraph::generate(cfg.kind, cfg.scale, cfg.seed);
    let m = input.num_edges();
    let pi = random_edge_permutation(m, cfg.seed.wrapping_add(2));
    let policy = PrefixPolicy::FractionOfInput(0.02);

    if !cfg.csv_only {
        eprintln!(
            "# Figure 4 ({}) — MM time vs threads: n = {}, m = {}, prefix = 2% of m",
            input.kind.name(),
            input.num_vertices(),
            m
        );
    }
    print_csv_header(&["graph", "threads", "prefix_based_seconds", "serial_seconds"]);

    let (serial_time, serial_mm) =
        time_best_of(cfg.reps, || sequential_matching(&input.edges, &pi));
    assert!(verify_maximal_matching(&input.edges, &serial_mm));

    for &threads in &cfg.threads {
        let prefix_time = run_on_threads(threads, || {
            let (pt, pmm) = time_best_of(cfg.reps, || prefix_matching(&input.edges, &pi, policy));
            assert_eq!(
                pmm, serial_mm,
                "prefix-based MM must equal the serial result"
            );
            pt
        });
        println!(
            "{},{},{:.6},{:.6}",
            input.kind.name(),
            threads,
            secs(prefix_time),
            secs(serial_time)
        );
    }
}
