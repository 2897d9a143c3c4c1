//! Experiment E3 — Figure 3 of the paper.
//!
//! Running time versus thread count for three MIS implementations:
//! the prefix-based deterministic parallel greedy algorithm, Luby's
//! Algorithm A, and the optimized sequential greedy algorithm (flat line).
//!
//! Expected shape (paper, 32 cores): the prefix-based algorithm is 4–8×
//! faster than Luby at every thread count because it does less work, beats
//! the sequential algorithm with only a couple of threads, and scales to
//! 14–17× speedup; Luby needs many more threads to catch the sequential
//! implementation. Here the prefix-based algorithm takes ≈1.3× the
//! sequential time on one thread (≈1.35× on rMat; perfbench medians at
//! 5·10⁵ vertices / 2.5·10⁶ edges on a 2-vCPU Xeon), so it beats the
//! sequential algorithm once its speedup exceeds that factor.

use greedy_bench::{
    print_csv_header, run_on_threads, secs, time_best_of, ExperimentGraph, HarnessConfig,
};
use greedy_core::mis::luby::luby_mis;
use greedy_core::mis::prefix::{prefix_mis, PrefixPolicy};
use greedy_core::mis::sequential::sequential_mis;
use greedy_core::mis::verify::verify_mis;
use greedy_core::ordering::random_permutation;

fn main() {
    let cfg = HarnessConfig::from_args();
    let input = ExperimentGraph::generate(cfg.kind, cfg.scale, cfg.seed);
    let n = input.num_vertices();
    let pi = random_permutation(n, cfg.seed.wrapping_add(1));
    // The near-optimal prefix fraction found by the Figure 1 sweep.
    let policy = PrefixPolicy::FractionOfInput(0.02);

    if !cfg.csv_only {
        eprintln!(
            "# Figure 3 ({}) — MIS time vs threads: n = {}, m = {}, prefix = 2% of n",
            input.kind.name(),
            n,
            input.num_edges()
        );
    }
    print_csv_header(&[
        "graph",
        "threads",
        "prefix_based_seconds",
        "luby_seconds",
        "serial_seconds",
    ]);

    // The serial baseline does not depend on the pool size; measure it once.
    let (serial_time, serial_mis) = time_best_of(cfg.reps, || sequential_mis(&input.graph, &pi));
    assert!(verify_mis(&input.graph, &serial_mis));

    for &threads in &cfg.threads {
        let (prefix_time, luby_time) = run_on_threads(threads, || {
            let (pt, pmis) = time_best_of(cfg.reps, || prefix_mis(&input.graph, &pi, policy));
            assert_eq!(
                pmis, serial_mis,
                "prefix-based MIS must equal the serial result"
            );
            let (lt, lmis) = time_best_of(cfg.reps, || luby_mis(&input.graph, cfg.seed));
            assert!(verify_mis(&input.graph, &lmis));
            (pt, lt)
        });
        println!(
            "{},{},{:.6},{:.6},{:.6}",
            input.kind.name(),
            threads,
            secs(prefix_time),
            secs(luby_time),
            secs(serial_time)
        );
    }
}
