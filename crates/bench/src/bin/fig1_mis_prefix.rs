//! Experiment E1 — Figure 1 of the paper.
//!
//! Sweeps the prefix size of the prefix-based greedy MIS and reports, for
//! each prefix-size/input-size ratio:
//!   * total work / N        (Figure 1a / 1d)
//!   * number of rounds / N  (Figure 1b / 1e)
//!   * running time / N      (Figure 1c / 1f, here reported in ns per vertex)
//!
//! `--graph random` regenerates Figure 1(a–c); `--graph rmat` regenerates
//! Figure 1(d–f). The expected shapes: work/N rises from 1 toward ~1.3–1.5
//! at the full prefix, rounds/N falls from 1 toward ~1/N, and time/N is
//! U-shaped with an interior optimum. At the default 2% prefix on one
//! thread the kernel takes ≈1.3× the serial time on uniform graphs and
//! ≈1.35× on rMat (perfbench medians at 5·10⁵ vertices / 2.5·10⁶ edges on a
//! 2-vCPU Xeon).

use greedy_bench::{
    prefix_fraction_sweep, print_csv_header, secs, time_best_of, ExperimentGraph, HarnessConfig,
};
use greedy_core::mis::prefix::{prefix_mis_with_stats, PrefixPolicy};
use greedy_core::mis::sequential::sequential_mis;
use greedy_core::mis::verify::verify_same_set;
use greedy_core::ordering::random_permutation;

fn main() {
    let cfg = HarnessConfig::from_args();
    let input = ExperimentGraph::generate(cfg.kind, cfg.scale, cfg.seed);
    let n = input.num_vertices();
    let pi = random_permutation(n, cfg.seed.wrapping_add(1));

    if !cfg.csv_only {
        eprintln!(
            "# Figure 1 ({}) — MIS prefix sweep: n = {}, m = {}, seed = {}",
            input.kind.name(),
            n,
            input.num_edges(),
            cfg.seed
        );
    }
    print_csv_header(&[
        "graph",
        "prefix_fraction",
        "prefix_size",
        "work_per_n",
        "rounds_per_n",
        "time_seconds",
        "time_ns_per_vertex",
        "mis_size",
    ]);

    let reference = sequential_mis(&input.graph, &pi);

    for fraction in prefix_fraction_sweep() {
        let prefix_size = ((fraction * n as f64).ceil() as usize).clamp(1, n.max(1));
        let policy = PrefixPolicy::Fixed(prefix_size);
        let (elapsed, (mis, stats)) = time_best_of(cfg.reps, || {
            prefix_mis_with_stats(&input.graph, &pi, policy)
        });
        assert!(
            verify_same_set(&mis, &reference),
            "prefix-based MIS diverged from the sequential result at fraction {fraction}"
        );
        println!(
            "{},{:e},{},{:.4},{:.6e},{:.6},{:.1},{}",
            input.kind.name(),
            fraction,
            prefix_size,
            stats.work_per_element(n),
            stats.rounds_per_element(n),
            secs(elapsed),
            secs(elapsed) * 1e9 / n as f64,
            mis.len()
        );
    }
}
