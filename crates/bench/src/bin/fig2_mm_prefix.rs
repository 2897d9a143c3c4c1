//! Experiment E2 — Figure 2 of the paper.
//!
//! Sweeps the prefix size of the prefix-based greedy maximal matching and
//! reports, for each prefix-size/input-size ratio:
//!   * total work / M        (Figure 2a / 2d)
//!   * number of rounds / M  (Figure 2b / 2e)
//!   * running time / M      (Figure 2c / 2f)
//!
//! `--graph random` regenerates Figure 2(a–c); `--graph rmat` regenerates
//! Figure 2(d–f).
//!
//! Expected shape (paper): work / M stays at 1 for small prefixes and grows
//! only once a prefix holds a sizeable share of the edges (about 1.3 at a
//! full prefix on the tiny random input), while rounds / M falls as
//! 1 / prefix size. Time falls with the rounds until the per-round cost is
//! amortized, then rises slowly with the work.

use greedy_bench::{
    prefix_fraction_sweep, print_csv_header, secs, time_best_of, ExperimentGraph, HarnessConfig,
};
use greedy_core::matching::prefix::prefix_matching_with_stats;
use greedy_core::matching::sequential::sequential_matching;
use greedy_core::mis::prefix::PrefixPolicy;
use greedy_core::mis::verify::verify_same_set;
use greedy_core::ordering::random_edge_permutation;

fn main() {
    let cfg = HarnessConfig::from_args();
    let input = ExperimentGraph::generate(cfg.kind, cfg.scale, cfg.seed);
    let m = input.num_edges();
    let pi = random_edge_permutation(m, cfg.seed.wrapping_add(2));

    if !cfg.csv_only {
        eprintln!(
            "# Figure 2 ({}) — MM prefix sweep: n = {}, m = {}, seed = {}",
            input.kind.name(),
            input.num_vertices(),
            m,
            cfg.seed
        );
    }
    print_csv_header(&[
        "graph",
        "prefix_fraction",
        "prefix_size",
        "work_per_m",
        "rounds_per_m",
        "time_seconds",
        "time_ns_per_edge",
        "matching_size",
    ]);

    let reference = sequential_matching(&input.edges, &pi);

    for fraction in prefix_fraction_sweep() {
        let prefix_size = ((fraction * m as f64).ceil() as usize).clamp(1, m.max(1));
        let policy = PrefixPolicy::Fixed(prefix_size);
        let (elapsed, (mm, stats)) = time_best_of(cfg.reps, || {
            prefix_matching_with_stats(&input.edges, &pi, policy)
        });
        assert!(
            verify_same_set(&mm, &reference),
            "prefix-based MM diverged from the sequential result at fraction {fraction}"
        );
        println!(
            "{},{:e},{},{:.4},{:.6e},{:.6},{:.1},{}",
            input.kind.name(),
            fraction,
            prefix_size,
            stats.work_per_element(m),
            stats.rounds_per_element(m),
            secs(elapsed),
            secs(elapsed) * 1e9 / m as f64,
            mm.len()
        );
    }
}
