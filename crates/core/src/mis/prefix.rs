//! Algorithm 3: the prefix-based parallel greedy MIS.
//!
//! Instead of processing *all* remaining vertices each round (Algorithm 2),
//! each round processes only a prefix of the remaining vertices in priority
//! order, running the parallel greedy steps inside the prefix until it is
//! fully decided. Smaller prefixes do less redundant work (a prefix of one
//! vertex is exactly the sequential algorithm); larger prefixes expose more
//! parallelism. Whatever the prefix size, the returned MIS is identical to
//! the sequential one. This is the implementation the paper benchmarks
//! (Section 6).
//!
//! Every vertex has one state: Undecided, Live (undecided and in the current
//! prefix), In or Out. A round marks the prefix's undecided vertices Live;
//! those an earlier prefix knocked out are skipped (the lazy status update).
//! Each active vertex keeps a cursor into its adjacency list. The Live
//! vertices are then resolved by parallel steps of two passes each:
//!
//! 1. **decide** — every active vertex resumes its scan at its cursor,
//!    skipping neighbors that are not Live without looking up their rank. It
//!    stops at the first Live neighbor of smaller rank and saves the cursor
//!    there. A vertex whose scan reaches the end of its list wins.
//! 2. **knock out** — every winner marks its neighbors Out and itself In.
//!    The vertices still Live stay active.
//!
//! All vertices of earlier prefixes are decided, so an Undecided neighbor
//! belongs to a later prefix. A vertex therefore wins exactly when all its
//! earlier neighbors are Out: the sequential greedy condition. Winners are
//! never adjacent, and the earliest Live vertex always wins, so every step
//! makes progress. A skipped neighbor is either Out, which is final, or
//! later than the vertex, so a saved cursor stays valid and a scan reads
//! each adjacency entry once, plus one re-read of the neighbor it waits on
//! per step it waits. Within a step only the knock-out pass writes states,
//! so every decision depends only on the states at step boundaries: the MIS
//! and the counters are the same at every thread count.
//!
//! `edge_work` counts the adjacency entries read: the decide scans,
//! including each re-read of the neighbor a vertex waits on, plus the
//! winners' knock-out reads. The first term is at most `num_arcs` plus one
//! read per vertex examination and the second at most `num_arcs`, so
//! `edge_work ≤ 2 · num_arcs + vertex_work` for every prefix size.

use std::sync::atomic::{AtomicU8, Ordering::Relaxed};

use greedy_graph::csr::Graph;
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::stats::WorkStats;

/// Vertex states. Live marks the undecided vertices of the current prefix.
const UNDECIDED: u8 = 0;
const LIVE: u8 = 1;
const IN: u8 = 2;
const OUT: u8 = 3;

/// How the prefix size is chosen each round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefixPolicy {
    /// A fixed number of positions per round (the knob swept in Figures 1/2;
    /// `Fixed(1)` degenerates to the sequential algorithm).
    Fixed(usize),
    /// A fixed fraction of the *input* size per round.
    FractionOfInput(f64),
    /// A fixed fraction of the *remaining* vertices per round (the δ of
    /// Algorithm 3 in its literal form).
    FractionOfRemaining(f64),
    /// The analysis schedule of Corollary 3.2: in super-round `i` use a
    /// prefix of `c · 2^i · ln(n) / Δ` vertices, doubling as the maximum
    /// degree halves. `c` is the constant multiplier.
    Adaptive {
        /// Multiplier on the `2^i · ln(n)/Δ` schedule.
        c: f64,
    },
}

impl PrefixPolicy {
    /// The prefix size to use when `remaining` vertices are left, given the
    /// original input size `n` and the a-priori maximum degree `max_degree`.
    pub fn prefix_size(&self, n: usize, remaining: usize, max_degree: usize, round: u64) -> usize {
        let raw = match *self {
            PrefixPolicy::Fixed(k) => k,
            PrefixPolicy::FractionOfInput(f) => (f * n as f64).ceil() as usize,
            PrefixPolicy::FractionOfRemaining(f) => (f * remaining as f64).ceil() as usize,
            PrefixPolicy::Adaptive { c } => {
                let delta = max_degree.max(1) as f64;
                let ln_n = (n.max(2) as f64).ln();
                let factor = 2f64.powi(round.min(62) as i32);
                (c * factor * ln_n / delta).ceil() as usize
            }
        };
        raw.clamp(1, remaining)
    }
}

impl Default for PrefixPolicy {
    /// A prefix of n/50 per round: large enough to parallelize well, small
    /// enough to stay near the work-optimal region found in Figure 1(c).
    fn default() -> Self {
        PrefixPolicy::FractionOfInput(0.02)
    }
}

/// Runs the prefix-based parallel greedy MIS (Algorithm 3). Returns the
/// lexicographically-first MIS for π — the identical set to
/// [`crate::mis::sequential::sequential_mis`] for every policy.
pub fn prefix_mis(graph: &Graph, pi: &Permutation, policy: PrefixPolicy) -> Vec<u32> {
    prefix_mis_with_stats(graph, pi, policy).0
}

/// Runs the prefix-based parallel greedy MIS and reports work counters:
/// * `rounds` — prefixes processed;
/// * `steps` — decide/knock-out steps summed over prefixes;
/// * `vertex_work` — vertex examinations: one for a vertex already decided
///   when its prefix arrives, otherwise one per step it takes part in (so
///   prefix size 1 gives exactly n, like the sequential algorithm);
/// * `edge_work` — adjacency entries read: the decide scans, counting each
///   re-read of the neighbor a vertex waits on, plus the winners' knock-out
///   reads. It is at most `2 · num_arcs + vertex_work`, and exactly twice
///   the sequential algorithm's at prefix size 1.
///
/// # Panics
/// Panics if `pi.len() != graph.num_vertices()`.
pub fn prefix_mis_with_stats(
    graph: &Graph,
    pi: &Permutation,
    policy: PrefixPolicy,
) -> (Vec<u32>, WorkStats) {
    let n = graph.num_vertices();
    assert_eq!(
        pi.len(),
        n,
        "prefix_mis: permutation covers {} elements but the graph has {} vertices",
        pi.len(),
        n
    );
    // Only the adaptive policy reads the maximum degree, and it costs a pass
    // over the vertices.
    let max_degree = match policy {
        PrefixPolicy::Adaptive { .. } => graph.max_degree(),
        _ => 0,
    };
    let rank = pi.rank();
    let order = pi.order();

    // The passes are separated by the joins that end each parallel call, and
    // the states publish no other data, so relaxed accesses suffice.
    let state: Vec<AtomicU8> = (0..n).map(|_| AtomicU8::new(UNDECIDED)).collect();
    let mut stats = WorkStats::new();
    // `start` is the first position in π not yet covered by a prefix.
    let mut start = 0usize;

    while start < n {
        let k = policy.prefix_size(n, n - start, max_degree, stats.rounds);
        stats.rounds += 1;

        // The prefix's undecided vertices turn Live. An entry holds the
        // vertex's π-position, which is its rank, and its scan cursor. The
        // vertices already out are charged one examination here; the live
        // ones are charged per step below.
        let mut active: Vec<(u32, u32)> = (start as u32..(start + k) as u32)
            .into_par_iter()
            .filter_map(|pos| {
                let v = order[pos as usize] as usize;
                (state[v].load(Relaxed) == UNDECIDED).then(|| {
                    state[v].store(LIVE, Relaxed);
                    (pos, 0)
                })
            })
            .collect();
        stats.vertex_work += (k - active.len()) as u64;

        while !active.is_empty() {
            stats.steps += 1;
            stats.vertex_work += active.len() as u64;

            // Decide: advance each cursor to the first Live earlier
            // neighbor, or to the end of the list for a winner.
            stats.edge_work += active
                .par_iter_mut()
                .map(|(pos, cursor)| {
                    let neighbors = graph.neighbors(order[*pos as usize]);
                    let from = *cursor as usize;
                    let blocker = neighbors[from..].iter().position(|&w| {
                        state[w as usize].load(Relaxed) == LIVE && rank[w as usize] < *pos
                    });
                    let (to, read) = match blocker {
                        Some(i) => (from + i, i + 1),
                        None => (neighbors.len(), neighbors.len() - from),
                    };
                    *cursor = to as u32;
                    read as u64
                })
                .sum::<u64>();

            // Knock out: winners are pairwise non-adjacent and no neighbor of
            // a Live vertex is In, so every write here is some winner marking
            // a neighbor Out or a winner marking itself In. The stores are
            // unconditional: testing for Out first costs a branch miss per
            // neighbor. Walking the entries in reverse starts with the lists
            // the decide pass left in cache.
            active.reverse();
            stats.edge_work += active
                .par_iter()
                .map(|&(pos, cursor)| {
                    let v = order[pos as usize];
                    let neighbors = graph.neighbors(v);
                    if cursor as usize != neighbors.len() {
                        return 0;
                    }
                    for &w in neighbors {
                        state[w as usize].store(OUT, Relaxed);
                    }
                    state[v as usize].store(IN, Relaxed);
                    neighbors.len() as u64
                })
                .sum::<u64>();

            let before = active.len();
            active.retain(|&(pos, _)| state[order[pos as usize] as usize].load(Relaxed) == LIVE);
            assert!(
                active.len() < before,
                "prefix_mis: no progress within a prefix step"
            );
        }

        start += k;
    }

    // A branch-free compaction: the In test is a coin flip per vertex.
    let mut mis = vec![0u32; n];
    let mut len = 0;
    for (v, s) in state.into_iter().enumerate() {
        mis[len] = v as u32;
        len += (s.into_inner() == IN) as usize;
    }
    mis.truncate(len);
    mis.shrink_to_fit();
    (mis, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::sequential::{sequential_mis, sequential_mis_with_stats};
    use crate::mis::verify::verify_mis;
    use crate::ordering::{identity_permutation, random_permutation};
    use greedy_graph::gen::random::random_graph;
    use greedy_graph::gen::rmat::rmat_graph;
    use greedy_graph::gen::structured::{
        complete_graph, cycle_graph, grid_graph, path_graph, star_graph,
    };
    use greedy_graph::Graph;

    fn policies() -> Vec<PrefixPolicy> {
        vec![
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(7),
            PrefixPolicy::Fixed(100),
            PrefixPolicy::Fixed(usize::MAX / 2),
            PrefixPolicy::FractionOfInput(0.01),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::FractionOfRemaining(0.25),
            PrefixPolicy::Adaptive { c: 4.0 },
            PrefixPolicy::default(),
        ]
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        assert!(prefix_mis(&g, &identity_permutation(0), PrefixPolicy::default()).is_empty());
    }

    #[test]
    fn every_policy_matches_sequential_on_random_graph() {
        let g = random_graph(500, 2_000, 1);
        let pi = random_permutation(500, 2);
        let expected = sequential_mis(&g, &pi);
        for policy in policies() {
            let mis = prefix_mis(&g, &pi, policy);
            assert_eq!(mis, expected, "policy {policy:?} diverged from sequential");
            assert!(verify_mis(&g, &mis));
        }
    }

    #[test]
    fn every_policy_matches_sequential_on_structured_graphs() {
        let graphs: Vec<(&str, Graph)> = vec![
            ("path", path_graph(60)),
            ("cycle", cycle_graph(61)),
            ("star", star_graph(50)),
            ("complete", complete_graph(40)),
            ("grid", grid_graph(8, 9)),
        ];
        for (name, g) in graphs {
            let pi = random_permutation(g.num_vertices(), 11);
            let expected = sequential_mis(&g, &pi);
            for policy in policies() {
                assert_eq!(
                    prefix_mis(&g, &pi, policy),
                    expected,
                    "policy {policy:?} diverged on {name}"
                );
            }
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let g = rmat_graph(10, 6_000, 3);
        let pi = random_permutation(g.num_vertices(), 4);
        let expected = sequential_mis(&g, &pi);
        for policy in [PrefixPolicy::Fixed(64), PrefixPolicy::FractionOfInput(0.05)] {
            assert_eq!(prefix_mis(&g, &pi, policy), expected);
        }
    }

    #[test]
    fn prefix_size_one_is_the_sequential_algorithm() {
        let g = random_graph(300, 1_200, 5);
        let pi = random_permutation(300, 6);
        let (_, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(1));
        // One round per vertex and no redundant examinations: work equals the
        // input size exactly, as for the sequential algorithm (Figure 1a's
        // left endpoint).
        assert_eq!(stats.rounds, 300);
        assert_eq!(stats.vertex_work, 300);
        // Each accepted vertex reads its list twice, once to decide and once
        // to knock out its neighbors; the sequential loop reads it once.
        let (_, seq) = sequential_mis_with_stats(&g, &pi);
        assert_eq!(stats.edge_work, 2 * seq.edge_work);
    }

    #[test]
    fn scan_work_is_linear() {
        // A scan reads each adjacency entry once, plus one re-read per step a
        // vertex waits; the knock-out reads each winner's list once more.
        let graphs = [
            ("random", random_graph(10_000, 50_000, 7)),
            ("rmat", rmat_graph(14, 80_000, 3)),
        ];
        for (name, g) in graphs {
            let pi = random_permutation(g.num_vertices(), 8);
            for policy in [PrefixPolicy::default(), PrefixPolicy::FractionOfInput(1.0)] {
                let (_, stats) = prefix_mis_with_stats(&g, &pi, policy);
                let bound = 2 * g.num_arcs() as u64 + stats.vertex_work;
                assert!(
                    stats.edge_work <= bound,
                    "{name} under {policy:?}: edge_work {} > {bound}",
                    stats.edge_work
                );
            }
        }
    }

    #[test]
    fn long_chains_resume_their_scans() {
        // On a path in identity order each vertex waits on its left
        // neighbor, at the start of its list; in reversed order it waits on
        // its right neighbor, after skipping the left one. Either way the
        // full prefix takes one step per accepted vertex, and every waiting
        // vertex resumes its scan over many steps.
        let n = 2_001;
        let g = path_graph(n);
        let orders = [
            ("identity", identity_permutation(n)),
            (
                "reversed",
                Permutation::from_order((0..n as u32).rev().collect()),
            ),
        ];
        let pools: Vec<_> = [1, 3]
            .iter()
            .map(|&t| {
                rayon::ThreadPoolBuilder::new()
                    .num_threads(t)
                    .build()
                    .unwrap()
            })
            .collect();
        for (name, pi) in orders {
            let expected = sequential_mis(&g, &pi);
            assert_eq!(expected.len(), n.div_ceil(2));
            for policy in policies() {
                let runs: Vec<_> = pools
                    .iter()
                    .map(|pool| pool.install(|| prefix_mis_with_stats(&g, &pi, policy)))
                    .collect();
                let (mis, stats) = &runs[0];
                assert_eq!(mis, &expected, "policy {policy:?} diverged on {name}");
                assert_eq!(
                    runs[1], runs[0],
                    "policy {policy:?} on {name}: pools differ"
                );
                assert!(stats.edge_work <= 2 * g.num_arcs() as u64 + stats.vertex_work);
                if policy == PrefixPolicy::FractionOfInput(1.0) {
                    assert_eq!(stats.steps, n.div_ceil(2) as u64, "{name}");
                }
            }
        }
    }

    #[test]
    fn full_prefix_has_few_rounds() {
        let g = random_graph(1_000, 4_000, 7);
        let pi = random_permutation(1_000, 8);
        let (_, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::FractionOfInput(1.0));
        assert_eq!(stats.rounds, 1);
        // The single round's inner steps equal the dependence length, which
        // is small for random orders.
        assert!(stats.steps < 60, "steps = {}", stats.steps);
    }

    #[test]
    fn work_grows_and_rounds_shrink_with_prefix_size() {
        // The monotone tradeoff behind Figures 1(a) and 1(b).
        let g = random_graph(2_000, 8_000, 9);
        let pi = random_permutation(2_000, 10);
        let (_, small) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(16));
        let (_, large) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(1_000));
        assert!(small.rounds > large.rounds);
        assert!(small.vertex_work <= large.vertex_work);
    }

    #[test]
    fn policy_prefix_size_respects_bounds() {
        for policy in policies() {
            for remaining in [1usize, 5, 100, 10_000] {
                let k = policy.prefix_size(10_000, remaining, 17, 3);
                assert!(
                    k >= 1 && k <= remaining,
                    "policy {policy:?} gave k={k} for remaining={remaining}"
                );
            }
        }
    }

    #[test]
    fn adaptive_policy_grows_with_round() {
        let p = PrefixPolicy::Adaptive { c: 1.0 };
        let a = p.prefix_size(1_000_000, 1_000_000, 1_000, 0);
        let b = p.prefix_size(1_000_000, 1_000_000, 1_000, 12);
        assert!(
            b > a,
            "adaptive prefix should double each super-round ({a} vs {b})"
        );
    }

    #[test]
    fn edgeless_graph_takes_everything_in_one_round_per_prefix() {
        let g = Graph::empty(100);
        let pi = identity_permutation(100);
        let (mis, stats) = prefix_mis_with_stats(&g, &pi, PrefixPolicy::Fixed(10));
        assert_eq!(mis.len(), 100);
        assert_eq!(stats.rounds, 10);
        assert_eq!(stats.steps, 10);
    }
}
