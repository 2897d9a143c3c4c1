//! The prefix-based parallel greedy maximal matching.
//!
//! The edge-side analogue of Algorithm 3, run over per-vertex priority
//! reservations. Each round takes the next prefix of edges in π order. An
//! edge with an endpoint already matched is out as the prefix arrives (the
//! lazy status update). The live edges are then resolved by parallel steps
//! of two passes each:
//!
//! 1. **reserve** — every live edge writes its π-position into the cell of
//!    each endpoint with an atomic `fetch_min`;
//! 2. **commit** — an edge that holds both of its cells is matched and marks
//!    both endpoints matched; every edge frees the cells it holds.
//!
//! The winners leave, and so do the losers with an endpoint a winner just
//! matched. Edges of earlier prefixes are all decided, so an edge holds both
//! cells exactly when every earlier edge sharing an endpoint has been
//! decided out: the sequential greedy condition. The matching is therefore
//! the sequential greedy one for every prefix size. The earliest live edge
//! always holds both cells, so every step makes progress. A cell keeps the
//! minimum position written to it whatever the order of the writes, so the
//! result and the counters are the same at every thread count.
//!
//! An edge attempt costs O(1): two reservations and two reads of its own
//! endpoints' cells, with no incidence-list scan. This is the implementation
//! benchmarked in Figure 2 and Figure 4 of the paper.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering::Relaxed};

use greedy_graph::edge_list::EdgeList;
use greedy_prims::permutation::Permutation;
use rayon::prelude::*;

use crate::mis::prefix::PrefixPolicy;
use crate::stats::WorkStats;

/// Cell value of a vertex that no edge reserves.
const FREE: u32 = u32::MAX;

/// Runs the prefix-based parallel greedy maximal matching. Returns the same
/// matching as [`crate::matching::sequential::sequential_matching`], as
/// sorted edge ids.
pub fn prefix_matching(edges: &EdgeList, pi: &Permutation, policy: PrefixPolicy) -> Vec<u32> {
    prefix_matching_with_stats(edges, pi, policy).0
}

/// Runs the prefix-based matching with counters:
/// * `rounds` — prefixes;
/// * `steps` — reserve/commit steps summed over prefixes;
/// * `vertex_work` — edge examinations: one for an edge that is out when its
///   prefix arrives, otherwise one per step the edge takes part in, so prefix
///   size 1 gives exactly m, like the sequential algorithm;
/// * `edge_work` — endpoint reservations: two per edge per step.
///
/// # Panics
/// Panics if `pi.len() != edges.num_edges()`.
pub fn prefix_matching_with_stats(
    edges: &EdgeList,
    pi: &Permutation,
    policy: PrefixPolicy,
) -> (Vec<u32>, WorkStats) {
    let m = edges.num_edges();
    assert_eq!(
        pi.len(),
        m,
        "prefix_matching: permutation covers {} elements but there are {} edges",
        pi.len(),
        m
    );
    assert!(
        m <= FREE as usize,
        "prefix_matching: {m} edges have positions that collide with FREE"
    );
    let order = pi.order();
    // The "maximum degree" knob of the adaptive policy is the maximum number
    // of edges adjacent to any single edge, bounded by twice the maximum
    // vertex degree. Only that policy reads it, and it costs a pass over the
    // edges.
    let max_edge_degree = match policy {
        PrefixPolicy::Adaptive { .. } => 2 * edges.max_degree() as usize,
        _ => 0,
    };
    let endpoints = |pos: u32| {
        let edge = edges.edge(order[pos as usize] as usize);
        (edge.u as usize, edge.v as usize)
    };

    // Between steps every cell is FREE. The passes are separated by the
    // joins that end each parallel call, and neither array publishes other
    // data, so relaxed accesses suffice.
    let cells: Vec<AtomicU32> = (0..edges.num_vertices())
        .map(|_| AtomicU32::new(FREE))
        .collect();
    let matched: Vec<AtomicBool> = (0..edges.num_vertices())
        .map(|_| AtomicBool::new(false))
        .collect();
    let is_out = |(u, v): (usize, usize)| matched[u].load(Relaxed) || matched[v].load(Relaxed);
    let mut in_matching = vec![false; m];
    let mut stats = WorkStats::new();
    let mut start = 0usize;

    while start < m {
        let k = policy.prefix_size(m, m - start, max_edge_degree, stats.rounds);
        stats.rounds += 1;
        // The live edges of the prefix, by π-position, each with whether it
        // won in the current step. The edges out are charged one examination
        // here; the live ones are charged per step below.
        let mut active: Vec<(u32, bool)> = (start as u32..(start + k) as u32)
            .into_par_iter()
            .filter(|&pos| !is_out(endpoints(pos)))
            .map(|pos| (pos, false))
            .collect();
        stats.vertex_work += (k - active.len()) as u64;

        while !active.is_empty() {
            stats.steps += 1;
            stats.vertex_work += active.len() as u64;
            stats.edge_work += 2 * active.len() as u64;

            active.par_iter().for_each(|&(pos, _)| {
                let (u, v) = endpoints(pos);
                cells[u].fetch_min(pos, Relaxed);
                cells[v].fetch_min(pos, Relaxed);
            });

            // Only a cell's holder writes it here, and it writes FREE, which
            // is no edge's position, so every outcome is fixed by the
            // reservations.
            active.par_iter_mut().for_each(|(pos, won)| {
                let (u, v) = endpoints(*pos);
                let holds_u = cells[u].load(Relaxed) == *pos;
                let holds_v = cells[v].load(Relaxed) == *pos;
                if holds_u {
                    cells[u].store(FREE, Relaxed);
                }
                if holds_v {
                    cells[v].store(FREE, Relaxed);
                }
                if holds_u && holds_v {
                    matched[u].store(true, Relaxed);
                    matched[v].store(true, Relaxed);
                    *won = true;
                }
            });

            // Drop the winners, and the losers whose endpoint a winner just
            // matched.
            let before = active.len();
            active.retain(|&(pos, won)| {
                if won {
                    in_matching[order[pos as usize] as usize] = true;
                }
                !won && !is_out(endpoints(pos))
            });
            assert!(
                active.len() < before,
                "prefix_matching: no progress within a prefix step"
            );
        }
        start += k;
    }

    let matching = (0..m as u32).filter(|&e| in_matching[e as usize]).collect();
    (matching, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::sequential::sequential_matching;
    use crate::matching::verify::verify_maximal_matching;
    use crate::ordering::{identity_permutation, random_edge_permutation};
    use greedy_graph::gen::random::random_edge_list;
    use greedy_graph::gen::rmat::{rmat_edge_list, RmatParams};
    use greedy_graph::gen::structured::{
        complete_edge_list, cycle_edge_list, grid_edge_list, path_edge_list, star_edge_list,
    };
    use greedy_graph::EdgeList;

    fn policies() -> Vec<PrefixPolicy> {
        vec![
            PrefixPolicy::Fixed(1),
            PrefixPolicy::Fixed(13),
            PrefixPolicy::Fixed(500),
            PrefixPolicy::FractionOfInput(0.01),
            PrefixPolicy::FractionOfInput(1.0),
            PrefixPolicy::FractionOfRemaining(0.3),
            PrefixPolicy::Adaptive { c: 4.0 },
            PrefixPolicy::default(),
        ]
    }

    #[test]
    fn empty_edge_list() {
        let el = EdgeList::empty(4);
        assert!(prefix_matching(&el, &identity_permutation(0), PrefixPolicy::default()).is_empty());
    }

    #[test]
    fn every_policy_matches_sequential_on_random_graph() {
        let el = random_edge_list(300, 1_200, 1);
        let pi = random_edge_permutation(el.num_edges(), 2);
        let expected = sequential_matching(&el, &pi);
        for policy in policies() {
            let mm = prefix_matching(&el, &pi, policy);
            assert_eq!(mm, expected, "policy {policy:?} diverged from sequential");
            assert!(verify_maximal_matching(&el, &mm));
        }
    }

    #[test]
    fn every_policy_matches_sequential_on_structured_graphs() {
        let lists: Vec<(&str, EdgeList)> = vec![
            ("path", path_edge_list(50)),
            ("cycle", cycle_edge_list(44)),
            ("star", star_edge_list(40)),
            ("complete", complete_edge_list(14)),
            ("grid", grid_edge_list(7, 8)),
        ];
        for (name, el) in lists {
            let pi = random_edge_permutation(el.num_edges(), 8);
            let expected = sequential_matching(&el, &pi);
            for policy in policies() {
                assert_eq!(
                    prefix_matching(&el, &pi, policy),
                    expected,
                    "policy {policy:?} diverged on {name}"
                );
            }
        }
    }

    #[test]
    fn every_policy_matches_sequential_on_reservation_edge_cases() {
        // Self-loops reserve one cell twice; parallel edges reserve the same
        // pair of cells; a star makes every edge contend for the hub; a path
        // in identity order has the longest possible dependence chain.
        let self_loops = EdgeList::from_pairs(
            6,
            [
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 2),
                (3, 3),
                (2, 3),
                (3, 4),
                (5, 5),
                (4, 5),
            ],
        );
        let parallel = EdgeList::from_pairs(5, (0..60u32).map(|i| (i % 4, i % 4 + 1)));
        let lists: Vec<(&str, EdgeList, Permutation)> = vec![
            ("self-loops", self_loops.clone(), identity_permutation(10)),
            ("self-loops", self_loops, random_edge_permutation(10, 3)),
            ("parallel", parallel.clone(), identity_permutation(60)),
            ("parallel", parallel, random_edge_permutation(60, 4)),
            ("star", star_edge_list(200), random_edge_permutation(199, 5)),
            (
                "identity path",
                path_edge_list(300),
                identity_permutation(299),
            ),
        ];
        for (name, el, pi) in lists {
            let expected = sequential_matching(&el, &pi);
            for policy in policies() {
                assert_eq!(
                    prefix_matching(&el, &pi, policy),
                    expected,
                    "policy {policy:?} diverged on {name}"
                );
            }
        }
    }

    #[test]
    fn work_per_edge_attempt_is_constant() {
        // Two reservations per examination, whatever the degrees: an
        // incidence-list scan would make edge work grow with them. At 2%
        // prefixes the work stays near serial (Figure 2(a)).
        let random = random_edge_list(20_000, 100_000, 11);
        let rmat = rmat_edge_list(14, 100_000, RmatParams::default(), 12);
        for (name, el) in [("random", random), ("rmat", rmat)] {
            let m = el.num_edges() as u64;
            let pi = random_edge_permutation(el.num_edges(), 13);
            let (_, stats) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::default());
            assert!(stats.vertex_work >= m, "{name}: {stats}");
            assert!(stats.edge_work <= 2 * stats.vertex_work, "{name}: {stats}");
            if name == "random" {
                assert!(10 * stats.vertex_work <= 11 * m, "{name}: {stats}");
            }
        }
    }

    #[test]
    fn matches_sequential_on_rmat() {
        let el = rmat_edge_list(9, 4_000, RmatParams::default(), 5);
        let pi = random_edge_permutation(el.num_edges(), 6);
        let expected = sequential_matching(&el, &pi);
        for policy in [
            PrefixPolicy::Fixed(128),
            PrefixPolicy::FractionOfInput(0.05),
        ] {
            assert_eq!(prefix_matching(&el, &pi, policy), expected);
        }
    }

    #[test]
    fn prefix_size_one_is_sequential_round_count() {
        let el = random_edge_list(200, 800, 3);
        let pi = random_edge_permutation(el.num_edges(), 4);
        let (_, stats) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(1));
        assert_eq!(stats.rounds, el.num_edges() as u64);
        assert_eq!(stats.vertex_work, el.num_edges() as u64);
    }

    #[test]
    fn full_prefix_has_one_round_and_few_steps() {
        let el = random_edge_list(600, 2_500, 5);
        let pi = random_edge_permutation(el.num_edges(), 6);
        let (_, stats) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::FractionOfInput(1.0));
        assert_eq!(stats.rounds, 1);
        assert!(stats.steps < 60, "steps = {}", stats.steps);
    }

    #[test]
    fn work_grows_and_rounds_shrink_with_prefix_size() {
        let el = random_edge_list(1_000, 4_000, 7);
        let pi = random_edge_permutation(el.num_edges(), 8);
        let (_, small) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(16));
        let (_, large) = prefix_matching_with_stats(&el, &pi, PrefixPolicy::Fixed(1_000));
        assert!(small.rounds > large.rounds);
        assert!(small.vertex_work <= large.vertex_work);
    }
}
