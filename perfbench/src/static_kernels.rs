//! The paper's static experiment (Figures 3-4): serial greedy MIS and maximal
//! matching against the prefix-based kernels in a 1-thread and an N-thread
//! pool, on inputs whose permutations were built in set-up.

use greedy_core::matching::prefix::prefix_matching_with_stats;
use greedy_core::matching::sequential::sequential_matching_with_stats;
use greedy_core::mis::prefix::{prefix_mis_with_stats, PrefixPolicy};
use greedy_core::mis::sequential::sequential_mis_with_stats;
use greedy_core::prelude::{verify_maximal_matching, verify_mis, WorkStats};
use rayon::ThreadPool;

use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::workload::StaticInput;
use crate::Checks;

/// Per-kernel wall times (seconds, one per rep) and work counters.
#[derive(Debug, Default)]
pub struct StaticOut {
    pub mis_serial: Vec<f64>,
    pub mis_t1: Vec<f64>,
    pub mis_tn: Vec<f64>,
    pub mm_serial: Vec<f64>,
    pub mm_t1: Vec<f64>,
    pub mm_tn: Vec<f64>,
    pub mis_serial_stats: WorkStats,
    pub mis_prefix_stats: WorkStats,
    pub mm_serial_stats: WorkStats,
    pub mm_prefix_stats: WorkStats,
    /// Kernel calls made.
    pub calls: u64,
    /// The latest serial MIS and matching, verified once at the end.
    serial: Option<(Vec<u32>, Vec<u32>)>,
}

impl StaticOut {
    /// Prefix rounds, prefix-over-serial work, 1-thread µs per round, and
    /// t1/tN speedup, for MIS (`mm == false`) or matching.
    pub fn layer(&self, mm: bool) -> (f64, f64, f64, f64) {
        let (serial, prefix, t1, tn) = if mm {
            (
                &self.mm_serial_stats,
                &self.mm_prefix_stats,
                &self.mm_t1,
                &self.mm_tn,
            )
        } else {
            (
                &self.mis_serial_stats,
                &self.mis_prefix_stats,
                &self.mis_t1,
                &self.mis_tn,
            )
        };
        let rounds = prefix.rounds as f64;
        (
            rounds,
            crate::stats::ratio(prefix.total_work() as f64, serial.total_work() as f64),
            crate::stats::ratio(median(t1) * 1e6, rounds),
            crate::stats::ratio(median(t1), median(tn)),
        )
    }
}

/// Calls per round of the kernels that cost a tenth of `prefix_matching` or
/// less. Their single calls vary by up to a third within a run, so each
/// reports the median of twelve calls.
const SHORT_CALLS: usize = 3;

/// One round of the static kernels: serial MIS and matching and prefix MIS in
/// both pools, [`SHORT_CALLS`] times each, then prefix matching once in each
/// pool. Every prefix result is checked against serial greedy.
#[allow(clippy::too_many_arguments)]
pub fn round(
    input: &StaticInput,
    round: u64,
    pool_1: &ThreadPool,
    pool_n: &ThreadPool,
    tr: &Tracer,
    parent: SpanId,
    checks: &mut Checks,
    out: &mut StaticOut,
) {
    let policy = PrefixPolicy::default();
    let (g, edges) = (&input.graph, &input.edges);
    let (pv, pe) = (&input.vertex_perm, &input.edge_perm);

    let mut serial = None;
    for _ in 0..SHORT_CALLS {
        let ((mis, mis_stats), d) = tr.time("core.sequential_mis", parent, round, |_| {
            sequential_mis_with_stats(g, pv)
        });
        out.mis_serial.push(d.as_secs_f64());
        let ((mm, mm_stats), d) = tr.time("core.sequential_matching", parent, round, |_| {
            sequential_matching_with_stats(edges, pe)
        });
        out.mm_serial.push(d.as_secs_f64());
        out.mis_serial_stats = mis_stats;
        out.mm_serial_stats = mm_stats;

        for (pool, times) in [(pool_1, &mut out.mis_t1), (pool_n, &mut out.mis_tn)] {
            let ((p_mis, stats), d) = tr.time("core.prefix_mis", parent, round, |_| {
                pool.install(|| prefix_mis_with_stats(g, pv, policy))
            });
            times.push(d.as_secs_f64());
            checks.expect(p_mis == mis, "prefix_mis differs from sequential_mis");
            // Work counters are schedule-independent: the pools must agree.
            checks.expect(
                out.mis_prefix_stats.rounds == 0 || stats == out.mis_prefix_stats,
                "prefix_mis work counters differ across pools",
            );
            out.mis_prefix_stats = stats;
        }
        out.calls += 4;
        serial = Some((mis, mm));
    }
    let (mis, mm) = serial.expect("SHORT_CALLS is positive");

    for (pool, times) in [(pool_1, &mut out.mm_t1), (pool_n, &mut out.mm_tn)] {
        let ((p_mm, stats), d) = tr.time("core.prefix_matching", parent, round, |_| {
            pool.install(|| prefix_matching_with_stats(edges, pe, policy))
        });
        times.push(d.as_secs_f64());
        checks.expect(
            p_mm == mm,
            "prefix_matching differs from sequential_matching",
        );
        checks.expect(
            out.mm_prefix_stats.rounds == 0 || stats == out.mm_prefix_stats,
            "prefix_matching work counters differ across pools",
        );
        out.mm_prefix_stats = stats;
    }
    out.calls += 2;
    out.serial = Some((mis, mm));
}

/// Verifies the latest serial results as a maximal independent set and a
/// maximal matching.
pub fn verify(
    input: &StaticInput,
    out: &StaticOut,
    tr: &Tracer,
    parent: SpanId,
    checks: &mut Checks,
) {
    let Some((mis, mm)) = &out.serial else {
        return;
    };
    let (ok, _) = tr.time("core.verify_mis", parent, 0, |_| {
        verify_mis(&input.graph, mis)
    });
    checks.expect(ok, "sequential_mis result is not a maximal independent set");
    let (ok, _) = tr.time("core.verify_maximal_matching", parent, 0, |_| {
        verify_maximal_matching(&input.edges, mm)
    });
    checks.expect(ok, "sequential_matching result is not a maximal matching");
}
