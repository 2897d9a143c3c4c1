//! The run header: what a result can only be compared like-for-like on.

use std::fmt::Write;

use crate::engine_stream::{BATCH_DELETES, BATCH_INSERTS};
use crate::serve_durable::{QUERY_LIMIT, QUERY_RATE_PER_S, QUERY_VERTICES, WRITE_BATCH};
use crate::workload::{GraphSpec, Workload};

/// Size in bytes of the cpu0 cache at `level` (data or unified), read from
/// sysfs; 0 when the host does not expose it.
fn cache_bytes(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    let read = |index: usize, file: &str| {
        std::fs::read_to_string(format!("{base}/index{index}/{file}"))
            .map(|s| s.trim().to_string())
            .ok()
    };
    (0..8)
        .filter(|&i| read(i, "level").as_deref() == Some(level.to_string().as_str()))
        .filter(|&i| read(i, "type").as_deref() != Some("Instruction"))
        .filter_map(|i| read(i, "size"))
        .filter_map(|s| {
            let (digits, unit) =
                s.split_at(s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len()));
            let scale = match unit {
                "K" => 1 << 10,
                "M" => 1 << 20,
                "" => 1,
                _ => return None,
            };
            Some(digits.parse::<u64>().ok()? * scale)
        })
        .max()
        .unwrap_or(0)
}

/// `n`, `m`, and the input's working set: the CSR (offsets plus both arc
/// directions) and the edge list, before any algorithm's own arrays.
fn graph_json(spec: GraphSpec, edges: usize) -> String {
    let n = spec.n();
    let bytes = 8 * (n + 1) + 8 * edges + 8 * edges;
    format!("{{\"n\": {n}, \"m\": {edges}, \"working_set_bytes\": {bytes}}}")
}

/// The header as one JSON object. `edges` are the generated edge counts of
/// the static, engine, and serve graphs.
pub fn header_json(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
    edges: [usize; 3],
) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {threads}, \"pool_sizes\": [1, {threads}], \
         \"l2_bytes\": {}, \"l3_bytes\": {}, \
         \"static_graph\": {}, \"engine_graph\": {}, \"serve_graph\": {}, \
         \"engine_batch\": {{\"inserts\": {BATCH_INSERTS}, \"deletes\": {BATCH_DELETES}, \"pool\": {threads}}}, \
         \"wal_fsync\": \"per_round\", \
         \"writer\": {{\"loop\": \"closed\", \"connections\": 1, \"edges_per_request\": {WRITE_BATCH}}}, \
         \"reader\": {{\"loop\": \"open\", \"connections\": 1, \"rate_per_s\": {QUERY_RATE_PER_S}, \
         \"vertices_per_query\": {QUERY_VERTICES}, \"limit_ms\": {}}}}}",
        w.name,
        cache_bytes(2),
        cache_bytes(3),
        graph_json(w.static_graph, edges[0]),
        graph_json(w.engine_graph, edges[1]),
        graph_json(w.serve_graph, edges[2]),
        QUERY_LIMIT.as_millis(),
    );
    s
}
