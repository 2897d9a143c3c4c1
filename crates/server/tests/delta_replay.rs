//! The delta path's correctness spine: folding the per-round delta stream
//! over the round-0 snapshot must reproduce, byte for byte, every snapshot
//! the server published — at every rayon pool size, and end-to-end over a
//! real socket.

use std::thread;

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::gen::random::random_graph;
use greedy_prims::random::hash64;
use greedy_server::prelude::*;

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("failed to build rayon pool")
        .install(f)
}

/// 1, 2, 3, 7, and whatever this machine reports — the same sweep the
/// umbrella determinism suite uses.
fn sweep_threads() -> Vec<usize> {
    let machine = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = vec![1, 2, 3, 7, machine];
    t.sort_unstable();
    t.dedup();
    t
}

/// Drives a fresh engine through a deterministic 10-round update stream
/// (inserts + deletions drawn from present edges) and returns each round's
/// exact delta plus each round's published snapshot.
fn run_stream(threads: usize) -> (Vec<FullDelta>, Vec<greedy_engine::prelude::ServerSnapshot>) {
    in_pool(threads, || {
        let base = random_graph(2_000, 6_000, 41);
        let mut engine = Engine::from_graph(&base, 13);
        let mut deltas = Vec::new();
        let mut snapshots = vec![engine.server_snapshot()];
        for round in 1..=10u64 {
            let mut batch = EdgeBatch::new();
            for i in 0..60 {
                batch.insert(
                    (hash64(201, round * 1_000 + 2 * i) % 2_000) as u32,
                    (hash64(201, round * 1_000 + 2 * i + 1) % 2_000) as u32,
                );
            }
            for i in 0..25 {
                let x = (hash64(202, round * 1_000 + 2 * i) % 2_000) as u32;
                let adj = engine.graph().neighbors(x);
                if !adj.is_empty() {
                    let w =
                        adj[(hash64(202, round * 1_000 + 2 * i + 1) % adj.len() as u64) as usize];
                    batch.delete(x, w);
                }
            }
            let report = engine.apply_batch(&batch);
            deltas.push(FullDelta::from_report(round, &report));
            snapshots.push(engine.server_snapshot());
        }
        (deltas, snapshots)
    })
}

/// The property test the tentpole hangs on, swept across pool sizes: the
/// delta stream is schedule-independent, and folding it over round 0
/// re-derives every published snapshot byte for byte.
#[test]
fn folded_delta_stream_matches_snapshots_at_every_thread_count() {
    let (ref_deltas, ref_snapshots) = run_stream(1);
    assert!(
        ref_deltas.iter().any(|d| !d.match_flips.is_empty())
            && ref_deltas.iter().any(|d| !d.mis_flips.is_empty()),
        "the stream never flipped anything — the test is vacuous"
    );
    for threads in sweep_threads() {
        let (deltas, snapshots) = run_stream(threads);
        assert_eq!(
            deltas, ref_deltas,
            "delta stream changed with {threads} threads"
        );
        assert_eq!(
            snapshots, ref_snapshots,
            "snapshots changed with {threads} threads"
        );
        let mut replica = ReplicaState::from_snapshot(0, &snapshots[0]);
        for (delta, expected) in deltas.iter().zip(&snapshots[1..]) {
            let frame = delta.to_wire();
            assert!(!frame.truncated, "stream deltas must fit the wire");
            replica.fold(&frame).expect("contiguous stream must fold");
            assert_eq!(
                &replica.to_snapshot(),
                expected,
                "replica diverged at round {} with {threads} threads",
                delta.round
            );
        }
    }
}

/// Server-side version of the same property: every delta the round recorder
/// captured, folded over the pre-traffic snapshot, reproduces every
/// published snapshot — under concurrent writers over real sockets.
#[test]
fn recorded_delta_stream_refolds_every_published_snapshot() {
    let base = random_graph(1_500, 4_000, 17);
    let handle = serve(
        Engine::from_graph(&base, 29),
        ServerConfig {
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let round0 = handle.snapshot();
    assert_eq!(round0.round, 0);

    let writers: Vec<_> = (0..6u64)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..25u64 {
                    let a = (hash64(301, w * 1_000 + 2 * i) % 1_500) as u32;
                    let b = (hash64(301, w * 1_000 + 2 * i + 1) % 1_500) as u32;
                    if i % 4 == 3 {
                        client.delete_edges(&[(a, b)]).unwrap();
                    } else {
                        client.insert_edges(&[(a, b)]).unwrap();
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let report = handle.shutdown();
    assert!(!report.rounds.is_empty());

    let mut replica = ReplicaState::from_snapshot(0, &round0.state);
    for committed in &report.rounds {
        assert_eq!(
            committed.delta.round, committed.round,
            "recorded delta must be keyed by its round"
        );
        let frame = committed.delta.to_wire();
        assert!(!frame.truncated);
        replica.fold(&frame).expect("recorded stream must fold");
        assert_eq!(
            replica.to_snapshot(),
            committed.snapshot.state,
            "folded replica diverges from the published snapshot at round {}",
            committed.round
        );
        assert_eq!(
            replica.num_edges() as usize,
            committed.snapshot.state.num_edges()
        );
    }
    assert_eq!(
        replica.to_snapshot(),
        report.engine.server_snapshot(),
        "final folded state must equal the final engine state"
    );
}

/// The sharded tentpole's serving-layer acceptance sweep: a server driven by
/// the vertex-partitioned engine at S ∈ {1, 2, 3, 7} publishes byte-identical
/// snapshots, emits a byte-identical recorded delta stream, and writes
/// byte-identical WAL files (round records *and* checkpoints) compared to the
/// single-arena engine over the same committed rounds. One sequential writer
/// pins the round boundaries: each submit blocks until its round commits, so
/// round k holds exactly call k's updates in every run.
#[test]
fn sharded_server_rounds_match_single_engine_byte_for_byte() {
    use greedy_engine::prelude::{ServerSnapshot, ShardedEngine};
    use greedy_server::wal::{FsyncPolicy, WalConfig};

    let base = random_graph(1_200, 3_500, 53);
    let config = |dir: std::path::PathBuf| ServerConfig {
        record_rounds: true,
        wal: Some(WalConfig {
            dir,
            fsync: FsyncPolicy::Off,
            segment_rounds: 3,
            checkpoint_every: 4,
            retain_all: false,
        }),
        ..ServerConfig::default()
    };
    let scratch = |shards: usize| {
        let dir = std::env::temp_dir().join(format!(
            "greedy_shard_sweep_s{}_{}",
            shards,
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // Drives one server through 10 deterministic single-writer rounds and
    // returns (per-round published snapshots, wire delta stream, final
    // stats reply, WAL directory bytes keyed by file name).
    type WalFiles = Vec<(String, Vec<u8>)>;
    let run = |handle: ServerHandle<ShardedEngine>,
               dir: std::path::PathBuf|
     -> (Vec<ServerSnapshot>, Vec<DeltaFrame>, StatsReply, WalFiles) {
        let mut client = Client::connect(handle.addr()).unwrap();
        for round in 1..=10u64 {
            let mut inserts = Vec::new();
            let mut deletes = Vec::new();
            for i in 0..40 {
                inserts.push((
                    (hash64(501, round * 1_000 + 2 * i) % 1_200) as u32,
                    (hash64(501, round * 1_000 + 2 * i + 1) % 1_200) as u32,
                ));
            }
            for i in 0..15 {
                deletes.push((
                    (hash64(502, round * 1_000 + 2 * i) % 1_200) as u32,
                    (hash64(502, round * 1_000 + 2 * i + 1) % 1_200) as u32,
                ));
            }
            client.insert_edges(&inserts).unwrap();
            client.delete_edges(&deletes).unwrap();
        }
        let stats = client.stats().unwrap();
        drop(client);
        let report = handle.shutdown();
        let snapshots: Vec<ServerSnapshot> = report
            .rounds
            .iter()
            .map(|c| c.snapshot.state.clone())
            .collect();
        let deltas: Vec<DeltaFrame> = report.rounds.iter().map(|c| c.delta.to_wire()).collect();
        let mut files: WalFiles = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        files.sort();
        let _ = std::fs::remove_dir_all(&dir);
        (snapshots, deltas, stats, files)
    };

    let ref_dir = scratch(1);
    let handle = serve(
        ShardedEngine::from_graph(&base, 31, 1),
        config(ref_dir.clone()),
    )
    .unwrap();
    let (ref_snapshots, ref_deltas, ref_stats, ref_files) = run(handle, ref_dir);
    assert_eq!(ref_snapshots.len(), 20, "one round per client call");
    assert_eq!(ref_stats.shards, 1);
    // One shard owns every update, so the high-water mark is the largest
    // sub-batch a round ever staged — the 40-insert calls.
    assert_eq!(ref_stats.max_shard_staged, 40);
    assert!(
        ref_files.iter().any(|(n, _)| n.contains("checkpoint")),
        "the cadence must have written a mid-stream checkpoint"
    );

    for shards in [2usize, 3, 7] {
        let dir = scratch(shards);
        let handle = serve(
            ShardedEngine::from_graph(&base, 31, shards),
            config(dir.clone()),
        )
        .unwrap();
        let (snapshots, deltas, stats, files) = run(handle, dir);
        assert_eq!(
            snapshots, ref_snapshots,
            "published snapshots changed with {shards} shards"
        );
        assert_eq!(
            deltas, ref_deltas,
            "recorded delta stream changed with {shards} shards"
        );
        assert_eq!(files, ref_files, "WAL bytes changed with {shards} shards");
        assert_eq!(stats.shards, shards as u64, "stats must report the layout");
        assert!(
            stats.max_shard_staged > 0 && stats.max_shard_staged <= 40,
            "per-shard staging high-water mark out of range: {}",
            stats.max_shard_staged
        );
        // The snapshot-derived counters ride the same wire block and must be
        // S-independent.
        assert_eq!(
            (
                stats.round,
                stats.num_edges,
                stats.mis_size,
                stats.matching_size,
                stats.edges_inserted,
                stats.edges_deleted
            ),
            (
                ref_stats.round,
                ref_stats.num_edges,
                ref_stats.mis_size,
                ref_stats.matching_size,
                ref_stats.edges_inserted,
                ref_stats.edges_deleted
            ),
            "snapshot counters changed with {shards} shards"
        );
    }
}

/// End-to-end over the socket: a push subscriber's reconstructed state is
/// byte-identical to the recorded published snapshot of every round it
/// lands on, including the final one.
#[test]
fn tcp_subscriber_reconstruction_is_byte_identical() {
    let handle = serve(
        Engine::from_graph(&random_graph(1_000, 3_000, 7), 19),
        ServerConfig {
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let mut subscriber = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    let collector = thread::spawn(move || {
        let mut states = Vec::new();
        while let Some(state) = subscriber.next_round().unwrap() {
            states.push((state.round(), state.to_snapshot()));
        }
        (states, subscriber.resyncs())
    });

    let writers: Vec<_> = (0..4u64)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for i in 0..20u64 {
                    let a = (hash64(401, w * 1_000 + 2 * i) % 1_000) as u32;
                    let b = (hash64(401, w * 1_000 + 2 * i + 1) % 1_000) as u32;
                    client.insert_edges(&[(a, b)]).unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let report = handle.shutdown();
    let (states, resyncs) = collector.join().unwrap();

    assert!(!states.is_empty(), "the subscriber saw no rounds");
    // Every state the subscriber reconstructed must match the published
    // snapshot of the same round, byte for byte.
    let mut checked = 0usize;
    for (round, snapshot) in &states {
        if let Some(committed) = report.rounds.iter().find(|c| c.round == *round) {
            assert_eq!(
                snapshot, &committed.snapshot.state,
                "subscriber state diverges from round {round}"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no subscriber round overlapped the record");
    // The feed drains fully at shutdown: the last reconstructed state is the
    // final committed round's.
    let (last_round, last_state) = states.last().unwrap();
    assert_eq!(*last_round, report.rounds.last().unwrap().round);
    assert_eq!(last_state, &report.engine.server_snapshot());
    // With a live subscriber attached from the start, reconstruction should
    // be delta-driven: at most the initial seeding snapshot.
    assert!(
        resyncs <= 1,
        "an attached subscriber resynced {resyncs} times"
    );
}
