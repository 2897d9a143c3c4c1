//! End-to-end tests of the update/query service over real sockets.
//!
//! The load-bearing property is **round coherence**: every snapshot the
//! server publishes must be byte-identical to what a from-scratch greedy
//! engine computes on the committed edge set — i.e. group-committing
//! concurrent writers into shared rounds loses nothing and invents nothing.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use greedy_engine::prelude::{EdgeBatch, Engine};
use greedy_graph::csr::Graph;
use greedy_graph::gen::random::random_graph;
use greedy_server::prelude::*;

#[test]
fn client_round_trips_against_direct_engine() {
    let base = random_graph(500, 1_500, 11);
    let handle = serve(
        Engine::from_graph(&base, 23),
        ServerConfig {
            record_rounds: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Pre-traffic queries answer from round 0 and match a direct engine.
    let oracle = Engine::from_graph(&base, 23);
    let vs: Vec<u32> = (0..500).collect();
    let (round, bits) = client.query_mis(&vs).unwrap();
    assert_eq!(round, 0);
    let expected: Vec<bool> = vs.iter().map(|&v| oracle.in_mis(v)).collect();
    assert_eq!(bits, expected);

    // A write commits, the delta is the engine's report, and subsequent
    // queries see a round at least that new.
    let mut oracle = oracle;
    let updates = [(0u32, 400u32), (1, 401), (2, 402)];
    let delta = client.insert_edges(&updates).unwrap();
    let report = oracle.apply_batch(&EdgeBatch::from_pairs(updates, []));
    assert!(delta.round >= 1);
    assert_eq!(delta.inserted as usize, report.edges_inserted);
    assert_eq!(delta.mis_changed as usize, report.mis_changed.len());

    let (round, bits) = client.query_mis(&vs).unwrap();
    assert!(round >= delta.round);
    let expected: Vec<bool> = vs.iter().map(|&v| oracle.in_mis(v)).collect();
    assert_eq!(bits, expected);

    // Partner queries agree with the oracle's matching.
    let (_, partners) = client.query_matched(&vs).unwrap();
    let snap = oracle.server_snapshot();
    let expected: Vec<Option<u32>> = vs.iter().map(|&v| snap.partner_of(v)).collect();
    assert_eq!(partners, expected);

    // Deletion round-trip.
    let delta = client.delete_edges(&[(0, 400)]).unwrap();
    assert_eq!(delta.deleted, 1);
    oracle.apply_batch(&EdgeBatch::from_pairs([], [(0, 400)]));

    // Stats reflect the committed state.
    let stats = client.stats().unwrap();
    assert_eq!(stats.num_vertices, 500);
    assert_eq!(stats.num_edges as usize, oracle.num_edges());
    assert_eq!(stats.mis_size as usize, oracle.mis().len());
    assert!(stats.batches >= 2);

    let report = handle.shutdown();
    assert_eq!(report.engine.num_edges(), oracle.num_edges());
    assert_eq!(
        report.engine.server_snapshot(),
        oracle.server_snapshot(),
        "served state must equal the directly-driven engine"
    );
}

/// Concurrent writers land in coherent rounds: replaying the committed
/// batches from scratch reproduces, round for round, exactly the snapshots
/// the server published — and the final state equals a from-scratch greedy
/// engine on the final edge set.
#[test]
fn concurrent_writers_produce_coherent_recorded_rounds() {
    let n = 2_000u32;
    let seed = 5;
    let handle = serve(
        Engine::new(n as usize, seed),
        ServerConfig {
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    let writers: Vec<_> = (0..8u32)
        .map(|w| {
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last_round = 0;
                for i in 0..30u32 {
                    // Disjoint per-writer edge spaces keep the final edge set
                    // independent of interleaving; coherence is checked
                    // against what actually committed, either way.
                    let u = w * 200 + i;
                    let v = w * 200 + i + 100;
                    let delta = if i % 5 == 4 {
                        client.delete_edges(&[(u - 1, v - 1)]).unwrap()
                    } else {
                        client.insert_edges(&[(u, v)]).unwrap()
                    };
                    assert!(delta.round >= last_round, "rounds move forward");
                    last_round = delta.round;
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }

    let report = handle.shutdown();
    assert!(!report.rounds.is_empty());
    assert!(
        report.rounds.len() < 240,
        "8 writers x 30 submissions must group-commit into fewer rounds, got {}",
        report.rounds.len()
    );

    // Replay: every published snapshot equals an engine that has seen
    // exactly the committed batches, in order.
    let mut replay = Engine::new(n as usize, seed);
    for committed in &report.rounds {
        let batch = EdgeBatch {
            insertions: committed.insertions.clone(),
            deletions: committed.deletions.clone(),
        };
        replay.apply_batch(&batch);
        assert_eq!(
            replay.server_snapshot(),
            committed.snapshot.state,
            "published snapshot of round {} diverges from replay",
            committed.round
        );
        assert_eq!(committed.snapshot.stats.batches, committed.round);
    }
    assert_eq!(replay.server_snapshot(), report.engine.server_snapshot());

    // From-scratch recompute of the final edge set: byte-identical state.
    let final_graph: Graph = report.engine.snapshot().graph;
    let scratch = Engine::from_graph(&final_graph, seed);
    assert_eq!(
        scratch.server_snapshot(),
        report.engine.server_snapshot(),
        "final served state must equal a from-scratch greedy recompute"
    );
}

#[test]
fn malformed_frames_get_an_error_and_leave_the_server_serving() {
    let handle = serve(Engine::new(10, 1), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // 1. Unknown request tag: expect an Error response, then close.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        let payload = [99u8]; // no such tag
        raw.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        raw.write_all(&payload).unwrap();
        let reply = read_one_frame(&mut raw);
        match Response::decode(&reply).unwrap() {
            Response::Error(msg) => assert!(msg.contains("bad request"), "got: {msg}"),
            other => panic!("expected Error, got {other:?}"),
        }
        assert_eof(&mut raw);
    }

    // 2. Oversized length prefix: rejected before allocation.
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let reply = read_one_frame(&mut raw);
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Error(_)
        ));
        assert_eof(&mut raw);
    }

    // 3. Truncated payload (length says 10, body delivers 2, then close).
    {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&10u32.to_le_bytes()).unwrap();
        raw.write_all(&[1, 2]).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let reply = read_one_frame(&mut raw);
        assert!(matches!(
            Response::decode(&reply).unwrap(),
            Response::Error(_)
        ));
    }

    // The server is still fully functional for well-formed clients.
    let mut client = Client::connect(addr).unwrap();
    let delta = client.insert_edges(&[(1, 2)]).unwrap();
    assert_eq!(delta.inserted, 1);
    let report = handle.shutdown();
    assert_eq!(report.engine.num_edges(), 1);
}

#[test]
fn out_of_range_ids_are_domain_errors_and_keep_the_connection() {
    let handle = serve(Engine::new(8, 2), ServerConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let err = client.insert_edges(&[(0, 8)]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "got: {err}");
    let err = client.query_mis(&[9]).unwrap_err();
    assert!(err.to_string().contains("out of range"), "got: {err}");

    // Same connection keeps working afterwards.
    let delta = client.insert_edges(&[(0, 7)]).unwrap();
    assert_eq!(delta.inserted, 1);
    handle.shutdown();
}

#[test]
fn clean_shutdown_joins_all_threads_and_closes_the_listener() {
    let handle = serve(
        Engine::new(100, 9),
        ServerConfig {
            record_rounds: true,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A writer whose connection stays open across shutdown after its commit.
    let mut writer = Client::connect(addr).unwrap();
    let delta = writer.insert_edges(&[(0, 1), (2, 3)]).unwrap();
    assert_eq!((delta.round, delta.inserted), (1, 2));
    // Idle connections must not keep the server alive either.
    let idle = Client::connect(addr).unwrap();

    // shutdown() returns only once every thread is joined — if a connection
    // or engine thread leaked, this would hang the test instead of passing.
    let report = handle.shutdown();
    assert_eq!(report.engine.num_edges(), 2);
    assert_eq!(report.rounds.len(), 1);
    drop(idle);
    drop(writer);

    // The listener is gone: nothing accepts on that port any more. (A
    // connect could only succeed if another process grabbed the ephemeral
    // port in this instant — not a realistic CI race.)
    assert!(
        TcpStream::connect(addr).is_err(),
        "no listener may survive shutdown"
    );
}

#[test]
fn client_initiated_shutdown_stops_the_server() {
    let handle = serve(Engine::new(20, 3), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();
    client.insert_edges(&[(0, 1)]).unwrap();
    client.shutdown_server().unwrap();

    // New writers are refused from now on (either the connect fails because
    // the accept loop already exited, or the submission reports shutdown).
    if let Ok(mut late) = Client::connect(addr) {
        late.set_timeout(Some(Duration::from_secs(5))).unwrap();
        assert!(late.insert_edges(&[(2, 3)]).is_err());
    }
    let report = handle.shutdown();
    assert_eq!(report.engine.num_edges(), 1);
}

/// Readers are answered from the published snapshot: a query's round id is
/// monotone and never behind a commit the same thread already observed.
#[test]
fn queries_observe_monotone_rounds_while_writers_stream() {
    let handle = serve(
        Engine::from_graph(&random_graph(1_000, 3_000, 4), 31),
        ServerConfig {
            record_rounds: false,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let writer = {
        let stop = stop.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut i = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                i += 1;
                let u = i % 900;
                client.insert_edges(&[(u, u + 37)]).unwrap();
                client.delete_edges(&[(u, u + 37)]).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let stop = stop.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut last = 0u64;
                let mut observed = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (round, bits) = client.query_mis(&[1, 2, 3]).unwrap();
                    assert!(round >= last, "snapshot rounds went backwards");
                    assert_eq!(bits.len(), 3);
                    last = round;
                    observed += 1;
                }
                (last, observed)
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(300));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().unwrap();
    for r in readers {
        let (last, observed) = r.join().unwrap();
        assert!(observed > 0);
        assert!(last > 0, "readers saw committed rounds");
    }
    handle.shutdown();
}

// ------------------------------------------------------------------ helpers

fn read_one_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).unwrap();
    let mut payload = vec![0u8; u32::from_le_bytes(len) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

fn assert_eof(stream: &mut TcpStream) {
    let mut byte = [0u8; 1];
    assert_eq!(
        stream.read(&mut byte).unwrap(),
        0,
        "server must close after a protocol error"
    );
}
