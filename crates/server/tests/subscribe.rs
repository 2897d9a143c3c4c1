//! Subscriber lifecycle over real sockets: ring replay, the full-snapshot
//! fallback for subscribers past the ring, pruning of disconnected
//! subscribers, and commit-path liveness regardless of subscriber health.

use std::thread;
use std::time::{Duration, Instant};

use greedy_engine::prelude::Engine;
use greedy_server::prelude::*;

/// A subscriber whose base round is still inside the delta ring is caught
/// up by replay — zero resyncs — and then rides the live feed.
#[test]
fn recent_base_is_caught_up_from_the_ring() {
    let handle = serve(Engine::new(200, 5), ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    // Capture a base state, then fall a few rounds behind (well inside the
    // default 64-round ring).
    let mut seed_sub = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    client.insert_edges(&[(0, 1)]).unwrap();
    let base = seed_sub.next_round().unwrap().unwrap().clone();
    drop(seed_sub);
    for i in 0..5u32 {
        client.insert_edges(&[(2 * i + 2, 2 * i + 3)]).unwrap();
    }

    let base_round = base.round();
    let mut sub = Client::connect(addr).unwrap().subscribe_from(base).unwrap();
    // Replay must advance one round at a time, contiguously, with no
    // snapshot fallback.
    let mut round = base_round;
    while round < handle.committed_round() {
        let state = sub.next_round().unwrap().expect("feed closed early");
        assert_eq!(state.round(), round + 1, "replay must be contiguous");
        round = state.round();
    }
    assert_eq!(sub.resyncs(), 0, "a ring-covered base must not resync");
    assert_eq!(
        sub.state().unwrap().to_snapshot(),
        handle.snapshot().state,
        "replayed state must converge on the published snapshot"
    );
    handle.shutdown();
}

/// A subscriber that stalls past the K-round ring gets the full-snapshot
/// fallback and still converges to the exact published state.
#[test]
fn base_past_the_ring_falls_back_to_a_snapshot_and_converges() {
    let handle = serve(
        Engine::new(200, 6),
        ServerConfig {
            delta_ring: 2, // tiny ring: three rounds behind is already too far
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = handle.addr();
    let mut client = Client::connect(addr).unwrap();

    let mut seed_sub = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    client.insert_edges(&[(0, 1)]).unwrap();
    let base = seed_sub.next_round().unwrap().unwrap().clone();
    drop(seed_sub);
    // Push the ring far past the base.
    for i in 0..10u32 {
        client.insert_edges(&[(2 * i + 2, 2 * i + 3)]).unwrap();
    }
    assert!(handle.committed_round() > base.round() + 2);

    let mut sub = Client::connect(addr).unwrap().subscribe_from(base).unwrap();
    let state = sub
        .next_round()
        .unwrap()
        .expect("feed closed early")
        .clone();
    assert_eq!(sub.resyncs(), 1, "past the ring must resync via snapshot");
    assert_eq!(
        state.to_snapshot(),
        handle.snapshot().state,
        "snapshot fallback must land on the published state"
    );
    // And the connection keeps serving deltas afterwards.
    let resync_round = state.round();
    client.insert_edges(&[(100, 101)]).unwrap();
    let state = sub
        .next_round()
        .unwrap()
        .expect("feed closed early")
        .clone();
    assert!(state.round() > resync_round);
    assert_eq!(sub.resyncs(), 1, "post-resync rounds fold as deltas");
    handle.shutdown();
}

/// Disconnected subscribers are pruned without blocking the commit path,
/// and commit latency stays bounded with subscribers attached, detached,
/// or never draining.
#[test]
fn dead_or_stalled_subscribers_never_block_commits() {
    let handle = serve(Engine::new(2_000, 7), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // One subscriber that disconnects immediately, one that never reads.
    let dead = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    drop(dead);
    let stalled = Client::connect(addr).unwrap().subscribe_fresh().unwrap();

    let mut client = Client::connect(addr).unwrap();
    let started = Instant::now();
    let commits = 300usize;
    for i in 0..commits as u32 {
        client
            .insert_edges(&[(i % 1_000, 1_000 + (i % 1_000))])
            .unwrap();
    }
    let elapsed = started.elapsed();
    // The commit path only ever try_sends toward subscribers, so even a
    // subscriber that never drains cannot stretch commits toward the 5s
    // write timeout or block on its channel. The bound is generous (CI
    // machines vary) but orders of magnitude below any blocking regime.
    assert!(
        elapsed < Duration::from_millis(200 * 50),
        "{commits} commits took {elapsed:?} with dead/stalled subscribers"
    );

    // The stalled subscriber can still catch up afterwards (possibly via a
    // lag resync) and lands byte-identically on the published state.
    let mut stalled = stalled;
    stalled.set_timeout(Some(Duration::from_secs(30))).unwrap();
    let target = handle.committed_round();
    loop {
        let state = stalled.next_round().unwrap().expect("feed closed early");
        if state.round() >= target {
            break;
        }
    }
    assert_eq!(
        stalled.state().unwrap().to_snapshot(),
        handle.snapshot().state
    );
    handle.shutdown();
}

/// Shutdown flushes the feed: a live subscriber receives every committed
/// round (including the final one) before the stream ends cleanly.
#[test]
fn shutdown_delivers_the_final_round_then_closes_the_feed() {
    let handle = serve(Engine::new(100, 8), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    let mut sub = Client::connect(addr).unwrap().subscribe_fresh().unwrap();
    let collector = thread::spawn(move || {
        let mut last = None;
        while let Some(state) = sub.next_round().unwrap() {
            last = Some((state.round(), state.to_snapshot()));
        }
        last
    });

    let mut client = Client::connect(addr).unwrap();
    for i in 0..20u32 {
        client.insert_edges(&[(i, i + 50)]).unwrap();
    }
    let report = handle.shutdown();
    let (round, snapshot) = collector.join().unwrap().expect("no rounds seen");
    assert!(round >= 1, "the subscriber never advanced past round 0");
    assert_eq!(
        snapshot,
        report.engine.server_snapshot(),
        "the last pushed round must be the final committed state"
    );
}
