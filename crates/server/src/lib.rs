//! # greedy-server
//!
//! A batching update/query TCP service over the batch-dynamic
//! [`greedy_engine`]: the serving layer the ROADMAP's traffic goal asks for,
//! built on `std` alone (`std::net` sockets, `std::thread` workers,
//! `std::sync` publication — deliberately no third-party dependencies, see
//! this crate's `Cargo.toml`).
//!
//! ## Architecture
//!
//! ```text
//!  writers ──▶ staging buffer ──▶ engine thread ──▶ apply_batch (1/round)
//!    (TCP)        (mutex'd)      [rounds.rs]           │
//!                                          ┌───────────┴─────────────┐
//!                                          ▼                         ▼
//!  readers ◀── Arc<PublishedSnapshot> ◀── SnapshotCell      DeltaFeed (ring)
//!    (TCP)      [snapshot.rs, swap-only lock]               [feed.rs]
//!                                                                    │
//!  subscribers ◀── Delta / Snapshot frames ◀── per-conn forwarder ◀──┘
//!    (TCP)          [replica.rs folds them]    [serve.rs]
//! ```
//!
//! * [`protocol`] — length-prefixed binary frames; requests
//!   `InsertEdges` / `DeleteEdges` / `QueryMis` / `QueryMatched` / `Stats` /
//!   `Shutdown` / `Subscribe`, typed responses carrying the batch round id,
//!   push-style `Delta` frames, and `Snapshot` chunk streams.
//! * [`rounds`] — the group-commit scheduler: concurrent writers stage
//!   updates, a dedicated engine thread drains them into one
//!   [`Engine::apply_batch`](greedy_engine::engine::Engine::apply_batch) per
//!   round (whenever the engine thread is free, with no timer), and every
//!   writer learns its round's delta.
//! * [`snapshot`] — after each round an immutable copy-on-write MIS-bitset +
//!   partner-array snapshot is swapped into a shared slot; queries read the
//!   `Arc` and never block on repairs, and publication costs only the pages
//!   the round touched.
//! * [`feed`] — the exact (uncapped) per-round deltas: a replay ring of the
//!   last K rounds plus non-blocking fan-out to subscribers.
//! * [`metrics`] — the observability layer over [`greedy_obs`]: per-stage
//!   commit-latency histograms, repair-round (depth) histograms, read-path
//!   latency/age, feed fan-out counters, and a flight recorder of the last K
//!   round timelines; exposed via `ServerHandle::metrics_text()` and the
//!   `Request::Metrics` wire frame.
//! * [`replica`] — client-side reconstruction: fold delta frames / assemble
//!   snapshot streams back into byte-comparable state.
//! * [`serve`] — the `std::net` front-end (thread-per-connection accept
//!   loop), plus the typed [`Client`](serve::Client) and
//!   [`Subscriber`](serve::Subscriber) the tests and the `serve_load` load
//!   generator drive the server with.
//!
//! ## Example
//!
//! ```
//! use greedy_engine::prelude::Engine;
//! use greedy_server::serve::{serve, Client, ServerConfig};
//!
//! let handle = serve(Engine::new(100, 7), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//!
//! let delta = client.insert_edges(&[(1, 2), (2, 3)]).unwrap();
//! assert!(delta.round >= 1);
//! let (round, bits) = client.query_mis(&[1, 2, 3]).unwrap();
//! assert!(round >= delta.round);
//! assert_eq!(bits.len(), 3);
//!
//! let report = handle.shutdown();
//! assert_eq!(report.engine.num_edges(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod feed;
pub mod metrics;
pub mod protocol;
pub mod replica;
pub mod rounds;
pub mod serve;
pub mod snapshot;
pub mod wal;

/// Commonly used items.
pub mod prelude {
    pub use crate::feed::{DeltaFeed, FullDelta};
    pub use crate::metrics::{RoundTrace, ServerMetrics};
    pub use crate::protocol::{
        encode_round_traces, DeltaFrame, MatchFlip, Request, Response, RoundDelta, SnapshotChunk,
        StatsReply,
    };
    pub use crate::replica::{snapshot_chunks, FoldError, ReplicaState, SnapshotAssembler};
    pub use crate::rounds::{CommitSinks, CommittedRound, RoundScheduler};
    pub use crate::serve::{
        serve, serve_on, Client, ServerConfig, ServerHandle, ShutdownReport, Subscriber,
    };
    pub use crate::snapshot::{PublishedSnapshot, SnapshotCell};
    pub use crate::wal::{recover, FsyncPolicy, Recovered, Wal, WalConfig};
}
