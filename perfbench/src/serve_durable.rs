//! Durable serving over real sockets: one closed-loop writer connection and
//! one open-loop reader connection against `serve()` with the WAL on and an
//! fsync every round.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use greedy_engine::prelude::Engine;
use greedy_server::serve::Client;
use greedy_server::wal;

use crate::engine_stream::check_against_scratch;
use crate::stats::{us, Rng};
use crate::trace::{SpanId, Tracer};
use crate::workload::Server;
use crate::Checks;

/// Edges per writer request: each insert batch is deleted again next.
pub const WRITE_BATCH: usize = 2048;
/// Vertices per query.
pub const QUERY_VERTICES: usize = 64;
/// The reader's fixed send rate.
pub const QUERY_RATE_PER_S: u64 = 1000;
/// A query answered later than this after its scheduled send time, counting
/// from the schedule, misses its latency limit and counts as failed.
pub const QUERY_LIMIT: Duration = Duration::from_millis(100);
/// Longest any call may wait for its response before it counts as failed.
const CALL_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Debug, Default)]
pub struct ServeOut {
    /// Client-side call-to-ack time of every acked commit.
    pub commit_us: Vec<f64>,
    /// Effective updates per second of every acked commit: its
    /// `inserted + deleted` over its call-to-ack time.
    pub commit_rate: Vec<f64>,
    /// Query latency from its scheduled send time to the reply.
    pub query_us: Vec<f64>,
    /// Query latency from its actual send to the reply.
    pub query_service_us: Vec<f64>,
    /// How late each query was sent against its schedule.
    pub late_us: Vec<f64>,
    pub effective_updates: u64,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// The server's exposition, scraped after the traffic stopped.
    pub metrics_text: String,
    /// WAL directory growth over the traffic, in bytes.
    pub wal_bytes: u64,
}

/// Connects with a call timeout; a refused connection counts as one failed
/// operation.
fn connect(addr: SocketAddr, out: &mut ServeOut) -> Option<Client> {
    let client = Client::connect(addr).and_then(|mut c| {
        c.set_timeout(Some(CALL_TIMEOUT))?;
        Ok(c)
    });
    if let Err(e) = &client {
        eprintln!("connect failed: {e}");
        out.attempted += 1;
        out.failed += 1;
    }
    client.ok()
}

/// The writer's connection and request stream.
struct Writer {
    client: Option<Client>,
    rng: Rng,
    op: u64,
    commit_us: Vec<f64>,
    commit_rate: Vec<f64>,
    effective: u64,
    attempted: u64,
    failed: u64,
}

impl Writer {
    /// Closed loop until `deadline`: insert a batch, wait for the ack,
    /// delete it, wait, repeat. A failed call closes the connection.
    fn run(&mut self, n: u64, deadline: Instant, tr: &Tracer, parent: SpanId) {
        while Instant::now() < deadline {
            let Some(client) = self.client.as_mut() else {
                return;
            };
            let pairs: Vec<(u32, u32)> = (0..WRITE_BATCH).map(|_| self.rng.pair(n)).collect();
            for delete in [false, true] {
                self.attempted += 1;
                let (result, d) = tr.time("server.commit", parent, self.op, |_| {
                    if delete {
                        client.delete_edges(&pairs)
                    } else {
                        client.insert_edges(&pairs)
                    }
                });
                self.op += 1;
                match result {
                    Ok(delta) => {
                        let effective = delta.inserted + delta.deleted;
                        self.commit_us.push(us(d));
                        self.commit_rate.push(effective as f64 / d.as_secs_f64());
                        self.effective += effective;
                    }
                    Err(e) => {
                        eprintln!("writer: commit failed: {e}");
                        self.failed += 1;
                        self.client = None;
                        return;
                    }
                }
            }
        }
    }
}

/// The reader's connection and query stream.
struct Reader {
    client: Option<Client>,
    rng: Rng,
    op: u64,
    last_round: u64,
}

impl Reader {
    /// Open loop from `start` until `deadline`: one query every millisecond
    /// on a fixed schedule, alternating `QueryMis` and `QueryMatched` over
    /// random vertices. A failed call closes the connection.
    fn run(
        &mut self,
        n: u64,
        start: Instant,
        deadline: Instant,
        tr: &Tracer,
        parent: SpanId,
        out: &mut ServeOut,
    ) {
        let period = Duration::from_nanos(1_000_000_000 / QUERY_RATE_PER_S);
        for k in 0u32.. {
            let due = start + period * k;
            if due >= deadline {
                return;
            }
            let Some(client) = self.client.as_mut() else {
                return;
            };
            let vertices: Vec<u32> = (0..QUERY_VERTICES)
                .map(|_| self.rng.below(n) as u32)
                .collect();
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            out.attempted += 1;
            let (result, _) = tr.time("server.query", parent, self.op, |_| {
                if self.op.is_multiple_of(2) {
                    client.query_mis(&vertices).map(|(r, bits)| (r, bits.len()))
                } else {
                    client.query_matched(&vertices).map(|(r, p)| (r, p.len()))
                }
            });
            let done = Instant::now();
            self.op += 1;
            match result {
                Ok((round, len)) if len == QUERY_VERTICES && round >= self.last_round => {
                    self.last_round = round;
                    let latency = done.duration_since(due);
                    if latency > QUERY_LIMIT {
                        out.failed += 1;
                    }
                    out.query_us.push(us(latency));
                    out.query_service_us.push(us(done.duration_since(sent)));
                    out.late_us.push(us(sent.duration_since(due)));
                }
                Ok((round, len)) => {
                    eprintln!(
                        "reader: bad reply (round {round} after {}, {len} answers)",
                        self.last_round
                    );
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("reader: query failed: {e}");
                    out.failed += 1;
                    self.client = None;
                }
            }
        }
    }
}

/// Bytes of the regular files in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A running server under the writer and the reader, driven in chunks so the
/// run can interleave it with the other phases.
pub struct Traffic {
    server: Server,
    n: u64,
    wal_before: u64,
    writer: Writer,
    reader: Reader,
    out: ServeOut,
}

impl Traffic {
    /// Connects the writer and the reader to `server`, whose vertex count is
    /// `n`; `seed` fixes both request streams.
    pub fn start(server: Server, n: u64, seed: u64) -> Self {
        let mut out = ServeOut::default();
        let addr = server.handle.addr();
        let mut rng = Rng::new(seed);
        let writer = Writer {
            client: connect(addr, &mut out),
            rng: Rng::new(rng.next_u64()),
            op: 0,
            commit_us: Vec::new(),
            commit_rate: Vec::new(),
            effective: 0,
            attempted: 0,
            failed: 0,
        };
        let reader = Reader {
            client: connect(addr, &mut out),
            rng: Rng::new(rng.next_u64()),
            op: 0,
            last_round: 0,
        };
        Self {
            wal_before: dir_bytes(&server.wal_dir),
            server,
            n,
            writer,
            reader,
            out,
        }
    }

    /// Runs both connections concurrently for `budget`.
    pub fn chunk(&mut self, budget: Duration, tr: &Tracer, parent: SpanId) {
        let (n, writer, reader, out) = (self.n, &mut self.writer, &mut self.reader, &mut self.out);
        let start = Instant::now();
        let deadline = start + budget;
        std::thread::scope(|s| {
            s.spawn(|| writer.run(n, deadline, tr, parent));
            reader.run(n, start, deadline, tr, parent, out);
        });
        self.out.wall_s += start.elapsed().as_secs_f64();
    }

    /// Scrapes the exposition, shuts the server down, and checks the final
    /// state against greedy from scratch and against `wal::recover` of its
    /// directory. Removes the WAL directory.
    pub fn finish(self, tr: &Tracer, parent: SpanId, checks: &mut Checks) -> ServeOut {
        let Traffic {
            server: Server { handle, wal_dir },
            wal_before,
            writer,
            mut out,
            ..
        } = self;
        out.commit_us = writer.commit_us;
        out.commit_rate = writer.commit_rate;
        out.effective_updates = writer.effective;
        out.attempted += writer.attempted;
        out.failed += writer.failed;
        out.metrics_text = handle.metrics_text();
        out.wal_bytes = dir_bytes(&wal_dir).saturating_sub(wal_before);
        let committed = handle.committed_round();

        let (report, _) = tr.time("server.shutdown", parent, 0, |_| handle.shutdown());
        let engine = report.engine;
        check_against_scratch(&engine, "served final state", tr, parent, checks);
        let (recovered, _) = tr.time("server.recover", parent, 0, |_| wal::recover(&wal_dir));
        match recovered {
            Ok(Some(rec)) => {
                checks.expect(
                    rec.round >= committed,
                    "recovered round is behind the last commit",
                );
                checks.expect(
                    same_state(&rec.engine, &engine),
                    "WAL recovery differs from the served final state",
                );
            }
            Ok(None) => checks.expect(false, "WAL directory holds no log"),
            Err(e) => checks.expect(false, &format!("WAL recovery failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&wal_dir);
        out
    }
}

/// Byte-for-byte equality of two engines' graphs, solutions, and serving
/// exports.
fn same_state(a: &Engine, b: &Engine) -> bool {
    let (sa, sb) = (a.snapshot(), b.snapshot());
    let (xa, xb) = (a.server_snapshot(), b.server_snapshot());
    a.seed() == b.seed()
        && sa.graph.offsets() == sb.graph.offsets()
        && sa.graph.neighbor_array() == sb.graph.neighbor_array()
        && sa.mis == sb.mis
        && sa.matching == sb.matching
        && xa.mis_words_vec() == xb.mis_words_vec()
        && xa.partners_vec() == xb.partners_vec()
}

/// Mean (`_sum / _count`) of histogram `name` in a text exposition; 0 when
/// it is absent or empty.
pub fn histogram_mean(text: &str, name: &str) -> f64 {
    let values: HashMap<&str, f64> = text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (k, v) = l.rsplit_once(' ')?;
            Some((k, v.parse().ok()?))
        })
        .collect();
    let get = |suffix: &str| {
        values
            .get(format!("{name}{suffix}").as_str())
            .copied()
            .unwrap_or(0.0)
    };
    crate::stats::ratio(get("_sum"), get("_count"))
}
