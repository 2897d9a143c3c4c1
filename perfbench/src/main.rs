//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload uniform --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. Each run sets up its inputs from `--seed`
//! (three times, reporting the median as `setup_s`), then measures three
//! phases for `--seconds` in total: the static kernels, an in-process engine
//! stream, and a durable server under a writer and a reader. Every phase
//! checks its outputs; any mismatch fails the run with a nonzero exit. The
//! last line of standard output is the result as one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See `perfbench/README.md` for every metric's definition.

mod engine_stream;
mod host;
mod serve_durable;
mod static_kernels;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Duration;

use rayon::{ThreadPool, ThreadPoolBuilder};

use engine_stream::BatchSample;
use serve_durable::{histogram_mean, ServeOut};
use static_kernels::StaticOut;
use stats::{mean, median, quantile, ratio, Rng};
use trace::{SpanId, Tracer, ROOT};
use workload::{Inputs, Seeds, Server, SetupTimes, Workload};

/// Where results, span dumps and the WAL directories go, relative to the
/// repository root.
const RESULTS_DIR: &str = "perfbench/results";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Share of an end-to-end mean above which a residual the layers do not name
/// gets a warning.
const UNNAMED_SHARE_WARN: f64 = 0.10;

/// Collects failed correctness checks.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok {
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what.to_string());
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 20.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(workload::by_name(&name).ok_or(format!(
                    "unknown workload '{name}' (known: {})",
                    workload::WORKLOADS.map(|w| w.name).join(", ")
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One measured pass over the three phases.
struct Pass {
    statics: StaticOut,
    engine: Vec<BatchSample>,
    serve: ServeOut,
}

impl Pass {
    fn attempted(&self) -> u64 {
        self.statics.calls + self.engine.len() as u64 + self.serve.attempted
    }
}

struct Pools {
    one: ThreadPool,
    all: ThreadPool,
}

/// Rounds a measured pass interleaves its phases in. Each round runs one
/// slice of the static kernels, one chunk of the engine stream, and one chunk
/// of the serving traffic, so a burst of noise from the host lands on a
/// fraction of every metric's samples rather than on all of one metric's.
const ROUNDS: u64 = 4;

/// Engine batches per pass, at least.
const MIN_BATCHES: usize = 500;

/// Batches of the 1-thread engine stream in a traced run: enough for a p50.
const T1_BATCHES: usize = 500;

/// The engine stream's and the serving traffic's time per pass: a quarter of
/// `--seconds` each. The static kernels run a fixed four rounds besides.
fn budgets(seconds: f64) -> [Duration; 2] {
    [0.25, 0.25].map(|share| Duration::from_secs_f64(seconds * share))
}

#[allow(clippy::too_many_arguments)]
fn measure(
    inputs: &Inputs,
    server: Server,
    w: &Workload,
    seeds: &Seeds,
    seconds: f64,
    pools: &Pools,
    tr: &Tracer,
    checks: &mut Checks,
) -> Pass {
    let [engine_budget, serve_budget] = budgets(seconds).map(|b| b / ROUNDS as u32);
    let (pass, _) = tr.time("bench.pass", ROOT, 0, |pass| {
        let mut statics = StaticOut::default();
        let mut engine = inputs.engine.clone();
        let mut batch_rng = Rng::new(seeds.engine_batches);
        let mut batches = Vec::new();
        let mut traffic =
            serve_durable::Traffic::start(server, w.serve_graph.n() as u64, seeds.serve_traffic);
        for round in 0..ROUNDS {
            tr.time("bench.static", pass, round, |id| {
                static_kernels::round(
                    &inputs.static_input,
                    round,
                    &pools.one,
                    &pools.all,
                    tr,
                    id,
                    checks,
                    &mut statics,
                )
            });
            tr.time("bench.engine_stream", pass, round, |id| {
                engine_stream::run(
                    &mut engine,
                    &mut batch_rng,
                    engine_budget,
                    MIN_BATCHES / ROUNDS as usize,
                    usize::MAX,
                    &pools.all,
                    "engine.apply_batch",
                    tr,
                    id,
                    &mut batches,
                )
            });
            tr.time("bench.serve", pass, round, |id| {
                traffic.chunk(serve_budget, tr, id)
            });
        }
        let (serve, _) = tr.time("bench.checks", pass, 0, |id| {
            static_kernels::verify(&inputs.static_input, &statics, tr, id, checks);
            engine_stream::check_against_scratch(
                &engine,
                "engine stream final state",
                tr,
                id,
                checks,
            );
            traffic.finish(tr, id, checks)
        });
        Pass {
            statics,
            engine: batches,
            serve,
        }
    });
    pass
}

/// Name, value, unit.
type Metric = (String, f64, &'static str);

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

fn end_to_end(setup_s: f64, p: &Pass) -> Vec<Metric> {
    let st = &p.statics;
    let wall = batch_wall_us(p);
    let rate: Vec<f64> = p
        .engine
        .iter()
        .map(|b| b.effective as f64 / (b.wall_us * 1e-6))
        .collect();
    let sv = &p.serve;
    vec![
        metric("setup_s", setup_s, "s"),
        metric("mis_serial_s", median(&st.mis_serial), "s"),
        metric("mis_prefix_t1_s", median(&st.mis_t1), "s"),
        metric("mm_serial_s", median(&st.mm_serial), "s"),
        metric("mm_prefix_t1_s", median(&st.mm_t1), "s"),
        metric("mm_prefix_s", median(&st.mm_tn), "s"),
        metric("engine_updates_per_s", median(&rate), "updates/s"),
        metric("engine_batch_p50_us", median(&wall), "us"),
        metric("serve_updates_per_s", median(&sv.commit_rate), "updates/s"),
        metric("serve_commit_p50_us", median(&sv.commit_us), "us"),
        metric("serve_query_p50_us", median(&sv.query_us), "us"),
    ]
}

fn batch_wall_us(p: &Pass) -> Vec<f64> {
    p.engine.iter().map(|b| b.wall_us).collect()
}

/// The per-layer breakdown of a traced pass.
fn per_layer(
    p: &Pass,
    setup: &SetupTimes,
    t1_stream: &[BatchSample],
    n_engine: usize,
    rayon_us: (f64, f64),
) -> Vec<Metric> {
    let mut out = vec![
        metric("rayon.join_us", rayon_us.0, "us"),
        metric("rayon.par_sum_4096_us", rayon_us.1, "us"),
        metric("prims.vertex_perm_s", setup.vertex_perm_s, "s"),
        metric("prims.edge_perm_s", setup.edge_perm_s, "s"),
        metric("graph.generate_s", setup.generate_s, "s"),
        metric("graph.csr_build_s", setup.csr_build_s, "s"),
    ];
    for (kernel, mm) in [("mis_prefix", false), ("mm_prefix", true)] {
        let (rounds, work_ratio, us_per_round, speedup) = p.statics.layer(mm);
        out.push(metric(&format!("core.{kernel}.rounds"), rounds, "count"));
        out.push(metric(
            &format!("core.{kernel}.work_ratio"),
            work_ratio,
            "ratio",
        ));
        out.push(metric(
            &format!("core.{kernel}.us_per_round"),
            us_per_round,
            "us",
        ));
        out.push(metric(&format!("core.{kernel}.speedup"), speedup, "ratio"));
    }
    out.push(metric(
        "core.mis_prefix.tn_s",
        median(&p.statics.mis_tn),
        "s",
    ));

    let e = &p.engine;
    let col = |f: fn(&BatchSample) -> f64| -> Vec<f64> { e.iter().map(f).collect() };
    let sum = |f: fn(&BatchSample) -> u64| -> f64 { e.iter().map(f).sum::<u64>() as f64 };
    out.push(metric("engine.build_s", setup.engine_build_s, "s"));
    out.push(metric("server.start_s", setup.server_start_s, "s"));
    type Column = fn(&BatchSample) -> f64;
    let stages: [(&str, Column); 5] = [
        ("graph", |b| b.graph_us),
        ("mm_repair", |b| b.mm_repair_us),
        ("mis_repair", |b| b.mis_repair_us),
        ("repack", |b| b.repack_us),
        ("untimed", BatchSample::untimed_us),
    ];
    for (stage, f) in stages {
        out.push(metric(&format!("engine.{stage}_us"), mean(&col(f)), "us"));
        out.push(metric(
            &format!("engine.{stage}_p50_us"),
            median(&col(f)),
            "us",
        ));
    }
    let untimed_share = ratio(
        mean(&col(BatchSample::untimed_us)),
        mean(&col(|b| b.wall_us)),
    );
    out.push(metric("engine.untimed_share", untimed_share, "ratio"));
    let batches = e.len() as f64;
    out.push(metric(
        "engine.mis_redecided",
        ratio(sum(|b| b.mis_decided), batches),
        "count",
    ));
    out.push(metric(
        "engine.mm_redecided",
        ratio(sum(|b| b.mm_decided), batches),
        "count",
    ));
    out.push(metric(
        "engine.mis_flip_ratio",
        ratio(sum(|b| b.mis_flips), sum(|b| b.mis_decided)),
        "ratio",
    ));
    out.push(metric(
        "engine.mm_flip_ratio",
        ratio(sum(|b| b.mm_flips), sum(|b| b.mm_decided)),
        "ratio",
    ));
    let depth = |f: fn(&BatchSample) -> u64| e.iter().map(f).max().unwrap_or(0) as f64;
    let (mis_depth, mm_depth) = (depth(|b| b.mis_rounds), depth(|b| b.mm_rounds));
    out.push(metric("engine.mis_depth_max", mis_depth, "count"));
    out.push(metric("engine.mm_depth_max", mm_depth, "count"));
    let log2n = (n_engine as f64).log2();
    println!(
        "repair depth: MIS max {mis_depth} rounds, matching max {mm_depth} rounds, log2(n)^2 = {:.0}",
        log2n * log2n
    );
    out.push(metric(
        "engine.pages_per_batch",
        ratio(sum(|b| b.pages), batches),
        "count",
    ));
    let t1: Vec<f64> = t1_stream.iter().map(|b| b.wall_us).collect();
    out.push(metric("engine.apply_t1_p50_us", median(&t1), "us"));
    out.push(metric(
        "engine.apply_p99_us",
        quantile(&batch_wall_us(p), 0.99),
        "us",
    ));

    let sv = &p.serve;
    let text = &sv.metrics_text;
    let hist = |name: &str| histogram_mean(text, &format!("server_commit_{name}_us"));
    let stage_wait = hist("stage_wait");
    let total = hist("total");
    out.push(metric("server.stage_wait_us", stage_wait, "us"));
    out.push(metric(
        "server.graph_us",
        hist("apply") - hist("repair"),
        "us",
    ));
    out.push(metric("server.repair_us", hist("repair"), "us"));
    out.push(metric("server.wal_us", hist("wal"), "us"));
    out.push(metric("server.publish_us", hist("publish"), "us"));
    out.push(metric("server.feed_us", hist("feed"), "us"));
    out.push(metric("server.commit_total_us", total, "us"));
    let wire = mean(&sv.commit_us) - (stage_wait + total);
    out.push(metric("server.wire_us", wire, "us"));
    out.push(metric(
        "server.wire_share",
        ratio(wire, mean(&sv.commit_us)),
        "ratio",
    ));
    out.push(metric(
        "server.round_updates",
        histogram_mean(text, "server_commit_batch_updates"),
        "count",
    ));
    // The mean, not the histogram's p50: a p50 read from log buckets is a
    // bucket bound that can read the same on every run.
    let query_us = histogram_mean(text, "server_query_us");
    out.push(metric("server.query_us", query_us, "us"));
    out.push(metric(
        "server.query_wire_us",
        mean(&sv.query_service_us) - query_us,
        "us",
    ));
    out.push(metric(
        "server.wal_bytes_per_update",
        ratio(sv.wal_bytes as f64, sv.effective_updates as f64),
        "bytes",
    ));
    out.push(metric(
        "serve.commit_p99_us",
        quantile(&sv.commit_us, 0.99),
        "us",
    ));
    out.push(metric(
        "serve.query_p99_us",
        quantile(&sv.query_us, 0.99),
        "us",
    ));
    out.push(metric("serve.gen_late_ms", mean(&sv.late_us) * 1e-3, "ms"));
    out
}

/// Median wall time of `reps` calls of `f`, in microseconds, each recorded as
/// span `name`.
fn micro(tr: &Tracer, name: &'static str, parent: SpanId, reps: u64, f: impl Fn() -> u64) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|op| stats::us(tr.time(name, parent, op, |_| std::hint::black_box(f())).1))
        .collect();
    median(&times)
}

/// Fork/join cost of the parallel runtime in the N-thread pool: an empty
/// `join`, and a `par_iter().map().sum()` over 4096 items.
fn rayon_costs(pool: &ThreadPool, tr: &Tracer) -> (f64, f64) {
    use rayon::prelude::*;
    let items: Vec<u64> = (0..4096).collect();
    pool.install(|| {
        let join = micro(tr, "rayon.join", ROOT, 2000, || {
            let (a, b) = rayon::join(|| 1u64, || 2u64);
            a + b
        });
        let sum = micro(tr, "rayon.par_sum", ROOT, 2000, || {
            items.par_iter().map(|&x| x ^ 0x5555).sum::<u64>()
        });
        (join, sum)
    })
}

fn wal_dir(tag: usize) -> PathBuf {
    Path::new(RESULTS_DIR).join(format!("wal-{}-{tag}", std::process::id()))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        eprintln!("warning: non-finite metric value {v}, reported as 0");
        "0".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Prints the layer-accounting shares and warns when a residual that no
/// layer names exceeds [`UNNAMED_SHARE_WARN`] of its end-to-end mean.
fn report_shares(layers: &[Metric]) {
    for (share, residual) in [
        ("engine.untimed_share", "engine.untimed_us"),
        ("server.wire_share", "server.wire_us"),
    ] {
        let get = |n: &str| layers.iter().find(|m| m.0 == n).map_or(0.0, |m| m.1);
        let s = get(share);
        println!(
            "layer accounting: {residual} = {:.1} us, {:.1}% of its end-to-end mean",
            get(residual),
            s * 100.0
        );
        if s > UNNAMED_SHARE_WARN {
            println!(
                "WARNING: {residual} is {:.1}% of its end-to-end mean, above the {:.0}% threshold",
                s * 100.0,
                UNNAMED_SHARE_WARN * 100.0
            );
        }
    }
}

/// Prints every end-to-end metric by name with its unit, then each latency
/// distribution's sample count and tail.
fn summarize(e2e: &[Metric], p: &Pass) {
    for (name, v, unit) in e2e {
        println!("{name:<24} {v:>16.6} {unit}");
    }
    let st = &p.statics;
    println!(
        "prefix_mis in the N-thread pool (per-layer core.mis_prefix.tn_s): {:.6} s",
        median(&st.mis_tn)
    );
    println!(
        "static kernel calls: {} of each short kernel, prefix_matching {} in the 1-thread and {} in the N-thread pool",
        st.mis_serial.len(),
        st.mm_t1.len(),
        st.mm_tn.len()
    );
    let engine_total: u64 = p.engine.iter().map(|b| b.effective).sum();
    println!(
        "totals: engine {:.1} updates/s over summed apply time, server {:.1} acked updates/s over {:.2} s of traffic",
        ratio(engine_total as f64, batch_wall_us(p).iter().sum::<f64>() * 1e-6),
        ratio(p.serve.effective_updates as f64, p.serve.wall_s),
        p.serve.wall_s
    );
    let wall = batch_wall_us(p);
    for (what, v) in [
        ("engine batch", &wall),
        ("serve commit", &p.serve.commit_us),
        ("serve query", &p.serve.query_us),
    ] {
        println!(
            "{what} latency: n {} p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, max {:.1} us",
            v.len(),
            median(v),
            quantile(v, 0.9),
            quantile(v, 0.99),
            quantile(v, 1.0)
        );
    }
}

fn run(args: Args) -> Result<(), String> {
    let w = args.workload;
    let seeds = Seeds::from(args.seed);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = |n| {
        ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .map_err(|e| e.to_string())
    };
    let pools = Pools {
        one: pool(1)?,
        all: pool(threads)?,
    };
    std::fs::create_dir_all(RESULTS_DIR).map_err(|e| format!("{RESULTS_DIR}: {e}"))?;
    let mut checks = Checks::default();
    let start_failed = |e: std::io::Error| format!("server start failed: {e}");

    // An untraced run sets up several times and reports the median; a traced
    // run sets up once untraced and once traced, for the tracing overhead.
    let untraced = Tracer::new(false);
    let tr = Tracer::new(args.trace);
    let reps = if args.trace { 2 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut kept: Option<(Inputs, Server, SetupTimes)> = None;
    for rep in 0..reps {
        let rec = if args.trace && rep + 1 == reps {
            &tr
        } else {
            &untraced
        };
        let (setup, d) = rec.time("bench.setup", ROOT, rep as u64, |id| {
            workload::setup(&w, &seeds, &wal_dir(rep), rec, id)
        });
        setup_s.push(d.as_secs_f64());
        if let Some((_, old_server, _)) = kept.replace(setup.map_err(start_failed)?) {
            old_server.discard();
        }
    }
    let (inputs, server, layer_setup) = kept.expect("at least one set-up ran");
    let edges = [
        inputs.static_input.edges.num_edges(),
        inputs.engine.num_edges(),
        inputs.serve_engine.num_edges(),
    ];
    let header = host::header_json(&w, args.seed, args.seconds, args.trace, threads, edges);
    println!("header {header}");

    let (metrics, attempted, failed) = if !args.trace {
        let p = measure(
            &inputs,
            server,
            &w,
            &seeds,
            args.seconds,
            &pools,
            &untraced,
            &mut checks,
        );
        let e2e = end_to_end(median(&setup_s), &p);
        summarize(&e2e, &p);
        (e2e, p.attempted(), p.serve.failed)
    } else {
        // The untraced pass runs on a second server started from the same
        // pre-traffic engine.
        let (fresh, _) =
            workload::start_server(inputs.serve_engine.clone(), &wal_dir(reps), &untraced, ROOT)
                .map_err(start_failed)?;
        let plain = measure(
            &inputs,
            fresh,
            &w,
            &seeds,
            args.seconds,
            &pools,
            &untraced,
            &mut checks,
        );
        let traced = measure(
            &inputs,
            server,
            &w,
            &seeds,
            args.seconds,
            &pools,
            &tr,
            &mut checks,
        );
        let plain_e2e = end_to_end(setup_s[0], &plain);
        let traced_e2e = end_to_end(setup_s[1], &traced);
        summarize(&traced_e2e, &traced);

        // The same engine stream in a 1-thread pool: its gap to the N-thread
        // stream is the parallel runtime's overhead.
        let (t1, _) = tr.time("bench.engine_stream_t1", ROOT, 0, |id| {
            let mut engine = inputs.engine.clone();
            let mut samples = Vec::new();
            engine_stream::run(
                &mut engine,
                &mut Rng::new(seeds.engine_batches),
                Duration::ZERO,
                T1_BATCHES,
                T1_BATCHES,
                &pools.one,
                "engine.apply_batch_t1",
                &tr,
                id,
                &mut samples,
            );
            samples
        });
        let rayon_us = rayon_costs(&pools.all, &tr);

        let mut layers = per_layer(&traced, &layer_setup, &t1, w.engine_graph.n(), rayon_us);
        report_shares(&layers);
        for ((name, t, unit), (_, u, _)) in traced_e2e.iter().zip(&plain_e2e) {
            layers.push((format!("overhead.{name}"), t - u, unit));
        }
        let spans = tr.spans();
        for (layer, s) in trace::self_time_by_layer(&spans) {
            layers.push((format!("self.{layer}_s"), s, "s"));
        }
        let span_file =
            Path::new(RESULTS_DIR).join(format!("{}-seed{}.spans.tsv", w.name, args.seed));
        trace::write_spans(&span_file, &spans)
            .map_err(|e| format!("{}: {e}", span_file.display()))?;
        println!("spans: {} written to {}", spans.len(), span_file.display());
        let attempted = plain.attempted() + traced.attempted() + t1.len() as u64;
        (layers, attempted, plain.serve.failed + traced.serve.failed)
    };

    let correct = checks.failures.is_empty();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(&metrics)
    );
    let record = Path::new(RESULTS_DIR).join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let saved = format!(
        "{{\"header\": {header}, \"failures\": {:?}, \"result\": {result}}}\n",
        checks.failures
    );
    std::fs::write(&record, saved).map_err(|e| format!("{}: {e}", record.display()))?;
    println!(
        "ops_failed_frac {} ({failed} of {attempted} operations failed)",
        ratio(failed as f64, attempted as f64)
    );
    println!("{result}");
    if correct {
        Ok(())
    } else {
        Err(format!(
            "{} correctness check(s) failed",
            checks.failures.len()
        ))
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
