//! The traced run: per-layer metrics from spans the benchmark records
//! around its own calls into each crate. It sets the workload up once
//! (timing the build and the store write), then replays the workload's
//! pair stream through every layer on the serving path:
//!
//! | layer | spans | metrics |
//! |---|---|---|
//! | `hl-build` | `build` | `build.*` |
//! | `hl-server` store | `store.write`, `store.mount` | `store.*` |
//! | `hl-core` arenas | `core.join.flat`, `core.join.compact` | `core.*` |
//! | `hl-server` engine | `engine.query`, `engine.query_batch` | `engine.*` |
//! | `hl-net` | `net.rtt` with `engine.replay` of the same request | `net.*` |
//! | `hl-shard` router | `shard.call`, `shard.wire` | `shard.*` |
//!
//! and finally drives the end-to-end load untraced and traced for the
//! same time, whose throughput ratio is `trace.overhead_ratio`.
//!
//! Two consistency checks tie the layers together: the daemon's metrics
//! deltas must equal what the benchmark sent it (requests, queries,
//! cache lookups), and the shard fleet must have answered exactly the
//! same-shard pairs server-side.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use hl_core::{CompactLabeling, FlatLabeling};
use hl_graph::NodeId;
use hl_net::{MuxClient, NetError, Request, Response};
use hl_server::{AnyStore, FlatStore, MetricsSnapshot, QueryEngine, ServedLabeling};
use hl_shard::{shard_of, ShardRouter};

use crate::daemon::{client_config, Daemon};
use crate::e2e::{self, mount};
use crate::load::{self, Tally, WAIT};
use crate::setup::{self, Clients, Live};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Pool, Workload, SHARDS};
use crate::{Ctx, Outcome, WORK_DIR};

/// Share of `--seconds` each replay runs for.
const NET_SHARE: f64 = 0.2;
const CORE_SHARE: f64 = 0.15;
const ENGINE_SHARE: f64 = 0.15;
const SHARD_SHARE: f64 = 0.2;
/// Each of the untraced and the traced end-to-end load.
const LOAD_SHARE: f64 = 0.15;

/// Pairs per `core.join.*` span and singles per `engine.query` span: on
/// the small-label workload one call costs about as much as reading the
/// clock twice, so per-call spans would mostly time the tracer.
const SPAN_PAIRS: usize = 256;
const SPAN_SINGLES: usize = 64;
/// Pairs per `QueryBatch` and vertices per `LabelBatch` frame, as the
/// router sends them.
const QUERY_CHUNK: usize = 256;
const LABEL_CHUNK: usize = 32;

pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let g = workload::graph(w, ctx.sizes, ctx.seed);
    let n = g.num_nodes();
    let mut out = Outcome::default();
    let mut live = setup::deploy(ctx, w, &g, "t", Some(&tracer))?;
    live.pin(&mut out)?;

    let entries = live.flat.num_entries();
    out.metric("build.s", Some(tracer.total_s("build")), "s");
    out.metric("build.label_entries", Some(entries as f64), "count");
    out.metric("build.avg_hubs", Some(entries as f64 / n as f64), "count");
    out.metric(
        "build.pruning_hit_rate",
        Some(live.stats.pruning_hit_rate()),
        "ratio",
    );

    // Mount each served store the way the daemon does.
    let mut file_bytes = 0u64;
    for p in &live.store_paths {
        let span = tracer.start("store.mount", 0, 0);
        let store = AnyStore::open(p).map_err(|e| format!("cannot open {}: {e}", p.display()))?;
        file_bytes += store.file_len();
        let served = store.into_served().map_err(|e| e.to_string())?;
        tracer.end(span);
        drop(served);
    }
    out.metric("store.write_s", Some(tracer.total_s("store.write")), "s");
    out.metric("store.mount_s", Some(tracer.total_s("store.mount")), "s");
    out.metric(
        "store.bytes_per_entry",
        Some(file_bytes as f64 / entries as f64),
        "B",
    );

    let (reference, ref_path) = e2e::reference(ctx, w, &live)?;
    let mut pool = workload::pool(w, ctx.sizes, n, ctx.seed, &reference, ctx.nproc);
    if ctx.corrupt {
        pool.corrupt_first();
    }
    out.bfs_check(&g, &reference, ctx);
    drop(reference);

    let budget = |share: f64| Duration::from_secs_f64(ctx.seconds * share);
    let mut tally = Tally::default();

    // The network layer goes first, while the daemon's LRU is as cold as
    // that of the in-process engine it is compared against.
    let extra = match w {
        Workload::GnmRouted => Some(Daemon::spawn(&ctx.hubserve, &ref_path, ctx.nproc)?),
        _ => None,
    };
    let addr = extra.as_ref().unwrap_or(&live.daemons[0]).addr.clone();
    let daemon_errors = net_layer(
        ctx,
        w,
        &pool,
        &addr,
        &ref_path,
        budget(NET_SHARE),
        &tracer,
        &mut out,
        &mut tally,
    )?;
    if let Some(d) = extra {
        d.stop()?;
    }

    core_layer(
        &live.flat,
        &pool,
        budget(CORE_SHARE),
        &tracer,
        &mut out,
        &mut tally,
    )?;
    engine_layer(
        ctx,
        &ref_path,
        &pool,
        budget(ENGINE_SHARE),
        &tracer,
        &mut out,
        &mut tally,
    )?;
    trace_overhead(
        &mut live,
        &pool,
        budget(LOAD_SHARE),
        &tracer,
        &mut out,
        &mut tally,
    );
    shard_layer(
        ctx,
        &mut live,
        &pool,
        budget(SHARD_SHARE),
        &tracer,
        &mut out,
        &mut tally,
    )?;

    out.metric("net.busy", Some(tally.busy as f64), "count");
    out.metric(
        "net.errors",
        Some((tally.errors + daemon_errors) as f64),
        "count",
    );
    out.add_tally(tally);
    live.stop()?;

    let spans = ctx
        .work
        .parent()
        .map_or_else(|| PathBuf::from(WORK_DIR), PathBuf::from)
        .join(format!("spans-{}.tsv", w.name()));
    tracer
        .write_tsv(&spans)
        .map_err(|e| format!("cannot write {}: {e}", spans.display()))?;
    out.detail
        .push(("spans_file", crate::json::quote(&spans.to_string_lossy())));
    Ok(out)
}

/// Replays the workload's frames, one in flight, through an in-process
/// engine and then through the daemon; `net.overhead_us` is the median
/// per-request difference. Returns the daemon's `net_errors` delta.
#[allow(clippy::too_many_arguments)]
fn net_layer(
    ctx: &Ctx,
    w: Workload,
    pool: &Pool,
    addr: &str,
    store: &std::path::Path,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<u64, String> {
    let engine = QueryEngine::new(mount(store)?, ctx.nproc).map_err(|e| e.to_string())?;
    let client = MuxClient::connect(addr, client_config()).map_err(|e| e.to_string())?;
    let single = w == Workload::RmatZipf;
    let phase = tracer.start("phase.net", 0, 0);
    let before = client.metrics().map_err(|e| e.to_string())?;
    let (mut frames, mut pairs_sent, mut singles) = (0u64, 0u64, 0u64);
    let (mut rtt, mut overhead) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + budget;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let (pairs, want) = pool.frame_at(k);
        let (u, v) = pairs[0];
        let request = if single {
            Request::Query { u, v }
        } else {
            Request::QueryBatch(pairs.to_vec())
        };
        let span = tracer.start("engine.replay", phase.id, k as u64);
        let local = if single {
            engine.query(u, v).map(|d| vec![d])
        } else {
            engine.query_batch(pairs)
        };
        let engine_ns = tracer.end(span);
        match local {
            Ok(ds) if ds == want => tally.ok(),
            _ => tally.wrong(),
        }

        let span = tracer.start("net.rtt", phase.id, k as u64);
        let remote = client.submit(&request).and_then(|id| client.wait(id, WAIT));
        let rtt_ns = tracer.end(span);
        match remote {
            Ok(Response::Distance(d)) if single && d == want[0] => tally.ok(),
            Ok(Response::DistanceBatch(ds)) if !single && ds == want => tally.ok(),
            Ok(Response::Error { code, .. }) => tally.error_code(code),
            Ok(_) => tally.wrong(),
            Err(e) => tally.net_error(&e),
        }
        rtt.push(rtt_ns as f64 / 1e3);
        overhead.push((rtt_ns as f64 - engine_ns as f64) / 1e3);
        frames += 1;
        pairs_sent += pairs.len() as u64;
        singles += u64::from(single);
        k += 1;
    }
    let after = client.metrics().map_err(|e| e.to_string())?;
    tracer.end(phase);

    // The closing `Metrics` request counts itself before it snapshots.
    consistent(
        out,
        "daemon net_requests",
        after.net_requests - before.net_requests,
        frames + 1,
    );
    consistent(
        out,
        "daemon single_queries + batch_queries",
        queries(&after) - queries(&before),
        pairs_sent,
    );
    consistent(
        out,
        "daemon cache_hits + cache_misses",
        lookups(&after) - lookups(&before),
        singles,
    );
    out.metric("net.rtt_us", median(&rtt), "us");
    out.metric("net.overhead_us", median(&overhead), "us");
    out.detail_num("net_requests_timed", Some(frames as f64));
    Ok(after.net_errors - before.net_errors)
}

fn queries(m: &MetricsSnapshot) -> u64 {
    m.single_queries + m.batch_queries
}

fn lookups(m: &MetricsSnapshot) -> u64 {
    m.cache_hits + m.cache_misses
}

fn consistent(out: &mut Outcome, what: &str, counted: u64, sent: u64) {
    if counted != sent {
        out.problem(format!(
            "{what}: daemon counted {counted}, benchmark sent {sent}"
        ));
    }
}

/// Single-threaded `ServedLabeling::query` over the pair stream, flat and
/// compact arenas alternating chunk by chunk.
fn core_layer(
    flat: &FlatLabeling,
    pool: &Pool,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let compact = CompactLabeling::from_flat(flat).map_err(|e| e.to_string())?;
    let arenas = [
        ("core.join.flat", ServedLabeling::Flat(flat.clone())),
        ("core.join.compact", ServedLabeling::Compact(compact)),
    ];
    let phase = tracer.start("phase.core", 0, 0);
    let chunks = (pool.pairs.len() / SPAN_PAIRS).max(1);
    let (mut pairs_done, mut entries) = (0u64, 0u64);
    let deadline = Instant::now() + budget;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let c = k % chunks;
        let r = c * SPAN_PAIRS..((c + 1) * SPAN_PAIRS).min(pool.pairs.len());
        let (pairs, want) = (&pool.pairs[r.clone()], &pool.expected[r]);
        for (name, arena) in &arenas {
            let span = tracer.start(name, phase.id, k as u64);
            let wrong = pairs
                .iter()
                .zip(want)
                .filter(|&(&(u, v), &d)| arena.query(u, v) != d)
                .count();
            tracer.end(span);
            if wrong == 0 {
                tally.ok()
            } else {
                tally.wrong()
            }
        }
        pairs_done += pairs.len() as u64;
        entries += pairs
            .iter()
            .map(|&(u, v)| (flat.hubs_of(u).len() + flat.hubs_of(v).len()) as u64)
            .sum::<u64>();
        k += 1;
    }
    tracer.end(phase);
    let per_join = |name| Some(tracer.total_s(name) * 1e9 / pairs_done.max(1) as f64);
    out.metric("core.join_ns.flat", per_join("core.join.flat"), "ns");
    out.metric("core.join_ns.compact", per_join("core.join.compact"), "ns");
    out.metric(
        "core.entries_per_join",
        Some(entries as f64 / pairs_done.max(1) as f64),
        "count",
    );
    Ok(())
}

/// `QueryEngine::query` (the cached single path) over the pair stream,
/// then `query_batch` over it in 256-pair batches, nproc workers.
fn engine_layer(
    ctx: &Ctx,
    store: &std::path::Path,
    pool: &Pool,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let engine = QueryEngine::new(mount(store)?, ctx.nproc).map_err(|e| e.to_string())?;
    let phase = tracer.start("phase.engine", 0, 0);
    let before = engine.snapshot();
    let mut replay = |name: &'static str, span_pairs: usize, batch: bool| {
        let chunks = (pool.pairs.len() / span_pairs).max(1);
        let deadline = Instant::now() + budget / 2;
        let mut done = 0u64;
        let mut k = 0usize;
        while Instant::now() < deadline {
            let c = k % chunks;
            let r = c * span_pairs..((c + 1) * span_pairs).min(pool.pairs.len());
            let (pairs, want) = (&pool.pairs[r.clone()], &pool.expected[r]);
            let span = tracer.start(name, phase.id, k as u64);
            let ok = if batch {
                engine.query_batch(pairs).is_ok_and(|ds| ds == want)
            } else {
                pairs
                    .iter()
                    .zip(want)
                    .all(|(&(u, v), &d)| engine.query(u, v).is_ok_and(|x| x == d))
            };
            tracer.end(span);
            if ok {
                tally.ok()
            } else {
                tally.wrong()
            }
            done += pairs.len() as u64;
            k += 1;
        }
        done
    };
    let singles = replay("engine.query", SPAN_SINGLES, false);
    let mid = engine.snapshot();
    let batched = replay("engine.query_batch", ctx.sizes.batch_pairs, true);
    tracer.end(phase);
    let hits = mid.cache_hits - before.cache_hits;
    let misses = mid.cache_misses - before.cache_misses;
    out.metric(
        "engine.query_ns",
        Some(tracer.total_s("engine.query") * 1e9 / singles.max(1) as f64),
        "ns",
    );
    out.metric(
        "engine.batch_ns_per_pair",
        Some(tracer.total_s("engine.query_batch") * 1e9 / batched.max(1) as f64),
        "ns",
    );
    out.metric(
        "engine.cache_hit_ratio",
        Some(hits as f64 / (hits + misses).max(1) as f64),
        "ratio",
    );
    Ok(())
}

/// The workload's own end-to-end load, untraced and then traced for the
/// same time; the ratio of their throughputs is the tracing overhead.
fn trace_overhead(
    live: &mut Live,
    pool: &Pool,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut Tally,
) {
    let phase = tracer.start("phase.load", 0, 0);
    let mut qps = [0.0f64; 2];
    for (slot, traced) in [None, Some(tracer)].into_iter().enumerate() {
        let run = match &mut live.clients {
            Clients::Batch(conns) => load::batch_closed(conns, pool, budget, traced, phase.id),
            Clients::Router(router) => load::routed(router, pool, budget, traced, phase.id),
            Clients::Mux(client) => {
                load::closed_loop(client, pool, &mut 0, 1, budget, traced, phase.id)
            }
        };
        tally.add(run.tally);
        qps[slot] = run.qps();
    }
    tracer.end(phase);
    out.metric("trace.overhead_ratio", Some(qps[0] / qps[1]), "ratio");
    out.detail_num("untraced_qps", Some(qps[0]));
    out.detail_num("traced_qps", Some(qps[1]));
}

/// A two-shard fleet over a labeling, for workloads that do not route.
struct Fleet {
    daemons: Vec<Daemon>,
    router: ShardRouter,
    paths: Vec<PathBuf>,
}

fn spawn_fleet(ctx: &Ctx, flat: &FlatLabeling) -> Result<Fleet, String> {
    let shards = hl_shard::partition(flat, SHARDS).map_err(|e| e.to_string())?;
    let mut paths = Vec::new();
    let mut daemons = Vec::new();
    for (i, shard) in shards.into_iter().enumerate() {
        let p = ctx.work.join(format!("fleet-shard{i}.hlbs"));
        FlatStore::from_flat(shard)
            .save(&p)
            .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
        daemons.push(Daemon::spawn(&ctx.hubserve, &p, ctx.nproc)?);
        paths.push(p);
    }
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let router = ShardRouter::connect(&addrs, &client_config()).map_err(|e| e.to_string())?;
    Ok(Fleet {
        daemons,
        router,
        paths,
    })
}

/// `ShardRouter::query_many` over the pair stream in router-sized calls;
/// after each call, the same call's frames alone through the benchmark's
/// own connections. The router's time beyond its wire traffic, per
/// cross-shard pair, is `shard.join_ns`: the local joins plus the
/// router's bookkeeping around them.
fn shard_layer(
    ctx: &Ctx,
    live: &mut Live,
    pool: &Pool,
    budget: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut spawned = None;
    let flat = &live.flat;
    let (router, daemons) = match &mut live.clients {
        Clients::Router(r) => (r, &live.daemons),
        _ => {
            let f = spawned.insert(spawn_fleet(ctx, flat)?);
            (&mut f.router, &f.daemons)
        }
    };
    let fetchers: Vec<MuxClient> = daemons
        .iter()
        .map(|d| MuxClient::connect(d.addr.as_str(), client_config()))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let fleet = |r: &mut ShardRouter| -> Result<u64, String> {
        Ok(r.fleet_metrics()
            .map_err(|e| e.to_string())?
            .iter()
            .map(queries)
            .sum())
    };

    let phase = tracer.start("phase.shard", 0, 0);
    let before = fleet(router)?;
    let call = ctx.sizes.routed_pairs;
    let calls = (pool.pairs.len() / call).max(1);
    let (mut pairs_n, mut cross_n, mut same_n, mut labels_n, mut bytes_n) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let deadline = Instant::now() + budget;
    let mut k = 0usize;
    while Instant::now() < deadline {
        let c = k % calls;
        let r = c * call..((c + 1) * call).min(pool.pairs.len());
        let (pairs, want) = (&pool.pairs[r.clone()], &pool.expected[r]);
        // What the router must send: same-shard pairs to their owner as
        // query batches, and every distinct endpoint of a cross-shard pair,
        // once, as a label fetch from the shard that owns it.
        let mut same: Vec<Vec<(NodeId, NodeId)>> = vec![Vec::new(); SHARDS];
        let mut wanted: Vec<Vec<NodeId>> = vec![Vec::new(); SHARDS];
        let mut seen = HashSet::new();
        for &(u, v) in pairs {
            let (su, sv) = (shard_of(u, SHARDS), shard_of(v, SHARDS));
            if su == sv {
                same[su].push((u, v));
                continue;
            }
            cross_n += 1;
            for (s, x) in [(su, u), (sv, v)] {
                if seen.insert(x) {
                    wanted[s].push(x);
                    labels_n += 1;
                    bytes_n += 4 + 12 * flat.hubs_of(x).len() as u64;
                }
            }
        }
        same_n += same.iter().map(|p| p.len() as u64).sum::<u64>();
        let span = tracer.start("shard.call", phase.id, k as u64);
        let got = router.query_many(pairs);
        tracer.end(span);
        match got {
            Ok(ds) if ds == want => tally.ok(),
            Ok(_) => tally.wrong(),
            Err(e) => tally.shard_error(&e),
        }
        let span = tracer.start("shard.wire", phase.id, k as u64);
        let fetched = replay_wire(&fetchers, &same, &wanted);
        tracer.end(span);
        match fetched {
            Ok(true) => tally.ok(),
            Ok(false) => tally.wrong(),
            Err(e) => tally.net_error(&e),
        }
        pairs_n += pairs.len() as u64;
        k += 1;
    }
    let after = fleet(router)?;
    tracer.end(phase);
    drop(fetchers);
    // Same-shard pairs reach the fleet twice: from the router, and from
    // the wire replay of the same call.
    consistent(
        out,
        "fleet single_queries + batch_queries",
        after - before,
        2 * same_n,
    );

    let call_us: Vec<f64> = tracer
        .durations("shard.call")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let local = tracer.total_s("shard.call") - tracer.total_s("shard.wire");
    out.metric("shard.call_us", median(&call_us), "us");
    out.metric(
        "shard.labels_per_pair",
        Some(labels_n as f64 / pairs_n.max(1) as f64),
        "count",
    );
    out.metric(
        "shard.label_bytes_per_pair",
        Some(bytes_n as f64 / pairs_n.max(1) as f64),
        "B",
    );
    out.metric(
        "shard.join_ns",
        Some(local * 1e9 / cross_n.max(1) as f64),
        "ns",
    );
    out.detail_num("shard_calls_timed", Some(k as f64));
    if let Some(f) = spawned {
        drop(f.router);
        for d in f.daemons {
            d.stop()?;
        }
        for p in f.paths {
            let _ = std::fs::remove_file(p);
        }
    }
    Ok(())
}

/// Sends one router call's frames through the benchmark's own
/// connections, all in flight at once as the router sends them: `same[s]`
/// as `QueryBatch` frames and `wanted[s]` as `LabelBatch` frames to shard
/// `s`. True when every frame came back with one answer per item.
fn replay_wire(
    clients: &[MuxClient],
    same: &[Vec<(NodeId, NodeId)>],
    wanted: &[Vec<NodeId>],
) -> Result<bool, NetError> {
    let mut ids = Vec::new();
    for (s, client) in clients.iter().enumerate() {
        for chunk in same[s].chunks(QUERY_CHUNK) {
            ids.push((
                s,
                chunk.len(),
                client.submit(&Request::QueryBatch(chunk.to_vec()))?,
            ));
        }
        for chunk in wanted[s].chunks(LABEL_CHUNK) {
            ids.push((
                s,
                chunk.len(),
                client.submit(&Request::LabelBatch(chunk.to_vec()))?,
            ));
        }
    }
    let mut ok = true;
    for (s, len, id) in ids {
        ok &= match clients[s].wait(id, WAIT)? {
            Response::LabelBatch(labels) => labels.len() == len,
            Response::DistanceBatch(ds) => ds.len() == len,
            _ => false,
        };
    }
    Ok(ok)
}
