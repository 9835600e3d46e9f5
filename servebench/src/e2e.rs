//! The untraced run: the end-to-end metrics of one workload.

use std::path::{Path, PathBuf};
use std::time::Duration;

use hl_server::{AnyStore, FlatStore, ServedLabeling};

use crate::daemon::Daemon;
use crate::load::{self, Tally};
use crate::setup::{self, Clients, Live};
use crate::stats::{median, quantile};
use crate::workload::{self, Workload};
use crate::{Ctx, Outcome};

/// Setups per run; `setup_s` is their median. The `gnm-*` labeling
/// takes ~15 s to build on a 2-core host, which bounds how many fit.
fn setups(w: Workload) -> usize {
    match w {
        Workload::RmatZipf => 5,
        Workload::GnmBatch | Workload::GnmRouted => 2,
    }
}

/// `rmat-zipf` open-loop rate (requests/s), well under the capacity of
/// one multiplexed connection. The open loop times each request from when
/// it was due; with the generator, the daemon and the reloads' mounts on
/// one CPU, its tail measures how long a reload holds the generator up
/// (generator lag p99 1-8 ms over five seeds), so its percentiles go to
/// the detail line and the gated ones come from the closed loop.
pub const ZIPF_RATE: f64 = 4000.0;
/// `rmat-zipf` runs in cycles of a closed loop with one request in
/// flight, which gives its latency and throughput, and an open loop with
/// two `Reload`s, so that each phase samples the whole run: the host's
/// CPU runs in spells of a few seconds that are 1.5x faster or slower
/// (see [`load::Windowed`]), and a phase run in one piece sees only a few
/// of them. A closed loop with 64 requests in flight followed those
/// spells more closely still: in the same sets of ten seeds, its
/// throughput's quartile distance was 0.06-0.26 of the median, against
/// 0.05-0.14 for the latency of the one-in-flight loop, so it is used
/// only to warm up.
const ZIPF_CYCLES: u32 = 16;
/// Share of a cycle for the closed loop; the open loop gets the rest,
/// with its reloads a third and two thirds of the way into it.
const ZIPF_CLOSED_SHARE: f64 = 0.7;
const ZIPF_RELOADS_PER_CYCLE: usize = 2;
/// Requests in flight while `rmat-zipf` warms up.
const ZIPF_WARM_WINDOW: usize = 64;
/// Reload round trips timed per daemon after a `gnm-*` load.
const PROBE_RELOADS: usize = 20;

pub fn run(ctx: &Ctx, w: Workload) -> Result<Outcome, String> {
    let g = workload::graph(w, ctx.sizes, ctx.seed);
    let n = g.num_nodes();
    let mut setup_s = Vec::new();
    let mut last: Option<Live> = None;
    for r in 0..setups(w) {
        if let Some(prev) = last.take() {
            prev.stop()?;
        }
        let live = setup::deploy(ctx, w, &g, &format!("s{r}"), None)?;
        setup_s.push(live.setup_s);
        last = Some(live);
    }
    let mut live = last.expect("at least one setup");

    let mut out = Outcome::default();
    live.pin(&mut out)?;
    let (reference, _) = reference(ctx, w, &live)?;
    let mut pool = workload::pool(w, ctx.sizes, n, ctx.seed, &reference, ctx.nproc);
    if ctx.corrupt {
        pool.corrupt_first();
    }
    out.bfs_check(&g, &reference, ctx);
    drop(reference);

    let secs = Duration::from_secs_f64(ctx.seconds);
    let mut tally = Tally::default();
    let store = live.store_paths[0].to_string_lossy().into_owned();
    // Latency and throughput statistics come from the closed loop. Peak
    // RSS is read before any reload, so it
    // shows the serving footprint rather than the allocator's history of
    // double-buffered reloads; on rmat-zipf, after the warm-up has filled
    // the LRU.
    let (latency, throughput, rss_mb, reload_ms) = match &mut live.clients {
        Clients::Batch(conns) => {
            let r = load::batch_closed(conns, &pool, secs, None, 0);
            tally.add(r.tally);
            let stats = r.windowed();
            let rss = peak_rss_mb(&live.daemons)?;
            let reloads = probe_reloads(&live.daemons, &live.store_paths, n, &mut tally);
            (stats.clone(), stats, rss, reloads)
        }
        Clients::Router(router) => {
            let r = load::routed(router, &pool, secs, None, 0);
            tally.add(r.tally);
            let stats = r.windowed();
            let rss = peak_rss_mb(&live.daemons)?;
            let reloads = probe_reloads(&live.daemons, &live.store_paths, n, &mut tally);
            (stats.clone(), stats, rss, reloads)
        }
        Clients::Mux(client) => {
            let mut cursor = 0usize;
            let cycle = secs / ZIPF_CYCLES;
            let closed_dur = cycle.mul_f64(ZIPF_CLOSED_SHARE);
            let open_dur = cycle.saturating_sub(closed_dur);
            let reloads = load::Reloads {
                path: &store,
                every: open_dur / (ZIPF_RELOADS_PER_CYCLE as u32 + 1),
                count: ZIPF_RELOADS_PER_CYCLE,
                num_nodes: n as u64,
            };
            let mut closed = load::Run::default();
            let mut open = load::OpenRun::default();
            tally.add(load::warm_up(client, &pool, &mut cursor, ZIPF_WARM_WINDOW));
            let rss = peak_rss_mb(&live.daemons)?;
            for _ in 0..ZIPF_CYCLES {
                closed.append(load::closed_loop(
                    client,
                    &pool,
                    &mut cursor,
                    1,
                    closed_dur,
                    None,
                    0,
                ));
                open.append(load::open_loop(
                    client,
                    &pool,
                    &mut cursor,
                    ZIPF_RATE,
                    open_dur,
                    &reloads,
                ));
            }
            for t in [closed.tally, open.run.tally, open.reload_tally] {
                tally.add(t);
            }
            let lag = sorted(&open.lag_ns);
            out.detail_num("open_loop_rate", Some(ZIPF_RATE));
            if let Some(o) = open.run.windowed() {
                out.detail_num("open_loop_p50_us", Some(o.p50_ns as f64 / 1e3));
                out.detail_num("open_loop_p99_us", Some(o.p99_ns as f64 / 1e3));
                out.detail_num("open_loop_requests", Some(o.requests as f64));
            }
            out.detail_num("generator_lag_p50_us", us(quantile(&lag, 0.5)));
            out.detail_num("generator_lag_p99_us", us(quantile(&lag, 0.99)));
            out.detail_num("generator_lag_max_us", us(lag.last().copied()));
            let stats = closed.windowed();
            (stats.clone(), stats, rss, open.reload_ms)
        }
    };
    live.stop()?;

    out.add_tally(tally);
    out.metric("setup_s", median(&setup_s), "s");
    out.metric("qps", throughput.as_ref().map(|t| t.qps), "1/s");
    out.metric(
        "p50_us",
        latency.as_ref().map(|l| l.p50_ns as f64 / 1e3),
        "us",
    );
    out.metric(
        "p90_us",
        latency.as_ref().map(|l| l.p90_ns as f64 / 1e3),
        "us",
    );
    out.metric("ok_ratio", Some(out.ok_ratio()), "ratio");
    out.metric("server_rss_mb", Some(rss_mb), "MB");
    out.metric("reload_ms", median(&reload_ms), "ms");
    if let (Some(l), Some(t)) = (&latency, &throughput) {
        // The p99 goes to the detail line only: even with the load on one
        // CPU its spread over seeds (quartile distance / median) was 0.17
        // on rmat-zipf, and gnm-routed read 2.9-4.5 ms over three seeds.
        out.detail_num("p99_us", Some(l.p99_ns as f64 / 1e3));
        out.detail_num("latency_requests", Some(l.requests as f64));
        out.detail_num("latency_windows", Some(l.windows as f64));
        out.detail_num("throughput_requests", Some(t.requests as f64));
        out.detail_num("throughput_windows", Some(t.windows as f64));
    }
    out.detail_num("reload_samples", Some(reload_ms.len() as f64));
    out.detail_num("fail_ratio", Some(1.0 - out.ok_ratio()));
    out.detail_list("setup_runs_s", &setup_s);
    out.detail_list("reload_runs_ms", &reload_ms);
    Ok(out)
}

/// Summed peak RSS (VmHWM) of the daemons so far, in MiB.
fn peak_rss_mb(daemons: &[Daemon]) -> Result<f64, String> {
    let mut kib = 0;
    for d in daemons {
        kib += d.peak_rss_kib()?;
    }
    Ok(kib as f64 / 1024.0)
}

/// The `gnm-*` loads carry no writes; their reload cost is probed on the
/// idle daemons after the load, each reloading its own store.
fn probe_reloads(daemons: &[Daemon], stores: &[PathBuf], n: usize, tally: &mut Tally) -> Vec<f64> {
    let mut ms = Vec::new();
    for (d, p) in daemons.iter().zip(stores) {
        let (m, t) = load::reload_probe(&d.addr, &p.to_string_lossy(), PROBE_RELOADS, n as u64);
        ms.extend(m);
        tally.add(t);
    }
    ms
}

/// The in-process arena every received answer is checked against, and
/// its store file: the served store itself, or for the routed tier the
/// unsharded store, written here.
pub fn reference(ctx: &Ctx, w: Workload, live: &Live) -> Result<(ServedLabeling, PathBuf), String> {
    let path = match w {
        Workload::GnmRouted => {
            let p = ctx.work.join("gnm-routed-unsharded.hlbs");
            FlatStore::from_flat(live.flat.clone())
                .save(&p)
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            p
        }
        _ => live.store_paths[0].clone(),
    };
    Ok((mount(&path)?, path))
}

pub fn mount(path: &Path) -> Result<ServedLabeling, String> {
    AnyStore::open(path)
        .and_then(AnyStore::into_served)
        .map_err(|e| format!("cannot mount {}: {e}", path.display()))
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

fn us(ns: Option<u64>) -> Option<f64> {
    ns.map(|x| x as f64 / 1e3)
}
