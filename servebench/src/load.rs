//! Load generators. Every answer is checked against the pool's expected
//! distance as it arrives; a wrong distance, an error frame, a `Busy`
//! reply or a timeout each count as one failed request.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use hl_net::{ErrorCode, MuxClient, NetClient, NetError, Request, Response};
use hl_shard::{ShardError, ShardRouter};

use crate::stats::{median, quantile};
use crate::trace::{self, Open, Tracer};
use crate::workload::Pool;

/// Latency recorded for a failed request, so it misses every limit.
pub const FAILED_NS: u64 = u64::MAX;

/// Statistics windows: throughput, p50 and p90 over fine windows of
/// about 100 requests, p99 over coarse ones of about 1000, so that each
/// window's p90 or p99 has ten samples beyond it.
const FINE_REQUESTS: usize = 100;
const FINE_WINDOWS: usize = 200;
const COARSE_REQUESTS: usize = 1000;
const COARSE_WINDOWS: usize = 50;

/// How long a multiplexed request may stay unanswered.
pub const WAIT: Duration = Duration::from_secs(10);

/// The open loop sleeps until this long before a request is due and
/// spins the rest: a plain sleep oversleeps by the kernel's ~50 us timer
/// slack, which would be charged to every request's latency.
const SPIN_MARGIN: Duration = Duration::from_micros(58);

#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub busy: u64,
    pub errors: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.busy += o.busy;
        self.errors += o.errors;
    }

    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn wrong(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn error_code(&mut self, code: ErrorCode) {
        self.wrong();
        if code == ErrorCode::Busy {
            self.busy += 1;
        } else {
            self.errors += 1;
        }
    }

    pub fn net_error(&mut self, e: &NetError) {
        match e {
            NetError::Remote { code, .. } => self.error_code(*code),
            _ => {
                self.wrong();
                self.errors += 1;
            }
        }
    }

    pub fn shard_error(&mut self, e: &ShardError) {
        match e {
            ShardError::Net(e) => self.net_error(e),
            _ => {
                self.wrong();
                self.errors += 1;
            }
        }
    }
}

/// One request's outcome: when it completed (from the phase start), how
/// long it took, and how many pairs it answered correctly (0 if failed).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub done_ns: u64,
    pub lat_ns: u64,
    pub pairs: u32,
}

/// One load phase: a sample per request, its wall time, and the request
/// tally.
#[derive(Debug, Default)]
pub struct Run {
    pub samples: Vec<Sample>,
    pub elapsed_ns: u64,
    pub tally: Tally,
}

/// A phase's statistics: the median, over equal time windows, of each
/// window's throughput and latency percentiles. Virtual CPUs can stall
/// for milliseconds at random, and the CPU itself runs in spells about
/// 1.5x faster or slower that last seconds (a fixed loop on one vCPU of a
/// 2-vCPU guest timed 29 ms or 44 ms per pass); windows that catch either
/// are outvoted instead of deciding the whole run. Over ten seeds the
/// median gave a smaller run-to-run spread than the interquartile mean
/// or the quartiles of the same windows.
#[derive(Debug, Clone)]
pub struct Windowed {
    pub windows: usize,
    pub requests: usize,
    pub qps: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

impl Run {
    fn ok(&mut self, start: Instant, since: Instant, pairs: usize) {
        self.tally.ok();
        self.samples.push(Sample {
            done_ns: start.elapsed().as_nanos() as u64,
            lat_ns: since.elapsed().as_nanos() as u64,
            pairs: pairs as u32,
        });
    }

    /// Records a failed request; the caller has tallied why.
    fn failed(&mut self, start: Instant) {
        self.samples.push(Sample {
            done_ns: start.elapsed().as_nanos() as u64,
            lat_ns: FAILED_NS,
            pairs: 0,
        });
    }

    /// Pairs answered correctly per second over the whole phase.
    pub fn qps(&self) -> f64 {
        let pairs: u64 = self.samples.iter().map(|s| u64::from(s.pairs)).sum();
        pairs as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn windowed(&self) -> Option<Windowed> {
        let fine = self.windows(FINE_REQUESTS, FINE_WINDOWS);
        let coarse = self.windows(COARSE_REQUESTS, COARSE_WINDOWS);
        // Median over the windows of each window's statistic.
        let over = |ws: &[(f64, Vec<u64>)], q: Option<f64>| -> Option<f64> {
            let per: Vec<f64> = ws
                .iter()
                .filter_map(|(qps, lat)| match q {
                    None => Some(*qps),
                    Some(q) => quantile(lat, q).map(|x| x as f64),
                })
                .collect();
            median(&per)
        };
        Some(Windowed {
            windows: fine.len(),
            requests: self.samples.len(),
            qps: over(&fine, None)?,
            p50_ns: over(&fine, Some(0.5))? as u64,
            p90_ns: over(&fine, Some(0.9))? as u64,
            p99_ns: over(&coarse, Some(0.99))? as u64,
        })
    }

    /// Splits the phase into equal time windows of about `per` requests
    /// (at most `max`); returns each window's throughput and its sorted
    /// latencies.
    fn windows(&self, per: usize, max: usize) -> Vec<(f64, Vec<u64>)> {
        let k = (self.samples.len() / per).clamp(1, max);
        let width = (self.elapsed_ns / k as u64).max(1);
        let mut buckets: Vec<(u64, Vec<u64>)> = vec![(0, Vec::new()); k];
        for s in &self.samples {
            let b = &mut buckets[((s.done_ns / width) as usize).min(k - 1)];
            b.0 += u64::from(s.pairs);
            b.1.push(s.lat_ns);
        }
        buckets
            .into_iter()
            .map(|(pairs, mut lat)| {
                lat.sort_unstable();
                (pairs as f64 * 1e9 / width as f64, lat)
            })
            .collect()
    }

    /// Appends a phase that ran after this one, as if they were one.
    pub fn append(&mut self, o: Run) {
        let offset = self.elapsed_ns;
        self.samples.extend(o.samples.into_iter().map(|s| Sample {
            done_ns: s.done_ns + offset,
            ..s
        }));
        self.elapsed_ns += o.elapsed_ns;
        self.tally.add(o.tally);
    }

    fn merge(&mut self, o: Run) {
        self.samples.extend(o.samples);
        self.elapsed_ns = self.elapsed_ns.max(o.elapsed_ns);
        self.tally.add(o.tally);
    }
}

/// `gnm-batch`: each client sends `QueryBatch` frames one at a time for
/// `dur`, on its own thread; together a closed loop with one frame in
/// flight per connection.
pub fn batch_closed(
    clients: &mut [NetClient],
    pool: &Pool,
    dur: Duration,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Run {
    let conns = clients.len();
    let start = Instant::now();
    let deadline = start + dur;
    let runs: Vec<Run> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(t, client)| {
                s.spawn(move || {
                    let mut run = Run::default();
                    let first = t * pool.frames() / conns;
                    let mut k = 0usize;
                    while Instant::now() < deadline {
                        let (pairs, want) = pool.frame_at(first + k);
                        let req = ((t as u64) << 40) | k as u64;
                        let span = trace::start(tracer, "load.request", parent, req);
                        let t0 = Instant::now();
                        let got = client.query_batch(pairs);
                        trace::end(tracer, span);
                        match got {
                            Ok(ds) if ds == want => run.ok(start, t0, pairs.len()),
                            Ok(_) => {
                                run.tally.wrong();
                                run.failed(start);
                            }
                            Err(e) => {
                                run.tally.net_error(&e);
                                run.failed(start);
                            }
                        }
                        k += 1;
                    }
                    run.elapsed_ns = start.elapsed().as_nanos() as u64;
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Run::default();
    for r in runs {
        total.merge(r);
    }
    total.samples.sort_by_key(|s| s.done_ns);
    total
}

/// `gnm-routed`: one thread calls `ShardRouter::query_many` on one
/// pool frame after another for `dur`.
pub fn routed(
    router: &mut ShardRouter,
    pool: &Pool,
    dur: Duration,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Run {
    let start = Instant::now();
    let deadline = start + dur;
    let mut run = Run::default();
    let mut k = 0usize;
    while Instant::now() < deadline {
        let (pairs, want) = pool.frame_at(k);
        let span = trace::start(tracer, "load.request", parent, k as u64);
        let t0 = Instant::now();
        let got = router.query_many(pairs);
        trace::end(tracer, span);
        match got {
            Ok(ds) if ds == want => run.ok(start, t0, pairs.len()),
            Ok(_) => {
                run.tally.wrong();
                run.failed(start);
            }
            Err(e) => {
                run.tally.shard_error(&e);
                run.failed(start);
            }
        }
        k += 1;
    }
    run.elapsed_ns = start.elapsed().as_nanos() as u64;
    run
}

/// A submitted single query awaiting its answer.
struct Pending {
    id: u64,
    /// When the request was due (open loop) or sent (closed loop).
    since: Instant,
    idx: usize,
    span: Option<Open>,
}

/// The phase a single query belongs to.
struct Phase<'a> {
    client: &'a MuxClient,
    pool: &'a Pool,
    start: Instant,
    tracer: Option<&'a Tracer>,
    parent: u32,
    run: Run,
}

impl Phase<'_> {
    fn submit(&mut self, idx: usize, since: Instant) -> Option<Pending> {
        let (pairs, _) = self.pool.frame_at(idx);
        let (u, v) = pairs[0];
        let span = trace::start(self.tracer, "load.request", self.parent, idx as u64);
        match self.client.submit(&Request::Query { u, v }) {
            Ok(id) => Some(Pending {
                id,
                since,
                idx,
                span,
            }),
            Err(e) => {
                trace::end(self.tracer, span);
                self.run.tally.net_error(&e);
                self.run.failed(self.start);
                None
            }
        }
    }

    fn finish(&mut self, p: Pending) {
        let got = self.client.wait(p.id, WAIT);
        trace::end(self.tracer, p.span);
        let (_, want) = self.pool.frame_at(p.idx);
        match got {
            Ok(Response::Distance(d)) if d == want[0] => {
                return self.run.ok(self.start, p.since, 1);
            }
            Ok(Response::Error { code, .. }) => self.run.tally.error_code(code),
            Ok(_) => self.run.tally.wrong(),
            Err(e) => self.run.tally.net_error(&e),
        }
        self.run.failed(self.start);
    }

    fn end(mut self) -> Run {
        self.run.elapsed_ns = self.start.elapsed().as_nanos() as u64;
        self.run
    }
}

/// Where and how often the open loop sends its `Reload`s: `count` of
/// them, `every` apart from its start.
pub struct Reloads<'a> {
    pub path: &'a str,
    pub every: Duration,
    pub count: usize,
    pub num_nodes: u64,
}

/// The open loop's requests, how late the generator sent each (ns), and
/// the reload round trips (ms); one or several open loops in a row.
#[derive(Debug, Default)]
pub struct OpenRun {
    pub run: Run,
    pub lag_ns: Vec<u64>,
    pub reload_ms: Vec<f64>,
    pub reload_tally: Tally,
}

impl OpenRun {
    pub fn append(&mut self, o: OpenRun) {
        self.run.append(o.run);
        self.lag_ns.extend(o.lag_ns);
        self.reload_ms.extend(o.reload_ms);
        self.reload_tally.add(o.reload_tally);
    }
}

/// `rmat-zipf`'s open loop: a single `Query` every `1 / rate` seconds for
/// `dur`, each timed from when it was due, while a second thread sends a
/// `Reload` on the same connection every `reloads.every`.
pub fn open_loop(
    client: &MuxClient,
    pool: &Pool,
    cursor: &mut usize,
    rate: f64,
    dur: Duration,
    reloads: &Reloads,
) -> OpenRun {
    std::thread::scope(|s| {
        let (stop, stopped) = mpsc::channel::<()>();
        let reloader = s.spawn(move || reload_loop(client, reloads, stopped));
        let mut phase = Phase {
            client,
            pool,
            start: Instant::now(),
            tracer: None,
            parent: 0,
            run: Run::default(),
        };
        let period = Duration::from_secs_f64(1.0 / rate);
        let end = phase.start + dur;
        let mut lag_ns = Vec::new();
        let mut inflight: VecDeque<Pending> = VecDeque::new();
        for k in 0u32.. {
            let due = phase.start + period * k;
            if due >= end {
                break;
            }
            // Collect answers while there is time before the next send.
            while Instant::now() < due {
                let Some(p) = inflight.pop_front() else {
                    break;
                };
                phase.finish(p);
            }
            pace_until(due);
            lag_ns.push(due.elapsed().as_nanos() as u64);
            if let Some(p) = phase.submit(*cursor, due) {
                inflight.push_back(p);
            }
            *cursor += 1;
        }
        while let Some(p) = inflight.pop_front() {
            phase.finish(p);
        }
        drop(stop);
        let (reload_ms, reload_tally) = reloader.join().expect("reload thread panicked");
        OpenRun {
            run: phase.end(),
            lag_ns,
            reload_ms,
            reload_tally,
        }
    })
}

fn pace_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_MARGIN {
            std::thread::sleep(left - SPIN_MARGIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends every pair of the pool once, `window` in flight, untimed: the
/// daemon's LRU then holds all it can, so its footprint has peaked and
/// the timed phases start warm.
pub fn warm_up(client: &MuxClient, pool: &Pool, cursor: &mut usize, window: usize) -> Tally {
    let end = *cursor + pool.pairs.len();
    let mut tally = Tally::default();
    while *cursor < end {
        let slice = Duration::from_millis(100);
        tally.add(closed_loop(client, pool, cursor, window, slice, None, 0).tally);
    }
    tally
}

/// Single `Query` frames on one multiplexed connection, `window` of them
/// in flight, for `dur`: the `rmat-zipf` closed loop (`window` 1) and
/// warm-up.
pub fn closed_loop(
    client: &MuxClient,
    pool: &Pool,
    cursor: &mut usize,
    window: usize,
    dur: Duration,
    tracer: Option<&Tracer>,
    parent: u32,
) -> Run {
    let mut phase = Phase {
        client,
        pool,
        start: Instant::now(),
        tracer,
        parent,
        run: Run::default(),
    };
    let deadline = phase.start + dur;
    let mut inflight: VecDeque<Pending> = VecDeque::new();
    for _ in 0..window {
        if let Some(p) = phase.submit(*cursor, Instant::now()) {
            inflight.push_back(p);
        }
        *cursor += 1;
    }
    while let Some(p) = inflight.pop_front() {
        phase.finish(p);
        if Instant::now() < deadline {
            if let Some(p) = phase.submit(*cursor, Instant::now()) {
                inflight.push_back(p);
            }
            *cursor += 1;
        }
    }
    phase.end()
}

fn reload_loop(
    client: &MuxClient,
    reloads: &Reloads,
    stop: mpsc::Receiver<()>,
) -> (Vec<f64>, Tally) {
    let mut ms = Vec::new();
    let mut tally = Tally::default();
    for _ in 0..reloads.count {
        if stop.recv_timeout(reloads.every) != Err(mpsc::RecvTimeoutError::Timeout) {
            break;
        }
        let t0 = Instant::now();
        match client.reload(reloads.path) {
            Ok((_, n)) if n == reloads.num_nodes => {
                tally.ok();
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(_) => tally.wrong(),
            Err(e) => tally.net_error(&e),
        }
    }
    (ms, tally)
}

/// Reload round trips against an otherwise idle daemon (the `gnm-*`
/// workloads, whose load has no writes): `times` reloads of `path`.
pub fn reload_probe(addr: &str, path: &str, times: usize, num_nodes: u64) -> (Vec<f64>, Tally) {
    let mut ms = Vec::new();
    let mut tally = Tally::default();
    let mut client = match NetClient::connect(addr, crate::daemon::client_config()) {
        Ok(c) => c,
        Err(e) => {
            tally.net_error(&e);
            return (ms, tally);
        }
    };
    for _ in 0..times {
        let t0 = Instant::now();
        match client.reload(path) {
            Ok((_, n)) if n == num_nodes => {
                tally.ok();
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            Ok(_) => tally.wrong(),
            Err(e) => tally.net_error(&e),
        }
    }
    (ms, tally)
}
