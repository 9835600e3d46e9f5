//! Setup: from a generated graph to the first answered query. Builds the
//! labeling with `hl-build`, writes the workload's store (flat v2, compact
//! v2c, or two partitioned shard stores), starts one `hubserve serve`
//! daemon per store, connects the workload's clients and answers one
//! query through them. `setup_s` is the wall time of all of it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use hl_build::{BuildConfig, BuildStats};
use hl_core::order::DegreeOrder;
use hl_core::{CompactLabeling, FlatLabeling, VertexOrder};
use hl_graph::{Graph, NodeId};
use hl_net::{MuxClient, NetClient};
use hl_server::{CompactStore, FlatStore};
use hl_shard::ShardRouter;

use crate::daemon::{client_config, Daemon};
use crate::trace::{self, Tracer};
use crate::workload::{Workload, SHARDS};
use crate::{Ctx, Outcome};

/// Connections (each with one frame in flight) of the `gnm-batch` load.
pub const BATCH_CONNS: usize = 2;

pub enum Clients {
    Batch(Vec<NetClient>),
    Mux(MuxClient),
    Router(ShardRouter),
}

/// A deployed workload: daemons up, clients connected.
pub struct Live {
    pub setup_s: f64,
    pub daemons: Vec<Daemon>,
    pub store_paths: Vec<PathBuf>,
    pub flat: FlatLabeling,
    pub stats: BuildStats,
    pub clients: Clients,
}

impl Live {
    /// Puts this process and the daemons on one CPU for the load (see
    /// [`crate::pin`]). Setup is over by then and kept every core.
    pub fn pin(&self, out: &mut Outcome) -> Result<(), String> {
        let pids: Vec<u32> = self.daemons.iter().filter_map(Daemon::pid).collect();
        let cpu = crate::pin::one_cpu(&pids)?;
        out.detail_num("pinned_cpu", Some(cpu as f64));
        Ok(())
    }

    /// Disconnects, shuts every daemon down, and removes the stores.
    pub fn stop(self) -> Result<(), String> {
        drop(self.clients);
        let mut result = Ok(());
        for d in self.daemons {
            if let Err(e) = d.stop() {
                result = Err(e);
            }
        }
        for p in &self.store_paths {
            let _ = std::fs::remove_file(p);
        }
        result
    }
}

pub fn deploy(
    ctx: &Ctx,
    w: Workload,
    g: &Graph,
    tag: &str,
    tracer: Option<&Tracer>,
) -> Result<Live, String> {
    let started = Instant::now();
    let span = trace::start(tracer, "build", 0, 0);
    let order = DegreeOrder.compute(g).map_err(|e| e.to_string())?;
    let out = hl_build::build_with_order(g, order, BuildConfig::with_threads(ctx.nproc))
        .map_err(|e| format!("build failed: {e}"))?;
    trace::end(tracer, span);

    let span = trace::start(tracer, "store.write", 0, 0);
    let path = |suffix: &str| ctx.work.join(format!("{}-{tag}{suffix}.hlbs", w.name()));
    let (flat, store_paths) = match w {
        Workload::GnmBatch => {
            let p = path("");
            let store = FlatStore::from_flat(out.labeling);
            save(&p, store.save(&p))?;
            (store.into_flat(), vec![p])
        }
        Workload::RmatZipf => {
            let p = path("");
            let compact = CompactLabeling::from_flat(&out.labeling).map_err(|e| e.to_string())?;
            save(&p, CompactStore::from_compact(compact).save(&p))?;
            (out.labeling, vec![p])
        }
        Workload::GnmRouted => {
            let shards = hl_shard::partition(&out.labeling, SHARDS).map_err(|e| e.to_string())?;
            let mut paths = Vec::new();
            for (i, shard) in shards.into_iter().enumerate() {
                let p = path(&format!("-shard{i}"));
                save(&p, FlatStore::from_flat(shard).save(&p))?;
                paths.push(p);
            }
            (out.labeling, paths)
        }
    };
    trace::end(tracer, span);

    let span = trace::start(tracer, "daemon.start", 0, 0);
    let mut daemons = Vec::new();
    for p in &store_paths {
        daemons.push(Daemon::spawn(&ctx.hubserve, p, ctx.nproc)?);
    }
    trace::end(tracer, span);

    let span = trace::start(tracer, "connect", 0, 0);
    let (u, v) = (0, (flat.num_nodes() - 1) as NodeId);
    let want = flat.query(u, v);
    let net = |e: hl_net::NetError| format!("first query failed: {e}");
    let (clients, got) = match w {
        Workload::GnmBatch => {
            let mut conns = Vec::new();
            for _ in 0..BATCH_CONNS {
                conns.push(
                    NetClient::connect(daemons[0].addr.as_str(), client_config()).map_err(net)?,
                );
            }
            let got = conns[0].query(u, v).map_err(net)?;
            (Clients::Batch(conns), got)
        }
        Workload::RmatZipf => {
            let c = MuxClient::connect(daemons[0].addr.as_str(), client_config()).map_err(net)?;
            let got = c.query(u, v).map_err(net)?;
            (Clients::Mux(c), got)
        }
        Workload::GnmRouted => {
            let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
            let mut r = ShardRouter::connect(&addrs, &client_config())
                .map_err(|e| format!("router connect failed: {e}"))?;
            let got = r
                .query(u, v)
                .map_err(|e| format!("first query failed: {e}"))?;
            (Clients::Router(r), got)
        }
    };
    trace::end(tracer, span);
    if got != want {
        return Err(format!(
            "first query d({u},{v}) = {got}, built labels say {want}"
        ));
    }
    Ok(Live {
        setup_s: started.elapsed().as_secs_f64(),
        daemons,
        store_paths,
        flat,
        stats: out.stats,
        clients,
    })
}

fn save<E: std::fmt::Display>(p: &Path, r: Result<(), E>) -> Result<(), String> {
    r.map_err(|e| format!("cannot write {}: {e}", p.display()))
}
