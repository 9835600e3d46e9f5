//! The three workloads: their graphs, their seeded pair streams, and the
//! expected answer for every pair.
//!
//! - `gnm-batch`: G(n, m) with n = 8000, m = 3n. Labels average ~390 hubs,
//!   the paper's hard sparse regime, so each 256-pair `QueryBatch` frame
//!   is ~1.5 ms of merge-join work against tens of microseconds of frame
//!   overhead. Batches skip the LRU: the kernel, the arena and the
//!   engine pool carry the load.
//! - `rmat-zipf`: R-MAT with n = 16384, m = 4n, served from a compact
//!   store. Labels average ~23 hubs, so a join is well under a
//!   microsecond against a round trip of tens: the event loop, thread
//!   hand-offs, wire codec and LRU dominate. Zipf-skewed endpoints give
//!   the LRU real hits; periodic reloads (this system's writes) empty it.
//! - `gnm-routed`: the `gnm-batch` labeling split over two shard daemons,
//!   queried through `ShardRouter::query_many` with cross-shard pairs
//!   only, so every answer costs two label fetches and a join in the
//!   router while the server-side join and the LRU are bypassed.

use hl_graph::rng::Xorshift64;
use hl_graph::{generators, Distance, Graph, NodeId};
use hl_server::ServedLabeling;
use hl_shard::shard_of;

/// Default workload seed, fixed so that runs without `--seed` repeat.
pub const K_RAND_SEED: u64 = 27_491_095;

/// Shards in the routed tier.
pub const SHARDS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    GnmBatch,
    RmatZipf,
    GnmRouted,
}

pub const ALL: [Workload; 3] = [Workload::GnmBatch, Workload::RmatZipf, Workload::GnmRouted];

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::GnmBatch => "gnm-batch",
            Workload::RmatZipf => "rmat-zipf",
            Workload::GnmRouted => "gnm-routed",
        }
    }

    /// Pairs per request frame (`gnm-batch`), per router call
    /// (`gnm-routed`), or 1 for single `Query` frames (`rmat-zipf`).
    pub fn frame(self, s: &Sizes) -> usize {
        match self {
            Workload::GnmBatch => s.batch_pairs,
            Workload::RmatZipf => 1,
            Workload::GnmRouted => s.routed_pairs,
        }
    }
}

/// Graph and stream sizes; [`FULL`] for measurement, [`TINY`] for the
/// self-test.
pub struct Sizes {
    pub gnm_nodes: usize,
    pub gnm_edges: usize,
    pub rmat_scale: u32,
    pub rmat_edges: usize,
    pub batch_pairs: usize,
    pub routed_pairs: usize,
    /// Pairs in each precomputed pool; the load cycles through it. Twice
    /// the engine's LRU capacity, so cycling alone earns no cache hits.
    pub pool_pairs: usize,
    /// Sources whose BFS distances check a sample of reference answers.
    pub bfs_sources: usize,
}

pub const FULL: Sizes = Sizes {
    gnm_nodes: 8000,
    gnm_edges: 24_000,
    rmat_scale: 14,
    rmat_edges: 65_536,
    batch_pairs: 256,
    routed_pairs: 64,
    pool_pairs: 1 << 17,
    bfs_sources: 16,
};

pub const TINY: Sizes = Sizes {
    gnm_nodes: 400,
    gnm_edges: 1200,
    rmat_scale: 9,
    rmat_edges: 2048,
    batch_pairs: 32,
    routed_pairs: 16,
    pool_pairs: 4096,
    bfs_sources: 4,
};

/// Derives an independent stream seed from the workload seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn graph(w: Workload, s: &Sizes, seed: u64) -> Graph {
    let seed = sub_seed(seed, 1);
    match w {
        Workload::GnmBatch | Workload::GnmRouted => {
            generators::connected_gnm(s.gnm_nodes, s.gnm_edges - (s.gnm_nodes - 1), seed)
        }
        Workload::RmatZipf => generators::rmat(s.rmat_scale, s.rmat_edges, seed),
    }
}

/// A precomputed pair stream cut into frames, with the reference answer
/// for every pair.
pub struct Pool {
    pub pairs: Vec<(NodeId, NodeId)>,
    pub expected: Vec<Distance>,
    pub frame: usize,
}

impl Pool {
    pub fn frames(&self) -> usize {
        self.pairs.len() / self.frame
    }

    /// Pairs and expected answers of frame `i` (taken modulo the pool).
    pub fn frame_at(&self, i: usize) -> (&[(NodeId, NodeId)], &[Distance]) {
        let f = i % self.frames();
        let r = f * self.frame..(f + 1) * self.frame;
        (&self.pairs[r.clone()], &self.expected[r])
    }

    /// Perturbs one expected answer: the self-test's corrupted answer,
    /// which the verifier must count as a failed request.
    pub fn corrupt_first(&mut self) {
        self.expected[0] = self.expected[0].wrapping_add(1);
    }
}

/// Builds workload `w`'s pair pool over `n` vertices and answers it with
/// `reference` on `threads` threads.
pub fn pool(
    w: Workload,
    s: &Sizes,
    n: usize,
    seed: u64,
    reference: &ServedLabeling,
    threads: usize,
) -> Pool {
    let mut rng = Xorshift64::seed_from_u64(sub_seed(seed, 2));
    let frame = w.frame(s);
    let pairs: Vec<(NodeId, NodeId)> = match w {
        Workload::GnmBatch => (0..s.pool_pairs)
            .map(|_| (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId))
            .collect(),
        Workload::GnmRouted => (0..s.pool_pairs)
            .map(|_| loop {
                let (u, v) = (rng.gen_index(n) as NodeId, rng.gen_index(n) as NodeId);
                if shard_of(u, SHARDS) != shard_of(v, SHARDS) {
                    break (u, v);
                }
            })
            .collect(),
        Workload::RmatZipf => {
            let zipf = Zipf::new(n, 1.0, &mut rng);
            (0..s.pool_pairs)
                .map(|_| (zipf.sample(&mut rng), zipf.sample(&mut rng)))
                .collect()
        }
    };
    let expected = answer(reference, &pairs, threads);
    Pool {
        pairs,
        expected,
        frame,
    }
}

/// Reference answers from an in-process arena, computed in parallel.
pub fn answer(
    reference: &ServedLabeling,
    pairs: &[(NodeId, NodeId)],
    threads: usize,
) -> Vec<Distance> {
    let chunk = pairs.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|sc| {
        let parts: Vec<_> = pairs
            .chunks(chunk)
            .map(|part| {
                sc.spawn(move || {
                    part.iter()
                        .map(|&(u, v)| reference.query(u, v))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Zipf(s) over the vertices, with ranks assigned by a seeded shuffle so
/// the hot vertices are not simply the low ids.
pub struct Zipf {
    cdf: Vec<f64>,
    vertex_of_rank: Vec<NodeId>,
}

impl Zipf {
    pub fn new(n: usize, s: f64, rng: &mut Xorshift64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut vertex_of_rank: Vec<NodeId> = (0..n as NodeId).collect();
        rng.shuffle(&mut vertex_of_rank);
        Zipf {
            cdf,
            vertex_of_rank,
        }
    }

    pub fn sample(&self, rng: &mut Xorshift64) -> NodeId {
        let x = rng.gen_f64();
        let rank = self.cdf.partition_point(|&c| c < x);
        self.vertex_of_rank[rank.min(self.cdf.len() - 1)]
    }
}

/// Checks a seeded sample of reference answers against BFS distances in
/// the graph; returns `(pairs checked, mismatches)`.
pub fn bfs_check(g: &Graph, reference: &ServedLabeling, sources: usize, seed: u64) -> (u64, u64) {
    let n = g.num_nodes();
    let mut rng = Xorshift64::seed_from_u64(sub_seed(seed, 3));
    let (mut checked, mut bad) = (0u64, 0u64);
    for _ in 0..sources {
        let s = rng.gen_index(n) as NodeId;
        let truth = hl_graph::bfs::bfs_distances(g, s);
        for _ in 0..512 {
            let t = rng.gen_index(n) as NodeId;
            checked += 1;
            if reference.query(s, t) != truth[t as usize] {
                bad += 1;
            }
        }
    }
    (checked, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let draw = |seed| {
            let mut rng = Xorshift64::seed_from_u64(seed);
            let z = Zipf::new(1000, 1.0, &mut rng);
            (0..5000).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let xs = draw(3);
        let mut counts = std::collections::HashMap::new();
        for x in &xs {
            *counts.entry(*x).or_insert(0usize) += 1;
        }
        let top = counts.values().copied().max().unwrap_or(0);
        // Rank 1 of Zipf(1) over 1000 carries ~13% of the mass.
        assert!(top > 400, "top vertex drew only {top} of 5000");
    }

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
