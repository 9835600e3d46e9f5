//! A single pruned BFS/Dijkstra wave from one root, pruning against the
//! immutable committed prefix.
//!
//! The pruning test "is `d(root, u)` already covered by committed hubs?"
//! is the min-plus join of `root`'s and `u`'s committed labels. We
//! evaluate it through a scratch table indexed by hub rank: load `root`'s
//! committed label once, then each visited vertex `u` costs one linear
//! scan of `u`'s label. This is the cache-friendly formulation of
//! Akiba–Iwata–Yoshida's PLL (the root side of the join is pre-expanded
//! into an array), and it needs no hub order within a label.
//!
//! The scan's only branch is its exit. A hub missing from `root`'s label
//! holds `INFINITY`; adding to it overflows, and the overflow flag, taken
//! as a value, rejects the entry without a test of its own (such entries
//! are common and unpredictable, so a branch on them mispredicts often).
//! Because labels are rank-sorted, the hubs most likely to cover `u`
//! come first and a pruned vertex usually exits within a few entries.
//!
//! A wave only *proposes* entries: because it cannot see the labels the
//! rest of its batch is producing concurrently, its candidate set is a
//! superset of what sequential PLL would assign. The commit step
//! ([`crate::pipeline`]) filters it down.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::committed::CommittedLabels;

/// Reusable per-worker buffers: all `O(n)` allocations a wave needs, paid
/// once per worker instead of once per root.
pub(crate) struct WaveScratch {
    /// Tentative distance from the current root.
    dist: Vec<Distance>,
    /// Vertices whose `dist` entry must be reset after the wave.
    visited: Vec<NodeId>,
    /// `root_dist[r]` = committed `d(root, hub of rank r)`, or `INFINITY`.
    root_dist: Vec<Distance>,
    /// Ranks loaded into `root_dist` (for cheap reset).
    touched: Vec<u32>,
    /// Vertices popped across all waves run with this scratch.
    pops: u64,
    /// Pops cut by the pruning test.
    pruned: u64,
}

impl WaveScratch {
    /// Buffers for a graph with `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        WaveScratch {
            dist: vec![INFINITY; n],
            visited: Vec::new(),
            root_dist: vec![INFINITY; n],
            touched: Vec::new(),
            pops: 0,
            pruned: 0,
        }
    }

    /// `(pops, pruned)` accumulated over every wave run with this scratch.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.pops, self.pruned)
    }

    fn load_root(&mut self, committed: &CommittedLabels, root: NodeId) {
        for (&r, &d) in committed
            .ranks_of(root)
            .iter()
            .zip(committed.dists_of(root))
        {
            self.root_dist[r as usize] = d;
            self.touched.push(r);
        }
    }

    /// Min-plus join of `root`'s (pre-loaded) and `u`'s committed labels:
    /// is some hub's `d(root, h) + d(h, u)` at most `du`?
    fn covered(&mut self, committed: &CommittedLabels, u: NodeId, du: Distance) -> bool {
        debug_assert!(du != INFINITY, "a popped vertex has a finite distance");
        self.pops += 1;
        let root_dist = &self.root_dist;
        let covered = committed
            .ranks_of(u)
            .iter()
            .zip(committed.dists_of(u))
            .any(|(&r, &d)| {
                // The carry as a value, not `saturating_add`, which
                // compiles to a branch on it.
                let (sum, overflow) = root_dist[r as usize].overflowing_add(d);
                !overflow & (sum <= du)
            });
        self.pruned += u64::from(covered);
        covered
    }

    fn reset(&mut self) {
        for &v in &self.visited {
            self.dist[v as usize] = INFINITY;
        }
        self.visited.clear();
        for &h in &self.touched {
            self.root_dist[h as usize] = INFINITY;
        }
        self.touched.clear();
    }
}

/// Runs one pruned wave from `root` and returns the candidate entries
/// `(v, d(root, v))` in the order sequential PLL would have assigned them
/// (BFS/heap pop order). BFS on unit-weight graphs, Dijkstra otherwise.
pub(crate) fn run_wave(
    g: &Graph,
    committed: &CommittedLabels,
    root: NodeId,
    scratch: &mut WaveScratch,
) -> Vec<(NodeId, Distance)> {
    let candidates = if g.is_unit_weighted() {
        wave_unit(g, committed, root, scratch)
    } else {
        wave_weighted(g, committed, root, scratch)
    };
    scratch.reset();
    candidates
}

fn wave_unit(
    g: &Graph,
    committed: &CommittedLabels,
    root: NodeId,
    scratch: &mut WaveScratch,
) -> Vec<(NodeId, Distance)> {
    scratch.load_root(committed, root);
    let mut out = Vec::new();
    let mut queue = VecDeque::new();
    scratch.dist[root as usize] = 0;
    scratch.visited.push(root);
    queue.push_back(root);
    while let Some(u) = queue.pop_front() {
        let du = scratch.dist[u as usize];
        if scratch.covered(committed, u, du) {
            continue;
        }
        out.push((u, du));
        for &v in g.neighbor_ids(u) {
            if scratch.dist[v as usize] == INFINITY {
                scratch.dist[v as usize] = du + 1;
                scratch.visited.push(v);
                queue.push_back(v);
            }
        }
    }
    out
}

fn wave_weighted(
    g: &Graph,
    committed: &CommittedLabels,
    root: NodeId,
    scratch: &mut WaveScratch,
) -> Vec<(NodeId, Distance)> {
    scratch.load_root(committed, root);
    let mut out = Vec::new();
    let mut heap = BinaryHeap::new();
    scratch.dist[root as usize] = 0;
    scratch.visited.push(root);
    heap.push(Reverse((0u64, root)));
    while let Some(Reverse((du, u))) = heap.pop() {
        if du > scratch.dist[u as usize] {
            continue;
        }
        if scratch.covered(committed, u, du) {
            continue;
        }
        out.push((u, du));
        for (v, w) in g.neighbors(u) {
            let nd = du.saturating_add(w);
            if nd < scratch.dist[v as usize] {
                if scratch.dist[v as usize] == INFINITY {
                    scratch.visited.push(v);
                }
                scratch.dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::generators;

    #[test]
    fn first_wave_reaches_everything() {
        let g = generators::path(5);
        let committed = CommittedLabels::new(5);
        let mut scratch = WaveScratch::new(5);
        let cand = run_wave(&g, &committed, 0, &mut scratch);
        assert_eq!(cand, vec![(0, 0), (1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    #[test]
    fn committed_prefix_prunes_later_waves() {
        // Path 0-1-2-3-4 with vertex 2 fully committed as rank 0: a wave
        // from 0 stops expanding past 2 (every farther vertex is covered).
        let g = generators::path(5);
        let mut committed = CommittedLabels::new(5);
        for v in 0..5u32 {
            committed.push(v, 0, (i64::from(v) - 2).unsigned_abs());
        }
        let mut scratch = WaveScratch::new(5);
        let cand = run_wave(&g, &committed, 0, &mut scratch);
        assert_eq!(cand, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn prune_scan_finds_a_cover_at_any_position() {
        // Vertex 0 (the root) and vertex 1 share 40 hub ranks, and only
        // rank `k` gives a short path. Odd ranks 41.. sit in vertex 1's
        // label alone: their `INFINITY` root distance must never cover,
        // even at `d = 0`.
        for k in [0u32, 15, 16, 31, 32, 39] {
            let mut committed = CommittedLabels::new(2);
            for r in 0..40u32 {
                let d = if r == k { 1 } else { 100 };
                committed.push(0, r, d);
                committed.push(1, r, d);
            }
            for r in (41..60u32).step_by(2) {
                committed.push(1, r, 0);
            }
            let mut scratch = WaveScratch::new(60);
            scratch.load_root(&committed, 0);
            assert!(scratch.covered(&committed, 1, 2), "k = {k}");
            assert!(!scratch.covered(&committed, 1, 1), "k = {k}");
            assert_eq!(scratch.counters(), (2, 1));
            scratch.reset();
        }
    }

    #[test]
    fn scratch_resets_between_waves() {
        let g = generators::cycle(6);
        let committed = CommittedLabels::new(6);
        let mut scratch = WaveScratch::new(6);
        let a = run_wave(&g, &committed, 3, &mut scratch);
        let b = run_wave(&g, &committed, 3, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    fn weighted_wave_uses_dijkstra() {
        let g =
            hl_graph::builder::graph_from_weighted_edges(3, &[(0, 1, 5), (1, 2, 5), (0, 2, 20)])
                .unwrap();
        let committed = CommittedLabels::new(3);
        let mut scratch = WaveScratch::new(3);
        let cand = run_wave(&g, &committed, 0, &mut scratch);
        assert_eq!(cand, vec![(0, 0), (1, 5), (2, 10)]);
    }
}
