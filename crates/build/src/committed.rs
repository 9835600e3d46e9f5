//! The committed label prefix: what every wave in a batch prunes against.
//!
//! Between batches the structure is frozen; during a batch, worker threads
//! share it by immutable reference, so there is no synchronisation on the
//! hot path. After the batch barrier the main thread appends the filtered
//! batch entries with `&mut` access.
//!
//! Each hub is stored as its **rank**, its position in the build order,
//! not as its vertex id. PLL assigns hubs in rank order, so appending in
//! commit order keeps every label sorted by rank and an insert is a push.
//! This is the layout of Akiba–Iwata–Yoshida's PLL: the prune scan indexes
//! a rank-keyed table and never needs the vertex id. The labels are not
//! sorted by hub id, so this is deliberately *not* a
//! [`LabelingView`](hl_core::LabelingView): a merge-join over it would
//! answer wrongly. [`CommittedLabels::into_flat`] maps ranks back to ids
//! and sorts each label once, at the end of the build.

use hl_core::FlatLabeling;
use hl_graph::{Distance, NodeId};

/// Growable labeling with per-vertex rank/distance columns, each in
/// ascending rank order.
#[derive(Debug, Clone)]
pub(crate) struct CommittedLabels {
    ranks: Vec<Vec<u32>>,
    dists: Vec<Vec<Distance>>,
    entries: usize,
}

impl CommittedLabels {
    /// An empty prefix over `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        CommittedLabels {
            ranks: vec![Vec::new(); n],
            dists: vec![Vec::new(); n],
            entries: 0,
        }
    }

    /// Total committed entries, `Σ_v |S_v|`.
    pub(crate) fn num_entries(&self) -> usize {
        self.entries
    }

    /// Hub ranks of `v`'s label, ascending.
    pub(crate) fn ranks_of(&self, v: NodeId) -> &[u32] {
        &self.ranks[v as usize]
    }

    /// Distances of `v`'s label, parallel to [`CommittedLabels::ranks_of`].
    pub(crate) fn dists_of(&self, v: NodeId) -> &[Distance] {
        &self.dists[v as usize]
    }

    /// Appends `(rank, dist)` to vertex `v`'s label. `rank` must exceed
    /// every rank already in the label, which holds because roots commit
    /// in rank order (checked in debug builds).
    pub(crate) fn push(&mut self, v: NodeId, rank: u32, dist: Distance) {
        let rs = &mut self.ranks[v as usize];
        debug_assert!(rs.last().is_none_or(|&last| last < rank));
        rs.push(rank);
        self.dists[v as usize].push(dist);
        self.entries += 1;
    }

    /// Freezes the finished labeling into the serving-side CSR arena:
    /// each rank becomes the vertex `order[rank]` and each label is sorted
    /// by hub id. The output is byte-identical to
    /// `FlatLabeling::from_labeling` of a sequential PLL run with `order`.
    pub(crate) fn into_flat(self, order: &[NodeId]) -> FlatLabeling {
        let mut flat = FlatLabeling::with_capacity(self.ranks.len(), self.entries);
        let mut pairs: Vec<(NodeId, Distance)> = Vec::new();
        let (mut hubs, mut dists) = (Vec::new(), Vec::new());
        for (rs, ds) in self.ranks.iter().zip(&self.dists) {
            pairs.clear();
            pairs.extend(rs.iter().zip(ds).map(|(&r, &d)| (order[r as usize], d)));
            pairs.sort_unstable_by_key(|&(h, _)| h);
            hubs.clear();
            dists.clear();
            hubs.extend(pairs.iter().map(|&(h, _)| h));
            dists.extend(pairs.iter().map(|&(_, d)| d));
            flat.push_label(&hubs, &dists);
        }
        flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_graph::INFINITY;

    #[test]
    fn push_appends_in_rank_order() {
        let mut c = CommittedLabels::new(2);
        c.push(0, 0, 2);
        c.push(0, 3, 7);
        c.push(0, 5, 4);
        assert_eq!(c.ranks_of(0), &[0, 3, 5]);
        assert_eq!(c.dists_of(0), &[2, 7, 4]);
        assert!(c.ranks_of(1).is_empty());
        assert_eq!(c.num_entries(), 3);
    }

    #[test]
    fn frozen_query_answers_through_shared_hub() {
        // Order [1, 0]: rank 0 is vertex 1, rank 1 is vertex 0.
        let mut c = CommittedLabels::new(2);
        c.push(0, 0, 3);
        c.push(1, 0, 0);
        let flat = c.into_flat(&[1, 0]);
        assert_eq!(flat.hubs_of(0), &[1]);
        assert_eq!(flat.query(0, 1), 3);
        assert_eq!(flat.query(0, 0), 6); // via hub 1 only
        let mut lonely = CommittedLabels::new(2);
        lonely.push(0, 0, 0);
        assert_eq!(lonely.into_flat(&[0, 1]).query(0, 1), INFINITY);
    }

    #[test]
    fn into_flat_round_trips() {
        // Order [2, 0, 1]: ranks 0, 1, 2 are vertices 2, 0, 1.
        let mut c = CommittedLabels::new(3);
        c.push(2, 0, 0);
        c.push(0, 0, 2);
        c.push(1, 0, 1);
        c.push(0, 1, 0);
        c.push(1, 1, 1);
        c.push(1, 2, 0);
        let flat = c.into_flat(&[2, 0, 1]);
        assert_eq!(flat.num_nodes(), 3);
        assert_eq!(flat.num_entries(), 6);
        assert_eq!(flat.hubs_of(1), &[0, 1, 2]);
        assert_eq!(flat.dists_of(1), &[1, 0, 1]);
        assert_eq!(flat.hubs_of(0), &[0, 2]);
        assert_eq!(flat.dists_of(0), &[0, 2]);
        assert_eq!(flat.query(0, 1), 1);
    }
}
