//! The batch/commit pipeline: parallel PLL that is bit-identical to the
//! sequential algorithm.
//!
//! # Protocol
//!
//! Roots are processed in batches. Within a batch, every root runs a
//! pruned wave (module `wave`) on a worker pool; waves prune **only**
//! against the immutable committed prefix (labels of all earlier
//! batches), so they never observe each other and their results do not
//! depend on scheduling. Because a wave cannot see the labels its own
//! batch is producing, its candidate set is a *superset* of what
//! sequential PLL would assign from that root.
//!
//! The commit step then replays the batch sequentially in canonical root
//! order and removes exactly the surplus: a candidate `(v, d)` from the
//! batch's `j`-th root survives iff no earlier in-batch root `r_i`
//! (`i < j`) already covers it, i.e. iff
//! `min_i d(r_j, r_i) + d(r_i, v) > d`, with both summands read from the
//! *filtered* in-batch entries committed so far. The survivors are
//! appended to the committed prefix under their root's rank (its position
//! in the order), which keeps every label rank-sorted with plain pushes
//! (module `committed`); the finished prefix is remapped to hub ids and
//! sorted once, when it is frozen into a [`FlatLabeling`].
//!
//! # Batch schedule
//!
//! The first batch has `max(threads, 2)` roots. After each batch the size
//! follows the share of candidates the commit filter discarded, which is
//! work sequential PLL never does: below 5% it doubles, above 15% it
//! halves (never below `threads`), and it never exceeds
//! [`BuildConfig::batch_cap`]. On a sparse graph with large labels the
//! discard share stays high, so batches stay small (32–512 roots on an
//! `n = 8000`, `m = 3n` gnm graph at 2 threads, against the 4096 a fixed
//! doubling reached there); on graphs where the prefix prunes well they
//! grow to the cap.
//!
//! # Why the output is bit-identical to sequential PLL
//!
//! By Akiba–Iwata–Yoshida's pruning lemma, sequential PLL assigns root
//! `r` as a hub of exactly the vertices `v` (reachable from `r`) whose
//! prefix query is strictly worse than the true distance:
//! `query_{L_before_r}(r, v) > d(r, v)`. Any hub `h` contributing to that
//! query lives either in the committed prefix (earlier batch) or in the
//! current batch's delta — there is no third place. The wave applies the
//! committed half of the test (and, pruning strictly less than sequential
//! PLL would, reaches every sequentially-labeled vertex at its exact
//! distance); the commit filter applies the in-batch half against the
//! already-filtered delta, which by induction over roots equals the
//! sequential labels. Every candidate therefore survives iff sequential
//! PLL would have kept it, with the same distance — so the final labels,
//! and the [`FlatLabeling`] arena serialized from them, are byte-equal
//! for every thread count and every batch schedule.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use hl_core::order::is_permutation;
use hl_core::{FlatLabeling, VertexOrder};
use hl_graph::{Distance, Graph, NodeId, INFINITY};

use crate::committed::CommittedLabels;
use crate::error::BuildError;
use crate::stats::{BatchStats, BuildStats};
use crate::wave::{run_wave, WaveScratch};

/// Knobs for the parallel pipeline. The defaults build sequentially;
/// raise [`BuildConfig::threads`] to parallelize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BuildConfig {
    /// Worker threads (must be >= 1). `1` degenerates to sequential PLL
    /// with zero wasted work.
    pub threads: usize,
    /// Upper bound on the adaptive batch size; `0` picks automatically
    /// (1 for a single thread, 4096 otherwise). The pipeline grows and
    /// shrinks its batches below this bound by how many candidates the
    /// commit filter throws away. Batch size trades wave parallelism
    /// against that discarded work — it never changes the output.
    pub batch_cap: usize,
}

impl BuildConfig {
    /// Sequential defaults.
    pub fn sequential() -> Self {
        BuildConfig {
            threads: 1,
            batch_cap: 0,
        }
    }

    /// Parallel defaults for `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        BuildConfig {
            threads,
            batch_cap: 0,
        }
    }

    fn effective_cap(&self) -> usize {
        if self.batch_cap > 0 {
            self.batch_cap
        } else if self.threads <= 1 {
            1
        } else {
            4096
        }
    }
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig::sequential()
    }
}

/// A finished parallel build: the serving-ready labeling, the order it
/// used, and the build telemetry.
#[derive(Debug, Clone)]
pub struct BuildOutput {
    /// The labeling, already in the query-time CSR arena.
    pub labeling: FlatLabeling,
    /// The vertex order the labeling was built with.
    pub order: Vec<NodeId>,
    /// Per-batch telemetry.
    pub stats: BuildStats,
}

/// Builds a labeling with a pluggable ordering strategy.
///
/// # Errors
///
/// Propagates the strategy's ordering error and any [`BuildError`] from
/// the pipeline itself.
pub fn build_with_strategy(
    g: &Graph,
    strategy: &dyn VertexOrder,
    config: BuildConfig,
) -> Result<BuildOutput, BuildError> {
    let order = strategy.compute(g)?;
    let mut out = build_with_order(g, order, config)?;
    out.stats.order = strategy.name().to_string();
    Ok(out)
}

/// Builds a labeling processing vertices in the given explicit order.
///
/// # Errors
///
/// Returns [`BuildError::ZeroThreads`] when `config.threads == 0`,
/// [`BuildError::NotAPermutation`] when `order` is not a permutation of
/// the vertex set, and [`BuildError::WorkerPanicked`] if a worker dies.
pub fn build_with_order(
    g: &Graph,
    order: Vec<NodeId>,
    config: BuildConfig,
) -> Result<BuildOutput, BuildError> {
    if config.threads == 0 {
        return Err(BuildError::ZeroThreads);
    }
    if !is_permutation(&order, g.num_nodes()) {
        return Err(BuildError::NotAPermutation);
    }
    let n = g.num_nodes();
    let cap = config.effective_cap();
    let started = Instant::now();

    let mut committed = CommittedLabels::new(n);
    let mut scratches: Vec<WaveScratch> =
        (0..config.threads).map(|_| WaveScratch::new(n)).collect();
    // Commit-phase state, allocated once and reset via touch lists.
    let mut delta: Vec<Vec<(u32, Distance)>> = vec![Vec::new(); n];
    let mut delta_touched: Vec<NodeId> = Vec::new();
    let mut root_to_batch: Vec<Distance> = vec![INFINITY; cap];

    let mut batches = Vec::new();
    let mut batch_size = config.threads.max(2).min(cap);
    let mut next = 0usize;
    while next < order.len() {
        // Rank of the batch's first root. Ranks index an order of `NodeId`s,
        // so they fit a `NodeId`.
        let first_rank = next as NodeId;
        let batch = &order[next..order.len().min(next + batch_size)];
        next += batch.len();
        let batch_started = Instant::now();

        // Wave phase: one pruned wave per root, against the frozen prefix.
        let waves = run_batch_waves(g, &committed, batch, &mut scratches)?;

        // Commit phase: replay in canonical order, filtering candidates
        // against the in-batch entries committed so far.
        let candidate_entries: usize = waves.iter().map(Vec::len).sum();
        let mut committed_entries = 0usize;
        for (j, cand) in waves.iter().enumerate() {
            // root_to_batch[i] = d(r_j, r_i) for earlier in-batch hubs r_i
            // of r_j — read from r_j's own filtered delta.
            for &(i, d) in &delta[batch[j] as usize] {
                root_to_batch[i as usize] = d;
            }
            for &(v, d) in cand {
                let covered = delta[v as usize]
                    .iter()
                    .any(|&(i, dv)| root_to_batch[i as usize].saturating_add(dv) <= d);
                if !covered {
                    if delta[v as usize].is_empty() {
                        delta_touched.push(v);
                    }
                    delta[v as usize].push((j as u32, d));
                    committed_entries += 1;
                }
            }
            for &(i, _) in &delta[batch[j] as usize] {
                root_to_batch[i as usize] = INFINITY;
            }
        }
        // Each delta lists its roots in batch order, so pushing them after
        // every earlier batch's ranks keeps the labels rank-sorted.
        for &v in &delta_touched {
            for &(i, d) in &delta[v as usize] {
                committed.push(v, first_rank + i, d);
            }
            delta[v as usize].clear();
        }
        delta_touched.clear();

        batches.push(BatchStats {
            roots: batch.len(),
            candidate_entries,
            committed_entries,
            entries_after: committed.num_entries(),
            seconds: batch_started.elapsed().as_secs_f64(),
        });
        batch_size = next_batch_size(
            batch_size,
            candidate_entries,
            committed_entries,
            config.threads,
            cap,
        );
    }

    let (wave_pops, wave_pruned) = scratches
        .iter()
        .map(WaveScratch::counters)
        .fold((0, 0), |(p, q), (a, b)| (p + a, q + b));
    let labeling = committed.into_flat(&order);
    let stats = BuildStats {
        threads: config.threads,
        batch_cap: cap,
        order: "explicit".to_string(),
        batches,
        wave_pops,
        wave_pruned,
        total_seconds: started.elapsed().as_secs_f64(),
    };
    Ok(BuildOutput {
        labeling,
        order,
        stats,
    })
}

/// The size of the batch after one that proposed `candidates` entries and
/// kept `kept` of them. The discarded share is work sequential PLL never
/// does: below 5% the batch doubles, above 15% it halves, never below
/// `threads` (so every worker has a root) nor above `cap`.
fn next_batch_size(
    size: usize,
    candidates: usize,
    kept: usize,
    threads: usize,
    cap: usize,
) -> usize {
    let discarded = candidates - kept;
    if discarded * 20 < candidates {
        (size * 2).min(cap)
    } else if discarded * 20 > candidates * 3 {
        (size / 2).max(threads).min(cap)
    } else {
        size
    }
}

/// Runs the batch's waves on the worker pool and returns each root's
/// candidate list, indexed like `batch`.
fn run_batch_waves(
    g: &Graph,
    committed: &CommittedLabels,
    batch: &[NodeId],
    scratches: &mut [WaveScratch],
) -> Result<Vec<Vec<(NodeId, Distance)>>, BuildError> {
    // Single-threaded (or single-root) batches skip the pool entirely.
    if scratches.len() == 1 || batch.len() == 1 {
        let scratch = scratches.first_mut().ok_or(BuildError::ZeroThreads)?;
        return Ok(batch
            .iter()
            .map(|&root| run_wave(g, committed, root, scratch))
            .collect());
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Vec<(NodeId, Distance)>> = vec![Vec::new(); batch.len()];
    let worker_outputs = std::thread::scope(|scope| {
        let handles: Vec<_> = scratches
            .iter_mut()
            .map(|scratch| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, Vec<(NodeId, Distance)>)> = Vec::new();
                    loop {
                        let j = cursor.fetch_add(1, Ordering::Relaxed);
                        if j >= batch.len() {
                            break;
                        }
                        local.push((j, run_wave(g, committed, batch[j], scratch)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| BuildError::WorkerPanicked))
            .collect::<Result<Vec<_>, _>>()
    })?;
    for (j, cand) in worker_outputs.into_iter().flatten() {
        slots[j] = cand;
    }
    Ok(slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_core::cover::verify_exact;
    use hl_core::order::DegreeOrder;
    use hl_core::pll::PrunedLandmarkLabeling;
    use hl_graph::generators;

    fn sequential_flat(g: &Graph, order: &[NodeId]) -> FlatLabeling {
        FlatLabeling::from_labeling(
            PrunedLandmarkLabeling::with_order(g, order.to_vec()).labeling(),
        )
    }

    #[test]
    fn zero_threads_rejected() {
        let g = generators::path(4);
        let cfg = BuildConfig {
            threads: 0,
            batch_cap: 0,
        };
        assert_eq!(
            build_with_order(&g, vec![0, 1, 2, 3], cfg).unwrap_err(),
            BuildError::ZeroThreads
        );
    }

    #[test]
    fn bad_order_rejected() {
        let g = generators::path(3);
        assert_eq!(
            build_with_order(&g, vec![0, 0, 1], BuildConfig::sequential()).unwrap_err(),
            BuildError::NotAPermutation
        );
    }

    #[test]
    fn sequential_config_matches_classic_pll() {
        let g = generators::connected_gnm(60, 60, 3);
        let order = hl_core::order::by_degree(&g);
        let out = build_with_order(&g, order.clone(), BuildConfig::sequential()).unwrap();
        assert_eq!(out.labeling, sequential_flat(&g, &order));
        assert_eq!(out.stats.label_entries(), out.labeling.num_entries());
    }

    #[test]
    fn batching_never_changes_output() {
        let g = generators::connected_gnm(80, 90, 5);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        for cap in [1, 2, 3, 7, 16, 80] {
            let cfg = BuildConfig {
                threads: 1,
                batch_cap: cap,
            };
            let out = build_with_order(&g, order.clone(), cfg).unwrap();
            assert_eq!(out.labeling, reference, "batch_cap = {cap}");
        }
    }

    #[test]
    fn parallel_output_is_exact_and_identical() {
        let g = generators::grid(9, 11);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        for threads in [2, 4] {
            let out =
                build_with_order(&g, order.clone(), BuildConfig::with_threads(threads)).unwrap();
            assert_eq!(out.labeling, reference, "threads = {threads}");
            assert!(verify_exact(&g, &out.labeling.to_labeling())
                .unwrap()
                .is_exact());
        }
    }

    #[test]
    fn weighted_graphs_go_through_dijkstra_waves() {
        let g = generators::grid_with_shortcuts(8, 8, 12, 2);
        let order = hl_core::order::by_degree(&g);
        let reference = sequential_flat(&g, &order);
        let out = build_with_order(&g, order, BuildConfig::with_threads(3)).unwrap();
        assert_eq!(out.labeling, reference);
    }

    #[test]
    fn strategy_entry_point_records_order_name() {
        let g = generators::star(20);
        let out = build_with_strategy(&g, &DegreeOrder, BuildConfig::with_threads(2)).unwrap();
        assert_eq!(out.stats.order, "degree");
        assert_eq!(out.order[0], 0, "star center is processed first");
        assert!(out.labeling.max_hubs() <= 2);
    }

    #[test]
    fn stats_account_for_every_committed_entry() {
        let g = generators::connected_gnm(50, 40, 9);
        let order = hl_core::order::by_degree(&g);
        let out = build_with_order(&g, order, BuildConfig::with_threads(2)).unwrap();
        let committed: usize = out.stats.batches.iter().map(|b| b.committed_entries).sum();
        assert_eq!(committed, out.labeling.num_entries());
        let roots: usize = out.stats.batches.iter().map(|b| b.roots).sum();
        assert_eq!(roots, 50);
        assert!(out.stats.wave_pops >= out.labeling.num_entries() as u64);
    }

    #[test]
    fn batch_size_follows_the_discard_share() {
        // 4% discarded doubles, 5% and 15% hold, 16% halves.
        assert_eq!(next_batch_size(64, 100, 96, 2, 4096), 128);
        assert_eq!(next_batch_size(64, 100, 95, 2, 4096), 64);
        assert_eq!(next_batch_size(64, 100, 85, 2, 4096), 64);
        assert_eq!(next_batch_size(64, 100, 84, 2, 4096), 32);
        // Never below the thread count, never above the cap.
        assert_eq!(next_batch_size(5, 100, 0, 4, 4096), 4);
        assert_eq!(next_batch_size(4096, 100, 100, 2, 4096), 4096);
        assert_eq!(next_batch_size(8, 100, 0, 16, 8), 8);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = hl_graph::builder::graph_from_edges(1, &[]).unwrap();
        let out = build_with_order(&g, vec![0], BuildConfig::with_threads(4)).unwrap();
        assert_eq!(out.labeling.num_entries(), 1); // the self-entry
    }
}
