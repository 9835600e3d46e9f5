//! Build-time telemetry: per-batch timings, the label-size growth curve,
//! and pruning effectiveness, with a hand-rolled JSON snapshot (the
//! workspace is dependency-free, so no serde).

/// Telemetry for one root batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Roots processed in this batch.
    pub roots: usize,
    /// Label entries proposed by the batch's waves (before the commit
    /// filter).
    pub candidate_entries: usize,
    /// Entries that survived the commit filter.
    pub committed_entries: usize,
    /// Total committed entries after this batch (growth curve sample).
    pub entries_after: usize,
    /// Wall-clock seconds for the batch (waves + commit).
    pub seconds: f64,
}

/// Telemetry for a whole parallel build.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildStats {
    /// Worker threads used.
    pub threads: usize,
    /// Upper bound the adaptive batch size ran under: the configured
    /// [`BuildConfig::batch_cap`](crate::BuildConfig::batch_cap), or the
    /// automatic one when that is `0`. The sizes actually used are in
    /// [`BatchStats::roots`].
    pub batch_cap: usize,
    /// Name of the ordering strategy (or `"explicit"` for a caller-supplied
    /// permutation).
    pub order: String,
    /// Per-batch telemetry, in processing order.
    pub batches: Vec<BatchStats>,
    /// Vertices popped across all waves.
    pub wave_pops: u64,
    /// Pops cut by the committed-prefix pruning test.
    pub wave_pruned: u64,
    /// End-to-end wall-clock seconds, freezing the labeling into the
    /// serving arena included.
    pub total_seconds: f64,
}

impl BuildStats {
    /// Final label entry count, `Σ_v |S_v|`.
    pub fn label_entries(&self) -> usize {
        self.batches.last().map_or(0, |b| b.entries_after)
    }

    /// Fraction of wave pops cut by the pruning test. High is good — it is
    /// what keeps PLL subquadratic in practice.
    pub fn pruning_hit_rate(&self) -> f64 {
        if self.wave_pops == 0 {
            return 0.0;
        }
        self.wave_pruned as f64 / self.wave_pops as f64
    }

    /// Fraction of wave-proposed entries discarded by the commit filter —
    /// the price of batching (work sequential PLL would never do).
    pub fn commit_discard_rate(&self) -> f64 {
        let cand: usize = self.batches.iter().map(|b| b.candidate_entries).sum();
        if cand == 0 {
            return 0.0;
        }
        let kept: usize = self.batches.iter().map(|b| b.committed_entries).sum();
        (cand - kept) as f64 / cand as f64
    }

    /// The label-size growth curve as `(roots_processed, total_entries)`
    /// samples, one per batch.
    pub fn growth_curve(&self) -> Vec<(usize, usize)> {
        let mut roots = 0;
        self.batches
            .iter()
            .map(|b| {
                roots += b.roots;
                (roots, b.entries_after)
            })
            .collect()
    }

    /// Compact single-line JSON snapshot. The growth curve is downsampled
    /// to at most 64 evenly spaced batches so million-vertex builds stay
    /// readable.
    pub fn to_json(&self) -> String {
        let curve = self.growth_curve();
        let step = curve.len().div_ceil(64).max(1);
        let mut curve_json = String::from("[");
        for (k, (roots, entries)) in curve
            .iter()
            .enumerate()
            .filter(|(k, _)| k % step == 0 || *k == curve.len() - 1)
            .map(|(_, p)| p)
            .enumerate()
        {
            if k > 0 {
                curve_json.push(',');
            }
            curve_json.push_str(&format!("[{roots},{entries}]"));
        }
        curve_json.push(']');
        format!(
            concat!(
                "{{\"threads\":{},\"order\":\"{}\",\"batch_cap\":{},",
                "\"batches\":{},\"build_seconds\":{:.6},\"label_entries\":{},",
                "\"wave_pops\":{},\"wave_pruned\":{},\"pruning_hit_rate\":{:.4},",
                "\"commit_discard_rate\":{:.4},\"growth_curve\":{}}}"
            ),
            self.threads,
            self.order,
            self.batch_cap,
            self.batches.len(),
            self.total_seconds,
            self.label_entries(),
            self.wave_pops,
            self.wave_pruned,
            self.pruning_hit_rate(),
            self.commit_discard_rate(),
            curve_json,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BuildStats {
        BuildStats {
            threads: 2,
            batch_cap: 4,
            order: "degree".into(),
            batches: vec![
                BatchStats {
                    roots: 2,
                    candidate_entries: 10,
                    committed_entries: 8,
                    entries_after: 8,
                    seconds: 0.5,
                },
                BatchStats {
                    roots: 4,
                    candidate_entries: 6,
                    committed_entries: 4,
                    entries_after: 12,
                    seconds: 0.25,
                },
            ],
            wave_pops: 100,
            wave_pruned: 75,
            total_seconds: 0.8,
        }
    }

    #[test]
    fn derived_rates() {
        let s = sample();
        assert_eq!(s.label_entries(), 12);
        assert!((s.pruning_hit_rate() - 0.75).abs() < 1e-12);
        assert!((s.commit_discard_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.growth_curve(), vec![(2, 8), (6, 12)]);
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"threads\":2"));
        assert!(j.contains("\"order\":\"degree\""));
        assert!(j.contains("\"label_entries\":12"));
        assert!(j.contains("\"growth_curve\":[[2,8],[6,12]]"));
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = BuildStats {
            threads: 1,
            batch_cap: 1,
            order: "explicit".into(),
            batches: Vec::new(),
            wave_pops: 0,
            wave_pruned: 0,
            total_seconds: 0.0,
        };
        assert_eq!(s.label_entries(), 0);
        assert_eq!(s.pruning_hit_rate(), 0.0);
        assert_eq!(s.commit_discard_rate(), 0.0);
        assert!(s.to_json().contains("\"growth_curve\":[]"));
    }
}
