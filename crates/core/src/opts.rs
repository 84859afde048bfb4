//! Optimisation toggles (Appendix B of the paper).
//!
//! The paper's ablation study re-runs the experiments with individual
//! optimisations disabled:
//!
//! * *single local sort config* — one kernel configuration provisioned for
//!   ∂̂ keys sorts every small bucket, over-provisioning threads for tiny
//!   buckets;
//! * *no bucket merging* — tiny neighbouring sub-buckets are not merged,
//!   multiplying the number of thread blocks the local sort must schedule;
//! * *no look-ahead* — the scatter writes keys to shared memory one at a
//!   time instead of combining runs of up to three equal digits;
//! * *no thread reduction histogram* — the histogram issues one shared
//!   memory `atomicAdd` per key.
//!
//! The first two are *synergistic*: disabling both is far worse than the
//! product of the individual slowdowns.
//!
//! Beyond the paper's ablation set, one CPU-side toggle controls the hot
//! loop of the real-thread backend: Wassenberg & Sanders' software
//! write-combining.  It defaults on, and turning it off restores the direct
//! per-key scatter that serves as the equivalence baseline of the
//! staged-scatter proptests.

use serde::{Deserialize, Serialize};

/// Which optimisations of the hybrid radix sort are enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Optimizations {
    /// Merge tiny neighbouring sub-buckets below the merge threshold ∂.
    pub bucket_merging: bool,
    /// Use multiple local-sort size classes instead of one ∂̂-sized
    /// configuration.
    pub multiple_local_sort_configs: bool,
    /// Combine scatter writes of up to `lookahead + 1` keys sharing a digit
    /// value (enabled only for detected skew).
    pub lookahead: bool,
    /// Use the register-level thread reduction for the histogram.
    pub thread_reduction_histogram: bool,
    /// Stage scatter writes per digit value in cache-line-sized software
    /// write-combining buffers and flush full lines with one contiguous
    /// copy (see [`crate::SortConfig::scatter_line_bytes`]).  Off restores
    /// the per-key direct scatter.
    pub staged_scatter: bool,
}

impl Optimizations {
    /// All optimisations enabled (the paper's default).
    pub fn all_on() -> Self {
        Optimizations {
            bucket_merging: true,
            multiple_local_sort_configs: true,
            lookahead: true,
            thread_reduction_histogram: true,
            staged_scatter: true,
        }
    }

    /// All optimisations disabled.
    pub fn all_off() -> Self {
        Optimizations {
            bucket_merging: false,
            multiple_local_sort_configs: false,
            lookahead: false,
            thread_reduction_histogram: false,
            staged_scatter: false,
        }
    }

    /// The "single local sort config" ablation.
    pub fn single_local_sort_config() -> Self {
        Optimizations {
            multiple_local_sort_configs: false,
            ..Optimizations::all_on()
        }
    }

    /// The "no bucket merging" ablation.
    pub fn no_bucket_merging() -> Self {
        Optimizations {
            bucket_merging: false,
            ..Optimizations::all_on()
        }
    }

    /// The combined "no merge + single config" ablation (the synergistic
    /// pair).
    pub fn no_merge_single_config() -> Self {
        Optimizations {
            bucket_merging: false,
            multiple_local_sort_configs: false,
            ..Optimizations::all_on()
        }
    }

    /// The "no look-ahead" ablation.
    pub fn no_lookahead() -> Self {
        Optimizations {
            lookahead: false,
            ..Optimizations::all_on()
        }
    }

    /// The "no thread reduction histogram" ablation.
    pub fn no_thread_reduction() -> Self {
        Optimizations {
            thread_reduction_histogram: false,
            ..Optimizations::all_on()
        }
    }

    /// Direct per-key scatter: software write-combining disabled, with the
    /// paper's algorithmic optimisations still on.  This is the "unstaged"
    /// column of `bench_wallclock` and the reference side of the
    /// staged-scatter equivalence proptests.
    pub fn no_staged_scatter() -> Self {
        Optimizations {
            staged_scatter: false,
            ..Optimizations::all_on()
        }
    }

    /// The named ablation variants evaluated in Figures 11–14, in the order
    /// they appear in the paper's legend.
    pub fn ablation_variants() -> Vec<(&'static str, Optimizations)> {
        vec![
            (
                "single local sort config",
                Optimizations::single_local_sort_config(),
            ),
            ("no bucket merging", Optimizations::no_bucket_merging()),
            (
                "no merge + single config",
                Optimizations::no_merge_single_config(),
            ),
            ("no look-ahead", Optimizations::no_lookahead()),
            ("no thread red. histo", Optimizations::no_thread_reduction()),
            ("all optimisations off", Optimizations::all_off()),
        ]
    }
}

impl Default for Optimizations {
    fn default() -> Self {
        Optimizations::all_on()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_everything() {
        let o = Optimizations::default();
        assert!(o.bucket_merging);
        assert!(o.multiple_local_sort_configs);
        assert!(o.lookahead);
        assert!(o.thread_reduction_histogram);
        assert!(o.staged_scatter);
        assert_eq!(o, Optimizations::all_on());
    }

    #[test]
    fn ablation_variants_match_paper_legend() {
        let variants = Optimizations::ablation_variants();
        assert_eq!(variants.len(), 6);
        assert!(!variants[0].1.multiple_local_sort_configs);
        assert!(variants[0].1.bucket_merging);
        assert!(!variants[1].1.bucket_merging);
        assert!(variants[1].1.multiple_local_sort_configs);
        assert!(!variants[2].1.bucket_merging && !variants[2].1.multiple_local_sort_configs);
        assert!(!variants[3].1.lookahead);
        assert!(!variants[4].1.thread_reduction_histogram);
        assert_eq!(variants[5].1, Optimizations::all_off());
    }

    #[test]
    fn all_off_disables_everything() {
        let o = Optimizations::all_off();
        assert!(!o.bucket_merging);
        assert!(!o.multiple_local_sort_configs);
        assert!(!o.lookahead);
        assert!(!o.thread_reduction_histogram);
        assert!(!o.staged_scatter);
    }

    #[test]
    fn hot_loop_toggles_leave_paper_ablations_intact() {
        let s = Optimizations::no_staged_scatter();
        assert!(!s.staged_scatter);
        assert!(s.bucket_merging && s.multiple_local_sort_configs && s.lookahead);
        // The paper's legend stays exactly six entries long.
        assert_eq!(Optimizations::ablation_variants().len(), 6);
    }
}
