//! Per-layer numbers of the traced row: span totals from `obs::profile`,
//! registry counters and allocation tallies, named after the module that
//! does the work.

use std::collections::BTreeMap;

use nidc_obs::{Profile, ProfileNode};

use crate::replay::{Outcome, TOP_LEVEL_SPANS};
use crate::stats::unattributed_ms;
use crate::Metric;

/// Totals of every span with one name, wherever it sits in the tree.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotals {
    /// Spans merged.
    pub calls: u64,
    /// Σ durations, ms.
    pub total_ms: f64,
    /// Σ self times, ms.
    pub self_ms: f64,
    /// Σ allocations inside the spans.
    pub allocs: u64,
}

/// Span totals keyed by name: all nodes of the profile tree, and the root
/// nodes alone (top-level spans).
pub struct Spans {
    all: BTreeMap<&'static str, SpanTotals>,
    roots: BTreeMap<&'static str, SpanTotals>,
}

impl Spans {
    /// Aggregates a profile tree by span name.
    pub fn from_profile(profile: &Profile) -> Self {
        fn walk(node: &ProfileNode, all: &mut BTreeMap<&'static str, SpanTotals>) {
            add(all, node);
            for child in &node.children {
                walk(child, all);
            }
        }
        fn add(map: &mut BTreeMap<&'static str, SpanTotals>, node: &ProfileNode) {
            let t = map.entry(node.name).or_default();
            t.calls += node.calls;
            t.total_ms += node.total_ns as f64 / 1e6;
            t.self_ms += node.self_ns as f64 / 1e6;
            t.allocs += node.total_allocs;
        }
        let mut all = BTreeMap::new();
        let mut roots = BTreeMap::new();
        for root in &profile.roots {
            add(&mut roots, root);
            walk(root, &mut all);
        }
        Self { all, roots }
    }

    /// Totals over every span named any of `names`.
    pub fn get(&self, names: &[&str]) -> SpanTotals {
        names
            .iter()
            .filter_map(|n| self.all.get(n))
            .fold(SpanTotals::default(), |a, t| SpanTotals {
                calls: a.calls + t.calls,
                total_ms: a.total_ms + t.total_ms,
                self_ms: a.self_ms + t.self_ms,
                allocs: a.allocs + t.allocs,
            })
    }

    /// Total ms of the root spans named `name`.
    pub fn root_ms(&self, name: &str) -> f64 {
        self.roots.get(name).map_or(0.0, |t| t.total_ms)
    }
}

/// Replay-row figures the per-layer report needs besides the traced
/// profile.
pub struct Rows {
    /// Untraced replay at the default thread count, docs/s.
    pub default_docs_per_s: f64,
    /// Untraced replay at `threads: 1`, docs/s.
    pub one_thread_docs_per_s: f64,
    /// Traced replay at the default thread count, docs/s.
    pub traced_docs_per_s: f64,
    /// Distinct terms after tokenising.
    pub vocab_terms: usize,
    /// Size of the last checkpoint written, bytes (0 without checkpoints).
    pub checkpoint_bytes: u64,
    /// Time `load_json` took on that checkpoint, ms (0 without checkpoints).
    pub checkpoint_load_ms: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Every per-layer metric of the traced row, in report order.
pub fn per_layer(spans: &Spans, traced: &Outcome, rows: &Rows) -> Vec<Metric> {
    let counter = |name: &str| traced.counters.get(name).copied().unwrap_or(0) as f64;
    let ms = |names: &[&str]| spans.get(names).total_ms;
    let lineage = spans.get(&["pipeline.lineage", "sharded.lineage"]);
    let live_docs: Vec<f64> = traced.live_docs.iter().map(|&d| d as f64).collect();
    let top_level: Vec<f64> = TOP_LEVEL_SPANS.iter().map(|n| spans.root_ms(n)).collect();

    let m = Metric::new;
    vec![
        m("corpus.load_ms", ms(&["bench.load"]), "ms"),
        m("textproc.analyze_ms", ms(&["bench.analyze"]), "ms"),
        m("textproc.vocab_terms", rows.vocab_terms as f64, "count"),
        m(
            "textproc.allocs",
            spans.get(&["bench.analyze"]).allocs as f64,
            "count",
        ),
        m("forgetting.ingest_ms", ms(&["bench.ingest"]), "ms"),
        m("forgetting.live_docs_mean", mean(&live_docs), "docs"),
        m("forgetting.advance_ms", ms(&["bench.advance"]), "ms"),
        m(
            "forgetting.expire_ms",
            ms(&["pipeline.expire", "sharded.expire"]),
            "ms",
        ),
        m(
            "forgetting.repository_bytes",
            traced.repository_bytes_max as f64,
            "bytes",
        ),
        m(
            "similarity.build_vectors_ms",
            ms(&["pipeline.build_vectors"]),
            "ms",
        ),
        m("similarity.index_rebuild_ms", ms(&["index.rebuild"]), "ms"),
        m(
            "similarity.index_rebuilds",
            counter("nidc_index_rebuilds_total"),
            "count",
        ),
        m(
            "similarity.postings_touched",
            counter("nidc_index_postings_touched_total"),
            "count",
        ),
        m("algorithm.kmeans_ms", ms(&["kmeans.run"]), "ms"),
        m("algorithm.step1_ms", ms(&["kmeans.step1"]), "ms"),
        m(
            "algorithm.iteration_self_ms",
            spans.get(&["kmeans.iteration"]).self_ms,
            "ms",
        ),
        m(
            "algorithm.iterations",
            spans.get(&["kmeans.iteration"]).calls as f64,
            "count",
        ),
        m(
            "algorithm.step1_candidates",
            counter("nidc_kmeans_step1_candidates_total"),
            "count",
        ),
        m(
            "algorithm.moved_per_candidate",
            ratio(
                counter("nidc_kmeans_moved_docs_total"),
                counter("nidc_kmeans_step1_candidates_total"),
            ),
            "ratio",
        ),
        m(
            "algorithm.step1_allocs",
            spans.get(&["kmeans.step1"]).allocs as f64,
            "count",
        ),
        m(
            "parallel.fanouts",
            counter("nidc_parallel_fanouts_total"),
            "count",
        ),
        m(
            "parallel.speedup_vs_1thread",
            ratio(rows.default_docs_per_s, rows.one_thread_docs_per_s),
            "ratio",
        ),
        m("lineage.observe_ms", lineage.total_ms, "ms"),
        m("lineage.allocs", lineage.allocs as f64, "count"),
        m("merge.stitch_ms", ms(&["sharded.stitch"]), "ms"),
        m(
            "merge.stitch_merge_ratio",
            ratio(traced.stitch_merges as f64, traced.stitch_inputs as f64),
            "ratio",
        ),
        m("shard.docs_skew", mean(&traced.shard_skew), "ratio"),
        m("persist.save_ms", ms(&["bench.save"]), "ms"),
        m(
            "persist.checkpoint_bytes",
            rows.checkpoint_bytes as f64,
            "bytes",
        ),
        m("persist.load_ms", rows.checkpoint_load_ms, "ms"),
        m("obs.export_ms", ms(&["bench.export"]), "ms"),
        m(
            "obs.trace_overhead",
            ratio(rows.traced_docs_per_s, rows.default_docs_per_s),
            "ratio",
        ),
        m("bench.replay_ms", traced.replay_ms, "ms"),
        m("bench.window_ms", spans.root_ms("bench.window"), "ms"),
        m(
            "bench.unattributed_ms",
            unattributed_ms(traced.replay_ms, &top_level),
            "ms",
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nidc_obs::trace::{self, span};

    #[test]
    fn spans_aggregate_by_name_and_top_level_spans_are_roots() {
        trace::set_trace_enabled(true);
        for _ in 0..2 {
            let _w = span("bench.window");
            let _r = span("bench.recluster");
            let _a = span("kmeans.step1");
        }
        {
            let _i = span("bench.ingest");
            let _nested = span("bench.window"); // not a root: excluded from root_ms
        }
        trace::set_trace_enabled(false);
        let spans = Spans::from_profile(&Profile::from_events(&trace::drain()));

        assert_eq!(spans.get(&["kmeans.step1"]).calls, 2);
        assert_eq!(spans.get(&["bench.window"]).calls, 3);
        let both = spans.get(&["bench.window", "kmeans.step1"]);
        assert_eq!(both.calls, 5);
        let window = spans.get(&["bench.window"]);
        assert!(spans.root_ms("bench.window") <= window.total_ms);
        assert!(spans.root_ms("bench.window") >= spans.get(&["bench.recluster"]).total_ms);
        assert_eq!(spans.root_ms("bench.save"), 0.0);
        assert_eq!(spans.get(&["no.such.span"]), SpanTotals::default());
    }
}
