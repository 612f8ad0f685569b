//! Set-up and one closed-loop replay of the stream through the public API
//! of `nidc-corpus`, `nidc-textproc` and `nidc_core::ShardedPipeline`.
//!
//! Every public call the replay makes is wrapped in a benchmark-side
//! `nidc_obs` span (inert unless tracing is on). The replay clock runs
//! from the first ingest to the last clustering returned, including the
//! checkpoint writes and exports; the benchmark's own output checks run
//! between windows with the clock stopped.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use nidc_core::{ClusteringConfig, MergedClustering, ShardedPipeline};
use nidc_corpus::Corpus;
use nidc_eval::{evaluate, Labeling, MARKING_THRESHOLD};
use nidc_forgetting::{DecayParams, Timestamp};
use nidc_obs::trace::span;
use nidc_textproc::{DocId, Pipeline, SparseVector, Vocabulary};

use crate::stats::Fnv64;
use crate::workload::{Workload, BETA_DAYS, CLUSTER_SEED, GAMMA_DAYS};

/// The benchmark's top-level spans inside the replay clock. Their totals
/// plus the unattributed remainder add up to the replay wall time.
pub const TOP_LEVEL_SPANS: [&str; 4] =
    ["bench.ingest", "bench.window", "bench.save", "bench.export"];

/// Registry counters summed over a traced replay.
pub const COUNTERS: [&str; 5] = [
    "nidc_index_postings_touched_total",
    "nidc_index_rebuilds_total",
    "nidc_kmeans_step1_candidates_total",
    "nidc_kmeans_moved_docs_total",
    "nidc_parallel_fanouts_total",
];

/// A tokenised corpus and a fresh pipeline for it. The article text is
/// dropped once tokenised, so that it does not count in the replay's
/// memory.
pub struct Setup {
    /// The stream in arrival order: (id, day, term-frequency vector).
    pub docs: Vec<(DocId, f64, SparseVector)>,
    /// Ground-truth topic of every document, for the quality check.
    pub topics: HashMap<DocId, u32>,
    /// Distinct terms after tokenising every article.
    pub vocab_terms: usize,
    /// The empty pipeline the replay feeds.
    pub pipeline: ShardedPipeline,
    /// Wall time of load + tokenise + construct, in seconds.
    pub seconds: f64,
}

/// Loads the corpus JSONL, tokenises every article and constructs the
/// pipeline: the set-up a process pays before it can ingest.
pub fn setup(corpus_path: &Path, wl: &Workload, threads: usize) -> io::Result<Setup> {
    let t0 = Instant::now();
    let _setup = span("bench.setup");
    let corpus = {
        let _s = span("bench.load");
        Corpus::load_jsonl(File::open(corpus_path)?)?
    };
    let (docs, vocab_terms) = {
        let _s = span("bench.analyze");
        let analyzer = Pipeline::raw();
        let mut vocab = Vocabulary::new();
        let docs: Vec<(DocId, f64, SparseVector)> = corpus
            .articles()
            .iter()
            .map(|a| {
                let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
                (DocId(a.id), a.day, tf)
            })
            .collect();
        (docs, vocab.len())
    };
    let topics = corpus
        .articles()
        .iter()
        .map(|a| (DocId(a.id), a.topic.0))
        .collect();
    drop(corpus);
    let pipeline = {
        let _s = span("bench.construct");
        let decay = DecayParams::from_spans(BETA_DAYS, GAMMA_DAYS)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        let config = ClusteringConfig {
            k: wl.k,
            seed: CLUSTER_SEED,
            threads,
            ..ClusteringConfig::default()
        };
        ShardedPipeline::new(decay, config, wl.shards)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?
    };
    drop(_setup);
    Ok(Setup {
        docs,
        topics,
        vocab_terms,
        pipeline,
        seconds: t0.elapsed().as_secs_f64(),
    })
}

/// Calls into the pipeline, and how many returned `Err`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Calls {
    /// `ingest`/`advance_to`/`recluster_incremental`/`save_json` calls made.
    pub attempted: u64,
    /// Of those, the ones that returned `Err`.
    pub failed: u64,
}

impl Calls {
    fn record<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        self.failed += u64::from(r.is_err());
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Calls) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Everything one replay measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Replay wall time (first ingest to last clustering, checks excluded).
    pub replay_ms: f64,
    /// Per window: `advance_to` call to `recluster_incremental` return.
    pub window_ms: Vec<f64>,
    /// Per `ingest` call.
    pub ingest_us: Vec<f64>,
    /// Per window: micro-F1 of the (stitched) clustering of the live
    /// documents against their ground-truth topics.
    pub micro_f1: Vec<f64>,
    /// Per window: live documents after the refresh.
    pub live_docs: Vec<usize>,
    /// Per window: max ÷ mean live documents per shard.
    pub shard_skew: Vec<f64>,
    /// Σ clusters merged away by stitching, and Σ clusters stitching saw.
    pub stitch_merges: usize,
    /// See `stitch_merges`.
    pub stitch_inputs: usize,
    /// Summed [`COUNTERS`] deltas (only when observed).
    pub counters: BTreeMap<&'static str, u64>,
    /// Largest `nidc_mem_repository_bytes` sample (only when observed).
    pub repository_bytes_max: u64,
    /// Calls made and failed.
    pub calls: Calls,
    /// Digest of the last window's assignment.
    pub digest: Option<u64>,
    /// Failed output checks, one line each.
    pub check_failures: Vec<String>,
    /// The last checkpoint written (service workloads).
    pub checkpoint: Option<PathBuf>,
}

/// Replays the whole stream through `setup.pipeline`, moving the vectors of
/// `setup.docs` into it (`setup.docs` is left empty). `work_dir` receives
/// the checkpoint and exports of service workloads; `observe` samples the
/// registry counters and gauges after every window (the traced row).
pub fn replay(
    setup: &mut Setup,
    wl: &Workload,
    work_dir: &Path,
    observe: bool,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let ticks = wl.ticks();
    out.window_ms.reserve(ticks.len());
    out.ingest_us.reserve(setup.docs.len());

    // Service mode: exports and a checkpoint file, opened before the clock
    // starts.
    let checkpoint = wl.service.then(|| work_dir.join("checkpoint.json"));
    let mut exporter = if wl.service {
        let path = work_dir.join("metrics.jsonl");
        Some(nidc_obs::MetricsExporter::create(
            path,
            nidc_obs::MetricsFormat::Jsonl,
        )?)
    } else {
        None
    };
    let mut events = if wl.service {
        Some(nidc_obs::EventSession::create(
            work_dir.join("events.jsonl"),
        )?)
    } else {
        None
    };

    // Ingest moves each vector into the pipeline.
    let mut docs = std::mem::take(&mut setup.docs).into_iter().peekable();
    let topics = &setup.topics;
    let pipeline = &mut setup.pipeline;
    let mut prev_counters: BTreeMap<&'static str, u64> = BTreeMap::new();

    for (w, &tick) in ticks.iter().enumerate() {
        let last = w + 1 == ticks.len();

        let clock = Instant::now();
        while let Some((id, day, tf)) = docs.next_if(|d| last || d.1 < tick) {
            let t0 = Instant::now();
            let r = {
                let _s = span("bench.ingest");
                pipeline.ingest(id, Timestamp(day), tf)
            };
            out.ingest_us.push(t0.elapsed().as_secs_f64() * 1e6);
            out.calls.record(&r);
        }
        out.replay_ms += clock.elapsed().as_secs_f64() * 1e3;

        let clock = Instant::now();
        let merged = {
            let _s = span("bench.window");
            let advanced = {
                let _s = span("bench.advance");
                pipeline.advance_to(Timestamp(tick))
            };
            out.calls.record(&advanced);
            let r = {
                let _s = span("bench.recluster");
                pipeline.recluster_incremental()
            };
            out.calls.record(&r);
            r.ok()
        };
        let window_ms = clock.elapsed().as_secs_f64() * 1e3;
        out.window_ms.push(window_ms);
        out.replay_ms += window_ms;

        if let Some(path) = &checkpoint {
            let clock = Instant::now();
            let r = {
                let _s = span("bench.save");
                save(pipeline, path)
            };
            out.calls.record(&r);
            out.replay_ms += clock.elapsed().as_secs_f64() * 1e3;
        }

        if observe {
            let snap = nidc_obs::snapshot();
            for name in COUNTERS {
                let now = snap.counter(name).unwrap_or(0);
                let prev = prev_counters.insert(name, now).unwrap_or(0);
                *out.counters.entry(name).or_default() += now.saturating_sub(prev);
            }
            let repo_bytes = snap.gauge("nidc_mem_repository_bytes").unwrap_or(0);
            out.repository_bytes_max = out.repository_bytes_max.max(repo_bytes);
        }

        if let Some(m) = exporter.as_mut() {
            let clock = Instant::now();
            {
                let _s = span("bench.export");
                let meta = [("day", tick), ("docs", pipeline.num_docs() as f64)];
                m.record_window(&meta)?;
                if last {
                    m.finish()?;
                    if let Some(e) = events.take() {
                        e.finish()?;
                    }
                }
            }
            out.replay_ms += clock.elapsed().as_secs_f64() * 1e3;
            // The JSON-lines export zeroes the registry after each line.
            prev_counters.clear();
        }

        match merged {
            Some(merged) => check_window(&mut out, pipeline, &merged, topics, w, last),
            None => out.check_failures.push(format!(
                "window {w} (day {tick}): recluster_incremental failed"
            )),
        }
    }
    if docs.next().is_some() {
        out.check_failures.push("documents left unreplayed".into());
    }
    out.checkpoint = checkpoint;
    Ok(out)
}

/// Writes the pipeline's checkpoint to `path`, replacing the previous one.
fn save(pipeline: &ShardedPipeline, path: &Path) -> io::Result<()> {
    let mut w = BufWriter::new(File::create(path)?);
    pipeline.save_json(&mut w)?;
    w.flush()
}

/// The clustering a user reads: the stitched view when stitching ran,
/// else the merged one. Returns (member lists, outliers).
fn user_view(merged: &MergedClustering) -> (Vec<Vec<DocId>>, Vec<DocId>) {
    match merged.stitched() {
        Some(s) => (s.member_lists(), s.outliers().to_vec()),
        None => (merged.member_lists(), merged.outliers()),
    }
}

/// Digest of the user view's final assignment: every (document, cluster)
/// pair in document order, then the outliers.
pub fn digest(merged: &MergedClustering) -> u64 {
    let (assignment, mut outliers) = match merged.stitched() {
        Some(s) => (s.assignment(), s.outliers().to_vec()),
        None => (merged.assignment(), merged.outliers()),
    };
    outliers.sort_unstable();
    let mut h = Fnv64::default();
    for (doc, cluster) in &assignment {
        h.write_u64(doc.0);
        h.write_u64(cluster.shard as u64);
        h.write_u64(cluster.local as u64);
    }
    h.write_u64(u64::MAX); // separates the members from the outliers
    for doc in outliers {
        h.write_u64(doc.0);
    }
    h.finish()
}

/// The per-window output checks and quality sample.
fn check_window(
    out: &mut Outcome,
    pipeline: &ShardedPipeline,
    merged: &MergedClustering,
    topics: &HashMap<DocId, u32>,
    window: usize,
    last: bool,
) {
    let per_shard: Vec<usize> = pipeline.shards().iter().map(|s| s.num_docs()).collect();
    let mut live: Vec<DocId> = pipeline
        .shards()
        .iter()
        .flat_map(|s| s.repository().doc_ids())
        .collect();
    live.sort_unstable();

    let (members, outliers) = user_view(merged);
    let mut covered: Vec<DocId> = members.iter().flatten().chain(&outliers).copied().collect();
    covered.sort_unstable();
    if covered != live {
        let before = covered.len();
        covered.dedup();
        out.check_failures.push(format!(
            "window {window}: clustering covers {before} entries ({} distinct) for {} live documents",
            covered.len(),
            live.len()
        ));
    }

    let labels: Labeling<u32> = live
        .iter()
        .filter_map(|d| topics.get(d).map(|&t| (*d, t)))
        .collect();
    out.micro_f1
        .push(evaluate(&members, &labels, MARKING_THRESHOLD).micro_f1);
    out.live_docs.push(live.len());
    let mean = live.len() as f64 / per_shard.len() as f64;
    let max = per_shard.iter().copied().max().unwrap_or(0) as f64;
    out.shard_skew
        .push(if mean > 0.0 { max / mean } else { 1.0 });
    if let Some(s) = merged.stitched() {
        out.stitch_merges += s.merges();
        out.stitch_inputs += s.input_clusters();
    }
    if last {
        out.digest = Some(digest(merged));
    }
}

/// Restores the last checkpoint, re-clusters once more on both the
/// restored and the live pipeline, and compares the assignment digests.
/// Returns the load time in milliseconds.
pub fn check_restore(pipeline: &mut ShardedPipeline, checkpoint: &Path) -> Result<f64, String> {
    let clock = Instant::now();
    let restored = File::open(checkpoint).and_then(ShardedPipeline::load_json);
    let load_ms = clock.elapsed().as_secs_f64() * 1e3;
    let mut restored = restored.map_err(|e| format!("load_json of the last checkpoint: {e}"))?;
    let resumed = restored
        .recluster_incremental()
        .map_err(|e| format!("recluster after restore: {e}"))?;
    let live = pipeline
        .recluster_incremental()
        .map_err(|e| format!("recluster of the live pipeline: {e}"))?;
    if digest(&resumed) != digest(&live) {
        return Err(format!(
            "restored checkpoint re-clusters to digest {:016x}, live pipeline to {:016x}",
            digest(&resumed),
            digest(&live)
        ));
    }
    Ok(load_ms)
}
