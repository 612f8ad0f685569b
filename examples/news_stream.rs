//! On-line news-stream clustering: a producer thread replays the synthetic
//! TDT2-like corpus day by day over a channel; the consumer ingests each
//! day's articles into the [`NoveltyPipeline`] and re-clusters every five
//! days (one "news program" cadence), printing the evolving hot topics —
//! the paper's §5.2 deployment scenario.
//!
//! Run with: `cargo run --release --example news_stream`
//! (set `NIDC_SCALE`, default 0.25, for a bigger/smaller stream)

use std::collections::BTreeMap;
use std::sync::{mpsc, Mutex};
use std::thread;

use khy2006::corpus::TopicId;
use khy2006::prelude::*;

/// One day's worth of articles.
struct DayBatch {
    day: f64,
    articles: Vec<(DocId, TopicId, SparseVector)>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 = std::env::var("NIDC_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let corpus = Generator::new(GeneratorConfig {
        scale,
        ..GeneratorConfig::default()
    })
    .generate();
    println!(
        "streaming {} articles over {} days (scale {scale})\n",
        corpus.len(),
        corpus.articles().last().map_or(0.0, |a| a.day).ceil()
    );

    // Shared topic-name table for display (written by producer, read by
    // consumer — a tiny demonstration of the library being Sync-friendly).
    let names: Mutex<BTreeMap<TopicId, String>> = Mutex::new(BTreeMap::new());
    for t in corpus.topics() {
        names
            .lock()
            .expect("no thread panics while holding the name table")
            .insert(t.id, t.name.clone());
    }

    let (tx, rx) = mpsc::sync_channel::<DayBatch>(4);

    thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        // Producer: tokenise and ship one day at a time.
        let corpus_ref = &corpus;
        scope.spawn(move || {
            let analyzer = Pipeline::raw();
            let mut vocab = Vocabulary::new();
            let mut current = DayBatch {
                day: 0.0,
                articles: Vec::new(),
            };
            for a in corpus_ref.articles() {
                let day = a.day.floor();
                if day > current.day && !current.articles.is_empty() {
                    let done = std::mem::replace(
                        &mut current,
                        DayBatch {
                            day,
                            articles: Vec::new(),
                        },
                    );
                    if tx.send(done).is_err() {
                        return;
                    }
                }
                current.day = day;
                let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
                current.articles.push((DocId(a.id), a.topic, tf));
            }
            let _ = tx.send(current);
        });

        // Consumer: the on-line clustering pipeline.
        let decay = DecayParams::from_spans(7.0, 21.0)?;
        let config = ClusteringConfig {
            k: 16,
            seed: 7,
            ..ClusteringConfig::default()
        };
        let mut pipeline = NoveltyPipeline::new(decay, config);
        let mut topic_of: BTreeMap<DocId, TopicId> = BTreeMap::new();
        let mut last_report = -1.0f64;

        for batch in rx {
            let day = batch.day;
            for (id, topic, _) in &batch.articles {
                topic_of.insert(*id, *topic);
            }
            pipeline.ingest_batch(
                Timestamp(day + 0.99),
                batch.articles.into_iter().map(|(id, _, tf)| (id, tf)),
            )?;
            if day - last_report >= 5.0 {
                last_report = day;
                let clustering = pipeline.recluster_incremental()?;
                // rank clusters by their G-term (hotness)
                let mut hot: Vec<&Cluster> = clustering
                    .clusters()
                    .iter()
                    .filter(|c| c.len() >= 2)
                    .collect();
                hot.sort_by(|a, b| {
                    b.rep()
                        .g_term()
                        .partial_cmp(&a.rep().g_term())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                let names = names
                    .lock()
                    .expect("no thread panics while holding the name table");
                let headline: Vec<String> = hot
                    .iter()
                    .take(3)
                    .map(|c| {
                        // majority ground-truth topic of the cluster, for display
                        let mut counts: BTreeMap<TopicId, usize> = BTreeMap::new();
                        for d in c.members() {
                            if let Some(&t) = topic_of.get(d) {
                                *counts.entry(t).or_insert(0) += 1;
                            }
                        }
                        let top = counts
                            .iter()
                            .max_by_key(|(_, &n)| n)
                            .map(|(t, _)| names.get(t).cloned().unwrap_or_else(|| t.to_string()))
                            .unwrap_or_else(|| "?".into());
                        format!("{} ({} docs)", top, c.len())
                    })
                    .collect();
                println!(
                    "day {:>3}: {} live docs, {} clusters | hot: {}",
                    day as u32,
                    pipeline.repository().len(),
                    clustering.non_empty_clusters(),
                    headline.join(" · ")
                );
            }
        }
        Ok(())
    })?;
    Ok(())
}
