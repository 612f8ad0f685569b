//! Golden outputs: the clustering this repository produces on one small
//! generated corpus, pinned bit for bit (member lists, outliers, `G` as raw
//! bits, iteration counts) in `tests/fixtures/golden_outputs.txt`.
//!
//! Covers the step-1 sweep on both storages it picks for itself
//! (`cluster_batch` at K = 8 runs the dense sweep, K = 24 the cluster
//! index), an incremental `NoveltyPipeline` window run, and a 3-shard
//! stitched `ShardedPipeline` run at several thread counts.
//!
//! A change that is meant to alter the clustering regenerates the fixture
//! with `NIDC_BLESS_GOLDEN=1 cargo test --test golden_outputs` and says so.

use std::fmt::Write as _;

use khy2006::prelude::*;

const FIXTURE: &str = "tests/fixtures/golden_outputs.txt";

/// Cluster-index rebuilds recorded so far: every run on the index sweep
/// builds one, the dense sweep none.
fn index_rebuilds() -> u64 {
    khy2006::obs::snapshot()
        .counter("nidc_index_rebuilds_total")
        .unwrap_or(0)
}

/// The small corpus every section runs on: the generator's default seed at
/// 5% scale, tokenised without stemming, as `(id, day, tf)`.
fn stream() -> Vec<(DocId, f64, SparseVector)> {
    let corpus = Generator::new(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    })
    .generate();
    let analyzer = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    corpus
        .articles()
        .iter()
        .map(|a| {
            let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
            (DocId(a.id), a.day, tf)
        })
        .collect()
}

fn config(k: usize, threads: usize) -> ClusteringConfig {
    ClusteringConfig {
        k,
        seed: 42,
        threads,
        ..ClusteringConfig::default()
    }
}

fn ids(docs: &[DocId]) -> String {
    docs.iter()
        .map(|d| d.0.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn render(
    out: &mut String,
    label: &str,
    members: &[Vec<DocId>],
    outliers: &[DocId],
    g: f64,
    iterations: usize,
) {
    writeln!(
        out,
        "{label} g={:#018x} iterations={iterations}",
        g.to_bits()
    )
    .unwrap();
    for (p, m) in members.iter().enumerate() {
        writeln!(out, "  c{p}: {}", ids(m)).unwrap();
    }
    writeln!(out, "  outliers: {}", ids(outliers)).unwrap();
}

/// Batch clustering of the first 30 days, on both sides of the storage
/// cutoff.
fn batch_section(out: &mut String, docs: &[(DocId, f64, SparseVector)]) {
    let mut repo = Repository::new(DecayParams::from_spans(7.0, 30.0).unwrap());
    for (id, day, tf) in docs.iter().filter(|(_, day, _)| *day < 30.0) {
        repo.insert(*id, Timestamp(*day), tf.clone()).unwrap();
    }
    repo.advance_to(Timestamp(30.0)).unwrap();
    let vecs = DocVectors::build(&repo);
    for (k, index_side) in [(8, false), (24, true)] {
        let rebuilds = index_rebuilds();
        let c = cluster_batch(&vecs, &config(k, 1)).unwrap();
        assert_eq!(
            index_rebuilds() > rebuilds,
            index_side,
            "K = {k} no longer runs on the intended step-1 storage"
        );
        let label = format!("batch k={k} docs={}", vecs.len());
        render(
            out,
            &label,
            &c.member_lists(),
            c.outliers(),
            c.g(),
            c.iterations(),
        );
    }
}

/// An incremental pipeline over the first 60 days, reclustered every 10
/// days with expiry (β = 7, γ = 21).
fn pipeline_section(out: &mut String, docs: &[(DocId, f64, SparseVector)]) {
    let mut pipeline =
        NoveltyPipeline::new(DecayParams::from_spans(7.0, 21.0).unwrap(), config(24, 1));
    let mut next_window = 10.0;
    for (id, day, tf) in docs.iter().filter(|(_, day, _)| *day < 60.0) {
        while *day >= next_window {
            pipeline.advance_to(Timestamp(next_window)).unwrap();
            let c = pipeline.recluster_incremental().unwrap();
            let label = format!("pipeline day={next_window}");
            render(
                out,
                &label,
                &c.member_lists(),
                c.outliers(),
                c.g(),
                c.iterations(),
            );
            next_window += 10.0;
        }
        pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
    }
}

/// A 3-shard stitched run over the first 60 days at K = 8, reclustered
/// every 20 days; every thread count must render the same text.
fn sharded_section(out: &mut String, docs: &[(DocId, f64, SparseVector)]) {
    let mut renders = Vec::new();
    for threads in [0, 1, 2] {
        let mut text = String::new();
        let mut pipeline = ShardedPipeline::new(
            DecayParams::from_spans(7.0, 21.0).unwrap(),
            config(8, threads),
            3,
        )
        .unwrap();
        let mut next_window = 20.0;
        for (id, day, tf) in docs.iter().filter(|(_, day, _)| *day < 60.0) {
            while *day >= next_window {
                pipeline.advance_to(Timestamp(next_window)).unwrap();
                let m = pipeline.recluster_incremental().unwrap();
                let label = format!("sharded day={next_window}");
                render(
                    &mut text,
                    &label,
                    &m.member_lists(),
                    &m.outliers(),
                    m.g(),
                    m.iterations(),
                );
                let s = m.stitched().expect("3 shards stitch by default");
                let label = format!("stitched day={next_window}");
                render(
                    &mut text,
                    &label,
                    &s.member_lists(),
                    s.outliers(),
                    s.g(),
                    m.iterations(),
                );
                next_window += 20.0;
            }
            pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
        }
        renders.push((threads, text));
    }
    for (threads, text) in &renders[1..] {
        assert!(
            *text == renders[0].1,
            "sharded run at threads={threads} differs from threads={}",
            renders[0].0
        );
    }
    out.push_str(&renders[0].1);
}

#[test]
fn outputs_match_the_golden_fixture() {
    // the recorder only observes; it lets the batch section see which
    // storage each run took
    khy2006::obs::set_enabled(true);
    let docs = stream();
    let mut actual = String::new();
    batch_section(&mut actual, &docs);
    pipeline_section(&mut actual, &docs);
    sharded_section(&mut actual, &docs);

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("NIDC_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    if actual != expected {
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .map_or(actual.lines().count().min(expected.lines().count()), |i| i);
        panic!(
            "clustering output differs from {FIXTURE} at line {}:\n  expected: {:?}\n  actual:   {:?}",
            line + 1,
            expected.lines().nth(line),
            actual.lines().nth(line)
        );
    }
}
