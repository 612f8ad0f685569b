//! Golden JSON bytes: the exact text this repository writes for a 3-shard
//! checkpoint, a single-pipeline checkpoint, a generated corpus and one
//! lifecycle-event line, pinned as `(length, FNV-1a digest)` in
//! `tests/fixtures/golden_json.txt`.
//!
//! The JSON layer may change how it produces the text, never the text: a
//! checkpoint written by one build must load in another, and the corpus
//! and event streams are read by external tools. A change that is meant to
//! alter the bytes regenerates the fixture with
//! `NIDC_BLESS_GOLDEN=1 cargo test --test golden_json` and says so.
//!
//! Also checks that writing straight from each persisted type gives the
//! same text as writing its `Value` tree, and that floats, written without
//! the float formatter when they are integral, still read as `Display`
//! writes them.

use std::fmt::Write as _;

use khy2006::core::{LineageTracker, PipelineState, ShardedPipelineState};
use khy2006::corpus::TopicInfo;
use khy2006::prelude::*;
use proptest::prelude::*;
use serde::Serialize;

const FIXTURE: &str = "tests/fixtures/golden_json.txt";

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin(out: &mut String, label: &str, bytes: &[u8]) {
    writeln!(
        out,
        "{label} len={} fnv={:#018x}",
        bytes.len(),
        fnv1a(bytes)
    )
    .unwrap();
}

/// The generator's default seed at 5% scale.
fn corpus() -> Corpus {
    Generator::new(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    })
    .generate()
}

/// The corpus tokenised without stemming, as `(id, day, tf)`, first 60 days.
fn stream(corpus: &Corpus) -> Vec<(DocId, f64, SparseVector)> {
    let analyzer = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    corpus
        .articles()
        .iter()
        .filter(|a| a.day < 60.0)
        .map(|a| {
            let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
            (DocId(a.id), a.day, tf)
        })
        .collect()
}

fn config(k: usize) -> ClusteringConfig {
    ClusteringConfig {
        k,
        seed: 42,
        threads: 1,
        ..ClusteringConfig::default()
    }
}

/// A pipeline at K = 24 reclustered every 10 days (β = 7, γ = 21), plus
/// the lifecycle events a tracker reports over its windows.
fn run_pipeline(docs: &[(DocId, f64, SparseVector)]) -> (NoveltyPipeline, Vec<String>) {
    let mut pipeline =
        NoveltyPipeline::new(DecayParams::from_spans(7.0, 21.0).unwrap(), config(24));
    let mut tracker = LineageTracker::new();
    let mut events = Vec::new();
    let mut next_window = 10.0;
    for (id, day, tf) in docs {
        while *day >= next_window {
            pipeline.advance_to(Timestamp(next_window)).unwrap();
            let c = pipeline.recluster_incremental().unwrap();
            events.extend(
                tracker
                    .observe_clustering(&c)
                    .iter()
                    .map(|e| e.to_json_line()),
            );
            next_window += 10.0;
        }
        pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
    }
    (pipeline, events)
}

/// A 3-shard stitched pipeline at K = 8 reclustered every 20 days.
fn run_sharded(docs: &[(DocId, f64, SparseVector)]) -> ShardedPipeline {
    let mut pipeline =
        ShardedPipeline::new(DecayParams::from_spans(7.0, 21.0).unwrap(), config(8), 3).unwrap();
    let mut next_window = 20.0;
    for (id, day, tf) in docs {
        while *day >= next_window {
            pipeline.advance_to(Timestamp(next_window)).unwrap();
            pipeline.recluster_incremental().unwrap();
            next_window += 20.0;
        }
        pipeline.ingest(*id, Timestamp(*day), tf.clone()).unwrap();
    }
    pipeline
}

#[test]
fn json_bytes_match_the_golden_fixture() {
    let corpus = corpus();
    let docs = stream(&corpus);
    let mut actual = String::new();

    let mut json = Vec::new();
    run_sharded(&docs).save_json(&mut json).unwrap();
    pin(&mut actual, "sharded checkpoint", &json);

    let (pipeline, events) = run_pipeline(&docs);
    let mut json = Vec::new();
    pipeline.save_json(&mut json).unwrap();
    pin(&mut actual, "pipeline checkpoint", &json);

    let mut jsonl = Vec::new();
    corpus.save_jsonl(&mut jsonl).unwrap();
    pin(&mut actual, "corpus jsonl", &jsonl);

    // a continuation carries the one float field of the event wire format
    let line = events
        .iter()
        .find(|l| l.contains("\"kind\":\"continuation\""))
        .expect("a lineage continues across windows");
    pin(&mut actual, "event line", line.as_bytes());

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(FIXTURE);
    if std::env::var_os("NIDC_BLESS_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap();
    assert_eq!(actual, expected, "JSON bytes differ from {FIXTURE}");
}

/// `to_string` of `x` and of its `Value` tree are the same text.
fn assert_same_text<T: Serialize>(label: &str, x: &T) {
    let direct = serde_json::to_string(x).unwrap();
    let tree = serde_json::to_string(&serde_json::to_value(x).unwrap()).unwrap();
    assert!(
        direct == tree,
        "{label}: direct write differs from the tree"
    );
}

#[test]
fn direct_write_matches_the_value_tree_for_every_persisted_type() {
    let corpus = corpus();
    let docs = stream(&corpus);

    let sharded: ShardedPipelineState = run_sharded(&docs).to_state();
    assert!(sharded.lineage.is_some(), "the lineage tracker ran");
    assert_same_text("ShardedPipelineState", &sharded);
    assert_same_text("ShardState", &sharded.shard_states[0]);
    assert_same_text("ConfigState", &sharded.config);
    let lineage = sharded.lineage.as_ref().unwrap();
    assert_same_text("LineageState", lineage);
    assert_same_text("LineageSlotState", &lineage.slots[0]);

    let single: PipelineState = run_pipeline(&docs).0.to_state();
    assert_same_text("PipelineState", &single);
    assert_same_text("RepositoryState", &single.repository);
    assert_same_text("DocState", &single.repository.docs[0]);

    let topics: &[TopicInfo] = corpus.topics();
    assert_same_text("Vec<TopicInfo>", &topics.to_vec());
    assert_same_text("TopicId", &topics[0].id);
    assert_same_text("Article", &corpus.articles()[0]);
}

/// The float text of the JSON layer as `Display` gives it: `.0` appended to
/// integral values, `null` for NaN and ±∞.
fn display_json(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_owned();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        s + ".0"
    }
}

/// Values at the edges of the float text: signed zeros, NaN, ±∞,
/// subnormals, 1e-7 (long in `Display`), and the integral values around the
/// 2^53 bound of the integral fast path and at 2^60.
const EDGES: [f64; 16] = [
    0.0,
    -0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 4.0,
    f64::from_bits(1),
    1e-7,
    -1e-7,
    9_007_199_254_740_991.0,
    9_007_199_254_740_992.0,
    9_007_199_254_740_994.0,
    -9_007_199_254_740_992.0,
    1_152_921_504_606_846_976.0,
    -1_152_921_504_606_846_976.0,
    f64::MAX,
];

/// Floats of every kind: the [`EDGES`], raw bit patterns, integral values
/// up to 2^61, integral values a few units around each power of two from
/// 2^40 to 2^62, and decimal fractions.
fn any_float() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..EDGES.len()).prop_map(|i| EDGES[i]),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        (-(1i64 << 61)..(1i64 << 61)).prop_map(|i| i as f64),
        (40i32..63, -8i64..9, prop::bool::ANY).prop_map(|(e, d, neg)| {
            let v = 2f64.powi(e) + d as f64;
            if neg {
                -v
            } else {
                v
            }
        }),
        (-1_000_000i64..1_000_000, -12i32..12).prop_map(|(m, e)| m as f64 * 10f64.powi(e)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn float_text_matches_display(v in any_float()) {
        prop_assert_eq!(serde_json::to_string(&v).unwrap(), display_json(v));
        prop_assert_eq!(
            serde_json::to_string(&serde_json::Value::Number(serde_json::Number::F64(v))).unwrap(),
            display_json(v)
        );
    }
}
