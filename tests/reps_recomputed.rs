//! The extended K-means rebuilds a representative exactly only when a sweep
//! touched its membership (plus every cluster in a run's first iteration).
//! `nidc_kmeans_reps_recomputed_total` counts those rebuilds; on warm-started
//! windows it must stay below `K × iterations`, the count when every cluster
//! is rebuilt after every sweep.
//!
//! The counter is process-wide, so this binary holds a single test.

use khy2006::prelude::*;

fn recomputed() -> u64 {
    khy2006::obs::snapshot()
        .counter("nidc_kmeans_reps_recomputed_total")
        .unwrap_or(0)
}

#[test]
fn warm_windows_recompute_only_touched_clusters() {
    khy2006::obs::set_enabled(true);
    let corpus = Generator::new(GeneratorConfig {
        scale: 0.05,
        ..GeneratorConfig::default()
    })
    .generate();
    let analyzer = Pipeline::raw();
    let mut vocab = Vocabulary::new();
    let config = ClusteringConfig {
        k: 24,
        seed: 42,
        threads: 1,
        ..ClusteringConfig::default()
    };
    let mut pipeline = NoveltyPipeline::new(DecayParams::from_spans(7.0, 21.0).unwrap(), config);

    let (mut warm_recomputed, mut warm_bound, mut multi_iteration_windows) = (0u64, 0u64, 0);
    let mut next_window = 10.0;
    let mut windows = 0;
    for a in corpus.articles().iter().filter(|a| a.day < 90.0) {
        while a.day >= next_window {
            pipeline.advance_to(Timestamp(next_window)).unwrap();
            let before = recomputed();
            let c = pipeline.recluster_incremental().unwrap();
            let spent = recomputed() - before;
            let k = c.clusters().len() as u64;
            let bound = k * c.iterations() as u64;
            // the first iteration rebuilds every cluster, later ones at most
            // every cluster
            assert!(
                (k..=bound).contains(&spent),
                "window {next_window}: {spent} rebuilds outside [{k}, {bound}]"
            );
            if windows > 0 {
                warm_recomputed += spent;
                warm_bound += bound;
                if c.iterations() > 1 {
                    multi_iteration_windows += 1;
                }
            }
            windows += 1;
            next_window += 10.0;
        }
        let tf = analyzer.analyze(&a.text, &mut vocab).to_sparse();
        pipeline.ingest(DocId(a.id), Timestamp(a.day), tf).unwrap();
    }
    assert!(
        multi_iteration_windows > 0,
        "no warm window took a second iteration; the check would be vacuous"
    );
    assert!(
        warm_recomputed < warm_bound,
        "warm windows rebuilt {warm_recomputed} representatives, K × iterations = {warm_bound}"
    );
}
