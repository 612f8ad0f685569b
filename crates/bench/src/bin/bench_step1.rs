//! **Step-1 sweep benchmark** — dense representatives vs sparse
//! representatives + term→cluster inverted index, on the Experiment-1
//! workload (the standard generated corpus, β = 7, γ = 30).
//!
//! The extended K-means spends nearly all of its time in step 1, scoring
//! every document against every cluster representative. The dense backend
//! pays K per-cluster dot products per document — O(K·nnz(φ_d)) — while the
//! sparse backend's [`ClusterIndex::dot_all`] accumulates all K dots in one
//! pass over φ_d's terms — O(Σ_t |postings(t)|). This binary times the two
//! sweeps over identical mirrored state (checked bit-identical first) and
//! reports the memory footprints: dense K·|V|·8 bytes vs the sparse reps'
//! Σnnz·16 and the index's postings·16. These are the two storages
//! `cluster_with_initial` chooses between per run (`K · avg nnz(φ)`).
//!
//! Writes `results/BENCH_step1.json` by default; override with
//! `--json <path>`. With `--metrics <path>` (`--metrics-format jsonl|prom`),
//! exports one instrumentation snapshot covering the whole run — the
//! `nidc_index_postings_touched_total` vs `nidc_kmeans_step1_candidates_total`
//! pair quantifies the inverted-index saving directly. Env: `NIDC_SCALE`
//! scales the corpus (default 1.0 ≈ the paper's 7,578-document subset),
//! `NIDC_SWEEPS` the number of timed sweep repetitions (default 5).

use std::time::{Duration, Instant};

use nidc_bench::{
    metrics_from_args, scale_from_env, trace_from_args, write_json_report, PreparedCorpus,
};
use nidc_core::{cluster_batch, ClusteringConfig};
use nidc_forgetting::{DecayParams, Timestamp};
use nidc_similarity::{ClusterIndex, ClusterRep, DocVectors, RepBackend};

fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

fn main() {
    let mut exporter = metrics_from_args();
    let trace = trace_from_args();
    let scale = scale_from_env(1.0);
    let sweeps: usize = std::env::var("NIDC_SWEEPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);

    println!("step-1 sweep: dense reps vs sparse reps + inverted index (expt1 workload)");
    println!(
        "host hardware threads: {}\n",
        nidc_parallel::available_threads()
    );

    let prep = PreparedCorpus::standard(scale);
    let indices: Vec<usize> = (0..prep.corpus.len()).collect();
    let clock = prep.corpus.articles().last().map_or(0.0, |a| a.day) + 0.01;
    let decay = DecayParams::from_spans(7.0, 30.0).expect("paper setting");
    let repo = prep.build_repository(&indices, decay, Timestamp(clock));
    let vecs = DocVectors::build(&repo);
    let ids = vecs.ids();
    let vocab_dim = vecs.vocab_dim();
    println!(
        "{} documents, |V| = {vocab_dim}, {} sweep repetitions per backend\n",
        ids.len(),
        sweeps
    );

    let mut results = Vec::new();
    for k in [8usize, 16, 32] {
        // A realistic topical assignment: run the clusterer itself, then
        // mirror its clusters into dense reps, sparse reps, and the index.
        let config = ClusteringConfig {
            k,
            seed: 42,
            threads: 1,
            ..ClusteringConfig::default()
        };
        let clustering = cluster_batch(&vecs, &config).expect("K ≥ 1");
        let mut dense = vec![ClusterRep::new_with(RepBackend::Dense); k];
        let mut sparse = vec![ClusterRep::new_with(RepBackend::Sparse); k];
        let mut index = ClusterIndex::new(k);
        for (q, members) in clustering.member_lists().iter().enumerate() {
            for d in members {
                let phi = vecs.phi(*d).expect("member has a vector");
                dense[q].add(phi);
                sparse[q].add(phi);
                index.add(q, phi);
            }
        }

        // correctness gate: the index rows must be bit-identical to the
        // dense dots before any number is reported
        let mut row = vec![0.0; k];
        for &d in &ids {
            let phi = vecs.phi(d).unwrap();
            index.dot_all(phi, &mut row);
            for (q, rep) in dense.iter().enumerate() {
                assert_eq!(
                    row[q],
                    rep.dot_doc(phi),
                    "index dot differs from dense at k={k} cluster {q}"
                );
            }
        }

        // the timed sweeps: score every document against all K clusters
        let (dense_acc, t_dense) = time(|| {
            let mut acc = 0.0f64;
            for _ in 0..sweeps {
                for &d in &ids {
                    let phi = vecs.phi(d).unwrap();
                    for rep in &dense {
                        acc += rep.dot_doc(phi);
                    }
                }
            }
            acc
        });
        let (index_acc, t_index) = time(|| {
            let mut acc = 0.0f64;
            let mut row = vec![0.0; k];
            for _ in 0..sweeps {
                for &d in &ids {
                    index.dot_all(vecs.phi(d).unwrap(), &mut row);
                    for &v in &row {
                        acc += v;
                    }
                }
            }
            acc
        });
        assert_eq!(dense_acc, index_acc, "sweep accumulators must agree");

        let docs_swept = (ids.len() * sweeps) as f64;
        let dense_docs_per_sec = docs_swept / t_dense.as_secs_f64().max(1e-9);
        let index_docs_per_sec = docs_swept / t_index.as_secs_f64().max(1e-9);
        let sweep_speedup = t_dense.as_secs_f64() / t_index.as_secs_f64().max(1e-9);

        // memory: dense is K vocabulary-length f64 arrays; sparse stores
        // (TermId, f64) pairs, as does each index posting
        let dense_rep_bytes = k * vocab_dim * 8;
        let sparse_nnz: usize = sparse.iter().map(ClusterRep::nnz).sum();
        let sparse_rep_bytes = sparse_nnz * 16;
        // the index costs one Vec header per term slot (the O(|V|) spine,
        // like a single dense rep) plus 16 B per stored posting
        let postings_bytes =
            index.term_slots() * std::mem::size_of::<Vec<(u32, f64)>>() + index.postings_len() * 16;
        let mem_reduction = dense_rep_bytes as f64 / sparse_rep_bytes.max(1) as f64;

        println!("K = {k}");
        println!(
            "  sweep       dense {:>9.1} ms ({dense_docs_per_sec:>10.0} docs/s)   index {:>9.1} ms ({index_docs_per_sec:>10.0} docs/s)   speedup {sweep_speedup:.2}x",
            t_dense.as_secs_f64() * 1e3,
            t_index.as_secs_f64() * 1e3,
        );
        println!(
            "  memory      dense reps {:>11} B   sparse reps {:>9} B ({mem_reduction:.1}x smaller)   postings {:>9} B\n",
            dense_rep_bytes, sparse_rep_bytes, postings_bytes,
        );

        results.push(serde_json::json!({
            "k": k,
            "docs": ids.len(),
            "vocab_dim": vocab_dim,
            "sweeps": sweeps,
            "dense_sweep_ms": t_dense.as_secs_f64() * 1e3,
            "index_sweep_ms": t_index.as_secs_f64() * 1e3,
            "dense_docs_per_sec": dense_docs_per_sec,
            "index_docs_per_sec": index_docs_per_sec,
            "sweep_speedup": sweep_speedup,
            "dense_rep_bytes": dense_rep_bytes,
            "sparse_rep_bytes": sparse_rep_bytes,
            "index_postings_bytes": postings_bytes,
            "rep_memory_reduction": mem_reduction,
        }));
    }

    if let Some(m) = exporter.as_mut() {
        m.record_window(&[("scale", scale)])
            .expect("write metrics snapshot");
        m.finish().expect("flush metrics export");
    }
    if let Some(t) = trace {
        t.finish(&mut std::io::stdout())
            .expect("write trace output");
    }

    let payload = serde_json::json!({
        "scale": scale,
        "results": results,
    });
    write_json_report("step1_sweep", Some("results/BENCH_step1.json"), payload);
}
