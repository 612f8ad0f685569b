//! End-to-end `--trace` / `--trace-summary` coverage, run against the real
//! `nidc` binary in a subprocess so the process-global trace state is
//! exercised exactly as a user sees it (and cannot be perturbed by other
//! tests sharing this process).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;

fn nidc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nidc"))
}

/// A scratch directory of this process, one per test (`tag`).
fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nidc_trace_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn sharded_stream_trace_is_well_formed_chrome_json() {
    let dir = tmpdir("chrome");
    let corpus = dir.join("corpus.jsonl");
    let trace = dir.join("stream.trace.json");

    let gen = nidc()
        .args(["generate", "--out"])
        .arg(&corpus)
        .args(["--scale", "0.05", "--seed", "3"])
        .output()
        .expect("generate runs");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let run = nidc()
        .args(["stream", "--input"])
        .arg(&corpus)
        .args(["--every", "30", "--k", "6", "--shards", "3", "--trace"])
        .arg(&trace)
        .arg("--trace-summary")
        .output()
        .expect("stream runs");
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );

    // The profile summary lands on stdout and names the window phases.
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("pipeline.recluster"), "{stdout}");
    assert!(stdout.contains("kmeans.iteration"), "{stdout}");

    // The file is valid Chrome trace-event JSON…
    let text = std::fs::read_to_string(&trace).unwrap();
    let v: serde_json::Value = serde_json::from_str(&text).unwrap();
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());

    // …with balanced begin/end per span id…
    let mut open: HashMap<u64, u64> = HashMap::new();
    let (mut begins, mut ends) = (0usize, 0usize);
    for e in events {
        match e["ph"].as_str().unwrap() {
            "B" => {
                begins += 1;
                *open.entry(e["args"]["id"].as_u64().unwrap()).or_insert(0) += 1;
            }
            "E" => {
                ends += 1;
                let n = open.get_mut(&e["args"]["id"].as_u64().unwrap()).unwrap();
                *n -= 1;
            }
            "M" => {}
            ph => panic!("unexpected phase {ph}"),
        }
    }
    assert!(begins > 0);
    assert_eq!(begins, ends, "every begin has its end");
    assert!(open.values().all(|&n| n == 0));

    // …and one labelled lane per shard plus the main lane, so Perfetto
    // renders the fan-out one track per shard.
    for lane in ["main", "shard 0", "shard 1", "shard 2"] {
        assert!(
            events.iter().any(|e| e["ph"].as_str() == Some("M")
                && e["name"].as_str() == Some("thread_name")
                && e["args"]["name"].as_str() == Some(lane)),
            "missing lane {lane}"
        );
    }

    // K-means iterations nest under their window's recluster span: every
    // kmeans.iteration begin has a parent chain reaching shard.recluster.
    let parent_of: HashMap<u64, (u64, &str)> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("B"))
        .map(|e| {
            (
                e["args"]["id"].as_u64().unwrap(),
                (
                    e["args"]["parent"].as_u64().unwrap(),
                    e["name"].as_str().unwrap(),
                ),
            )
        })
        .collect();
    let mut checked = 0;
    for (id, (_, name)) in &parent_of {
        if *name != "kmeans.iteration" {
            continue;
        }
        let mut cur = *id;
        let mut reaches_recluster = false;
        while let Some((parent, name)) = parent_of.get(&cur) {
            if *name == "shard.recluster" {
                reaches_recluster = true;
                break;
            }
            if *parent == 0 {
                break;
            }
            cur = *parent;
        }
        assert!(reaches_recluster, "kmeans.iteration {id} dangles");
        checked += 1;
    }
    assert!(checked > 0, "no kmeans.iteration spans recorded");

    std::fs::remove_dir_all(&dir).ok();
}

/// The JSON layer shows in the profile: the corpus parse, the checkpoint
/// write, and on resume the checkpoint read.
#[test]
fn stream_profile_attributes_corpus_load_and_checkpoint_io() {
    let dir = tmpdir("json_spans");
    let corpus = dir.join("corpus.jsonl");
    let state = dir.join("state.json");
    let gen = nidc()
        .args(["generate", "--out"])
        .arg(&corpus)
        .args(["--scale", "0.05", "--seed", "3"])
        .output()
        .expect("generate runs");
    assert!(gen.status.success());

    let stream = || {
        let run = nidc()
            .args(["stream", "--input"])
            .arg(&corpus)
            .args(["--every", "60", "--k", "6", "--trace-summary", "--state"])
            .arg(&state)
            .output()
            .expect("stream runs");
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        String::from_utf8_lossy(&run.stdout).into_owned()
    };
    let first = stream();
    for span in ["corpus.load_jsonl", "persist.save"] {
        assert!(first.contains(span), "missing {span}: {first}");
    }
    assert!(!first.contains("persist.load"), "{first}");
    let resumed = stream();
    assert!(resumed.contains("persist.load"), "{resumed}");

    std::fs::remove_dir_all(&dir).ok();
}
