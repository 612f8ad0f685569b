//! Stream-replay benchmark for the novelty-based incremental clustering
//! pipeline: generate a corpus, then load it, tokenise it and replay it
//! through `ShardedPipeline` the way an on-line deployment would (ingest,
//! advance the clock, re-cluster once per window), checking every output.
//!
//! ```text
//! cargo run --release --manifest-path replaybench/Cargo.toml -- \
//!     --workload daily-k24 --seed 1 --seconds 40 --trace 0
//! ```
//!
//! `--trace 0` replays at `threads: 1` as often as `--seconds` allows (at
//! least three times), each replay on its own corpus derived from `--seed`
//! and in a process of its own, and reports the end-to-end metrics as
//! means or medians over the replays. `--trace 1` runs three rows once each on the `--seed`
//! corpus: untraced at the default thread count, untraced at `threads: 1`,
//! and traced at the default thread count, and reports the per-layer
//! metrics of the traced row. Human-readable lines come first; the last
//! line of standard output is the JSON result. A failed output check exits
//! 1 after printing the result; a usage or I/O error exits 2 without one.
//! See `README.md` for the workloads and the metric map.

mod layers;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use nidc_corpus::{Generator, GeneratorConfig};
use replay::{check_restore, replay, setup, Calls, Outcome};
use workload::Workload;

/// Untraced replays a `--trace 0` run makes at least, however short
/// `--seconds` is.
const MIN_REPLAYS: usize = 3;

/// Thread count of the end-to-end replays. On a virtual machine whose
/// second vCPU is shared, the default thread count's per-call worker
/// spawns make replay time swing by up to 2x with the host's load, while
/// `threads: 1` stays within about 10 %; the default thread count is
/// measured by the traced run instead (`parallel.speedup_vs_1thread`).
const END_TO_END_THREADS: usize = 1;

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// Parsed command line of a benchmark run.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
    /// Multiplies the workload's corpus scale (1 = as defined; smaller
    /// values give the quick smoke runs of the test suite).
    scale_factor: f64,
}

#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run(RunArgs),
    /// Internal: one replay of a corpus file in a process of its own (see
    /// [`replay_once`]).
    ReplayOnce {
        workload: Workload,
        corpus: PathBuf,
        work: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale_factor = 1.0;
    let mut replay_corpus = None;
    let mut work_dir = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = Some(parse::<u64>(flag, value()?)?),
            "--seconds" => seconds = Some(parse::<u64>(flag, value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--scale-factor" => scale_factor = parse::<f64>(flag, value()?)?,
            "--replay-corpus" => replay_corpus = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    if let Some(corpus) = replay_corpus {
        return Ok(Cli::ReplayOnce {
            workload: workload.ok_or("--replay-corpus needs --workload")?,
            corpus,
            work: work_dir.ok_or("--replay-corpus needs --work-dir")?,
        });
    }
    if !(scale_factor > 0.0 && scale_factor.is_finite()) {
        return Err("--scale-factor must be positive".into());
    }
    Ok(Cli::Run(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        scale_factor,
    }))
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

/// What a run reports, besides the provenance block.
#[derive(Default)]
struct Report {
    metrics: Vec<Metric>,
    calls: Calls,
    check_failures: Vec<String>,
    notes: Vec<String>,
    documents: usize,
    vocab_terms: usize,
}

/// A per-run scratch directory inside the benchmark's own directory,
/// removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &RunArgs) -> io::Result<Self> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!(
                "{}-seed{}-pid{}",
                args.workload.name,
                args.seed,
                std::process::id()
            ));
        fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Fails, as it should, while another run still uses `work/`.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

fn write_corpus(out: &Path, seed: u64, scale: f64) -> io::Result<()> {
    let corpus = Generator::new(GeneratorConfig {
        seed,
        scale,
        ..GeneratorConfig::default()
    })
    .generate();
    corpus.save_jsonl(fs::File::create(out)?)
}

fn docs_per_s(documents: usize, out: &Outcome) -> f64 {
    documents as f64 / (out.replay_ms / 1e3)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Seed of the `j`-th corpus of a run: the run's seed itself first, then
/// SplitMix64-derived seeds, so every replay after the first sees fresh
/// text and the medians average over corpora as well as over time.
fn corpus_seed(seed: u64, j: u64) -> u64 {
    if j == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Generates the run's `j`-th corpus into `work` and returns its path.
fn corpus(args: &RunArgs, work: &Path, j: u64) -> io::Result<PathBuf> {
    let path = work.join(format!("corpus-{j}.jsonl"));
    let scale = args.workload.scale * args.scale_factor;
    write_corpus(&path, corpus_seed(args.seed, j), scale)?;
    Ok(path)
}

/// Tag of the line a replay process reports its figures on.
const FIGURES_TAG: &str = "replay-figures";
/// Tag of the lines a replay process reports failed checks on.
const CHECK_TAG: &str = "check-failed";

/// One replay in a process of its own (`--replay-corpus`): set-up, replay,
/// the checkpoint restore check of service workloads, then the replay's
/// figures as `key=value` pairs on one [`FIGURES_TAG`] line.
fn replay_once(wl: &Workload, corpus: &Path, work: &Path) -> io::Result<()> {
    let mut s = setup(corpus, wl, END_TO_END_THREADS)?;
    let documents = s.docs.len();
    let mut out = replay(&mut s, wl, work, false)?;
    let peak_rss_mb = nidc_obs::alloc::rss_peak_bytes() as f64 / 1e6;
    if let Some(ckpt) = &out.checkpoint {
        if let Err(e) = check_restore(&mut s.pipeline, ckpt) {
            out.check_failures.push(e);
        }
    }
    let windows = sorted(&out.window_ms);
    // Too few windows for a tail percentile: report the slowest window.
    let window_tail = stats::tail_percentile(windows.len())
        .map_or(windows[windows.len() - 1], |p| {
            stats::percentile(&windows, p)
        });
    let ingest = sorted(&out.ingest_us);
    let figures = [
        ("setup_s", s.seconds),
        ("docs_per_s", docs_per_s(documents, &out)),
        ("window_ms_p50", stats::percentile(&windows, 50.0)),
        ("window_ms_tail", window_tail),
        ("ingest_us_p50", stats::percentile(&ingest, 50.0)),
        ("ingest_us_p99", stats::percentile(&ingest, 99.0)),
        ("peak_rss_mb", peak_rss_mb),
        (
            "mean_micro_f1",
            out.micro_f1.iter().sum::<f64>() / out.micro_f1.len() as f64,
        ),
        ("attempted", out.calls.attempted as f64),
        ("failed", out.calls.failed as f64),
        ("documents", documents as f64),
        ("vocabulary", s.vocab_terms as f64),
    ];
    let pairs: Vec<String> = figures.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{FIGURES_TAG} {}", pairs.join(" "));
    for f in &out.check_failures {
        println!("{CHECK_TAG} {f}");
    }
    Ok(())
}

/// Runs [`replay_once`] on `corpus` in a child process and parses what it
/// reports: (figures by name, failed checks).
fn replay_process(
    args: &RunArgs,
    corpus: &Path,
    work: &Path,
) -> io::Result<(BTreeMap<String, f64>, Vec<String>)> {
    let out = Command::new(std::env::current_exe()?)
        .args([
            "--workload",
            args.workload.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .arg("--replay-corpus")
        .arg(corpus)
        .arg("--work-dir")
        .arg(work)
        .output()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "replay process failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    let mut figures = BTreeMap::new();
    let mut checks = Vec::new();
    for line in stdout.lines() {
        if let Some(pairs) = line.strip_prefix(FIGURES_TAG) {
            for pair in pairs.split_whitespace() {
                let (k, v) = pair
                    .split_once('=')
                    .and_then(|(k, v)| Some((k, v.parse::<f64>().ok()?)))
                    .ok_or_else(|| io::Error::other(format!("bad replay figure {pair:?}")))?;
                figures.insert(k.to_string(), v);
            }
        } else if let Some(msg) = line.strip_prefix(CHECK_TAG) {
            checks.push(msg.trim().to_string());
        }
    }
    if figures.is_empty() {
        return Err(io::Error::other("replay process reported no figures"));
    }
    Ok((figures, checks))
}

/// How a run folds the per-replay values of a metric into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    /// Arithmetic mean over the replays.
    Mean,
    /// Median over the replays.
    Median,
}

/// The end-to-end metrics taken from every replay, with their units and
/// folds. The host alternates between quiet and contended phases a few
/// seconds long, and the share of contended time drifts over minutes, so
/// per-replay timings fall around two levels about 1.5x apart. A median
/// over a run's handful of replays jumps from one level to the other as
/// that share crosses one half; the mean moves with the share, so the
/// central timings take the mean. The ingest p99 takes the median: single
/// replays read far above the others there, and the median ignores them.
/// Set-up time and peak memory take the median too.
const REPLAY_METRICS: [(&str, &str, Fold); 7] = [
    ("setup_s", "s", Fold::Median),
    ("docs_per_s", "docs/s", Fold::Mean),
    ("window_ms_p50", "ms", Fold::Mean),
    ("window_ms_tail", "ms", Fold::Mean),
    ("ingest_us_p50", "us", Fold::Mean),
    ("ingest_us_p99", "us", Fold::Median),
    ("peak_rss_mb", "MB", Fold::Median),
];

/// `--trace 0`: replays until `--seconds` have passed (at least
/// [`MIN_REPLAYS`]), each on its own corpus in a fresh process. A replay
/// is only started when it is expected to end closer to the deadline than
/// stopping now would, so a run takes `--seconds` give or take half a
/// replay. Every end-to-end metric is folded over the replays as
/// [`REPLAY_METRICS`] says, except `mean_micro_f1`, the mean over the first
/// [`MIN_REPLAYS`] corpora, so that it does not depend on how many replays
/// fit in the time.
fn run_end_to_end(args: &RunArgs, work: &Path) -> io::Result<Report> {
    let windows = args.workload.ticks().len();
    let mut report = Report::default();
    let mut per_replay: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let start = Instant::now();
    for j in 1u32.. {
        let path = corpus(args, work, u64::from(j - 1))?;
        let (figures, checks) = replay_process(args, &path, work)?;
        fs::remove_file(&path)?;
        report.check_failures.extend(checks);
        for (k, v) in figures {
            per_replay.entry(k).or_default().push(v);
        }
        let mean_replay = start.elapsed() / j;
        if j >= MIN_REPLAYS as u32 && start.elapsed() + mean_replay / 2 >= args.seconds {
            break;
        }
    }
    let figure = |name: &str| -> io::Result<&Vec<f64>> {
        per_replay
            .get(name)
            .ok_or_else(|| io::Error::other(format!("replay figure {name} missing")))
    };
    report.calls = Calls {
        attempted: figure("attempted")?.iter().sum::<f64>() as u64,
        failed: figure("failed")?.iter().sum::<f64>() as u64,
    };
    report.documents = figure("documents")?[0] as usize;
    report.vocab_terms = figure("vocabulary")?[0] as usize;
    let f1 = &figure("mean_micro_f1")?[..MIN_REPLAYS];
    for (name, unit, fold) in REPLAY_METRICS {
        let values = figure(name)?;
        let value = match fold {
            Fold::Mean => stats::mean(values),
            Fold::Median => stats::median(values),
        };
        report.metrics.push(Metric::new(name, value, unit));
    }
    report
        .metrics
        .push(Metric::new("mean_micro_f1", stats::mean(f1), "ratio"));
    let tail = stats::tail_percentile(windows).map_or(
        "the slowest window (no percentile leaves 10 windows above it)".to_string(),
        |p| format!("p{p}"),
    );
    report.notes.push(format!(
        "{} replays, one corpus and one process each; window_ms_tail = {tail} of {windows} \
         windows per replay; ingest percentiles over {} calls per replay",
        figure("docs_per_s")?.len(),
        report.documents
    ));
    for (name, _, fold) in REPLAY_METRICS {
        let fold = match fold {
            Fold::Mean => "mean",
            Fold::Median => "median",
        };
        report.notes.push(format!(
            "per replay: {name} {:.4?} (reported: the {fold})",
            figure(name)?
        ));
    }
    report.notes.push(format!(
        "per replay: mean_micro_f1 {:.4?}",
        figure("mean_micro_f1")?
    ));
    Ok(report)
}

/// `--trace 1`: an untraced row at the default thread count, an untraced
/// `threads: 1` row, and a traced row (spans, allocation counting and the
/// metric registry on) whose profile gives the per-layer metrics.
fn run_traced(args: &RunArgs, work: &Path) -> io::Result<Report> {
    let wl = &args.workload;
    let corpus = corpus(args, work, 0)?;
    let corpus = corpus.as_path();
    let mut report = Report::default();
    let mut row = |threads: usize, traced: bool| -> io::Result<(f64, Outcome, u64, f64)> {
        nidc_obs::reset_all();
        if traced {
            nidc_obs::alloc::set_tracking(true);
            nidc_obs::set_enabled(true);
            nidc_obs::trace::set_trace_enabled(true);
        }
        let mut s = setup(corpus, wl, threads)?;
        report.documents = s.docs.len();
        report.vocab_terms = s.vocab_terms;
        let mut out = replay(&mut s, wl, work, traced)?;
        // The restore check's extra reclusters are not part of the replay:
        // keep them out of the profile.
        nidc_obs::trace::set_trace_enabled(false);
        let rate = docs_per_s(report.documents, &out);
        let (mut checkpoint_bytes, mut load_ms) = (0, 0.0);
        if traced {
            if let Some(ckpt) = &out.checkpoint {
                checkpoint_bytes = fs::metadata(ckpt)?.len();
                match check_restore(&mut s.pipeline, ckpt) {
                    Ok(ms) => load_ms = ms,
                    Err(e) => out.check_failures.push(e),
                }
            }
        }
        report.calls.absorb(out.calls);
        report.check_failures.append(&mut out.check_failures);
        Ok((rate, out, checkpoint_bytes, load_ms))
    };
    let (default_rate, default_out, ..) = row(0, false)?;
    let (one_rate, one_out, ..) = row(1, false)?;
    let (traced_rate, traced_out, checkpoint_bytes, checkpoint_load_ms) = row(0, true)?;
    let events = nidc_obs::trace::drain();
    nidc_obs::reset_all();

    let digests = [default_out.digest, one_out.digest, traced_out.digest];
    if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
        report.check_failures.push(format!(
            "final assignment digests differ (default threads, threads: 1, traced): {digests:x?}"
        ));
    }
    let spans = layers::Spans::from_profile(&nidc_obs::Profile::from_events(&events));
    let rows = layers::Rows {
        default_docs_per_s: default_rate,
        one_thread_docs_per_s: one_rate,
        traced_docs_per_s: traced_rate,
        vocab_terms: report.vocab_terms,
        checkpoint_bytes,
        checkpoint_load_ms,
    };
    report.metrics = layers::per_layer(&spans, &traced_out, &rows);
    for (label, rate, out) in [
        ("default threads, untraced", default_rate, &default_out),
        ("threads: 1, untraced", one_rate, &one_out),
        ("default threads, traced", traced_rate, &traced_out),
    ] {
        report.notes.push(format!(
            "row {label}: replay {:.1} ms, {rate:.1} docs/s",
            out.replay_ms
        ));
    }
    Ok(report)
}

/// The commit of the checkout the benchmark runs in. Only `./.git` is
/// consulted, so that nothing outside the checkout is read.
fn git_commit() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn print_report(args: &RunArgs, report: &Report) -> bool {
    let wl = &args.workload;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"mode\": \"{}\", \"nproc\": {nproc}, \
         \"available_threads\": {}, \"seed\": {}, \"scale\": {}, \"documents\": {}, \
         \"vocabulary\": {}, \"windows\": {}, \"shards\": {}, \"git_commit\": \"{}\"}}}}",
        wl.name,
        if args.trace { "traced" } else { "end_to_end" },
        nidc_parallel::available_threads(),
        args.seed,
        wl.scale * args.scale_factor,
        report.documents,
        report.vocab_terms,
        wl.ticks().len(),
        wl.shards,
        git_commit(),
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    let share = report.calls.failed as f64 / report.calls.attempted.max(1) as f64;
    println!(
        "calls: {} attempted, {} returned Err (failed share {share})",
        report.calls.attempted, report.calls.failed
    );
    for m in &report.metrics {
        println!("{:<30} {:>18} {}", m.name, json_number(m.value), m.unit);
    }
    let mut failures = report.check_failures.clone();
    for m in report.metrics.iter().filter(|m| !m.value.is_finite()) {
        failures.push(format!("{} is not a finite number", m.name));
    }
    for f in &failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = failures.is_empty() && report.calls.failed == 0;
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.calls.attempted.max(1),
        report.calls.failed,
        metrics.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = match parse_args(&args) {
        Ok(Cli::Run(run)) => run,
        Ok(Cli::ReplayOnce {
            workload,
            corpus,
            work,
        }) => {
            return match replay_once(&workload, &corpus, &work) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("replaybench: replaying {}: {e}", corpus.display());
                    ExitCode::from(2)
                }
            };
        }
        Err(e) => {
            eprintln!("replaybench: {e}");
            eprintln!(
                "usage: replaybench --workload <daily-k24|backfill-k8|sharded-service> \
                 --seed <n> --seconds <s> --trace <0|1> [--scale-factor <f>]"
            );
            return ExitCode::from(2);
        }
    };
    let result = WorkDir::create(&run).and_then(|work| {
        if run.trace {
            run_traced(&run, &work.0)
        } else {
            run_end_to_end(&run, &work.0)
        }
    });
    match result {
        Ok(report) if print_report(&run, &report) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("replaybench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let cli = parse_args(&args(
            "--workload backfill-k8 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        let Cli::Run(run) = cli else {
            panic!("expected a run")
        };
        assert_eq!(run.workload.name, "backfill-k8");
        assert_eq!(run.seed, 7);
        assert_eq!(run.seconds, Duration::from_secs(12));
        assert!(run.trace);
        assert_eq!(run.scale_factor, 1.0);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload daily-k24 --seconds 1 --trace 0",
            "--workload daily-k24 --seed 1 --seconds 1 --trace 2",
            "--workload daily-k24 --seed x --seconds 1 --trace 0",
            "--workload daily-k24 --seed 1 --seconds 1 --trace 0 --scale-factor 0",
            "--workload daily-k24 --seed 1 --seconds 1 --trace 0 --extra",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
