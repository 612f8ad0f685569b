//! The three stream-replay workloads and the refresh schedule they share.

/// Forgetting half-life β in days.
pub const BETA_DAYS: f64 = 7.0;
/// Life span γ in days: a document expires this long after it arrives.
pub const GAMMA_DAYS: f64 = 21.0;
/// Seed of the extended K-means' initial-document draw.
pub const CLUSTER_SEED: u64 = 42;
/// Length of the generated stream in days; the last refresh happens here.
pub const STREAM_DAYS: f64 = 178.0;

/// One workload: an input size and an operating mode of the on-line
/// pipeline (§5.2 of the paper: ingest, advance the clock, re-cluster once
/// per window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Corpus scale (1.0 = 7,579 documents).
    pub scale: f64,
    /// Number of clusters K.
    pub k: usize,
    /// Days between refreshes.
    pub every_days: f64,
    /// Stream shards (stitched at the default threshold when > 1).
    pub shards: usize,
    /// Run as a service: a checkpoint is written after every window, and
    /// the metrics JSON-lines export and the lifecycle event sink are on.
    pub service: bool,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "daily-k24",
        scale: 0.5,
        k: 24,
        every_days: 1.0,
        shards: 1,
        service: false,
    },
    Workload {
        name: "backfill-k8",
        scale: 2.0,
        k: 8,
        every_days: 30.0,
        shards: 1,
        service: false,
    },
    Workload {
        name: "sharded-service",
        scale: 1.0,
        k: 24,
        every_days: 4.0,
        shards: 3,
        service: true,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The refresh ticks: every `every_days` strictly before the end of the
    /// stream, then one final refresh at the end.
    pub fn ticks(&self) -> Vec<f64> {
        let mut ticks: Vec<f64> = (1..)
            .map(|i| f64::from(i) * self.every_days)
            .take_while(|&t| t < STREAM_DAYS)
            .collect();
        ticks.push(STREAM_DAYS);
        ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_counts_match_the_workload_definitions() {
        let count = |name| Workload::by_name(name).unwrap().ticks().len();
        assert_eq!(count("daily-k24"), 178);
        assert_eq!(count("backfill-k8"), 6);
        assert_eq!(count("sharded-service"), 45);
    }

    #[test]
    fn ticks_end_at_the_stream_end() {
        let ticks = Workload::by_name("backfill-k8").unwrap().ticks();
        assert_eq!(ticks, vec![30.0, 60.0, 90.0, 120.0, 150.0, STREAM_DAYS]);
        assert!(Workload::by_name("nope").is_none());
    }
}
