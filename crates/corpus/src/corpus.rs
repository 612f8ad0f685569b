//! The corpus container: chronological articles + topic inventory.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use serde::{Deserialize, Serialize};

use crate::article::{Article, TopicId};
use crate::windows::{TimeWindow, WindowStats};
use crate::{STANDARD_WINDOW_BOUNDS, STANDARD_WINDOW_LABELS};

/// A topic's identity in the corpus inventory (one row of the paper's
/// Table 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopicInfo {
    /// Topic id.
    pub id: TopicId,
    /// Topic name.
    pub name: String,
    /// Total documents with this label.
    pub count: usize,
}

/// A chronological labelled article stream.
///
/// Invariant: `articles` is sorted by `day`, and article ids equal their
/// position (dense arrival-order ids).
#[derive(Debug, Clone)]
pub struct Corpus {
    articles: Vec<Article>,
    topics: Vec<TopicInfo>,
}

impl Corpus {
    /// Builds a corpus from parts, sorting by day and reassigning dense ids.
    pub fn from_parts(mut articles: Vec<Article>, mut topics: Vec<TopicInfo>) -> Self {
        articles.sort_by(|a, b| a.day.partial_cmp(&b.day).expect("finite days"));
        for (i, a) in articles.iter_mut().enumerate() {
            a.id = i as u64;
        }
        // recount topics from the articles to keep the inventory honest
        let mut counts: BTreeMap<TopicId, usize> = BTreeMap::new();
        for a in &articles {
            *counts.entry(a.topic).or_insert(0) += 1;
        }
        for t in &mut topics {
            t.count = counts.get(&t.id).copied().unwrap_or(0);
        }
        topics.sort_by_key(|t| t.id);
        Self { articles, topics }
    }

    /// The articles in chronological order.
    pub fn articles(&self) -> &[Article] {
        &self.articles
    }

    /// Number of articles.
    pub fn len(&self) -> usize {
        self.articles.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.articles.is_empty()
    }

    /// The topic inventory, sorted by id.
    pub fn topics(&self) -> &[TopicInfo] {
        &self.topics
    }

    /// Name of topic `id`, if known.
    pub fn topic_name(&self, id: TopicId) -> Option<&str> {
        self.topics
            .binary_search_by_key(&id, |t| t.id)
            .ok()
            .map(|i| self.topics[i].name.as_str())
    }

    /// Splits the stream into windows at the given `(start, end)` day bounds.
    /// An article belongs to window `w` iff `start ≤ day < end`.
    pub fn windows(&self, bounds: &[(f64, f64)], labels: &[&str]) -> Vec<TimeWindow> {
        bounds
            .iter()
            .enumerate()
            .map(|(index, &(start, end))| {
                let article_indices = self
                    .articles
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| a.day >= start && a.day < end)
                    .map(|(i, _)| i)
                    .collect();
                TimeWindow {
                    index,
                    label: labels.get(index).copied().unwrap_or("window").to_owned(),
                    start,
                    end,
                    article_indices,
                }
            })
            .collect()
    }

    /// The paper's six standard windows (§6.2.1).
    pub fn standard_windows(&self) -> Vec<TimeWindow> {
        self.windows(&STANDARD_WINDOW_BOUNDS, &STANDARD_WINDOW_LABELS)
    }

    /// Statistics of one window (one column of Table 2).
    pub fn window_stats(&self, window: &TimeWindow) -> WindowStats {
        WindowStats::compute(window, &self.articles)
    }

    /// Histogram of a topic's documents over time with `bin_days`-wide bins
    /// (the Figures 5–9 series). Returns `(bin_start_day, count)` for every
    /// bin from day 0 through the last article, including empty bins.
    pub fn topic_histogram(&self, topic: TopicId, bin_days: f64) -> Vec<(f64, usize)> {
        assert!(bin_days > 0.0);
        let horizon = self.articles.last().map_or(0.0, |a| a.day);
        let nbins = (horizon / bin_days).floor() as usize + 1;
        let mut bins = vec![0usize; nbins];
        for a in &self.articles {
            if a.topic == topic {
                let b = (a.day / bin_days).floor() as usize;
                bins[b.min(nbins - 1)] += 1;
            }
        }
        bins.into_iter()
            .enumerate()
            .map(|(i, c)| (i as f64 * bin_days, c))
            .collect()
    }

    /// Serialises the corpus as JSON lines: one header line with the topic
    /// inventory, then one line per article.
    pub fn save_jsonl<W: Write>(&self, writer: W) -> std::io::Result<()> {
        let mut w = BufWriter::new(writer);
        serde_json::to_writer(&mut w, &self.topics)?;
        w.write_all(b"\n")?;
        for a in &self.articles {
            serde_json::to_writer(&mut w, a)?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }

    /// Loads a corpus previously written by [`Corpus::save_jsonl`].
    pub fn load_jsonl<R: Read>(reader: R) -> std::io::Result<Self> {
        let _span = nidc_obs::span!("corpus.load_jsonl");
        let mut lines = BufReader::new(reader).lines();
        let header = lines.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "empty file")
        })??;
        let topics: Vec<TopicInfo> = serde_json::from_str(&header)?;
        let mut articles = Vec::new();
        for line in lines {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            articles.push(serde_json::from_str::<Article>(&line)?);
        }
        Ok(Self::from_parts(articles, topics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn art(topic: u32, day: f64) -> Article {
        Article {
            id: 0,
            topic: TopicId(topic),
            day,
            text: format!("doc about {topic}"),
        }
    }

    fn sample() -> Corpus {
        Corpus::from_parts(
            vec![art(2, 35.0), art(1, 1.0), art(1, 5.0), art(2, 160.0)],
            vec![
                TopicInfo {
                    id: TopicId(1),
                    name: "One".into(),
                    count: 0,
                },
                TopicInfo {
                    id: TopicId(2),
                    name: "Two".into(),
                    count: 0,
                },
            ],
        )
    }

    #[test]
    fn from_parts_sorts_and_reassigns_ids() {
        let c = sample();
        let days: Vec<f64> = c.articles().iter().map(|a| a.day).collect();
        assert_eq!(days, vec![1.0, 5.0, 35.0, 160.0]);
        let ids: Vec<u64> = c.articles().iter().map(|a| a.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn topic_counts_are_recomputed() {
        let c = sample();
        assert_eq!(c.topics()[0].count, 2);
        assert_eq!(c.topics()[1].count, 2);
        assert_eq!(c.topic_name(TopicId(2)), Some("Two"));
        assert_eq!(c.topic_name(TopicId(9)), None);
    }

    #[test]
    fn standard_windows_partition_articles() {
        let c = sample();
        let ws = c.standard_windows();
        assert_eq!(ws.len(), 6);
        assert_eq!(ws[0].len(), 2); // days 1, 5
        assert_eq!(ws[1].len(), 1); // day 35
        assert_eq!(ws[5].len(), 1); // day 160
        let total: usize = ws.iter().map(|w| w.len()).sum();
        assert_eq!(total, c.len());
    }

    #[test]
    fn window_stats_per_window() {
        let c = sample();
        let ws = c.standard_windows();
        let s = c.window_stats(&ws[0]);
        assert_eq!(s.num_docs, 2);
        assert_eq!(s.num_topics, 1);
        assert_eq!(s.max_topic_size, 2);
    }

    #[test]
    fn topic_histogram_counts_and_bins() {
        let c = sample();
        let h = c.topic_histogram(TopicId(1), 10.0);
        // articles at days 1 and 5 → both in bin [0,10)
        assert_eq!(h[0], (0.0, 2));
        assert!(h.iter().skip(1).all(|&(_, n)| n == 0 || n == 1));
        let total: usize = h.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn jsonl_roundtrip() {
        let c = sample();
        let mut buf = Vec::new();
        c.save_jsonl(&mut buf).unwrap();
        let back = Corpus::load_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.len(), c.len());
        assert_eq!(back.topics().len(), c.topics().len());
        assert_eq!(back.articles()[2].topic, c.articles()[2].topic);
        assert_eq!(back.articles()[1].text, c.articles()[1].text);
    }

    #[test]
    fn load_rejects_empty_input() {
        assert!(Corpus::load_jsonl(&b""[..]).is_err());
    }

    #[test]
    fn load_rejects_malformed_header() {
        assert!(Corpus::load_jsonl(&b"not json\n"[..]).is_err());
        // header must be the topic inventory (an array), not an article
        let bad = br#"{"id":0,"topic":1,"day":0.0,"text":"x"}"#;
        assert!(Corpus::load_jsonl(&bad[..]).is_err());
    }

    #[test]
    fn load_rejects_malformed_article_line() {
        let input = b"[]\n{\"id\":0,\"topic\":1}\n"; // article missing fields
        assert!(Corpus::load_jsonl(&input[..]).is_err());
    }

    #[test]
    fn load_skips_blank_lines() {
        let mut buf = Vec::new();
        sample().save_jsonl(&mut buf).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = Corpus::load_jsonl(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 4);
    }

    #[test]
    fn load_tolerates_missing_topics_in_inventory() {
        // articles referencing topics absent from the header still load;
        // from_parts recounts and the unknown topic has no name
        let input = br#"[{"id":1,"name":"One","count":0}]
{"id":0,"topic":1,"day":0.0,"text":"a"}
{"id":1,"topic":9,"day":1.0,"text":"b"}
"#;
        let c = Corpus::load_jsonl(&input[..]).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.topic_name(TopicId(9)), None);
        assert_eq!(c.topic_name(TopicId(1)), Some("One"));
    }
}
