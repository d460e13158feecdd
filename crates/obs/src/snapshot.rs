//! Point-in-time metric snapshots with stable JSON and human-readable
//! text renderings.
//!
//! Stability contract of [`MetricsSnapshot::to_json`]: keys are emitted
//! in sorted (BTreeMap) order, latency values are integer nanoseconds,
//! and the only floats are the q-error statistics (guaranteed finite by
//! `SummaryError` and rendered with Rust's shortest-roundtrip formatter,
//! which is deterministic). Equal snapshots therefore always render to
//! byte-identical JSON — the property the CI perf-trajectory artifact
//! and the rendering regression test rely on.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use qfe_core::metrics::ErrorSummary;

use crate::hist::HistogramSnapshot;

/// One coherent copy of every metric a recorder held, plus an optional
/// q-error window summary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, u64>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Sliding-window q-error summary, when ground truth has been fed.
    pub qerror: Option<ErrorSummary>,
}

/// Escape a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Render an f64 known to be finite. `{:?}` is Rust's shortest-roundtrip
/// float formatter: deterministic, always contains a `.` or exponent, and
/// valid JSON for finite values.
fn json_f64(v: f64) -> String {
    format!("{v:?}")
}

fn json_u64_map(out: &mut String, map: &BTreeMap<String, u64>) {
    out.push('{');
    for (i, (k, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{}\":{v}", escape(k));
    }
    out.push('}');
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent) — convenience for tests.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Merge a counter into the snapshot, adding to any existing value.
    pub fn merge_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Fold an entire snapshot into this one with every key rewritten to
    /// `<prefix><key>`. Counters add (so repeated merges accumulate),
    /// gauges and histograms are last-write-wins under the prefixed name.
    /// This is how a fleet-level snapshot absorbs per-shard snapshots:
    /// shard `a`'s `serve.answered` lands as `shard.a.serve.answered`,
    /// and the prefix keeps tenants from colliding. The q-error summary
    /// is *not* merged — quantiles from different windows don't compose;
    /// per-shard summaries stay on the per-shard snapshot.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            self.merge_counter(&format!("{prefix}{k}"), *v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(format!("{prefix}{k}"), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.insert(format!("{prefix}{k}"), h.clone());
        }
    }

    /// Sum of all counters whose name starts with `prefix` — convenient
    /// for asserting "any stage recorded something" in tests.
    pub fn counter_sum_with_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Stable JSON rendering (see module docs for the contract).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"counters\":");
        json_u64_map(&mut out, &self.counters);
        out.push_str(",\"gauges\":");
        json_u64_map(&mut out, &self.gauges);
        out.push_str(",\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"mean_nanos\":{},\"p50_nanos\":{},\"p90_nanos\":{},\"p99_nanos\":{},\"buckets\":[",
                escape(k),
                h.count,
                h.sum_nanos,
                h.max_nanos,
                h.mean_nanos(),
                h.p50_nanos(),
                h.p90_nanos(),
                h.p99_nanos(),
            );
            for (j, (bucket, count)) in h.nonzero_buckets().into_iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{bucket},{count}]");
            }
            out.push_str("]}");
        }
        out.push_str("},\"qerror\":");
        match &self.qerror {
            None => out.push_str("null"),
            Some(s) => {
                let _ = write!(
                    out,
                    "{{\"count\":{},\"mean\":{},\"median\":{},\"p90\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                    s.count,
                    json_f64(s.mean),
                    json_f64(s.median),
                    json_f64(s.p90),
                    json_f64(s.p95),
                    json_f64(s.p99),
                    json_f64(s.max),
                );
            }
        }
        out.push('}');
        out
    }

    /// Write the JSON rendering to `path` (the CI artifact path).
    pub fn write_json_to(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Human-readable multi-line rendering for logs and demos.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<48} {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<48} {v:>12}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("latency (µs):\n");
            let _ = writeln!(
                out,
                "  {:<48} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            );
            for (k, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<48} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9}",
                    k,
                    h.count,
                    h.mean_nanos() / 1_000,
                    h.p50_nanos() / 1_000,
                    h.p90_nanos() / 1_000,
                    h.p99_nanos() / 1_000,
                    h.max_nanos / 1_000,
                );
            }
        }
        match &self.qerror {
            None => out.push_str("q-error: no ground truth observed\n"),
            Some(s) => {
                let _ = writeln!(out, "q-error ({} samples): {}", s.count, s.table_row());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use std::time::Duration;

    fn sample() -> MetricsSnapshot {
        let h = LatencyHistogram::new();
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(100));
        h.record(Duration::from_nanos(3000));
        let mut s = MetricsSnapshot::default();
        s.counters.insert("serve.requests".into(), 3);
        s.counters.insert("chain.stage0.hits".into(), 2);
        s.gauges.insert("queue.depth".into(), 1);
        s.histograms.insert("e2e".into(), h.snapshot());
        s
    }

    #[test]
    fn json_is_stable_and_exact() {
        // The exact rendering is part of the snapshot contract: CI
        // artifacts and downstream tooling parse this.
        let expected = concat!(
            "{\"counters\":{\"chain.stage0.hits\":2,\"serve.requests\":3},",
            "\"gauges\":{\"queue.depth\":1},",
            "\"histograms\":{\"e2e\":{\"count\":3,\"sum_nanos\":3200,",
            "\"max_nanos\":3000,\"mean_nanos\":1066,\"p50_nanos\":127,",
            "\"p90_nanos\":3000,\"p99_nanos\":3000,\"buckets\":[[7,2],[12,1]]}},",
            "\"qerror\":null}",
        );
        assert_eq!(sample().to_json(), expected);
        // And it is deterministic across calls.
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn json_includes_qerror_when_present() {
        // q-errors are finite by construction (SummaryError guard).
        let mut s = sample();
        s.qerror = Some(ErrorSummary::from_errors(&[1.0, 2.0, 4.0]));
        let json = s.to_json();
        assert!(json.contains("\"qerror\":{\"count\":3"));
        assert!(json.contains("\"median\":2.0"));
        assert!(!json.contains("qerror\":null"));
    }

    #[test]
    fn empty_snapshot_renders_valid_json() {
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{},\"qerror\":null}"
        );
    }

    #[test]
    fn accessors_default_to_zero() {
        let s = sample();
        assert_eq!(s.counter("serve.requests"), 3);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.gauge("queue.depth"), 1);
        assert_eq!(s.gauge("missing"), 0);
        assert!(s.histogram("e2e").is_some());
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn merge_counter_adds() {
        let mut s = sample();
        s.merge_counter("serve.requests", 2);
        s.merge_counter("fresh", 1);
        assert_eq!(s.counter("serve.requests"), 5);
        assert_eq!(s.counter("fresh"), 1);
    }

    #[test]
    fn prefix_sum_covers_matching_counters() {
        let mut s = MetricsSnapshot::default();
        s.merge_counter("chain.stage0.hits", 2);
        s.merge_counter("chain.stage1.hits", 3);
        s.merge_counter("serve.requests", 9);
        assert_eq!(s.counter_sum_with_prefix("chain."), 5);
        assert_eq!(s.counter_sum_with_prefix("nope."), 0);
    }

    #[test]
    fn merge_prefixed_rewrites_and_accumulates() {
        let mut fleet = MetricsSnapshot::default();
        fleet.merge_counter("registry.routed", 7);
        let mut shard = sample();
        shard.qerror = Some(ErrorSummary::from_errors(&[1.0, 2.0]));
        fleet.merge_prefixed("shard.a.", &shard);
        fleet.merge_prefixed("shard.a.", &shard); // counters accumulate
        assert_eq!(fleet.counter("shard.a.serve.requests"), 6);
        assert_eq!(fleet.counter("registry.routed"), 7);
        assert_eq!(fleet.gauge("shard.a.queue.depth"), 1);
        assert!(fleet.histogram("shard.a.e2e").is_some());
        // Un-prefixed originals must not leak in.
        assert_eq!(fleet.counter("serve.requests"), 0);
        // Quantile summaries don't compose across windows.
        assert!(fleet.qerror.is_none());
    }

    #[test]
    fn text_rendering_mentions_every_section() {
        let text = sample().render_text();
        assert!(text.contains("counters:"));
        assert!(text.contains("serve.requests"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("latency"));
        assert!(text.contains("e2e"));
        assert!(text.contains("q-error"));
    }

    #[test]
    fn keys_are_escaped() {
        let mut s = MetricsSnapshot::default();
        s.merge_counter("weird\"name\\with\nescapes", 1);
        let json = s.to_json();
        assert!(json.contains("weird\\\"name\\\\with\\nescapes"));
    }
}
