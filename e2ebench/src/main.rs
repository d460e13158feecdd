//! End-to-end and per-layer benchmark of the qfe workspace.
//!
//! ```sh
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload net-conj --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads: `net-conj`, `plan-joblight`, `adapt-mixed` (see README.md).
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! workload with spans recorded and prints the per-layer metrics. Every
//! run checks its outputs; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod adapt_mixed;
mod common;
mod models;
mod net_conj;
mod plan_joblight;
mod trace;

use std::time::Instant;

use qfe_core::fingerprint::QueryFingerprint;
use qfe_core::{Estimate, Query};
use qfe_exec::{EstimateCache, Probe};
use qfe_serve::{read_frame, write_frame, Frame};

use common::{environment_json, median, time_median_ns, Args, Report};
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_us", "us"),
    ("ok_frac", "ratio"),
    ("qerror_p50", "ratio"),
    ("qerror_p95", "ratio"),
    ("retrain_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer that is not
/// on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("proto.encode_ns", "ns"),
    ("proto.decode_ns", "ns"),
    ("net.self_us", "us"),
    ("net.requests_err", "count"),
    ("net.proto_errors", "count"),
    ("net.io_errors", "count"),
    ("net.refused", "count"),
    ("shard.route_ns", "ns"),
    ("shard.self_us", "us"),
    ("shard.quota_shed", "count"),
    ("batch.coalesce_wait_us_p50", "us"),
    ("batch.size_mean", "rows"),
    ("batch.expired", "count"),
    ("batch.shed", "count"),
    ("service.self_us", "us"),
    ("service.admission_wait_us_p99", "us"),
    ("service.fallback_frac", "ratio"),
    ("service.floor_answers", "count"),
    ("service.deadline_exceeded", "count"),
    ("learned.batch_us_per_row", "us"),
    ("learned.try_estimate_us", "us"),
    ("learned.self_us_per_row", "us"),
    ("featurize.conj_ns_per_row", "ns"),
    ("featurize.complex_ns_per_row", "ns"),
    ("featurize.join_ns_per_query", "ns"),
    ("gbdt.walk_ns_per_row", "ns"),
    ("gbdt.fit_s", "s"),
    ("optimizer.estimator_calls_per_plan", "count"),
    ("optimizer.estimator_us_per_plan", "us"),
    ("optimizer.self_us_per_plan", "us"),
    ("cache.hit_rate", "ratio"),
    ("cache.probes", "count"),
    ("cache.evictions", "count"),
    ("cache.probe_ns", "ns"),
    ("fingerprint.ns_per_query", "ns"),
    ("adapt.detect_lag_feedbacks", "count"),
    ("adapt.triggered", "count"),
    ("adapt.accepted", "count"),
    ("adapt.rejected", "count"),
    ("adapt.aborted", "count"),
    ("adapt.retrain_s", "s"),
    ("adapt.shadow_s", "s"),
    ("adapt.step_us", "us"),
    ("obs.observe_ns", "ns"),
    ("slot.swap_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoint_bytes", "bytes"),
    ("proc.threads_peak", "count"),
    ("loadgen.lag_p99_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("unattributed_us", "us"),
    ("trace.spans", "count"),
    ("e2e.latency_p95_us", "us"),
    ("e2e.latency_p99_us", "us"),
];

/// Where traced runs write their spans (inside the benchmark directory).
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = out_dir().join(format!("spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// `fingerprint.ns_per_query` and `cache.probe_ns` on the workload's own
/// queries: `QueryFingerprint::of`, and `EstimateCache::probe` on a cache
/// holding half of them (so probes are half hits, half misses).
pub fn fingerprint_metrics(queries: &[Query], report: &mut Report) {
    let n = queries.len().max(1) as f64;
    let fp_ns = time_median_ns(15, || {
        for q in queries {
            std::hint::black_box(QueryFingerprint::of(q));
        }
    });
    let fps: Vec<QueryFingerprint> = queries.iter().map(QueryFingerprint::of).collect();
    let cache = EstimateCache::with_capacity(fps.len().max(1));
    for fp in fps.iter().step_by(2) {
        if let Probe::Miss(token) = cache.probe(*fp) {
            cache.fill(*fp, Estimate::primary(1.0, "probe"), token);
        }
    }
    let probe_ns = time_median_ns(15, || {
        for fp in &fps {
            std::hint::black_box(cache.probe(*fp));
        }
    });
    report.metric("fingerprint.ns_per_query", fp_ns / n, "ns");
    report.metric("cache.probe_ns", probe_ns / n, "ns");
}

/// `proto.encode_ns` and `proto.decode_ns` on the workload's own queries:
/// `write_frame` / `read_frame` of an `EstimateRequest` on in-memory
/// buffers, median per query.
pub fn codec_metrics(queries: &[Query], report: &mut Report) {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for (i, q) in queries.iter().enumerate() {
        let frame = Frame::EstimateRequest {
            request_id: i as u64,
            tenant: 0,
            budget_micros: 0,
            query: q.clone(),
        };
        let mut bytes = Vec::new();
        let t = Instant::now();
        write_frame(&mut bytes, &frame).expect("in-memory write");
        enc.push(t.elapsed().as_nanos() as f64);
        let t = Instant::now();
        std::hint::black_box(read_frame(&mut bytes.as_slice()).expect("decodes"));
        dec.push(t.elapsed().as_nanos() as f64);
    }
    report.metric("proto.encode_ns", median(&enc), "ns");
    report.metric("proto.decode_ns", median(&dec), "ns");
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <net-conj|plan-joblight|adapt-mixed> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut report = Report::new();
    match args.workload.as_str() {
        "net-conj" => net_conj::run(&args, &mut report),
        "plan-joblight" => plan_joblight::run(&args, &mut report),
        "adapt-mixed" => adapt_mixed::run(&args, &mut report),
        _ => unreachable!("workload validated by Args::parse"),
    }
    // Keep exactly the contracted metric set of this mode, in order.
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        match report.metrics.iter().find(|(n, _, _)| n == name) {
            Some(m) => metrics.push(m.clone()),
            None if args.trace => metrics.push((name.to_string(), 0.0, unit)),
            None => {
                report.check(&format!("metric_{name}_measured"), false, "missing");
            }
        }
    }
    for (name, value, unit) in &report.metrics {
        if !wanted.iter().any(|(n, _)| n == name) {
            report.notes.push(format!("{name} = {value} {unit}"));
        }
    }
    report.metrics = metrics;
    report.note(format!("wall {:.2} s", started.elapsed().as_secs_f64()));
    report.print(&args.workload, &environment_json("e2ebench"));
}
