//! Shared plumbing: argument parsing, the seeded RNG, percentiles, the
//! process probes (`/proc/self/status`), phase accounting and the
//! result report whose last line is the machine-readable JSON object.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use qfe_core::fingerprint::QueryFingerprint;
use qfe_core::metrics::q_error;
use qfe_core::Query;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub const WORKLOADS: [&str; 3] = ["net-conj", "plan-joblight", "adapt-mixed"];

impl Args {
    pub fn parse() -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0f64;
        let mut trace = false;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// SplitMix64: a tiny, fully deterministic generator for stream order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Derive an independent sub-seed for one generator from the run seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ stream).next_u64()
}

/// Nearest-rank quantile of an ascending slice (`NaN` when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Samples per latency window: each window's p95 has fifty samples
/// beyond it.
pub const WINDOW: usize = 1_000;

/// Latency percentiles robust to the scheduler stalls of a small shared
/// machine: samples are cut, in the order the requests were sent, into
/// windows of [`WINDOW`]; each window gets its own p50 / p95 / p99, and
/// the reported value is the median over windows. A run shorter than
/// one window is treated as one window. Memory stays O(windows).
#[derive(Default)]
pub struct WindowStats {
    cur: Vec<f64>,
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl WindowStats {
    pub fn from_ordered(in_order: &[f64]) -> Self {
        let mut w = WindowStats::default();
        for &v in in_order {
            w.push(v);
        }
        w
    }

    pub fn push(&mut self, us: f64) {
        self.samples += 1;
        self.cur.push(us);
        if self.cur.len() == WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        let s = sorted(std::mem::take(&mut self.cur));
        self.p50.push(quantile(&s, 0.50));
        self.p95.push(quantile(&s, 0.95));
        self.p99.push(quantile(&s, 0.99));
    }

    fn summary(&self, of: &[f64], q: f64) -> f64 {
        if of.is_empty() {
            quantile(&sorted(self.cur.clone()), q)
        } else {
            median(of)
        }
    }

    pub fn p50(&self) -> f64 {
        self.summary(&self.p50, 0.50)
    }

    pub fn p95(&self) -> f64 {
        self.summary(&self.p95, 0.95)
    }

    pub fn p99(&self) -> f64 {
        self.summary(&self.p99, 0.99)
    }

    pub fn describe(&self) -> String {
        format!(
            "{} samples in {} windows of {WINDOW}: p50 {:.1} p95 {:.1} p99 {:.1} us",
            self.samples,
            self.p50.len().max(1),
            self.p50(),
            self.p95(),
            self.p99()
        )
    }
}

/// Completions per second in consecutive windows from `start`; the
/// rate is the upper quartile over windows, the last (partial) one
/// dropped. On a shared machine stalls only ever remove completions from
/// a window, so the upper quartile tracks the rate the program sustains
/// when it is not interrupted.
pub struct RateWindows {
    start: Instant,
    window: Duration,
    counts: Vec<u64>,
}

impl RateWindows {
    pub fn new(start: Instant, window: Duration) -> Self {
        RateWindows {
            start,
            window,
            counts: Vec::new(),
        }
    }

    /// Count one completion at `at`.
    pub fn count(&mut self, at: Instant) {
        let i = (at.saturating_duration_since(self.start).as_secs_f64() / self.window.as_secs_f64())
            as usize;
        if self.counts.len() <= i {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
    }

    pub fn rate(&self) -> f64 {
        let full = self
            .counts
            .len()
            .saturating_sub(1)
            .max(1)
            .min(self.counts.len());
        let rates = self.counts[..full]
            .iter()
            .map(|&c| c as f64 / self.window.as_secs_f64())
            .collect();
        quantile(&sorted(rates), 0.75)
    }

    /// The rate of completions recorded elsewhere.
    pub fn of(done: &[Instant], start: Instant, window: Duration) -> f64 {
        let mut rate = RateWindows::new(start, window);
        for &t in done {
            rate.count(t);
        }
        rate.rate()
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Median wall time in seconds of retraining with `train`, run `reps`
/// times on a one-thread pool. The figure is then the training work
/// itself: on a small shared machine, how promptly the pool's workers are
/// woken for each parallel step moved a two-thread retraining time by up
/// to 34 % between runs.
pub fn retrain_time_s(reps: usize, mut train: impl FnMut()) -> f64 {
    let one = std::sync::Arc::new(qfe_core::ThreadPool::new(1));
    qfe_core::parallel::with_pool(&one, || time_median_ns(reps, &mut train)) / 1e9
}

/// Median wall time of `f` over `reps` calls, in nanoseconds.
pub fn time_median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

/// A field of `/proc/self/status` (`VmHWM` in kB, `Threads`, …).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Samples the process's thread count until dropped; reports the peak.
pub struct ThreadSampler {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<u64>>,
}

impl ThreadSampler {
    pub fn start() -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut peak = 0;
            while !flag.load(Ordering::Relaxed) {
                peak = peak.max(proc_status("Threads").unwrap_or(0));
                std::thread::sleep(Duration::from_millis(20));
            }
            peak
        });
        ThreadSampler {
            stop,
            handle: Some(handle),
        }
    }

    pub fn finish(mut self) -> u64 {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        self.handle
            .take()
            .map_or(0, |h| h.join().expect("thread sampler panicked"))
    }
}

/// The machine this run measured on.
pub fn environment_json(scale: &str) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"rustc\":{},\"scale\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(scale)
    )
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Attempted / succeeded / failed for one phase of a workload.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: String,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl Phase {
    pub fn new(name: &str, attempted: u64, failed: u64) -> Self {
        Phase {
            name: name.into(),
            attempted,
            succeeded: attempted - failed.min(attempted),
            failed,
        }
    }
}

/// q-errors of answered estimates against their true cardinalities,
/// one per distinct query (so the figure does not depend on how often
/// the timed loop happened to repeat a query): `(p50, p95, count)`.
pub fn qerror_summary(pairs: impl IntoIterator<Item = (f64, f64)>) -> (f64, f64, usize) {
    let errs = sorted(
        pairs
            .into_iter()
            .map(|(truth, est)| q_error(truth, est))
            .collect(),
    );
    (quantile(&errs, 0.50), quantile(&errs, 0.95), errs.len())
}

/// Drop from `test` every query whose fingerprint occurs in `train`, so
/// held-out sets stay disjoint from training.
pub fn disjoint_from(train: &[Query], test: Vec<Query>) -> Vec<Query> {
    let seen: std::collections::HashSet<u128> =
        train.iter().map(|q| QueryFingerprint::of(q).0).collect();
    let mut kept = std::collections::HashSet::new();
    test.into_iter()
        .filter(|q| {
            let fp = QueryFingerprint::of(q).0;
            !seen.contains(&fp) && kept.insert(fp)
        })
        .collect()
}

/// The run's result: checks, phases and metrics. `print` writes a
/// readable block, then the single-line JSON object the contract asks
/// for as the very last line of standard output.
pub struct Report {
    pub checks: Vec<(String, bool, String)>,
    pub phases: Vec<Phase>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            checks: Vec::new(),
            phases: Vec::new(),
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), ok, detail.into()));
    }

    pub fn phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }

    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn print(&self, workload: &str, env: &str) {
        println!("workload {workload}");
        println!("environment {env}");
        for p in &self.phases {
            println!(
                "phase {:<24} attempted {:>9} succeeded {:>9} failed {:>6}",
                p.name, p.attempted, p.succeeded, p.failed
            );
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {:<40} {} {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        for note in &self.notes {
            println!("note {note}");
        }
        for (name, value, unit) in &self.metrics {
            println!("metric {name:<36} {value:>16.6} {unit}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted().max(1),
            self.failed()
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // JSON has no infinity: a percentile that landed on a failed
            // request (a miss) is reported as this ceiling instead.
            let v = if value.is_finite() { *value } else { 1e12 };
            let _ = write!(
                json,
                "{}{}:{{\"value\":{v},\"unit\":{}}}",
                if i == 0 { "" } else { "," },
                json_str(name),
                json_str(unit)
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
