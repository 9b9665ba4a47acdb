//! Seeded benchmark for the X-Data suite, grading and serve paths.
//!
//! ```sh
//! bash benchmark/run.sh --workload deep_joins --seed 1 --seconds 25 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the traced pass and reports the per-layer table. The
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See `README.md`.

mod corpus;
mod grading;
mod layers;
mod oracle;
mod pipeline;
mod provenance;
mod serving;
mod stats;
mod tracer;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::PassMetrics;
use provenance::{peak_rss_mb, Provenance};
use tracer::Span;

pub const WORKLOADS: [&str; 4] = ["deep_joins", "extended_classes", "grade_piles", "serve_mix"];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// The end-to-end metrics with their units, in output order.
const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Share of windows a reported level may miss: a run reports the
/// throughput its windows reach, and the latency they stay under, in all
/// but this share of them.
const MISSED_WINDOWS: f64 = 0.1;

/// Share of `--seconds` the alternating untraced and traced passes of a
/// traced run take; the rest is left for replays and `par.*` scaling.
pub const TRACE_SHARE: f64 = 0.7;

/// Windows a run needs before its end-to-end metrics are reported.
const MIN_WINDOWS: usize = 6;

/// Ops a single-client window holds at least.
const WINDOW_MIN_OPS: usize = 100;

/// Failure messages kept for the report (the count is always exact).
const KEEP_FAILURES: usize = 8;

/// Outcome of a closed loop.
#[derive(Default)]
pub struct LoopStats {
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    /// Op latencies in windows with the same input mix, each large enough
    /// for its own p90.
    pub windows: Vec<Vec<f64>>,
    /// Throughput samples (ops per second), one per shorter window with
    /// the same input mix. For one client the window's time is the sum of
    /// its op latencies, so the benchmark's own output checks between ops
    /// do not count against throughput; for concurrent clients it is wall
    /// time.
    pub rates: Vec<f64>,
    pub failures: Vec<String>,
}

impl LoopStats {
    /// Count one op; its latency goes to the caller's window.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(e);
            }
        }
    }

    pub fn absorb(&mut self, other: LoopStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wall_s = self.wall_s.max(other.wall_s);
        self.windows.extend(other.windows);
        self.rates.extend(other.rates);
        let room = KEEP_FAILURES.saturating_sub(self.failures.len());
        self.failures.extend(other.failures.into_iter().take(room));
    }
}

/// Ops per latency window of a single-client loop: whole passes over the
/// schedule (so every window has the same input mix), at least
/// [`WINDOW_MIN_OPS`] so each window's p90 has ten samples beyond it.
pub fn window_ops(cycle: usize) -> usize {
    cycle * WINDOW_MIN_OPS.div_ceil(cycle)
}

/// Run `op(n)` for n = 0, 1, 2, ... until `seconds` have elapsed. `op`
/// returns the time of the measured call and the verdict of its output
/// check (which stays outside the measured time). Each pass over the
/// schedule (`cycle` ops) gives one throughput sample; latency windows
/// hold [`window_ops`] ops. Partial windows are dropped but their ops
/// count in `attempted`. `between` runs after each latency window,
/// outside every measured time.
pub fn closed_loop(
    seconds: f64,
    cycle: usize,
    between: &mut dyn FnMut(),
    mut op: impl FnMut(usize) -> (Duration, Result<(), String>),
) -> LoopStats {
    let per_window = window_ops(cycle);
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let mut window = Vec::with_capacity(per_window);
    let mut busy_s = 0.0;
    let mut n = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (took, res) = op(n);
        stats.record(res);
        busy_s += took.as_secs_f64();
        window.push(took.as_secs_f64() * 1e3);
        n += 1;
        if n % cycle == 0 {
            stats.rates.push(cycle as f64 / std::mem::take(&mut busy_s));
        }
        if n % per_window == 0 {
            stats.windows.push(std::mem::take(&mut window));
            between();
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats
}

/// Result of the traced pass.
pub struct TraceOutcome {
    pub passes: Vec<PassMetrics>,
    pub spans: Vec<Span>,
    pub stats: LoopStats,
}

/// One workload after set-up.
pub trait Workload {
    fn jobs(&self) -> usize;
    /// Check the warm-up outputs with the oracles; one message per failure.
    fn verify(&mut self) -> Vec<String>;
    /// The closed loop of the end-to-end metrics, tracing off. `between`
    /// is called between windows where the loop has such pauses.
    fn run(&mut self, seconds: f64, between: &mut dyn FnMut()) -> LoopStats;
    /// The traced pass of the per-layer metrics.
    fn trace(&mut self, seconds: f64) -> TraceOutcome;
    /// Stop everything the set-up started.
    fn finish(self: Box<Self>) {}
}

fn setup(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "deep_joins" => Box::new(pipeline::EvalWorkload::setup(corpus::deep_joins(seed), 2)),
        "extended_classes" => Box::new(pipeline::EvalWorkload::setup(
            corpus::extended_classes(seed),
            1,
        )),
        "grade_piles" => Box::new(grading::GradeWorkload::setup(corpus::grade_piles(seed))),
        "serve_mix" => Box::new(serving::ServeWorkload::setup(seed)),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Solve-memo counters of the traced pass's obs report, per op.
pub fn obs_counts(report: &xdata::obs::MetricsReport, m: &mut PassMetrics, ops: usize) {
    let hit = report.counter("core.solve_memo.hit") as f64;
    let miss = report.counter("core.solve_memo.miss") as f64;
    m.insert(
        "solver.memo_hit_ratio".into(),
        layers::ratio(hit, hit + miss),
    );
    m.insert("solver.memo_lookups".into(), (hit + miss) / ops as f64);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

/// Print the killed count of every floor query at this commit, in the
/// `floors.tsv` format.
fn print_floors() -> ExitCode {
    println!("# killed mutants per corpus query; regenerate with --print-floors");
    for case in corpus::floor_cases() {
        let x = xdata::XData::new(case.schema.clone());
        match pipeline::evaluate_killed(&x, &case.sql) {
            Ok(killed) => println!("{}\t{killed}", case.name),
            Err(e) => {
                eprintln!("{}: {e}", case.name);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--print-floors") {
        return print_floors();
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let timed_setup = || {
        let start = Instant::now();
        let w = setup(&args.workload, args.seed);
        (w, start.elapsed().as_secs_f64())
    };
    let (mut workload, first) = timed_setup();
    let mut setup_s = vec![first];
    let prov = Provenance::collect(&args.workload, args.seed, workload.jobs());
    println!("provenance {}", prov.to_json());

    let oracle_failures = workload.verify();
    for f in &oracle_failures {
        eprintln!("oracle: {f}");
    }
    let seconds = args.seconds as f64;
    let (stats, metrics) = if args.trace {
        let outcome = workload.trace(seconds);
        let table = layers::fold(&outcome.passes);
        println!(
            "per-layer table, {} traced passes (values per op):",
            outcome.passes.len()
        );
        for (name, value, unit) in &table {
            println!("  {name:<36} {value:>14.6} {unit}");
        }
        match write_spans(&args, &prov, &outcome.spans, &table) {
            Ok(path) => println!(
                "wrote {} of {} spans to {path}",
                outcome.spans.len().min(MAX_WRITTEN_SPANS),
                outcome.spans.len()
            ),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
        (outcome.stats, Ok(table))
    } else {
        // The other set-ups run between windows of the loop where it has
        // such pauses, spread evenly over the run, so they sample the
        // machine across it rather than at one moment; any left run after.
        let loop_start = Instant::now();
        let mut another_setup = |due_only: bool| {
            let due = seconds * setup_s.len() as f64 / SETUP_REPS as f64;
            if setup_s.len() < SETUP_REPS
                && (!due_only || loop_start.elapsed().as_secs_f64() >= due)
            {
                let (w, took) = timed_setup();
                w.finish();
                setup_s.push(took);
            }
        };
        let stats = workload.run(seconds, &mut || another_setup(true));
        for _ in 0..SETUP_REPS {
            another_setup(false);
        }
        let metrics = end_to_end(&stats, &setup_s);
        (stats, metrics)
    };
    workload.finish();
    for f in &stats.failures {
        eprintln!("failed op: {f}");
    }
    let metrics: Vec<(&str, f64, &str)> = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(3);
        }
    };
    let correct = oracle_failures.is_empty() && stats.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        stats.attempted,
        stats.failed,
        json_metrics(&metrics)
    );
    ExitCode::SUCCESS
}

/// The six end-to-end metrics, printed with units and sample counts.
///
/// The loop is cut into windows of equal input mix. Each throughput window
/// gives a throughput, each latency window its own p50 and p90 (each with
/// at least ten samples beyond it). A run reports the level it holds in
/// nine windows of ten: the 10th percentile of the throughputs and the
/// 90th percentile of the window percentiles. On a shared machine the
/// program runs in slow and fast phases lasting seconds; this keeps a
/// phase that covers part of one run from moving the run's result.
fn end_to_end(
    stats: &LoopStats,
    setup_s: &[f64],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let windows = &stats.windows;
    if windows.len().min(stats.rates.len()) < MIN_WINDOWS {
        return Err(format!(
            "{} latency and {} throughput windows, fewer than {MIN_WINDOWS}; raise --seconds",
            windows.len(),
            stats.rates.len()
        ));
    }
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for w in windows {
        let mut lat = w.clone();
        stats::sort(&mut lat);
        let pct = |q: f64| {
            stats::percentile(&lat, q).ok_or_else(|| {
                format!(
                    "a window of {} ops has fewer than {} beyond p{q}",
                    lat.len(),
                    stats::MIN_BEYOND
                )
            })
        };
        p50s.push(pct(0.5)?);
        p90s.push(pct(0.9)?);
    }
    let ops_per_s = stats::quantile(&stats.rates, MISSED_WINDOWS);
    let p50 = stats::quantile(&p50s, 1.0 - MISSED_WINDOWS);
    let p90 = stats::quantile(&p90s, 1.0 - MISSED_WINDOWS);
    let n: usize = windows.iter().map(Vec::len).sum();
    let attempted = stats.attempted.max(1) as f64;
    let error_rate = stats.failed as f64 / attempted;
    let rss = peak_rss_mb().ok_or("peak RSS unavailable (no /proc/self/status)")?;
    let setup = stats::median(setup_s);
    let (k, r) = (windows.len(), stats.rates.len());
    println!(
        "end-to-end: {} ops in {:.2} s, closed loop; {n} samples in {k} latency windows",
        stats.attempted, stats.wall_s
    );
    println!("  ops_per_s     {ops_per_s:>12.3} 1/s    (held in 9 of 10 of {r} windows; n={n})");
    println!("  p50_ms        {p50:>12.4} ms     (held in 9 of 10 of {k} window p50s; n={n})");
    println!("  p90_ms        {p90:>12.4} ms     (held in 9 of 10 of {k} window p90s; n={n})");
    println!(
        "  error_rate    {error_rate:>12.6} ratio  ({} of {} failed)",
        stats.failed, stats.attempted
    );
    println!(
        "  success_rate  {:>12.6} ratio  (1 - error_rate)",
        1.0 - error_rate
    );
    println!("  peak_rss_mb   {rss:>12.3} MiB");
    println!(
        "  setup_s       {setup:>12.4} s      (median of {} set-ups)",
        setup_s.len()
    );
    let values = [ops_per_s, p50, p90, 1.0 - error_rate, rss, setup];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect())
}

/// Spans written to the trace file at most; the layer table always
/// covers every span.
const MAX_WRITTEN_SPANS: usize = 50_000;

/// Write the traced pass's spans and layer table to
/// `.bench_out/<workload>-seed<seed>.trace.json` under the working
/// directory (Chrome trace-event format), the first
/// [`MAX_WRITTEN_SPANS`] spans only.
fn write_spans(
    args: &Args,
    prov: &Provenance,
    spans: &[Span],
    table: &[(&str, f64, &str)],
) -> std::io::Result<String> {
    std::fs::create_dir_all(".bench_out")?;
    let path = format!(".bench_out/{}-seed{}.trace.json", args.workload, args.seed);
    let kept = &spans[..spans.len().min(MAX_WRITTEN_SPANS)];
    let extra = format!(
        "\"provenance\":{},\"layers\":{},\"spans_total\":{}",
        prov.to_json(),
        json_metrics(table),
        spans.len()
    );
    std::fs::write(&path, tracer::to_chrome_json(kept, &extra))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata::obs::{parse_json, Json};

    /// `(name, unit)` of every metric in one `BENCHMARK.json` list.
    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = doc.get(key) else {
            panic!("{key} is not a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_benchmark_prints() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = layers::PER_LAYER
            .iter()
            .map(|(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), per_layer);
    }

    #[test]
    fn windows_cover_whole_schedule_passes_of_at_least_100_ops() {
        assert_eq!(window_ops(20), 100);
        assert_eq!(window_ops(60), 120);
        assert_eq!(window_ops(4), 100);
        assert_eq!(window_ops(150), 150);
    }
}
