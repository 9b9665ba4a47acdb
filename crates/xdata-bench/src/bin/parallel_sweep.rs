//! Thread-count sweep over the Table I workload: runs suite generation and
//! kill evaluation with 1, 2, 4 and 8 worker threads, verifies the outputs
//! are identical across thread counts, and writes the timings to
//! `results/BENCH_parallel.json`.
//!
//! ```sh
//! cargo run -p xdata-bench --release --bin parallel_sweep
//! ```

use std::time::Duration;

use xdata_bench::{
    build_json_line, chain_schema, chain_sql, indent_json, median_time, relevant_fk_count,
    write_trace_artifact,
};
use xdata_catalog::DomainCatalog;
use xdata_core::{generate, GenOptions};
use xdata_engine::kill::kill_report_jobs;
use xdata_relalg::mutation::{mutation_space, MutationOptions};
use xdata_relalg::normalize;
use xdata_sql::parse_query;

const JOBS: [usize; 4] = [1, 2, 4, 8];

struct SweepRow {
    joins: usize,
    fks: usize,
    datasets: usize,
    mutants: usize,
    gen_ms: [f64; JOBS.len()],
    kill_ms: [f64; JOBS.len()],
    /// Rendered `MetricsReport` of the canonical jobs=1 generate+kill run.
    metrics: String,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() {
    let tree_limit: usize = std::env::var("XDATA_TREE_LIMIT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let max_joins: usize = std::env::var("XDATA_MAX_JOINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("parallel sweep over the Table I chain workload ({cores} cores available)");
    println!(
        "{:>6} {:>4} {:>9} {:>8} | {:>30} | {:>30}",
        "#Joins", "#FK", "#Datasets", "#Mutants", "generate ms (1/2/4/8 jobs)", "kill ms (1/2/4/8 jobs)"
    );

    let mut rows = Vec::new();
    for joins in 2..=max_joins {
        let k = joins + 1;
        let fks = relevant_fk_count(k);
        let schema = chain_schema(k, fks);
        let q = normalize(&parse_query(&chain_sql(k)).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);

        // Record pipeline metrics for the canonical sequential run only, so
        // the embedded report reflects one generate + one kill pass (the
        // timing sweep below re-runs the same work many times over).
        xdata_obs::install();
        xdata_obs::preseed();
        let baseline =
            generate(&q, &schema, &domains, &GenOptions::default()).expect("generation succeeds");
        let space = mutation_space(
            &q,
            MutationOptions { include_full: false, include_extensions: false, tree_limit },
        );
        let base_report =
            kill_report_jobs(&q, &space, &baseline.data(), &schema, 1).expect("kill succeeds");
        let metrics = xdata_obs::take_report().expect("recorder installed").to_json();

        let mut gen_ms = [0.0; JOBS.len()];
        let mut kill_ms = [0.0; JOBS.len()];
        for (ji, &jobs) in JOBS.iter().enumerate() {
            let opts = GenOptions { jobs, ..GenOptions::default() };
            // Determinism check rides along: every thread count must
            // reproduce the sequential suite and kill matrix exactly.
            let suite = generate(&q, &schema, &domains, &opts).unwrap();
            assert_eq!(suite.datasets.len(), baseline.datasets.len(), "jobs={jobs}");
            for (a, b) in baseline.datasets.iter().zip(&suite.datasets) {
                assert_eq!(a.label, b.label, "jobs={jobs}");
                assert_eq!(a.dataset, b.dataset, "jobs={jobs}");
            }
            let report = kill_report_jobs(&q, &space, &suite.data(), &schema, jobs).unwrap();
            assert_eq!(report.killed_by, base_report.killed_by, "jobs={jobs}");

            gen_ms[ji] = ms(median_time(1, 3, || {
                generate(&q, &schema, &domains, &opts).unwrap();
            }));
            kill_ms[ji] = ms(median_time(1, 3, || {
                kill_report_jobs(&q, &space, &baseline.data(), &schema, jobs).unwrap();
            }));
        }

        let fmt4 = |xs: &[f64; 4]| {
            format!("{:>6.1} {:>6.1} {:>6.1} {:>6.1}", xs[0], xs[1], xs[2], xs[3])
        };
        println!(
            "{:>6} {:>4} {:>9} {:>8} | {:>30} | {:>30}",
            joins,
            fks,
            baseline.datasets.len(),
            space.len(),
            fmt4(&gen_ms),
            fmt4(&kill_ms),
        );
        rows.push(SweepRow {
            joins,
            fks,
            datasets: baseline.datasets.len(),
            mutants: space.len(),
            gen_ms,
            kill_ms,
            metrics,
        });
    }

    // Hand-rolled JSON: the workspace deliberately has no serde.
    let mut json = String::from("{\n");
    json.push_str(&build_json_line());
    json.push_str(&format!("  \"cores_available\": {cores},\n"));
    json.push_str(&format!(
        "  \"jobs\": [{}],\n",
        JOBS.map(|j| j.to_string()).join(", ")
    ));
    json.push_str("  \"workload\": \"Table I chain queries, all relevant FKs\",\n");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let nums = |xs: &[f64; 4]| {
            xs.iter().map(|x| format!("{x:.3}")).collect::<Vec<_>>().join(", ")
        };
        json.push_str(&format!(
            "    {{\"joins\": {}, \"fks\": {}, \"datasets\": {}, \"mutants\": {}, \
             \"generate_ms\": [{}], \"kill_ms\": [{}],\n     \"metrics\": {}}}{}\n",
            r.joins,
            r.fks,
            r.datasets,
            r.mutants,
            nums(&r.gen_ms),
            nums(&r.kill_ms),
            indent_json(&r.metrics, "     "),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    let out = std::path::Path::new("results/BENCH_parallel.json");
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).expect("create results dir");
    }
    std::fs::write(out, &json).expect("write BENCH_parallel.json");
    println!("\nwrote {} ({} rows); outputs verified identical across jobs {:?}", out.display(), rows.len(), JOBS);

    // Event-timeline artifact: one generate+kill pass at the widest sweep
    // point under the journal. Generation solves its targets in order on
    // this thread; the kill check's queue-wait vs run shows up as
    // `par.claim` instants.
    write_trace_artifact(out, || {
        let k = 4;
        let fks = relevant_fk_count(k);
        let schema = chain_schema(k, fks);
        let q = normalize(&parse_query(&chain_sql(k)).unwrap(), &schema).unwrap();
        let domains = DomainCatalog::defaults(&schema);
        let jobs = *JOBS.last().unwrap();
        let opts = GenOptions { jobs, ..GenOptions::default() };
        let suite = generate(&q, &schema, &domains, &opts).unwrap();
        let space = mutation_space(
            &q,
            MutationOptions { include_full: false, include_extensions: false, tree_limit },
        );
        kill_report_jobs(&q, &space, &suite.data(), &schema, jobs).unwrap();
    });

    if cores == 1 {
        println!("note: only 1 core available — speedups cannot materialize on this machine.");
    }
}
