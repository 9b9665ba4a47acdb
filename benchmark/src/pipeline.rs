//! `deep_joins` and `extended_classes`: one op is `XData::evaluate` with
//! the CLI's mutation options plus `render_evaluate`, the bytes the CLI
//! and the daemon print.

use std::time::{Duration, Instant};

use xdata::catalog::{Dataset, DomainCatalog};
use xdata::core::generate::total_stats;
use xdata::core::kill::kill_report_cancel;
use xdata::core::{generate_cancellable, CancelToken, GenOptions, TestSuite};
use xdata::engine::KillReport;
use xdata::relalg::mutation::{mutation_space, MutationOptions};
use xdata::relalg::{normalize, MutationSpace};
use xdata::serve::render_evaluate;
use xdata::{Run, XData};

use crate::corpus::{Corpus, EvalCase};
use crate::layers::{add_totals, alternate_passes, bump, pass_metrics, PassMetrics};
use crate::oracle::{floors, integrity_violations, recheck_kills};
use crate::tracer::Tracer;
use crate::{closed_loop, obs_counts, LoopStats, TraceOutcome, Workload, TRACE_SHARE};

/// The mutation options of the CLI's and the daemon's `evaluate`.
pub fn mutation_options() -> MutationOptions {
    MutationOptions {
        include_full: true,
        tree_limit: 20_000,
        ..Default::default()
    }
}

struct Output {
    run: Run,
    space: MutationSpace,
    report: KillReport,
    render: String,
}

/// What every later op on a case must reproduce, fixed once the warm-up
/// output passed the oracles.
struct Expected {
    render: String,
    datasets: Vec<Dataset>,
}

pub struct EvalWorkload {
    corpus: Corpus<EvalCase>,
    jobs: usize,
    runners: Vec<XData>,
    warm: Vec<Result<Output, String>>,
    expected: Vec<Option<Expected>>,
    /// Oracle failures per case; every op on a failed case fails.
    bad: Vec<Vec<String>>,
}

fn evaluate(x: &XData, sql: &str) -> Result<Output, String> {
    let (run, space, report) = x
        .evaluate(sql, mutation_options())
        .map_err(|e| e.to_string())?;
    let render = render_evaluate(&run.query, &run.suite, &space, &report);
    Ok(Output {
        run,
        space,
        report,
        render,
    })
}

/// Mutants `sql` kills under the CLI's `evaluate` options.
pub fn evaluate_killed(x: &XData, sql: &str) -> Result<usize, String> {
    evaluate(x, sql).map(|o| o.report.killed_count())
}

impl EvalWorkload {
    /// Build the runners and evaluate every case once (the warm-up).
    pub fn setup(corpus: Corpus<EvalCase>, jobs: usize) -> EvalWorkload {
        let runners: Vec<XData> = corpus
            .cases
            .iter()
            .map(|c| XData::new(c.schema.clone()).with_jobs(jobs))
            .collect();
        let warm = corpus
            .cases
            .iter()
            .zip(&runners)
            .map(|(c, x)| evaluate(x, &c.sql))
            .collect();
        let n = corpus.cases.len();
        EvalWorkload {
            corpus,
            jobs,
            runners,
            warm,
            expected: (0..n).map(|_| None).collect(),
            bad: vec![Vec::new(); n],
        }
    }

    /// Compare one op's output with the verified warm-up output.
    fn check(&self, case: usize, render: &str, datasets: &[&Dataset]) -> Result<(), String> {
        let name = &self.corpus.cases[case].name;
        if let Some(e) = self.bad[case].first() {
            return Err(format!("{name}: {e}"));
        }
        let exp = self.expected[case]
            .as_ref()
            .expect("verify ran before the loop");
        if exp.render != render || exp.datasets.iter().ne(datasets.iter().copied()) {
            return Err(format!(
                "{name}: output differs from the verified warm-up output"
            ));
        }
        Ok(())
    }

    fn timed_op(&self, case: usize) -> (Duration, Result<(), String>) {
        let c = &self.corpus.cases[case];
        let start = Instant::now();
        let out = evaluate(&self.runners[case], &c.sql);
        let took = start.elapsed();
        let checked = out.and_then(|o| self.check(case, &o.render, &o.run.suite.data()));
        (took, checked)
    }

    /// Distinct cases in order of first appearance in the schedule.
    fn pass_order(&self) -> Vec<usize> {
        let mut seen = vec![false; self.corpus.cases.len()];
        self.corpus
            .schedule
            .iter()
            .copied()
            .filter(|&i| !std::mem::replace(&mut seen[i], true))
            .collect()
    }

    /// The op decomposed into its public layer calls, each under a span.
    /// Returns the same bytes `evaluate` does.
    fn traced_op(
        &self,
        t: &mut Tracer,
        case: usize,
        m: &mut PassMetrics,
    ) -> Result<Output, String> {
        let c = &self.corpus.cases[case];
        let schema = &c.schema;
        let domains = DomainCatalog::defaults(schema);
        let opts = GenOptions {
            jobs: self.jobs,
            ..GenOptions::default()
        };
        let cancel = CancelToken::for_deadline_ms(opts.deadline_ms);
        t.span("op", |t| {
            let ast = t.span("sql.parse", |_| xdata::sql::parse_query(&c.sql));
            let ast = ast.inspect_err(|_| bump(m, "sql.parse.errors", 1.0));
            let ast = ast.map_err(|e| e.to_string())?;
            let query = t.span("relalg.normalize", |_| normalize(&ast, schema));
            let query = query
                .inspect_err(|_| bump(m, "relalg.normalize.errors", 1.0))
                .map_err(|e| e.to_string())?;
            let suite = t.span("core.generate", |_| {
                generate_cancellable(&query, schema, &domains, &opts, &cancel)
            });
            let suite = suite.map_err(|e| e.to_string())?;
            let space = t.span("relalg.mutation_space", |_| {
                mutation_space(&query, mutation_options())
            });
            let report = t.span("engine.kill", |_| {
                kill_report_cancel(&query, &space, &suite.data(), schema, opts.jobs, &cancel)
            });
            let report = report.map_err(|e| e.to_string())?;
            let render = t.span("core.render", |_| {
                render_evaluate(&query, &suite, &space, &report)
            });
            Ok(Output {
                run: Run { query, suite },
                space,
                report,
                render,
            })
        })
    }

    /// `par.*_scaling`: generate and kill time over the corpus at `jobs=1`
    /// divided by the same at `jobs=2`, median of three alternating reps.
    fn par_scaling(&self, m: &mut PassMetrics) {
        let order = self.pass_order();
        let prepared: Vec<_> = order
            .iter()
            .filter_map(|&i| {
                let c = &self.corpus.cases[i];
                let q = normalize(&xdata::sql::parse_query(&c.sql).ok()?, &c.schema).ok()?;
                Some((c, q, DomainCatalog::defaults(&c.schema)))
            })
            .collect();
        let cancel = CancelToken::new();
        let time_at = |jobs: usize| {
            let opts = GenOptions {
                jobs,
                ..GenOptions::default()
            };
            let (mut gen, mut kill) = (Duration::ZERO, Duration::ZERO);
            for (c, q, domains) in &prepared {
                let start = Instant::now();
                let suite = generate_cancellable(q, &c.schema, domains, &opts, &cancel)
                    .expect("generation succeeded in the warm-up");
                gen += start.elapsed();
                let space = mutation_space(q, mutation_options());
                let start = Instant::now();
                kill_report_cancel(q, &space, &suite.data(), &c.schema, jobs, &cancel)
                    .expect("kill checking succeeded in the warm-up");
                kill += start.elapsed();
            }
            (gen.as_secs_f64(), kill.as_secs_f64())
        };
        let (mut g, mut k) = (Vec::new(), Vec::new());
        for rep in 0..3 {
            let (one, two) = if rep % 2 == 0 {
                let one = time_at(1);
                (one, time_at(2))
            } else {
                let two = time_at(2);
                (time_at(1), two)
            };
            g.push(one.0 / two.0);
            k.push(one.1 / two.1);
        }
        m.insert("par.generate_scaling".into(), crate::stats::median(&g));
        m.insert("par.kill_scaling".into(), crate::stats::median(&k));
    }
}

impl Workload for EvalWorkload {
    fn jobs(&self) -> usize {
        self.jobs
    }

    fn verify(&mut self) -> Vec<String> {
        let floors = floors();
        let mut all = Vec::new();
        for (i, warm) in std::mem::take(&mut self.warm).into_iter().enumerate() {
            let case = &self.corpus.cases[i];
            let mut errs = Vec::new();
            match warm {
                Err(e) => errs.push(format!("evaluate failed: {e}")),
                Ok(out) => {
                    let data = out.run.suite.data();
                    for (d, db) in data.iter().enumerate() {
                        for v in integrity_violations(db, &case.schema) {
                            errs.push(format!("dataset #{d}: {v}"));
                        }
                    }
                    errs.extend(recheck_kills(
                        &out.run.query,
                        &out.space,
                        &out.report,
                        &data,
                        &case.schema,
                    ));
                    if !out.report.unevaluated.is_empty() {
                        errs.push(format!(
                            "{} mutants unevaluated",
                            out.report.unevaluated.len()
                        ));
                    }
                    match floors.get(case.name.as_str()) {
                        None => errs.push("no killed-count floor recorded".into()),
                        Some(&floor) if out.report.killed_count() < floor => errs.push(format!(
                            "killed {} mutants, fewer than the floor {floor}",
                            out.report.killed_count()
                        )),
                        Some(_) => {}
                    }
                    self.expected[i] = Some(Expected {
                        render: out.render,
                        datasets: data.into_iter().cloned().collect(),
                    });
                }
            }
            all.extend(errs.iter().map(|e| format!("{}: {e}", case.name)));
            self.bad[i] = errs;
        }
        all
    }

    fn run(&mut self, seconds: f64, between: &mut dyn FnMut()) -> LoopStats {
        let schedule = self.corpus.schedule.clone();
        closed_loop(seconds, schedule.len(), between, |n| {
            self.timed_op(schedule[n % schedule.len()])
        })
    }

    fn trace(&mut self, seconds: f64) -> TraceOutcome {
        let order = self.pass_order();
        let ops = order.len();
        let mut stats = LoopStats::default();
        let epoch = Instant::now();
        let (mut passes, spans) = alternate_passes(seconds * TRACE_SHARE, |traced| {
            if !traced {
                let mut wall = 0.0;
                for &i in &order {
                    let (took, res) = self.timed_op(i);
                    stats.record(res);
                    wall += took.as_secs_f64();
                }
                let wall_ms = wall * 1e3 / ops as f64;
                return (
                    PassMetrics::from([("wall_ms".to_string(), wall_ms)]),
                    Vec::new(),
                );
            }
            let mut totals = PassMetrics::new();
            let mut tracer = Tracer::new(epoch, 0);
            xdata::obs::install();
            xdata::obs::preseed();
            for &i in &order {
                let res = self.traced_op(&mut tracer, i, &mut totals).and_then(|o| {
                    count_suite(&mut totals, &o.run.suite);
                    count_kills(&mut totals, &o.space, &o.report);
                    self.check(i, &o.render, &o.run.suite.data())
                });
                stats.record(res);
            }
            let report = xdata::obs::take_report().expect("recorder installed");
            let spans = tracer.into_spans();
            let mut pm = pass_metrics(&spans, ops);
            add_totals(&mut pm, totals, ops);
            obs_counts(&report, &mut pm, ops);
            (pm, spans)
        });
        if self.jobs > 1 {
            let mut m = PassMetrics::new();
            self.par_scaling(&mut m);
            for p in &mut passes {
                p.extend(m.clone());
            }
        }
        TraceOutcome {
            passes,
            spans,
            stats,
        }
    }
}

/// Add one suite's datasets, targets and solver work to the pass totals.
pub fn count_suite(totals: &mut PassMetrics, suite: &TestSuite) {
    let stats = total_stats(suite);
    bump(totals, "core.datasets", suite.datasets.len() as f64);
    bump(
        totals,
        "core.targets",
        (suite.datasets.len() + suite.skipped.len()) as f64,
    );
    bump(totals, "solver.decisions", stats.decisions as f64);
    bump(totals, "solver.conflicts", stats.conflicts as f64);
}

/// Add one kill check's mutants and verdicts to the pass totals.
pub fn count_kills(totals: &mut PassMetrics, space: &MutationSpace, report: &KillReport) {
    bump(totals, "relalg.mutants", space.len() as f64);
    bump(totals, "engine.kill.mutants", space.len() as f64);
    bump(totals, "engine.kill.killed", report.killed_count() as f64);
    bump(
        totals,
        "engine.kill.unevaluated",
        report.unevaluated.len() as f64,
    );
}
