//! `grade_piles`: one op is `XData::grade_batch` on one submission pile.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use xdata::catalog::DomainCatalog;
use xdata::core::{
    generate_cancellable, BatchGradeReport, CancelToken, CandidateOutcome, GenOptions,
};
use xdata::engine::exec::{execute_query_strategy, JoinStrategy};
use xdata::relalg::{canonical_form, normalize};
use xdata::{Grade, XData};

use crate::corpus::{Corpus, Expect, Pile};
use crate::layers::{add_totals, alternate_passes, bump, pass_metrics, PassMetrics};
use crate::pipeline::count_suite;
use crate::tracer::Tracer;
use crate::{closed_loop, obs_counts, LoopStats, TraceOutcome, Workload, TRACE_SHARE};

pub struct GradeWorkload {
    corpus: Corpus<Pile>,
    runners: Vec<XData>,
    sql: Vec<Vec<String>>,
    warm: Vec<Result<BatchGradeReport, String>>,
    expected: Vec<Option<String>>,
    bad: Vec<Vec<String>>,
}

fn grade(x: &XData, pile: &Pile, sql: &[String]) -> Result<BatchGradeReport, String> {
    x.grade_batch(&pile.reference, sql)
        .map_err(|e| e.to_string())
}

/// Does `outcome` match the verdict the candidate's construction fixes?
fn matches(expect: Expect, outcome: &CandidateOutcome) -> bool {
    matches!(
        (expect, outcome),
        (Expect::Pass, CandidateOutcome::Pass)
            | (Expect::Fail, CandidateOutcome::Fail { .. })
            | (Expect::Invalid, CandidateOutcome::Invalid { .. })
            | (
                Expect::Unknown,
                CandidateOutcome::Pass | CandidateOutcome::Fail { .. }
            )
    )
}

/// The batch verdict must agree with an independent `XData::grade` call.
fn cross_check(x: &XData, pile: &Pile, sql: &str, outcome: &CandidateOutcome) -> Option<String> {
    let single = x.grade(&pile.reference, sql);
    let agree = match (&single, outcome) {
        (Ok(Grade::AgreesOnSuite { .. }), CandidateOutcome::Pass) => true,
        (
            Ok(Grade::Different { dataset_index, .. }),
            CandidateOutcome::Fail { first_dataset, .. },
        ) => dataset_index == first_dataset,
        (Err(_), CandidateOutcome::Invalid { .. }) => true,
        _ => false,
    };
    (!agree).then(|| format!("`{sql}`: batch {outcome:?}, XData::grade {single:?}"))
}

impl GradeWorkload {
    pub fn setup(corpus: Corpus<Pile>) -> GradeWorkload {
        let runners: Vec<XData> = corpus
            .cases
            .iter()
            .map(|p| XData::new(p.schema.clone()).with_jobs(1))
            .collect();
        let sql: Vec<Vec<String>> = corpus
            .cases
            .iter()
            .map(|p| p.candidates.iter().map(|c| c.sql.clone()).collect())
            .collect();
        let warm = corpus
            .cases
            .iter()
            .enumerate()
            .map(|(i, p)| grade(&runners[i], p, &sql[i]))
            .collect();
        let n = corpus.cases.len();
        GradeWorkload {
            corpus,
            runners,
            sql,
            warm,
            expected: vec![None; n],
            bad: vec![Vec::new(); n],
        }
    }

    fn check(&self, case: usize, render: &str) -> Result<(), String> {
        let name = &self.corpus.cases[case].name;
        if let Some(e) = self.bad[case].first() {
            return Err(format!("{name}: {e}"));
        }
        if self.expected[case].as_deref() != Some(render) {
            return Err(format!(
                "{name}: report differs from the verified warm-up report"
            ));
        }
        Ok(())
    }

    fn timed_op(&self, case: usize) -> (Duration, Result<(), String>) {
        let start = Instant::now();
        let report = grade(
            &self.runners[case],
            &self.corpus.cases[case],
            &self.sql[case],
        );
        let took = start.elapsed();
        (took, report.and_then(|r| self.check(case, &r.render())))
    }

    /// `grade_batch`'s steps re-run one layer call at a time on the same
    /// pile: reference parse/normalize/generate, candidate front end
    /// (parse, normalize, canonical form), and the execution grid. Each
    /// layer's calls sit under one span per pile to keep the trace small.
    fn replay(&self, t: &mut Tracer, case: usize, totals: &mut PassMetrics) {
        let pile = &self.corpus.cases[case];
        let schema = &pile.schema;
        let domains = DomainCatalog::defaults(schema);
        let opts = GenOptions {
            jobs: 1,
            ..GenOptions::default()
        };
        t.span("replay", |t| {
            let (ast, parsed) = t.span("sql.parse", |_| {
                let ast = xdata::sql::parse_query(&pile.reference).expect("reference parses");
                (
                    ast,
                    self.sql[case]
                        .iter()
                        .map(|s| xdata::sql::parse_query(s))
                        .collect::<Vec<_>>(),
                )
            });
            let (reference, normalized) = t.span("relalg.normalize", |_| {
                let r = normalize(&ast, schema).expect("reference normalizes");
                (
                    r,
                    parsed
                        .iter()
                        .flatten()
                        .map(|a| normalize(a, schema))
                        .collect::<Vec<_>>(),
                )
            });
            let mut classes = Vec::new();
            let hits = t.span("relalg.canonical", |_| {
                let mut seen = HashSet::new();
                let mut hits = 0;
                for q in normalized.iter().flatten() {
                    if seen.insert(canonical_form(q)) {
                        classes.push(q);
                    } else {
                        hits += 1;
                    }
                }
                hits
            });
            let suite = t.span("core.generate", |_| {
                generate_cancellable(&reference, schema, &domains, &opts, &CancelToken::new())
                    .expect("reference suite generates")
            });
            let executed = t.span("engine.execute", |_| {
                let mut calls = 0usize;
                for d in &suite.datasets {
                    let want =
                        execute_query_strategy(&reference, &d.dataset, schema, JoinStrategy::Hash);
                    calls += 1;
                    for q in &classes {
                        let got = execute_query_strategy(q, &d.dataset, schema, JoinStrategy::Hash);
                        calls += 1;
                        std::hint::black_box(got.ok() == want.as_ref().ok().cloned());
                    }
                }
                calls
            });
            let n = self.sql[case].len() as f64;
            let ok_parse = parsed.iter().filter(|p| p.is_ok()).count() as f64;
            let ok_norm = normalized.iter().filter(|q| q.is_ok()).count() as f64;
            // Layer calls are counted, not taken from the one span per
            // layer and pile.
            for (key, v) in [
                ("sql.parse.calls", n + 1.0),
                ("sql.parse.errors", n - ok_parse),
                ("relalg.normalize.calls", ok_parse + 1.0),
                ("relalg.normalize.errors", ok_parse - ok_norm),
                ("relalg.canonical.calls", ok_norm),
                ("relalg.dedup_hits", hits as f64),
                ("relalg.dedup_base", ok_norm),
                ("engine.execute.calls", executed as f64),
            ] {
                bump(totals, key, v);
            }
            count_suite(totals, &suite);
        });
    }
}

impl Workload for GradeWorkload {
    fn jobs(&self) -> usize {
        1
    }

    fn verify(&mut self) -> Vec<String> {
        let mut all = Vec::new();
        for (i, warm) in std::mem::take(&mut self.warm).into_iter().enumerate() {
            let pile = &self.corpus.cases[i];
            let mut errs = Vec::new();
            match warm {
                Err(e) => errs.push(format!("grade_batch failed: {e}")),
                Ok(report) => {
                    if report.partial {
                        errs.push("reference suite is partial".into());
                    }
                    if report.verdicts.len() != pile.candidates.len() {
                        errs.push(format!(
                            "{} verdicts for {} candidates",
                            report.verdicts.len(),
                            pile.candidates.len()
                        ));
                    }
                    for (c, v) in pile.candidates.iter().zip(&report.verdicts) {
                        if !matches(c.expect, &v.outcome) {
                            errs.push(format!(
                                "`{}`: expected {:?}, got {:?}",
                                c.sql, c.expect, v.outcome
                            ));
                        }
                    }
                    for &s in &pile.sample {
                        if let Some(v) = report.verdicts.get(s) {
                            let sql = &pile.candidates[s].sql;
                            errs.extend(cross_check(&self.runners[i], pile, sql, &v.outcome));
                        }
                    }
                    self.expected[i] = Some(report.render());
                }
            }
            all.extend(errs.iter().map(|e| format!("{}: {e}", pile.name)));
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
        let order: Vec<usize> = (0..self.corpus.cases.len()).collect();
        let ops = order.len();
        let mut stats = LoopStats::default();
        let epoch = Instant::now();
        let (passes, spans) = alternate_passes(seconds * TRACE_SHARE, |traced| {
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
            let mut m = PassMetrics::new();
            let mut tracer = Tracer::new(epoch, 0);
            xdata::obs::install();
            xdata::obs::preseed();
            for &i in &order {
                let report = tracer.span("op", |_| {
                    grade(&self.runners[i], &self.corpus.cases[i], &self.sql[i])
                });
                stats.record(report.and_then(|r| self.check(i, &r.render())));
            }
            let report = xdata::obs::take_report().expect("recorder installed");
            for &i in &order {
                self.replay(&mut tracer, i, &mut m);
            }
            let spans = tracer.into_spans();
            let mut pm = pass_metrics(&spans, ops);
            let wall_ms = pm["wall_ms"];
            let unattributed = pm["unattributed_ratio"] * wall_ms;
            add_totals(&mut pm, m, ops);
            pm.insert("core.grade_batch.self_ms".into(), wall_ms);
            pm.insert("core.grade_batch.unattributed_ms".into(), unattributed);
            obs_counts(&report, &mut pm, ops);
            (pm, spans)
        });
        TraceOutcome {
            passes,
            spans,
            stats,
        }
    }
}
