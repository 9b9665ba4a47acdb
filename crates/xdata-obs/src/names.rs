//! Canonical metric names used by the X-Data pipeline.
//!
//! Instrumentation sites reference these literals directly (the recorder
//! keys on `&'static str`); this module is the registry that keeps the
//! report's key set stable: [`preseed`] zero-initializes every canonical
//! counter, histogram and phase span so a `generate`-only run still emits
//! the `kill.*` keys (at zero) and vice versa — consumers can rely on the
//! schema without probing for key existence.

/// Every canonical counter, sorted. Solver counters are recorded inside
/// `xdata-solver` (per ground solve), `core.*` by `xdata-core::generate`
/// and `xdata-core::grade`, `engine.*` by the join executor, `kill.*` by
/// `xdata-engine::kill_report_jobs`, and `serve.*` by the `xdata-serve`
/// daemon (connection/request lifecycle and warm-cache occupancy).
pub const ALL_COUNTERS: &[&str] = &[
    "core.grade.candidates",
    "core.grade.dedup_hit",
    "core.grade.dedup_miss",
    "core.partial_suites",
    "core.rows_emitted",
    "core.skeleton_cache.hit",
    "core.skeleton_cache.miss",
    "core.solve_memo.hit",
    "core.solve_memo.miss",
    "core.targets.faulted",
    "core.targets.null_witness",
    "core.targets.planned",
    "core.targets.skipped",
    "core.targets.solved",
    "core.targets.timed_out",
    "engine.hash_join.build_rows",
    "engine.hash_join.fallback_nodes",
    "engine.hash_join.nodes",
    "engine.hash_join.probe_rows",
    "engine.subquery.fallback_preds",
    "engine.subquery.hash_preds",
    "engine.subquery.probe_rows",
    "kill.datasets",
    "kill.killed.agg",
    "kill.killed.cmp",
    "kill.killed.distinct",
    "kill.killed.having_agg",
    "kill.killed.having_cmp",
    "kill.killed.join",
    "kill.killed.like",
    "kill.killed.null_check",
    "kill.killed.subquery",
    "kill.mutants",
    "kill.survived.agg",
    "kill.survived.cmp",
    "kill.survived.distinct",
    "kill.survived.having_agg",
    "kill.survived.having_cmp",
    "kill.survived.join",
    "kill.survived.like",
    "kill.survived.null_check",
    "kill.survived.subquery",
    "kill.unevaluated",
    "serve.connections",
    "serve.deadline_clamped",
    "serve.errors",
    "serve.rejected_frames",
    "serve.requests",
    "serve.requests.evaluate",
    "serve.requests.generate",
    "serve.requests.grade_batch",
    "serve.requests.ping",
    "serve.warm.memo_entries",
    "serve.warm.sessions",
    "solver.cancel_checks",
    "solver.clause_db.dropped",
    "solver.clause_db.kept",
    "solver.conflicts",
    "solver.decisions",
    "solver.ground_solves",
    "solver.instantiations",
    "solver.learned_clauses",
    "solver.phase_saves",
    "solver.propagations",
    "solver.restarts",
    "solver.session.assumption_solves",
    "solver.session.reused_clauses",
    "solver.string_constraints",
    "solver.theory_relaxations",
    "solver.unfold_expansions",
    "solver.unknown_exits",
];

/// Every canonical histogram. `solver.cancel_latency` (nanoseconds past a
/// wall-clock deadline when the cooperative check noticed) only receives
/// samples when a *real* deadline expires — synthetic chaos cancellation
/// records nothing, keeping fault-injected runs byte-comparable.
pub const ALL_HISTOGRAMS: &[&str] = &[
    "core.dataset_rows",
    "solver.backjump_depth",
    "solver.cancel_latency",
    "solver.clause_lbd",
    "solver.ground_atoms",
];

/// Every canonical span path (the pipeline phases). The `grade/*` spans
/// cover the batch-grading fast path: `grade/reference` executes the
/// instructor query per dataset, `grade/grid` fans the deduplicated
/// candidate×dataset matrix over the worker pool.
pub const PHASE_SPANS: &[&str] = &[
    "generate",
    "generate/plan",
    "generate/solve",
    "grade",
    "grade/grid",
    "grade/reference",
    "kill",
    "kill/mutant",
    "kill/originals",
];

/// Every canonical instant (point) event name the journal can record,
/// sorted. Instants exist only in the event timeline — they never appear
/// in the aggregate metrics report (their aggregate counterparts are the
/// `core.*`/`solver.*`/`kill.*` counters above).
///
/// * `core.target.skip` — a target resolved without a dataset; the label
///   carries the `SkipReason`.
/// * `kill.verdict` — one mutant classified; the label carries
///   `killed`/`survived` plus the mutant class.
/// * `par.claim` — a pool worker claimed a work item; the label carries
///   the queue-wait since the batch was submitted. Scheduling-domain, so
///   excluded from the deterministic trace structure.
/// * `solver.restart` — a CDCL core restarted (conflict-driven, Luby).
/// * `solver.solve` — one ground solve finished; the label carries the
///   verdict and decision/conflict totals (per-decision events would bloat
///   traces by orders of magnitude; the batch is the compromise).
pub const ALL_INSTANTS: &[&str] = &[
    "core.target.skip",
    "kill.verdict",
    "par.claim",
    "solver.restart",
    "solver.solve",
];

/// Zero-initialize every canonical key. Call right after [`crate::install`]
/// when a stable report schema matters (the CLI does); without it the
/// report contains only the keys the run actually touched.
pub fn preseed() {
    for &name in ALL_COUNTERS {
        crate::counter(name, 0);
    }
    if crate::enabled() {
        let mut hists = crate::HISTS.lock().expect("obs hists");
        for &name in ALL_HISTOGRAMS {
            hists.entry(name).or_default();
        }
    }
    for path in PHASE_SPANS {
        crate::span::preseed_span(path);
    }
}
