//! The per-layer table of the traced pass.
//!
//! A traced pass visits every distinct input of the workload once; on
//! `serve_mix` it is a few seconds of both clients' scripts. Its spans
//! have two kinds of roots:
//!
//! * `op` — the measured operation. For `deep_joins` and
//!   `extended_classes` the op itself is decomposed into one span per
//!   public layer call, so the layers tile it.
//! * `replay` — for `grade_piles` and `serve_mix`, where the op is one
//!   public call (`grade_batch`) or one wire round trip, the same inputs
//!   are re-run through the individual layer calls under a `replay` root.
//!
//! The unattributed remainder is op wall time minus the layers' self
//! times. Every value is per op: totals over the pass divided by the
//! number of ops in it.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::tracer::{by_name, merge, self_times, Span};

/// Traced passes per run at most.
const MAX_TRACED_PASSES: usize = 200;

/// Every per-layer metric with its unit and direction, in the order the
/// table prints. `BENCHMARK.json` lists the same names.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("sql.parse.calls", "count", "lower"),
    ("sql.parse.self_ms", "ms", "lower"),
    ("sql.parse.errors", "count", "lower"),
    ("relalg.normalize.calls", "count", "lower"),
    ("relalg.normalize.self_ms", "ms", "lower"),
    ("relalg.normalize.errors", "count", "lower"),
    ("relalg.canonical.calls", "count", "lower"),
    ("relalg.canonical.self_ms", "ms", "lower"),
    ("relalg.dedup_hit_ratio", "ratio", "higher"),
    ("relalg.dedup_base", "count", "higher"),
    ("relalg.mutation_space.self_ms", "ms", "lower"),
    ("relalg.mutants", "count", "higher"),
    ("core.generate.calls", "count", "lower"),
    ("core.generate.self_ms", "ms", "lower"),
    ("core.datasets", "count", "lower"),
    ("core.dataset_yield", "ratio", "higher"),
    ("core.targets", "count", "lower"),
    ("core.render.self_ms", "ms", "lower"),
    ("core.grade_batch.self_ms", "ms", "lower"),
    ("core.grade_batch.unattributed_ms", "ms", "lower"),
    ("solver.decisions", "count", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.memo_hit_ratio", "ratio", "higher"),
    ("solver.memo_lookups", "count", "lower"),
    ("engine.kill.self_ms", "ms", "lower"),
    ("engine.kill.mutants", "count", "higher"),
    ("engine.kill.unevaluated", "count", "lower"),
    ("engine.kill_ratio", "ratio", "higher"),
    ("engine.execute.calls", "count", "lower"),
    ("engine.execute.self_ms", "ms", "lower"),
    ("par.kill_scaling", "ratio", "higher"),
    ("par.generate_scaling", "ratio", "higher"),
    ("serve.cold_p50_ms", "ms", "lower"),
    ("serve.warm_p50_ms", "ms", "lower"),
    ("serve.metrics_p50_ms", "ms", "lower"),
    ("serve.overhead_ms", "ms", "lower"),
    ("client.encode_us", "us", "lower"),
    ("client.decode_us", "us", "lower"),
    ("obs.trace_overhead_ratio", "ratio", "lower"),
    ("unattributed_ratio", "ratio", "lower"),
    ("wall_ms", "ms", "lower"),
];

/// Layer spans (everything but the `op` and `replay` roots), with the
/// metric their self time reports under and that metric's scale from ns.
/// A layer's call count reports as `<span>.calls`.
pub const LAYER_SPANS: &[(&str, &str, f64)] = &[
    ("sql.parse", "sql.parse.self_ms", 1e6),
    ("relalg.normalize", "relalg.normalize.self_ms", 1e6),
    ("relalg.canonical", "relalg.canonical.self_ms", 1e6),
    (
        "relalg.mutation_space",
        "relalg.mutation_space.self_ms",
        1e6,
    ),
    ("core.generate", "core.generate.self_ms", 1e6),
    ("core.render", "core.render.self_ms", 1e6),
    ("core.grade_batch", "core.grade_batch.self_ms", 1e6),
    ("engine.kill", "engine.kill.self_ms", 1e6),
    ("engine.execute", "engine.execute.self_ms", 1e6),
    ("client.encode", "client.encode_us", 1e3),
    ("client.decode", "client.decode_us", 1e3),
];

/// Per-op metric values of one traced pass.
pub type PassMetrics = BTreeMap<String, f64>;

/// Layer self times, wall time and the unattributed remainder of one
/// traced pass, per op. Panics if the self times of the op trees do not
/// tile their wall time exactly: that would be a bug in the accounting,
/// and every number after it would be wrong.
pub fn pass_metrics(spans: &[Span], ops: usize) -> PassMetrics {
    assert!(ops > 0, "a traced pass needs at least one op");
    let own = self_times(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for s in spans {
        let root = s.parent.map_or(s.id, |p| root_of[p]);
        root_of.push(root);
    }
    let wall_ns: u64 = spans
        .iter()
        .filter(|s| s.name == "op")
        .map(Span::duration_ns)
        .sum();
    let op_tree_self: u64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| spans[root_of[s.id]].name == "op")
        .map(|(_, &ns)| ns)
        .sum();
    assert_eq!(
        op_tree_self, wall_ns,
        "self times must tile the op wall time"
    );

    let totals = by_name(spans);
    let per_op = |ns: u64| ns as f64 / ops as f64;
    let mut m = PassMetrics::new();
    let mut layer_ns = 0u64;
    for &(name, self_metric, scale) in LAYER_SPANS {
        let t = totals.get(name).copied().unwrap_or_default();
        layer_ns += t.self_ns;
        m.insert(self_metric.to_string(), per_op(t.self_ns) / scale);
        m.insert(format!("{name}.calls"), t.calls as f64 / ops as f64);
    }
    let unattributed = wall_ns as f64 - layer_ns as f64;
    m.insert("wall_ms".into(), per_op(wall_ns) / 1e6);
    m.insert(
        "unattributed_ratio".into(),
        ratio(unattributed, wall_ns as f64),
    );
    m
}

/// Untraced and traced passes over the same inputs, alternating so both
/// meet the same machine, until `budget_s` has elapsed: at least two of
/// each, at most [`MAX_TRACED_PASSES`]. `pass(traced)` runs one pass and
/// returns its metrics (an untraced pass only `wall_ms`) and spans. Every
/// traced pass gets `obs.trace_overhead_ratio`: the median traced wall
/// time over the median untraced one.
pub fn alternate_passes(
    budget_s: f64,
    mut pass: impl FnMut(bool) -> (PassMetrics, Vec<Span>),
) -> (Vec<PassMetrics>, Vec<Span>) {
    let start = Instant::now();
    let (mut untraced, mut traced, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    while traced.len() < 2
        || (start.elapsed().as_secs_f64() < budget_s && traced.len() < MAX_TRACED_PASSES)
    {
        untraced.push(pass(false).0["wall_ms"]);
        let (m, s) = pass(true);
        traced.push(m);
        spans.push(s);
    }
    let walls: Vec<f64> = traced.iter().map(|p| p["wall_ms"]).collect();
    let overhead = crate::stats::median(&walls) / crate::stats::median(&untraced);
    for p in &mut traced {
        p.insert("obs.trace_overhead_ratio".into(), overhead);
    }
    (traced, merge(spans))
}

/// Ratios computed from pass totals: `(metric, numerator, base)`. The
/// base is reported too, per op.
const RATIOS: [(&str, &str, &str); 3] = [
    (
        "engine.kill_ratio",
        "engine.kill.killed",
        "engine.kill.mutants",
    ),
    ("core.dataset_yield", "core.datasets", "core.targets"),
    (
        "relalg.dedup_hit_ratio",
        "relalg.dedup_hits",
        "relalg.dedup_base",
    ),
];

/// Add `v` to the pass total `key`.
pub fn bump(totals: &mut PassMetrics, key: &str, v: f64) {
    *totals.entry(key.to_string()).or_default() += v;
}

/// Add a pass's totals to its metrics: the [`RATIOS`] whose base was
/// counted, and every total divided by `ops`.
pub fn add_totals(m: &mut PassMetrics, totals: PassMetrics, ops: usize) {
    for (name, num, base) in RATIOS {
        if let Some(&b) = totals.get(base) {
            let n = totals.get(num).copied().unwrap_or(0.0);
            m.insert(name.to_string(), ratio(n, b));
        }
    }
    m.extend(totals.into_iter().map(|(k, v)| (k, v / ops as f64)));
}

/// Ratio with a zero base reported as 0 (the base is reported beside it).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Fold passes into one table: the median of each metric over passes,
/// restricted to [`PER_LAYER`] names. Metrics a workload does not
/// exercise read 0 (the README lists which layers each workload reaches).
pub fn fold(passes: &[PassMetrics]) -> Vec<(&'static str, f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let values: Vec<f64> = passes.iter().filter_map(|p| p.get(name).copied()).collect();
            let v = if values.is_empty() {
                0.0
            } else {
                crate::stats::median(&values)
            };
            (name, v, unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: usize, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            name,
            id,
            parent,
            op: 1,
            thread: 0,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn layers_and_remainder_tile_the_wall() {
        let spans = vec![
            span("op", 0, None, 0, 1_000_000),
            span("sql.parse", 1, Some(0), 0, 100_000),
            span("core.generate", 2, Some(0), 100_000, 900_000),
        ];
        let m = pass_metrics(&spans, 1);
        assert_eq!(m["sql.parse.self_ms"], 0.1);
        assert_eq!(m["core.generate.self_ms"], 0.8);
        assert_eq!(m["core.generate.calls"], 1.0);
        assert!((m["unattributed_ratio"] - 0.1).abs() < 1e-12);
        assert_eq!(m["wall_ms"], 1.0);
    }

    #[test]
    fn replay_layers_count_against_the_op_wall() {
        // The op is one opaque call; its layers are timed by a replay.
        let spans = vec![
            span("op", 0, None, 0, 1_000_000),
            span("replay", 1, None, 1_000_000, 2_000_000),
            span("engine.execute", 2, Some(1), 1_000_000, 1_600_000),
        ];
        let m = pass_metrics(&spans, 1);
        assert!((m["unattributed_ratio"] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn fold_takes_medians_and_zero_fills() {
        let mut a = PassMetrics::new();
        a.insert("wall_ms".into(), 1.0);
        let mut b = a.clone();
        b.insert("wall_ms".into(), 3.0);
        let mut c = a.clone();
        c.insert("wall_ms".into(), 2.0);
        let table = fold(&[a, b, c]);
        assert_eq!(table.len(), PER_LAYER.len());
        let get = |n: &str| table.iter().find(|(m, _, _)| *m == n).expect("present").1;
        assert_eq!(get("wall_ms"), 2.0);
        assert_eq!(get("sql.parse.calls"), 0.0);
    }
}
