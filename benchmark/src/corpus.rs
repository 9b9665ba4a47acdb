//! Seeded inputs for the four workloads.
//!
//! Everything the program sees is generated here from `--seed`: the same
//! seed gives the same bytes, another seed gives other bytes. A seed
//! changes *which* inputs are drawn and how they are written (condition
//! order and orientation, candidate constants, schedule order) but keeps
//! the mix of input shapes fixed, so the cost of a run does not depend on
//! the seed.

use xdata::catalog::{university, Schema};
use xdata::sql::parse_schema;
use xdata_bench::{chain_schema, random_join_cases, relevant_fk_count};

/// SplitMix64: the benchmark's own generator, so corpus bytes do not move
/// when the program's RNG does.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// One query run through `XData::evaluate` by `deep_joins` and
/// `extended_classes`.
#[derive(Clone)]
pub struct EvalCase {
    /// Stable name of the query shape; keys the killed-count floor.
    pub name: String,
    pub sql: String,
    pub schema: Schema,
}

/// Distinct inputs plus the order the closed loop visits them in. A case
/// may appear several times per schedule cycle: the weights place p50 and
/// p90 inside a cost cluster rather than on the gap between two.
pub struct Corpus<T> {
    pub cases: Vec<T>,
    pub schedule: Vec<usize>,
}

impl<T> Corpus<T> {
    fn weighted(cases: Vec<(T, usize)>, rng: &mut Rng) -> Corpus<T> {
        let mut schedule = Vec::new();
        for (i, (_, w)) in cases.iter().enumerate() {
            schedule.extend(std::iter::repeat_n(i, *w));
        }
        rng.shuffle(&mut schedule);
        Corpus {
            cases: cases.into_iter().map(|(c, _)| c).collect(),
            schedule,
        }
    }
}

/// `lhs = rhs`, with the sides swapped on a coin flip.
fn equality(rng: &mut Rng, lhs: &str, rhs: &str) -> String {
    if rng.coin() {
        format!("{lhs} = {rhs}")
    } else {
        format!("{rhs} = {lhs}")
    }
}

/// The Table I chain over `k` relations, its join conditions shuffled and
/// oriented by `rng`. Every variant normalizes to the same query.
fn chain_variant(k: usize, rng: &mut Rng) -> String {
    let rels = university::join_chain(k);
    let mut conds: Vec<String> = (0..k - 1)
        .map(|i| {
            let (lr, la, rr, ra) = university::join_chain_condition(i);
            equality(rng, &format!("{lr}.{la}"), &format!("{rr}.{ra}"))
        })
        .collect();
    rng.shuffle(&mut conds);
    format!(
        "SELECT * FROM {} WHERE {}",
        rels.join(", "),
        conds.join(" AND ")
    )
}

/// `deep_joins`: Table I chains of 5, 6 and 7 relations, each with no
/// foreign keys and with every relevant one. Weights 3:4:3 per chain
/// length (per schedule of 20 ops).
pub fn deep_joins(seed: u64) -> Corpus<EvalCase> {
    let mut rng = Rng::new(seed ^ 0xDEE9_0000);
    let mut cases = Vec::new();
    for (k, weight) in [(5, 3), (6, 4), (7, 3)] {
        for fks in [0, relevant_fk_count(k)] {
            let case = EvalCase {
                name: format!("chain{k}-fk{fks}"),
                sql: chain_variant(k, &mut rng),
                schema: chain_schema(k, fks),
            };
            cases.push((case, weight));
        }
    }
    Corpus::weighted(cases, &mut rng)
}

/// The `examples/university_subqueries.sql` schema: `teaches.id` is a
/// nullable foreign key, so membership subqueries plan NULL witnesses.
pub fn nullable_schema() -> Schema {
    parse_schema(include_str!("../../examples/university_subqueries.sql"))
        .expect("examples/university_subqueries.sql parses")
}

/// Seed and size of the fixed pool of random joins `extended_classes`
/// runs. The whole pool runs every time, so its cost does not depend on
/// `--seed`; the seed rewrites each query's conditions. The killed-count
/// floors cover every case of the pool.
const RANDOM_POOL_SEED: u64 = 0x0005_EED0_F100;
const RANDOM_POOL: usize = 32;

/// Shuffle and re-orient the equality conjuncts of a `... WHERE a = b AND
/// c = d` query: other text, same query.
fn perturb_conjuncts(sql: &str, rng: &mut Rng) -> String {
    let (head, conds) = sql
        .split_once(" WHERE ")
        .expect("random joins have a WHERE clause");
    let mut conds: Vec<String> = conds
        .split(" AND ")
        .map(|c| match c.split_once(" = ") {
            Some((l, r)) => equality(rng, l, r),
            None => c.to_string(),
        })
        .collect();
    rng.shuffle(&mut conds);
    format!("{head} WHERE {}", conds.join(" AND "))
}

/// Every shape of `extended_classes` except the random joins, as
/// `(name, sql, schema-id, weight)`. Schema ids: `u0` the University
/// schema without foreign keys, `un` the nullable example schema,
/// `cKfN` the Table II chain schema over K relations with N foreign keys.
fn extended_shapes(rng: &mut Rng) -> Vec<(&'static str, String, &'static str, usize)> {
    let eq = |rng: &mut Rng, l: &str, r: &str| equality(rng, l, r);
    let ij = eq(rng, "i.id", "t.id");
    let tc = eq(rng, "t.course_id", "c.course_id");
    let idd = eq(rng, "i.dept_id", "d.dept_id");
    let tid = eq(rng, "t.id", "i.id");
    vec![
        // [NOT] IN / [NOT] EXISTS subqueries.
        (
            "in-advisor",
            "SELECT name FROM instructor WHERE id IN \
          (SELECT i_id FROM advisor WHERE s_id > 10)"
                .into(),
            "u0",
            1,
        ),
        (
            "not-in-advisor",
            "SELECT name FROM instructor WHERE id NOT IN \
          (SELECT s_id FROM advisor WHERE i_id > 3)"
                .into(),
            "u0",
            1,
        ),
        (
            "exists-teaches",
            format!(
                "SELECT i.name FROM instructor i WHERE EXISTS \
          (SELECT id FROM teaches t WHERE {tid})"
            ),
            "u0",
            1,
        ),
        (
            "not-exists-teaches",
            format!(
                "SELECT i.name FROM instructor i WHERE NOT EXISTS \
          (SELECT id FROM teaches t WHERE {tid})"
            ),
            "u0",
            1,
        ),
        (
            "in-nullable",
            "SELECT name FROM instructor WHERE id IN \
          (SELECT id FROM teaches WHERE year > 2000)"
                .into(),
            "un",
            1,
        ),
        (
            "not-in-nullable",
            "SELECT name FROM instructor WHERE id NOT IN \
          (SELECT id FROM teaches WHERE year > 2000)"
                .into(),
            "un",
            1,
        ),
        (
            "in-with-join",
            format!(
                "SELECT i.name FROM instructor i, department d \
          WHERE {idd} AND i.salary > 100 AND i.id IN \
          (SELECT id FROM teaches t WHERE t.year > 2000)"
            ),
            "u0",
            1,
        ),
        // LIKE.
        (
            "like-prefix",
            "SELECT id FROM instructor WHERE name LIKE 'Wu%'".into(),
            "u0",
            1,
        ),
        (
            "not-like-infix",
            "SELECT id FROM instructor WHERE name NOT LIKE '%Wu%'".into(),
            "u0",
            1,
        ),
        (
            "like-with-join",
            format!(
                "SELECT i.id FROM instructor i, teaches t \
          WHERE {ij} AND i.name LIKE 'Ko%'"
            ),
            "u0",
            1,
        ),
        // IS [NOT] NULL.
        (
            "is-null",
            "SELECT id FROM instructor WHERE salary IS NULL".into(),
            "un",
            1,
        ),
        (
            "is-not-null-and",
            "SELECT id FROM instructor \
          WHERE salary IS NOT NULL AND dept_id > 2"
                .into(),
            "un",
            1,
        ),
        // HAVING, DISTINCT and aggregates.
        (
            "having-count",
            "SELECT dept_id, COUNT(*) FROM instructor \
          GROUP BY dept_id HAVING COUNT(*) > 2"
                .into(),
            "u0",
            1,
        ),
        (
            "having-sum",
            "SELECT dept_id, SUM(salary) FROM instructor \
          GROUP BY dept_id HAVING SUM(salary) >= 50"
                .into(),
            "u0",
            1,
        ),
        (
            "distinct",
            "SELECT DISTINCT dept_id FROM instructor".into(),
            "u0",
            1,
        ),
        (
            "dup-join",
            format!("SELECT i.dept_id FROM instructor i, teaches t WHERE {ij}"),
            "u0",
            1,
        ),
        // Table II selection/aggregation queries 7-12.
        (
            "t2-q7",
            "SELECT * FROM instructor WHERE salary > 70000".into(),
            "c2f0",
            1,
        ),
        (
            "t2-q8",
            "SELECT COUNT(salary) FROM instructor".into(),
            "c2f0",
            1,
        ),
        (
            "t2-q9",
            format!(
                "SELECT i.dept_id, SUM(i.salary) FROM instructor i, teaches t \
          WHERE {ij} GROUP BY i.dept_id"
            ),
            "c2f1",
            1,
        ),
        (
            "t2-q10",
            format!(
                "SELECT * FROM instructor i, teaches t, course c \
          WHERE {ij} AND {tc} AND i.salary > 70000"
            ),
            "c3f1",
            1,
        ),
        (
            "t2-q11",
            format!(
                "SELECT * FROM instructor i, teaches t, course c \
          WHERE {ij} AND {tc} AND i.salary > 70000 AND c.credits >= 3"
            ),
            "c3f1",
            1,
        ),
        (
            "t2-q12",
            format!(
                "SELECT i.dept_id, AVG(i.salary) FROM instructor i, teaches t, \
          course c WHERE {ij} AND {tc} AND c.credits >= 3 GROUP BY i.dept_id"
            ),
            "c3f1",
            1,
        ),
    ]
}

fn schema_for(id: &str) -> Schema {
    match id {
        "u0" => university::schema_with_fk_count(0),
        "un" => nullable_schema(),
        // Table II: queries with joins keep exactly one foreign key.
        "c2f0" => chain_schema(2, 0),
        "c2f1" => chain_schema(2, 1),
        "c3f1" => chain_schema(3, 1),
        other => unreachable!("unknown schema id {other}"),
    }
}

/// `extended_classes`: the fixed extended-class shapes plus the pool of
/// seeded random joins.
pub fn extended_classes(seed: u64) -> Corpus<EvalCase> {
    let mut rng = Rng::new(seed ^ 0xE8_7E4D);
    let mut cases: Vec<(EvalCase, usize)> = extended_shapes(&mut rng)
        .into_iter()
        .map(|(name, sql, sid, w)| {
            let schema = schema_for(sid);
            (
                EvalCase {
                    name: name.to_string(),
                    sql,
                    schema,
                },
                w,
            )
        })
        .collect();
    for c in random_join_cases(RANDOM_POOL_SEED, RANDOM_POOL) {
        let sql = perturb_conjuncts(&c.sql, &mut rng);
        cases.push((
            EvalCase {
                name: c.name,
                sql,
                schema: c.schema,
            },
            1,
        ));
    }
    Corpus::weighted(cases, &mut rng)
}

/// Every query a killed-count floor exists for: all `deep_joins` and
/// `extended_classes` cases (the names do not depend on the seed; the SQL
/// is seed 0's rendering).
pub fn floor_cases() -> Vec<EvalCase> {
    let mut out = deep_joins(0).cases;
    out.extend(extended_classes(0).cases);
    out
}

/// The verdict a candidate must get, where its construction fixes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Pass,
    Fail,
    Invalid,
    /// Not fixed by construction (operator swaps, extra predicates):
    /// checked only through the `XData::grade` sample.
    Unknown,
}

#[derive(Debug, Clone)]
pub struct Candidate {
    pub sql: String,
    pub expect: Expect,
}

/// One submission pile graded by a single `grade_batch` call.
pub struct Pile {
    pub name: String,
    pub reference: String,
    pub schema: Schema,
    pub candidates: Vec<Candidate>,
    /// Candidate indices cross-checked against `XData::grade`.
    pub sample: Vec<usize>,
}

fn chain_conds(k: usize) -> Vec<(String, String)> {
    (0..k - 1)
        .map(|i| {
            let (lr, la, rr, ra) = university::join_chain_condition(i);
            (format!("{lr}.{la}"), format!("{rr}.{ra}"))
        })
        .collect()
}

fn render_chain(rels: &[&str], conds: &[String]) -> String {
    format!(
        "SELECT * FROM {} WHERE {}",
        rels.join(", "),
        conds.join(" AND ")
    )
}

/// The reference query of a `k`-relation chain pile.
pub fn chain_reference(k: usize) -> String {
    let conds: Vec<String> = chain_conds(k)
        .iter()
        .map(|(l, r)| format!("{l} = {r}"))
        .collect();
    render_chain(&university::join_chain(k), &conds)
}

/// Doubled spaces at seeded positions: new text, same query.
fn whitespace_noise(sql: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(sql.len() + 8);
    for (i, tok) in sql.split(' ').enumerate() {
        if i > 0 {
            out.push_str(if rng.coin() { "  " } else { " " });
        }
        out.push_str(tok);
    }
    out
}

/// One fresh submission for the `k`-relation chain. `slot` (0..100)
/// fixes the variant, in the grading sweep's mix: commuted FROM (15%),
/// operator swaps (30%), extra predicates (40%), join-keyword rewrites
/// (10%, 2-relation chains only), parse errors (2%), unknown relations
/// (1%), and noised copies of the reference. The seed only picks
/// constants, so a pile's cost does not depend on it.
fn fresh_candidate(k: usize, slot: usize, rng: &mut Rng) -> Candidate {
    let rels = university::join_chain(k);
    let conds = chain_conds(k);
    let plain: Vec<String> = conds.iter().map(|(l, r)| format!("{l} = {r}")).collect();
    let (sql, expect) = match slot {
        // Commuted FROM with flipped sides: `SELECT *` changes column
        // order, so the result differs on every non-empty dataset.
        0..=14 => {
            let mut order = rels.clone();
            order.reverse();
            let flipped: Vec<String> = conds.iter().map(|(l, r)| format!("{r} = {l}")).collect();
            (render_chain(&order, &flipped), Expect::Fail)
        }
        15..=44 => {
            let op = ["<", ">", "<=", ">=", "<>"][slot % 5];
            let i = (slot / 5) % conds.len();
            let mut edited = plain.clone();
            let (l, r) = &conds[i];
            edited[i] = if slot.is_multiple_of(2) {
                format!("{l} {op} {r}")
            } else {
                format!("{l} {op} {r} + {}", 1 + rng.below(997))
            };
            (render_chain(&rels, &edited), Expect::Unknown)
        }
        45..=84 => {
            let op = ["<", ">", "<=", ">="][slot % 4];
            let c = 1 + rng.below(100_000);
            let mut edited = plain.clone();
            edited.push(format!("instructor.salary {op} {c}"));
            (render_chain(&rels, &edited), Expect::Unknown)
        }
        // The same join written with the JOIN keyword: same query.
        85..=94 if k == 2 => (
            format!("SELECT * FROM instructor JOIN teaches ON {}", plain[0]),
            Expect::Pass,
        ),
        95..=96 => ("SELECT FROM WHERE".to_string(), Expect::Invalid),
        97 => (
            format!("SELECT * FROM missing_relation_{}", rng.below(1000)),
            Expect::Invalid,
        ),
        _ => (
            whitespace_noise(&render_chain(&rels, &plain), rng),
            Expect::Pass,
        ),
    };
    Candidate { sql, expect }
}

/// A pile of `n` submissions: 30% are noised copies of other submissions,
/// the rest fresh variants with slots spread evenly over the mix.
fn candidate_pile(k: usize, n: usize, rng: &mut Rng) -> Vec<Candidate> {
    let fresh = n - n * 3 / 10;
    let mut pile: Vec<Candidate> = (0..fresh)
        .map(|j| fresh_candidate(k, j * 100 / fresh, rng))
        .collect();
    rng.shuffle(&mut pile);
    while pile.len() < n {
        let dup = pile[rng.below(pile.len())].clone();
        let at = rng.below(pile.len() + 1);
        pile.insert(
            at,
            Candidate {
                sql: whitespace_noise(&dup.sql, rng),
                expect: dup.expect,
            },
        );
    }
    pile
}

pub const PILE_SIZE: usize = 600;
const SAMPLE_PER_PILE: usize = 6;

/// `grade_piles`: piles of [`PILE_SIZE`] against the 1-join (three piles)
/// and 2-join (one pile) chain references with all relevant FKs.
pub fn grade_piles(seed: u64) -> Corpus<Pile> {
    let mut rng = Rng::new(seed ^ 0x6EAD_E000);
    let mut cases = Vec::new();
    for (k, piles) in [(2usize, 3usize), (3, 1)] {
        for p in 0..piles {
            let candidates = candidate_pile(k, PILE_SIZE, &mut rng);
            let sample = (0..SAMPLE_PER_PILE)
                .map(|_| rng.below(candidates.len()))
                .collect();
            let pile = Pile {
                name: format!("chain{k}-pile{p}"),
                reference: chain_reference(k),
                schema: chain_schema(k, relevant_fk_count(k)),
                candidates,
                sample,
            };
            cases.push((pile, 1));
        }
    }
    Corpus::weighted(cases, &mut rng)
}

/// The schema script every `serve_mix` request carries.
pub const SERVE_SCHEMA: &str = include_str!("../../examples/university.sql");

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    Generate,
    Evaluate,
    GradeBatch,
}

/// Which cache state a request meets on the daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Temp {
    /// Repeats on the shared warm tenant: warm-cache reads.
    Warm,
    /// A tenant never used before: cold solves and cache writes.
    Cold,
    /// Warm tenant with per-request metrics on (takes the recorder gate).
    Metrics,
}

#[derive(Debug, Clone)]
pub struct ServeRequest {
    pub method: Method,
    pub query: String,
    pub temp: Temp,
}

/// How often each request template appears per script cycle, by
/// temperature. Every cold request opens a tenant the daemon keeps for its
/// lifetime (the warm cache never evicts), so the cold share also sets
/// how fast the daemon's memory grows. A metrics request holds the
/// daemon's exclusive recorder gate and stalls the other client; at one
/// request in ten the stalls alone moved whole-run throughput by about
/// 20% between identical runs, so the share is one in thirty and the
/// gate's cost is read from `serve.metrics_p50_ms`.
const TEMP_MIX: [(Temp, usize); 3] = [(Temp::Warm, 28), (Temp::Cold, 1), (Temp::Metrics, 1)];

/// Submission pile size of the `serve_mix` grade requests.
pub const SERVE_PILE: usize = 40;

/// `serve_mix`: one shuffled request script per client over the same
/// fixed multiset of (method, query, temperature), plus the grade pile.
pub fn serve_scripts(seed: u64, clients: usize) -> (Vec<Vec<ServeRequest>>, Vec<String>) {
    let mut rng = Rng::new(seed ^ 0x5E4E);
    let pile: Vec<String> = candidate_pile(2, SERVE_PILE, &mut rng)
        .into_iter()
        .map(|c| c.sql)
        .collect();
    let selection = "SELECT name FROM instructor WHERE salary > 75000".to_string();
    let join = format!(
        "SELECT i.name, t.course_id FROM instructor i, teaches t WHERE {}",
        equality(&mut rng, "i.id", "t.id")
    );
    let conj = "SELECT name FROM instructor WHERE dept_id = 7 AND salary < 90000".to_string();
    let templates = [
        (Method::Generate, selection.clone()),
        (Method::Generate, join.clone()),
        (Method::Generate, conj.clone()),
        (Method::Evaluate, join),
        (Method::Evaluate, conj),
        (Method::GradeBatch, chain_reference(2)),
    ];
    let scripts = (0..clients)
        .map(|_| {
            let mut script = Vec::new();
            for (method, query) in &templates {
                for &(temp, n) in &TEMP_MIX {
                    for _ in 0..n {
                        script.push(ServeRequest {
                            method: *method,
                            query: query.clone(),
                            temp,
                        });
                    }
                }
            }
            rng.shuffle(&mut script);
            script
        })
        .collect();
    (scripts, pile)
}

/// Every input byte of a workload's corpus, for determinism checks.
#[cfg(test)]
fn render(workload: &str, seed: u64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let eval = |out: &mut String, c: Corpus<EvalCase>| {
        for case in &c.cases {
            let _ = writeln!(out, "{}\t{}\t{:?}", case.name, case.sql, case.schema);
        }
        let _ = writeln!(out, "{:?}", c.schedule);
    };
    match workload {
        "deep_joins" => eval(&mut out, deep_joins(seed)),
        "extended_classes" => eval(&mut out, extended_classes(seed)),
        "grade_piles" => {
            let c = grade_piles(seed);
            for p in &c.cases {
                let _ = writeln!(out, "{}\t{}\t{:?}", p.name, p.reference, p.sample);
                for cand in &p.candidates {
                    let _ = writeln!(out, "  {:?}\t{}", cand.expect, cand.sql);
                }
            }
            let _ = writeln!(out, "{:?}", c.schedule);
        }
        "serve_mix" => {
            let (scripts, pile) = serve_scripts(seed, 2);
            let _ = writeln!(out, "{scripts:?}\n{pile:?}");
        }
        other => panic!("unknown workload {other}"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKLOADS: [&str; 4] = ["deep_joins", "extended_classes", "grade_piles", "serve_mix"];

    #[test]
    fn same_seed_same_bytes() {
        for w in WORKLOADS {
            assert_eq!(render(w, 7), render(w, 7), "{w}");
        }
    }

    #[test]
    fn other_seed_other_bytes() {
        for w in WORKLOADS {
            assert_ne!(render(w, 7), render(w, 8), "{w}");
        }
    }

    #[test]
    fn shape_mix_is_seed_independent() {
        for seed in [1, 2, 3] {
            let d = deep_joins(seed);
            assert_eq!(d.cases.len(), 6);
            assert_eq!(d.schedule.len(), 20);
            let e = extended_classes(seed);
            assert_eq!(e.cases.len(), extended_classes(0).cases.len());
            let g = grade_piles(seed);
            assert!(g.cases.iter().all(|p| p.candidates.len() == PILE_SIZE));
        }
    }

    #[test]
    fn piles_carry_every_known_class() {
        let piles = grade_piles(11);
        let all: Vec<Expect> = piles
            .cases
            .iter()
            .flat_map(|p| p.candidates.iter().map(|c| c.expect))
            .collect();
        for e in [Expect::Pass, Expect::Fail, Expect::Invalid, Expect::Unknown] {
            assert!(all.contains(&e), "{e:?} missing");
        }
    }
}
