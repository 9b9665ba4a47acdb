//! Oracles that are independent of the code under test. Every failure
//! counts against the op that produced the output (`error_rate`).

use std::collections::BTreeMap;

use xdata::catalog::{Dataset, Schema, Value};
use xdata::engine::exec::{execute_query_strategy, JoinStrategy};
use xdata::engine::kill::prepare_mutant;
use xdata::engine::KillReport;
use xdata::relalg::{Mutant, MutationSpace, NormQuery};

/// Killed counts per corpus query at the commit that defined the
/// benchmark: a later commit may kill more, never fewer.
const FLOORS: &str = include_str!("../floors.tsv");

/// The killed-count floor table, keyed by corpus query name.
pub fn floors() -> BTreeMap<&'static str, usize> {
    FLOORS
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, n) = l.split_once('\t').expect("floors.tsv: name<TAB>killed");
            (
                name,
                n.parse().expect("floors.tsv: killed count is a number"),
            )
        })
        .collect()
}

/// Primary-key uniqueness and foreign-key inclusion of `db` under `schema`,
/// checked from the schema alone. Returns one message per violation.
pub fn integrity_violations(db: &Dataset, schema: &Schema) -> Vec<String> {
    let mut errs = Vec::new();
    for (name, tuples) in db.iter() {
        let Some(rel) = schema.relation(name) else {
            errs.push(format!("relation `{name}` is not in the schema"));
            continue;
        };
        if let Some(t) = tuples.iter().find(|t| t.len() != rel.arity()) {
            errs.push(format!(
                "`{name}`: tuple of arity {} in a relation of arity {}",
                t.len(),
                rel.arity()
            ));
            continue;
        }
        if rel.primary_key.is_empty() {
            continue;
        }
        let keys: Vec<Vec<&Value>> = tuples
            .iter()
            .map(|t| rel.primary_key.iter().map(|&c| &t[c]).collect())
            .collect();
        for (i, k) in keys.iter().enumerate() {
            if k.iter().any(|v| v.is_null()) {
                errs.push(format!("`{name}` row {i}: NULL in the primary key"));
            }
            if keys[..i].contains(k) {
                errs.push(format!("`{name}` row {i}: duplicate primary key {k:?}"));
            }
        }
    }
    for fk in schema.foreign_keys() {
        let from = db.relation(&fk.from).unwrap_or(&[]);
        let to = db.relation(&fk.to).unwrap_or(&[]);
        for (i, t) in from.iter().enumerate() {
            let key: Vec<&Value> = fk.from_cols.iter().map(|&c| &t[c]).collect();
            // A foreign key with a NULL component references nothing.
            if key.iter().any(|v| v.is_null()) {
                continue;
            }
            let found = to
                .iter()
                .any(|u| fk.to_cols.iter().zip(&key).all(|(&c, v)| &u[c] == *v));
            if !found {
                errs.push(format!(
                    "`{}` row {i}: foreign key {key:?} has no match in `{}`",
                    fk.from, fk.to
                ));
            }
        }
    }
    errs
}

/// Re-check every kill the report claims with the nested-loop join
/// baseline: the original and the mutant must differ on the killer.
pub fn recheck_kills(
    query: &NormQuery,
    space: &MutationSpace,
    report: &KillReport,
    datasets: &[&Dataset],
    schema: &Schema,
) -> Vec<String> {
    let nested = JoinStrategy::NestedLoop;
    let mut errs = Vec::new();
    let mut originals: BTreeMap<usize, _> = BTreeMap::new();
    let mutants: Vec<Mutant> = space.iter().collect();
    for (mi, killer) in report.killed_by.iter().enumerate() {
        let Some(d) = *killer else { continue };
        let Some(db) = datasets.get(d) else {
            errs.push(format!("mutant {mi}: killer #{d} is not in the suite"));
            continue;
        };
        let original = originals
            .entry(d)
            .or_insert_with(|| execute_query_strategy(query, db, schema, nested));
        let mutated =
            prepare_mutant(query, &mutants[mi]).execute_strategy(query, db, schema, nested);
        match (&*original, &mutated) {
            (Ok(o), Ok(m)) if o != m => {}
            (Ok(_), Ok(_)) => errs.push(format!(
                "mutant {mi} ({}): claimed killed by #{d}, but nested-loop results agree",
                mutants[mi].describe(query)
            )),
            (Err(e), _) | (_, Err(e)) => {
                errs.push(format!("mutant {mi}: nested-loop execution failed: {e}"))
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use xdata::sql::parse_schema;

    fn schema() -> Schema {
        parse_schema(
            "CREATE TABLE dept (id INT PRIMARY KEY, name VARCHAR);
             CREATE TABLE emp (id INT PRIMARY KEY, dept_id INT,
                               FOREIGN KEY (dept_id) REFERENCES dept (id));",
        )
        .expect("test schema parses")
    }

    #[test]
    fn legal_instance_passes() {
        let mut db = Dataset::new();
        db.push("dept", vec![Value::Int(1), Value::Str("a".into())]);
        db.push("emp", vec![Value::Int(10), Value::Int(1)]);
        db.push("emp", vec![Value::Int(11), Value::Int(1)]);
        assert!(integrity_violations(&db, &schema()).is_empty());
    }

    #[test]
    fn rejects_duplicate_primary_key() {
        let mut db = Dataset::new();
        db.push("dept", vec![Value::Int(1), Value::Str("a".into())]);
        db.push("dept", vec![Value::Int(1), Value::Str("b".into())]);
        let errs = integrity_violations(&db, &schema());
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("duplicate primary key"));
    }

    #[test]
    fn rejects_dangling_foreign_key() {
        let mut db = Dataset::new();
        db.push("dept", vec![Value::Int(1), Value::Str("a".into())]);
        db.push("emp", vec![Value::Int(10), Value::Int(2)]);
        let errs = integrity_violations(&db, &schema());
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("no match in `dept`"));
    }

    #[test]
    fn rejects_null_key_and_unknown_relation() {
        let mut db = Dataset::new();
        db.push("dept", vec![Value::Null, Value::Str("a".into())]);
        db.push("ghost", vec![Value::Int(1)]);
        let errs = integrity_violations(&db, &schema());
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn null_foreign_key_references_nothing() {
        let mut db = Dataset::new();
        db.push("emp", vec![Value::Int(10), Value::Null]);
        assert!(integrity_violations(&db, &schema()).is_empty());
    }
}
