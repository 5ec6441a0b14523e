//! The row-at-a-time reference evaluator.
//!
//! Every query the server runs goes through the vectorized executor in
//! [`crate::vexec`]. This module keeps the plain, obviously-correct
//! definition of each [`Plan`] operator over [`Row`]s, fully materializing
//! every intermediate result, as the oracle the executor is checked
//! against: the differential proptests feed random plans through both and
//! require identical rows and identical wire bytes.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use sr_data::{Database, Row, Schema, Value};

use crate::error::EngineError;
use crate::plan::{JoinKind, Plan};

/// A fully materialized query result.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output schema.
    pub schema: Schema,
    /// Output rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` iff there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total simulated wire size of all rows.
    pub fn wire_bytes(&self) -> usize {
        self.rows.iter().map(Row::wire_width).sum()
    }
}

/// Evaluate a plan against a database.
pub fn execute(plan: &Plan, db: &Database) -> Result<ResultSet, EngineError> {
    execute_env(plan, db, &HashMap::new())
}

/// Evaluate with a CTE environment (each definition's materialized result,
/// computed exactly once by the enclosing [`Plan::With`]).
fn execute_env(
    plan: &Plan,
    db: &Database,
    env: &HashMap<String, ResultSet>,
) -> Result<ResultSet, EngineError> {
    match plan {
        Plan::Scan { table, alias: _ } => Ok(ResultSet {
            schema: plan.schema(db)?,
            rows: db.table(table)?.rows().to_vec(),
        }),
        Plan::Filter { input, predicates } => {
            let mut rs = execute_env(input, db, env)?;
            let bound = predicates
                .iter()
                .map(|p| p.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            rs.rows.retain(|r| bound.iter().all(|p| p.eval(r)));
            Ok(rs)
        }
        Plan::Project { input, items } => {
            let rs = execute_env(input, db, env)?;
            let bound = items
                .iter()
                .map(|(_, e)| e.bind(&rs.schema))
                .collect::<Result<Vec<_>, _>>()?;
            let rows = rs
                .rows
                .iter()
                .map(|r| Row::new(bound.iter().map(|e| e.eval(r).clone()).collect()))
                .collect();
            Ok(ResultSet {
                schema: plan.schema(db)?,
                rows,
            })
        }
        Plan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let lrs = execute_env(left, db, env)?;
            let rrs = execute_env(right, db, env)?;
            Ok(ResultSet {
                schema: plan.schema(db)?,
                rows: hash_join(&lrs, &rrs, *kind, on)?,
            })
        }
        Plan::OuterUnion { inputs } => {
            let schema = plan.schema(db)?;
            let mut rows = Vec::new();
            for input in inputs {
                let rs = execute_env(input, db, env)?;
                // Map union position -> branch position (None = NULL pad).
                let mapping: Vec<Option<usize>> =
                    schema.names().map(|n| rs.schema.position(n)).collect();
                rows.extend(rs.rows.iter().map(|r| {
                    Row::new(
                        mapping
                            .iter()
                            .map(|m| match m {
                                Some(i) => r.get(*i).clone(),
                                None => Value::Null,
                            })
                            .collect(),
                    )
                }));
            }
            Ok(ResultSet { schema, rows })
        }
        Plan::Sort { input, keys } => {
            let mut rs = execute_env(input, db, env)?;
            let idx: Vec<usize> = keys
                .iter()
                .map(|k| rs.schema.require(k).map_err(EngineError::from))
                .collect::<Result<_, _>>()?;
            // Stable — sort elision relies on stability (an already ordered
            // input must pass through as the identity).
            rs.rows.sort_by_cached_key(|r| {
                idx.iter()
                    .map(|&i| r.get(i).clone())
                    .collect::<Vec<Value>>()
            });
            Ok(rs)
        }
        Plan::Distinct { input } => {
            let mut rs = execute_env(input, db, env)?;
            // Dedup on row hashes with bucket verification: no row clones,
            // first occurrence wins (preserving input order).
            let mut seen: HashMap<u64, Vec<usize>> = HashMap::with_capacity(rs.rows.len());
            let mut keep = Vec::with_capacity(rs.rows.len());
            for (i, r) in rs.rows.iter().enumerate() {
                let mut hasher = DefaultHasher::new();
                r.hash(&mut hasher);
                let bucket = seen.entry(hasher.finish()).or_default();
                let fresh = !bucket.iter().any(|&j| rs.rows[j] == *r);
                if fresh {
                    bucket.push(i);
                }
                keep.push(fresh);
            }
            retain_by_mask(&mut rs.rows, &keep)?;
            Ok(rs)
        }
        Plan::With { ctes, body } => {
            let mut local = env.clone();
            for (name, def) in ctes {
                let rs = execute_env(def, db, &local)?;
                local.insert(name.clone(), rs);
            }
            execute_env(body, db, &local)
        }
        Plan::CteScan {
            cte,
            alias: _,
            schema: _,
        } => {
            let rs = env.get(cte).ok_or_else(|| {
                EngineError::InvalidPlan(format!("CTE {cte} referenced outside WITH"))
            })?;
            Ok(ResultSet {
                schema: plan.schema(db)?,
                rows: rs.rows.clone(),
            })
        }
    }
}

/// Drop every row whose mask entry is `false`. The mask must cover the
/// row set exactly — a shorter or longer mask is an engine bug surfaced as
/// a typed error, never a panic mid-query.
fn retain_by_mask(rows: &mut Vec<Row>, keep: &[bool]) -> Result<(), EngineError> {
    if keep.len() != rows.len() {
        return Err(EngineError::Internal(format!(
            "selectivity mask covers {} row(s) but the row set has {}",
            keep.len(),
            rows.len()
        )));
    }
    let mut it = keep.iter().copied();
    rows.retain(|_| it.next().unwrap_or(false));
    Ok(())
}

/// Hash equi-join. Builds on the right input, probes from the left. NULL
/// join keys never match (SQL semantics); for [`JoinKind::LeftOuter`],
/// unmatched left rows are padded with NULLs on the right.
fn hash_join(
    left: &ResultSet,
    right: &ResultSet,
    kind: JoinKind,
    on: &[(String, String)],
) -> Result<Vec<Row>, EngineError> {
    let lidx: Vec<usize> = on
        .iter()
        .map(|(l, _)| left.schema.require(l).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;
    let ridx: Vec<usize> = on
        .iter()
        .map(|(_, r)| right.schema.require(r).map_err(EngineError::from))
        .collect::<Result<_, _>>()?;

    // Cross join when there are no equality pairs.
    if on.is_empty() {
        let mut out = Vec::with_capacity(left.rows.len() * right.rows.len().max(1));
        for l in &left.rows {
            if right.rows.is_empty() && kind == JoinKind::LeftOuter {
                out.push(l.concat(&Row::nulls(right.schema.arity())));
            }
            for r in &right.rows {
                out.push(l.concat(r));
            }
        }
        return Ok(out);
    }

    // Key cells are hashed in place (no per-value clones); candidates from
    // a bucket are verified cell by cell to rule out hash collisions. Join
    // keys use `join_hash`/`join_eq`, not the total-order Hash/Eq: ±0.0
    // must land in one bucket and any NaN must match any NaN.
    let hash_key = |row: &Row, idx: &[usize]| -> u64 {
        let mut hasher = DefaultHasher::new();
        for &c in idx {
            row.get(c).join_hash(&mut hasher);
        }
        hasher.finish()
    };

    let mut build: HashMap<u64, Vec<usize>> = HashMap::with_capacity(right.rows.len());
    'rows: for (i, r) in right.rows.iter().enumerate() {
        for &c in &ridx {
            if r.get(c).is_null() {
                continue 'rows;
            }
        }
        // Bucket order is insertion order — probe rows emit their matches
        // in right-input order, which order-property propagation relies on.
        build.entry(hash_key(r, &ridx)).or_default().push(i);
    }

    let mut out = Vec::new();
    let pad = Row::nulls(right.schema.arity());
    'probe: for l in &left.rows {
        for &c in &lidx {
            if l.get(c).is_null() {
                if kind == JoinKind::LeftOuter {
                    out.push(l.concat(&pad));
                }
                continue 'probe;
            }
        }
        let mut matched = false;
        if let Some(candidates) = build.get(&hash_key(l, &lidx)) {
            for &i in candidates {
                let r = &right.rows[i];
                if lidx
                    .iter()
                    .zip(&ridx)
                    .all(|(&lc, &rc)| l.get(lc).join_eq(r.get(rc)))
                {
                    out.push(l.concat(r));
                    matched = true;
                }
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            out.push(l.concat(&pad));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    //! The reference's own semantics, plus the executor's per-node
    //! profiling, cancellation and fault sites pinned against the
    //! reference result on the same fixture.
    use super::*;
    use crate::cancel::CancelToken;
    use crate::expr::{CmpOp, Expr, Predicate};
    use crate::vexec::{execute_vectorized_analyzed, execute_vectorized_profiled_with};
    use sr_data::{row, DataType, Table};
    use std::time::Duration;

    fn db() -> Database {
        let mut db = Database::new();
        let mut s = Table::new(
            "Supplier",
            Schema::of(&[("suppkey", DataType::Int), ("name", DataType::Str)]),
        );
        s.insert_all([row![1i64, "Acme"], row![2i64, "Bolt"], row![3i64, "Coil"]])
            .unwrap();
        let mut ps = Table::new(
            "PartSupp",
            Schema::of(&[("partkey", DataType::Int), ("suppkey", DataType::Int)]),
        );
        ps.insert_all([row![10i64, 1i64], row![11i64, 1i64], row![12i64, 3i64]])
            .unwrap();
        db.add_table(s);
        db.add_table(ps);
        db
    }

    #[test]
    fn scan_returns_all_rows() {
        let db = db();
        let rs = execute(&Plan::scan("Supplier", "s"), &db).unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(
            rs.schema.names().collect::<Vec<_>>(),
            vec!["s_suppkey", "s_name"]
        );
    }

    #[test]
    fn filter_by_literal() {
        let db = db();
        let p = Plan::scan("Supplier", "s").filter(vec![Predicate::new(
            Expr::col("s_suppkey"),
            CmpOp::Ge,
            Expr::lit(2i64),
        )]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn inner_join_matches() {
        let db = db();
        let p = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::Inner,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 3, "supplier 1 has two parts, 3 has one");
    }

    #[test]
    fn left_outer_join_pads() {
        let db = db();
        let p = Plan::scan("Supplier", "s").join(
            Plan::scan("PartSupp", "ps"),
            JoinKind::LeftOuter,
            vec![("s_suppkey".into(), "ps_suppkey".into())],
        );
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 4, "supplier 2 kept with NULL part");
        let padded: Vec<&Row> = rs.rows.iter().filter(|r| r.get(2).is_null()).collect();
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].get(0), &Value::Int(2));
    }

    #[test]
    fn cross_join_when_no_keys() {
        let db = db();
        let p =
            Plan::scan("Supplier", "s").join(Plan::scan("PartSupp", "ps"), JoinKind::Inner, vec![]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.len(), 9);
    }

    #[test]
    fn sort_orders_rows() {
        let db = db();
        let p = Plan::scan("PartSupp", "ps").sort(vec!["ps_suppkey".into(), "ps_partkey".into()]);
        let rs = execute(&p, &db).unwrap();
        let keys: Vec<i64> = rs.rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
        assert_eq!(keys, vec![1, 1, 3]);
    }

    #[test]
    fn outer_union_pads_missing_columns() {
        let db = db();
        let a = Plan::scan("Supplier", "s").project(vec![
            ("k".into(), Expr::col("s_suppkey")),
            ("name".into(), Expr::col("s_name")),
        ]);
        let b = Plan::scan("PartSupp", "ps").project(vec![
            ("k".into(), Expr::col("ps_suppkey")),
            ("part".into(), Expr::col("ps_partkey")),
        ]);
        let u = Plan::OuterUnion { inputs: vec![a, b] };
        let rs = execute(&u, &db).unwrap();
        assert_eq!(rs.len(), 6);
        assert_eq!(
            rs.schema.names().collect::<Vec<_>>(),
            vec!["k", "name", "part"]
        );
        // Supplier branch rows have NULL part; PartSupp branch rows NULL name.
        assert!(rs.rows[0].get(2).is_null());
        assert!(rs.rows[3].get(1).is_null());
    }

    #[test]
    fn distinct_removes_duplicates() {
        let db = db();
        let p = Plan::scan("PartSupp", "ps").project(vec![("s".into(), Expr::col("ps_suppkey"))]);
        let d = Plan::Distinct { input: Box::new(p) };
        let rs = execute(&d, &db).unwrap();
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn project_literals_and_nulls() {
        let db = db();
        let p = Plan::scan("Supplier", "s").project(vec![
            ("L1".into(), Expr::lit(1i64)),
            ("s".into(), Expr::col("s_suppkey")),
            ("pad".into(), Expr::TypedNull(DataType::Str)),
        ]);
        let rs = execute(&p, &db).unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(1));
        assert!(rs.rows[0].get(2).is_null());
    }

    #[test]
    fn null_keys_do_not_join() {
        let mut db = Database::new();
        let mut l = Table::new(
            "L",
            Schema::new(vec![sr_data::Column::nullable("k", DataType::Int)]).unwrap(),
        );
        l.insert(Row::new(vec![Value::Null])).unwrap();
        l.insert(row![1i64]).unwrap();
        let mut r = Table::new(
            "R",
            Schema::new(vec![sr_data::Column::nullable("k", DataType::Int)]).unwrap(),
        );
        r.insert(Row::new(vec![Value::Null])).unwrap();
        r.insert(row![1i64]).unwrap();
        db.add_table(l);
        db.add_table(r);
        let inner = Plan::scan("L", "l").join(
            Plan::scan("R", "r"),
            JoinKind::Inner,
            vec![("l_k".into(), "r_k".into())],
        );
        assert_eq!(execute(&inner, &db).unwrap().len(), 1, "NULL != NULL");
        let outer = Plan::scan("L", "l").join(
            Plan::scan("R", "r"),
            JoinKind::LeftOuter,
            vec![("l_k".into(), "r_k".into())],
        );
        assert_eq!(
            execute(&outer, &db).unwrap().len(),
            2,
            "NULL left row padded"
        );
    }

    #[test]
    fn float_join_keys_agree_on_nan_and_signed_zero() {
        // NaN (two payloads) and ±0.0 on BOTH build and probe sides: the
        // hash and the equality check must agree, so NaN matches NaN and
        // -0.0 matches 0.0 whichever side each lands on.
        let nan_a = f64::NAN;
        let nan_b = f64::from_bits(f64::NAN.to_bits() | 1);
        let mut db = Database::new();
        let mut l = Table::new("L", Schema::of(&[("k", DataType::Float)]));
        l.insert_all([row![nan_a], row![0.0f64], row![5.0f64]])
            .unwrap();
        let mut r = Table::new("R", Schema::of(&[("k", DataType::Float)]));
        r.insert_all([row![nan_b], row![-0.0f64], row![7.0f64]])
            .unwrap();
        db.add_table(l);
        db.add_table(r);
        let on = vec![("l_k".to_string(), "r_k".to_string())];
        let inner = Plan::scan("L", "l").join(Plan::scan("R", "r"), JoinKind::Inner, on.clone());
        let rs = execute(&inner, &db).unwrap();
        assert_eq!(rs.len(), 2, "NaN↔NaN and 0.0↔-0.0 must both match");
        let outer = Plan::scan("L", "l").join(Plan::scan("R", "r"), JoinKind::LeftOuter, on);
        let rs = execute(&outer, &db).unwrap();
        assert_eq!(rs.len(), 3, "5.0 padded, NaN and zero matched");
        let padded: Vec<&Row> = rs.rows.iter().filter(|r| r.get(1).is_null()).collect();
        assert_eq!(padded.len(), 1);
        assert_eq!(padded[0].get(0), &Value::Float(5.0));
    }

    #[test]
    fn analyzed_execution_fills_per_node_stats() {
        let db = db();
        // 0=Sort, 1=Join, 2=Scan Supplier, 3=Scan PartSupp
        let p = Plan::scan("Supplier", "s")
            .join(
                Plan::scan("PartSupp", "ps"),
                JoinKind::Inner,
                vec![("s_suppkey".into(), "ps_suppkey".into())],
            )
            .sort(vec!["s_suppkey".into()]);
        let (rs, profile, plan_profile) = execute_vectorized_analyzed(&p, &db).unwrap();
        assert_eq!(rs.row_count(), 3);
        let n = &plan_profile.nodes;
        assert_eq!(n.len(), 4);
        assert_eq!(
            n.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec!["sort", "join", "scan", "scan"]
        );
        assert!(n.iter().all(|s| s.calls == 1));
        assert_eq!(n[0].rows_out, 3);
        assert_eq!(n[1].rows_out, 3);
        assert_eq!(n[2].rows_out, 3);
        assert_eq!(n[3].rows_out, 3);
        // Per-node rows agree with the kind-level profile.
        assert_eq!(profile.ops["scan"].rows_out, n[2].rows_out + n[3].rows_out);
        // Totals nest: parent total >= child total; self <= total.
        assert!(n[0].total_time >= n[1].total_time);
        assert!(n[1].total_time >= n[2].total_time);
        for s in n {
            assert!(s.self_time <= s.total_time);
        }
        // The analyzed run agrees with the reference on the result.
        let plain = execute(&p, &db).unwrap();
        assert_eq!(plain.rows, rs.to_rows());
    }

    #[test]
    fn analyzed_with_cte_counts_single_evaluation() {
        let db = db();
        let def = Plan::scan("Supplier", "s");
        let schema = sr_data::Schema::of(&[("suppkey", DataType::Int), ("name", DataType::Str)]);
        // 0=With, 1=Scan (cte def), 2=Join, 3=CteScan, 4=CteScan
        let body = Plan::CteScan {
            cte: "c".into(),
            alias: "x".into(),
            schema: schema.clone(),
        }
        .join(
            Plan::CteScan {
                cte: "c".into(),
                alias: "y".into(),
                schema,
            },
            JoinKind::Inner,
            vec![("x_suppkey".into(), "y_suppkey".into())],
        );
        let p = Plan::With {
            ctes: vec![("c".into(), def)],
            body: Box::new(body),
        };
        let (_, _, pp) = execute_vectorized_analyzed(&p, &db).unwrap();
        assert_eq!(
            pp.nodes.iter().map(|s| s.op).collect::<Vec<_>>(),
            vec!["with", "scan", "join", "cte_scan", "cte_scan"]
        );
        // The definition ran exactly once despite two references.
        assert_eq!(pp.nodes[1].calls, 1);
        assert_eq!(pp.nodes[3].calls, 1);
        assert_eq!(pp.nodes[4].calls, 1);
    }

    #[test]
    fn wire_bytes_nonzero() {
        let db = db();
        let rs = execute(&Plan::scan("Supplier", "s"), &db).unwrap();
        assert!(rs.wire_bytes() > 0);
    }

    #[test]
    fn short_selectivity_mask_errors_instead_of_panicking() {
        let mut rows = vec![row![1i64], row![2i64], row![3i64]];
        match retain_by_mask(&mut rows, &[true, false]) {
            Err(EngineError::Internal(m)) => {
                assert!(m.contains("2 row(s)"), "{m}");
            }
            other => panic!("expected internal error, got {other:?}"),
        }
        assert_eq!(rows.len(), 3, "rows untouched on mask mismatch");
        retain_by_mask(&mut rows, &[true, false, true]).unwrap();
        assert_eq!(rows, vec![row![1i64], row![3i64]]);
    }

    #[test]
    fn cancelled_token_stops_execution() {
        let db = db();
        let p = Plan::scan("Supplier", "s").sort(vec!["s_suppkey".into()]);
        let token = CancelToken::unbounded();
        token.cancel();
        // The per-chunk check only fires after CANCEL_CHECK_ROWS of work,
        // so drive enough rows through a cross-join to guarantee a check.
        let big = Plan::scan("Supplier", "s")
            .join(Plan::scan("PartSupp", "a"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "b"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "c"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "d"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "e"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "f"), JoinKind::Inner, vec![]);
        match execute_vectorized_profiled_with(&big, &db, &token, None) {
            Err(EngineError::Cancelled) => {}
            other => panic!("expected cancellation, got {other:?}"),
        }
        // An uncancelled token executes normally.
        let (rs, _) =
            execute_vectorized_profiled_with(&p, &db, &CancelToken::unbounded(), None).unwrap();
        assert_eq!(rs.to_rows(), execute(&p, &db).unwrap().rows);
    }

    #[test]
    fn expired_deadline_stops_execution_mid_plan() {
        let db = db();
        let token = CancelToken::with_timeout(Duration::ZERO);
        std::thread::sleep(Duration::from_millis(2));
        let big = Plan::scan("Supplier", "s")
            .join(Plan::scan("PartSupp", "a"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "b"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "c"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "d"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "e"), JoinKind::Inner, vec![])
            .join(Plan::scan("PartSupp", "f"), JoinKind::Inner, vec![]);
        match execute_vectorized_profiled_with(&big, &db, &token, None) {
            Err(EngineError::Timeout { limit_ms, .. }) => assert_eq!(limit_ms, 0),
            other => panic!("expected timeout, got {other:?}"),
        }
    }

    #[test]
    fn scan_fault_surfaces_as_transient() {
        use crate::faults::{FaultInjector, FaultPlan};
        let db = db();
        let inj = FaultInjector::new(FaultPlan::parse("transient@scan#1", 0).unwrap());
        let p = Plan::scan("Supplier", "s");
        match execute_vectorized_profiled_with(&p, &db, &CancelToken::none(), Some(&inj)) {
            Err(EngineError::Transient(m)) => assert!(m.contains("scan"), "{m}"),
            other => panic!("expected transient, got {other:?}"),
        }
        // The rule fired on hit 1; the same injector now passes.
        let (rs, _) =
            execute_vectorized_profiled_with(&p, &db, &CancelToken::none(), Some(&inj)).unwrap();
        assert_eq!(rs.to_rows(), execute(&p, &db).unwrap().rows);
    }
}
