//! Property tests for the vectorized execution path.
//!
//! Two contracts are enforced here:
//!
//! 1. **Round-trip**: any rows — random types, NULLs, NaNs, empty tables —
//!    pivoted into [`ColumnBatch`]es come back out identical.
//! 2. **Byte identity**: for randomly generated plans, the vectorized
//!    executor's wire encoding is byte-for-byte that of the row-at-a-time
//!    reference evaluator (`sr_engine::execute`). Any divergence in bytes
//!    (not just rows — bytes) is a bug in the executor.

use std::sync::Arc;

use proptest::prelude::*;

use sr_data::column::{batches_from_rows, ColumnBatch};
use sr_data::{row, Column, DataType, Database, Row, Schema, Table, Value};
use sr_engine::wire::{encode_batch, encode_rows};
use sr_engine::{execute, execute_vectorized, CmpOp, Expr, JoinKind, Plan, Predicate};

// ---------------------------------------------------------------------------
// Row → column → row round-trip
// ---------------------------------------------------------------------------

/// Deterministic cell generator: a tiny LCG over the proptest-chosen seed,
/// so the case is fully described by `(dtypes, nrows, seed)` and replays
/// exactly. Mixes in NULLs, NaN, -0.0 and empty/multi-byte strings — the
/// cells the validity bitmap and offsets layout must get right.
fn cell(dtype: DataType, state: &mut u64) -> Value {
    let mut next = || {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    };
    if next() % 4 == 0 {
        return Value::Null;
    }
    match dtype {
        DataType::Int => Value::Int(next() as i64 - (next() % 2) as i64 * i64::MAX),
        DataType::Float => match next() % 5 {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(-0.0),
            2 => Value::Float(f64::INFINITY),
            _ => Value::Float(next() as f64 / 1e6 - 1e3),
        },
        DataType::Str => {
            let len = (next() % 5) as usize;
            let s: String = (0..len)
                .map(|_| ['a', 'é', '√', 'z', '~'][(next() % 5) as usize])
                .collect();
            Value::str(s)
        }
    }
}

fn schema_and_rows() -> impl Strategy<Value = (Vec<DataType>, usize, u64)> {
    (
        proptest::collection::vec(
            prop_oneof![
                Just(DataType::Int),
                Just(DataType::Float),
                Just(DataType::Str)
            ],
            1..5,
        ),
        0usize..40,
        any::<u64>(),
    )
}

fn schema_of(dtypes: &[DataType]) -> Schema {
    Schema::new(
        dtypes
            .iter()
            .enumerate()
            .map(|(i, &t)| Column::nullable(format!("c{i}"), t))
            .collect(),
    )
    .expect("schema")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rows_round_trip_through_columns((dtypes, nrows, seed) in schema_and_rows()) {
        let schema = schema_of(&dtypes);
        let mut state = seed;
        let rows: Vec<Row> = (0..nrows)
            .map(|_| Row::new(dtypes.iter().map(|&t| cell(t, &mut state)).collect()))
            .collect();
        // One batch holding everything…
        let batch = ColumnBatch::from_rows(&schema, &rows).expect("from_rows");
        prop_assert_eq!(batch.len(), rows.len());
        prop_assert_eq!(batch.to_rows(), rows.clone());
        // …and split into small batches, whose concatenation is the input.
        let parts = batches_from_rows(&schema, &rows, 7).expect("batches");
        let back: Vec<Row> = parts.iter().flat_map(ColumnBatch::to_rows).collect();
        prop_assert_eq!(back, rows.clone());
        // The wire encoding survives the pivot too.
        let mut wire = Vec::new();
        for p in &parts {
            wire.extend_from_slice(&encode_batch(p));
        }
        prop_assert_eq!(wire.as_slice(), encode_rows(&rows).as_ref());
    }
}

#[test]
fn empty_table_round_trips() {
    let schema = schema_of(&[DataType::Int, DataType::Str]);
    let batch = ColumnBatch::from_rows(&schema, &[]).expect("from_rows");
    assert!(batch.is_empty());
    assert!(batch.to_rows().is_empty());
    assert!(batches_from_rows(&schema, &[], 4)
        .expect("batches")
        .is_empty());
}

// ---------------------------------------------------------------------------
// Random plans: vectorized == tuple, down to the wire bytes
// ---------------------------------------------------------------------------

fn db() -> Arc<Database> {
    let mut db = Database::new();
    let mut a = Table::new(
        "A",
        Schema::of(&[
            ("id", DataType::Int),
            ("g", DataType::Int),
            ("s", DataType::Str),
        ]),
    );
    for i in 0..20i64 {
        a.insert(row![i, i % 4, format!("a{}", i % 3)]).unwrap();
    }
    let mut b = Table::new(
        "B",
        Schema::of(&[
            ("id", DataType::Int),
            ("aid", DataType::Int),
            ("v", DataType::Float),
        ]),
    );
    for i in 0..30i64 {
        b.insert(Row::new(vec![
            Value::Int(i),
            Value::Int(i % 25),
            Value::Float(i as f64 / 4.0),
        ]))
        .unwrap();
    }
    db.add_table(a);
    db.add_table(b);
    Arc::new(db)
}

/// A generation recipe; aliases and output names are assigned during
/// conversion so they stay globally unique within one plan. (Same recipe
/// the SQL round-trip proptest uses.)
#[derive(Debug, Clone)]
enum Gen {
    ScanA,
    ScanB,
    FilterFirstIntGt(Box<Gen>, i64),
    ProjectFirstTwo(Box<Gen>),
    Join(Box<Gen>, Box<Gen>, bool),
    UnionFirstInt(Box<Gen>, Box<Gen>),
    SortAll(Box<Gen>),
    Distinct(Box<Gen>),
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    let leaf = prop_oneof![Just(Gen::ScanA), Just(Gen::ScanB)];
    leaf.prop_recursive(3, 12, 3, |inner| {
        prop_oneof![
            (inner.clone(), 0i64..20).prop_map(|(p, n)| Gen::FilterFirstIntGt(Box::new(p), n)),
            inner
                .clone()
                .prop_map(|p| Gen::ProjectFirstTwo(Box::new(p))),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(l, r, outer)| Gen::Join(
                Box::new(l),
                Box::new(r),
                outer
            )),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Gen::UnionFirstInt(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|p| Gen::SortAll(Box::new(p))),
            inner.prop_map(|p| Gen::Distinct(Box::new(p))),
        ]
    })
}

struct Builder<'a> {
    db: &'a Database,
    counter: usize,
}

impl<'a> Builder<'a> {
    fn fresh(&mut self) -> usize {
        self.counter += 1;
        self.counter
    }

    fn build(&mut self, g: &Gen) -> Plan {
        match g {
            Gen::ScanA => Plan::scan("A", format!("t{}", self.fresh())),
            Gen::ScanB => Plan::scan("B", format!("t{}", self.fresh())),
            Gen::FilterFirstIntGt(inner, n) => {
                let p = self.build(inner);
                match self.first_int_col(&p) {
                    Some(col) => p.filter(vec![Predicate::new(
                        Expr::col(col),
                        CmpOp::Gt,
                        Expr::lit(*n),
                    )]),
                    None => p,
                }
            }
            Gen::ProjectFirstTwo(inner) => {
                let p = self.build(inner);
                let schema = p.schema(self.db).expect("schema");
                let n = self.fresh();
                let items: Vec<(String, Expr)> = schema
                    .names()
                    .take(2)
                    .enumerate()
                    .map(|(i, c)| (format!("p{n}_{i}"), Expr::col(c.to_string())))
                    .collect();
                p.project(items)
            }
            Gen::Join(l, r, outer) => {
                let lp = self.build(l);
                let rp = self.build(r);
                let (Some(lc), Some(rc)) = (self.first_int_col(&lp), self.first_int_col(&rp))
                else {
                    return lp;
                };
                let kind = if *outer {
                    JoinKind::LeftOuter
                } else {
                    JoinKind::Inner
                };
                lp.join(rp, kind, vec![(lc, rc)])
            }
            Gen::UnionFirstInt(l, r) => {
                let n = self.fresh();
                let mut branches = Vec::new();
                for g in [l, r] {
                    let p = self.build(g);
                    match self.first_int_col(&p) {
                        Some(c) => {
                            branches.push(p.project(vec![(format!("u{n}"), Expr::col(c))]));
                        }
                        None => return self.build(g),
                    }
                }
                Plan::OuterUnion { inputs: branches }
            }
            Gen::SortAll(inner) => {
                let p = self.build(inner);
                let keys: Vec<String> = p
                    .schema(self.db)
                    .expect("schema")
                    .names()
                    .map(str::to_string)
                    .collect();
                p.sort(keys)
            }
            Gen::Distinct(inner) => Plan::Distinct {
                input: Box::new(self.build(inner)),
            },
        }
    }

    fn first_int_col(&self, p: &Plan) -> Option<String> {
        let schema = p.schema(self.db).ok()?;
        schema
            .columns()
            .iter()
            .find(|c| c.dtype == DataType::Int)
            .map(|c| c.name.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn vectorized_matches_tuple_bytes_for_random_plans(g in gen_strategy()) {
        let db = db();
        let plan = Builder { db: &db, counter: 0 }.build(&g);
        let tuple = execute(&plan, &db).expect("reference evaluator");
        let vector = execute_vectorized(&plan, &db).expect("vectorized path");
        prop_assert_eq!(
            tuple.schema.names().collect::<Vec<_>>(),
            vector.schema.names().collect::<Vec<_>>()
        );
        prop_assert_eq!(tuple.rows.len(), vector.row_count());
        let want = encode_rows(&tuple.rows);
        let mut got = Vec::with_capacity(want.len());
        for b in &vector.batches {
            got.extend_from_slice(&encode_batch(b));
        }
        prop_assert_eq!(
            got.as_slice(),
            want.as_ref(),
            "wire bytes diverge between executors"
        );
    }
}
