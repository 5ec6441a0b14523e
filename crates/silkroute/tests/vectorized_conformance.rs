//! Executor conformance: materializing the paper's views with the
//! batch-at-a-time columnar executor must produce documents byte-identical
//! to the golden corpus — and to documents tagged from the row-at-a-time
//! reference evaluator's results — for every plan shape and shard count.
//! Any byte of divergence here is a bug in the executor.

use std::path::PathBuf;
use std::sync::Arc;

use silkroute::{materialize, query1_tree, query2_tree, PlanSpec, QueryStyle, Server};
use sr_tagger::{tag_streams, RowSource, StreamInput};
use sr_viewtree::{EdgeSet, ViewTree};

/// Must match the scale the golden corpus was generated at.
const SCALE_MB: f64 = 0.1;

fn golden(name: &str) -> Vec<u8> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("read golden {}: {e}", path.display()))
}

fn server(shards: usize) -> Server {
    let db = Arc::new(sr_tpch::generate(sr_tpch::Scale::mb(SCALE_MB)).expect("tpch"));
    Server::new(db).with_shards(shards)
}

fn document(srv: &Server, tree: &ViewTree, spec: PlanSpec) -> Vec<u8> {
    let (_, bytes) = materialize(tree, srv, spec, Vec::new()).expect("materialize");
    bytes
}

/// The document tagged from the reference evaluator's results, each
/// component query evaluated on exactly the plan the server optimizes it
/// to.
fn reference_document(srv: &Server, tree: &ViewTree, spec: PlanSpec) -> Vec<u8> {
    let queries = sr_sqlgen::generate_queries(tree, srv.database(), spec).expect("sqlgen");
    let inputs = queries
        .into_iter()
        .map(|q| {
            let (plan, _) = srv.optimized_plan(&q.sql).expect("plan");
            let rs = sr_engine::execute(&plan, srv.database()).expect("reference");
            StreamInput {
                schema: rs.schema,
                rows: RowSource::Materialized(rs.rows.into_iter()),
                reduced: q.reduced,
            }
        })
        .collect();
    let (_, bytes) = tag_streams(tree, inputs, Vec::new(), false).expect("tag");
    bytes
}

/// The golden corpus holds the unified-plan documents; the vectorized
/// executor must reproduce them byte for byte at every shard count the
/// acceptance criteria name.
#[test]
fn vectorized_unified_documents_match_goldens_across_shard_counts() {
    for shards in [1usize, 2, 4] {
        let srv = server(shards);
        for (name, tree) in [
            ("query1.xml", query1_tree(srv.database())),
            ("query2.xml", query2_tree(srv.database())),
        ] {
            let spec = PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: true,
                style: QueryStyle::OuterJoin,
            };
            assert_eq!(
                document(&srv, &tree, spec),
                golden(name),
                "vectorized {name} diverges from golden at shards={shards}"
            );
        }
        let snap = srv.metrics().snapshot();
        assert!(
            snap.counter("exec.batches") > 0,
            "the executor should export batch counters (shards={shards})"
        );
    }
}

/// Every plan shape — unified, partitioned, sorted outer union — must
/// produce the same document from the executor and from the reference.
#[test]
fn vectorized_matches_tuple_for_every_plan_shape() {
    let srv = server(1);
    for tree_of in [query1_tree, query2_tree] {
        let tree = tree_of(srv.database());
        let specs = [
            PlanSpec {
                edges: EdgeSet::full(&tree),
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
            PlanSpec {
                edges: EdgeSet::empty(),
                reduce: true,
                style: QueryStyle::OuterJoin,
            },
            PlanSpec::sorted_outer_union(&tree),
        ];
        for spec in specs {
            let want = reference_document(&srv, &tree, spec);
            let got = document(&srv, &tree, spec);
            assert_eq!(
                got, want,
                "executor diverges from the reference for edges={}",
                spec.edges
            );
        }
    }
}
