//! Sequential replay of one document through the pipeline's public
//! functions, each call inside its layer's span.
//!
//! The untraced runs measure the pipelined path the CLI and the server
//! take; this replay runs the same steps one after another so each layer's
//! time, work and allocations can be read off separately.

use std::io::Write;

use silkroute::engine::Server;
use silkroute::obs::Tracer;
use silkroute::sqlgen::{generate_queries, PlanSpec};
use silkroute::tagger::{tag_streams, RowSource, StreamInput};
use silkroute::viewtree::ViewTree;

use crate::alloc;

/// Work counts summed over replayed documents.
#[derive(Default, Debug, Clone)]
pub struct Counts {
    pub docs: u64,
    pub streams: u64,
    pub exec_rows: u64,
    pub wire_bytes: u64,
    pub decode_allocs: u64,
    pub tag_tuples: u64,
    pub tag_allocs: u64,
    pub tag_peak_live_bytes: u64,
    pub xml_bytes: u64,
    pub oracle_requests: u64,
    pub oracle_evaluations: u64,
}

fn counter(server: &Server, name: &str) -> u64 {
    server.metrics().counter(name).get()
}

/// Plan, generate SQL, execute, decode and tag one document into `out`.
/// Returns the sink and each component query with its row count (what
/// the server feeds back to its re-coster).
pub fn document<W: Write>(
    tracer: &Tracer,
    server: &Server,
    tree: &ViewTree,
    plan: impl FnOnce(&ViewTree) -> Result<PlanSpec, String>,
    counts: &mut Counts,
    out: W,
) -> Result<(W, Vec<(String, u64)>), String> {
    let (req0, eval0) = (
        counter(server, "oracle.requests"),
        counter(server, "oracle.evaluations"),
    );
    let spec = {
        let _s = tracer.span("sr-plan");
        plan(tree)?
    };
    counts.oracle_requests += counter(server, "oracle.requests") - req0;
    counts.oracle_evaluations += counter(server, "oracle.evaluations") - eval0;
    let queries = {
        let _s = tracer.span("sr-sqlgen");
        generate_queries(tree, server.database(), spec).map_err(|e| e.to_string())?
    };
    let mut inputs = Vec::with_capacity(queries.len());
    let mut fed_back = Vec::with_capacity(queries.len());
    // Shared handles on every decoded row, held until tagging ends: rows
    // the tagger drops then free nothing, so its live-byte growth counts
    // only what the tagger itself allocates.
    let mut held = Vec::with_capacity(queries.len());
    for q in queries {
        let stream = {
            let _s = tracer.span("sr-engine");
            server.execute_sql(&q.sql).map_err(|e| e.to_string())?
        };
        counts.exec_rows += stream.row_count as u64;
        counts.wire_bytes += stream.byte_size as u64;
        let schema = stream.schema.clone();
        let rows = {
            let _s = tracer.span("sr-engine.decode");
            let mark = alloc::mark();
            let rows = stream.collect_rows().map_err(|e| e.to_string())?;
            counts.decode_allocs += mark.allocs();
            rows
        };
        fed_back.push((q.sql, rows.len() as u64));
        held.push(rows.clone());
        inputs.push(StreamInput {
            schema,
            rows: RowSource::Materialized(rows.into_iter()),
            reduced: q.reduced,
        });
    }
    counts.streams += inputs.len() as u64;
    let (stats, out) = {
        let _s = tracer.span("sr-tagger");
        let mark = alloc::mark();
        let r = tag_streams(tree, inputs, out, false).map_err(|e| e.to_string())?;
        counts.tag_allocs += mark.allocs();
        counts.tag_peak_live_bytes = counts.tag_peak_live_bytes.max(mark.peak_live_bytes());
        r
    };
    drop(held);
    counts.tag_tuples += stats.tuples;
    counts.xml_bytes += stats.bytes;
    counts.docs += 1;
    Ok((out, fed_back))
}
