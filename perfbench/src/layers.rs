//! The traced run: spans the benchmark records around calls into each
//! layer's public functions, their self times, and the Chrome trace file.
//!
//! Spans go into an `sr_obs::Tracer` held by the benchmark; the program
//! under test gets no tracer. A layer's self time is its span minus the
//! spans nested in it. Spans whose name is not a layer (the per-request or
//! per-export root) contribute their self time to the unattributed
//! remainder, so the layer times and the remainder add up to the traced
//! wall time.

use std::collections::BTreeMap;

use silkroute::obs::{TracePhase, Tracer};

/// Layers in pipeline order, named after their crates. `sr-engine.decode`
/// is the client side of the engine's wire format (`TupleStream`).
pub const LAYERS: [&str; 7] = [
    "sr-xpath",
    "sr-plan",
    "sr-sqlgen",
    "sr-engine",
    "sr-engine.decode",
    "sr-tagger",
    "sr-serve",
];

/// Self time per span name, over the root spans of one lane.
#[derive(Default)]
pub struct Tally {
    /// Root spans seen.
    pub units: u64,
    /// Summed wall time of the root spans, ns.
    pub wall_ns: u64,
    /// Summed self time per span name, ns.
    pub self_ns: BTreeMap<String, u64>,
}

impl Tally {
    /// Self time of `name` per unit, ms.
    pub fn per_unit_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6 / self.units.max(1) as f64
    }

    /// Time per unit that no layer span covers, ms.
    pub fn unattributed_ms(&self) -> f64 {
        let layers: u64 = self
            .self_ns
            .iter()
            .filter(|(k, _)| LAYERS.contains(&k.as_str()))
            .map(|(_, v)| v)
            .sum();
        (self.wall_ns - layers) as f64 / 1e6 / self.units.max(1) as f64
    }
}

/// Fold the tracer's spans on `lane` into self times.
pub fn tally(tracer: &Tracer, lane: u64) -> Result<Tally, String> {
    let mut t = Tally::default();
    // (name, begin ns, ns covered by children)
    let mut stack: Vec<(String, u64, u64)> = Vec::new();
    for e in tracer.events().into_iter().filter(|e| e.lane == lane) {
        match e.phase {
            TracePhase::Begin => stack.push((e.name.into_owned(), e.ts_ns, 0)),
            TracePhase::End => {
                let (name, begin, children) = stack
                    .pop()
                    .ok_or_else(|| format!("unmatched end of span {}", e.name))?;
                if name != e.name {
                    return Err(format!("span {name} closed as {}", e.name));
                }
                let dur = e.ts_ns - begin;
                *t.self_ns.entry(name).or_default() += dur.saturating_sub(children);
                match stack.last_mut() {
                    Some(parent) => parent.2 += dur,
                    None => {
                        t.units += 1;
                        t.wall_ns += dur;
                    }
                }
            }
            _ => {}
        }
    }
    if !stack.is_empty() {
        return Err(format!("{} span(s) left open", stack.len()));
    }
    Ok(t)
}

/// Write the tracer's events as a Chrome trace file under `perfbench/out`.
pub fn write_chrome_trace(tracer: &Tracer, workload: &str, seed: u64) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    std::fs::write(&path, tracer.to_chrome_json().render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

/// Serve-layer numbers from the served copies of traced requests.
#[derive(Default)]
pub struct ServeLayer {
    /// Client time to the first response frame, mean ms.
    pub ttfb_ms: f64,
    /// Client latency minus the server's DONE elapsed time, mean ms.
    pub wire_overhead_ms: f64,
    /// Mean admission wait from the served engine's `serve.queue_wait_ms`.
    pub queue_wait_ms: f64,
    /// BUSY replies over the run.
    pub busy: f64,
    /// The wire overhead less the composing and planning it includes,
    /// mean ms per served copy.
    pub own_ms: f64,
    /// Serve time charged to one traced unit, ms.
    pub per_unit_ms: f64,
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// What one traced unit is ("export", "request", "cycle").
    pub unit: &'static str,
    pub tally: &'a Tally,
    pub counts: &'a crate::replay::Counts,
    /// XPath compositions and the view-tree nodes they pruned.
    pub xpath_requests: u64,
    pub pruned_nodes: u64,
    pub serve: ServeLayer,
    /// Engine plan-cache hits over queries during the untraced phase.
    pub plan_cache_hit_ratio: f64,
    /// The untraced median time of one unit, ms.
    pub untraced_median_ms: f64,
    pub generate_s: f64,
    pub build_ms: f64,
}

/// Emit every per-layer metric and print the self-time table.
pub fn emit(report: &mut crate::Report, inp: LayerInputs<'_>) {
    let t = inp.tally;
    let c = inp.counts;
    let units = t.units.max(1) as f64;
    // The serve layer has no span: its time comes from the served copies.
    let layer = |l: &str| {
        if l == "sr-serve" {
            inp.serve.per_unit_ms
        } else {
            t.per_unit_ms(l)
        }
    };
    let layer_ms: Vec<(&str, f64)> = LAYERS.iter().map(|&l| (l, layer(l))).collect();
    let sum: f64 = layer_ms.iter().map(|(_, v)| v).sum();
    let unattributed = t.unattributed_ms();
    let traced_wall = t.wall_ns as f64 / 1e6 / units;
    report.note(format!(
        "per-layer self time per {} over {} traced {}(s) (sequential replay; sr-serve from served copies):",
        inp.unit, t.units, inp.unit
    ));
    for (l, ms) in &layer_ms {
        report.note(format!(
            "  {l:<18} {ms:>10.3} ms  {:>5.1}%",
            if sum > 0.0 { 100.0 * ms / sum } else { 0.0 }
        ));
    }
    report.note(format!(
        "  {:<18} {sum:>10.3} ms  (replayed wall {traced_wall:.3} ms = layers {:.3} + unattributed {unattributed:.3}; untraced median {:.3} ms)",
        "sequential sum",
        sum - inp.serve.per_unit_ms,
        inp.untraced_median_ms
    ));
    let rows = c.exec_rows.max(1) as f64;
    report.metric("engine.exec_ms", layer("sr-engine"), "ms");
    report.metric("engine.rows", c.exec_rows as f64 / units, "count");
    report.metric("engine.wire_bytes", c.wire_bytes as f64 / units, "bytes");
    report.metric(
        "engine.plan_cache_hit_ratio",
        inp.plan_cache_hit_ratio,
        "ratio",
    );
    report.metric("engine.decode_ms", layer("sr-engine.decode"), "ms");
    report.metric(
        "engine.decode_allocs_per_row",
        c.decode_allocs as f64 / rows,
        "count",
    );
    report.metric("tagger.ms", layer("sr-tagger"), "ms");
    report.metric(
        "tagger.allocs_per_tuple",
        c.tag_allocs as f64 / c.tag_tuples.max(1) as f64,
        "count",
    );
    report.metric(
        "tagger.peak_live_mb",
        c.tag_peak_live_bytes as f64 / (1024.0 * 1024.0),
        "MB",
    );
    report.metric("plan.genplan_ms", layer("sr-plan"), "ms");
    report.metric(
        "plan.oracle_requests",
        c.oracle_requests as f64 / units,
        "count",
    );
    report.metric(
        "plan.oracle_evaluations",
        c.oracle_evaluations as f64 / units,
        "count",
    );
    report.metric("xpath.compose_ms", layer("sr-xpath"), "ms");
    report.metric(
        "xpath.pruned_nodes",
        inp.pruned_nodes as f64 / inp.xpath_requests.max(1) as f64,
        "count",
    );
    report.metric("sqlgen.ms", layer("sr-sqlgen"), "ms");
    report.metric("sqlgen.streams", c.streams as f64 / units, "count");
    report.metric("serve.ttfb_ms", inp.serve.ttfb_ms, "ms");
    report.metric("serve.wire_overhead_ms", inp.serve.wire_overhead_ms, "ms");
    report.metric("serve.queue_wait_ms", inp.serve.queue_wait_ms, "ms");
    report.metric("serve.busy", inp.serve.busy, "count");
    report.metric("tpch.generate_s", inp.generate_s, "s");
    report.metric("viewtree.build_ms", inp.build_ms, "ms");
    report.metric("trace.unattributed_ms", unattributed, "ms");
    report.metric(
        "trace.overlap_ratio",
        if inp.untraced_median_ms > 0.0 {
            sum / inp.untraced_median_ms
        } else {
            0.0
        },
        "ratio",
    );
}
