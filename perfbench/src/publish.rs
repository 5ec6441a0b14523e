//! `publish`: repeated in-process exports of both paper views from the
//! 16 MB database (the repo's Config B), one caller in a closed loop.
//!
//! This is the paper's bulk-materialization case: engine execution, wire
//! decode and the tagger do nearly all the work, planning a few percent,
//! and the serve layer none.

use std::time::Instant;

use silkroute::engine::Server;
use silkroute::obs::Tracer;
use silkroute::sqlgen::PlanSpec;
use silkroute::tpch::Scale;
use silkroute::viewtree::ViewTree;

use crate::layers::{self, LayerInputs};
use crate::lookup::{plan_cache_counts, plan_cache_ratio};
use crate::measure::{median, tail, CheckSink, HeapSampler};
use crate::replay::{self, Counts};
use crate::{cli_greedy, cli_server, Args, Host, Report};

/// Config B as `silkroute::Config::b()` defaults it.
const MB: f64 = 16.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Setup {
    mb: f64,
    server: Server,
    views: Vec<(&'static str, ViewTree)>,
    setup_s: f64,
    generate_s: f64,
    build_ms: f64,
}

/// Generate the data, build both view trees, and warm up with one export.
fn setup(mb: f64, host: &Host) -> Result<Setup, String> {
    let t0 = Instant::now();
    let db = silkroute::tpch::generate(Scale::mb(mb)).map_err(|e| e.to_string())?;
    let generate_s = t0.elapsed().as_secs_f64();
    let server = cli_server(std::sync::Arc::new(db), host);
    let t1 = Instant::now();
    let views = vec![
        ("query1", silkroute::query1_tree(server.database())),
        ("query2", silkroute::query2_tree(server.database())),
    ];
    let build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let mut s = Setup {
        mb,
        server,
        views,
        setup_s: 0.0,
        generate_s,
        build_ms,
    };
    for (_, tree) in &s.views {
        let spec = cli_greedy(tree, &s.server, mb)?;
        silkroute::materialize(tree, &s.server, spec, std::io::sink())
            .map_err(|e| e.to_string())?;
    }
    s.setup_s = t0.elapsed().as_secs_f64();
    Ok(s)
}

/// The reference documents: each view under the fully partitioned plan,
/// on an engine of its own.
fn references(s: &Setup) -> Result<Vec<Vec<u8>>, String> {
    let server = Server::new(std::sync::Arc::clone(s.server.database()));
    s.views
        .iter()
        .map(|(_, tree)| {
            silkroute::materialize(tree, &server, PlanSpec::fully_partitioned(), Vec::new())
                .map(|(_, doc)| doc)
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One export of both views, `gen_plan` through the last XML byte, each
/// document compared with its reference as it is written.
/// Returns (seconds, bytes, matched).
fn export(s: &Setup, refs: &[Vec<u8>]) -> (f64, u64, bool) {
    let t = Instant::now();
    let mut bytes = 0;
    let mut ok = true;
    for ((name, tree), reference) in s.views.iter().zip(refs) {
        let result = cli_greedy(tree, &s.server, s.mb).and_then(|spec| {
            silkroute::materialize(tree, &s.server, spec, CheckSink::new(reference))
                .map_err(|e| e.to_string())
        });
        match result {
            Ok((_, sink)) => {
                bytes += sink.bytes();
                ok &= sink.matches();
            }
            Err(e) => {
                eprintln!("publish: {name}: {e}");
                ok = false;
            }
        }
    }
    (t.elapsed().as_secs_f64(), bytes, ok)
}

/// Exports back to back for `seconds`. Returns the per-export times, bytes
/// and elapsed wall time, counting attempts and failures into `report`.
fn closed_loop(
    s: &Setup,
    refs: &[Vec<u8>],
    seconds: f64,
    report: &mut Report,
) -> (Vec<f64>, u64, f64) {
    let t0 = Instant::now();
    let (mut times, mut bytes) = (Vec::new(), 0);
    while t0.elapsed().as_secs_f64() < seconds {
        let (secs, b, ok) = export(s, refs);
        times.push(secs);
        bytes += b;
        report.attempted += 1;
        report.failed += u64::from(!ok);
    }
    (times, bytes, t0.elapsed().as_secs_f64())
}

pub fn run(args: &Args, host: &Host) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut s = setup(MB, host)?;
    setups.push((s.setup_s, s.generate_s, s.build_ms));
    for _ in 1..SETUPS {
        drop(s);
        s = setup(MB, host)?;
        setups.push((s.setup_s, s.generate_s, s.build_ms));
    }
    let refs = references(&s)?;
    let mut report = Report::default();
    report.note(format!(
        "publish: {MB} MB, query1+query2 per export, greedy plan, executor {}, shards {} (nproc {}), fragment cache off",
        s.server.exec_mode(),
        s.server.shards(),
        host.nproc
    ));
    let setup_s = median(&setups.iter().map(|x| x.0).collect::<Vec<_>>());
    if !args.trace {
        let heap = HeapSampler::start();
        let (times, bytes, elapsed) = closed_loop(&s, &refs, args.seconds, &mut report);
        let (peak, start_mb) = heap.finish()?;
        let ms: Vec<f64> = times.iter().map(|t| t * 1e3).collect();
        let (p99, p99_label) = tail(&ms);
        report.note(format!(
            "{} exports in {elapsed:.2} s; req_ms_p99 is the {p99_label}; live heap at start {:.1} MB",
            times.len(),
            start_mb
        ));
        report.metric("setup_s", setup_s, "s");
        report.metric("export_s_p50", median(&times), "s");
        report.metric("xml_mb_s", bytes as f64 / 1e6 / elapsed, "MB/s");
        report.metric("req_ms_p50", median(&ms), "ms");
        report.metric("req_ms_p99", p99, "ms");
        report.metric("sat_qps", times.len() as f64 / elapsed, "req/s");
        report.metric("peak_heap_mb", peak, "MB");
        return Ok(report);
    }

    let cache0 = plan_cache_counts(&s.server);
    let (times, _, _) = closed_loop(&s, &refs, args.seconds / 2.0, &mut report);
    let cache1 = plan_cache_counts(&s.server);
    let untraced_ms = median(&times) * 1e3;

    let tracer = Tracer::new();
    let lane = tracer.name_current_thread("replay");
    let mut counts = Counts::default();
    let t0 = Instant::now();
    while counts.docs == 0 || t0.elapsed().as_secs_f64() < args.seconds / 2.0 {
        replay_export(&tracer, &s, &refs, &mut counts, &mut report)?;
    }
    let tally = layers::tally(&tracer, lane)?;
    let peak_16 = counts.tag_peak_live_bytes;

    // The same export at 1 MB: the paper's constant-space claim (§3.3)
    // predicts the tagger's peak live memory does not grow with the data.
    let small = setup(1.0, host)?;
    let small_refs = references(&small)?;
    let small_tracer = Tracer::new();
    let mut small_counts = Counts::default();
    replay_export(
        &small_tracer,
        &small,
        &small_refs,
        &mut small_counts,
        &mut report,
    )?;
    report.note(format!(
        "tagger.peak_live_mb: {:.3} MB at 1 MB, {:.3} MB at {MB} MB",
        small_counts.tag_peak_live_bytes as f64 / (1024.0 * 1024.0),
        peak_16 as f64 / (1024.0 * 1024.0)
    ));
    report.note(format!(
        "chrome trace: {}",
        layers::write_chrome_trace(&tracer, &args.workload, args.seed)?
    ));
    layers::emit(
        &mut report,
        LayerInputs {
            unit: "export",
            tally: &tally,
            counts: &counts,
            xpath_requests: 0,
            pruned_nodes: 0,
            serve: Default::default(),
            plan_cache_hit_ratio: plan_cache_ratio(cache0, cache1),
            untraced_median_ms: untraced_ms,
            generate_s: median(&setups.iter().map(|x| x.1).collect::<Vec<_>>()),
            build_ms: median(&setups.iter().map(|x| x.2).collect::<Vec<_>>()),
        },
    );
    Ok(report)
}

/// One traced export: both views replayed layer by layer under an
/// `export` root span, each document checked against its reference.
fn replay_export(
    tracer: &Tracer,
    s: &Setup,
    refs: &[Vec<u8>],
    counts: &mut Counts,
    report: &mut Report,
) -> Result<(), String> {
    let _root = tracer.span("export");
    let mut ok = true;
    for ((_, tree), reference) in s.views.iter().zip(refs) {
        let (sink, _) = replay::document(
            tracer,
            &s.server,
            tree,
            |t| cli_greedy(t, &s.server, s.mb),
            counts,
            CheckSink::new(reference),
        )?;
        ok &= sink.matches();
    }
    report.attempted += 1;
    report.failed += u64::from(!ok);
    Ok(())
}
