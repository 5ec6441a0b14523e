//! `mixed`: one listener in front of the 4 MB database with two
//! connections. One fetches full query2 documents back to back; the other
//! sends the `lookup` path mix back to back.
//!
//! Both share the admission slots, the engine's execution permits, the
//! shard workers and socket writes, so a bulk-throughput gain that delays
//! small requests, or the reverse, shows only here.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use silkroute::obs::Tracer;
use silkroute::plan::{RecostConfig, Recoster};
use silkroute::sqlgen::PlanSpec;

use crate::layers::{self, LayerInputs};
use crate::loadgen::{self, view_request, xpath_request, Outcome, Sample};
use crate::lookup::{
    self, plan_cache_counts, plan_cache_ratio, replay_request, serve_layer, Listener, References,
};
use crate::measure::{digest, mean, median, tail, CheckSink, Digest, HeapSampler};
use crate::paths::PathGen;
use crate::replay::{self, Counts};
use crate::{cli_server, Args, Host, Report};

const MB: f64 = 4.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The bulk connection's view.
const BULK_VIEW: &str = "query2";
/// Lookups replayed per bulk document in a traced cycle: about the number
/// the lookup connection completes during one bulk document on the
/// reference host. Fixed, so per-cycle figures stay comparable when either
/// stream speeds up.
const LOOKUPS_PER_CYCLE: usize = 4;

/// Warm-up beyond the lookup paths: one bulk document.
fn warm_bulk(addr: SocketAddr) -> Result<(), String> {
    let mut sock = loadgen::connect(addr)?;
    let s = loadgen::timed_request(&mut sock, 0, &view_request(BULK_VIEW))?;
    match s.outcome {
        Outcome::Ok => Ok(()),
        other => Err(format!("bulk warm-up: {other:?}")),
    }
}

/// Full documents back to back on one connection until `stop` is set.
fn bulk_loop(
    addr: SocketAddr,
    reference: Digest,
    stop: &AtomicBool,
) -> Result<Vec<Sample>, String> {
    let mut sock = loadgen::connect(addr)?;
    let req = view_request(BULK_VIEW);
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let mut s = loadgen::timed_request(&mut sock, 0, &req)?;
        if s.outcome == Outcome::Ok && s.digest != reference {
            s.outcome = Outcome::Failed("document differs from the reference".into());
        }
        out.push(s);
    }
    Ok(out)
}

fn bulk_failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.outcome != Outcome::Ok).count() as u64
}

pub fn run(args: &Args, host: &Host) -> Result<Report, String> {
    let (l, setup_s, generate_s, build_ms) = lookup::start_median(SETUPS, MB, host, warm_bulk)?;
    let result = measure(args, host, &l, setup_s, generate_s, build_ms);
    l.handle.shutdown();
    result
}

fn measure(
    args: &Args,
    host: &Host,
    l: &Listener,
    setup_s: f64,
    generate_s: f64,
    build_ms: f64,
) -> Result<Report, String> {
    let db = Arc::clone(l.engine.database());
    let bulk_tree = silkroute::query2_tree(&db);
    let reference = {
        let server = silkroute::engine::Server::new(Arc::clone(&db));
        let (_, doc) = silkroute::materialize(
            &bulk_tree,
            &server,
            PlanSpec::fully_partitioned(),
            Vec::new(),
        )
        .map_err(|e| e.to_string())?;
        doc
    };
    let gen = PathGen::new(&db, args.seed)?;
    let mut refs = References::new(&db);
    let mut report = Report::default();
    let admit = l.handle.admission().config();
    report.note(format!(
        "mixed: {MB} MB, {BULK_VIEW} documents back to back beside XPath lookups back to back, greedy plan, executor {}, shards {} (nproc {}), admission slots {} per-client {} queue {}, fragment cache off",
        l.engine.exec_mode(),
        l.engine.shards(),
        host.nproc,
        admit.slots,
        admit.per_client,
        admit.queue_depth
    ));
    let phase_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let gen = Mutex::new(gen);
    let busy0 = l.engine.metrics().counter("serve.rejected").get();
    let cache0 = plan_cache_counts(&l.engine);
    let ref_digest = digest(&reference);
    let heap = if args.trace {
        None
    } else {
        Some(HeapSampler::start())
    };
    let stop = AtomicBool::new(false);
    let t0 = Instant::now();
    let (lookups, bulk) = std::thread::scope(|s| {
        let bulk = s.spawn(|| bulk_loop(l.addr, ref_digest, &stop));
        let lookups =
            loadgen::closed_loop(l.addr, 1, &gen, t0 + Duration::from_secs_f64(phase_secs));
        stop.store(true, Ordering::Relaxed);
        let bulk = bulk
            .join()
            .map_err(|_| "bulk connection panicked".to_string());
        (lookups, bulk)
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let cache1 = plan_cache_counts(&l.engine);
    let (lookups, bulk) = (lookups?, bulk??);
    let mut gen = gen.into_inner().expect("path generator lock");
    report.attempted += (lookups.len() + bulk.len()) as u64;
    report.failed += bulk_failures(&bulk);
    let req_ms: Vec<f64> = lookups.iter().map(|s| s.client_ms).collect();
    let bulk_s: Vec<f64> = bulk.iter().map(|s| s.client_ms / 1e3).collect();

    if let Some(heap) = heap {
        let (peak, start_mb) = heap.finish()?;
        report.failed += refs.failures(&gen.paths, &lookups);
        let (p99, label) = tail(&req_ms);
        report.note(format!(
            "bulk: {} documents, lookups: {} requests in {elapsed:.2} s; req_ms_p99 is the {label}; live heap at phase start {start_mb:.1} MB",
            bulk.len(),
            lookups.len(),
        ));
        report.note(gen.summary());
        report.metric("setup_s", setup_s, "s");
        report.metric("export_s_p50", median(&bulk_s), "s");
        report.metric(
            "xml_mb_s",
            bulk.iter().map(|s| s.digest.len).sum::<u64>() as f64 / 1e6 / elapsed,
            "MB/s",
        );
        report.metric("req_ms_p50", median(&req_ms), "ms");
        report.metric("req_ms_p99", p99, "ms");
        report.metric("sat_qps", bulk.len() as f64 / elapsed, "req/s");
        report.metric("peak_heap_mb", peak, "MB");
        return Ok(report);
    }

    // Traced phase: the bulk connection keeps running, served and
    // untraced, while this thread replays cycles of one bulk document plus
    // the lookups that arrive during one, then sends served copies of
    // those lookups.
    let untraced_ms = median(&bulk_s) * 1e3;
    let server = cli_server(Arc::clone(&db), host);
    let recoster = Recoster::new(RecostConfig::default());
    let lookup_tree = silkroute::query1_tree(&db);
    let tracer = Tracer::new();
    let lane = tracer.name_current_thread("replay");
    let (mut counts, mut pruned) = (Counts::default(), 0u64);
    let (mut replayed, mut copies, mut unserved) = (Vec::new(), Vec::new(), Vec::new());
    let mut bulk_ok = true;
    let stop = AtomicBool::new(false);
    let bulk2 = std::thread::scope(|s| -> Result<Vec<Sample>, String> {
        let bulk = s.spawn(|| bulk_loop(l.addr, ref_digest, &stop));
        let replay = (|| -> Result<(), String> {
            let mut sock = loadgen::connect(l.addr)?;
            let t0 = Instant::now();
            while counts.docs == 0 || t0.elapsed().as_secs_f64() < args.seconds / 2.0 {
                let drawn: Vec<(u32, String)> =
                    (0..LOOKUPS_PER_CYCLE).map(|_| gen.next()).collect();
                {
                    let _root = tracer.span("cycle");
                    let (sink, fed_back) = replay::document(
                        &tracer,
                        &server,
                        &bulk_tree,
                        |t| {
                            recoster
                                .plan(BULK_VIEW, t, &server)
                                .map_err(|e| e.to_string())
                        },
                        &mut counts,
                        CheckSink::new(&reference),
                    )?;
                    bulk_ok &= sink.matches();
                    {
                        let _s = tracer.span("sr-plan");
                        for (sql, rows) in fed_back {
                            recoster.observe(BULK_VIEW, &sql, rows);
                        }
                    }
                    for (id, path) in &drawn {
                        let (d, u) = replay_request(
                            &tracer,
                            &server,
                            &recoster,
                            &lookup_tree,
                            path,
                            &mut counts,
                            &mut pruned,
                        )?;
                        unserved.push(u);
                        replayed.push(Sample::local(*id, d));
                    }
                }
                for (id, path) in &drawn {
                    copies.push(loadgen::timed_request(
                        &mut sock,
                        *id,
                        &xpath_request(path),
                    )?);
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::Relaxed);
        let bulk = bulk
            .join()
            .map_err(|_| "bulk connection panicked".to_string())?;
        replay?;
        bulk
    })?;
    let cycles = layers::tally(&tracer, lane)?;
    report.attempted += cycles.units + (replayed.len() + copies.len() + bulk2.len()) as u64;
    report.failed += u64::from(!bulk_ok) + bulk_failures(&bulk2);
    report.failed += refs.failures(
        &gen.paths,
        lookups.iter().chain(&replayed).chain(&copies),
    );
    let mut serve = serve_layer(&l.engine, &copies, &unserved, busy0);
    let bulk_overhead = mean(
        &bulk2
            .iter()
            .map(|s| (s.client_ms - s.server_ms).max(0.0))
            .collect::<Vec<_>>(),
    );
    serve.per_unit_ms = bulk_overhead
        + LOOKUPS_PER_CYCLE as f64 * serve.own_ms
        + (LOOKUPS_PER_CYCLE + 1) as f64 * serve.queue_wait_ms;
    report.note(format!(
        "traced cycle = one {BULK_VIEW} document + {LOOKUPS_PER_CYCLE} lookups; bulk wire overhead {bulk_overhead:.3} ms"
    ));
    report.note(gen.summary());
    report.note(format!(
        "chrome trace: {}",
        layers::write_chrome_trace(&tracer, &args.workload, args.seed)?
    ));
    layers::emit(
        &mut report,
        LayerInputs {
            unit: "cycle",
            tally: &cycles,
            counts: &counts,
            xpath_requests: replayed.len() as u64,
            pruned_nodes: pruned,
            serve,
            plan_cache_hit_ratio: plan_cache_ratio(cache0, cache1),
            untraced_median_ms: untraced_ms,
            generate_s,
            build_ms,
        },
    );
    Ok(report)
}
