//! `lookup`: selective XPath requests over query1's view, served by an
//! in-process `sr_serve::serve` listener on loopback in front of the 1 MB
//! database (Config A).
//!
//! A closed loop on `nproc` connections, which keeps every CPU busy: on
//! one connection the other CPU idles between handoffs, and the median
//! latency spread more than twice as much from run to run. A served greedy
//! request plans each new path, so planning and engine changes show here
//! and tagger changes should not.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use silkroute::data::Database;
use silkroute::engine::Server;
use silkroute::obs::Tracer;
use silkroute::plan::{RecostConfig, Recoster};
use silkroute::sqlgen::PlanSpec;
use silkroute::tpch::Scale;
use silkroute::viewtree::ViewTree;
use sr_serve::{ServeConfig, ServeHandle, ViewCatalog};

use crate::layers::{self, LayerInputs, ServeLayer};
use crate::loadgen::{self, xpath_request, Outcome, Sample, LOOKUP_VIEW};
use crate::measure::{mean, median, tail, Digest, HashSink, HeapSampler};
use crate::paths::PathGen;
use crate::replay::{self, Counts};
use crate::{cli_server, Args, Host, Report};

/// Config A.
const MB: f64 = 1.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Warm-up paths: shaped unlike any generated path, so warm-up fills no
/// plan the measured mix could reuse.
pub const WARMUP: [&str; 2] = ["/supplier/name", "//order[orderkey < 100]"];

/// A listener configured as `silkroute serve` with no options.
pub struct Listener {
    pub engine: Arc<Server>,
    pub handle: ServeHandle,
    pub addr: SocketAddr,
    pub setup_s: f64,
    pub generate_s: f64,
    pub build_ms: f64,
}

/// Generate the data, register both paper views, start listening and
/// send the warm-up requests; `warm` adds workload-specific warm-up.
pub fn start(
    mb: f64,
    host: &Host,
    warm: impl FnOnce(SocketAddr) -> Result<(), String>,
) -> Result<Listener, String> {
    let t0 = Instant::now();
    let db = silkroute::tpch::generate(Scale::mb(mb)).map_err(|e| e.to_string())?;
    let generate_s = t0.elapsed().as_secs_f64();
    let engine = Arc::new(cli_server(Arc::new(db), host));
    let t1 = Instant::now();
    let mut catalog = ViewCatalog::new();
    catalog.insert("query1", silkroute::query1_tree(engine.database()));
    catalog.insert("query2", silkroute::query2_tree(engine.database()));
    let build_ms = t1.elapsed().as_secs_f64() * 1e3;
    let handle = sr_serve::serve(Arc::clone(&engine), catalog, ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let addr = handle.local_addr();
    let warmed = (|| {
        let mut sock = loadgen::connect(addr)?;
        for path in WARMUP.iter().chain(WARMUP.iter()) {
            let s = loadgen::timed_request(&mut sock, 0, &xpath_request(path))?;
            if s.outcome != Outcome::Ok {
                return Err(format!("warm-up {path}: {:?}", s.outcome));
            }
        }
        warm(addr)
    })();
    if let Err(e) = warmed {
        handle.shutdown();
        return Err(e);
    }
    Ok(Listener {
        engine,
        handle,
        addr,
        setup_s: t0.elapsed().as_secs_f64(),
        generate_s,
        build_ms,
    })
}

/// Start `n` listeners one after another, keeping the last; returns it
/// with the median set-up, generation and view-build times.
pub fn start_median(
    n: usize,
    mb: f64,
    host: &Host,
    warm: impl Fn(SocketAddr) -> Result<(), String>,
) -> Result<(Listener, f64, f64, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut last: Option<Listener> = None;
    for _ in 0..n {
        if let Some(l) = last.take() {
            l.handle.shutdown();
        }
        let l = start(mb, host, &warm)?;
        times.push((l.setup_s, l.generate_s, l.build_ms));
        last = Some(l);
    }
    let col = |f: fn(&(f64, f64, f64)) -> f64| median(&times.iter().map(f).collect::<Vec<_>>());
    Ok((
        last.expect("at least one set-up"),
        col(|t| t.0),
        col(|t| t.1),
        col(|t| t.2),
    ))
}

/// Reference digests of XPath results: `silkroute::query_view` on an
/// engine of its own, under the unified plan.
pub struct References {
    server: Server,
    tree: ViewTree,
    digests: HashMap<u32, Result<Digest, String>>,
}

impl References {
    pub fn new(db: &Arc<Database>) -> References {
        let server = Server::new(Arc::clone(db));
        let tree = silkroute::query1_tree(server.database());
        References {
            server,
            tree,
            digests: HashMap::new(),
        }
    }

    fn digest(&mut self, id: u32, path: &str) -> &Result<Digest, String> {
        let (server, tree) = (&self.server, &self.tree);
        self.digests.entry(id).or_insert_with(|| {
            silkroute::query_view(tree, server, path, PlanSpec::unified, HashSink::default())
                .map(|(_, sink)| sink.digest())
                .map_err(|e| e.to_string())
        })
    }

    /// Count the samples that failed, got BUSY, or differ from their
    /// reference.
    pub fn failures<'s>(
        &mut self,
        paths: &[String],
        samples: impl IntoIterator<Item = &'s Sample>,
    ) -> u64 {
        let mut failed = 0;
        for s in samples {
            let ok = s.outcome == Outcome::Ok
                && matches!(self.digest(s.path, &paths[s.path as usize]), Ok(d) if *d == s.digest);
            if !ok {
                if failed < 5 {
                    eprintln!("lookup: {:?} for {}", s.outcome, paths[s.path as usize]);
                }
                failed += 1;
            }
        }
        failed
    }
}

/// The serve-layer numbers of the served copies plus the engine registry's
/// admission wait and BUSY count. `unserved_ms[i]` is the composing and
/// planning time of copy `i` measured in the replay: DONE's elapsed time
/// starts after planning, so the serve layer's own time per copy is the
/// wire overhead less that.
pub fn serve_layer(
    engine: &Server,
    copies: &[Sample],
    unserved_ms: &[f64],
    busy0: u64,
) -> ServeLayer {
    let snap = engine.metrics().snapshot();
    let own: Vec<f64> = copies
        .iter()
        .zip(unserved_ms)
        .map(|(s, u)| (s.client_ms - s.server_ms - u).max(0.0))
        .collect();
    ServeLayer {
        ttfb_ms: mean(&copies.iter().map(|s| s.ttfb_ms).collect::<Vec<_>>()),
        wire_overhead_ms: mean(
            &copies
                .iter()
                .map(|s| (s.client_ms - s.server_ms).max(0.0))
                .collect::<Vec<_>>(),
        ),
        queue_wait_ms: snap
            .histogram("serve.queue_wait_ms")
            .map(|h| h.mean())
            .unwrap_or(0.0),
        busy: (snap.counter("serve.rejected") - busy0) as f64,
        own_ms: mean(&own),
        per_unit_ms: 0.0,
    }
}

/// One traced XPath request: composition, then the pruned document
/// replayed layer by layer, planned by a re-coster as the server plans it.
/// Returns the result digest and the milliseconds spent composing and
/// planning, which the served copy's DONE time leaves out.
pub fn replay_request(
    tracer: &Tracer,
    server: &Server,
    recoster: &Recoster,
    tree: &ViewTree,
    path: &str,
    counts: &mut Counts,
    pruned: &mut u64,
) -> Result<(Digest, f64), String> {
    let t0 = Instant::now();
    let composed = {
        let _s = tracer.span("sr-xpath");
        let parsed = silkroute::xpath::parse(path).map_err(|e| e.to_string())?;
        silkroute::xpath::compose(tree, &parsed).map_err(|e| format!("{path}: {e}"))?
    };
    *pruned += composed.pruned_nodes as u64;
    let mut unserved = t0.elapsed();
    let key = format!("{LOOKUP_VIEW}#xpath:{path}");
    let mut plan_time = std::time::Duration::ZERO;
    let (sink, fed_back) = replay::document(
        tracer,
        server,
        &composed.tree,
        |t| {
            let t1 = Instant::now();
            let spec = recoster.plan(&key, t, server).map_err(|e| e.to_string());
            plan_time = t1.elapsed();
            spec
        },
        counts,
        HashSink::default(),
    )?;
    unserved += plan_time;
    let _s = tracer.span("sr-plan");
    for (sql, rows) in fed_back {
        recoster.observe(&key, &sql, rows);
    }
    Ok((sink.digest(), unserved.as_secs_f64() * 1e3))
}

/// The engine's (plan-cache hits, queries) counters.
pub fn plan_cache_counts(server: &Server) -> (u64, u64) {
    let m = server.metrics();
    (
        m.counter("server.plan_cache_hits").get(),
        m.counter("server.queries").get(),
    )
}

/// Plan-cache hits per query between two [`plan_cache_counts`] readings.
pub fn plan_cache_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

pub fn run(args: &Args, host: &Host) -> Result<Report, String> {
    let (l, setup_s, generate_s, build_ms) = start_median(SETUPS, MB, host, |_| Ok(()))?;
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
    let gen = PathGen::new(&db, args.seed)?;
    let mut refs = References::new(&db);
    let mut report = Report::default();
    let admit = l.handle.admission().config();
    report.note(format!(
        "lookup: {MB} MB, XPath over {LOOKUP_VIEW}, greedy plan, executor {}, shards {} (nproc {}), admission slots {} per-client {} queue {}, fragment cache off",
        l.engine.exec_mode(),
        l.engine.shards(),
        host.nproc,
        admit.slots,
        admit.per_client,
        admit.queue_depth
    ));
    let loop_secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let gen = Mutex::new(gen);
    let cache0 = plan_cache_counts(&l.engine);
    let busy0 = l.engine.metrics().counter("serve.rejected").get();
    let heap = if args.trace {
        None
    } else {
        Some(HeapSampler::start())
    };
    let t0 = Instant::now();
    let cl = loadgen::closed_loop(
        l.addr,
        host.nproc,
        &gen,
        t0 + Duration::from_secs_f64(loop_secs),
    )?;
    let elapsed = t0.elapsed().as_secs_f64();
    report.attempted += cl.len() as u64;
    let req_ms: Vec<f64> = cl.iter().map(|s| s.client_ms).collect();

    if let Some(heap) = heap {
        let (peak, _) = heap.finish()?;
        let gen = gen.into_inner().expect("path generator lock");
        report.failed += refs.failures(&gen.paths, &cl);
        let (p99, label) = tail(&req_ms);
        report.note(format!(
            "{} connection(s): {} requests in {elapsed:.2} s, server time mean {:.3} ms; req_ms_p99 is the {label}",
            host.nproc,
            cl.len(),
            mean(&cl.iter().map(|s| s.server_ms).collect::<Vec<_>>()),
        ));
        report.note(gen.summary());
        report.metric("setup_s", setup_s, "s");
        report.metric("export_s_p50", median(&req_ms) / 1e3, "s");
        report.metric(
            "xml_mb_s",
            cl.iter().map(|s| s.digest.len).sum::<u64>() as f64 / 1e6 / elapsed,
            "MB/s",
        );
        report.metric("req_ms_p50", median(&req_ms), "ms");
        report.metric("req_ms_p99", p99, "ms");
        report.metric("sat_qps", cl.len() as f64 / elapsed, "req/s");
        report.metric("peak_heap_mb", peak, "MB");
        return Ok(report);
    }

    let cache1 = plan_cache_counts(&l.engine);
    let server = cli_server(Arc::clone(&db), host);
    let recoster = Recoster::new(RecostConfig::default());
    let tree = silkroute::query1_tree(&db);
    let mut gen = gen.into_inner().expect("path generator lock");
    let mut sock = loadgen::connect(l.addr)?;
    let tracer = Tracer::new();
    let lane = tracer.name_current_thread("replay");
    let (mut counts, mut pruned) = (Counts::default(), 0u64);
    let (mut replayed, mut copies, mut unserved) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while replayed.is_empty() || t0.elapsed().as_secs_f64() < args.seconds / 2.0 {
        let (id, path) = gen.next();
        let (digest, unserved_ms) = {
            let _root = tracer.span("request");
            replay_request(
                &tracer,
                &server,
                &recoster,
                &tree,
                &path,
                &mut counts,
                &mut pruned,
            )?
        };
        unserved.push(unserved_ms);
        replayed.push(Sample::local(id, digest));
        copies.push(loadgen::timed_request(
            &mut sock,
            id,
            &xpath_request(&path),
        )?);
    }
    drop(sock);
    report.attempted += (replayed.len() + copies.len()) as u64;
    report.failed += refs.failures(
        &gen.paths,
        cl.iter().chain(&replayed).chain(&copies),
    );
    let tally = layers::tally(&tracer, lane)?;
    let mut serve = serve_layer(&l.engine, &copies, &unserved, busy0);
    serve.per_unit_ms = serve.own_ms + serve.queue_wait_ms;
    report.note(gen.summary());
    report.note(format!(
        "chrome trace: {}",
        layers::write_chrome_trace(&tracer, &args.workload, args.seed)?
    ));
    layers::emit(
        &mut report,
        LayerInputs {
            unit: "request",
            tally: &tally,
            counts: &counts,
            xpath_requests: replayed.len() as u64,
            pruned_nodes: pruned,
            serve,
            plan_cache_hit_ratio: plan_cache_ratio(cache0, cache1),
            untraced_median_ms: median(&req_ms),
            generate_s,
            build_ms,
        },
    );
    Ok(report)
}
