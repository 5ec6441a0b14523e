//! The repository's benchmark: the `publish`, `lookup` and `mixed`
//! workloads, timed end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload publish --seed 1 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it are
//! the same numbers for a human, plus the run's configuration and notes.
//! See `perfbench/README.md` for what each workload and metric means.

mod alloc;
mod layers;
mod loadgen;
mod lookup;
mod measure;
mod mixed;
mod paths;
mod publish;
mod replay;

use std::process::ExitCode;
use std::sync::Arc;

use silkroute::engine::Server;
use silkroute::plan::{gen_plan, Oracle};
use silkroute::sqlgen::{PlanSpec, QueryStyle};
use silkroute::tpch::Scale;
use silkroute::viewtree::ViewTree;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload publish|lookup|mixed is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    /// Documents or requests attempted, self-check included.
    pub attempted: u64,
    /// Those that failed, got BUSY, or returned wrong bytes.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Lines printed for a human ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// The host the CLI's defaults resolve against.
pub struct Host {
    /// Available parallelism: the shard count `--shards auto` picks and
    /// the closed loop's connection count.
    pub nproc: usize,
}

impl Host {
    fn detect() -> Host {
        Host {
            nproc: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// The engine as `silkroute materialize` / `serve` build it with no
/// options: default executor, `--shards auto`, no fragment cache.
pub fn cli_server(db: Arc<silkroute::data::Database>, host: &Host) -> Server {
    Server::new(db).with_shards(host.nproc)
}

/// `--plan greedy` as the CLI resolves it: `genPlan` with the calibrated
/// cost parameters, reduction on, outer-join SQL.
pub fn cli_greedy(tree: &ViewTree, server: &Server, mb: f64) -> Result<PlanSpec, String> {
    let oracle = Oracle::new(server, silkroute::calibrated_params(Scale::mb(mb)));
    let g = gen_plan(tree, server.database(), &oracle, true).map_err(|e| e.to_string())?;
    Ok(PlanSpec {
        edges: g.recommended(),
        reduce: true,
        style: QueryStyle::OuterJoin,
    })
}

/// Self-check at 0.1 MB with the default data seed: both paper views under
/// the CLI's default plan must equal the checked-in golden documents.
/// Returns (attempted, failed).
fn golden_check(host: &Host) -> Result<(u64, u64), String> {
    let mb = 0.1;
    let db = silkroute::tpch::generate(Scale::mb(mb)).map_err(|e| e.to_string())?;
    let server = cli_server(Arc::new(db), host);
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/golden");
    let mut failed = 0;
    for (name, tree) in [
        ("query1", silkroute::query1_tree(server.database())),
        ("query2", silkroute::query2_tree(server.database())),
    ] {
        let golden = std::fs::read(dir.join(format!("{name}.xml")))
            .map_err(|e| format!("read golden {name}: {e}"))?;
        let spec = cli_greedy(&tree, &server, mb)?;
        let sink = measure::CheckSink::new(&golden);
        let (_, sink) =
            silkroute::materialize(&tree, &server, spec, sink).map_err(|e| e.to_string())?;
        if !sink.matches() {
            eprintln!("self-check: {name} at {mb} MB differs from tests/golden/{name}.xml");
            failed += 1;
        }
    }
    Ok((2, failed))
}

fn run(args: &Args) -> Result<Report, String> {
    let host = Host::detect();
    let (checked, check_failed) = golden_check(&host)?;
    if args.trace {
        alloc::enable();
    }
    let mut report = match args.workload.as_str() {
        "publish" => publish::run(args, &host)?,
        "lookup" => lookup::run(args, &host)?,
        "mixed" => mixed::run(args, &host)?,
        other => return Err(format!("unknown workload {other} (publish|lookup|mixed)")),
    };
    report.attempted += checked;
    report.failed += check_failed;
    Ok(report)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload publish|lookup|mixed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "fail_ratio {fail_ratio} ({} of {} attempted)",
        report.failed, report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
