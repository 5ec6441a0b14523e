//! Load generation against an `sr_serve` listener: closed loops, each
//! caller sending its next request when the previous one is answered.
//!
//! There is no open loop (requests sent at fixed due times): at low
//! utilisation each request wakes idle CPUs, and on a shared 2-vCPU host
//! its median latency spread by more than half between runs of the same
//! code. Closed loops keep the CPUs busy, and their latency medians spread
//! no more than the throughput figures do.

use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sr_serve::{read_response, Format, Request, Response, ViewRef};

use crate::measure::{Digest, Fnv};
use crate::paths::PathGen;

/// The view every XPath request runs against.
pub const LOOKUP_VIEW: &str = "query1";
/// The CLI client's default plan spec.
pub const PLAN: &str = "greedy";

/// How a request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Ok,
    Busy,
    Failed(String),
}

/// One completed request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Path id from the generator.
    pub path: u32,
    /// First response frame minus send time.
    pub ttfb_ms: f64,
    /// Completion minus send time.
    pub client_ms: f64,
    /// The server's own elapsed time from DONE.
    pub server_ms: f64,
    pub digest: Digest,
    pub outcome: Outcome,
}

impl Sample {
    /// A document produced in process rather than served: only its path
    /// and digest are known.
    pub fn local(path: u32, digest: Digest) -> Sample {
        Sample {
            path,
            ttfb_ms: 0.0,
            client_ms: 0.0,
            server_ms: 0.0,
            digest,
            outcome: Outcome::Ok,
        }
    }
}

/// An XPath request over the lookup view, as `silkroute client --xpath`
/// sends it.
pub fn xpath_request(path: &str) -> Request {
    Request::Query {
        format: Format::Xml,
        view: ViewRef::Named(LOOKUP_VIEW.into()),
        plan: PLAN.into(),
        xpath: Some(path.into()),
    }
}

/// A whole named view, as `silkroute client VIEW` requests it.
pub fn view_request(view: &str) -> Request {
    Request::Query {
        format: Format::Xml,
        view: ViewRef::Named(view.into()),
        plan: PLAN.into(),
        xpath: None,
    }
}

struct Reply {
    first: Instant,
    done: Instant,
    digest: Digest,
    server_ms: f64,
    outcome: Outcome,
}

/// Read one whole response off a connection.
fn read_reply(sock: &mut TcpStream) -> Result<Reply, String> {
    let mut first = None;
    let mut hash = Fnv::default();
    let mut len = 0u64;
    loop {
        let frame = read_response(sock).map_err(|e| format!("read: {e}"))?;
        let now = Instant::now();
        first.get_or_insert(now);
        let (outcome, server_ms) = match frame {
            Some(Response::Chunk { data, .. }) => {
                hash.update(&data);
                len += data.len() as u64;
                continue;
            }
            Some(Response::Done(stats)) => (Outcome::Ok, stats.elapsed_us as f64 / 1e3),
            Some(Response::Busy { .. }) => (Outcome::Busy, 0.0),
            Some(Response::Error { code, message }) => {
                (Outcome::Failed(format!("[{code}] {message}")), 0.0)
            }
            other => return Err(format!("unexpected frame {other:?}")),
        };
        return Ok(Reply {
            first: first.unwrap_or(now),
            done: now,
            digest: Digest {
                hash: hash.finish(),
                len,
            },
            server_ms,
            outcome,
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Send one request and wait for its whole reply.
pub fn timed_request(sock: &mut TcpStream, id: u32, req: &Request) -> Result<Sample, String> {
    use std::io::Write;
    let sent = Instant::now();
    sock.write_all(&req.encode())
        .map_err(|e| format!("write: {e}"))?;
    let r = read_reply(sock)?;
    Ok(Sample {
        path: id,
        ttfb_ms: ms(r.first - sent),
        client_ms: ms(r.done - sent),
        server_ms: r.server_ms,
        digest: r.digest,
        outcome: r.outcome,
    })
}

/// Connect the way `sr_serve::Client` does, with a bounded read wait.
pub fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let sock = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = sock.set_nodelay(true);
    sock.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(sock)
}

/// `conns` callers, each sending its next request when the previous one
/// is answered, until `deadline`. Paths come from one shared generator.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    gen: &Mutex<PathGen>,
    deadline: Instant,
) -> Result<Vec<Sample>, String> {
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut sock = connect(addr)?;
                    let mut out = Vec::new();
                    while Instant::now() < deadline {
                        let (id, path) = gen.lock().expect("path generator lock").next();
                        out.push(timed_request(&mut sock, id, &xpath_request(&path))?);
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().map_err(|_| "closed-loop caller panicked")??);
        }
        Ok(all)
    })
}
