//! Sample statistics, output checks and heap readings.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile `q` (0 to 1) by nearest rank; 0 for no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    sorted(samples)[rank_index(samples.len(), q) - 1]
}

/// Median by nearest rank; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The tail: p99 when at least ten samples lie beyond it, else p95 when
/// ten lie beyond that, else the maximum. Returns the value and a label
/// naming what it is.
///
/// Runs too short for a p99 fall back to p95 rather than to the highest
/// percentile that has ten samples beyond it: with a few hundred samples
/// that percentile rests on the ten slowest requests, and one second-long
/// stall of the host (another tenant's burst) doubles it, while p95 moves
/// by a fifth.
pub fn tail(samples: &[f64]) -> (f64, String) {
    let s = sorted(samples);
    let n = s.len();
    for pct in [99, 95] {
        let r = rank_index(n, pct as f64 / 100.0);
        if n >= r + 10 {
            return (s[r - 1], format!("p{pct} of {n}"));
        }
    }
    match s.last() {
        Some(&max) => (max, format!("max of {n}")),
        None => (0.0, "none".into()),
    }
}

fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// 64-bit FNV-1a, used to compare small responses with their references
/// without keeping every response in memory.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Hash and length of a document, the unit of output checking for
/// XPath responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Digest {
    pub hash: u64,
    pub len: u64,
}

pub fn digest(bytes: &[u8]) -> Digest {
    let mut h = Fnv::default();
    h.update(bytes);
    Digest {
        hash: h.finish(),
        len: bytes.len() as u64,
    }
}

/// A sink that hashes what it is given.
#[derive(Default)]
pub struct HashSink {
    hash: Fnv,
    len: u64,
}

impl HashSink {
    pub fn digest(&self) -> Digest {
        Digest {
            hash: self.hash.finish(),
            len: self.len,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.hash.update(buf);
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A sink that counts bytes and compares them, as they arrive, with a
/// reference document.
pub struct CheckSink<'a> {
    reference: &'a [u8],
    pos: usize,
    mismatch: bool,
}

impl<'a> CheckSink<'a> {
    pub fn new(reference: &'a [u8]) -> Self {
        CheckSink {
            reference,
            pos: 0,
            mismatch: false,
        }
    }

    /// Bytes written so far.
    pub fn bytes(&self) -> u64 {
        self.pos as u64
    }

    /// Whether everything written equals the whole reference.
    pub fn matches(&self) -> bool {
        !self.mismatch && self.pos == self.reference.len()
    }
}

impl Write for CheckSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let end = self.pos + buf.len();
        if !self.mismatch && (end > self.reference.len() || self.reference[self.pos..end] != *buf) {
            self.mismatch = true;
        }
        self.pos = end;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the process has allocated and not freed, over every malloc arena
/// plus mmapped chunks.
fn heap_in_use() -> usize {
    // SAFETY: mallinfo2 takes no arguments, returns its struct by value
    // and only reads the allocator's bookkeeping under its locks.
    let m = unsafe { mallinfo2() };
    m.uordblks + m.hblkhd
}

/// Peak live heap over a timed phase, read from glibc's `mallinfo2` so
/// nothing in the measured code has to be instrumented. A sampler thread
/// reads it every few milliseconds and keeps each second's peak; the
/// reported figure is the median of those per-second peaks above the live
/// heap at the phase's start, which one late burst cannot swing. A last
/// window shorter than half a second is left out.
///
/// Resident memory (`VmHWM`) is not used: the engine starts a thread per
/// query and shard, glibc hands each new thread an arena, and how much
/// freed memory the arenas keep differs from run to run, so the same code
/// showed peak RSS growth from 45 to 66 MB in consecutive `mixed` runs.
pub struct HeapSampler {
    start: usize,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<usize>>,
}

impl HeapSampler {
    pub fn start() -> HeapSampler {
        let start = heap_in_use();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peaks = Vec::new();
            let (mut window, mut peak) = (Instant::now(), 0);
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5));
                peak = peak.max(heap_in_use());
                if window.elapsed() >= Duration::from_secs(1) {
                    peaks.push(peak);
                    (window, peak) = (Instant::now(), 0);
                }
            }
            if peaks.is_empty() || window.elapsed() >= Duration::from_millis(500) {
                peaks.push(peak.max(heap_in_use()));
            }
            peaks
        });
        HeapSampler {
            start,
            stop,
            thread,
        }
    }

    /// Stop sampling; returns the median per-second peak above the live
    /// heap at the start, and the live heap at the start, both in MB.
    pub fn finish(self) -> Result<(f64, f64), String> {
        const MB: f64 = 1024.0 * 1024.0;
        self.stop.store(true, Ordering::Relaxed);
        let peaks = self
            .thread
            .join()
            .map_err(|_| "heap sampler panicked".to_string())?;
        let growth: Vec<f64> = peaks
            .iter()
            .map(|&b| (b as f64 - self.start as f64) / MB)
            .collect();
        Ok((median(&growth), self.start as f64 / MB))
    }
}
