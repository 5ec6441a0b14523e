//! The seeded XPath request generator of the `lookup` and `mixed`
//! workloads.
//!
//! Literal pools are read from the generated tables, never from program
//! output: part names, supplier names and order keys. Each draw picks a
//! path form, then a literal by a Zipf(1) rank over a fixed shuffle of its
//! pool. The seed decides the sequence of draws, not which literals are
//! hot, so the share of draws that repeat an earlier path and the size of
//! the responses vary little from seed to seed. That share decides how
//! often the served re-coster and the engine's plan cache can skip work.

use std::collections::HashMap;

use silkroute::data::{Database, Value};

/// SplitMix64: small, seedable and good enough for workload draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Orders per `orderkey` range request.
const ORDER_SPAN: usize = 4;

/// Seeds the pool shuffles: the same literals are hot at every seed.
const POOL_ORDER_SEED: u64 = 0x7061_7468_7367_656e;

/// A literal pool with a Zipf(1) rank distribution over a shuffled order.
struct Pool {
    items: Vec<String>,
    cdf: Vec<f64>,
}

impl Pool {
    fn new(mut items: Vec<String>, rng: &mut Rng) -> Pool {
        rng.shuffle(&mut items);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..items.len())
            .map(|r| {
                acc += 1.0 / (r + 1) as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Pool { items, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> &str {
        let u = rng.unit();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.items.len() - 1);
        &self.items[i]
    }
}

fn column(db: &Database, table: &str, col: &str) -> Result<Vec<Value>, String> {
    let t = db.table(table).map_err(|e| e.to_string())?;
    let pos = t
        .schema()
        .position(col)
        .ok_or_else(|| format!("{table} has no column {col}"))?;
    Ok(t.rows().iter().map(|r| r.get(pos).clone()).collect())
}

fn strings(db: &Database, table: &str, col: &str) -> Result<Vec<String>, String> {
    let mut v: Vec<String> = column(db, table, col)?
        .into_iter()
        .filter_map(|v| match v {
            Value::Str(s) => Some(s.to_string()),
            _ => None,
        })
        .collect();
    v.sort();
    v.dedup();
    Ok(v)
}

/// Draws request paths; every distinct path gets a dense id.
pub struct PathGen {
    rng: Rng,
    parts: Pool,
    suppliers: Pool,
    order_ranges: Pool,
    ids: HashMap<String, u32>,
    /// Distinct paths, indexed by id.
    pub paths: Vec<String>,
    /// Draws made so far.
    pub draws: u64,
}

impl PathGen {
    pub fn new(db: &Database, seed: u64) -> Result<PathGen, String> {
        let mut order = Rng::new(POOL_ORDER_SEED);
        let mut keys: Vec<i64> = column(db, "Orders", "orderkey")?
            .into_iter()
            .filter_map(|v| match v {
                Value::Int(k) => Some(k),
                _ => None,
            })
            .collect();
        keys.sort_unstable();
        if keys.len() <= ORDER_SPAN {
            return Err("too few orders for range requests".into());
        }
        let ranges = keys
            .windows(ORDER_SPAN + 1)
            .step_by(ORDER_SPAN)
            .map(|w| {
                format!(
                    "//order[orderkey >= {}][orderkey < {}]",
                    w[0], w[ORDER_SPAN]
                )
            })
            .collect();
        let parts = strings(db, "Part", "name")?
            .into_iter()
            .map(|n| format!("/supplier/part[name = \"{n}\"]/order"))
            .collect();
        let suppliers = strings(db, "Supplier", "name")?
            .into_iter()
            .map(|n| format!("/supplier[name = \"{n}\"]/part/name"))
            .collect();
        Ok(PathGen {
            parts: Pool::new(parts, &mut order),
            suppliers: Pool::new(suppliers, &mut order),
            order_ranges: Pool::new(ranges, &mut order),
            rng: Rng::new(seed),
            ids: HashMap::new(),
            paths: Vec::new(),
            draws: 0,
        })
    }

    /// The next request: half name lookups of one part's orders, a fifth
    /// one supplier's part names, the rest short order-key ranges.
    pub fn next(&mut self) -> (u32, String) {
        let u = self.rng.unit();
        let pool = if u < 0.5 {
            &self.parts
        } else if u < 0.7 {
            &self.suppliers
        } else {
            &self.order_ranges
        };
        let path = pool.draw(&mut self.rng).to_string();
        self.draws += 1;
        let next_id = self.paths.len() as u32;
        let id = *self.ids.entry(path.clone()).or_insert(next_id);
        if id == next_id {
            self.paths.push(path.clone());
        }
        (id, path)
    }

    /// Share of draws that repeated an earlier path.
    pub fn repeat_share(&self) -> f64 {
        if self.draws == 0 {
            return 0.0;
        }
        1.0 - self.paths.len() as f64 / self.draws as f64
    }

    /// The path-mix line every lookup-serving run prints: a claim that
    /// rests on skipping repeated work must cite these.
    pub fn summary(&self) -> String {
        format!(
            "path mix: {} drawn, lookup.distinct_paths {}, lookup.repeat_share {:.4}",
            self.draws,
            self.paths.len(),
            self.repeat_share()
        )
    }
}
