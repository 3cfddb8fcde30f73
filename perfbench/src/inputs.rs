//! Workload inputs, generated from the run's seed: the rows to load, the
//! operation stream to serve, and what each answer is checked against.
//!
//! The service under test receives only these generated rows and SQL
//! strings, never the seed.

use std::collections::HashMap;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use trapp_storage::Table;
use trapp_types::{shard_of, BoundedValue, ObjectId, SourceId, Value};
use trapp_workload::loadgen::{self, LoadConfig, ServiceWorkload};
use trapp_workload::tpch::{self, TpchClass, TpchConfig, TpchQuery};

/// Cache shards every workload is served over.
pub const SHARDS: usize = 2;
/// Query worker threads of the service.
pub const WORKERS: usize = 2;
/// Simulated one-way wire time per source round-trip.
pub const RTT: Duration = Duration::from_micros(200);
/// Writes per `apply_update_batch` call.
pub const UPDATE_BATCH: usize = 8;

/// TPC-H suite size: total rows over the three tables.
const TPCH_ROWS: usize = 100_000;
/// The TPC-H suite is fixed, as TPC-H's database at a scale factor is:
/// rows and queries come from this generator seed and are served in a
/// fixed order, as in TPC-H's power test. The run's seed draws the writes.
const TPCH_SUITE_SEED: u64 = 7;
/// Update batches applied before each TPC-H query, with no query in
/// flight: pairs that move 8 objects' masters by up to ±5% and then
/// restore them, so the query still sees the suite's masters while the
/// writes cross bounds and trigger value-initiated refreshes.
const TPCH_UPDATES_PER_QUERY: usize = 14;
/// Suite queries per class (the first ones the generator emits).
const TPCH_PER_CLASS: usize = 4;

/// `loadgen` table shape shared by `zipf_serve` and `churn_open`.
const GROUPS: usize = 512;
const ROWS_PER_GROUP: usize = 16;
const SOURCES: usize = 64;
/// Clock step of the loadgen workloads: every bound re-widens enough
/// that tight constraints must refresh again.
const LOADGEN_DT: f64 = 25.0;

/// `zipf_serve`: queries generated (the stream cycles over them): 32
/// clock epochs, so a run's epochs are mostly distinct.
const ZIPF_POOL: usize = 131_072;
/// `zipf_serve`: queries between clock advances.
const ZIPF_ADVANCE_EVERY: usize = 4_096;
/// `zipf_serve`: write/restore pairs of update batches, applied one at a
/// time in ten equal parts, each after a tenth of the read phase with no
/// query in flight (between the two clients' queries they would wait on
/// whichever shard lock the other client holds). A batch of 8 writes
/// takes ~40 µs, mostly thread hand-offs whose cost moved 25% with the
/// host between runs; batches of 64 do enough work to measure.
const ZIPF_WRITE_PROBE: usize = 10_000;
const ZIPF_WRITE_BATCH: usize = 64;

/// `churn_open`: query arrival rate, about a third of `zipf_serve`'s
/// closed-loop throughput (~7,800 qps on a 2-vCPU host), which leaves the
/// queue room to drain: at 3,500/s it stayed backed up for a third of
/// each clock epoch.
const CHURN_QUERY_RATE: f64 = 2_500.0;
/// `churn_open` issues no global queries. After each clock advance the
/// first global query refreshes all 8,192 rows and stalls both shards for
/// ~150 ms; open-loop arrivals queue behind the stall, and its length
/// follows the host's spare capacity, which moved the tail latencies
/// 2–3× between runs. `zipf_serve` and `tpch_100k` keep scatter-gather.
const CHURN_GLOBAL_FRACTION: f64 = 0.0;
/// `churn_open`: update batches per second.
const CHURN_UPDATE_RATE: f64 = 200.0;
/// `churn_open`: wall time between clock advances.
const CHURN_ADVANCE_PERIOD: Duration = Duration::from_millis(1_000);

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Tpch100k,
    ZipfServe,
    ChurnOpen,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Tpch100k, Kind::ZipfServe, Kind::ChurnOpen];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Tpch100k => "tpch_100k",
            Kind::ZipfServe => "zipf_serve",
            Kind::ChurnOpen => "churn_open",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client threads; `None` for the open-loop workload.
    pub fn clients(self) -> Option<usize> {
        match self {
            Kind::Tpch100k => Some(1),
            Kind::ZipfServe => Some(2),
            Kind::ChurnOpen => None,
        }
    }
}

/// One operation of the served stream.
#[derive(Clone, Debug)]
pub enum Op {
    /// `advance_clock(dt)`: every bound widens.
    Advance(f64),
    /// Serve query `queries[i]`.
    Query(usize),
    /// One `apply_update_batch` call.
    Update(Vec<(ObjectId, f64)>),
}

/// How a query's answer is checked.
#[derive(Clone, Copy, Debug)]
pub enum Check {
    /// `tpch_queries[i]`, through `tpch::scalar_violation` /
    /// `tpch::group_violations`.
    Tpch(usize),
    /// `loadgen.queries[i]`, through `loadgen::ground_truth_bounds` over
    /// the master-value envelope of the query's lifetime.
    Loadgen(usize),
}

/// One served query.
#[derive(Clone, Debug)]
pub struct Query {
    pub sql: String,
    /// Profile class: the TPC-H class, or `agg.scope` for loadgen.
    pub class: &'static str,
    /// The group the query pins, when the service routes it to one shard.
    pub pinned: Option<i64>,
    pub check: Check,
}

/// Everything one run serves, generated from its seed.
pub struct Inputs {
    pub kind: Kind,
    /// Empty table templates, in load order.
    pub tables: Vec<Table>,
    /// `(table, source, cells)` in load order.
    pub rows: Vec<(&'static str, SourceId, Vec<BoundedValue>)>,
    pub partition_by: &'static str,
    pub queries: Vec<Query>,
    /// The stream. Closed-loop workloads cycle over it; the open-loop one
    /// issues `ops[i]` at `due[i]` after the start.
    pub ops: Vec<Op>,
    pub due: Vec<Duration>,
    /// `(queries, update batches)` in one period of a cyclic stream: the
    /// windows its percentiles are taken over, so that every window
    /// serves the same queries.
    pub period: Option<(usize, usize)>,
    /// `zipf_serve`'s write probe: write/restore pairs applied between
    /// parts of its read phase (the other streams carry their writes).
    pub writes: Vec<Vec<(ObjectId, f64)>>,
    /// Initial master value of object `k + 1`.
    pub masters: Vec<f64>,
    pub tpch_queries: Vec<TpchQuery>,
    pub loadgen: Option<ServiceWorkload>,
    /// `tpch::fingerprint`, or the FNV-1a hash of the loadgen rows and
    /// queries.
    pub fingerprint: u64,
    /// FNV-1a hash of the operation stream (query order, update values).
    pub ops_hash: u64,
}

impl Inputs {
    pub fn generate(kind: Kind, seed: u64, seconds: u64) -> Inputs {
        match kind {
            Kind::Tpch100k => tpch_inputs(seed),
            Kind::ZipfServe => zipf_inputs(seed),
            Kind::ChurnOpen => churn_inputs(seed, seconds),
        }
    }

    /// `(shard, local tid − 1) → global tid` per table, replaying the
    /// service builder's placement: rows land by the hash of their
    /// partition cell when the table has that column, else by the hash
    /// of their global tuple id; ids count up per table in load order.
    pub fn placement(&self) -> HashMap<(String, usize), Vec<u64>> {
        let mut next_global: HashMap<&str, u64> = HashMap::new();
        let mut map: HashMap<(String, usize), Vec<u64>> = HashMap::new();
        for (table, _, cells) in &self.rows {
            let global = next_global.entry(table).or_insert(0);
            *global += 1;
            let template = self
                .tables
                .iter()
                .find(|t| t.name() == *table)
                .expect("every row's table is loaded");
            let pinned = template
                .schema()
                .column_index(self.partition_by)
                .ok()
                .and_then(|i| match cells.get(i) {
                    Some(BoundedValue::Exact(Value::Int(g))) => Some(*g as u64),
                    _ => None,
                });
            let shard = shard_of(pinned.unwrap_or(*global), SHARDS);
            map.entry((table.to_string(), shard))
                .or_default()
                .push(*global);
        }
        map
    }
}

/// FNV-1a, the hash `tpch::fingerprint` uses.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Hashes the operation stream, then the write probe.
    fn eat_ops(mut self, ops: &[Op], writes: &[Vec<(ObjectId, f64)>]) -> u64 {
        for op in ops {
            match op {
                Op::Advance(dt) => {
                    self.eat(b"a");
                    self.eat(&dt.to_bits().to_le_bytes());
                }
                Op::Query(i) => {
                    self.eat(b"q");
                    self.eat(&(*i as u64).to_le_bytes());
                }
                Op::Update(batch) => self.eat_batch(batch),
            }
        }
        for batch in writes {
            self.eat_batch(batch);
        }
        self.0
    }

    fn eat_batch(&mut self, batch: &[(ObjectId, f64)]) {
        self.eat(b"u");
        for (object, value) in batch {
            self.eat(&object.raw().to_le_bytes());
            self.eat(&value.to_bits().to_le_bytes());
        }
    }
}

/// Initial master value of every bounded cell, in object-id order (the
/// builder numbers objects across all rows in load order).
fn masters_of(tables: &[Table], rows: &[(&'static str, SourceId, Vec<BoundedValue>)]) -> Vec<f64> {
    let bounded: HashMap<&str, Vec<usize>> = tables
        .iter()
        .map(|t| (t.name(), t.schema().bounded_columns()))
        .collect();
    rows.iter()
        .flat_map(|(table, _, cells)| {
            bounded[table].iter().map(|&c| {
                cells[c]
                    .as_interval()
                    .expect("bounded cells are numeric")
                    .midpoint()
            })
        })
        .collect()
}

/// `n` batches of a seeded random walk over row masters: each write moves
/// one master by up to a tenth of `range`, clamped to it.
fn random_walk(
    rng: &mut StdRng,
    masters: &[f64],
    (lo, hi): (f64, f64),
    n: usize,
) -> Vec<Vec<(ObjectId, f64)>> {
    let step = (hi - lo) * 0.1;
    let mut current = masters.to_vec();
    (0..n)
        .map(|_| {
            (0..UPDATE_BATCH)
                .map(|_| {
                    let k = rng.gen_range(0..current.len());
                    current[k] = (current[k] + rng.gen_range(-step..=step)).clamp(lo, hi);
                    (ObjectId::new(k as u64 + 1), current[k])
                })
                .collect()
        })
        .collect()
}

/// A batch moving `batch` randomly chosen masters by up to ±5%, and the
/// batch restoring them.
fn write_restore_pair(
    rng: &mut StdRng,
    masters: &[f64],
    batch: usize,
) -> [Vec<(ObjectId, f64)>; 2] {
    let objects: Vec<usize> = (0..batch)
        .map(|_| rng.gen_range(0..masters.len()))
        .collect();
    let moved = objects
        .iter()
        .map(|&k| {
            let factor = 1.0 + rng.gen_range(-0.05..0.05);
            (ObjectId::new(k as u64 + 1), masters[k] * factor)
        })
        .collect();
    // Restored in reverse, so an object drawn twice ends at its master.
    let restored = objects
        .iter()
        .rev()
        .map(|&k| (ObjectId::new(k as u64 + 1), masters[k]))
        .collect();
    [moved, restored]
}

fn tpch_inputs(seed: u64) -> Inputs {
    let config = TpchConfig {
        seed: TPCH_SUITE_SEED,
        total_rows: TPCH_ROWS,
        // Enough draws that every class has TPCH_PER_CLASS queries.
        queries: 16 * TPCH_PER_CLASS,
        ..TpchConfig::default()
    };
    let mut w = tpch::generate(&config);
    let fingerprint = tpch::fingerprint(&w);
    let tables = vec![
        tpch::customer_table(),
        tpch::orders_table(),
        tpch::lineitem_table(),
    ];
    let mut rows = Vec::with_capacity(TPCH_ROWS);
    for (name, specs) in [
        ("customer", std::mem::take(&mut w.customer)),
        ("orders", std::mem::take(&mut w.orders)),
        ("lineitem", std::mem::take(&mut w.lineitem)),
    ] {
        rows.extend(specs.into_iter().map(|r| (name, r.source, r.cells)));
    }
    let masters = masters_of(&tables, &rows);

    // Class round-robin: the k-th query of each class in turn.
    let by_class: Vec<Vec<usize>> = TpchClass::ALL
        .iter()
        .map(|&c| {
            let picked: Vec<usize> = (0..w.queries.len())
                .filter(|&i| w.queries[i].class == c)
                .take(TPCH_PER_CLASS)
                .collect();
            assert_eq!(picked.len(), TPCH_PER_CLASS, "suite short of {c:?} queries");
            picked
        })
        .collect();
    let queries: Vec<Query> = (0..TPCH_PER_CLASS)
        .flat_map(|k| by_class.iter().map(move |ids| ids[k]))
        .map(|i| Query {
            sql: w.queries[i].sql.clone(),
            class: w.queries[i].class.label(),
            pinned: None,
            check: Check::Tpch(i),
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::new();
    for q in 0..queries.len() {
        ops.push(Op::Advance(1.0));
        for _ in 0..TPCH_UPDATES_PER_QUERY / 2 {
            let [moved, restored] = write_restore_pair(&mut rng, &masters, UPDATE_BATCH);
            ops.push(Op::Update(moved));
            ops.push(Op::Update(restored));
        }
        ops.push(Op::Query(q));
    }
    let ops_hash = Fnv::new().eat_ops(&ops, &[]);
    Inputs {
        kind: Kind::Tpch100k,
        tables,
        rows,
        partition_by: "custkey",
        period: Some((queries.len(), queries.len() * TPCH_UPDATES_PER_QUERY)),
        queries,
        ops,
        due: Vec::new(),
        writes: Vec::new(),
        masters,
        tpch_queries: w.queries,
        loadgen: None,
        fingerprint,
        ops_hash,
    }
}

fn loadgen_workload(seed: u64, queries: usize, global_fraction: f64) -> ServiceWorkload {
    loadgen::generate(&LoadConfig {
        seed,
        groups: GROUPS,
        rows_per_group: ROWS_PER_GROUP,
        sources: SOURCES,
        queries,
        zipf_s: 1.0,
        global_fraction,
        ..LoadConfig::default()
    })
}

/// Rows, served queries and fingerprint of a loadgen workload.
fn loadgen_parts(w: &ServiceWorkload) -> (Vec<Table>, Vec<LoadRow>, Vec<Query>, u64) {
    let tables = vec![loadgen::table()];
    let rows: Vec<LoadRow> = w
        .rows
        .iter()
        .map(|r| ("metrics", r.source, r.cells.clone()))
        .collect();
    let mut h = Fnv::new();
    for r in &w.rows {
        h.eat(&r.source.raw().to_le_bytes());
        for c in &r.cells {
            match c {
                BoundedValue::Exact(Value::Int(x)) => h.eat(&x.to_le_bytes()),
                other => {
                    let m = other.as_interval().expect("numeric cell").midpoint();
                    h.eat(&m.to_bits().to_le_bytes());
                }
            }
        }
    }
    for q in &w.queries {
        h.eat(q.sql.as_bytes());
    }
    let queries = w
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| Query {
            sql: q.sql.clone(),
            class: loadgen_class(q),
            pinned: q.group.map(|g| g as i64),
            check: Check::Loadgen(i),
        })
        .collect();
    (tables, rows, queries, h.0)
}

type LoadRow = (&'static str, SourceId, Vec<BoundedValue>);

fn loadgen_class(q: &loadgen::GeneratedQuery) -> &'static str {
    use loadgen::AggTemplate::*;
    match (q.agg, q.group.is_some()) {
        (Count, true) => "count.pinned",
        (Sum, true) => "sum.pinned",
        (Avg, true) => "avg.pinned",
        (Min, true) => "min.pinned",
        (Count, false) => "count.global",
        (Sum, false) => "sum.global",
        (Avg, false) => "avg.global",
        (Min, false) => "min.global",
    }
}

fn zipf_inputs(seed: u64) -> Inputs {
    let w = loadgen_workload(seed, ZIPF_POOL, 0.1);
    let (tables, rows, queries, fingerprint) = loadgen_parts(&w);
    let masters = masters_of(&tables, &rows);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_0002);
    let mut ops = Vec::new();
    for q in 0..queries.len() {
        if q % ZIPF_ADVANCE_EVERY == 0 {
            ops.push(Op::Advance(LOADGEN_DT));
        }
        ops.push(Op::Query(q));
    }
    let writes: Vec<_> = (0..ZIPF_WRITE_PROBE / 2)
        .flat_map(|_| write_restore_pair(&mut rng, &masters, ZIPF_WRITE_BATCH))
        .collect();
    let ops_hash = Fnv::new().eat_ops(&ops, &writes);
    Inputs {
        kind: Kind::ZipfServe,
        tables,
        rows,
        partition_by: "grp",
        period: None,
        queries,
        ops,
        due: Vec::new(),
        writes,
        masters,
        tpch_queries: Vec::new(),
        loadgen: Some(w),
        fingerprint,
        ops_hash,
    }
}

fn churn_inputs(seed: u64, seconds: u64) -> Inputs {
    let span = Duration::from_secs(seconds);
    let n_queries = (CHURN_QUERY_RATE * span.as_secs_f64()).ceil() as usize;
    let n_updates = (CHURN_UPDATE_RATE * span.as_secs_f64()).ceil() as usize;
    let n_advances = (span.as_nanos() / CHURN_ADVANCE_PERIOD.as_nanos()) as usize;
    // Its own seed stream, distinct from zipf_serve's at the same seed.
    let w = loadgen_workload(seed ^ (0xc4 << 56), n_queries, CHURN_GLOBAL_FRACTION);
    let (tables, rows, queries, fingerprint) = loadgen_parts(&w);
    let masters = masters_of(&tables, &rows);

    // A seeded random walk over row masters, clamped to the value range.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_0003);
    let writes = random_walk(&mut rng, &masters, w.config.value_range, n_updates);
    let mut timed: Vec<(Duration, u8, Op)> = Vec::new();
    for q in 0..n_queries {
        let due = Duration::from_secs_f64(q as f64 / CHURN_QUERY_RATE);
        timed.push((due, 2, Op::Query(q)));
    }
    for (u, batch) in writes.into_iter().enumerate() {
        let due = Duration::from_secs_f64(u as f64 / CHURN_UPDATE_RATE);
        timed.push((due, 1, Op::Update(batch)));
    }
    for a in 1..=n_advances {
        timed.push((CHURN_ADVANCE_PERIOD * a as u32, 0, Op::Advance(LOADGEN_DT)));
    }
    // Stable: at equal due times, advances, then updates, then queries.
    timed.sort_by_key(|(due, rank, _)| (*due, *rank));
    let due = timed.iter().map(|(d, _, _)| *d).collect();
    let ops: Vec<Op> = timed.into_iter().map(|(_, _, op)| op).collect();
    let ops_hash = Fnv::new().eat_ops(&ops, &[]);
    Inputs {
        kind: Kind::ChurnOpen,
        tables,
        rows,
        partition_by: "grp",
        period: None,
        queries,
        ops,
        due,
        writes: Vec::new(),
        masters,
        tpch_queries: Vec::new(),
        loadgen: Some(w),
        fingerprint,
        ops_hash,
    }
}
