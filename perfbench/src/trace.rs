//! The traced run (`--trace 1`) and the span report.
//!
//! A traced run serves the workload three times, each on a freshly built
//! service:
//!
//! 1. untraced and concurrent, exactly as `--trace 0` does, for the
//!    counters that need concurrency (queue wait, coalescing, generator
//!    lag);
//! 2. one operation at a time with a span around every call the
//!    benchmark makes into a layer's public function;
//! 3. one operation at a time without spans, over the same operations as
//!    (2), which gives the tracing overhead.
//!
//! Spans stay in memory until the run ends, then go to
//! `perfbench/out/spans-<workload>-<seed>.tsv`; `perfbench report <file>`
//! prints each layer's self time from such a file.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trapp_core::{
    choose_refresh, merge_grouped_partials, merge_partials, merge_table_slices, Aggregate,
    QueryPartial, QuerySession, ShardPartial, SolverStrategy,
};
use trapp_server::{QueryService, ServiceReply, ServiceStats};
use trapp_storage::{Catalog, Table};
use trapp_types::{shard_of, ObjectId, TrappError, TupleId};

use crate::drive::{build_service, report_failure, serve, stats_delta, Checker};
use crate::inputs::{Inputs, Kind, Op, Query, SHARDS};
use crate::stats::Sample;
use crate::{finish, Args, Metric};

/// Shares of `--seconds` given to the concurrent and the traced phase;
/// the untraced replay repeats the traced phase's operations.
const LIVE_SHARE: f64 = 0.4;
const TRACED_SHARE: f64 = 0.35;
/// Write-probe batches the traced phase applies after its replay (the
/// closed-loop workloads' streams carry no writes).
const TRACED_WRITES: usize = 200;

/// One recorded span. `parent == 0` marks an operation's root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub qid: u64,
    pub class: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

/// The operation a span belongs to.
#[derive(Clone, Copy)]
struct Ctx {
    qid: u64,
    class: &'static str,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, parent: u32, name: &str, ctx: Ctx, start_ns: u64, end_ns: u64) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            qid: ctx.qid,
            class: ctx.class.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    fn open(&mut self, parent: u32, name: &str, ctx: Ctx) -> u32 {
        let now = self.now();
        self.push(parent, name, ctx, now, now)
    }

    fn close(&mut self, id: u32) {
        let now = self.now();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Runs `f` inside a span; returns its result and the span's length.
    fn time<R>(&mut self, parent: u32, name: &str, ctx: Ctx, f: impl FnOnce() -> R) -> (R, f64) {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(parent, name, ctx, start, end);
        (r, (end - start) as f64 / 1e6)
    }

    /// The service's own phase times for one query, from `ServiceStats`
    /// deltas, as child spans of its `service.query` span. Their lengths
    /// are measured; their positions are not (phases of several refresh
    /// rounds interleave), so they are laid end to end from the span's
    /// start in queue → plan → fetch → install order.
    fn phases(&mut self, parent: u32, ctx: Ctx, d: &ServiceStats) {
        let (start, end) = {
            let p = &self.spans[parent as usize - 1];
            (p.start_ns, p.end_ns)
        };
        let mut at = start;
        for (name, us) in [
            ("service.queue_wait", d.queue_wait_us),
            ("service.plan", d.plan_us),
            ("service.fetch", d.fetch_us),
            ("service.install", d.install_us),
        ] {
            let to = (at + us * 1_000).min(end);
            self.push(parent, name, ctx, at, to);
            at = to;
        }
    }
}

/// Per-layer figures of the traced replay, one entry per call.
#[derive(Default)]
struct Layers {
    materialize_ms: Vec<f64>,
    cells_written: Vec<f64>,
    plan_ms: Vec<f64>,
    tuples_classified: Vec<f64>,
    choose_refresh_us: Vec<f64>,
    knapsack_items: Vec<f64>,
    merge_ms: Vec<f64>,
    rows_gathered: Vec<f64>,
    update_batch_ms: Vec<f64>,
    parse_us: Vec<f64>,
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// What a serial replay did.
#[derive(Default)]
struct Replay {
    ops: usize,
    wall_s: f64,
    attempted: u64,
    failed: u64,
}

/// Sum of every cached table's mutation version on one shard: a cell
/// write bumps it by one.
fn cells_version(service: &QueryService, shard: usize) -> u64 {
    service.with_shard_cache(shard, |c| {
        let catalog = c.session().catalog();
        catalog
            .table_names()
            .filter_map(|n| catalog.table(n).ok())
            .map(Table::version)
            .sum()
    })
}

/// Shard-local to global tuple ids, per table and shard.
type Placement = HashMap<(String, usize), Vec<u64>>;

fn to_global<'a>(
    placement: &'a Placement,
    table: &str,
    shard: usize,
) -> impl Fn(TupleId) -> TupleId + 'a {
    let ids = placement
        .get(&(table.to_string(), shard))
        .map_or(&[][..], Vec::as_slice);
    move |t| TupleId::new(ids[t.raw() as usize - 1])
}

/// Items a partial classified.
fn partial_items(p: &QueryPartial) -> usize {
    match p {
        QueryPartial::Scalar(s) => s.input.items.len(),
        QueryPartial::Grouped(g) => g.iter().map(|(_, s)| s.input.items.len()).sum(),
        QueryPartial::Join(j) => j.left.rows.len() + j.right.rows.len(),
    }
}

/// The gathered form of one query's partials.
enum Gathered {
    Units(Vec<ShardPartial>),
    Join(Box<(Table, Table)>),
}

/// Merges per-shard partials (tuple ids already global), the way the
/// service's scatter-gather does.
fn gather(inputs: &Inputs, partials: Vec<QueryPartial>) -> Result<(Gathered, usize), TrappError> {
    let rows = partials.iter().map(partial_items).sum();
    let mut scalars = Vec::new();
    let mut grouped = Vec::new();
    let mut lefts = Vec::new();
    let mut rights = Vec::new();
    for p in partials {
        match p {
            QueryPartial::Scalar(s) => scalars.push(s),
            QueryPartial::Grouped(g) => grouped.push(g),
            QueryPartial::Join(j) => {
                lefts.push(j.left);
                rights.push(j.right);
            }
        }
    }
    let schema_of = |name: &str| {
        inputs
            .tables
            .iter()
            .find(|t| t.name() == name)
            .map(|t| t.schema().clone())
            .ok_or_else(|| TrappError::UnknownTable(name.to_string()))
    };
    let gathered = if !lefts.is_empty() {
        let left_schema = schema_of(&lefts[0].table)?;
        let right_schema = schema_of(&rights[0].table)?;
        Gathered::Join(Box::new((
            merge_table_slices(left_schema, lefts)?,
            merge_table_slices(right_schema, rights)?,
        )))
    } else if !grouped.is_empty() {
        Gathered::Units(
            merge_grouped_partials(grouped)?
                .into_iter()
                .map(|(_, p)| p)
                .collect(),
        )
    } else {
        let first = scalars
            .first()
            .ok_or_else(|| TrappError::Internal("no partials to gather".into()))?;
        let (table, agg, within) = (first.table.clone(), first.agg, first.within);
        let input = merge_partials(scalars.into_iter().map(|s| s.input))?;
        Gathered::Units(vec![ShardPartial {
            table,
            agg,
            within,
            input,
        }])
    };
    Ok((gathered, rows))
}

/// Serves one query with a span around each layer call, then through the
/// service itself.
fn traced_query(
    service: &QueryService,
    inputs: &Inputs,
    placement: &Placement,
    q: &Query,
    tracer: &mut Tracer,
    ctx: Ctx,
    layers: &mut Layers,
) -> Result<ServiceReply, TrappError> {
    let root = tracer.open(0, "op.query", ctx);
    let (ast, ms) = tracer.time(root, "sql.parse", ctx, || trapp_sql::parse_query(&q.sql));
    layers.parse_us.push(ms * 1e3);
    let ast = ast?;
    let shards: Vec<usize> = match q.pinned {
        Some(g) => vec![shard_of(g as u64, SHARDS)],
        None => (0..SHARDS).collect(),
    };
    let mut partials = Vec::with_capacity(shards.len());
    for &s in &shards {
        tracer
            .time(root, "cache.materialize", ctx, || {
                service.with_shard_cache(s, |c| c.materialize())
            })
            .0?;
        if q.pinned.is_some() {
            let (plan, ms) = tracer.time(root, "query_plan.plan", ctx, || {
                service.with_shard_cache(s, |c| c.session().plan_query(&ast))
            });
            plan?;
            layers.plan_ms.push(ms);
        }
        let (partial, _) = tracer.time(root, "query_plan.partial", ctx, || {
            service.with_shard_cache(s, |c| c.session().partial_query(&ast))
        });
        let mut partial = partial?;
        match &mut partial {
            QueryPartial::Scalar(p) => p.rewrite_tids(to_global(placement, &p.table, s)),
            QueryPartial::Grouped(groups) => {
                for (_, p) in groups {
                    p.rewrite_tids(to_global(placement, &p.table, s));
                }
            }
            QueryPartial::Join(j) => {
                j.left.rewrite_tids(to_global(placement, &j.left.table, s));
                j.right
                    .rewrite_tids(to_global(placement, &j.right.table, s));
            }
        }
        partials.push(partial);
    }
    layers
        .tuples_classified
        .push(partials.iter().map(partial_items).sum::<usize>() as f64);
    let gathered = if shards.len() > 1 {
        let (gathered, ms) = tracer.time(root, "merge.merge", ctx, || gather(inputs, partials));
        let (gathered, rows) = gathered?;
        layers.merge_ms.push(ms);
        layers.rows_gathered.push(rows as f64);
        gathered
    } else {
        match partials.pop() {
            Some(QueryPartial::Scalar(p)) => Gathered::Units(vec![p]),
            Some(QueryPartial::Grouped(g)) => {
                Gathered::Units(g.into_iter().map(|(_, p)| p).collect())
            }
            _ => {
                return Err(TrappError::Internal(
                    "a pinned query planned as a join".into(),
                ))
            }
        }
    };
    match gathered {
        Gathered::Units(units) => {
            let mut us = 0.0;
            let mut items = 0;
            for unit in &units {
                let Some(r) = unit.within else { continue };
                let (plan, ms) = tracer.time(root, "refresh.choose_refresh", ctx, || {
                    choose_refresh(unit.agg, &unit.input, r, SolverStrategy::default())
                });
                plan?;
                us += ms * 1e3;
                if matches!(unit.agg, Aggregate::Sum | Aggregate::Avg) {
                    items += unit.input.items.len();
                }
            }
            layers.choose_refresh_us.push(us);
            if units
                .iter()
                .any(|u| matches!(u.agg, Aggregate::Sum | Aggregate::Avg))
            {
                layers.knapsack_items.push(items as f64);
            }
        }
        Gathered::Join(tables) => {
            let (left, right) = *tables;
            let (plan, ms) = tracer.time(root, "query_plan.plan", ctx, || {
                let mut catalog = Catalog::new();
                catalog.add_table(left)?;
                catalog.add_table(right)?;
                QuerySession::with_catalog(catalog).plan_query(&ast)
            });
            plan?;
            layers.plan_ms.push(ms);
        }
    }
    let before = service.stats();
    let call = tracer.open(root, "service.query", ctx);
    let reply = service.query(&q.sql);
    tracer.close(call);
    tracer.phases(call, ctx, &stats_delta(service.stats(), before));
    tracer.close(root);
    reply
}

/// Applies one update batch inside an `op.update` span.
fn traced_update(
    service: &QueryService,
    batch: &[(ObjectId, f64)],
    qid: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Result<usize, TrappError> {
    let ctx = Ctx {
        qid,
        class: "update",
    };
    let root = tracer.open(0, "op.update", ctx);
    let (r, ms) = tracer.time(root, "service.update_batch", ctx, || {
        service.apply_update_batch(batch)
    });
    tracer.close(root);
    layers.update_batch_ms.push(ms);
    r
}

/// Serves `inputs.ops` one at a time, cycling, until `deadline` or after
/// `max_ops` operations; traced when `tracer` is given.
fn replay(
    service: &QueryService,
    inputs: &Inputs,
    checker: &Checker<'_>,
    deadline: Option<Instant>,
    max_ops: usize,
    mut tracer: Option<(&mut Tracer, &mut Layers)>,
) -> Replay {
    let placement = inputs.placement();
    let mut out = Replay::default();
    let started = Instant::now();
    while out.ops < max_ops && deadline.is_none_or(|d| Instant::now() < d) {
        let k = out.ops % inputs.ops.len();
        out.ops += 1;
        match &inputs.ops[k] {
            Op::Advance(dt) => {
                checker.envelope.lock().expect("envelope lock").next_epoch();
                match tracer.as_mut() {
                    None => service.advance_clock(*dt),
                    Some((tracer, layers)) => {
                        // TPC-H advances the clock before each query: the
                        // advance belongs to that query's class.
                        let next_query = inputs.ops[k..].iter().find_map(|op| match op {
                            Op::Query(i) => Some(inputs.queries[*i].class),
                            _ => None,
                        });
                        let class = match (inputs.kind, next_query) {
                            (Kind::Tpch100k, Some(class)) => class,
                            _ => "advance",
                        };
                        let ctx = Ctx {
                            qid: k as u64,
                            class,
                        };
                        let root = tracer.open(0, "op.advance", ctx);
                        tracer.time(root, "service.advance_clock", ctx, || {
                            service.advance_clock(*dt)
                        });
                        let mut ms = 0.0;
                        let mut cells = 0;
                        for s in 0..SHARDS {
                            let before = cells_version(service, s);
                            let (r, t) = tracer.time(root, "cache.materialize", ctx, || {
                                service.with_shard_cache(s, |c| c.materialize())
                            });
                            if let Err(e) = r {
                                eprintln!("materialize failed: {e}");
                                out.failed += 1;
                            }
                            ms += t;
                            cells += cells_version(service, s) - before;
                        }
                        tracer.close(root);
                        layers.materialize_ms.push(ms);
                        layers.cells_written.push(cells as f64);
                    }
                }
            }
            Op::Update(batch) => {
                checker.envelope.lock().expect("envelope lock").write(batch);
                out.attempted += 1;
                let result = match tracer.as_mut() {
                    None => service.apply_update_batch(batch),
                    Some((tracer, layers)) => {
                        traced_update(service, batch, k as u64, tracer, layers)
                    }
                };
                if let Err(e) = result {
                    eprintln!("update batch failed: {e}");
                    out.failed += 1;
                }
            }
            Op::Query(i) => {
                let q = &inputs.queries[*i];
                let epoch = checker.envelope.lock().expect("envelope lock").epoch();
                out.attempted += 1;
                let result = match tracer.as_mut() {
                    None => service.query(&q.sql),
                    Some((tracer, layers)) => {
                        let ctx = Ctx {
                            qid: k as u64,
                            class: q.class,
                        };
                        traced_query(service, inputs, &placement, q, tracer, ctx, layers)
                    }
                };
                match result {
                    Ok(reply) if checker.check(q, &reply, epoch) => {}
                    Ok(reply) => {
                        report_failure(q, &reply);
                        out.failed += 1;
                    }
                    Err(e) => {
                        eprintln!("query failed: {}: {e}", q.sql);
                        out.failed += 1;
                    }
                }
            }
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// `--trace 1`: the three phases, the span file and report, and the
/// per-layer metrics.
pub fn run(inputs: &Inputs, args: &Args) -> ExitCode {
    let seconds = args.seconds as f64;

    let service = build_service(inputs);
    let checker = Checker::new(inputs);
    let live = serve(
        &service,
        inputs,
        &checker,
        Duration::from_secs_f64(seconds * LIVE_SHARE),
    );
    service.shutdown();

    let service = build_service(inputs);
    let checker = Checker::new(inputs);
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut layers = Layers::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * TRACED_SHARE);
    let traced = replay(
        &service,
        inputs,
        &checker,
        Some(deadline),
        usize::MAX,
        Some((&mut tracer, &mut layers)),
    );
    let mut write_failures = 0;
    for (k, batch) in inputs.writes.iter().take(TRACED_WRITES).enumerate() {
        let qid = (traced.ops + k) as u64;
        if let Err(e) = traced_update(&service, batch, qid, &mut tracer, &mut layers) {
            eprintln!("update batch failed: {e}");
            write_failures += 1;
        }
    }
    let write_attempts = inputs.writes.len().min(TRACED_WRITES) as u64;
    service.shutdown();

    let service = build_service(inputs);
    let checker = Checker::new(inputs);
    let plain = replay(&service, inputs, &checker, None, traced.ops, None);
    service.shutdown();

    let path = format!(
        "perfbench/out/spans-{}-{}.tsv",
        inputs.kind.name(),
        args.seed
    );
    match write_spans(&path, &tracer.spans) {
        Ok(()) => eprintln!("wrote {} spans to {path}", tracer.spans.len()),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    eprint!("{}", report(&tracer.spans));

    let overhead = (traced.wall_s / plain.wall_s - 1.0) * 100.0;
    eprintln!(
        "replayed {} ops: traced {:.3} s, untraced {:.3} s",
        traced.ops, traced.wall_s, plain.wall_s
    );
    let s = &live.stats;
    let queries = s.queries.max(1) as f64;
    let shared = s.refreshes_coalesced + s.refreshes_forwarded;
    eprintln!(
        "concurrent phase: {} queries, {} refreshes asked of the gateways ({} coalesced)",
        s.queries, shared, s.refreshes_coalesced
    );
    let lag = Sample::new(live.lag_ms.clone());
    let metrics = [
        Metric::new("cache.materialize_ms", mean(&layers.materialize_ms), "ms"),
        Metric::new("cache.cells_written", mean(&layers.cells_written), "count"),
        Metric::new("query_plan.plan_ms", mean(&layers.plan_ms), "ms"),
        Metric::new(
            "query_plan.tuples_classified",
            mean(&layers.tuples_classified),
            "count",
        ),
        Metric::new(
            "refresh.choose_refresh_us",
            mean(&layers.choose_refresh_us),
            "us",
        ),
        Metric::new(
            "refresh.knapsack_items",
            mean(&layers.knapsack_items),
            "count",
        ),
        Metric::new("merge.merge_ms", mean(&layers.merge_ms), "ms"),
        Metric::new("merge.rows_gathered", mean(&layers.rows_gathered), "count"),
        Metric::new(
            "service.queue_wait_ms",
            s.queue_wait_us as f64 / 1e3 / queries,
            "ms",
        ),
        Metric::new("service.plan_ms", s.plan_us as f64 / 1e3 / queries, "ms"),
        Metric::new("service.fetch_ms", s.fetch_us as f64 / 1e3 / queries, "ms"),
        Metric::new(
            "service.install_ms",
            s.install_us as f64 / 1e3 / queries,
            "ms",
        ),
        Metric::new(
            "gateway.round_trips",
            s.round_trips as f64 / queries,
            "count",
        ),
        Metric::new(
            "gateway.refreshes_forwarded",
            s.refreshes_forwarded as f64 / queries,
            "count",
        ),
        Metric::new(
            "gateway.coalesced_ratio",
            s.refreshes_coalesced as f64 / shared.max(1) as f64,
            "ratio",
        ),
        Metric::new(
            "service.update_batch_ms",
            mean(&layers.update_batch_ms),
            "ms",
        ),
        Metric::new(
            "source.value_refreshes_per_update",
            live.value_refreshes as f64 / live.writes.max(1) as f64,
            "count",
        ),
        Metric::new("sql.parse_us", mean(&layers.parse_us), "us"),
        Metric::new("loadgen.lag_p99_ms", lag.pct(0.99), "ms"),
        Metric::new("trace.overhead_pct", overhead, "%"),
    ];
    finish(
        live.attempted + traced.attempted + plain.attempted + write_attempts,
        live.failed + traced.failed + plain.failed + write_failures,
        &metrics,
    )
}

fn write_spans(path: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut text = String::from("id\tparent\tqid\tclass\tname\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.qid, s.class, s.name, s.start_ns, s.end_ns
        );
    }
    std::fs::write(path, text)
}

fn read_spans(path: &str) -> Result<Vec<Span>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .skip(1)
        .enumerate()
        .map(|(i, line)| {
            let f: Vec<&str> = line.split('\t').collect();
            let bad = || format!("{path}:{}: malformed span line", i + 2);
            if f.len() != 7 {
                return Err(bad());
            }
            let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
            Ok(Span {
                id: num(f[0])? as u32,
                parent: num(f[1])? as u32,
                qid: num(f[2])?,
                class: f[3].to_string(),
                name: f[4].to_string(),
                start_ns: num(f[5])?,
                end_ns: num(f[6])?,
            })
        })
        .collect()
}

/// `perfbench report <spans.tsv>`.
pub fn report_file(path: &str) -> ExitCode {
    match read_spans(path) {
        Ok(spans) => {
            print!("{}", report(&spans));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time per layer (a span's length minus the part its children
/// cover), as a share of operation wall time, overall and per class,
/// plus how much of each operation and each service call the recorded
/// spans cover.
pub fn report(spans: &[Span]) -> String {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let self_ns = |s: &Span| {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns)
    };
    let coverage = |s: &Span| {
        let kids = children.get(&s.id).cloned().unwrap_or_default();
        let len = (s.end_ns - s.start_ns).max(1);
        covered(kids, s.start_ns, s.end_ns) as f64 / len as f64
    };

    let mut classes: Vec<&str> = spans.iter().map(|s| s.class.as_str()).collect();
    classes.sort_unstable();
    classes.dedup();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "self time by layer, as a share of operation wall time:"
    );
    for class in std::iter::once(None).chain(classes.into_iter().map(Some)) {
        let in_class = |s: &&Span| class.is_none_or(|c| s.class == c);
        let roots: Vec<&Span> = spans
            .iter()
            .filter(|s| s.parent == 0)
            .filter(in_class)
            .collect();
        let wall: u64 = roots.iter().map(|s| s.end_ns - s.start_ns).sum();
        if wall == 0 {
            continue;
        }
        let mut by_name: Vec<(String, u64, usize)> = Vec::new();
        for s in spans.iter().filter(in_class) {
            let own = self_ns(s);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(entry) => {
                    entry.1 += own;
                    entry.2 += 1;
                }
                None => by_name.push((s.name.clone(), own, 1)),
            }
        }
        by_name.sort_by_key(|entry| std::cmp::Reverse(entry.1));
        let _ = writeln!(
            out,
            "[{}] {} operations, {:.3} ms wall",
            class.unwrap_or("all"),
            roots.len(),
            wall as f64 / 1e6
        );
        for (name, own, calls) in by_name {
            let _ = writeln!(
                out,
                "  {name:<28} {:>12.3} ms {:>7.2}% {calls:>8} spans",
                own as f64 / 1e6,
                100.0 * own as f64 / wall as f64
            );
        }
        let roots_cov = Sample::new(roots.iter().map(|s| coverage(s)).collect());
        let calls: Vec<f64> = spans
            .iter()
            .filter(in_class)
            .filter(|s| s.name == "service.query")
            .map(&coverage)
            .collect();
        let _ = write!(
            out,
            "  covered by child spans: operations p50 {:.1}% (min {:.1}%)",
            100.0 * roots_cov.pct(0.5),
            100.0 * roots_cov.pct(1e-9)
        );
        if calls.is_empty() {
            let _ = writeln!(out);
        } else {
            let calls = Sample::new(calls);
            let _ = writeln!(
                out,
                "; service.query by its phases p50 {:.1}% (min {:.1}%)",
                100.0 * calls.pct(0.5),
                100.0 * calls.pct(1e-9)
            );
        }
    }
    out
}
