//! Serving a workload through the public `trapp-server` API with tracing
//! off: service set-up, the closed- and open-loop load generators, and
//! the answer checks.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use trapp_server::{QueryService, ServiceBuilder, ServiceConfig, ServiceReply, ServiceStats};
use trapp_types::{ObjectId, Value};
use trapp_workload::{loadgen, tpch};

use crate::inputs::{Check, Inputs, Kind, Op, Query, RTT, SHARDS, WORKERS};
use crate::stats::WINDOWS;

/// Builds the service over the completion transport with the adaptive
/// fetch pool and loads every row: the set-up `setup_s` times.
pub fn build_service(inputs: &Inputs) -> QueryService {
    let mut b = ServiceBuilder::new()
        .initial_width(1.0)
        .config(ServiceConfig {
            workers: WORKERS,
            shards: SHARDS,
            ..ServiceConfig::default()
        })
        .partition_by(inputs.partition_by);
    for t in &inputs.tables {
        b = b.table(t.clone());
    }
    for (table, source, cells) in &inputs.rows {
        b = b.row(*table, *source, cells.clone());
    }
    b.build_completion(RTT, None).expect("service builds")
}

/// Per-row master-value envelopes, one per clock epoch. A write extends
/// the current epoch's envelope *before* it reaches the source, so the
/// true master at any instant of an epoch lies inside that epoch's
/// envelope; a query is checked against the union of the envelopes of
/// every epoch its lifetime touched.
pub struct Envelope {
    current: Vec<f64>,
    epoch: u64,
    /// `(epoch, per-row (lo, hi))`, oldest first.
    epochs: VecDeque<(u64, Vec<(f64, f64)>)>,
    /// Every value each row has held since the start (the fallback for a
    /// query older than the retained epochs).
    all_time: Vec<(f64, f64)>,
}

/// Epoch envelopes kept for in-flight queries.
const KEPT_EPOCHS: usize = 16;

impl Envelope {
    pub fn new(masters: &[f64]) -> Envelope {
        let points: Vec<(f64, f64)> = masters.iter().map(|&m| (m, m)).collect();
        Envelope {
            current: masters.to_vec(),
            epoch: 0,
            epochs: VecDeque::from([(0, points.clone())]),
            all_time: points,
        }
    }

    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn write(&mut self, batch: &[(ObjectId, f64)]) {
        let (_, env) = self.epochs.back_mut().expect("an epoch is open");
        for &(object, value) in batch {
            let k = object.raw() as usize - 1;
            self.current[k] = value;
            for range in [&mut env[k], &mut self.all_time[k]] {
                range.0 = range.0.min(value);
                range.1 = range.1.max(value);
            }
        }
    }

    pub fn next_epoch(&mut self) {
        self.epoch += 1;
        let points = self.current.iter().map(|&m| (m, m)).collect();
        self.epochs.push_back((self.epoch, points));
        while self.epochs.len() > KEPT_EPOCHS {
            self.epochs.pop_front();
        }
    }

    /// The union of the envelopes of epochs `since..=now`.
    fn since(&self, since: u64) -> std::borrow::Cow<'_, [(f64, f64)]> {
        match self.epochs.iter().position(|(e, _)| *e == since) {
            Some(i) if i + 1 == self.epochs.len() => self.epochs[i].1.as_slice().into(),
            Some(i) => {
                let mut union = self.epochs[i].1.clone();
                for (_, env) in self.epochs.iter().skip(i + 1) {
                    for (u, e) in union.iter_mut().zip(env) {
                        u.0 = u.0.min(e.0);
                        u.1 = u.1.max(e.1);
                    }
                }
                union.into()
            }
            None => self.all_time.as_slice().into(),
        }
    }

    pub fn sum(&self) -> f64 {
        self.current.iter().sum()
    }
}

/// Checks answers against the workload's ground truth.
pub struct Checker<'a> {
    inputs: &'a Inputs,
    /// `zipf_serve`'s writes restore every master before its next query,
    /// so its exact truths are computed once, up front.
    exact: Vec<f64>,
    pub envelope: Mutex<Envelope>,
}

impl<'a> Checker<'a> {
    pub fn new(inputs: &'a Inputs) -> Checker<'a> {
        let exact = match (inputs.kind, &inputs.loadgen) {
            (Kind::ZipfServe, Some(w)) => {
                // The truth depends only on the group and the aggregate.
                let points: Vec<(f64, f64)> = inputs.masters.iter().map(|&m| (m, m)).collect();
                let mut memo = HashMap::new();
                w.queries
                    .iter()
                    .map(|q| {
                        *memo
                            .entry((q.group, q.agg))
                            .or_insert_with(|| loadgen::ground_truth_bounds(w, q, &points).0)
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        Checker {
            inputs,
            exact,
            envelope: Mutex::new(Envelope::new(&inputs.masters)),
        }
    }

    /// Whether `reply` is a correct, satisfied answer to `q`, issued
    /// while the envelope was at epoch `since`.
    pub fn check(&self, q: &Query, reply: &ServiceReply, since: u64) -> bool {
        let range = reply.result.answer.range;
        match q.check {
            Check::Tpch(i) => {
                let tq = &self.inputs.tpch_queries[i];
                match &tq.truth {
                    tpch::Truth::Scalar(_) => {
                        reply.result.satisfied
                            && !tpch::scalar_violation(tq, range.lo(), range.hi())
                    }
                    tpch::Truth::Groups(_) => {
                        let served: Vec<(i64, f64, f64)> = reply
                            .groups
                            .iter()
                            .filter_map(|g| match g.key.first() {
                                Some(Value::Int(k)) => Some((
                                    *k,
                                    g.result.answer.range.lo(),
                                    g.result.answer.range.hi(),
                                )),
                                _ => None,
                            })
                            .collect();
                        served.len() == reply.groups.len()
                            && reply.groups.iter().all(|g| g.result.satisfied)
                            && tpch::group_violations(tq, &served) == 0
                    }
                }
            }
            Check::Loadgen(i) => {
                if !reply.result.satisfied {
                    return false;
                }
                if let Some(&t) = self.exact.get(i) {
                    return range.lo() - 1e-9 <= t && t <= range.hi() + 1e-9;
                }
                let w = self.inputs.loadgen.as_ref().expect("loadgen workload");
                let env = self.envelope.lock().expect("envelope lock");
                let (lo, hi) = loadgen::ground_truth_bounds(w, &w.queries[i], &env.since(since));
                // The master at the answer's snapshot instant is a point
                // inside [lo, hi]; a correct range contains it.
                range.hi() >= lo - 1e-9 && range.lo() <= hi + 1e-9
            }
        }
    }

    /// A `WITHIN 0` query after the writers stopped must reproduce the
    /// tracked masters exactly.
    pub fn exactness_probe(&self, service: &QueryService) -> bool {
        service.advance_clock(1.0);
        let expected = self.envelope.lock().expect("envelope lock").sum();
        match service.query("SELECT SUM(load) WITHIN 0 FROM metrics") {
            Ok(reply) => {
                let got = reply.result.answer.range.midpoint();
                reply.result.answer.is_exact()
                    && (got - expected).abs() <= 1e-6 * expected.abs().max(1.0)
            }
            Err(_) => false,
        }
    }
}

/// Prints why `reply` failed its check.
pub fn report_failure(q: &Query, reply: &ServiceReply) {
    let range = reply.result.answer.range;
    eprintln!(
        "{} answer [{}, {}] (width {:e}): {}",
        if reply.result.satisfied {
            "wrong"
        } else {
            "unsatisfied"
        },
        range.lo(),
        range.hi(),
        range.width(),
        q.sql
    );
}

/// What one untraced run measured.
#[derive(Default)]
pub struct Outcome {
    /// `(completion, query class, latency)` per answered or failed query.
    pub latencies_ms: Vec<(Instant, &'static str, f64)>,
    /// `(completion, latency)` per update batch.
    pub updates_ms: Vec<(Instant, f64)>,
    /// How late the generator issued each operation.
    pub lag_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub answered: u64,
    pub wall_s: f64,
    pub stats: ServiceStats,
    /// Value-initiated refreshes delivered by the update batches.
    pub value_refreshes: u64,
    pub writes: u64,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.latencies_ms.extend(other.latencies_ms);
        self.updates_ms.extend(other.updates_ms);
        self.lag_ms.extend(other.lag_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.answered += other.answered;
        self.value_refreshes += other.value_refreshes;
        self.writes += other.writes;
    }

    fn update_done(&mut self, result: Result<usize, trapp_types::TrappError>, batch: usize) {
        self.attempted += 1;
        self.writes += batch as u64;
        match result {
            Ok(delivered) => self.value_refreshes += delivered as u64,
            Err(e) => {
                eprintln!("update batch failed: {e}");
                self.failed += 1;
            }
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Counter deltas between two snapshots.
pub fn stats_delta(after: ServiceStats, before: ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: after.queries - before.queries,
        errors: after.errors - before.errors,
        scatter_queries: after.scatter_queries - before.scatter_queries,
        refreshes_coalesced: after.refreshes_coalesced - before.refreshes_coalesced,
        refreshes_forwarded: after.refreshes_forwarded - before.refreshes_forwarded,
        round_trips: after.round_trips - before.round_trips,
        queue_wait_us: after.queue_wait_us - before.queue_wait_us,
        plan_us: after.plan_us - before.plan_us,
        fetch_us: after.fetch_us - before.fetch_us,
        install_us: after.install_us - before.install_us,
        ..after
    }
}

/// Serves the stream with `clients` closed-loop threads for `budget`:
/// each thread takes operation `next` of the (cycled) stream and advances
/// it, so the stream's order is kept across threads and calls.
fn closed_loop(
    service: &QueryService,
    inputs: &Inputs,
    checker: &Checker<'_>,
    clients: usize,
    budget: Duration,
    next: &AtomicUsize,
) -> Outcome {
    let before = service.stats();
    let started = Instant::now();
    let deadline = started + budget;
    let mut total = Outcome::default();
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Outcome::default();
                    let mut last_end: Option<Instant> = None;
                    loop {
                        let start = Instant::now();
                        if start >= deadline {
                            break;
                        }
                        if let Some(end) = last_end {
                            out.lag_ms.push(ms(start - end));
                        }
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        match &inputs.ops[k % inputs.ops.len()] {
                            Op::Advance(dt) => service.advance_clock(*dt),
                            Op::Update(batch) => {
                                let result = service.apply_update_batch(batch);
                                out.updates_ms.push((Instant::now(), ms(start.elapsed())));
                                out.update_done(result, batch.len());
                            }
                            Op::Query(i) => {
                                let q = &inputs.queries[*i];
                                let result = service.query(&q.sql);
                                out.latencies_ms.push((
                                    Instant::now(),
                                    q.class,
                                    ms(start.elapsed()),
                                ));
                                out.attempted += 1;
                                match result {
                                    Ok(reply) if checker.check(q, &reply, 0) => out.answered += 1,
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
                        last_end = Some(Instant::now());
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    total.wall_s = started.elapsed().as_secs_f64();
    for part in parts {
        total.absorb(part);
    }
    total.stats = stats_delta(service.stats(), before);
    total
}

/// A query in flight, handed from the generator to the collector.
struct InFlight {
    query: usize,
    due: Instant,
    epoch: u64,
    ticket: trapp_server::QueryTicket,
}

/// Serves the scheduled stream open-loop for `span`. Two generator
/// threads issue operations at their due times: one submits queries
/// (without waiting for their answers) and advances the clock, the other
/// applies the update batches. A third thread only waits for answers and
/// checks them. Latencies count from the due time, so a stall also
/// charges the requests queued behind it.
pub fn open_loop(
    service: &QueryService,
    inputs: &Inputs,
    checker: &Checker<'_>,
    span: Duration,
) -> Outcome {
    let before = service.stats();
    let started = Instant::now();
    let (tx, rx) = mpsc::channel::<InFlight>();
    // Sleeps until `due`, returning how late it woke.
    let wait_until = |due: Instant| {
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        ms(Instant::now().saturating_duration_since(due))
    };
    let scheduled = || {
        inputs
            .ops
            .iter()
            .zip(&inputs.due)
            .take_while(move |(_, &due)| due < span)
            .map(move |(op, &due)| (op, started + due))
    };
    let parts: Vec<Outcome> = std::thread::scope(|s| {
        let queries = s.spawn(move || {
            let mut out = Outcome::default();
            for (op, due) in scheduled() {
                match op {
                    Op::Advance(dt) => {
                        wait_until(due);
                        checker.envelope.lock().expect("envelope lock").next_epoch();
                        service.advance_clock(*dt);
                    }
                    Op::Query(i) => {
                        out.lag_ms.push(wait_until(due));
                        let epoch = checker.envelope.lock().expect("envelope lock").epoch();
                        let ticket = service.submit(inputs.queries[*i].sql.clone());
                        let sent = tx.send(InFlight {
                            query: *i,
                            due,
                            epoch,
                            ticket,
                        });
                        sent.expect("collector runs until the generator ends");
                    }
                    Op::Update(_) => {}
                }
            }
            out
        });
        let updates = s.spawn(move || {
            let mut out = Outcome::default();
            for (op, due) in scheduled() {
                if let Op::Update(batch) = op {
                    wait_until(due);
                    checker.envelope.lock().expect("envelope lock").write(batch);
                    let result = service.apply_update_batch(batch);
                    out.updates_ms.push((Instant::now(), ms(due.elapsed())));
                    out.update_done(result, batch.len());
                }
            }
            out
        });
        let collector = s.spawn(move || {
            let mut out = Outcome::default();
            for f in rx {
                let result = f.ticket.wait();
                let q = &inputs.queries[f.query];
                out.latencies_ms
                    .push((Instant::now(), q.class, ms(f.due.elapsed())));
                out.attempted += 1;
                match result {
                    Ok(reply) if checker.check(q, &reply, f.epoch) => out.answered += 1,
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
            out
        });
        [queries, updates, collector]
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = Outcome {
        wall_s: started.elapsed().as_secs_f64(),
        ..Outcome::default()
    };
    for part in parts {
        total.absorb(part);
    }
    total.stats = stats_delta(service.stats(), before);
    total
}

/// Applies write-probe batches one at a time.
fn write_probe(service: &QueryService, batches: &[Vec<(ObjectId, f64)>], out: &mut Outcome) {
    for batch in batches {
        let start = Instant::now();
        let result = service.apply_update_batch(batch);
        out.updates_ms.push((Instant::now(), ms(start.elapsed())));
        out.update_done(result, batch.len());
    }
}

/// Counter sums of two disjoint spans.
fn stats_sum(a: ServiceStats, b: ServiceStats) -> ServiceStats {
    ServiceStats {
        queries: a.queries + b.queries,
        errors: a.errors + b.errors,
        scatter_queries: a.scatter_queries + b.scatter_queries,
        refreshes_coalesced: a.refreshes_coalesced + b.refreshes_coalesced,
        refreshes_forwarded: a.refreshes_forwarded + b.refreshes_forwarded,
        round_trips: a.round_trips + b.round_trips,
        queue_wait_us: a.queue_wait_us + b.queue_wait_us,
        plan_us: a.plan_us + b.plan_us,
        fetch_us: a.fetch_us + b.fetch_us,
        install_us: a.install_us + b.install_us,
        ..b
    }
}

/// Serves the workload untraced for `budget`, the way `--trace 0` does.
/// Closed-loop workloads read in `WINDOWS` parts and apply a part of their
/// write probe after each (pairs never split), so both spread over the
/// run; the open-loop one ends with its exactness probe.
pub fn serve(
    service: &QueryService,
    inputs: &Inputs,
    checker: &Checker<'_>,
    budget: Duration,
) -> Outcome {
    match inputs.kind.clients() {
        Some(clients) => {
            let next = AtomicUsize::new(0);
            let part = inputs.writes.len().div_ceil(2 * WINDOWS).max(1) * 2;
            let mut writes = inputs.writes.chunks(part);
            let mut out = Outcome::default();
            for _ in 0..WINDOWS {
                let read = closed_loop(
                    service,
                    inputs,
                    checker,
                    clients,
                    budget / WINDOWS as u32,
                    &next,
                );
                out.wall_s += read.wall_s;
                out.stats = stats_sum(out.stats, read.stats);
                out.absorb(read);
                write_probe(service, writes.next().unwrap_or_default(), &mut out);
            }
            out
        }
        None => {
            let mut out = open_loop(service, inputs, checker, budget);
            out.attempted += 1;
            if !checker.exactness_probe(service) {
                eprintln!("final WITHIN 0 exactness probe failed");
                out.failed += 1;
            }
            out
        }
    }
}
