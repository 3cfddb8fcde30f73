//! Data caches: bounded tables + the query processor (§3, Figure 3).
//!
//! A [`CacheNode`] owns a `trapp-core` [`QuerySession`] whose tables hold
//! the *materialized* bounds. Each bounded cell is backed by one replicated
//! object with a time-varying [`trapp_bounds::BoundFunction`]; before a query runs, the
//! cache evaluates every bound function at the current time and writes the
//! resulting intervals into the table (§3.2: "we assume that any
//! time-varying bound functions have been evaluated at the current time
//! `T_c`").
//!
//! The objects, their sources and their current bound functions live in a
//! table-ordered bound store: per cached table, one vector of slots in
//! `(tuple, column)` order. After a clock advance, materialization is one
//! sequential pass per table that evaluates every slot's bound at `T_c` and
//! hands the sorted cells to [`trapp_storage::Table::write_bounds`], which
//! merge-walks the table's rows once. While the clock stands still, only
//! the slots installed since the last pass are rewritten.
//!
//! Query-initiated refreshes flow through an internal transport-backed
//! oracle (`SystemOracle`), which routes
//! each `(table, tuple, column)` request to the owning source via the
//! transport, hands the exact value to the executor, and records the new
//! bound function for installation after the query completes.

use std::collections::{HashMap, HashSet};

use trapp_core::executor::{QueryResult, QuerySession, RefreshOracle};
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TrappError, TupleId};

use crate::bound_store::{BoundStore, BoundTable, Install, Slot, SlotRef};
use crate::clock::SimClock;
use crate::message::{Refresh, RefreshKind};
use crate::stats::CacheStats;
use crate::transport::Transport;

/// Where a replicated object lives and which cell it backs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObjectRoute {
    /// The owning source.
    pub source: SourceId,
    /// The backed table, as the cache's bound-table id; see
    /// [`CacheNode::bound_table_name`].
    pub table: usize,
    /// The backed tuple.
    pub tuple: TupleId,
    /// The backed column.
    pub column: usize,
}

/// A TRAPP data cache.
pub struct CacheNode {
    id: CacheId,
    session: QuerySession,
    clock: SimClock,
    /// Every bound object: its cell, source and current bound function.
    store: BoundStore,
    /// The instant of the last full materialization, if any.
    materialized_at: Option<f64>,
    /// When `true` (the default), a CHOOSE_REFRESH plan is served with one
    /// transport round-trip per *source*; when `false`, one per *object*
    /// (the seed's behavior, kept as a measurable baseline).
    batch_refreshes: bool,
    stats: CacheStats,
}

impl CacheNode {
    /// Creates a cache over an empty catalog.
    pub fn new(id: CacheId, clock: SimClock) -> CacheNode {
        CacheNode {
            id,
            session: QuerySession::with_catalog(trapp_storage::Catalog::new()),
            clock,
            store: BoundStore::default(),
            materialized_at: None,
            batch_refreshes: true,
            stats: CacheStats::default(),
        }
    }

    /// This cache's id.
    pub fn id(&self) -> CacheId {
        self.id
    }

    /// Chooses between batched (per-source) and per-object refresh
    /// round-trips for query-initiated refreshes.
    pub fn set_batch_refreshes(&mut self, on: bool) {
        self.batch_refreshes = on;
    }

    /// Where `object` lives and which cell it backs, if bound here.
    pub fn route(&self, object: ObjectId) -> Option<ObjectRoute> {
        self.store
            .slot_of(object)
            .map(|(table, slot)| route_of(table, slot))
    }

    /// Iterates all bound objects with their routes, table by table in
    /// `(tuple, column)` order.
    pub fn objects(&self) -> impl Iterator<Item = (ObjectId, ObjectRoute)> + '_ {
        self.store
            .tables()
            .iter()
            .enumerate()
            .flat_map(|(table, t)| t.slots.iter().map(move |s| (s.object, route_of(table, s))))
    }

    /// The name of the table with bound-table id `table` (see
    /// [`ObjectRoute::table`]).
    pub fn bound_table_name(&self, table: usize) -> Option<&str> {
        self.store.tables().get(table).map(|t| t.name.as_str())
    }

    /// The `(table, tuple)` pairs with at least one cell backed by an
    /// object of `sources` — what planning must treat as unrefreshable
    /// while those sources are down.
    pub fn tuples_on_sources<'a>(
        &'a self,
        sources: &'a HashSet<SourceId>,
    ) -> impl Iterator<Item = (&'a str, TupleId)> + 'a {
        self.store.tables().iter().flat_map(move |t| {
            t.slots
                .iter()
                .filter(|s| sources.contains(&s.source))
                .map(move |s| (t.name.as_str(), s.tuple))
        })
    }

    /// The replicated objects backing `tid`'s bounded cells, with their
    /// owning sources — what a refresh of the tuple must fetch.
    pub fn objects_backing(
        &self,
        table: &str,
        tuple: TupleId,
    ) -> Result<Vec<(ObjectId, SourceId)>, TrappError> {
        let columns = self
            .session
            .catalog()
            .table(table)?
            .schema()
            .bounded_columns();
        let slots = self.store.table(table);
        columns
            .into_iter()
            .map(|col| object_at(slots, table, tuple, col))
            .collect()
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The underlying query session (configuration, catalog access).
    pub fn session_mut(&mut self) -> &mut QuerySession {
        &mut self.session
    }

    /// Immutable session access.
    pub fn session(&self) -> &QuerySession {
        &self.session
    }

    /// Adds a cached table.
    pub fn add_table(&mut self, table: trapp_storage::Table) -> Result<(), TrappError> {
        self.session.catalog_mut().add_table(table)
    }

    /// Binds `object` (owned by `source`) to a bounded cell. The cell's
    /// bound stays unknown until a subscription refresh is installed.
    /// Binding a cell that is already backed replaces its object; binding
    /// an object that already backs another cell moves it.
    pub fn bind_object(
        &mut self,
        object: ObjectId,
        source: SourceId,
        table: impl Into<String>,
        tuple: TupleId,
        column: usize,
    ) -> Result<(), TrappError> {
        let table = table.into();
        // Validate the cell exists and is bounded.
        let t = self.session.catalog().table(&table)?;
        let def = t.schema().column_at(column)?;
        if !def.bounded {
            return Err(TrappError::BoundednessViolation(format!(
                "column {} of {table} is exact; only bounded cells back replicated objects",
                def.name
            )));
        }
        t.row(tuple)?;
        self.store.bind(object, source, &table, tuple, column);
        Ok(())
    }

    /// Installs a refresh (any kind): records the bound function and pins
    /// the cell to the refreshed exact value (the bound at `T_r` is the
    /// point `V(T_r)`; it widens again at the next materialization).
    ///
    /// Installs are *ordered*: a refresh whose [`Refresh::seq`] is behind
    /// one already installed for the object is stale — a newer bound from
    /// the source has already landed, e.g. a value-initiated refresh that
    /// raced a concurrently fetched query refresh — and is skipped, so the
    /// cache can never regress behind the Refresh Monitor's tracked bound.
    pub fn install_refresh(&mut self, refresh: Refresh) -> Result<(), TrappError> {
        let Some(at) = self.record_install(&refresh)? else {
            return Ok(());
        };
        let (table, tuple, column) = self.store.cell(at);
        self.session
            .catalog_mut()
            .table_mut(table)?
            .refresh_cell(tuple, column, refresh.value)?;
        match refresh.kind {
            RefreshKind::ValueInitiated => self.stats.value_initiated += 1,
            RefreshKind::QueryInitiated => self.stats.query_initiated += 1,
            RefreshKind::Subscription => self.stats.subscriptions += 1,
            RefreshKind::PreRefresh => self.stats.pre_refreshes += 1,
        }
        Ok(())
    }

    /// Records `refresh`'s bound function in the store, marking its slot
    /// for re-materialization. Returns the slot, or `None` (counted in
    /// [`CacheStats::stale_skipped`]) when the refresh is sequence-stale.
    fn record_install(&mut self, refresh: &Refresh) -> Result<Option<SlotRef>, TrappError> {
        match self.store.install(refresh) {
            Install::Recorded(at) => Ok(Some(at)),
            Install::Stale => {
                self.stats.stale_skipped += 1;
                Ok(None)
            }
            Install::Unbound => Err(TrappError::RefreshFailed(format!(
                "{} is not bound here",
                refresh.object
            ))),
        }
    }

    /// Evaluates bound functions at the current time and writes the
    /// intervals into the cached tables.
    ///
    /// After a clock advance this is one pass per table: every slot's
    /// bound is evaluated in `(tuple, column)` order and written through
    /// [`trapp_storage::Table::write_bounds`]. While the clock stands still
    /// only the slots installed since the last call are rewritten, so a
    /// query's second plan pass — and every further query in the same
    /// instant — pays O(changed) instead of O(objects). The written
    /// intervals are identical either way; numerically unchanged cells are
    /// skipped, so they also leave table versions (and thus memoized band
    /// views) untouched.
    pub fn materialize(&mut self) -> Result<(), TrappError> {
        let now = self.clock.now();
        if self.materialized_at == Some(now) {
            return self.materialize_dirty(now);
        }
        let catalog = self.session.catalog_mut();
        for t in self.store.tables() {
            let cells = t.slots.iter().filter_map(|s| {
                s.bound
                    .map(|bound| (s.tuple, s.column, bound.interval_at(now)))
            });
            catalog.table_mut(&t.name)?.write_bounds(cells)?;
        }
        self.store.clear_dirty();
        self.materialized_at = Some(now);
        Ok(())
    }

    /// Rewrites the dirty slots' cells at `now`. A slot leaves the dirty
    /// list only after its cell is written, so a failure leaves it (and
    /// everything not yet reached) dirty for the next call instead of
    /// silently skipped.
    fn materialize_dirty(&mut self, now: f64) -> Result<(), TrappError> {
        let dirty = self.store.take_dirty();
        let mut written = 0;
        let result = write_dirty(
            self.session.catalog_mut(),
            self.store.tables(),
            &dirty,
            now,
            &mut written,
        );
        self.store.restore_dirty(dirty, written);
        result
    }

    /// Executes a query from SQL text; see [`CacheNode::execute`].
    pub fn execute_query(
        &mut self,
        sql: &str,
        transport: &dyn Transport,
    ) -> Result<QueryResult, TrappError> {
        let query = trapp_sql::parse_query(sql)?;
        self.execute(&query, transport)
    }

    /// Executes a parsed query: materializes bounds at the current time,
    /// runs the `trapp-core` executor with a transport-backed oracle,
    /// installs the new bound functions received from sources, and updates
    /// statistics.
    pub fn execute(
        &mut self,
        query: &trapp_sql::Query,
        transport: &dyn Transport,
    ) -> Result<QueryResult, TrappError> {
        let result =
            self.with_oracle(transport, |session, oracle| session.execute(query, oracle))?;
        self.stats.queries += 1;
        self.stats.refresh_cost += result.refresh_cost;
        Ok(result)
    }

    /// Executes a parsed `GROUP BY` query through the same
    /// materialize/execute/install pipeline as [`CacheNode::execute`],
    /// returning one result per group in key-sorted order. Used as the
    /// locked fallback for grouped queries in iterative execution mode
    /// (batch mode plans grouped queries ahead via
    /// [`trapp_core::query_plan`] instead).
    pub fn execute_grouped(
        &mut self,
        query: &trapp_sql::Query,
        transport: &dyn Transport,
    ) -> Result<Vec<trapp_core::GroupResult>, TrappError> {
        let groups = self.with_oracle(transport, |session, oracle| {
            session.execute_grouped(query, oracle)
        })?;
        self.stats.queries += 1;
        self.stats.refresh_cost += groups.iter().map(|g| g.result.refresh_cost).sum::<f64>();
        Ok(groups)
    }

    /// Shared execution harness: materializes bounds, runs `f` with a
    /// transport-backed oracle, and installs the bound functions of every
    /// refresh that arrived — even on error paths (the exact values are
    /// already in the table; the bound functions must follow or the next
    /// materialization would resurrect stale bounds). Installs go through
    /// the same sequence-ordered path as [`CacheNode::install_refresh`].
    fn with_oracle<R>(
        &mut self,
        transport: &dyn Transport,
        f: impl FnOnce(&mut QuerySession, &mut SystemOracle) -> Result<R, TrappError>,
    ) -> Result<R, TrappError> {
        self.materialize()?;
        let mut oracle = SystemOracle {
            cache: self.id,
            now: self.clock.now(),
            store: &self.store,
            transport,
            batch: self.batch_refreshes,
            received: Vec::new(),
        };
        let result = f(&mut self.session, &mut oracle);
        let received = oracle.received;
        for refresh in &received {
            // The oracle only requests objects bound here, so an install
            // is either recorded or sequence-stale.
            if let Ok(Some(_)) = self.record_install(refresh) {
                self.stats.query_initiated += 1;
            }
        }
        result
    }
}

/// Writes each dirty slot's bound at `now` (`dirty` sorted by table, so
/// each table is resolved once), counting the slots written.
fn write_dirty(
    catalog: &mut trapp_storage::Catalog,
    tables: &[BoundTable],
    dirty: &[SlotRef],
    now: f64,
    written: &mut usize,
) -> Result<(), TrappError> {
    for run in dirty.chunk_by(|a, b| a.0 == b.0) {
        let t = &tables[run[0].0];
        let table = catalog.table_mut(&t.name)?;
        for &(_, index) in run {
            let slot = &t.slots[index];
            // Only installs dirty a slot, and they always leave a bound.
            if let Some(bound) = slot.bound {
                let cell = BoundedValue::Bounded(bound.interval_at(now));
                table.update_cell(slot.tuple, slot.column, cell)?;
            }
            *written += 1;
        }
    }
    Ok(())
}

/// The route of `slot` in bound table `table`.
fn route_of(table: usize, slot: &Slot) -> ObjectRoute {
    ObjectRoute {
        source: slot.source,
        table,
        tuple: slot.tuple,
        column: slot.column,
    }
}

/// The object backing `table[tuple].column` in `slots` (the table's bound
/// slots, if any), with its owning source.
fn object_at(
    slots: Option<&BoundTable>,
    table: &str,
    tuple: TupleId,
    column: usize,
) -> Result<(ObjectId, SourceId), TrappError> {
    slots
        .and_then(|t| t.slot(tuple, column))
        .map(|s| (s.object, s.source))
        .ok_or_else(|| {
            TrappError::RefreshFailed(format!(
                "no replicated object backs {table}[{tuple}].{column}"
            ))
        })
}

/// The transport-backed [`RefreshOracle`].
struct SystemOracle<'a> {
    cache: CacheId,
    now: f64,
    store: &'a BoundStore,
    transport: &'a dyn Transport,
    batch: bool,
    received: Vec<Refresh>,
}

impl RefreshOracle for SystemOracle<'_> {
    fn refresh(
        &mut self,
        table: &str,
        tid: TupleId,
        columns: &[usize],
    ) -> Result<Vec<f64>, TrappError> {
        let slots = self.store.table(table);
        let mut out = Vec::with_capacity(columns.len());
        for &column in columns {
            let (object, source) = object_at(slots, table, tid, column)?;
            let refresh = self
                .transport
                .request_refresh(source, self.cache, object, self.now)?;
            out.push(refresh.value);
            self.received.push(refresh);
        }
        Ok(out)
    }

    /// Serves a whole refresh plan with one round-trip per source: the
    /// plan's `(tuple, column)` cells are resolved to objects, grouped by
    /// owning source, fetched via [`Transport::request_refresh_batch`],
    /// and scattered back into per-tuple value rows.
    fn refresh_batch(
        &mut self,
        table: &str,
        tids: &[TupleId],
        columns: &[usize],
    ) -> Result<Vec<Vec<f64>>, TrappError> {
        if !self.batch {
            // Per-object baseline: identical traffic shape to the seed.
            return tids
                .iter()
                .map(|&tid| self.refresh(table, tid, columns))
                .collect();
        }
        // Resolve every cell up front; slot maps (tuple row, column slot)
        // to its position in the per-source request vectors.
        let bound_slots = self.store.table(table);
        let mut per_source: HashMap<SourceId, Vec<ObjectId>> = HashMap::new();
        let mut slots: Vec<Vec<(SourceId, usize)>> = Vec::with_capacity(tids.len());
        for &tid in tids {
            let mut row = Vec::with_capacity(columns.len());
            for &column in columns {
                let (object, source) = object_at(bound_slots, table, tid, column)?;
                let bucket = per_source.entry(source).or_default();
                bucket.push(object);
                row.push((source, bucket.len() - 1));
            }
            slots.push(row);
        }
        // One round-trip per source. BTree order keeps the request
        // sequence deterministic.
        let ordered: std::collections::BTreeMap<SourceId, Vec<ObjectId>> =
            per_source.into_iter().collect();
        let mut responses: HashMap<SourceId, Vec<Refresh>> = HashMap::new();
        for (source, objects) in ordered {
            let refreshes = self
                .transport
                .request_refresh_batch(source, self.cache, &objects, self.now)?;
            if refreshes.len() != objects.len() {
                return Err(TrappError::RefreshFailed(format!(
                    "source {source} returned {} refreshes for {} objects",
                    refreshes.len(),
                    objects.len()
                )));
            }
            // Record each source's refreshes the moment they arrive: if a
            // *later* source's batch fails, these have still mutated their
            // source's monitor state, and the error-path install in
            // `execute` must see them or cache and monitor diverge.
            self.received.extend(refreshes.iter().copied());
            responses.insert(source, refreshes);
        }
        let out = slots
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(source, idx)| responses[&source][idx].value)
                    .collect()
            })
            .collect();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::Source;
    use crate::transport::DirectTransport;
    use trapp_bounds::{BoundFunction, BoundShape};
    use trapp_storage::{ColumnDef, Schema, Table};
    use trapp_types::{Value, ValueType};

    /// One source, one cache, two objects backing a 2-row table.
    fn setup() -> (SimClock, CacheNode, DirectTransport) {
        let clock = SimClock::new();
        let mut cache = CacheNode::new(CacheId::new(1), clock.clone());

        let schema = Schema::new(vec![
            ColumnDef::exact("name", ValueType::Str),
            ColumnDef::bounded_float("temp"),
        ])
        .unwrap();
        let mut table = Table::new("sensors", schema);
        let t1 = table
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Str("a".into())),
                    BoundedValue::bounded(0.0, 0.0).unwrap(),
                ],
                2.0,
            )
            .unwrap();
        let t2 = table
            .insert_with_cost(
                vec![
                    BoundedValue::Exact(Value::Str("b".into())),
                    BoundedValue::bounded(0.0, 0.0).unwrap(),
                ],
                3.0,
            )
            .unwrap();
        cache.add_table(table).unwrap();

        let mut source = Source::new(SourceId::new(1), BoundShape::Sqrt);
        source.register_object(ObjectId::new(1), 20.0).unwrap();
        source.register_object(ObjectId::new(2), 25.0).unwrap();

        cache
            .bind_object(ObjectId::new(1), SourceId::new(1), "sensors", t1, 1)
            .unwrap();
        cache
            .bind_object(ObjectId::new(2), SourceId::new(1), "sensors", t2, 1)
            .unwrap();

        let mut transport = DirectTransport::new();
        let src = transport.add_source(source);
        {
            let mut s = src.lock();
            for obj in [ObjectId::new(1), ObjectId::new(2)] {
                let r = s.subscribe(CacheId::new(1), obj, 1.0, 0.0).unwrap();
                cache.install_refresh(r).unwrap();
            }
        }
        (clock, cache, transport)
    }

    #[test]
    fn materialization_widens_with_time() {
        let (clock, mut cache, _t) = setup();
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        assert_eq!(t.interval(TupleId::new(1), 1).unwrap().width(), 0.0);

        clock.advance(4.0);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        // ±1·√4 = ±2 → width 4.
        assert_eq!(t.interval(TupleId::new(1), 1).unwrap().width(), 4.0);
    }

    #[test]
    fn query_from_cache_alone_when_precision_allows() {
        let (clock, mut cache, transport) = setup();
        clock.advance(4.0);
        let r = cache
            .execute_query("SELECT SUM(temp) WITHIN 10 FROM sensors", &transport)
            .unwrap();
        // Total width = 8 ≤ 10: no refreshes.
        assert!(r.satisfied);
        assert!(r.refreshed.is_empty());
        assert_eq!(transport.messages(), 0);
        assert_eq!(r.answer.range.midpoint(), 45.0);
    }

    #[test]
    fn tight_precision_pulls_query_initiated_refreshes() {
        let (clock, mut cache, transport) = setup();
        clock.advance(4.0);
        let r = cache
            .execute_query("SELECT SUM(temp) WITHIN 1 FROM sensors", &transport)
            .unwrap();
        assert!(r.satisfied);
        assert!(!r.refreshed.is_empty());
        assert!(transport.messages() > 0);
        assert_eq!(cache.stats().query_initiated, r.refreshed.len() as u64);
        // Exact answer: 20 + 25.
        assert!(r.answer.range.contains(45.0));
        assert!(r.answer.width() <= 1.0);
    }

    #[test]
    fn value_initiated_refresh_updates_cache() {
        let (clock, mut cache, transport) = setup();
        clock.advance(1.0);
        // Push an escaping update through the source.
        let src = transport.source(SourceId::new(1)).unwrap();
        let refreshes = src
            .lock()
            .apply_update(ObjectId::new(1), 50.0, clock.now())
            .unwrap();
        assert_eq!(refreshes.len(), 1);
        for (cache_id, r) in refreshes {
            assert_eq!(cache_id, CacheId::new(1));
            cache.install_refresh(r).unwrap();
        }
        assert_eq!(cache.stats().value_initiated, 1);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        let iv = t.interval(TupleId::new(1), 1).unwrap();
        assert!(iv.contains(50.0));
        assert!(iv.is_point()); // refreshed at the current instant
    }

    #[test]
    fn binding_validates_cells() {
        let (_c, mut cache, _t) = setup();
        // Column 0 is exact.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "sensors",
                TupleId::new(1),
                0
            )
            .is_err());
        // Unknown tuple.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "sensors",
                TupleId::new(99),
                1
            )
            .is_err());
        // Unknown table.
        assert!(cache
            .bind_object(
                ObjectId::new(9),
                SourceId::new(1),
                "nope",
                TupleId::new(1),
                1
            )
            .is_err());
    }

    #[test]
    fn routes_and_cell_lookups_follow_rebinding() {
        let (_c, mut cache, _t) = setup();
        let (t1, t2) = (TupleId::new(1), TupleId::new(2));
        let route = cache.route(ObjectId::new(1)).unwrap();
        assert_eq!((route.tuple, route.column), (t1, 1));
        assert_eq!(cache.bound_table_name(route.table), Some("sensors"));
        assert_eq!(
            cache.objects_backing("sensors", t2).unwrap(),
            vec![(ObjectId::new(2), SourceId::new(1))]
        );

        // Rebinding a cell replaces its object; the old one is unbound.
        cache
            .bind_object(ObjectId::new(3), SourceId::new(2), "sensors", t2, 1)
            .unwrap();
        assert!(cache.route(ObjectId::new(2)).is_none());
        assert_eq!(
            cache.objects_backing("sensors", t2).unwrap(),
            vec![(ObjectId::new(3), SourceId::new(2))]
        );
        let dark: HashSet<SourceId> = [SourceId::new(2)].into();
        let on_dark: Vec<_> = cache.tuples_on_sources(&dark).collect();
        assert_eq!(on_dark, vec![("sensors", t2)]);

        // Moving an object leaves its old cell unbacked.
        cache
            .bind_object(ObjectId::new(1), SourceId::new(1), "sensors", t2, 1)
            .unwrap();
        assert!(cache.objects_backing("sensors", t1).is_err());
        let objects: Vec<ObjectId> = cache.objects().map(|(o, _)| o).collect();
        assert_eq!(objects, vec![ObjectId::new(1)]);
    }

    #[test]
    fn refreshes_for_unbound_objects_fail() {
        let (_c, mut cache, _t) = setup();
        let r = Refresh {
            object: ObjectId::new(42),
            value: 1.0,
            bound: BoundFunction::exact(1.0, 0.0).unwrap(),
            kind: RefreshKind::ValueInitiated,
            seq: 0,
        };
        assert!(cache.install_refresh(r).is_err());
    }

    /// Installs are ordered by [`Refresh::seq`]: a refresh that arrives
    /// after a newer one for the same object (a fetch racing an update)
    /// must not regress the cache behind the monitor's tracked bound.
    #[test]
    fn stale_refresh_installs_are_skipped() {
        let (clock, mut cache, transport) = setup();
        clock.advance(1.0);
        let src = transport.source(SourceId::new(1)).unwrap();

        // A query refresh is served first (seq k)…
        let older = src
            .lock()
            .serve_refresh(CacheId::new(1), ObjectId::new(1), 1.0)
            .unwrap();
        // …then an escaping update issues a newer bound (seq k+1), which
        // reaches the cache *before* the query refresh does.
        let newer = src
            .lock()
            .apply_update(ObjectId::new(1), 500.0, 1.0)
            .unwrap()
            .remove(0)
            .1;
        assert!(newer.seq > older.seq);
        cache.install_refresh(newer).unwrap();
        cache.install_refresh(older).unwrap(); // late arrival: skipped

        assert_eq!(cache.stats().stale_skipped, 1);
        cache.materialize().unwrap();
        let t = cache.session().catalog().table("sensors").unwrap();
        let iv = t.interval(TupleId::new(1), 1).unwrap();
        assert!(
            iv.contains(500.0),
            "stale install must not evict the newer bound: {iv}"
        );

        // Same-seq duplicates (coalesced installs) remain idempotent.
        cache.install_refresh(newer).unwrap();
        assert_eq!(cache.stats().stale_skipped, 1);
    }
}
