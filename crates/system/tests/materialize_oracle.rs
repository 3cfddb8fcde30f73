//! Property test: `CacheNode::materialize` (the table-ordered bound store
//! with its one-pass-per-table write) leaves every cached table exactly
//! as a per-object oracle does — the eager evaluation that writes each
//! bound object's `BoundFunction::interval_at(now)` into its cell with
//! `Table::update_cell`, every object after a clock advance and only the
//! freshly installed ones while the clock stands still.
//!
//! Operations interleave binds (including rebinding a cell and moving an
//! object), installs (including sequence-stale and same-sequence
//! duplicates), clock advances, and repeated materializations at an
//! unchanged instant.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use trapp_bounds::{BoundFunction, BoundShape};
use trapp_storage::{ColumnDef, Schema, Table};
use trapp_system::{CacheNode, Refresh, RefreshKind, SimClock};
use trapp_types::{BoundedValue, CacheId, ObjectId, SourceId, TupleId, Value, ValueType};

/// `(table, rows, bounded columns)` of the cached tables.
const TABLES: [(&str, u64, &[usize]); 2] = [("wide", 6, &[1, 2]), ("narrow", 4, &[1])];
const OBJECTS: u64 = 14;

type Cell = (&'static str, TupleId, usize);

#[derive(Clone, Debug)]
enum Op {
    Bind {
        object: u64,
        table: usize,
        row: u64,
        pick: usize,
    },
    Install {
        object: u64,
        seq: u64,
        value: f64,
        width: f64,
        age: f64,
    },
    /// Re-delivers the last refresh installed for `object` (same seq).
    Duplicate {
        object: u64,
    },
    Advance {
        dt: f64,
    },
    Materialize,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1..=OBJECTS, 0usize..2, 1u64..=6, 0usize..2)
            .prop_map(|(object, table, row, pick)| Op::Bind { object, table, row, pick }),
        5 => (1..=OBJECTS, 0u64..6, -100.0f64..100.0, 0.0f64..3.0, 0.0f64..2.0)
            .prop_map(|(object, seq, value, width, age)| Op::Install { object, seq, value, width, age }),
        1 => (1..=OBJECTS).prop_map(|object| Op::Duplicate { object }),
        2 => (0.0f64..4.0).prop_map(|dt| Op::Advance { dt }),
        3 => Just(Op::Materialize),
    ]
}

/// The per-object oracle: bindings and bounds kept the way the cache
/// documents them, and the eager per-object write.
#[derive(Default)]
struct Oracle {
    /// Backed cells → their object, bound and last installed seq.
    cells: BTreeMap<Cell, (ObjectId, Option<BoundFunction>, Option<u64>)>,
    object_cell: BTreeMap<ObjectId, Cell>,
    last_install: BTreeMap<ObjectId, Refresh>,
    dirty: BTreeSet<Cell>,
    materialized_at: Option<f64>,
}

impl Oracle {
    fn bind(&mut self, object: ObjectId, cell: Cell) {
        if let Some(&old) = self.object_cell.get(&object) {
            if old == cell {
                return;
            }
            // Moving an object leaves its old cell unbacked.
            self.cells.remove(&old);
            self.dirty.remove(&old);
        }
        match self.cells.get_mut(&cell) {
            Some(entry) => {
                // Rebinding a cell keeps its bound until the new object's
                // first install.
                self.object_cell.remove(&entry.0);
                *entry = (object, entry.1, None);
            }
            None => {
                self.cells.insert(cell, (object, None, None));
            }
        }
        self.object_cell.insert(object, cell);
    }

    /// Returns the cell to pin, or `None` for a skipped install.
    fn install(&mut self, refresh: &Refresh) -> Option<Cell> {
        let cell = *self.object_cell.get(&refresh.object)?;
        let entry = self.cells.get_mut(&cell).expect("bound object has a cell");
        if entry.2.is_some_and(|last| refresh.seq < last) {
            return None;
        }
        entry.1 = Some(refresh.bound);
        entry.2 = Some(refresh.seq);
        self.dirty.insert(cell);
        self.last_install.insert(refresh.object, *refresh);
        Some(cell)
    }

    fn materialize(&mut self, tables: &mut BTreeMap<&'static str, Table>, now: f64) {
        let cells: Vec<Cell> = if self.materialized_at == Some(now) {
            self.dirty.iter().copied().collect()
        } else {
            self.cells.keys().copied().collect()
        };
        for (table, tuple, column) in cells {
            if let Some(bound) = self.cells[&(table, tuple, column)].1 {
                tables
                    .get_mut(table)
                    .unwrap()
                    .update_cell(tuple, column, BoundedValue::Bounded(bound.interval_at(now)))
                    .unwrap();
            }
        }
        self.dirty.clear();
        self.materialized_at = Some(now);
    }
}

fn tables() -> BTreeMap<&'static str, Table> {
    TABLES
        .iter()
        .map(|&(name, rows, bounded)| {
            let mut columns = vec![ColumnDef::exact("id", ValueType::Int)];
            for &c in bounded {
                columns.push(ColumnDef::bounded_float(format!("v{c}")));
            }
            let mut t = Table::new(name, Schema::new(columns).unwrap());
            for i in 0..rows {
                let mut cells = vec![BoundedValue::Exact(Value::Int(i as i64))];
                cells.extend(
                    bounded
                        .iter()
                        .map(|_| BoundedValue::bounded(0.0, 1.0).unwrap()),
                );
                t.insert(cells).unwrap();
            }
            (name, t)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn materialize_matches_per_object_oracle(ops in proptest::collection::vec(arb_op(), 1..80)) {
        let clock = SimClock::new();
        let mut cache = CacheNode::new(CacheId::new(1), clock.clone());
        let mut expected = tables();
        for t in expected.values() {
            cache.add_table(t.clone()).unwrap();
        }
        let mut oracle = Oracle::default();

        for op in ops {
            match op {
                Op::Bind { object, table, row, pick } => {
                    let (name, rows, bounded) = TABLES[table];
                    let cell = (name, TupleId::new(row.min(rows)), bounded[pick % bounded.len()]);
                    let object = ObjectId::new(object);
                    let source = SourceId::new(object.raw() % 3);
                    cache.bind_object(object, source, cell.0, cell.1, cell.2).unwrap();
                    prop_assert_eq!(
                        cache.route(object).map(|r| (r.tuple, r.column, r.source)),
                        Some((cell.1, cell.2, source))
                    );
                    oracle.bind(object, cell);
                }
                Op::Install { object, seq, value, width, age } => {
                    let now = clock.now();
                    let refreshed_at = now - age;
                    let refresh = Refresh {
                        object: ObjectId::new(object),
                        value,
                        bound: BoundFunction::new(value, width, refreshed_at, BoundShape::Sqrt)
                            .unwrap(),
                        kind: RefreshKind::ValueInitiated,
                        seq,
                    };
                    let result = cache.install_refresh(refresh);
                    let bound_here = oracle.object_cell.contains_key(&refresh.object);
                    prop_assert_eq!(result.is_ok(), bound_here);
                    if let Some((table, tuple, column)) = oracle.install(&refresh) {
                        expected.get_mut(table).unwrap().refresh_cell(tuple, column, value).unwrap();
                    }
                }
                Op::Duplicate { object } => {
                    let Some(&refresh) = oracle.last_install.get(&ObjectId::new(object)) else {
                        continue;
                    };
                    if !oracle.object_cell.contains_key(&refresh.object) {
                        continue;
                    }
                    cache.install_refresh(refresh).unwrap();
                    if let Some((table, tuple, column)) = oracle.install(&refresh) {
                        expected.get_mut(table).unwrap().refresh_cell(tuple, column, refresh.value).unwrap();
                    }
                }
                Op::Advance { dt } => clock.advance(dt),
                Op::Materialize => {
                    let now = clock.now();
                    cache.materialize().unwrap();
                    oracle.materialize(&mut expected, now);
                    // Every backed cell with a bound holds its interval at
                    // `now`, or the exact pin equal to it.
                    for (&(table, tuple, column), &(_, bound, _)) in &oracle.cells {
                        if let Some(bound) = bound {
                            let got = cache.session().catalog().table(table).unwrap()
                                .interval(tuple, column).unwrap();
                            prop_assert_eq!(got, bound.interval_at(now));
                        }
                    }
                }
            }
            for (name, want) in &expected {
                let got = cache.session().catalog().table(name).unwrap();
                prop_assert_eq!(got.version(), want.version(), "table {}", name);
                prop_assert_eq!(got.exact_version(), want.exact_version());
                let got_rows: Vec<_> = got.scan().map(|(t, r)| (t, r.clone())).collect();
                let want_rows: Vec<_> = want.scan().map(|(t, r)| (t, r.clone())).collect();
                prop_assert_eq!(got_rows, want_rows, "table {}", name);
            }
        }
    }
}
