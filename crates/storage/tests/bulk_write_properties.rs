//! Property test: the bulk bound write `Table::write_bounds` is
//! bit-identical to applying the same cells one by one through
//! `Table::update_cell` — same cells, versions, change log and index
//! contents, and the same error at the same point.

use proptest::prelude::*;
use trapp_storage::{ColumnDef, IndexKey, OrderedIndex, Schema, Table};
use trapp_types::{BoundedValue, Interval, OrderedF64, TrappError, TupleId, Value, ValueType};

const ROWS: u64 = 12;

/// One cell of a batch: which tuple and column, and what to write.
#[derive(Clone, Debug)]
enum Write {
    /// A fresh bound `[lo, lo + width]`.
    Fresh { lo: f64, width: f64 },
    /// The cell's current interval again (a numeric no-op, also when the
    /// cell is a pinned `Exact`).
    Same,
}

fn arb_cell() -> impl Strategy<Value = (u64, usize, Write)> {
    let write = prop_oneof![
        3 => (-50.0f64..50.0, 0.0f64..20.0).prop_map(|(lo, width)| Write::Fresh { lo, width }),
        1 => Just(Write::Same),
    ];
    // Tuple ids past ROWS are unknown; column 3 is out of range and
    // column 0 is exact — all three must fail exactly like update_cell.
    let tuple = prop_oneof![20 => 1..=ROWS, 1 => (ROWS + 1)..=(ROWS + 3)];
    let column = prop_oneof![20 => 1usize..=2, 1 => Just(0usize), 1 => Just(3usize)];
    (tuple, column, write)
}

/// A table with two bounded columns and the default index set, some of
/// whose cells are pinned to exact values.
fn table(pins: &[(u64, usize, f64)]) -> Table {
    let schema = Schema::new(vec![
        ColumnDef::exact("id", ValueType::Int),
        ColumnDef::bounded_float("x"),
        ColumnDef::bounded_float("y"),
    ])
    .unwrap();
    let mut t = Table::new("t", schema);
    for i in 0..ROWS {
        let base = i as f64;
        t.insert_with_cost(
            vec![
                BoundedValue::Exact(Value::Int(i as i64)),
                BoundedValue::bounded(base, base + 1.0).unwrap(),
                BoundedValue::bounded(-base, 2.0).unwrap(),
            ],
            1.0 + base,
        )
        .unwrap();
    }
    t.create_default_indexes().unwrap();
    for &(tuple, column, value) in pins {
        t.refresh_cell(TupleId::new(tuple), column, value).unwrap();
    }
    t
}

fn index_contents(t: &Table, key: IndexKey) -> Vec<(OrderedF64, TupleId)> {
    t.index(key)
        .map(|ix: &OrderedIndex| ix.ascending().collect())
        .unwrap_or_default()
}

fn error_kind(e: &TrappError) -> String {
    format!("{e:?}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bulk_write_matches_per_cell_updates(
        pins in proptest::collection::vec((1..=ROWS, 1usize..=2, -20.0f64..20.0), 0..8),
        cells in proptest::collection::vec(arb_cell(), 0..40),
        sorted in any::<bool>(),
    ) {
        let mut bulk = table(&pins);
        let mut serial = bulk.clone();
        let since = bulk.version();

        let mut batch: Vec<(TupleId, usize, Interval)> = cells
            .iter()
            .map(|(tuple, column, write)| {
                let tid = TupleId::new(*tuple);
                let iv = match write {
                    Write::Fresh { lo, width } => Interval::new(*lo, lo + width).unwrap(),
                    Write::Same => bulk
                        .interval(tid, *column)
                        .unwrap_or_else(|_| Interval::new(0.0, 1.0).unwrap()),
                };
                (tid, *column, iv)
            })
            .collect();
        if sorted {
            batch.sort_by_key(|&(tid, column, _)| (tid, column));
        }

        let bulk_result = bulk.write_bounds(batch.iter().copied());
        let mut serial_result = Ok(());
        for &(tid, column, iv) in &batch {
            if let Err(e) = serial.update_cell(tid, column, BoundedValue::Bounded(iv)) {
                serial_result = Err(e);
                break;
            }
        }
        prop_assert_eq!(
            bulk_result.as_ref().map_err(error_kind),
            serial_result.as_ref().map_err(error_kind)
        );

        prop_assert_eq!(bulk.version(), serial.version());
        prop_assert_eq!(bulk.exact_version(), serial.exact_version());
        let bulk_rows: Vec<_> = bulk.scan().map(|(t, r)| (t, r.clone())).collect();
        let serial_rows: Vec<_> = serial.scan().map(|(t, r)| (t, r.clone())).collect();
        prop_assert_eq!(bulk_rows, serial_rows);
        for column in [1, 2] {
            for key in [
                IndexKey::Lo { column },
                IndexKey::Hi { column },
                IndexKey::Width { column },
            ] {
                prop_assert_eq!(index_contents(&bulk, key), index_contents(&serial, key));
            }
        }
        prop_assert_eq!(
            index_contents(&bulk, IndexKey::Cost),
            index_contents(&serial, IndexKey::Cost)
        );
        prop_assert_eq!(bulk.changes_since(since), serial.changes_since(since));
    }
}
