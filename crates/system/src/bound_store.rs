//! The cache's bound store: which replicated object backs each bounded
//! cell, its owning source, and the bound function last installed for it.
//!
//! Each cached table with bound objects gets a small table id and one
//! vector of [`Slot`]s kept in `(tuple, column)` order — the order of the
//! table's rows — so materializing a table's bounds is one sequential pass
//! that feeds [`trapp_storage::Table::write_bounds`]. One `ObjectId → slot`
//! map serves installs and routing; cell → object lookups are a binary
//! search in the table's slots, with the table name resolved once per
//! call rather than once per cell.

use std::collections::HashMap;

use trapp_bounds::BoundFunction;
use trapp_types::{ObjectId, SourceId, TupleId};

use crate::message::Refresh;

/// One bounded cell and the replicated object behind it.
#[derive(Debug)]
pub(crate) struct Slot {
    pub(crate) tuple: TupleId,
    pub(crate) column: usize,
    pub(crate) object: ObjectId,
    pub(crate) source: SourceId,
    /// The current bound function; `None` until the first install.
    pub(crate) bound: Option<BoundFunction>,
    /// [`Refresh::seq`] of the last install; `None` before the first.
    installed_seq: Option<u64>,
    /// Listed in [`BoundStore::dirty`] (keeps that list duplicate-free).
    dirty: bool,
}

/// One cached table's slots, in `(tuple, column)` order.
#[derive(Debug)]
pub(crate) struct BoundTable {
    pub(crate) name: String,
    pub(crate) slots: Vec<Slot>,
}

impl BoundTable {
    /// The slot of `(tuple, column)`, if bound.
    pub(crate) fn slot(&self, tuple: TupleId, column: usize) -> Option<&Slot> {
        self.position(tuple, column).ok().map(|i| &self.slots[i])
    }

    fn position(&self, tuple: TupleId, column: usize) -> Result<usize, usize> {
        self.slots
            .binary_search_by(|s| (s.tuple, s.column).cmp(&(tuple, column)))
    }
}

/// A slot's address: `(table id, index in that table's slots)`.
pub(crate) type SlotRef = (usize, usize);

/// What an install did.
pub(crate) enum Install {
    /// The bound was recorded for this slot (now dirty).
    Recorded(SlotRef),
    /// The refresh's sequence is behind the last installed one.
    Stale,
    /// The object backs no cell here.
    Unbound,
}

/// Every bound object of one cache, table-ordered; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct BoundStore {
    tables: Vec<BoundTable>,
    by_object: HashMap<ObjectId, SlotRef>,
    /// Slots whose bound changed since they were last materialized.
    dirty: Vec<SlotRef>,
}

impl BoundStore {
    /// The tables, indexed by table id.
    pub(crate) fn tables(&self) -> &[BoundTable] {
        &self.tables
    }

    /// The id of `table`, if any object is bound in it.
    fn table_id(&self, table: &str) -> Option<usize> {
        self.tables.iter().position(|t| t.name == table)
    }

    /// The slots of `table`, if any object is bound in it.
    pub(crate) fn table(&self, table: &str) -> Option<&BoundTable> {
        self.tables.iter().find(|t| t.name == table)
    }

    /// The slot `object` is bound to.
    pub(crate) fn slot_of(&self, object: ObjectId) -> Option<(usize, &Slot)> {
        let &(table, index) = self.by_object.get(&object)?;
        Some((table, &self.tables[table].slots[index]))
    }

    /// Binds `object` to `table[tuple].column`. Rebinding a cell replaces
    /// its object (the cell keeps its current bound until the new object's
    /// first install); rebinding an object moves it, leaving its old cell
    /// unbacked.
    pub(crate) fn bind(
        &mut self,
        object: ObjectId,
        source: SourceId,
        table: &str,
        tuple: TupleId,
        column: usize,
    ) {
        if let Some(&(t, index)) = self.by_object.get(&object) {
            let bound_table = &mut self.tables[t];
            let slot = &mut bound_table.slots[index];
            if bound_table.name == table && (slot.tuple, slot.column) == (tuple, column) {
                slot.source = source;
                return;
            }
            self.by_object.remove(&object);
            bound_table.slots.remove(index);
            self.reindex(t, index);
        }
        let t = match self.table_id(table) {
            Some(t) => t,
            None => {
                self.tables.push(BoundTable {
                    name: table.to_owned(),
                    slots: Vec::new(),
                });
                self.tables.len() - 1
            }
        };
        let bound_table = &mut self.tables[t];
        match bound_table.position(tuple, column) {
            Ok(index) => {
                let slot = &mut bound_table.slots[index];
                self.by_object.remove(&slot.object);
                slot.object = object;
                slot.source = source;
                slot.installed_seq = None;
                self.by_object.insert(object, (t, index));
            }
            Err(index) => {
                bound_table.slots.insert(
                    index,
                    Slot {
                        tuple,
                        column,
                        object,
                        source,
                        bound: None,
                        installed_seq: None,
                        dirty: false,
                    },
                );
                // Bindings arrive in row order, so this is normally an
                // append, which shifts no other slot.
                if index + 1 == bound_table.slots.len() {
                    self.by_object.insert(object, (t, index));
                } else {
                    self.reindex(t, index);
                }
            }
        }
    }

    /// Re-derives the object map and dirty list of table `t` from slot
    /// `from` on, after a slot was inserted or removed there.
    fn reindex(&mut self, t: usize, from: usize) {
        let slots = &self.tables[t].slots;
        for (index, slot) in slots.iter().enumerate().skip(from) {
            self.by_object.insert(slot.object, (t, index));
        }
        if self.dirty.iter().any(|&(dt, i)| dt == t && i >= from) {
            self.dirty.retain(|&(dt, _)| dt != t);
            self.dirty.extend(
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.dirty)
                    .map(|(i, _)| (t, i)),
            );
        }
    }

    /// Records `refresh`'s bound for its object's slot unless the refresh
    /// is sequence-stale (see [`Refresh::seq`]); same-sequence duplicates
    /// re-install idempotently.
    pub(crate) fn install(&mut self, refresh: &Refresh) -> Install {
        let Some(&(t, index)) = self.by_object.get(&refresh.object) else {
            return Install::Unbound;
        };
        let slot = &mut self.tables[t].slots[index];
        if slot.installed_seq.is_some_and(|last| refresh.seq < last) {
            return Install::Stale;
        }
        slot.installed_seq = Some(refresh.seq);
        slot.bound = Some(refresh.bound);
        if !slot.dirty {
            slot.dirty = true;
            self.dirty.push((t, index));
        }
        Install::Recorded((t, index))
    }

    /// Takes the dirty list, sorted table by table in `(tuple, column)`
    /// order. Hand the unwritten tail back with [`BoundStore::restore_dirty`].
    pub(crate) fn take_dirty(&mut self) -> Vec<SlotRef> {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty
    }

    /// Returns `dirty[written..]` to the dirty list and marks the first
    /// `written` slots clean.
    pub(crate) fn restore_dirty(&mut self, mut dirty: Vec<SlotRef>, written: usize) {
        for &(t, index) in &dirty[..written] {
            self.tables[t].slots[index].dirty = false;
        }
        dirty.drain(..written);
        self.dirty = dirty;
    }

    /// Marks every slot clean (after a full materialization).
    pub(crate) fn clear_dirty(&mut self) {
        let dirty = std::mem::take(&mut self.dirty);
        let written = dirty.len();
        self.restore_dirty(dirty, written);
    }

    /// The `(table name, tuple, column)` of slot `at`.
    pub(crate) fn cell(&self, (t, index): SlotRef) -> (&str, TupleId, usize) {
        let table = &self.tables[t];
        let slot = &table.slots[index];
        (&table.name, slot.tuple, slot.column)
    }
}
