//! The VM heap: objects, arrays, strings, status words, byte accounting.
//!
//! Two details exist specifically for the SOD reproduction:
//!
//! * every object carries an [`ObjStatus`] word. In normal execution it is
//!   `Local`. The *status-checking* baseline (the traditional object-based
//!   DSM approach the paper compares against, e.g. JavaSplit) injects an
//!   explicit check of this word before every access; the SOD *object
//!   faulting* approach never reads it on the fast path.
//! * every object tracks its `home_id` — the identity of its master copy on
//!   the home node after a migration. Fetched copies are cache entries; the
//!   object manager uses `home_id` to resolve nested faults and to write
//!   dirty objects back.
//!
//! The heap also maintains a running byte total so a node memory budget can
//! trigger guest `OutOfMemoryError`s (the paper's exception-driven offload).

use std::collections::HashMap;
use std::sync::Arc;

use crate::class::ExKind;
use crate::error::{VmError, VmResult};
use crate::value::{ObjId, Value};

/// Cache status of a heap object (one machine word in the model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjStatus {
    /// Master copy, or an up-to-date cached copy.
    Local,
    /// Known-stale cached copy; must be refetched before use (only the
    /// status-checking baseline materialises objects in this state).
    Invalid,
}

/// Payload of a heap entry.
#[derive(Clone, Debug, PartialEq)]
pub enum ObjKind {
    /// A class instance; `fields` uses the class's instance-field layout.
    /// The class name is a shared `Arc<str>`: allocating an instance clones
    /// a pointer from the loaded class (no per-`New` string allocation), and
    /// the interpreter's inline caches validate field/method resolutions
    /// with a pointer comparison against the canonical per-class `Arc`.
    Obj { class: Arc<str>, fields: Vec<Value> },
    /// An array of value slots.
    Arr { elems: Vec<Value> },
    /// An immutable string.
    Str(String),
    /// A guest exception object.
    Exception { kind: ExKind, message: String },
}

/// One heap entry.
#[derive(Clone, Debug, PartialEq)]
pub struct HeapObj {
    pub kind: ObjKind,
    pub status: ObjStatus,
    /// Identity of the master copy on the home node (home's `ObjId`), when
    /// this entry is a migrated-in cache copy. Private: every write goes
    /// through [`Heap::set_home_id`], which keeps the heap's home-id index
    /// in step; read it with [`HeapObj::home_id`].
    home_id: Option<ObjId>,
    /// Set by `PutField`/`AStore` after a migration restore; dirty objects
    /// are flushed home when the migrated segment completes.
    pub dirty: bool,
}

impl HeapObj {
    fn new(kind: ObjKind) -> Self {
        HeapObj {
            kind,
            status: ObjStatus::Local,
            home_id: None,
            dirty: false,
        }
    }

    /// Identity of the master copy this entry caches, if any.
    pub fn home_id(&self) -> Option<ObjId> {
        self.home_id
    }

    /// Heap bytes charged for this entry (object header modelled at 16 B).
    pub fn size_bytes(&self) -> u64 {
        const HEADER: u64 = 16;
        match &self.kind {
            ObjKind::Obj { fields, .. } => HEADER + fields.len() as u64 * Value::SLOT_BYTES,
            ObjKind::Arr { elems } => HEADER + elems.len() as u64 * Value::SLOT_BYTES,
            ObjKind::Str(s) => HEADER + s.len() as u64,
            ObjKind::Exception { message, .. } => HEADER + message.len() as u64,
        }
    }

    /// Class name for instances, pseudo-class names for built-ins.
    pub fn class_name(&self) -> &str {
        match &self.kind {
            ObjKind::Obj { class, .. } => class,
            ObjKind::Arr { .. } => "[array]",
            ObjKind::Str(_) => "[string]",
            ObjKind::Exception { .. } => "[exception]",
        }
    }
}

/// The heap of one VM.
#[derive(Clone, Debug, Default)]
pub struct Heap {
    entries: Vec<HeapObj>,
    used_bytes: u64,
    /// Running count of allocations, for metrics.
    allocs: u64,
    /// `home_id → lowest local id` caching it: the answer the first-match
    /// scan over `entries` would give, kept in O(1) by
    /// [`Heap::set_home_id`] (the only writer of `home_id`).
    by_home: HashMap<ObjId, ObjId>,
}

impl Heap {
    pub fn new() -> Self {
        Heap::default()
    }

    /// Total live bytes (we never free: programs under test are bounded and
    /// the paper's experiments do not depend on GC).
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    pub fn alloc_count(&self) -> u64 {
        self.allocs
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn alloc(&mut self, obj: HeapObj) -> ObjId {
        self.used_bytes += obj.size_bytes();
        self.allocs += 1;
        self.entries.push(obj);
        (self.entries.len() - 1) as ObjId
    }

    /// Allocate a class instance with the given field values.
    pub fn alloc_obj(&mut self, class: impl Into<Arc<str>>, fields: Vec<Value>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Obj {
            class: class.into(),
            fields,
        }))
    }

    /// Allocate an array of `len` zero ints.
    pub fn alloc_arr(&mut self, len: usize) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Arr {
            elems: vec![Value::Int(0); len],
        }))
    }

    /// Allocate an array from existing elements.
    pub fn alloc_arr_from(&mut self, elems: Vec<Value>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Arr { elems }))
    }

    /// Allocate a string.
    pub fn alloc_str(&mut self, s: impl Into<String>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Str(s.into())))
    }

    /// Allocate a guest exception object.
    pub fn alloc_exception(&mut self, kind: ExKind, message: impl Into<String>) -> ObjId {
        self.alloc(HeapObj::new(ObjKind::Exception {
            kind,
            message: message.into(),
        }))
    }

    pub fn get(&self, id: ObjId) -> VmResult<&HeapObj> {
        self.entries.get(id as usize).ok_or(VmError::BadRef(id))
    }

    pub fn get_mut(&mut self, id: ObjId) -> VmResult<&mut HeapObj> {
        self.entries.get_mut(id as usize).ok_or(VmError::BadRef(id))
    }

    /// Read a string object.
    pub fn get_str(&self, id: ObjId) -> VmResult<&str> {
        match &self.get(id)?.kind {
            ObjKind::Str(s) => Ok(s),
            _ => Err(VmError::TypeMismatch {
                expected: "string",
                found: "object",
            }),
        }
    }

    /// Read an array element with bounds checking.
    pub fn arr_get(&self, id: ObjId, idx: i64) -> VmResult<Option<Value>> {
        match &self.get(id)?.kind {
            ObjKind::Arr { elems } => {
                if idx < 0 || idx as usize >= elems.len() {
                    Ok(None)
                } else {
                    Ok(Some(elems[idx as usize]))
                }
            }
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Write an array element with bounds checking. Returns false when out of
    /// bounds; marks the array dirty.
    pub fn arr_set(&mut self, id: ObjId, idx: i64, v: Value) -> VmResult<bool> {
        let obj = self.get_mut(id)?;
        match &mut obj.kind {
            ObjKind::Arr { elems } => {
                if idx < 0 || idx as usize >= elems.len() {
                    Ok(false)
                } else {
                    elems[idx as usize] = v;
                    obj.dirty = true;
                    Ok(true)
                }
            }
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// Array length.
    pub fn arr_len(&self, id: ObjId) -> VmResult<i64> {
        match &self.get(id)?.kind {
            ObjKind::Arr { elems } => Ok(elems.len() as i64),
            _ => Err(VmError::TypeMismatch {
                expected: "array",
                found: "object",
            }),
        }
    }

    /// All objects marked dirty since the given heap snapshot point.
    pub fn dirty_objects(&self) -> impl Iterator<Item = (ObjId, &HeapObj)> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, o)| o.dirty)
            .map(|(i, o)| (i as ObjId, o))
    }

    /// Clear all dirty bits (after a flush to home).
    pub fn clear_dirty(&mut self) {
        for o in &mut self.entries {
            o.dirty = false;
        }
    }

    /// Record that local object `id` caches the home object `home_id`.
    pub fn set_home_id(&mut self, id: ObjId, home_id: ObjId) -> VmResult<()> {
        let old = self.get_mut(id)?.home_id.replace(home_id);
        if old == Some(home_id) {
            return Ok(());
        }
        let slot = self.by_home.entry(home_id).or_insert(id);
        *slot = (*slot).min(id);
        // Re-pointing an entry away from a home id it was the index's
        // answer for: fall back to the next match (a rare path — cached
        // copies are installed once and temp ids are assigned once).
        if let Some(old) = old {
            if self.by_home.get(&old) == Some(&id) {
                match self.scan_cached(old) {
                    Some(next) => self.by_home.insert(old, next),
                    None => self.by_home.remove(&old),
                };
            }
        }
        Ok(())
    }

    /// Look up a cached copy of a home object, if one exists: the lowest
    /// local id whose `home_id` matches.
    pub fn find_cached(&self, home_id: ObjId) -> Option<ObjId> {
        let found = self.by_home.get(&home_id).copied();
        debug_assert_eq!(
            found,
            self.scan_cached(home_id),
            "home-id index diverged from the heap scan"
        );
        found
    }

    /// Linear first-match scan: the index's debug oracle and its repair
    /// path.
    fn scan_cached(&self, home_id: ObjId) -> Option<ObjId> {
        self.entries
            .iter()
            .position(|o| o.home_id == Some(home_id))
            .map(|i| i as ObjId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_read_back() {
        let mut h = Heap::new();
        let o = h.alloc_obj("Point", vec![Value::Int(1), Value::Int(2)]);
        let a = h.alloc_arr(3);
        let s = h.alloc_str("hi");
        assert_eq!(h.len(), 3);
        assert_eq!(h.get(o).unwrap().class_name(), "Point");
        assert_eq!(h.arr_len(a).unwrap(), 3);
        assert_eq!(h.get_str(s).unwrap(), "hi");
    }

    #[test]
    fn byte_accounting() {
        let mut h = Heap::new();
        assert_eq!(h.used_bytes(), 0);
        h.alloc_arr(10); // 16 + 80
        assert_eq!(h.used_bytes(), 96);
        h.alloc_str("abcd"); // 16 + 4
        assert_eq!(h.used_bytes(), 116);
        assert_eq!(h.alloc_count(), 2);
    }

    #[test]
    fn array_bounds() {
        let mut h = Heap::new();
        let a = h.alloc_arr(2);
        assert_eq!(h.arr_get(a, 0).unwrap(), Some(Value::Int(0)));
        assert_eq!(h.arr_get(a, 2).unwrap(), None);
        assert_eq!(h.arr_get(a, -1).unwrap(), None);
        assert!(h.arr_set(a, 1, Value::Int(9)).unwrap());
        assert!(!h.arr_set(a, 5, Value::Int(9)).unwrap());
        assert_eq!(h.arr_get(a, 1).unwrap(), Some(Value::Int(9)));
    }

    #[test]
    fn dirty_tracking() {
        let mut h = Heap::new();
        let a = h.alloc_arr(1);
        let _b = h.alloc_arr(1);
        assert_eq!(h.dirty_objects().count(), 0);
        h.arr_set(a, 0, Value::Int(5)).unwrap();
        let dirty: Vec<_> = h.dirty_objects().map(|(id, _)| id).collect();
        assert_eq!(dirty, vec![a]);
        h.clear_dirty();
        assert_eq!(h.dirty_objects().count(), 0);
    }

    #[test]
    fn cached_lookup_by_home_id() {
        let mut h = Heap::new();
        let a = h.alloc_obj("C", vec![]);
        h.set_home_id(a, 77).unwrap();
        assert_eq!(h.find_cached(77), Some(a));
        assert_eq!(h.find_cached(78), None);
    }

    #[test]
    fn cached_lookup_keeps_first_match_semantics() {
        let mut h = Heap::new();
        let a = h.alloc_obj("C", vec![]);
        let b = h.alloc_obj("C", vec![]);
        let c = h.alloc_obj("C", vec![]);
        // Two copies of one home object: the lowest local id answers,
        // whichever was recorded first.
        h.set_home_id(c, 5).unwrap();
        h.set_home_id(b, 5).unwrap();
        assert_eq!(h.find_cached(5), Some(b));
        // Re-pointing the answer elsewhere falls back to the next copy.
        h.set_home_id(b, 6).unwrap();
        assert_eq!(h.find_cached(5), Some(c));
        assert_eq!(h.find_cached(6), Some(b));
        h.set_home_id(c, 6).unwrap();
        assert_eq!(h.find_cached(5), None);
        assert_eq!(h.find_cached(6), Some(b));
        h.set_home_id(a, 6).unwrap();
        assert_eq!(h.find_cached(6), Some(a));
        assert_eq!(h.get(a).unwrap().home_id(), Some(6));
        assert!(h.set_home_id(99, 1).is_err());
    }

    #[test]
    fn bad_ref_is_error() {
        let h = Heap::new();
        assert!(matches!(h.get(3), Err(VmError::BadRef(3))));
    }

    #[test]
    fn type_confusion_errors() {
        let mut h = Heap::new();
        let s = h.alloc_str("x");
        assert!(h.arr_len(s).is_err());
        let o = h.alloc_obj("C", vec![]);
        assert!(h.get_str(o).is_err());
    }
}
