//! Variable-name interning.
//!
//! The profiler reports variable names in every dependence record
//! (`{RAW 1:59|temp1}`, Figure 1), but carrying a `String` in every
//! [`MemAccess`](crate::MemAccess) would dwarf the access itself. The trace
//! substrate interns each distinct name once and the event stream carries a
//! 4-byte [`VarId`].

use crate::fxhash::FxHashMap;
use crate::ids::VarId;

/// A simple append-only string interner.
///
/// Interning is done by the (single) instrumentation front-end while
/// building a program, so the interner is not itself thread-safe; the
/// resolved table is shared read-only with the report writer afterwards.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    names: Vec<String>,
    index: FxHashMap<String, VarId>,
}

impl Interner {
    /// Creates an empty interner. Id 0 is pre-assigned to `"*"`, the
    /// paper's placeholder for "no variable" (used in `{INIT *}` records).
    pub fn new() -> Self {
        let mut i = Interner { names: Vec::new(), index: FxHashMap::default() };
        let star = i.intern("*");
        debug_assert_eq!(star, 0);
        i
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as VarId;
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), id);
        id
    }

    /// Resolves an id back to its name. Panics on an id this interner
    /// never produced.
    pub fn resolve(&self, id: VarId) -> &str {
        &self.names[id as usize]
    }

    /// Resolves, returning `None` for foreign ids.
    pub fn get(&self, id: VarId) -> Option<&str> {
        self.names.get(id as usize).map(String::as_str)
    }

    /// Number of interned names (including the pre-assigned `"*"`).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if only the placeholder is present.
    pub fn is_empty(&self) -> bool {
        self.names.len() <= 1
    }

    /// Approximate heap footprint in bytes, for the memory accounting of
    /// Figures 7/8.
    pub fn memory_usage(&self) -> usize {
        self.names.iter().map(|s| s.capacity() + std::mem::size_of::<String>()).sum::<usize>()
            + self.index.capacity()
                * (std::mem::size_of::<String>() + std::mem::size_of::<VarId>() + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_is_zero() {
        let i = Interner::new();
        assert_eq!(i.resolve(0), "*");
    }

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("temp1");
        let b = i.intern("temp2");
        assert_ne!(a, b);
        assert_eq!(i.intern("temp1"), a);
        assert_eq!(i.resolve(a), "temp1");
        assert_eq!(i.resolve(b), "temp2");
        assert_eq!(i.len(), 3); // "*", temp1, temp2
    }

    #[test]
    fn get_on_foreign_id() {
        let i = Interner::new();
        assert_eq!(i.get(99), None);
    }
}
