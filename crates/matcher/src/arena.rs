//! Reference-counted interning arena for [`Constraint`]s.
//!
//! Routing tables hold the same handful of constraints thousands of times
//! (every subscriber to "parking" stores `service = parking`).  The arena
//! stores each distinct constraint **once per index**, shared across all
//! attributes, and predicates refer to it by a dense `u32` id — so predicate
//! deduplication hashes a full `Constraint` only once per distinct
//! constraint, predicate records stay small, and evaluation reads one shared
//! copy instead of per-predicate clones.

use std::collections::HashMap;

use rebeca_filter::Constraint;

/// A reference-counted constraint interner.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConstraintArena {
    ids: HashMap<Constraint, u32>,
    items: Vec<Option<Constraint>>,
    refs: Vec<u32>,
    free: Vec<u32>,
}

impl ConstraintArena {
    /// Interns `constraint`, returning its id and incrementing its reference
    /// count.  Clones the constraint only on first intern.
    pub(crate) fn intern(&mut self, constraint: &Constraint) -> u32 {
        if let Some(&cid) = self.ids.get(constraint) {
            self.refs[cid as usize] += 1;
            return cid;
        }
        let cid = match self.free.pop() {
            Some(cid) => {
                self.items[cid as usize] = Some(constraint.clone());
                self.refs[cid as usize] = 1;
                cid
            }
            None => {
                self.items.push(Some(constraint.clone()));
                self.refs.push(1);
                (self.items.len() - 1) as u32
            }
        };
        self.ids.insert(constraint.clone(), cid);
        cid
    }

    /// Drops one reference to `cid`, freeing the slot when the last user is
    /// gone.
    pub(crate) fn release(&mut self, cid: u32) {
        let c = cid as usize;
        debug_assert!(self.refs[c] > 0, "releasing a dead constraint");
        self.refs[c] -= 1;
        if self.refs[c] == 0 {
            let constraint = self.items[c].take().expect("live constraint");
            self.ids.remove(&constraint);
            self.free.push(cid);
        }
    }

    /// Id of `constraint` when it is already interned, without touching the
    /// reference counts (used by the identity fast path to resolve probe
    /// filters against the store).
    #[inline]
    pub(crate) fn lookup(&self, constraint: &Constraint) -> Option<u32> {
        self.ids.get(constraint).copied()
    }

    /// The interned constraint behind `cid`.
    #[inline]
    pub(crate) fn get(&self, cid: u32) -> &Constraint {
        self.items[cid as usize]
            .as_ref()
            .expect("live constraint id")
    }

    /// Number of live interned constraints (diagnostics).
    pub(crate) fn len(&self) -> usize {
        self.items.len() - self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups_and_refcounts() {
        let mut arena = ConstraintArena::default();
        let a = Constraint::Eq(3.into());
        let id1 = arena.intern(&a);
        let id2 = arena.intern(&a);
        assert_eq!(id1, id2);
        assert_eq!(arena.len(), 1);
        assert_eq!(arena.get(id1), &a);
        arena.release(id1);
        assert_eq!(arena.len(), 1, "one reference still live");
        arena.release(id2);
        assert_eq!(arena.len(), 0);
        // Freed slots are reused.
        let b = Constraint::Exists;
        let id3 = arena.intern(&b);
        assert_eq!(id3, id1);
        assert_eq!(arena.get(id3), &b);
    }
}
