//! Vertex labels and label interning.

use std::collections::HashMap;
use std::fmt;

use crate::error::{GraphError, Result};
use crate::heap_size::HeapSize;

/// A vertex label.
///
/// Labels are dense small integers (`0..label_count`), which lets filtering
/// code index per-label arrays directly instead of hashing. String labels
/// from input files are mapped to dense ids by a [`LabelInterner`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub u32);

impl Label {
    /// One past the largest label value a decoded graph may carry. A label's
    /// value sizes a graph's per-label offsets (`label_space() + 1` of them),
    /// so every decoder rejects a label at or above this bound; the largest
    /// label space of any profile or sweep is 80.
    pub const LIMIT: u32 = 1 << 16;

    /// This label, or [`GraphError::LabelOutOfRange`] when it is not below
    /// [`Label::LIMIT`].
    pub fn checked(self) -> Result<Label> {
        if self.0 < Self::LIMIT {
            Ok(self)
        } else {
            Err(GraphError::LabelOutOfRange { label: self.0 })
        }
    }

    /// The dense integer id of this label.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }

    /// The dense integer id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for Label {
    fn from(v: u32) -> Self {
        Label(v)
    }
}

/// Maps external (string) label names to dense [`Label`] ids and back.
///
/// A graph database shares one interner across all of its graphs so that
/// label ids are comparable between any query graph and any data graph.
#[derive(Default, Clone, Debug)]
pub struct LabelInterner {
    by_name: HashMap<String, Label>,
    names: Vec<String>,
}

impl LabelInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its dense label id. Idempotent.
    pub fn intern(&mut self, name: &str) -> Label {
        if let Some(&l) = self.by_name.get(name) {
            return l;
        }
        let l = Label(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), l);
        l
    }

    /// Looks up a previously interned name.
    pub fn get(&self, name: &str) -> Option<Label> {
        self.by_name.get(name).copied()
    }

    /// The name interned for `label`, if any.
    pub fn name(&self, label: Label) -> Option<&str> {
        self.names.get(label.index()).map(String::as_str)
    }

    /// Number of distinct labels interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no label has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

impl HeapSize for LabelInterner {
    fn heap_size(&self) -> usize {
        let names: usize = self.names.iter().map(|s| s.capacity()).sum();
        let map_entries = self
            .by_name
            .keys()
            .map(|k| k.capacity() + std::mem::size_of::<(String, Label)>())
            .sum::<usize>();
        names + self.names.capacity() * std::mem::size_of::<String>() + map_entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut it = LabelInterner::new();
        let a = it.intern("C");
        let b = it.intern("N");
        let a2 = it.intern("C");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.id(), 0);
        assert_eq!(b.id(), 1);
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn lookup_round_trips() {
        let mut it = LabelInterner::new();
        let l = it.intern("O");
        assert_eq!(it.get("O"), Some(l));
        assert_eq!(it.name(l), Some("O"));
        assert_eq!(it.get("missing"), None);
        assert_eq!(it.name(Label(99)), None);
    }

    #[test]
    fn label_ordering_follows_id() {
        assert!(Label(1) < Label(2));
        assert_eq!(Label::from(7).index(), 7);
    }
}
