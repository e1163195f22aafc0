//! Typed integer identifiers.
//!
//! Domain crates identify hosts, networks, certificates, PLCs, etc. with
//! small integer handles into arena-style tables. [`crate::define_id!`] stamps out a
//! newtype per entity kind so the compiler rejects cross-kind mix-ups
//! (C-NEWTYPE).

/// Defines a `u32`-backed identifier newtype.
///
/// The generated type provides `new`, `index`, `as_u32`, ordering, hashing,
/// `Display` (`prefix#n`), and serde support.
///
/// # Examples
///
/// ```
/// malsim_kernel::define_id!(
///     /// Identifies a widget.
///     pub struct WidgetId("widget")
/// );
///
/// let w = WidgetId::new(3);
/// assert_eq!(w.index(), 3);
/// assert_eq!(w.to_string(), "widget#3");
/// ```
#[macro_export]
macro_rules! define_id {
    ($(#[$meta:meta])* $vis:vis struct $name:ident($prefix:literal)) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
            serde::Serialize, serde::Deserialize,
        )]
        $vis struct $name(u32);

        impl $name {
            /// Creates an id from an arena index.
            $vis const fn new(index: usize) -> Self {
                Self(index as u32)
            }

            /// The arena index this id denotes.
            $vis const fn index(self) -> usize {
                self.0 as usize
            }

            /// The raw numeric value.
            $vis const fn as_u32(self) -> u32 {
                self.0
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                write!(f, concat!($prefix, "#{}"), self.0)
            }
        }
    };
}

/// A typed arena: push-only storage addressed by a [`crate::define_id!`] id.
///
/// # Examples
///
/// ```
/// use malsim_kernel::ids::Arena;
///
/// malsim_kernel::define_id!(pub struct ThingId("thing"));
/// malsim_kernel::impl_arena_id!(ThingId);
///
/// let mut arena: Arena<ThingId, String> = Arena::new();
/// let id = arena.push("hello".to_owned());
/// assert_eq!(arena[id], "hello");
/// assert_eq!(arena.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Arena<I, T> {
    items: Vec<T>,
    _marker: std::marker::PhantomData<I>,
}

/// Minimal interface [`Arena`] needs from an id type; implemented
/// automatically for every [`crate::define_id!`] type via `new`/`index`.
pub trait ArenaId: Copy {
    /// Builds the id for an index.
    fn from_index(index: usize) -> Self;
    /// The index the id denotes.
    fn to_index(self) -> usize;
}

/// Implements [`ArenaId`] for one or more [`crate::define_id!`] types.
#[macro_export]
macro_rules! impl_arena_id {
    ($($name:ident),+ $(,)?) => {
        $(
            impl $crate::ids::ArenaId for $name {
                fn from_index(index: usize) -> Self {
                    Self::new(index)
                }
                fn to_index(self) -> usize {
                    self.index()
                }
            }
        )+
    };
}

impl<I: ArenaId, T> Arena<I, T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena { items: Vec::new(), _marker: std::marker::PhantomData }
    }

    /// Appends an item, returning its id.
    pub fn push(&mut self, item: T) -> I {
        let id = I::from_index(self.items.len());
        self.items.push(item);
        id
    }

    /// Shared access by id, if in range.
    pub fn get(&self, id: I) -> Option<&T> {
        self.items.get(id.to_index())
    }

    /// Mutable access by id, if in range.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.items.get_mut(id.to_index())
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the arena holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates `(id, &item)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.items.iter().enumerate().map(|(i, t)| (I::from_index(i), t))
    }

    /// Iterates `(id, &mut item)` pairs in insertion order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (I, &mut T)> {
        self.items.iter_mut().enumerate().map(|(i, t)| (I::from_index(i), t))
    }

    /// Iterates all ids.
    pub fn ids(&self) -> impl Iterator<Item = I> + '_ {
        (0..self.items.len()).map(I::from_index)
    }
}

impl<I: ArenaId, T> Default for Arena<I, T> {
    fn default() -> Self {
        Arena::new()
    }
}

impl<I: ArenaId, T> std::ops::Index<I> for Arena<I, T> {
    type Output = T;
    fn index(&self, id: I) -> &T {
        &self.items[id.to_index()]
    }
}

impl<I: ArenaId, T> std::ops::IndexMut<I> for Arena<I, T> {
    fn index_mut(&mut self, id: I) -> &mut T {
        &mut self.items[id.to_index()]
    }
}

/// A map keyed by arena ids, stored densely: one slot per index, so a lookup
/// is an index instead of a tree walk. It iterates in id order and formats
/// with `{:?}` as a `BTreeMap` of the same entries does.
///
/// Ids are expected to be dense, as [`Arena`] ids are: inserting an id grows
/// the table to that id's index, so a lone large id allocates a slot for
/// every id below it.
///
/// # Examples
///
/// ```
/// use malsim_kernel::ids::IdMap;
///
/// malsim_kernel::define_id!(pub struct ThingId("thing"));
/// malsim_kernel::impl_arena_id!(ThingId);
///
/// let mut map: IdMap<ThingId, &str> = IdMap::new();
/// assert_eq!(map.insert(ThingId::new(2), "two"), None);
/// assert_eq!(map.insert(ThingId::new(0), "zero"), None);
/// assert_eq!(map.insert(ThingId::new(2), "deux"), Some("two"));
/// assert_eq!(map.len(), 2);
/// assert_eq!(map.get(ThingId::new(1)), None);
/// assert_eq!(format!("{map:?}"), r#"{ThingId(0): "zero", ThingId(2): "deux"}"#);
/// ```
#[derive(Clone)]
pub struct IdMap<I, T> {
    slots: Vec<Option<T>>,
    len: usize,
    _marker: std::marker::PhantomData<I>,
}

impl<I: ArenaId, T> IdMap<I, T> {
    /// Creates an empty map.
    pub fn new() -> Self {
        IdMap { slots: Vec::new(), len: 0, _marker: std::marker::PhantomData }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` has an entry.
    pub fn contains_key(&self, id: I) -> bool {
        self.get(id).is_some()
    }

    /// Shared access to `id`'s entry.
    pub fn get(&self, id: I) -> Option<&T> {
        self.slots.get(id.to_index())?.as_ref()
    }

    /// Mutable access to `id`'s entry.
    pub fn get_mut(&mut self, id: I) -> Option<&mut T> {
        self.slots.get_mut(id.to_index())?.as_mut()
    }

    /// Sets `id`'s entry, returning the one it replaces. Grows the table to
    /// `id`'s index.
    pub fn insert(&mut self, id: I, value: T) -> Option<T> {
        let index = id.to_index();
        if self.slots.len() <= index {
            self.slots.resize_with(index + 1, || None);
        }
        let old = self.slots[index].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Iterates `(id, &value)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (I, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| Some((I::from_index(i), slot.as_ref()?)))
    }

    /// Iterates the ids that have entries, in order.
    pub fn keys(&self) -> impl Iterator<Item = I> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Iterates the values in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }
}

impl<I: ArenaId, T> Default for IdMap<I, T> {
    fn default() -> Self {
        IdMap::new()
    }
}

impl<I: ArenaId, T> std::ops::Index<I> for IdMap<I, T> {
    type Output = T;
    fn index(&self, id: I) -> &T {
        self.get(id).expect("no entry for id")
    }
}

impl<I: ArenaId + std::fmt::Debug, T: std::fmt::Debug> std::fmt::Debug for IdMap<I, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Stable reference into a [`GenSlab`]: a slot index plus the generation the
/// slot had when the value was inserted.
///
/// Removing a value bumps the slot's generation, so a `SlotRef` held past the
/// value's lifetime goes stale instead of silently aliasing whatever reuses
/// the slot — lookups and removals through a stale ref return `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotRef {
    index: u32,
    generation: u32,
}

impl SlotRef {
    /// The slot index this ref denotes.
    pub const fn index(self) -> usize {
        self.index as usize
    }

    /// The generation the slot had at insertion.
    pub const fn generation(self) -> u32 {
        self.generation
    }
}

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Entry<T> {
    Free { next_free: u32 },
    Occupied(T),
}

#[derive(Debug, Clone)]
struct GenSlot<T> {
    generation: u32,
    entry: Entry<T>,
}

/// A generational slab: slot-reusing storage with O(1) insert/lookup/remove
/// and stale-handle detection.
///
/// Freed slots go on an intrusive free list and are reused LIFO; each free
/// bumps the slot's generation so outstanding [`SlotRef`]s to the previous
/// occupant stop resolving. This is the backing store for the scheduler's
/// event queue ([`crate::queue::EventQueue`]), where it makes cancellation an
/// O(1) generation check instead of a set-membership probe, and its slots
/// are the links of the queue's per-timestamp chains.
///
/// # Examples
///
/// ```
/// use malsim_kernel::ids::GenSlab;
///
/// let mut slab: GenSlab<&str> = GenSlab::new();
/// let a = slab.insert("a");
/// assert_eq!(slab.remove(a), Some("a"));
/// let b = slab.insert("b"); // reuses the slot...
/// assert_eq!(b.index(), a.index());
/// assert_ne!(b.generation(), a.generation());
/// assert_eq!(slab.get(a), None, "...but the stale ref stays dead");
/// assert_eq!(slab.get(b), Some(&"b"));
/// ```
#[derive(Debug, Clone)]
pub struct GenSlab<T> {
    slots: Vec<GenSlot<T>>,
    free_head: u32,
    len: usize,
}

impl<T> GenSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        GenSlab { slots: Vec::new(), free_head: NIL, len: 0 }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a value, reusing a freed slot when one exists.
    pub fn insert(&mut self, value: T) -> SlotRef {
        self.len += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let slot = &mut self.slots[index as usize];
            let Entry::Free { next_free } = slot.entry else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            slot.entry = Entry::Occupied(value);
            return SlotRef { index, generation: slot.generation };
        }
        let index = u32::try_from(self.slots.len()).expect("slab capacity exceeds u32 indices");
        assert!(index != NIL, "slab capacity exceeds u32 indices");
        self.slots.push(GenSlot { generation: 0, entry: Entry::Occupied(value) });
        SlotRef { index, generation: 0 }
    }

    /// Shared access through a ref; `None` when stale or out of range.
    pub fn get(&self, r: SlotRef) -> Option<&T> {
        match self.slots.get(r.index()) {
            Some(GenSlot { generation, entry: Entry::Occupied(v) }) if *generation == r.generation => Some(v),
            _ => None,
        }
    }

    /// Mutable access through a ref; `None` when stale or out of range.
    pub fn get_mut(&mut self, r: SlotRef) -> Option<&mut T> {
        match self.slots.get_mut(r.index()) {
            Some(GenSlot { generation, entry: Entry::Occupied(v) }) if *generation == r.generation => Some(v),
            _ => None,
        }
    }

    /// Whether the ref still resolves to its original value.
    pub fn contains(&self, r: SlotRef) -> bool {
        self.get(r).is_some()
    }

    /// Removes the value behind a ref, bumping the slot generation so the ref
    /// (and any copy of it) goes stale. `None` when already stale.
    pub fn remove(&mut self, r: SlotRef) -> Option<T> {
        if !self.contains(r) {
            return None;
        }
        self.remove_at(r.index())
    }

    /// Shared access by raw index, ignoring generations. For intrusive
    /// structures that store `u32` links between occupied slots.
    pub fn get_index(&self, index: usize) -> Option<&T> {
        match self.slots.get(index) {
            Some(GenSlot { entry: Entry::Occupied(v), .. }) => Some(v),
            _ => None,
        }
    }

    /// Mutable access by raw index, ignoring generations.
    pub fn get_index_mut(&mut self, index: usize) -> Option<&mut T> {
        match self.slots.get_mut(index) {
            Some(GenSlot { entry: Entry::Occupied(v), .. }) => Some(v),
            _ => None,
        }
    }

    /// Removes the value in a slot by raw index, bumping the generation.
    pub fn remove_at(&mut self, index: usize) -> Option<T> {
        let slot = self.slots.get_mut(index)?;
        if matches!(slot.entry, Entry::Free { .. }) {
            return None;
        }
        let entry = std::mem::replace(&mut slot.entry, Entry::Free { next_free: self.free_head });
        slot.generation = slot.generation.wrapping_add(1);
        self.free_head = index as u32;
        self.len -= 1;
        match entry {
            Entry::Occupied(v) => Some(v),
            Entry::Free { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Iterates `(ref, &value)` over occupied slots in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SlotRef, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, slot)| match &slot.entry {
            Entry::Occupied(v) => Some((SlotRef { index: i as u32, generation: slot.generation }, v)),
            Entry::Free { .. } => None,
        })
    }
}

impl<T> Default for GenSlab<T> {
    fn default() -> Self {
        GenSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::define_id!(pub struct TestId("test"));
    crate::impl_arena_id!(TestId);

    #[test]
    fn id_basics() {
        let a = TestId::new(0);
        let b = TestId::new(1);
        assert_ne!(a, b);
        assert!(a < b);
        assert_eq!(b.to_string(), "test#1");
        assert_eq!(b.index(), 1);
        assert_eq!(b.as_u32(), 1);
    }

    #[test]
    fn arena_push_get_index() {
        let mut arena: Arena<TestId, &str> = Arena::new();
        assert!(arena.is_empty());
        let a = arena.push("a");
        let b = arena.push("b");
        assert_eq!(arena.len(), 2);
        assert_eq!(arena[a], "a");
        assert_eq!(arena.get(b), Some(&"b"));
        assert_eq!(arena.get(TestId::new(5)), None);
        arena[a] = "z";
        assert_eq!(arena[a], "z");
    }

    #[test]
    fn arena_iteration() {
        let mut arena: Arena<TestId, u32> = Arena::new();
        for v in [10, 20, 30] {
            arena.push(v);
        }
        let pairs: Vec<(usize, u32)> = arena.iter().map(|(i, v)| (i.index(), *v)).collect();
        assert_eq!(pairs, vec![(0, 10), (1, 20), (2, 30)]);
        for (_, v) in arena.iter_mut() {
            *v += 1;
        }
        assert_eq!(arena[TestId::new(2)], 31);
        assert_eq!(arena.ids().count(), 3);
    }

    /// `IdMap` against a `BTreeMap` model under seeded inserts, replacing
    /// inserts, in-place updates and lookups, some past the table's end:
    /// after every step both agree on the replaced value, the lookup, `len`,
    /// the iteration order and the `{:?}` string.
    #[test]
    fn id_map_matches_a_btree_map_model() {
        use std::collections::BTreeMap;

        for seed in 0..200 {
            let mut rng = crate::rng::SimRng::seed_from(seed);
            let mut map: IdMap<TestId, u32> = IdMap::new();
            let mut model: BTreeMap<TestId, u32> = BTreeMap::new();
            let span = rng.range(1..64usize);
            for step in 0..100u32 {
                let id = TestId::new(rng.range(0..span));
                let far = TestId::new(span + rng.range(0..span));
                match rng.range(0..4u8) {
                    0 | 1 => assert_eq!(map.insert(id, step), model.insert(id, step), "seed {seed}"),
                    2 => {
                        if let (Some(v), Some(m)) = (map.get_mut(id), model.get_mut(&id)) {
                            *v += 1;
                            *m += 1;
                        }
                    }
                    _ => assert_eq!(map.get(far), model.get(&far), "seed {seed}: past the end"),
                }
                assert_eq!(map.get(id), model.get(&id), "seed {seed}");
                assert_eq!(map.contains_key(id), model.contains_key(&id));
                assert_eq!(map.len(), model.len());
                assert_eq!(map.is_empty(), model.is_empty());
                assert!(map.iter().eq(model.iter().map(|(k, v)| (*k, v))), "seed {seed}: iteration order");
                assert!(map.keys().eq(model.keys().copied()));
                assert!(map.values().eq(model.values()));
                assert_eq!(format!("{map:?}"), format!("{model:?}"), "seed {seed}");
            }
        }
    }
}
