//! The pending-event store behind [`crate::sched::Sim`]: a sorted map from
//! each pending timestamp to a FIFO chain of the events due then.
//!
//! Events live in a [`GenSlab`]. The map holds one entry per distinct
//! pending timestamp (ms): the head and tail slot of that instant's chain,
//! linked through the slab (`Node::next`). The map orders the timestamps and
//! an insert appends to its timestamp's chain, so `(time, insertion)` order
//! holds by structure, with no sequence numbers. An insert is one map lookup
//! plus a tail append and a pop unlinks the first chain's head, so a batch
//! of ties drains and re-arms at O(1) per event. Nothing in the layout
//! depends on how the schedule is spread in time, so there is no parameter
//! to tune (see DESIGN.md §7).
//!
//! [`EventQueue::cancel`] is an O(1) slot invalidation: the payload is
//! dropped at once and the node stays chained as a tombstone until it
//! reaches the head of the earliest chain. Handles are generation-checked
//! [`SlotRef`]s, so a handle kept past its event's lifetime goes stale rather
//! than aliasing whatever event reuses the slot.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use crate::ids::{GenSlab, SlotRef};
use crate::time::SimTime;

const NIL: u32 = u32::MAX;

/// Head and tail slot of one timestamp's chain.
struct Chain {
    head: u32,
    tail: u32,
}

/// What a slot currently holds. `Reserved*` states exist for pinned
/// (repeating) events: between a pop and the re-arm the slot stays allocated
/// under its original generation so the original handle keeps working.
enum NodeState<T> {
    /// Chained, payload ready to fire.
    Queued(T),
    /// Chained, cancelled; reaped when it reaches the head of the earliest
    /// chain.
    Tombstone,
    /// Pinned slot mid-dispatch, awaiting [`EventQueue::rearm`] or
    /// [`EventQueue::release`].
    Reserved,
    /// Cancelled while reserved: the pending re-arm must not happen.
    ReservedCancelled,
}

struct Node<T> {
    /// Next slot of the same timestamp's chain, or `NIL` at its tail.
    next: u32,
    /// Pinned slots survive pops (for repeating events); unpinned slots are
    /// freed as they fire.
    pinned: bool,
    state: NodeState<T>,
}

/// Pending-event queue with O(1) cancel, O(1) pops within a tie batch and
/// structural `(time, insertion)` ordering. See the module docs for layout.
///
/// # Examples
///
/// ```
/// use malsim_kernel::queue::EventQueue;
/// use malsim_kernel::time::SimTime;
///
/// let mut q: EventQueue<&str> = EventQueue::new();
/// q.insert(SimTime::from_millis(20), "late");
/// let h = q.insert(SimTime::from_millis(10), "early");
/// q.insert(SimTime::from_millis(10), "early-too");
/// assert!(q.cancel(h));
/// assert!(!q.cancel(h), "cancel is idempotent");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early-too")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<T> {
    slab: GenSlab<Node<T>>,
    /// Pending timestamp (ms) to its chain; never holds an empty chain.
    chains: BTreeMap<u64, Chain>,
    /// Chained nodes, including not-yet-reaped tombstones.
    linked: usize,
    /// Chained nodes that still hold a payload.
    live: usize,
    tombstone_reaps: u64,
}

/// Always-on structural counters of one [`EventQueue`], all deterministic:
/// they depend only on the sequence of operations, never on wall time or
/// thread interleaving. Snapshot via [`EventQueue::stats`] (or
/// [`Sim::queue_stats`](crate::sched::Sim::queue_stats)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Cancelled nodes unchained and freed as they reached the head of the
    /// earliest chain; a queue with no live event left reaps them all.
    pub tombstone_reaps: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue").field("live", &self.live).field("linked", &self.linked).finish()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { slab: GenSlab::new(), chains: BTreeMap::new(), linked: 0, live: 0, tombstone_reaps: 0 }
    }

    /// Chained events, including cancelled ones not yet reaped.
    pub fn len(&self) -> usize {
        self.linked
    }

    /// True when no event is left to fire.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Events that would still fire (cancelled ones excluded).
    pub fn live_len(&self) -> usize {
        self.live
    }

    /// Snapshot of the queue's structural counters.
    pub fn stats(&self) -> QueueStats {
        QueueStats { tombstone_reaps: self.tombstone_reaps }
    }

    /// Schedules `payload` at `time`. Events sharing a timestamp fire in
    /// insertion order.
    pub fn insert(&mut self, time: SimTime, payload: T) -> SlotRef {
        let r = self.slab.insert(Node { next: NIL, pinned: false, state: NodeState::Queued(payload) });
        self.link(time, r.index() as u32);
        r
    }

    /// Allocates a pinned slot without scheduling anything yet. The returned
    /// handle stays valid across every [`EventQueue::rearm`] of the slot,
    /// which is how a repeating event stays cancellable across periods.
    pub fn reserve(&mut self) -> SlotRef {
        self.slab.insert(Node { next: NIL, pinned: true, state: NodeState::Reserved })
    }

    /// Arms (or re-arms) a reserved pinned slot at `time`.
    ///
    /// Returns `false` — dropping `payload` and freeing the slot — when the
    /// slot was cancelled while reserved, i.e. someone cancelled the
    /// repeating event from inside its own dispatch.
    pub fn rearm(&mut self, r: SlotRef, time: SimTime, payload: T) -> bool {
        let Some(node) = self.slab.get_mut(r) else {
            debug_assert!(false, "rearm on a dead slot");
            return false;
        };
        match node.state {
            NodeState::Reserved => {
                node.state = NodeState::Queued(payload);
                self.link(time, r.index() as u32);
                true
            }
            NodeState::ReservedCancelled => {
                self.slab.remove(r);
                false
            }
            _ => {
                debug_assert!(false, "rearm on a slot that is not reserved");
                false
            }
        }
    }

    /// Frees a reserved pinned slot: the repeating event ended on its own.
    pub fn release(&mut self, r: SlotRef) {
        let node = self.slab.remove(r);
        debug_assert!(
            matches!(node.map(|n| n.state), Some(NodeState::Reserved | NodeState::ReservedCancelled)),
            "release on a slot that is not reserved"
        );
    }

    /// Cancels a pending event: O(1), no search.
    ///
    /// Returns `true` exactly when this call stopped a future firing — the
    /// event was queued, or is a repeating event (including mid-dispatch,
    /// where the pending re-arm is suppressed). A stale handle (already
    /// fired, already cancelled, or from a reused slot) returns `false`.
    pub fn cancel(&mut self, r: SlotRef) -> bool {
        let Some(node) = self.slab.get_mut(r) else { return false };
        match node.state {
            NodeState::Queued(_) => {
                node.state = NodeState::Tombstone;
                self.live -= 1;
                true
            }
            NodeState::Reserved => {
                node.state = NodeState::ReservedCancelled;
                true
            }
            NodeState::Tombstone | NodeState::ReservedCancelled => false,
        }
    }

    /// The time of the next event to fire, reaping tombstones in passing.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.settle().map(SimTime::from_millis)
    }

    /// Removes and returns the earliest `(time, insertion)` event.
    ///
    /// For a pinned (repeating) event the slot is left reserved under its
    /// original generation, awaiting [`EventQueue::rearm`] or
    /// [`EventQueue::release`]; otherwise the slot is freed for reuse.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let time = self.settle()?;
        let idx = self.unlink_first();
        self.live -= 1;
        let node = self.slab.get_index_mut(idx).expect("settled head is occupied");
        let pinned = node.pinned;
        let state = std::mem::replace(&mut node.state, NodeState::Reserved);
        let NodeState::Queued(payload) = state else { unreachable!("settled head is queued") };
        if !pinned {
            self.slab.remove_at(idx);
        }
        Some((SimTime::from_millis(time), payload))
    }

    /// Reaps tombstones off the head of the earliest chain until that head
    /// is live, and returns its timestamp; the head stays chained. `None`
    /// once no chain is left, so a queue holding only tombstones reaps them
    /// all and `len()` settles back to zero.
    fn settle(&mut self) -> Option<u64> {
        loop {
            let (&time, chain) = self.chains.first_key_value()?;
            match self.slab.get_index(chain.head as usize).expect("chained slot is occupied").state {
                NodeState::Queued(_) => return Some(time),
                NodeState::Tombstone => {
                    let idx = self.unlink_first();
                    self.slab.remove_at(idx);
                    self.tombstone_reaps += 1;
                }
                NodeState::Reserved | NodeState::ReservedCancelled => {
                    unreachable!("reserved slots are never chained")
                }
            }
        }
    }

    /// Appends an occupied slot to the chain of `time`, opening that chain
    /// when the timestamp has none: FIFO per timestamp by construction.
    fn link(&mut self, time: SimTime, idx: u32) {
        match self.chains.entry(time.as_millis()) {
            Entry::Vacant(entry) => {
                entry.insert(Chain { head: idx, tail: idx });
            }
            Entry::Occupied(mut entry) => {
                let chain = entry.get_mut();
                self.slab.get_index_mut(chain.tail as usize).expect("chained slot is occupied").next = idx;
                chain.tail = idx;
            }
        }
        self.live += 1;
        self.linked += 1;
    }

    /// Unchains the head of the earliest chain, dropping the chain once it
    /// is empty, and returns the head's slot index.
    fn unlink_first(&mut self) -> usize {
        let mut first = self.chains.first_entry().expect("unlink_first with no chain");
        let head = first.get().head as usize;
        let node = self.slab.get_index_mut(head).expect("chained slot is occupied");
        match std::mem::replace(&mut node.next, NIL) {
            NIL => {
                first.remove();
            }
            next => first.get_mut().head = next,
        }
        self.linked -= 1;
        head
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.insert(ms(50), 1);
        q.insert(ms(10), 2);
        q.insert(ms(50), 3);
        q.insert(ms(10), 4);
        let fired: Vec<(u64, u32)> =
            std::iter::from_fn(|| q.pop()).map(|(t, v)| (t.as_millis(), v)).collect();
        assert_eq!(fired, vec![(10, 2), (10, 4), (50, 1), (50, 3)]);
    }

    #[test]
    fn cancel_is_o1_invalidation_and_idempotent() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let a = q.insert(ms(10), 1);
        q.insert(ms(10), 2);
        assert_eq!(q.live_len(), 2);
        assert!(q.cancel(a));
        assert_eq!(q.live_len(), 1);
        assert!(!q.cancel(a));
        assert_eq!(q.pop(), Some((ms(10), 2)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0, "tombstones are gone once the queue drains");
    }

    #[test]
    fn stale_handle_from_reused_slot_stays_dead() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let a = q.insert(ms(10), 1);
        assert_eq!(q.pop(), Some((ms(10), 1)));
        let b = q.insert(ms(20), 2);
        assert_eq!(b.index(), a.index(), "slot is reused");
        assert!(!q.cancel(a), "fired handle must not cancel the new occupant");
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert!(!q.cancel(b), "fired handle reports false");
    }

    #[test]
    fn far_future_and_near_events_coexist() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.insert(ms(1 << 35), 99); // ~1 year out
        for i in 0..100u32 {
            q.insert(ms(u64::from(i)), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop(), Some((ms(u64::from(i)), i)));
        }
        assert_eq!(q.pop(), Some((ms(1 << 35), 99)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_inserts_drain_in_order() {
        let mut q: EventQueue<u64> = EventQueue::new();
        // Interleave two phases so inserts are non-monotone.
        for i in (0..2000u64).step_by(2) {
            q.insert(ms(i * 7), i);
        }
        for i in (1..2000u64).step_by(2) {
            q.insert(ms(i * 7), i);
        }
        let mut last = (0u64, 0u64);
        let mut n = 0;
        while let Some((t, v)) = q.pop() {
            assert!((t.as_millis(), v) >= last, "order broke at {n}");
            last = (t.as_millis(), v);
            n += 1;
        }
        assert_eq!(n, 2000);
    }

    #[test]
    fn reserved_slot_rearm_cycle() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(10), 1));
        assert_eq!(q.pop(), Some((ms(10), 1)));
        // Slot survives the pop under the same generation.
        assert!(q.rearm(slot, ms(20), 2));
        assert!(q.cancel(slot), "still cancellable after a re-arm");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_mid_dispatch_suppresses_rearm() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(10), 1));
        let _ = q.pop();
        assert!(q.cancel(slot), "cancel between pop and rearm stops the repetition");
        assert!(!q.rearm(slot, ms(20), 2), "rearm after cancel reports false and frees");
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn release_frees_a_reserved_slot() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let slot = q.reserve();
        assert!(q.rearm(slot, ms(5), 1));
        let _ = q.pop();
        q.release(slot);
        assert!(!q.cancel(slot), "released slot is stale");
    }

    #[test]
    fn same_timestamp_batch_drains_fifo() {
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..500u32 {
            q.insert(ms(1000), i);
        }
        for i in 0..500u32 {
            assert_eq!(q.pop(), Some((ms(1000), i)));
        }
    }

    #[test]
    fn peek_matches_pop() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.insert(ms(30), 1);
        q.insert(ms(20), 2);
        assert_eq!(q.peek_time(), Some(ms(20)));
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert_eq!(q.peek_time(), Some(ms(30)));
        let h = q.insert(ms(25), 3);
        assert_eq!(q.peek_time(), Some(ms(25)));
        assert!(q.cancel(h));
        assert_eq!(q.peek_time(), Some(ms(30)), "peek reaps the tombstone");
        assert_eq!(q.pop(), Some((ms(30), 1)));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn insert_behind_a_scanned_ahead_cursor_keeps_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.insert(ms(1 << 30), 9); // far future
        assert_eq!(q.peek_time(), Some(ms(1 << 30)), "peek looks far ahead");
        // Both land ahead of the peeked event, at different timestamps.
        q.insert(ms(5000), 1);
        q.insert(ms(100), 0);
        assert_eq!(q.pop(), Some((ms(100), 0)));
        assert_eq!(q.pop(), Some((ms(5000), 1)));
        assert_eq!(q.pop(), Some((ms(1 << 30), 9)));
    }

    #[test]
    fn tombstone_reaps_are_counted_when_unchained() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());

        // A cancel is not a reap: the tombstone is only counted when a pop
        // or peek actually unchains it.
        let a = q.insert(ms(10), 1);
        q.insert(ms(20), 2);
        assert!(q.cancel(a));
        assert_eq!(q.stats().tombstone_reaps, 0);
        assert_eq!(q.pop(), Some((ms(20), 2)));
        assert_eq!(q.stats().tombstone_reaps, 1, "the pop reaped the tombstone in passing");

        // Draining with only tombstones left purges (and counts) the rest.
        let b = q.insert(ms(30), 3);
        let c = q.insert(ms(40), 4);
        assert!(q.cancel(b));
        assert!(q.cancel(c));
        assert_eq!(q.pop(), None);
        assert_eq!(q.stats().tombstone_reaps, 3);
        assert_eq!(q.len(), 0);
    }

    /// E9 at the paper's scale: each of 3,003 hosts queues its wiper
    /// detonation at the trigger, then a spread timer that every host re-arms
    /// in lock-step each half hour until the trigger. Every round is a batch
    /// of 3,003 ties re-armed one at a time while the 3,003 detonations wait
    /// at a later timestamp; order must hold throughout.
    #[test]
    fn e9_tie_batches_rearm_ahead_of_the_detonations_in_model_order() {
        const HOSTS: u64 = 3_003;
        const HALF_HOUR: u64 = 30 * 60 * 1000;
        let trigger = SimTime::from_utc(2012, 8, 15, 8, 8, 0).as_millis();
        let first_round = SimTime::from_utc(2012, 8, 13, 7, 0, 0).as_millis();
        let mut q: EventQueue<(bool, u64)> = EventQueue::new();
        // The reference order: `(time, insertion sequence)`.
        let mut model = std::collections::BTreeMap::new();
        let mut seq = 0u64;
        for host in 0..HOSTS {
            for (time, detonation) in [(trigger, true), (first_round, false)] {
                q.insert(ms(time), (detonation, host));
                model.insert((time, seq), (detonation, host));
                seq += 1;
            }
        }
        while let Some((time, event)) = q.pop() {
            let ((want_time, _), want) = model.pop_first().expect("the model has the event");
            assert_eq!((time.as_millis(), event), (want_time, want));
            let (detonation, host) = event;
            let next = time.as_millis() + HALF_HOUR;
            if !detonation && next <= trigger {
                q.insert(ms(next), (false, host));
                model.insert((next, seq), (false, host));
                seq += 1;
            }
        }
        assert!(model.is_empty());
    }

    #[test]
    fn max_time_events_are_representable() {
        let mut q: EventQueue<u32> = EventQueue::new();
        q.insert(SimTime::MAX, 1);
        q.insert(ms(0), 2);
        assert_eq!(q.pop(), Some((ms(0), 2)));
        assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
    }
}
