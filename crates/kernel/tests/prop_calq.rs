//! Property tests for the generational slab and the event queue that the
//! scheduler is built on. These attack the storage layer directly (stale
//! handle safety, slot reuse, random-order drains) and the scheduler-level
//! guarantees that depend on it (`schedule_every` handles staying cancellable
//! across re-arms, fired handles never touching a slot's next occupant).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use malsim_kernel::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// GenSlab: generational storage
// ---------------------------------------------------------------------------

proptest! {
    /// Random insert/remove interleavings against a HashMap-of-live-values
    /// model: every live ref resolves to its value, every freed ref resolves
    /// to nothing — even after its slot has been reused.
    #[test]
    fn genslab_matches_a_map_model(ops in proptest::collection::vec((any::<bool>(), 0usize..48), 1..300)) {
        let mut slab: GenSlab<u64> = GenSlab::new();
        let mut live: Vec<(SlotRef, u64)> = Vec::new();
        let mut dead: Vec<(SlotRef, u64)> = Vec::new();
        let mut next_val = 0u64;
        for (is_insert, pick) in ops {
            if is_insert || live.is_empty() {
                let r = slab.insert(next_val);
                live.push((r, next_val));
                next_val += 1;
            } else {
                let (r, v) = live.swap_remove(pick % live.len());
                prop_assert_eq!(slab.remove(r), Some(v));
                prop_assert_eq!(slab.remove(r), None, "double remove must miss");
                dead.push((r, v));
            }
            prop_assert_eq!(slab.len(), live.len());
            for (r, v) in &live {
                prop_assert_eq!(slab.get(*r), Some(v));
            }
            for (r, _) in &dead {
                prop_assert!(slab.get(*r).is_none(), "stale ref resolved after free: {:?}", r);
                prop_assert!(!slab.contains(*r));
            }
        }
    }

    /// A freed ref must never cancel or read the slot's next occupant, no
    /// matter how many times the slot is recycled.
    #[test]
    fn genslab_stale_ref_never_sees_reuser(recycles in 1usize..40) {
        let mut slab: GenSlab<&'static str> = GenSlab::new();
        let first = slab.insert("first");
        prop_assert_eq!(slab.remove(first), Some("first"));
        let mut current = None;
        for _ in 0..recycles {
            if let Some(r) = current.take() {
                slab.remove(r);
            }
            // LIFO free list: the same physical slot keeps being reused.
            let r = slab.insert("later");
            prop_assert_eq!(r.index(), first.index());
            prop_assert_ne!(r.generation(), first.generation());
            current = Some(r);
        }
        prop_assert!(slab.get(first).is_none());
        prop_assert_eq!(slab.remove(first), None);
        prop_assert_eq!(slab.len(), 1);
    }
}

// ---------------------------------------------------------------------------
// EventQueue: ordering and cancellation under random programs
// ---------------------------------------------------------------------------

proptest! {
    /// Random (time, payload) inserts with a random subset cancelled drain in
    /// exactly the order a BTreeMap over (time, insertion index) predicts.
    #[test]
    fn queue_drains_in_model_order(
        times in proptest::collection::vec(0u64..2_000_000, 1..400),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..400),
    ) {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model: BTreeMap<(u64, usize), usize> = BTreeMap::new();
        let mut refs = Vec::new();
        for (i, t) in times.iter().enumerate() {
            refs.push(q.insert(SimTime::from_millis(*t), i));
            model.insert((*t, i), i);
        }
        for (i, r) in refs.iter().enumerate() {
            if cancel_mask.get(i).copied().unwrap_or(false) {
                prop_assert!(q.cancel(*r));
                prop_assert!(!q.cancel(*r), "second cancel must be a no-op");
                model.remove(&(times[i], i));
            }
        }
        prop_assert_eq!(q.live_len(), model.len());
        let mut drained = Vec::new();
        while let Some((t, v)) = q.pop() {
            drained.push((t.as_millis(), v));
        }
        let expected: Vec<(u64, usize)> = model.into_iter().map(|((t, _), v)| (t, v)).collect();
        prop_assert_eq!(drained, expected);
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.len(), 0, "tombstones must be purged once drained");
    }

    /// Interleaved pops and inserts (inserts clamped to >= the last popped
    /// time, as the scheduler guarantees) still drain in model order: an
    /// insert may open a chain ahead of every pending one, join the chain
    /// being drained, or land anywhere between.
    #[test]
    fn queue_interleaved_pops_and_inserts_stay_ordered(
        script in proptest::collection::vec((any::<bool>(), 0u64..100_000), 1..300),
    ) {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for (do_pop, dt) in script {
            if do_pop {
                let got = q.pop().map(|(t, v)| (t.as_millis(), v));
                let want = model.iter().next().map(|(&k, _)| k).map(|(t, s)| {
                    model.remove(&(t, s));
                    (t, s)
                });
                prop_assert_eq!(got, want);
                if let Some((t, _)) = got {
                    now = t;
                }
            } else {
                let t = now + dt;
                q.insert(SimTime::from_millis(t), seq);
                model.insert((t, seq), seq);
                seq += 1;
            }
        }
        let mut tail = Vec::new();
        while let Some((t, v)) = q.pop() {
            tail.push((t.as_millis(), v));
        }
        let want: Vec<(u64, u64)> = model.into_iter().map(|((t, _), v)| (t, v)).collect();
        prop_assert_eq!(tail, want);
    }
}

// ---------------------------------------------------------------------------
// Scheduler-level: stale handles and repeating events
// ---------------------------------------------------------------------------

type World = Vec<u32>;

proptest! {
    /// After a handle's event fires, its slot is recycled by later schedules.
    /// Cancelling the fired handle must return false and never kill whichever
    /// new event now occupies the slot.
    #[test]
    fn fired_handles_never_cancel_slot_reusers(
        first_wave in 1usize..30,
        second_wave in 1usize..30,
    ) {
        let mut sim: Sim<World> = Sim::new(SimTime::EPOCH, 1);
        let mut world = Vec::new();
        let mut old = Vec::new();
        for i in 0..first_wave {
            let tag = i as u32;
            old.push(sim.schedule_in(SimDuration::from_millis(10), move |w: &mut World, _| {
                w.push(tag);
            }));
        }
        sim.run(&mut world);
        prop_assert_eq!(world.len(), first_wave);
        // Second wave reuses the freed slots (LIFO), with fresh generations.
        for i in 0..second_wave {
            let tag = 1000 + i as u32;
            sim.schedule_in(SimDuration::from_millis(10), move |w: &mut World, _| {
                w.push(tag);
            });
        }
        for h in &old {
            prop_assert!(!sim.cancel(*h), "fired handle claimed to cancel something");
        }
        sim.run(&mut world);
        prop_assert_eq!(world.len(), first_wave + second_wave, "a reuser was killed by a stale handle");
    }

    /// The handle returned by `schedule_every` stays valid across re-arms:
    /// cancelling it after N firings stops the series at exactly N.
    #[test]
    fn repeating_handles_cancel_cleanly_after_any_period(
        period_ms in 1u64..500,
        let_run in 1u32..20,
    ) {
        let mut sim: Sim<World> = Sim::new(SimTime::EPOCH, 1);
        let mut world = Vec::new();
        let fired = Rc::new(RefCell::new(0u32));
        let f = fired.clone();
        let h = sim.schedule_every(SimDuration::from_millis(period_ms), move |w: &mut World, _| {
            *f.borrow_mut() += 1;
            w.push(0);
            true // would repeat forever
        });
        // Let exactly `let_run` periods elapse, then cancel via the original
        // handle and drain whatever is left.
        sim.run_until(&mut world, SimTime::from_millis(period_ms * let_run as u64));
        prop_assert_eq!(*fired.borrow(), let_run);
        prop_assert!(sim.cancel(h), "handle went stale across re-arms");
        prop_assert!(!sim.cancel(h));
        sim.run_until(&mut world, SimTime::from_millis(period_ms * (let_run as u64 + 50)));
        prop_assert_eq!(*fired.borrow(), let_run, "series kept firing after cancel");
    }
}
