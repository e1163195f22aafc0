//! Steady-state kernel paths allocate nothing: a repeating event keeps one
//! box for its whole series, so a re-arm allocates nothing, and bumping an
//! existing counter does not copy its name. This file is a test binary of
//! its own because its counting `#[global_allocator]` replaces the allocator
//! of the whole binary; it counts only the allocations of the thread that
//! asks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use malsim_kernel::metrics::Metrics;
use malsim_kernel::sched::Sim;
use malsim_kernel::time::{SimDuration, SimTime};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn repeating_events_rearm_without_allocating() {
    const TIMERS: u64 = 100;
    const ROUNDS: u64 = 50;
    let period = SimDuration::from_mins(30);
    let after = |rounds: u64| SimTime::EPOCH + SimDuration::from_mins(30 * rounds);
    let mut sim: Sim<u64> = Sim::new(SimTime::EPOCH, 1);
    let mut fired = 0u64;
    for _ in 0..TIMERS {
        sim.schedule_every(period, |fired: &mut u64, _| {
            *fired += 1;
            true
        });
    }
    // A far event keeps the timestamp map from emptying between rounds, as
    // a wiper's detonation does in E9.
    sim.schedule_at(after(ROUNDS + 10), |_: &mut u64, _| {});

    sim.run_until(&mut fired, after(1));
    assert_eq!(fired, TIMERS, "the warm-up round fired every timer once");
    let before = allocations();
    sim.run_until(&mut fired, after(ROUNDS));
    let allocated = allocations() - before;
    let rearms = TIMERS * (ROUNDS - 1);
    assert_eq!(allocated, 0, "{allocated} allocations over {rearms} re-arms");
    assert_eq!(sim.executed(), TIMERS * ROUNDS);
    assert_eq!(fired, TIMERS * ROUNDS);
}

#[test]
fn bumping_an_existing_counter_does_not_allocate() {
    let mut metrics = Metrics::new();
    metrics.incr("shamoon.infections");
    let before = allocations();
    for _ in 0..1_000 {
        metrics.incr("shamoon.infections");
    }
    assert_eq!(allocations() - before, 0, "each bump copied the counter's name");
    assert_eq!(metrics.counter("shamoon.infections"), 1_001);
}
