//! Differential model test for the calendar-queue scheduler.
//!
//! The rewrite of `kernel::sched` onto a bucketed calendar queue is proven
//! here against a deliberately naive reference model: a
//! `BTreeMap<(SimTime, u64), Event>` whose correctness is self-evident from
//! the map's sorted iteration order. Seeded random programs of
//! schedule / schedule-in-the-past / cancel / cancel-twice /
//! reentrant-schedule / repeating ops run through both schedulers, and the
//! full observable record — firing order with timestamps, every `cancel`
//! return value, the executed-event count — must match exactly, for every
//! seed. Any divergence in bucket math, tombstone reaping, cursor movement,
//! or generation checks shows up as a differing log.
//!
//! Debug runs cover a few hundred seeds to stay quick; release runs (CI's
//! `sched-model` job) cover 1200.

use std::collections::BTreeMap;

use malsim::prelude::*;

// ---------------------------------------------------------------------------
// Program representation
// ---------------------------------------------------------------------------

/// One operation of a generated scheduler program. `Nested` ops run from
/// inside a firing event (reentrancy); handle targets index the list of
/// handles issued so far, modulo its length at execution time.
#[derive(Clone, Debug)]
enum Op {
    /// `schedule_in(delay)` of an event that logs its firing, then executes
    /// the nested ops.
    Schedule { delay_ms: u64, nested: Vec<Op> },
    /// `schedule_at(now - back_ms)`: always in the past (or at now), so it
    /// exercises the clamp-to-now path.
    SchedulePast { back_ms: u64, nested: Vec<Op> },
    /// Cancel the `target % issued`-th handle, logging the returned bool.
    Cancel { target: usize },
    /// Cancel the most recently issued handle: the event the queue linked
    /// last, unless a repeating event has re-armed since.
    CancelNewest,
    /// `schedule_every(period)` firing `fires` times before stopping.
    Every { period_ms: u64, fires: u32 },
}

/// Deterministic splitmix64, the same generator idiom the script fuzzer uses.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

fn gen_ops(g: &mut Gen, count: usize, depth: u32) -> Vec<Op> {
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        let roll = g.below(100);
        let op = if roll < 40 {
            Op::Schedule { delay_ms: g.below(5_000), nested: gen_nested(g, depth) }
        } else if roll < 50 {
            Op::SchedulePast { back_ms: g.below(10_000), nested: gen_nested(g, depth) }
        } else if roll < 80 {
            Op::Cancel { target: g.below(64) as usize }
        } else if roll < 88 {
            // Cancel-twice: the second call must report false on both sides.
            let target = g.below(64) as usize;
            ops.push(Op::Cancel { target });
            Op::Cancel { target }
        } else {
            Op::Every { period_ms: 1 + g.below(700), fires: 1 + g.below(5) as u32 }
        };
        ops.push(op);
    }
    ops
}

fn gen_nested(g: &mut Gen, depth: u32) -> Vec<Op> {
    if depth == 0 {
        return Vec::new();
    }
    let count = g.below(3) as usize;
    gen_ops(g, count, depth - 1)
}

// ---------------------------------------------------------------------------
// Shared observable log
// ---------------------------------------------------------------------------

/// Everything both schedulers must agree on, in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Obs {
    Scheduled { tag: u64 },
    Fired { tag: u64, at_ms: u64 },
    Cancelled { target: usize, stopped: bool },
    CancelNoHandles,
}

// ---------------------------------------------------------------------------
// Real side: the calendar-queue Sim
// ---------------------------------------------------------------------------

#[derive(Default)]
struct RealWorld {
    log: Vec<Obs>,
    handles: Vec<EventHandle>,
    next_tag: u64,
}

fn exec_real(op: &Op, w: &mut RealWorld, sim: &mut Sim<RealWorld>) {
    match op {
        Op::Schedule { delay_ms, nested } => {
            real_schedule_at(sim.now() + SimDuration::from_millis(*delay_ms), nested, w, sim);
        }
        Op::SchedulePast { back_ms, nested } => {
            let at = SimTime::from_millis(sim.now().as_millis().saturating_sub(*back_ms));
            real_schedule_at(at, nested, w, sim);
        }
        Op::Cancel { target } => {
            if w.handles.is_empty() {
                w.log.push(Obs::CancelNoHandles);
            } else {
                let i = target % w.handles.len();
                let stopped = sim.cancel(w.handles[i]);
                w.log.push(Obs::Cancelled { target: i, stopped });
            }
        }
        Op::CancelNewest => {
            exec_real(&Op::Cancel { target: w.handles.len().saturating_sub(1) }, w, sim);
        }
        Op::Every { period_ms, fires } => {
            let tag = w.next_tag;
            w.next_tag += 1;
            w.log.push(Obs::Scheduled { tag });
            let mut left = *fires;
            let h = sim.schedule_every(SimDuration::from_millis(*period_ms), move |w: &mut RealWorld, s| {
                w.log.push(Obs::Fired { tag, at_ms: s.now().as_millis() });
                left -= 1;
                left > 0
            });
            w.handles.push(h);
        }
    }
}

fn real_schedule_at(at: SimTime, nested: &[Op], w: &mut RealWorld, sim: &mut Sim<RealWorld>) {
    let tag = w.next_tag;
    w.next_tag += 1;
    w.log.push(Obs::Scheduled { tag });
    let nested = nested.to_vec();
    let h = sim.schedule_at(at, move |w: &mut RealWorld, s| {
        w.log.push(Obs::Fired { tag, at_ms: s.now().as_millis() });
        for op in &nested {
            exec_real(op, w, s);
        }
    });
    w.handles.push(h);
}

fn run_real(program: &[Op]) -> (Vec<Obs>, u64, QueueStats) {
    let mut sim: Sim<RealWorld> = Sim::new(SimTime::EPOCH, 1);
    let mut w = RealWorld::default();
    for op in program {
        exec_real(op, &mut w, &mut sim);
    }
    sim.run(&mut w);
    (w.log, sim.executed(), sim.queue_stats())
}

// ---------------------------------------------------------------------------
// Model side: BTreeMap reference scheduler
// ---------------------------------------------------------------------------

enum MEvent {
    Once { tag: u64, nested: Vec<Op>, handle: usize },
    Every { tag: u64, period_ms: u64, left: u32, handle: usize },
}

/// The naive reference: a sorted map from `(time, seq)` to the event, plus a
/// per-handle record of the key currently pending (if any). `cancel` is a map
/// removal; repeating events re-insert under a fresh seq and re-point their
/// handle, which models "the handle stays cancellable across periods".
#[derive(Default)]
struct ModelSim {
    now_ms: u64,
    next_seq: u64,
    queue: BTreeMap<(u64, u64), MEvent>,
    pending_key: Vec<Option<(u64, u64)>>,
    log: Vec<Obs>,
    next_tag: u64,
    executed: u64,
}

impl ModelSim {
    fn schedule(&mut self, at_ms: u64, nested: Vec<Op>) {
        let tag = self.next_tag;
        self.next_tag += 1;
        self.log.push(Obs::Scheduled { tag });
        let key = (at_ms.max(self.now_ms), self.next_seq);
        self.next_seq += 1;
        let handle = self.pending_key.len();
        self.pending_key.push(Some(key));
        self.queue.insert(key, MEvent::Once { tag, nested, handle });
    }

    fn exec(&mut self, op: &Op) {
        match op {
            Op::Schedule { delay_ms, nested } => self.schedule(self.now_ms + delay_ms, nested.clone()),
            Op::SchedulePast { back_ms, nested } => {
                self.schedule(self.now_ms.saturating_sub(*back_ms), nested.clone())
            }
            Op::Cancel { target } => {
                if self.pending_key.is_empty() {
                    self.log.push(Obs::CancelNoHandles);
                } else {
                    let i = target % self.pending_key.len();
                    let stopped = match self.pending_key[i].take() {
                        Some(key) => self.queue.remove(&key).is_some(),
                        None => false,
                    };
                    self.log.push(Obs::Cancelled { target: i, stopped });
                }
            }
            Op::CancelNewest => self.exec(&Op::Cancel { target: self.pending_key.len().saturating_sub(1) }),
            Op::Every { period_ms, fires } => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.log.push(Obs::Scheduled { tag });
                let key = (self.now_ms + period_ms, self.next_seq);
                self.next_seq += 1;
                let handle = self.pending_key.len();
                self.pending_key.push(Some(key));
                self.queue.insert(key, MEvent::Every { tag, period_ms: *period_ms, left: *fires, handle });
            }
        }
    }

    fn run(&mut self) {
        while let Some((&key, _)) = self.queue.iter().next() {
            let event = self.queue.remove(&key).expect("key just observed");
            self.now_ms = key.0;
            self.executed += 1;
            match event {
                MEvent::Once { tag, nested, handle } => {
                    self.pending_key[handle] = None;
                    self.log.push(Obs::Fired { tag, at_ms: self.now_ms });
                    for op in &nested {
                        self.exec(op);
                    }
                }
                MEvent::Every { tag, period_ms, left, handle } => {
                    self.log.push(Obs::Fired { tag, at_ms: self.now_ms });
                    if left > 1 {
                        let key = (self.now_ms + period_ms, self.next_seq);
                        self.next_seq += 1;
                        self.pending_key[handle] = Some(key);
                        self.queue.insert(key, MEvent::Every { tag, period_ms, left: left - 1, handle });
                    } else {
                        self.pending_key[handle] = None;
                    }
                }
            }
        }
    }
}

fn run_model(program: &[Op]) -> (Vec<Obs>, u64) {
    let mut m = ModelSim::default();
    for op in program {
        m.exec(op);
    }
    m.run();
    (m.log, m.executed)
}

// ---------------------------------------------------------------------------
// The differential driver
// ---------------------------------------------------------------------------

fn seeds() -> u64 {
    if cfg!(debug_assertions) {
        200
    } else {
        1200
    }
}

fn check_seed(seed: u64) {
    let mut g = Gen(seed.wrapping_mul(0x9e37_79b9).wrapping_add(seed));
    let top_level = 4 + g.below(40) as usize;
    let program = gen_ops(&mut g, top_level, 2);
    check_program(seed, &program);
}

/// Runs one program through both schedulers and demands the same log,
/// executed count and tombstone reaps.
fn check_program(seed: u64, program: &[Op]) {
    let (real_log, real_executed, real_stats) = run_real(program);
    let (model_log, model_executed) = run_model(program);
    if real_log != model_log {
        let first = real_log
            .iter()
            .zip(model_log.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(real_log.len().min(model_log.len()));
        panic!(
            "seed {seed}: logs diverge at entry {first}\n  real:  {:?}\n  model: {:?}\n  program: {:?}",
            real_log.get(first),
            model_log.get(first),
            program,
        );
    }
    assert_eq!(real_executed, model_executed, "seed {seed}: executed-event counts diverge");
    // The queue's structural telemetry is pinned by the model too: every
    // cancel that reported `stopped` tombstoned a queued node, and a run
    // that drains the queue reaps every tombstone — lazily, in bulk at the
    // drain, or during a rebuild. (Reserved-slot cancels, which are freed
    // without a reap, cannot occur here: only `Once` events run nested ops,
    // so no cancel ever lands on a mid-fire repeating event.)
    let stopped_cancels =
        model_log.iter().filter(|o| matches!(o, Obs::Cancelled { stopped: true, .. })).count() as u64;
    assert_eq!(
        real_stats.tombstone_reaps, stopped_cancels,
        "seed {seed}: tombstone reaps diverge from the model's stopped-cancel count",
    );
}

#[test]
fn calendar_queue_matches_btreemap_model_across_seeds() {
    for seed in 0..seeds() {
        check_seed(seed);
    }
}

/// Programs that slam one instant with many events: batch-drain order and
/// budget math inside a same-timestamp run are the most bucket-layout
/// sensitive paths, so they get their own seed sweep with tighter time
/// ranges (lots of ties).
#[test]
fn tie_heavy_programs_match_the_model() {
    for seed in 0..seeds() / 2 {
        let mut g = Gen(seed.wrapping_mul(0x2545_f491_4f6c_dd1d));
        let n = 4 + g.below(30) as usize;
        let mut program = Vec::new();
        for _ in 0..n {
            // Delays drawn from {0, 100, 200, 300}: near-guaranteed ties.
            let roll = g.below(10);
            if roll < 7 {
                program.push(Op::Schedule { delay_ms: g.below(4) * 100, nested: gen_nested(&mut g, 1) });
            } else if roll < 9 {
                program.push(Op::Cancel { target: g.below(16) as usize });
            } else {
                program.push(Op::Every { period_ms: 100, fires: 1 + g.below(4) as u32 });
            }
        }
        let (real_log, _, _) = run_real(&program);
        let (model_log, _) = run_model(&program);
        assert_eq!(real_log, model_log, "seed {seed} diverged (tie-heavy)");
    }
}

/// Long-horizon mix: a few events far in the future force the calendar
/// queue's sparse-scan jump and cursor pull-back paths while near-term
/// events keep arriving.
#[test]
fn sparse_far_future_programs_match_the_model() {
    for seed in 0..seeds() / 4 {
        let mut g = Gen(seed.wrapping_add(0xdead_beef).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let mut program = vec![Op::Schedule {
            delay_ms: 1 << (20 + g.below(14)), // ~17 min .. ~4 months out
            nested: vec![Op::Schedule { delay_ms: g.below(50), nested: Vec::new() }],
        }];
        let extra = 10 + g.below(20) as usize;
        program.extend(gen_ops(&mut g, extra, 1));
        let (real_log, _, _) = run_real(&program);
        let (model_log, _) = run_model(&program);
        assert_eq!(real_log, model_log, "seed {seed} diverged (sparse)");
    }
}

/// The shape the calendar queue's insertion hint serves, and every way the
/// hint is invalidated. All events start inside the first bucket (the
/// default 1024 ms width until the ring first resizes): batches of ties sit
/// ahead of a later event in that bucket, so links walk the chain. Tie
/// events fire nested ops between pops — more ties, cancels of the event
/// linked last, `schedule_every` re-arms into the tie run — and some
/// programs grow past the first resize, which re-derives the width.
#[test]
fn tie_runs_ahead_of_a_later_event_match_the_model() {
    fn tie_nested(g: &mut Gen) -> Vec<Op> {
        (0..g.below(4))
            .map(|_| match g.below(4) {
                0 => Op::Schedule { delay_ms: g.below(3) * 100, nested: Vec::new() },
                1 => Op::CancelNewest,
                2 => Op::Every { period_ms: 100, fires: 1 + g.below(4) as u32 },
                _ => Op::Cancel { target: g.below(64) as usize },
            })
            .collect()
    }
    for seed in 0..seeds() / 2 {
        let mut g = Gen(seed.wrapping_mul(0xa076_1d64_78bd_642f).wrapping_add(7));
        // The later event every tie run sits ahead of.
        let mut program = vec![Op::Schedule { delay_ms: 900 + g.below(100), nested: Vec::new() }];
        let batches = 2 + g.below(6);
        let growth = if g.below(2) == 0 { 40 + g.below(40) } else { 0 };
        for _ in 0..batches + growth {
            let at = g.below(8) * 100;
            for _ in 0..1 + g.below(6) {
                program.push(Op::Schedule { delay_ms: at, nested: tie_nested(&mut g) });
            }
            match g.below(4) {
                0 => program.push(Op::CancelNewest),
                1 => program
                    .push(Op::Every { period_ms: 100 * (1 + g.below(3)), fires: 1 + g.below(5) as u32 }),
                _ => {}
            }
        }
        check_program(seed, &program);
    }
}
