//! `kernel_churn`: a seeded synthetic program on `Sim<W>` whose handlers do
//! almost nothing, so the calendar queue does nearly all the work.
//!
//! Setup schedules a few thousand events over near, mid and far horizons
//! and onto shared instants (ties), some `schedule_every` timers among them,
//! and cancels a third. From then on the queue churns the way a running
//! simulation's does: each fired event schedules a follow-up from inside its
//! handler (and half the time a second, short-lived one), and half the time
//! cancels one of the 64 events scheduled most recently, so about a third of
//! all schedules are cancelled. The drain is a `run_until` in phases; between
//! phases a burst arrives latest-first, each schedule landing before the
//! last, behind where the previous peek left the queue's cursor. Cancels,
//! wide gaps and ties drive tombstone reaps, ring resizes and cursor
//! pull-backs — a different use of the queue from `aramco`'s repeating
//! timers.
//!
//! The firing order (and every cancel's result) is checked against a
//! `BTreeMap<(time, seq)>` reference, the model `tests/sched_model.rs`
//! proves the queue against, computed once, untimed, in setup.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use malsim_kernel::sched::{EventHandle, Sim};
use malsim_kernel::time::{SimDuration, SimTime};

use crate::trace::{Ctx, Tracer};
use crate::{Gen, Iteration, LayerCounts, Workload};

/// Events scheduled before the run.
const INITIAL: usize = 4_000;
/// Generations of follow-ups an initial event's lineage lives.
const LIFE: u8 = 40;
/// Events injected at each phase boundary, and their lineages' life.
const BURST: usize = 500;
const BURST_LIFE: u8 = 4;
/// `run_until` boundaries in ms, from 1 s to past the last event.
const PHASES_MS: [u64; 8] =
    [1_000, 2_000, 10_000, 60_000, 600_000, 3_600_000, 86_400_000, 36_500 * 86_400_000];
const FAR_MS: u64 = 30 * 86_400_000;
/// Tie instants: multiples of this many ms.
const TIE_MS: u64 = 250;
/// Cancels hit one of this many most recently scheduled events.
const CANCEL_WINDOW: u64 = 64;

/// Where a schedule lands, relative to the clock when it is made.
#[derive(Debug, Clone, Copy)]
enum When {
    /// `schedule_in(delay_ms)`.
    In(u64),
    /// `schedule_at(at_ms)`, clamped to now when in the past.
    At(u64),
}

impl When {
    /// 65% near (≤ 2 s), 15% mid (≤ 1 h), 5% far (≤ 30 days), 10% onto the
    /// next tie instant, 5% in the past.
    fn draw(x: u64, now_ms: u64) -> When {
        let v = x >> 8;
        match x % 20 {
            0..=12 => When::In(v % 2_000),
            13..=15 => When::In(v % 3_600_000),
            16 => When::In(v % FAR_MS),
            17 | 18 => When::At((now_ms / TIE_MS + 1) * TIE_MS),
            _ => When::At(now_ms.saturating_sub(v % 1_000)),
        }
    }

    fn due_ms(self, now_ms: u64) -> u64 {
        match self {
            When::In(delay_ms) => now_ms + delay_ms,
            When::At(at_ms) => at_ms.max(now_ms),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Once { when: When, tag: u64, life: u8 },
    Every { period_ms: u64, fires: u32, tag: u64 },
}

/// What a fired one-shot event with life left does, derived from its tag:
/// one follow-up that inherits its lineage, half the time a second one that
/// has none, and half the time a cancel `back` places behind the newest
/// handle.
struct Reaction {
    first: (When, u64),
    second: Option<(When, u64)>,
    cancel_back: Option<u64>,
}

fn react(tag: u64, now_ms: u64) -> Reaction {
    let mut g = Gen(tag);
    let (a, b, c) = (g.next_u64(), g.next_u64(), g.next_u64());
    Reaction {
        first: (When::draw(a, now_ms), a),
        second: (c & 1 == 0).then(|| (When::draw(b, now_ms), b)),
        cancel_back: (c & 2 == 0).then_some((c >> 8) % CANCEL_WINDOW),
    }
}

/// Index of the handle `back` places behind the newest of `len`.
fn cancel_target(len: usize, back: u64) -> usize {
    len - 1 - (back as usize).min(len - 1)
}

fn gen_ops(g: &mut Gen, n: usize, now_ms: u64, life: u8) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let tag = g.next_u64();
            if g.below(20) == 0 {
                Op::Every { period_ms: 1 + g.below(5_000), fires: 1 + g.below(8) as u32, tag }
            } else {
                Op::Once { when: When::draw(g.next_u64(), now_ms), tag, life }
            }
        })
        .collect()
}

struct Program {
    initial: Vec<Op>,
    /// Indices into `initial` cancelled right after scheduling.
    cancels: Vec<usize>,
    /// Ops injected after each phase but the last, latest-first.
    bursts: Vec<Vec<Op>>,
}

impl Program {
    fn generate(seed: u64) -> Program {
        let mut g = Gen(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0xc4);
        let initial = gen_ops(&mut g, INITIAL, 0, LIFE);
        let cancels = (0..INITIAL).filter(|_| g.below(3) == 0).collect();
        let bursts = PHASES_MS[..PHASES_MS.len() - 1]
            .iter()
            .map(|&now_ms| {
                let mut burst = gen_ops(&mut g, BURST, now_ms, BURST_LIFE);
                burst.sort_by_key(|op| match *op {
                    Op::Once { when, .. } => std::cmp::Reverse(when.due_ms(now_ms)),
                    Op::Every { period_ms, .. } => std::cmp::Reverse(now_ms + period_ms),
                });
                burst
            })
            .collect();
        Program { initial, cancels, bursts }
    }
}

/// FNV-1a over `(time, value)` pairs: fired tags and cancel results.
#[derive(Debug, Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, at_ms: u64, value: u64) {
        for b in at_ms.to_le_bytes().into_iter().chain(value.to_le_bytes()) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The benchmark's world: the digest and every handle issued, in order.
#[derive(Debug)]
struct Churned {
    digest: Digest,
    handles: Vec<EventHandle>,
}

fn schedule(sim: &mut Sim<Churned>, w: &mut Churned, op: Op) {
    let handle = match op {
        Op::Once { when, tag, life } => {
            let action = move |w: &mut Churned, s: &mut Sim<Churned>| fire(w, s, tag, life);
            match when {
                When::In(delay_ms) => sim.schedule_in(SimDuration::from_millis(delay_ms), action),
                When::At(at_ms) => sim.schedule_at(SimTime::from_millis(at_ms), action),
            }
        }
        Op::Every { period_ms, fires, tag } => {
            let mut left = fires;
            sim.schedule_every(SimDuration::from_millis(period_ms), move |w: &mut Churned, s| {
                w.digest.fold(s.now().as_millis(), tag);
                left -= 1;
                left > 0
            })
        }
    };
    w.handles.push(handle);
}

fn fire(w: &mut Churned, s: &mut Sim<Churned>, tag: u64, life: u8) {
    let now_ms = s.now().as_millis();
    w.digest.fold(now_ms, tag);
    if life == 0 {
        return;
    }
    let r = react(tag, now_ms);
    schedule(s, w, Op::Once { when: r.first.0, tag: r.first.1, life: life - 1 });
    if let Some((when, tag)) = r.second {
        schedule(s, w, Op::Once { when, tag, life: 0 });
    }
    if let Some(back) = r.cancel_back {
        let stopped = s.cancel(w.handles[cancel_target(w.handles.len(), back)]);
        w.digest.fold(now_ms, u64::from(stopped));
    }
}

/// The reference scheduler: a map from `(time, seq)` to the event plus the
/// key each handle has pending, as in `tests/sched_model.rs`. Returns the
/// digest and the number of fired events.
fn reference(p: &Program) -> (u64, u64) {
    enum Ev {
        Once { tag: u64, life: u8, handle: usize },
        Every { tag: u64, period_ms: u64, left: u32, handle: usize },
    }
    struct Model {
        now_ms: u64,
        seq: u64,
        queue: BTreeMap<(u64, u64), Ev>,
        pending: Vec<Option<(u64, u64)>>,
        digest: Digest,
        fired: u64,
    }
    impl Model {
        fn insert(&mut self, at_ms: u64, ev: impl FnOnce(usize) -> Ev) -> usize {
            let handle = self.pending.len();
            let key = (at_ms.max(self.now_ms), self.seq);
            self.seq += 1;
            self.pending.push(Some(key));
            self.queue.insert(key, ev(handle));
            handle
        }
        fn schedule(&mut self, op: Op) {
            match op {
                Op::Once { when, tag, life } => {
                    self.insert(when.due_ms(self.now_ms), |handle| Ev::Once { tag, life, handle });
                }
                Op::Every { period_ms, fires, tag } => {
                    self.insert(self.now_ms + period_ms, |handle| Ev::Every {
                        tag,
                        period_ms,
                        left: fires,
                        handle,
                    });
                }
            }
        }
        fn cancel(&mut self, handle: usize) -> bool {
            self.pending[handle].take().is_some_and(|key| self.queue.remove(&key).is_some())
        }
        fn run_until(&mut self, until_ms: u64) {
            while let Some(entry) = self.queue.first_entry() {
                if entry.key().0 > until_ms {
                    break;
                }
                let ((now_ms, _), ev) = entry.remove_entry();
                self.now_ms = now_ms;
                self.fired += 1;
                match ev {
                    Ev::Once { tag, life, handle } => {
                        self.pending[handle] = None;
                        self.digest.fold(now_ms, tag);
                        if life == 0 {
                            continue;
                        }
                        let r = react(tag, now_ms);
                        self.schedule(Op::Once { when: r.first.0, tag: r.first.1, life: life - 1 });
                        if let Some((when, tag)) = r.second {
                            self.schedule(Op::Once { when, tag, life: 0 });
                        }
                        if let Some(back) = r.cancel_back {
                            let stopped = self.cancel(cancel_target(self.pending.len(), back));
                            self.digest.fold(now_ms, u64::from(stopped));
                        }
                    }
                    Ev::Every { tag, period_ms, left, handle } => {
                        self.digest.fold(now_ms, tag);
                        if left > 1 {
                            let key = (now_ms + period_ms, self.seq);
                            self.seq += 1;
                            self.pending[handle] = Some(key);
                            self.queue.insert(key, Ev::Every { tag, period_ms, left: left - 1, handle });
                        } else {
                            self.pending[handle] = None;
                        }
                    }
                }
            }
            self.now_ms = self.now_ms.max(until_ms);
        }
    }
    let mut m = Model {
        now_ms: 0,
        seq: 0,
        queue: BTreeMap::new(),
        pending: Vec::new(),
        digest: Digest::new(),
        fired: 0,
    };
    for &op in &p.initial {
        m.schedule(op);
    }
    for &i in &p.cancels {
        m.cancel(i);
    }
    for (phase, &until_ms) in PHASES_MS.iter().enumerate() {
        m.run_until(until_ms);
        for &op in p.bursts.get(phase).into_iter().flatten() {
            m.schedule(op);
        }
    }
    (m.digest.0, m.fired)
}

pub struct Churn {
    program: Program,
    expected: (u64, u64),
}

impl Churn {
    pub fn new(seed: u64) -> Churn {
        let program = Program::generate(seed);
        let expected = reference(&program);
        Churn { program, expected }
    }
}

impl Workload for Churn {
    const WARMUP: bool = true;

    fn iterate(&mut self, tracer: &Arc<Tracer>, run: u32) -> Iteration {
        let p = &self.program;
        let root = Ctx::iteration(run);
        let started = tracer.now_ns();
        let it_ctx = tracer.child(root);

        let t = Instant::now();
        let (mut sim, mut world, cancelled) = tracer.span(it_ctx, "setup", |s| {
            let mut sim: Sim<Churned> = Sim::new(SimTime::EPOCH, 1);
            let mut world = Churned { digest: Digest::new(), handles: Vec::new() };
            tracer.span(s, "sched.schedule", |_| {
                for &op in &p.initial {
                    schedule(&mut sim, &mut world, op);
                }
            });
            let cancelled = tracer.span(s, "sched.cancel", |_| {
                p.cancels.iter().filter(|&&i| sim.cancel(world.handles[i])).count()
            });
            (sim, world, cancelled)
        });
        let setup_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        tracer.span(it_ctx, "run", |r| {
            for (phase, &until_ms) in PHASES_MS.iter().enumerate() {
                tracer.span(r, "sched.run_until", |_| {
                    sim.run_until(&mut world, SimTime::from_millis(until_ms))
                });
                if let Some(burst) = p.bursts.get(phase) {
                    tracer.span(r, "sched.inject", |_| {
                        for &op in burst {
                            schedule(&mut sim, &mut world, op);
                        }
                    });
                }
            }
        });
        let run_s = t.elapsed().as_secs_f64();
        tracer.record(it_ctx, root, "iteration", started, tracer.now_ns());

        let events = sim.executed();
        let ok = (world.digest.0, events) == self.expected && cancelled == p.cancels.len();
        if !ok {
            eprintln!(
                "kernel_churn: iteration {run} fired {events} events (digest {:016x}), reference {} ({:016x}); \
                 {cancelled}/{} setup cancels took",
                world.digest.0,
                self.expected.1,
                self.expected.0,
                p.cancels.len()
            );
        }
        Iteration {
            setup_s,
            run_s,
            events,
            points: 1,
            high_done_s: run_s,
            attempted: 1,
            failed: u64::from(!ok),
            layer: LayerCounts {
                schedules: p.initial.len() as u64,
                cancels: p.cancels.len() as u64,
                ..LayerCounts::default()
            },
        }
    }
}
