//! A hierarchical timer wheel for millions of staggered deadlines.
//!
//! netsim orders every event — packets, timers, node bookkeeping — through
//! one binary heap: O(log n) per operation over *all* pending events. A
//! fleet needs exactly one pending deadline per client (its next pool
//! round or poll), and those deadlines are dense and short-range. The
//! classic hashed hierarchical wheel (Varghese & Lauck) gives O(1)
//! schedule/cancel and amortized-O(1) expiry:
//!
//! * [`LEVELS`] levels of [`SLOTS`] slots each; level *l* covers
//!   `SLOTS^(l+1)` ticks, so six 64-slot levels span `64^6` ticks (~2
//!   years at the default 1 ms tick).
//! * Each slot heads an **intrusive singly-linked list** over a
//!   preallocated `next[]` column — scheduling a timer writes two words
//!   and allocates nothing, ever.
//! * Advancing a tick expires level-0's current slot; on level boundaries
//!   the matching upper slot *cascades* down, re-filing its timers by
//!   their exact deadline tick.
//!
//! The wheel orders by **tick**; ties within a tick carry no order.
//!
//! The fleet engine no longer uses it: no fleet output depends on the
//! order in which clients run, so each client steps straight through its
//! slice off its `deadline_ns` column. The wheel stays only because the
//! repository benchmark's `wheel.op_ns` kernel imports it; the benchmark
//! change that retires that kernel deletes this module.

/// Slot-index bits per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
pub const SLOTS: usize = 1 << SLOT_BITS;
/// Hierarchy depth.
pub const LEVELS: usize = 6;
/// Empty-list sentinel.
const NIL: u32 = u32::MAX;

/// A hierarchical timer wheel over timer ids `0..capacity`.
///
/// Each id may hold at most one pending deadline (re-scheduling an armed
/// id is a logic error the wheel does not detect — the fleet's one-event-
/// per-client discipline guarantees it).
#[derive(Debug, Clone)]
pub struct TimerWheel {
    tick_ns: u64,
    now_tick: u64,
    heads: Vec<[u32; SLOTS]>, // one slot array per level
    next: Vec<u32>,
    deadline_tick: Vec<u64>,
    armed: usize,
    /// Level-0 slot occupancy (bit set ⇔ head non-NIL), the index behind
    /// [`TimerWheel::fast_forward`]'s O(1) empty-run skipping.
    occupied0: u64,
}

impl TimerWheel {
    /// A wheel for `capacity` timer ids at `tick_ns` resolution, starting
    /// at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is zero.
    pub fn new(capacity: usize, tick_ns: u64) -> Self {
        assert!(tick_ns > 0, "tick must be positive");
        TimerWheel {
            tick_ns,
            now_tick: 0,
            heads: vec![[NIL; SLOTS]; LEVELS],
            next: vec![NIL; capacity],
            deadline_tick: vec![0; capacity],
            armed: 0,
            occupied0: 0,
        }
    }

    /// Bytes of intrusive per-timer state (`next` + `deadline_tick`
    /// entries), for per-client footprint accounting.
    pub const PER_TIMER_BYTES: usize = std::mem::size_of::<u32>() + std::mem::size_of::<u64>();

    /// Forgets every pending timer and rewinds to time zero, keeping the
    /// allocations (fleet-reuse support).
    pub fn reset(&mut self) {
        self.now_tick = 0;
        for level in &mut self.heads {
            level.fill(NIL);
        }
        self.next.fill(NIL);
        self.armed = 0;
        self.occupied0 = 0;
    }

    /// Grows (or shrinks) the id capacity, dropping all pending timers.
    pub fn resize(&mut self, capacity: usize) {
        self.next.clear();
        self.next.resize(capacity, NIL);
        self.deadline_tick.clear();
        self.deadline_tick.resize(capacity, 0);
        for level in &mut self.heads {
            level.fill(NIL);
        }
        self.now_tick = 0;
        self.armed = 0;
        self.occupied0 = 0;
    }

    /// Number of ids the wheel can hold.
    pub fn capacity(&self) -> usize {
        self.next.len()
    }

    /// The wheel's current tick (see [`TimerWheel::now_ns`]).
    pub fn now_tick(&self) -> u64 {
        self.now_tick
    }

    /// Moves the clock of an **empty** wheel to an absolute tick, the
    /// restore half of checkpoint/resume: a snapshot records `now_tick`,
    /// a restore resets the wheel, jumps here, then re-files every
    /// pending deadline through [`TimerWheel::schedule`] (which re-hashes
    /// each timer into the slot it would occupy had the wheel advanced
    /// tick by tick to this point).
    ///
    /// # Panics
    ///
    /// Panics if any timer is armed (the jump would strand it in a slot
    /// computed for a different rotation).
    pub fn jump_to_tick(&mut self, tick: u64) {
        assert_eq!(self.armed, 0, "jump_to_tick on a non-empty wheel");
        self.now_tick = tick;
    }

    /// Timers currently pending.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// The wheel's current time in nanoseconds (start of the current tick).
    pub fn now_ns(&self) -> u64 {
        self.now_tick * self.tick_ns
    }

    /// The tick a deadline at `at_ns` fires on (never early: rounds up).
    pub fn tick_of(&self, at_ns: u64) -> u64 {
        at_ns.div_ceil(self.tick_ns)
    }

    /// Arms timer `id` for `at_ns`. Returns `false` when the deadline is
    /// not in the future of the wheel clock (the caller must run it
    /// immediately instead — the wheel cannot file into the past).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn schedule(&mut self, id: u32, at_ns: u64) -> bool {
        let tick = self.tick_of(at_ns);
        if tick <= self.now_tick {
            return false;
        }
        self.deadline_tick[id as usize] = tick;
        self.file(id, tick);
        self.armed += 1;
        true
    }

    fn file(&mut self, id: u32, tick: u64) {
        let diff = tick ^ self.now_tick;
        let level = if diff == 0 {
            0
        } else {
            (((63 - diff.leading_zeros()) / SLOT_BITS) as usize).min(LEVELS - 1)
        };
        let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.next[id as usize] = self.heads[level][slot];
        self.heads[level][slot] = id;
        if level == 0 {
            self.occupied0 |= 1 << slot;
        }
    }

    /// Jumps the clock forward to just before the next tick that could do
    /// any work — the next occupied level-0 slot in the current 64-tick
    /// rotation, the rotation boundary (where upper levels may cascade),
    /// or `limit_tick`, whichever comes first — without stepping the empty
    /// ticks in between. The skipped ticks are provably no-ops: their
    /// level-0 slot is empty and no cascade boundary lies inside the
    /// skipped range, so a subsequent [`TimerWheel::advance`] behaves
    /// exactly as if every intervening tick had been advanced one by one.
    ///
    /// This is what makes per-shard wheels affordable: a sharded fleet
    /// walks S wheels over the same horizon, and without skipping the
    /// empty-tick cost would multiply by S.
    pub fn fast_forward(&mut self, limit_tick: u64) {
        if limit_tick <= self.now_tick + 1 {
            return;
        }
        let slot = self.now_tick & (SLOTS as u64 - 1);
        let rotation = self.now_tick & !(SLOTS as u64 - 1);
        // Occupied slots strictly ahead of the current one in this
        // rotation; slots at or behind belong to the next rotation, whose
        // boundary stops us first.
        let ahead = if slot == SLOTS as u64 - 1 {
            0
        } else {
            self.occupied0 & (u64::MAX << (slot + 1))
        };
        let next_interesting = if ahead != 0 {
            rotation + u64::from(ahead.trailing_zeros())
        } else {
            rotation + SLOTS as u64 // the cascade boundary
        };
        self.now_tick = (next_interesting - 1)
            .min(limit_tick - 1)
            .max(self.now_tick);
    }

    /// Advances one tick, appending every timer expiring on it to `due`
    /// (unordered). Returns the new wheel time in nanoseconds.
    pub fn advance(&mut self, due: &mut Vec<u32>) -> u64 {
        self.now_tick += 1;
        // Cascade upper levels on their boundaries, innermost first.
        for level in 1..LEVELS {
            if self.now_tick & ((1 << (SLOT_BITS * level as u32)) - 1) != 0 {
                break;
            }
            let slot =
                ((self.now_tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
            let mut cursor = std::mem::replace(&mut self.heads[level][slot], NIL);
            while cursor != NIL {
                let id = cursor;
                cursor = self.next[id as usize];
                self.file(id, self.deadline_tick[id as usize]);
            }
        }
        // Expire level 0's current slot.
        let slot = (self.now_tick & (SLOTS as u64 - 1)) as usize;
        let mut cursor = std::mem::replace(&mut self.heads[0][slot], NIL);
        self.occupied0 &= !(1 << slot); // re-files below may set it again
        while cursor != NIL {
            let id = cursor;
            cursor = self.next[id as usize];
            if self.deadline_tick[id as usize] == self.now_tick {
                self.next[id as usize] = NIL;
                self.armed -= 1;
                due.push(id);
            } else {
                // A longer-range timer hashed onto the same level-0 slot
                // (deadline ≥ now + SLOTS ticks): re-file for its next pass.
                self.file(id, self.deadline_tick[id as usize]);
            }
        }
        self.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains the wheel up to `until_ns`, returning (fire_ns, id) pairs.
    fn drain(wheel: &mut TimerWheel, until_ns: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        while wheel.now_ns() < until_ns {
            let now = wheel.advance(&mut due);
            due.sort_unstable();
            for id in due.drain(..) {
                out.push((now, id));
            }
        }
        out
    }

    #[test]
    fn fires_in_deadline_order_never_early() {
        let mut wheel = TimerWheel::new(8, 1_000_000); // 1 ms ticks
        let deadlines = [
            (0u32, 5_000_000u64),
            (1, 1_000_001),
            (2, 64_000_000),     // level-1 range
            (3, 4_100_000_000),  // level-2 range
            (4, 26_300_000_000), // deep
        ];
        for &(id, at) in &deadlines {
            assert!(wheel.schedule(id, at));
        }
        assert_eq!(wheel.armed(), 5);
        let fired = drain(&mut wheel, 30_000_000_000);
        assert_eq!(fired.len(), 5);
        for &(at, id) in &fired {
            let want = deadlines.iter().find(|d| d.0 == id).unwrap().1;
            assert!(at >= want, "timer {id} fired at {at} before {want}");
            assert!(at - want < 1_000_000, "timer {id} fired a tick late");
        }
        let order: Vec<u32> = fired.iter().map(|&(_, id)| id).collect();
        assert_eq!(order, vec![1, 0, 2, 3, 4]);
        assert_eq!(wheel.armed(), 0);
    }

    #[test]
    fn wheel_matches_sorted_reference_on_dense_load() {
        let mut wheel = TimerWheel::new(512, 1_000_000);
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        for id in 0..512u32 {
            // Cheap LCG spread across ~80 s, covering multiple levels.
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let at = 1 + state % 80_000_000_000;
            assert!(wheel.schedule(id, at));
            expected.push((wheel.tick_of(at) * 1_000_000, id));
        }
        expected.sort_unstable();
        let fired = drain(&mut wheel, 81_000_000_000);
        assert_eq!(fired, expected);
    }

    #[test]
    fn past_deadlines_are_refused() {
        let mut wheel = TimerWheel::new(2, 1_000);
        let mut due = Vec::new();
        for _ in 0..10 {
            wheel.advance(&mut due);
        }
        assert!(!wheel.schedule(0, 0));
        assert!(
            !wheel.schedule(0, wheel.now_ns()),
            "current tick is not future"
        );
        assert!(wheel.schedule(0, wheel.now_ns() + 1));
        assert_eq!(wheel.armed(), 1);
    }

    #[test]
    fn reset_forgets_and_rewinds() {
        let mut wheel = TimerWheel::new(4, 1_000);
        wheel.schedule(0, 5_000);
        wheel.schedule(1, 50_000);
        let mut due = Vec::new();
        wheel.advance(&mut due);
        wheel.reset();
        assert_eq!(wheel.armed(), 0);
        assert_eq!(wheel.now_ns(), 0);
        // Re-arming after reset works, and dropped timers never fire.
        assert!(wheel.schedule(2, 2_000));
        assert_eq!(drain(&mut wheel, 100_000), vec![(2_000, 2)]);
    }

    /// Drains like `drain`, but fast-forwarding over empty stretches the
    /// way the fleet engine does.
    fn drain_fast(wheel: &mut TimerWheel, until_ns: u64) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        let limit = wheel.tick_of(until_ns);
        while wheel.now_ns() < until_ns && wheel.armed() > 0 {
            wheel.fast_forward(limit);
            let now = wheel.advance(&mut due);
            due.sort_unstable();
            for id in due.drain(..) {
                out.push((now, id));
            }
        }
        out
    }

    #[test]
    fn fast_forward_preserves_the_fire_sequence() {
        // Dense pseudo-random load across all levels: the skipped drain
        // must report exactly the same (time, id) sequence as the
        // tick-by-tick one.
        let build = || {
            let mut wheel = TimerWheel::new(512, 1_000_000);
            let mut state = 0xfeed_beef_u64;
            for id in 0..512u32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let at = 1 + state % 80_000_000_000;
                assert!(wheel.schedule(id, at));
            }
            wheel
        };
        let plain = drain(&mut build(), 81_000_000_000);
        let skipped = drain_fast(&mut build(), 81_000_000_000);
        assert_eq!(plain, skipped);
    }

    #[test]
    fn fast_forward_respects_the_limit_and_rearms() {
        let mut wheel = TimerWheel::new(4, 1_000);
        wheel.schedule(0, 500_000); // far in the future (level > 0)
                                    // Nothing before the limit: the clock must stop at limit - 1 so
                                    // the next advance lands exactly on the limit tick.
        wheel.fast_forward(10);
        assert_eq!(wheel.now_ns(), 9_000);
        let mut due = Vec::new();
        wheel.advance(&mut due);
        assert!(due.is_empty());
        assert_eq!(wheel.now_ns(), 10_000);
        // A no-op when the limit is the next tick anyway.
        wheel.fast_forward(11);
        assert_eq!(wheel.now_ns(), 10_000);
        // Skipping still fires re-armed near timers exactly on time.
        wheel.schedule(1, 20_500);
        assert_eq!(
            drain_fast(&mut wheel, 600_000),
            vec![(21_000, 1), (500_000, 0)]
        );
    }

    #[test]
    fn rearm_after_fire_cycles() {
        let mut wheel = TimerWheel::new(1, 1_000);
        let mut fired_at = Vec::new();
        let mut due = Vec::new();
        wheel.schedule(0, 1_000);
        while wheel.now_ns() < 10_000 {
            let now = wheel.advance(&mut due);
            for id in due.drain(..) {
                fired_at.push(now);
                wheel.schedule(id, now + 2_000);
            }
        }
        assert_eq!(fired_at, vec![1_000, 3_000, 5_000, 7_000, 9_000]);
    }
}
