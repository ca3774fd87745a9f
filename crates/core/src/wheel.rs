//! A hashed timer wheel: clock-free, tick-driven, insert-only.
//!
//! The wheel reads no clock.  Each caller converts its own time base to
//! absolute tick numbers (the reactor's 500 µs retransmission ticks, the
//! facade timer driver's 1 ms ticks) and hands those in; the wheel buckets
//! entries into [`WHEEL_SLOTS`] slots by `tick % WHEEL_SLOTS` and keeps a
//! cursor, the next tick it will collect.  The rules every caller relies on:
//!
//! * **Never early.** [`TimerWheel::insert`] takes the tick a deadline falls
//!   in and schedules the entry for the tick *after* it, so the entry fires
//!   once the caller's clock has certainly passed the deadline — at most one
//!   tick late.
//! * **Past deadlines clamp** to the cursor and fire on the next
//!   [`TimerWheel::advance`].
//! * **Far deadlines park.** An entry more than one revolution out stays in
//!   its slot; each pass over the slot skips it until its own tick comes
//!   round.
//! * **Cancellation is lazy.** There is no remove: an entry carries whatever
//!   generation its owner needs to recognise a superseded timer, and the
//!   owner ignores it when it fires.  Inserting stays O(1) with no scan.
//!
//! An advance costs O(elapsed ticks + entries in the visited slots), capped
//! at one sweep of every slot however long the caller slept.

// ppmsg-lint: deny(hot_path_alloc) — retransmission timers are armed on the steady-state path.

/// Slot count.  Deadlines further out than this many ticks park across
/// extra cursor revolutions.
pub const WHEEL_SLOTS: usize = 256;

/// Hashed timer wheel over entries of type `T`; see the [module
/// docs](self).
pub struct TimerWheel<T> {
    /// The next tick the cursor will collect.
    next_tick: u64,
    /// `(fire tick, entry)` pairs bucketed by `fire tick % WHEEL_SLOTS`.
    slots: Box<[Vec<(u64, T)>]>,
    /// Entries not yet collected.
    len: usize,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel whose cursor stands at tick 0.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            next_tick: 0,
            slots: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    /// Schedules `entry` for a deadline inside tick `deadline_tick`: it
    /// fires on the first advance to `deadline_tick + 1` or later, or on
    /// the next advance if that tick is already behind the cursor.
    pub fn insert(&mut self, deadline_tick: u64, entry: T) {
        let tick = deadline_tick.saturating_add(1).max(self.next_tick);
        self.slots[(tick % WHEEL_SLOTS as u64) as usize].push((tick, entry));
        self.len += 1;
    }

    /// Moves the cursor past `now_tick`, appending every entry due by then
    /// to `fired`.  An advance of less than one revolution hands entries
    /// out in tick order.
    pub fn advance(&mut self, now_tick: u64, fired: &mut Vec<T>) {
        if now_tick < self.next_tick {
            return;
        }
        if self.len > 0 {
            if now_tick - self.next_tick < WHEEL_SLOTS as u64 {
                for tick in self.next_tick..=now_tick {
                    let slot = (tick % WHEEL_SLOTS as u64) as usize;
                    self.len -= collect(&mut self.slots[slot], tick, fired);
                }
            } else {
                // A revolution or more behind: one sweep of every slot,
                // starting at the cursor's, collects everything due.
                let first = (self.next_tick % WHEEL_SLOTS as u64) as usize;
                for k in 0..WHEEL_SLOTS {
                    let slot = (first + k) % WHEEL_SLOTS;
                    self.len -= collect(&mut self.slots[slot], now_tick, fired);
                }
            }
        }
        self.next_tick = now_tick + 1;
    }

    /// The earliest tick an entry fires at, for callers that park until
    /// the next deadline.  O(slots + entries); not for per-pass use.
    pub fn earliest_tick(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        // Every entry fires at or after the cursor, so the first slot (in
        // cursor order) holding an entry for its current-revolution tick
        // holds the earliest one.
        for tick in self.next_tick..self.next_tick + WHEEL_SLOTS as u64 {
            let slot = &self.slots[(tick % WHEEL_SLOTS as u64) as usize];
            if slot.iter().any(|(at, _)| *at == tick) {
                return Some(tick);
            }
        }
        // Everything is parked for a later revolution.
        self.slots
            .iter()
            .flat_map(|slot| slot.iter().map(|(at, _)| *at))
            .min()
    }
}

/// Moves the entries of `slot` due by `tick` into `fired`; returns how many.
fn collect<T>(slot: &mut Vec<(u64, T)>, tick: u64, fired: &mut Vec<T>) -> usize {
    let mut taken = 0;
    let mut i = 0;
    while i < slot.len() {
        if slot[i].0 <= tick {
            fired.push(slot.swap_remove(i).1);
            taken += 1;
        } else {
            i += 1;
        }
    }
    taken
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fires_in_deadline_order_and_parks_far_deadlines() {
        let mut wheel = TimerWheel::new();
        // `far` lands in the same slot as `near` but a full revolution
        // later.
        wheel.insert(1, "near");
        wheel.insert(1 + WHEEL_SLOTS as u64, "far");
        wheel.insert(0, "first");
        let mut fired = Vec::new();
        wheel.advance(3, &mut fired);
        assert_eq!(
            fired,
            vec!["first", "near"],
            "far deadline must survive the first revolution"
        );
        assert_eq!(wheel.earliest_tick(), Some(2 + WHEEL_SLOTS as u64));
        fired.clear();
        wheel.advance(WHEEL_SLOTS as u64 + 3, &mut fired);
        assert_eq!(fired, vec!["far"]);
        assert_eq!(wheel.earliest_tick(), None);
    }

    #[test]
    fn clamps_past_deadlines_to_next_pass() {
        let mut wheel = TimerWheel::new();
        let mut fired = Vec::new();
        wheel.advance(100, &mut fired);
        assert!(fired.is_empty());
        // A deadline behind the cursor still fires on the next advance.
        wheel.insert(0, 3u32);
        assert_eq!(wheel.earliest_tick(), Some(101));
        wheel.advance(101, &mut fired);
        assert_eq!(fired, vec![3]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Deadlines spanning three revolutions (and a few behind the
        /// cursor), inserted while the clock moves in random strides: every
        /// entry fires exactly once, never before its deadline tick has
        /// passed, and on the first advance that reaches one tick past its
        /// deadline (or the next advance, for a clamped past deadline).
        #[test]
        fn every_entry_fires_once_never_early_at_most_one_tick_late(
            script in proptest::collection::vec(
                (0u64..3 * WHEEL_SLOTS as u64, 0u64..8, 1u64..2 * WHEEL_SLOTS as u64),
                1..64,
            ),
        ) {
            let mut wheel = TimerWheel::new();
            let mut now = 0u64;
            let mut advances = Vec::new();
            // Per entry: (deadline tick, earliest tick it may fire at).
            let mut expected: Vec<(u64, u64)> = Vec::new();
            let mut fired_at: Vec<Option<u64>> = Vec::new();
            let mut fired = Vec::new();
            let mut step = |wheel: &mut TimerWheel<usize>, now: u64, fired_at: &mut Vec<Option<u64>>| {
                wheel.advance(now, &mut fired);
                for id in fired.drain(..) {
                    assert!(fired_at[id].is_none(), "entry {id} fired twice");
                    fired_at[id] = Some(now);
                }
            };
            for &(ahead, behind, stride) in &script {
                let deadline = (now + ahead).saturating_sub(behind);
                expected.push((deadline, (deadline + 1).max(now + 1)));
                fired_at.push(None);
                wheel.insert(deadline, expected.len() - 1);
                now += stride;
                advances.push(now);
                step(&mut wheel, now, &mut fired_at);
            }
            let horizon = expected.iter().map(|&(_, due)| due).max().unwrap_or(0);
            while now < horizon {
                now += 1;
                advances.push(now);
                step(&mut wheel, now, &mut fired_at);
            }
            prop_assert_eq!(wheel.earliest_tick(), None);
            for (id, &(deadline, due)) in expected.iter().enumerate() {
                let at = fired_at[id].expect("every entry fires");
                prop_assert!(at > deadline, "entry {} fired early at {}", id, at);
                let first_due = advances.iter().copied().find(|&a| a >= due);
                prop_assert_eq!(Some(at), first_due);
            }
        }
    }
}
