//! Wall-clock futures: [`sleep`] and [`timeout`].
//!
//! The protocol engine reads no clock and the executors keep no time source,
//! so until now an async caller awaiting a completion that never arrives
//! (peer crashed before posting, wildcard mismatch, ...) waited forever.
//! This module closes that hazard with the same hashed timer wheel the
//! reactor backend uses for retransmission deadlines
//! ([`ppmsg_core::wheel::TimerWheel`], millisecond ticks here, lazy
//! cancellation) driven by one global, lazily-started thread.
//!
//! * [`sleep`] resolves once a duration has elapsed;
//! * [`timeout`] races any future against a deadline, yielding
//!   `Err(`[`Elapsed`]`)` if the deadline wins.
//!
//! Entries are generation-checked: dropping a [`Sleep`] retires its slot
//! immediately and leaves the wheel entry to be collected at its original
//! tick, where the stale generation makes it a no-op — cancellation costs
//! O(1), exactly like the reactor's timers and the engine's own timer
//! generations.  Wakes never fire early; they may fire up to one tick
//! (1 ms) late, which is noise against the retransmission-scale timeouts
//! this layer exists for.

use ppmsg_check::sync::{Condvar, Mutex};
use ppmsg_core::wheel::TimerWheel;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, OnceLock};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// Wheel resolution: 1 ms ticks (deadlines round up, never firing early).
const TICK_US: u64 = 1_000;

/// A timer slot's lifecycle.  `Waiting` holds the waker of the last poll
/// (none before the first); `Elapsed` means the wheel fired it and the next
/// poll resolves.
enum SlotState {
    Waiting(Option<Waker>),
    Elapsed,
}

struct TimerSlot {
    generation: u64,
    state: SlotState,
}

struct TimerInner {
    /// Tick 0 of the wheel.
    start: Instant,
    /// `(slot, generation)` entries, checked against `table` when fired.
    wheel: TimerWheel<(usize, u64)>,
    table: Vec<TimerSlot>,
    free: Vec<usize>,
    /// Scratch for entries collected in one advance.
    fired: Vec<(usize, u64)>,
}

impl TimerInner {
    fn new(start: Instant) -> TimerInner {
        TimerInner {
            start,
            wheel: TimerWheel::new(),
            table: Vec::new(),
            free: Vec::new(),
            fired: Vec::new(),
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.start).as_micros() as u64 / TICK_US
    }

    fn instant_of(&self, tick: u64) -> Instant {
        self.start + Duration::from_micros(tick * TICK_US)
    }

    /// Registers a sleep until `deadline`, returning `(slot, generation)`.
    fn register(&mut self, deadline: Instant) -> (usize, u64) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.table.push(TimerSlot {
                generation: 0,
                state: SlotState::Elapsed,
            });
            self.table.len() - 1
        });
        self.table[slot].state = SlotState::Waiting(None);
        let generation = self.table[slot].generation;
        self.wheel
            .insert(self.tick_of(deadline), (slot, generation));
        (slot, generation)
    }

    /// Advances the wheel to `now`, collecting the wakers of every sleep
    /// that elapsed.
    fn advance(&mut self, now: Instant, woken: &mut Vec<Waker>) {
        let now_tick = self.tick_of(now);
        self.wheel.advance(now_tick, &mut self.fired);
        for (slot_index, generation) in self.fired.drain(..) {
            let slot = &mut self.table[slot_index];
            // Stale generation = the sleep was dropped; skip.
            if slot.generation != generation {
                ppmsg_core::telemetry::event(
                    ppmsg_core::telemetry::EventKind::TimerStale,
                    generation as u32,
                    0,
                    slot_index as u64,
                );
                continue;
            }
            if let SlotState::Waiting(waker) = &mut slot.state {
                if let Some(waker) = waker.take() {
                    woken.push(waker);
                }
                slot.state = SlotState::Elapsed;
                ppmsg_core::telemetry::event(
                    ppmsg_core::telemetry::EventKind::TimerFire,
                    generation as u32,
                    0,
                    slot_index as u64,
                );
            }
        }
    }

    /// Frees a slot, invalidating any wheel entry still pointing at it.
    fn retire(&mut self, slot: usize) {
        self.table[slot].generation += 1;
        self.free.push(slot);
    }
}

struct TimerShared {
    inner: Mutex<TimerInner>,
    cv: Condvar,
}

/// The global timer driver, started on first use and never stopped (one
/// parked thread while no timer is armed).
fn driver() -> &'static Arc<TimerShared> {
    static DRIVER: OnceLock<Arc<TimerShared>> = OnceLock::new();
    DRIVER.get_or_init(|| {
        let shared = Arc::new(TimerShared {
            inner: Mutex::new("timer.driver", TimerInner::new(Instant::now())),
            cv: Condvar::new(),
        });
        let thread_shared = shared.clone();
        std::thread::Builder::new()
            .name("ppmsg-timer".into())
            .spawn(move || driver_loop(thread_shared))
            .expect("spawn timer driver");
        shared
    })
}

fn driver_loop(shared: Arc<TimerShared>) {
    let mut woken: Vec<Waker> = Vec::new();
    let mut inner = shared.inner.lock();
    loop {
        let now = Instant::now();
        inner.advance(now, &mut woken);
        if !woken.is_empty() {
            // Wakers run without the wheel lock: a waker is arbitrary
            // executor code and may arm new timers inside.
            drop(inner);
            for waker in woken.drain(..) {
                waker.wake();
            }
            inner = shared.inner.lock();
            continue;
        }
        match inner.wheel.earliest_tick() {
            Some(tick) => {
                let deadline = inner.instant_of(tick);
                let timeout = deadline.saturating_duration_since(Instant::now());
                let (guard, _timed_out) = shared.cv.wait_timeout(inner, timeout);
                inner = guard;
            }
            // Idle: park until the next registration.  The wheel's first
            // advance after a long idle stretch is one sweep, not a
            // tick-by-tick catch-up.
            None => inner = shared.cv.wait(inner),
        }
    }
}

/// A future that resolves once a duration has elapsed.  Created by
/// [`sleep`]; see [`timeout`] to bound another future instead.
///
/// Dropping a `Sleep` before it resolves cancels it in O(1) (the wheel
/// entry goes stale; no scan, no wake).
pub struct Sleep {
    shared: &'static Arc<TimerShared>,
    /// A live `Sleep` owns its slot exclusively — the generation is only
    /// carried by the wheel entry, to be checked when it fires.
    slot: usize,
    done: bool,
}

/// Returns a future that resolves after `duration` (never early; up to one
/// wheel tick — 1 ms — late).  The timer is armed immediately, so the delay
/// runs from this call, not from the first poll.
///
/// ```
/// use push_pull_messaging::{block_on, timer::sleep};
/// use std::time::{Duration, Instant};
///
/// let start = Instant::now();
/// block_on(sleep(Duration::from_millis(5)));
/// assert!(start.elapsed() >= Duration::from_millis(5));
/// ```
pub fn sleep(duration: Duration) -> Sleep {
    let shared = driver();
    let deadline = Instant::now() + duration;
    let (slot, generation) = shared.inner.lock().register(deadline);
    ppmsg_core::telemetry::event(
        ppmsg_core::telemetry::EventKind::TimerArm,
        generation as u32,
        duration.as_micros().min(u32::MAX as u128) as u32,
        slot as u64,
    );
    shared.cv.notify_one();
    Sleep {
        shared,
        slot,
        done: false,
    }
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.done {
            return Poll::Ready(());
        }
        let mut inner = self.shared.inner.lock();
        match &mut inner.table[self.slot].state {
            SlotState::Elapsed => {
                inner.retire(self.slot);
                drop(inner);
                self.done = true;
                Poll::Ready(())
            }
            SlotState::Waiting(waker) => {
                *waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        self.shared.inner.lock().retire(self.slot);
    }
}

impl fmt::Debug for Sleep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sleep").field("done", &self.done).finish()
    }
}

/// The deadline of a [`timeout`] elapsed before its future resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("deadline elapsed before the future resolved")
    }
}

impl std::error::Error for Elapsed {}

/// A future racing an inner future against a deadline.  Created by
/// [`timeout`].
pub struct Timeout<F> {
    /// Boxed so `Timeout` can poll the inner future without unsafe pin
    /// projection — one allocation per timeout, off every steady path.
    future: Pin<Box<F>>,
    sleep: Sleep,
}

/// Bounds `future` to `duration`: resolves to `Ok(output)` if the future
/// finishes first, `Err(`[`Elapsed`]`)` if the deadline does.  On timeout
/// the inner future is dropped with the `Timeout` — for a transfer that
/// means the *await* is abandoned, not the posted operation (cancel the
/// handle to revoke it; see
/// [`OpFuture`](crate::async_transport::OpFuture)'s drop contract).
///
/// ```
/// use push_pull_messaging::{block_on, timer::timeout};
/// use std::time::Duration;
///
/// // A future that never resolves loses the race...
/// let lost = block_on(timeout(Duration::from_millis(5), std::future::pending::<u32>()));
/// assert!(lost.is_err());
///
/// // ...a prompt one wins it.
/// let won = block_on(timeout(Duration::from_secs(10), async { 7 }));
/// assert_eq!(won, Ok(7));
/// ```
pub fn timeout<F: Future>(duration: Duration, future: F) -> Timeout<F> {
    Timeout {
        future: Box::pin(future),
        sleep: sleep(duration),
    }
}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        if let Poll::Ready(output) = self.future.as_mut().poll(cx) {
            return Poll::Ready(Ok(output));
        }
        match Pin::new(&mut self.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

impl<F> fmt::Debug for Timeout<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timeout")
            .field("sleep", &self.sleep)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::async_transport::block_on;

    #[test]
    fn sleep_elapses() {
        let start = Instant::now();
        block_on(sleep(Duration::from_millis(10)));
        assert!(start.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn many_sleeps_resolve_in_any_order() {
        let start = Instant::now();
        block_on(async {
            let long = sleep(Duration::from_millis(30));
            let short = sleep(Duration::from_millis(5));
            short.await;
            assert!(start.elapsed() < Duration::from_millis(30));
            long.await;
        });
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn dropping_a_sleep_cancels_it() {
        let armed = sleep(Duration::from_millis(2));
        drop(armed);
        // The stale entry must not confuse a slot-reusing successor.
        std::thread::sleep(Duration::from_millis(5));
        block_on(sleep(Duration::from_millis(2)));
    }

    #[test]
    fn timeout_elapses_on_stuck_future() {
        let result = block_on(timeout(
            Duration::from_millis(10),
            std::future::pending::<()>(),
        ));
        assert_eq!(result, Err(Elapsed));
    }

    #[test]
    fn timeout_passes_through_prompt_future() {
        let result = block_on(timeout(Duration::from_secs(10), async { 42 }));
        assert_eq!(result, Ok(42));
    }

    #[test]
    fn timeout_on_real_transfer() {
        use crate::prelude::*;
        use bytes::Bytes;

        let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
        let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
        let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
        block_on(async {
            // No sender: the await gives up at the deadline.
            let orphan = b
                .recv(a.local_id(), Tag(9), 64, TruncationPolicy::Error)
                .unwrap();
            let result = timeout(Duration::from_millis(10), orphan).await;
            assert_eq!(result.err(), Some(Elapsed));

            // With a sender the transfer beats any sane deadline.
            let recv = b
                .recv(a.local_id(), Tag(1), 64, TruncationPolicy::Error)
                .unwrap();
            a.send(b.local_id(), Tag(1), Bytes::from(vec![7u8; 16]))
                .unwrap()
                .await;
            let done = timeout(Duration::from_secs(5), recv).await.unwrap();
            assert_eq!(done.data.unwrap().len(), 16);
        });
    }
}
