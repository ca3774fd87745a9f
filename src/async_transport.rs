//! The async front-end: completion-driven futures over any
//! [`RawTransport`] backend, plus the executors that drive them.
//!
//! [`Endpoint`](crate::transport::Endpoint)'s `send(...)` / `recv(...)` /
//! `recv_into(...)` combinators return an [`OpFuture`] resolving to the
//! operation's [`Completion`].  Posting is unchanged — the same
//! generation-checked handles, the same engine — but instead of blocking in
//! `wait`, a task parks its [`Waker`] in the endpoint's
//! [`CompletionQueue`](ppmsg_core::CompletionQueue) (keyed by op slot +
//! generation) and is woken exactly when its completion is published.  One
//! thread can therefore overlap any number of in-flight operations — the
//! paper's latency-hiding postal model carried through to the application
//! layer, and the single-progress-loop concurrency model of non-threaded
//! event handling frameworks rather than a thread per blocking `wait`.
//!
//! [`OpFuture`] is generic over the **raw** backend, so it works both
//! through the [`Endpoint`](crate::transport::Endpoint) front-end and
//! directly over a backend handle (or a `Box<dyn RawTransport>`).
//!
//! Two executors are provided, both dependency-free:
//!
//! * [`block_on`] drives one future on the current thread, parking between
//!   polls — the async analogue of `wait` for straight-line code;
//! * [`Driver`] is a **manual-step multiplexer**: spawn N tasks, then
//!   [`Driver::step`] / [`Driver::run_until_stalled`] poll exactly one /
//!   every ready task in FIFO order, or [`Driver::run`] parks until all
//!   tasks finish.  On the deterministic [`LoopbackCluster`] nothing ever
//!   waits on a real clock or another thread, so a `Driver`-scheduled test
//!   executes the same interleaving every run — async tests stay
//!   deterministic and single-threaded.  On the host backends the same
//!   driver overlaps real traffic: progress happens on the backends' own
//!   threads (the intranode router runs on whichever thread posted, the
//!   reactor thread pumps socket frames and timers), and completions wake
//!   the driver through the waker table.
//!
//! # Spin, then park
//!
//! Every blocking wait in the facade ([`block_on`], [`Driver::run`] and
//! [`Endpoint::wait`](crate::transport::Endpoint::wait)) goes through one
//! thread parker, which watches its wake-up flag for about 50 µs before it
//! parks the thread.  An intranode completion usually arrives inside that
//! window, so the round trip pays neither a futex sleep on the waiting side
//! nor a `futex_wake` syscall on the publishing side.  The window ends
//! early at the caller's deadline.  About every 64 loads the spin reads the
//! clock and yields the CPU, so a publisher that shares the waiter's CPU is
//! not starved.  The window is a fixed constant rather than a setting:
//! past it, the thread parks exactly as a plain park-based wait would.
//!
//! [`LoopbackCluster`]: ppmsg_sim::LoopbackCluster
//!
//! ```
//! use push_pull_messaging::prelude::*;
//! use bytes::Bytes;
//!
//! // One task overlaps two receives with a send on the deterministic
//! // loopback cluster; the same code drives the host backends.
//! let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
//! let a = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 0)));
//! let b = Endpoint::new(cluster.add_endpoint(ProcessId::new(0, 1)));
//! block_on(async {
//!     let first = b.recv(a.local_id(), Tag(1), 1024, TruncationPolicy::Error).unwrap();
//!     let second = b.recv(a.local_id(), Tag(2), 1024, TruncationPolicy::Error).unwrap();
//!     a.send(b.local_id(), Tag(2), Bytes::from(b"two".to_vec())).unwrap().await;
//!     a.send(b.local_id(), Tag(1), Bytes::from(b"one".to_vec())).unwrap().await;
//!     let one = first.await;
//!     let two = second.await;
//!     assert_eq!(one.data.unwrap(), Bytes::from(b"one".to_vec()));
//!     assert_eq!(two.data.unwrap(), Bytes::from(b"two".to_vec()));
//! });
//! ```

use ppmsg_core::{Completion, OpId, RawTransport};
use std::collections::VecDeque;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// A posted operation's pending [`Completion`].
///
/// Created by the [`Endpoint`](crate::transport::Endpoint) combinators, or
/// directly with [`OpFuture::new`] over any [`RawTransport`] (including a
/// `dyn` one).  Creating the future marks the operation as waited-on, so its
/// completion cannot be retention-evicted before the first poll registers a
/// real waker.
///
/// Dropping the future abandons the await but **not** the operation: its
/// waker/interest registration is withdrawn on drop, so the transfer still
/// runs and its completion stays claimable through
/// [`Endpoint::wait`](crate::transport::Endpoint::wait) /
/// [`Endpoint::drain_completions`](crate::transport::Endpoint::drain_completions)
/// like any fire-and-forget result (use `cancel` / `cancel_send` to actually
/// revoke the operation).  Spurious wakes are harmless — a poll that finds
/// no completion just re-registers the waker, and the slot + generation key
/// guarantees a resolved future can never observe a different (newer)
/// operation's completion.
pub struct OpFuture<'a, T: RawTransport + ?Sized> {
    raw: &'a T,
    op: OpId,
    done: bool,
    /// `true` once a poll returned `Pending`, i.e. this future's task waker
    /// is (or was) the registration held for the operation.  Before that,
    /// the future's only possible registration is the bare interest from
    /// [`OpFuture::new`] — which drop must distinguish, so an unpolled
    /// future abandoned while a blocking wait is parked on the same
    /// operation does not tear down the wait's waker.
    registered: bool,
}

impl<'a, T: RawTransport + ?Sized> OpFuture<'a, T> {
    /// Wraps an already-posted operation (e.g. one posted through the
    /// blocking API, or re-awaited after a future was dropped) so its
    /// completion can be awaited.
    pub fn new(raw: &'a T, op: OpId) -> Self {
        raw.register_interest(op);
        OpFuture {
            raw,
            op,
            done: false,
            registered: false,
        }
    }

    /// The handle of the posted operation (e.g. to cancel it mid-await).
    pub fn op(&self) -> OpId {
        self.op
    }
}

impl<T: RawTransport + ?Sized> fmt::Debug for OpFuture<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OpFuture")
            .field("op", &self.op)
            .field("done", &self.done)
            .finish()
    }
}

impl<T: RawTransport + ?Sized> Future for OpFuture<'_, T> {
    type Output = Completion;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Completion> {
        assert!(!self.done, "OpFuture polled after completion");
        match self.raw.poll_completion(self.op, cx.waker()) {
            Some(completion) => {
                self.done = true;
                Poll::Ready(completion)
            }
            None => {
                self.registered = true;
                Poll::Pending
            }
        }
    }
}

impl<T: RawTransport + ?Sized> Drop for OpFuture<'_, T> {
    fn drop(&mut self) {
        // An abandoned await must not keep the operation's completion
        // pinned: withdraw the registration so the result is drainable and
        // evictable again.  (Resolved futures already cleared it at claim.)
        // Withdraw only what this future owns: after a Pending poll the
        // registration is our task waker (remove it outright); before any
        // poll it can only be our bare interest — `clear_interest` leaves a
        // real waker some blocking waiter parked in the meantime alone.
        if self.done {
            return;
        }
        if self.registered {
            self.raw.deregister_interest(self.op);
        } else {
            let op = self.op;
            self.raw
                .with_completions(&mut |queue| queue.clear_interest(op));
        }
    }
}

/// How long a blocking wait watches its flag before it parks the thread.
///
/// An intranode round trip's engine work is about a microsecond, while a
/// park costs the waiter a futex sleep and a cross-CPU wake-up and costs
/// the notifier a `futex_wake` syscall.  A completion that arrives within
/// the window skips all three: `Thread::unpark` on a thread that is not
/// parked is one atomic swap.  50 µs covers a 64 KiB intranode round trip
/// and is short beside any wait that ends in a park.  It is a constant, not
/// a setting: no caller knows the arrival time better.
const SPIN_WINDOW: Duration = Duration::from_micros(50);

/// Flag loads between clock reads during the spin.  Each clock read also
/// yields the CPU, so a notifier that shares the waiter's CPU still runs
/// (a thread that has just been spawned, for one, starts on its creator's
/// CPU).  The spin is deliberately not gated on
/// `std::thread::available_parallelism()`: a thread pinned to one CPU sees
/// 1 there even when its peer runs on another CPU.
const SPIN_CHECK_EVERY: u32 = 64;

/// Wakes a blocked thread (the [`block_on`] waker, the [`Driver`]'s
/// idle-parking signal, and the blocking
/// [`Endpoint::wait`](crate::transport::Endpoint::wait)).  Waiting spins
/// for [`SPIN_WINDOW`] before it parks.
pub(crate) struct ThreadParker {
    thread: Thread,
    notified: AtomicBool,
}

std::thread_local! {
    /// One cached parker per thread for the blocking-wait path.  Handing the
    /// same `Arc` to every `Endpoint::wait` on a thread makes a blocking-wait
    /// loop allocation-free (the waker clone is a refcount bump); a stale
    /// notification left by an earlier wait at worst causes one spurious
    /// wake-up, which every user of the parker already tolerates.
    static CACHED_PARKER: Arc<ThreadParker> = ThreadParker::current();
}

impl ThreadParker {
    pub(crate) fn current() -> Arc<Self> {
        Arc::new(ThreadParker {
            thread: std::thread::current(),
            notified: AtomicBool::new(false),
        })
    }

    /// The calling thread's cached parker (see [`CACHED_PARKER`]).  Safe for
    /// `Endpoint::wait`, which never re-enters itself on one thread; the
    /// executors ([`block_on`], [`Driver`]) keep private instances because a
    /// future they poll may legitimately call a blocking wait inside.
    pub(crate) fn cached() -> Arc<Self> {
        CACHED_PARKER.with(Arc::clone)
    }

    /// Watches the flag until it is set (consuming it and returning `true`)
    /// or `end` passes (returning `false`).  A relaxed load keeps the cache
    /// line shared while nothing happens; the acquire `swap` runs only once
    /// the flag is seen set.
    fn spin_until(&self, end: Instant) -> bool {
        let mut loads = 0u32;
        loop {
            if self.notified.load(Ordering::Relaxed) && self.notified.swap(false, Ordering::Acquire)
            {
                return true;
            }
            loads += 1;
            if loads.is_multiple_of(SPIN_CHECK_EVERY) {
                if Instant::now() >= end {
                    return false;
                }
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    /// Blocks the current thread until `notify` has been called since the
    /// last wait returned: spins for up to [`SPIN_WINDOW`], then parks.
    fn wait(&self) {
        if self.spin_until(Instant::now() + SPIN_WINDOW) {
            return;
        }
        while !self.notified.swap(false, Ordering::Acquire) {
            std::thread::park();
        }
    }

    /// Blocks until notified or `deadline` passes, whichever comes first:
    /// spins for up to [`SPIN_WINDOW`] (less if the deadline is nearer),
    /// then parks.  Spurious returns are allowed (the caller re-checks its
    /// condition).
    pub(crate) fn wait_until(&self, deadline: Instant) {
        if self.spin_until(deadline.min(Instant::now() + SPIN_WINDOW)) {
            return;
        }
        while !self.notified.swap(false, Ordering::Acquire) {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            std::thread::park_timeout(deadline - now);
        }
    }

    fn notify(&self) {
        self.notified.store(true, Ordering::Release);
        self.thread.unpark();
    }
}

impl Wake for ThreadParker {
    fn wake(self: Arc<Self>) {
        self.notify();
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.notify();
    }
}

/// Runs one future to completion on the current thread, parking between
/// polls — the async analogue of a blocking `wait` for straight-line code.
/// The future is polled in place (no boxing); on the deterministic loopback
/// backend it typically resolves without ever parking.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let parker = ThreadParker::current();
    let waker = Waker::from(parker.clone());
    let mut cx = Context::from_waker(&waker);
    let mut future = std::pin::pin!(future);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => parker.wait(),
        }
    }
}

/// What the driver's tasks share with their wakers: the FIFO ready queue
/// (slot + spawn generation, so a stale waker from a finished task can never
/// poke a task that reused its slot) and the driver thread's parker.
struct DriverShared {
    ready: Mutex<VecDeque<(usize, u64)>>,
    parker: Arc<ThreadParker>,
}

impl DriverShared {
    fn mark_ready(&self, index: usize, generation: u64) {
        self.ready.lock().unwrap().push_back((index, generation));
        self.parker.notify();
    }
}

/// Wakes one driver task: flags it ready and unparks the driver thread.
struct TaskWaker {
    index: usize,
    generation: u64,
    shared: Arc<DriverShared>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.shared.mark_ready(self.index, self.generation);
    }
    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.mark_ready(self.index, self.generation);
    }
}

struct Task {
    future: Pin<Box<dyn Future<Output = ()> + 'static>>,
    waker: Waker,
}

/// The shared progress driver: a single-threaded executor multiplexing any
/// number of spawned tasks over their endpoints' completion queues.
///
/// Tasks are polled in FIFO ready order, one [`Driver::step`] at a time —
/// there is no background thread and no time source, so on the synchronous
/// [`LoopbackCluster`](ppmsg_sim::LoopbackCluster) a driver-scheduled
/// workload executes **deterministically**: the same spawn order yields the
/// same interleaving, every run.  On the host backends, [`Driver::run`]
/// parks between steps and endpoint completions wake it through the waker
/// table, overlapping N in-flight operations on one thread.
///
/// Results leave tasks through whatever the closures capture (an
/// `Arc<Mutex<_>>`, a channel, ...); the driver itself only schedules.
pub struct Driver {
    shared: Arc<DriverShared>,
    tasks: Vec<Option<Task>>,
    /// Per-slot spawn generation: bumped when a task retires, so ready-queue
    /// entries and wakers of finished tasks go stale instead of poking
    /// whatever task reuses the slot.
    generations: Vec<u64>,
    /// Retired slots available for reuse — a long-lived driver spawning one
    /// task per request stays bounded by its peak concurrency, not its
    /// lifetime spawn count.
    free: Vec<usize>,
    live: usize,
}

impl Default for Driver {
    fn default() -> Self {
        Self::new()
    }
}

impl Driver {
    /// Creates a driver owned by the current thread ([`Driver::run`] parks
    /// this thread while it waits for completions).
    pub fn new() -> Self {
        Driver {
            shared: Arc::new(DriverShared {
                ready: Mutex::new(VecDeque::new()),
                parker: ThreadParker::current(),
            }),
            tasks: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of spawned tasks that have not completed yet.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of task slots ever allocated — bounded by the peak number of
    /// concurrently live tasks, not by the lifetime spawn count.
    pub fn slots(&self) -> usize {
        self.tasks.len()
    }

    /// Spawns a task; it is polled for the first time on the next step.
    /// Tasks are scheduled in spawn order (retired slots are reused, FIFO
    /// fairness comes from the ready queue).
    pub fn spawn(&mut self, future: impl Future<Output = ()> + 'static) {
        let index = match self.free.pop() {
            Some(index) => index,
            None => {
                self.tasks.push(None);
                self.generations.push(0);
                self.tasks.len() - 1
            }
        };
        let generation = self.generations[index];
        let waker = Waker::from(Arc::new(TaskWaker {
            index,
            generation,
            shared: self.shared.clone(),
        }));
        self.tasks[index] = Some(Task {
            future: Box::pin(future),
            waker,
        });
        self.live += 1;
        self.shared.mark_ready(index, generation);
    }

    /// Polls the oldest ready task once.  Returns `false` when no task was
    /// ready (duplicate and stale wake-ups are skipped, not counted as
    /// progress).
    pub fn step(&mut self) -> bool {
        loop {
            let (index, generation) = {
                let mut ready = self.shared.ready.lock().unwrap();
                match ready.pop_front() {
                    Some(entry) => entry,
                    None => return false,
                }
            };
            // A wake for a task that already finished (its slot generation
            // moved on) or a duplicate entry for one already polled is
            // spurious: skip it.
            if self.generations[index] != generation {
                continue;
            }
            let Some(task) = self.tasks[index].as_mut() else {
                continue;
            };
            let mut cx = Context::from_waker(&task.waker);
            match task.future.as_mut().poll(&mut cx) {
                Poll::Ready(()) => {
                    self.tasks[index] = None;
                    self.generations[index] += 1;
                    self.free.push(index);
                    self.live -= 1;
                }
                Poll::Pending => {}
            }
            return true;
        }
    }

    /// Steps until no task is ready.  Never blocks: on the loopback backend
    /// this runs the whole workload to quiescence; on host backends it runs
    /// until every remaining task waits on in-flight traffic.
    pub fn run_until_stalled(&mut self) {
        while self.step() {}
    }

    /// Runs every spawned task to completion, parking the current thread
    /// whenever no task is ready (endpoint completions wake it).
    pub fn run(&mut self) {
        while self.live > 0 {
            self.run_until_stalled();
            if self.live == 0 {
                break;
            }
            self.shared.parker.wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Generous bound for "returns promptly" on a loaded test machine.
    const PROMPT: Duration = Duration::from_secs(2);

    #[test]
    fn notify_during_spin_returns_and_consumes_the_flag() {
        let parker = ThreadParker::current();
        let notifier = {
            let parker = parker.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(1));
                parker.notify();
            })
        };
        let start = Instant::now();
        // A spin window far longer than the notifier's delay: the spin, not
        // the park, must see the notification.
        assert!(parker.spin_until(start + Duration::from_secs(30)));
        assert!(start.elapsed() < PROMPT);
        assert!(!parker.notified.load(Ordering::SeqCst), "flag not consumed");
        notifier.join().unwrap();
    }

    #[test]
    fn notify_after_the_window_wakes_the_parked_thread() {
        let (parker_tx, parker_rx) = mpsc::channel();
        let (done_tx, done_rx) = mpsc::channel();
        let notified = Arc::new(AtomicBool::new(false));
        {
            let notified = notified.clone();
            std::thread::spawn(move || {
                let parker = ThreadParker::current();
                parker_tx.send(parker.clone()).unwrap();
                parker.wait();
                let woke_after_notify = notified.load(Ordering::SeqCst);
                let flag_left = parker.notified.load(Ordering::SeqCst);
                done_tx.send((woke_after_notify, flag_left)).unwrap();
            });
        }
        let parker = parker_rx.recv().unwrap();
        // Far past the spin window: the waiter is parked by now.
        std::thread::sleep(SPIN_WINDOW * 200);
        notified.store(true, Ordering::SeqCst);
        parker.notify();
        let (woke_after_notify, flag_left) = done_rx
            .recv_timeout(PROMPT)
            .expect("notification lost: the parked waiter never woke");
        assert!(woke_after_notify, "wait returned before it was notified");
        assert!(!flag_left, "flag not consumed");
    }

    #[test]
    fn wait_until_inside_the_window_returns_at_the_deadline() {
        let parker = ThreadParker::current();
        let start = Instant::now();
        let deadline = start + SPIN_WINDOW / 2;
        parker.wait_until(deadline);
        let returned = Instant::now();
        assert!(returned >= deadline, "returned before the deadline");
        assert!(returned - start < PROMPT);
    }

    #[test]
    fn stale_notification_causes_at_most_one_spurious_return() {
        let parker = ThreadParker::current();
        parker.notify();
        // The stale flag ends the first wait at once...
        parker.wait_until(Instant::now() + Duration::from_secs(30));
        assert!(!parker.notified.load(Ordering::SeqCst));
        // ...and only the first: the next one runs to its deadline.
        let deadline = Instant::now() + SPIN_WINDOW * 100;
        parker.wait_until(deadline);
        assert!(Instant::now() >= deadline, "second wait returned early");
    }
}
