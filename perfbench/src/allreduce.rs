//! `allreduce_intra`: back-to-back `all_reduce` over 8 `HostCluster` ranks.
//!
//! Even ranks run as tasks on one thread's `Driver`, odd ranks on the
//! other's, so every distance-1 edge of the binomial tree crosses threads.
//! Each rank contributes 4 KiB seeded per (rank, round) and checks the sum
//! every round.  This is the only workload through `coll` (binomial reduce
//! plus broadcast), `Driver` scheduling with many operations in flight per
//! thread, and fan-in matching; the slowest rank sets each round.  A
//! collective future is `!Send`, so `executor::Pool` cannot host it and is
//! not measured here.
//!
//! Every round starts only while the shared control allows it: when the
//! measurement time is up, the timekeeping thread fixes the last round
//! (one past the highest any rank has started), so all ranks stop after the
//! same round and no collective is left half done.

use crate::common::{substream, Clock, Outcome, Phase, OP_DEADLINE, SETUP_GAP, SETUP_REPS};
use crate::stats::median;
use crate::trace::{self, span, ThreadTrace};
use bytes::Bytes;
use ppmsg_core::{ProcessId, ProtocolConfig};
use ppmsg_host::{HostCluster, HostEndpoint};
use push_pull_messaging::{Driver, Endpoint, Group, GroupMember};
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

const RANKS: usize = 8;
const WORDS: usize = 512; // 4 KiB of u64
/// Longest the idle driver thread parks before re-checking deadlines.
const PARK: Duration = Duration::from_millis(5);

/// Seeded contribution of `rank` in `round`: word `j` is `a * (j + 1) + b`,
/// so the expected sum is the same form with the summed coefficients.
fn coeffs(seed: u64, round: u64, rank: usize) -> (u64, u64) {
    let mut r = substream(seed, (round << 8) | rank as u64);
    (r.next_u64(), r.next_u64())
}

fn words(a: u64, b: u64) -> Bytes {
    let mut v = Vec::with_capacity(WORDS * 8);
    for j in 0..WORDS as u64 {
        v.extend_from_slice(&a.wrapping_mul(j + 1).wrapping_add(b).to_le_bytes());
    }
    Bytes::from(v)
}

fn sum_words(x: Bytes, y: Bytes) -> Bytes {
    let mut v = Vec::with_capacity(x.len());
    for (p, q) in x.chunks_exact(8).zip(y.chunks_exact(8)) {
        let s = u64::from_le_bytes(p.try_into().expect("8 bytes"))
            .wrapping_add(u64::from_le_bytes(q.try_into().expect("8 bytes")));
        v.extend_from_slice(&s.to_le_bytes());
    }
    Bytes::from(v)
}

fn expected_sum(seed: u64, round: u64) -> Bytes {
    let (mut a, mut b) = (0u64, 0u64);
    for rank in 0..RANKS {
        let (x, y) = coeffs(seed, round, rank);
        a = a.wrapping_add(x);
        b = b.wrapping_add(y);
    }
    words(a, b)
}

/// Round bookkeeping shared by both threads.
struct Control {
    /// `(highest round any rank has started, first round not to start)`.
    rounds: Mutex<(u64, u64)>,
    /// Time origin of the ranks' completion stamps.
    epoch: Instant,
    abort: AtomicBool,
    barrier: Barrier,
}

impl Control {
    /// Whether a rank may start `round`; records it as started if so.
    fn may_start(&self, round: u64) -> bool {
        let mut r = self.rounds.lock().expect("control lock poisoned");
        if round >= r.1 || self.abort.load(Ordering::SeqCst) {
            return false;
        }
        r.0 = r.0.max(round);
        true
    }

    /// Ends the phase after the highest round started so far.
    fn stop(&self) {
        let mut r = self.rounds.lock().expect("control lock poisoned");
        r.1 = r.1.min(r.0 + 1);
    }

    fn stop_round(&self) -> u64 {
        self.rounds.lock().expect("control lock poisoned").1
    }
}

/// One rank op's record.
struct Done {
    round: u64,
    /// Nanoseconds from the control's epoch.
    finished_ns: u64,
    latency_us: f32,
    ok: bool,
}

/// Per-thread state the rank tasks write into.
#[derive(Default)]
struct Board {
    /// Rank op in flight per local rank slot: `(rank, round, started)`.
    in_flight: Vec<Option<(usize, u64, Instant)>>,
    done: Vec<Done>,
    polls: u64,
}

/// Counts and times each poll of a rank's `all_reduce` future.
struct Timed<F> {
    inner: Pin<Box<F>>,
    board: Rc<RefCell<Board>>,
    op: u64,
}

impl<F: Future> Future for Timed<F> {
    type Output = F::Output;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<F::Output> {
        self.board.borrow_mut().polls += 1;
        let op = self.op;
        let inner = &mut self.inner;
        span("driver.poll", op, || inner.as_mut().poll(cx))
    }
}

async fn rank_task(
    member: Rc<GroupMember<HostEndpoint>>,
    slot: usize,
    seed: u64,
    first_round: u64,
    ctl: Arc<Control>,
    board: Rc<RefCell<Board>>,
) {
    let rank = member.rank();
    let mut round = first_round;
    while ctl.may_start(round) {
        let (a, b) = coeffs(seed, round, rank);
        let started = Instant::now();
        board.borrow_mut().in_flight[slot] = Some((rank, round, started));
        let result = Timed {
            inner: Box::pin(member.all_reduce(words(a, b), sum_words)),
            board: board.clone(),
            op: round * RANKS as u64 + rank as u64,
        }
        .await;
        let finished = Instant::now();
        let ok = matches!(&result, Ok(sum) if *sum == expected_sum(seed, round));
        if !ok {
            eprintln!(
                "perfbench: allreduce_intra failed op: rank {rank} round {round}: {result:?}"
            );
        }
        let mut bd = board.borrow_mut();
        bd.in_flight[slot] = None;
        bd.done.push(Done {
            round,
            finished_ns: finished.duration_since(ctl.epoch).as_nanos() as u64,
            latency_us: (finished - started).as_secs_f32() * 1e6,
            ok,
        });
        drop(bd);
        if !ok {
            ctl.abort.store(true, Ordering::SeqCst);
            return;
        }
        round += 1;
    }
}

/// What one thread measured in one phase.
#[derive(Default)]
struct ThreadPhase {
    done: Vec<Done>,
    /// Rank ops abandoned at their deadline or by an abort.
    abandoned: u64,
    polls: u64,
    sends: u64,
    wall: Duration,
    /// Time the thread spent parked with no rank task ready.
    parked: Duration,
    trace: ThreadTrace,
}

/// One thread's ranks.
struct Ranks {
    members: Vec<Rc<GroupMember<HostEndpoint>>>,
    board: Rc<RefCell<Board>>,
}

impl Ranks {
    fn sends(&self) -> u64 {
        self.members
            .iter()
            .map(|m| m.endpoint().stats().sends_posted)
            .sum()
    }

    /// Runs rounds from `first_round` until the control stops them; thread
    /// 0 keeps the clock.
    fn run_phase(
        &self,
        tid: usize,
        seed: u64,
        first_round: u64,
        ctl: &Arc<Control>,
        clock: Option<&Clock>,
        traced: bool,
    ) -> ThreadPhase {
        let start = Instant::now();
        if traced {
            trace::enable(Instant::now());
        }
        let sends0 = self.sends();
        {
            let mut bd = self.board.borrow_mut();
            bd.done.clear();
            bd.polls = 0;
        }
        let mut driver = Driver::new();
        for (slot, m) in self.members.iter().enumerate() {
            driver.spawn(rank_task(
                m.clone(),
                slot,
                seed,
                first_round,
                ctl.clone(),
                self.board.clone(),
            ));
        }
        let mut abandoned = 0;
        let mut parked = Duration::ZERO;
        loop {
            driver.run_until_stalled();
            if driver.live() == 0 {
                break;
            }
            if tid == 0 && clock.is_some_and(|c| !c.running()) {
                ctl.stop();
            }
            let late = self
                .board
                .borrow()
                .in_flight
                .iter()
                .flatten()
                .any(|&(_, _, t)| t.elapsed() > OP_DEADLINE);
            if late || ctl.abort.load(Ordering::SeqCst) {
                ctl.abort.store(true, Ordering::SeqCst);
                let bd = self.board.borrow();
                let outstanding: Vec<String> = bd
                    .in_flight
                    .iter()
                    .flatten()
                    .map(|(rank, round, t)| {
                        format!(
                            "rank {rank} round {round} ({:.3} s)",
                            t.elapsed().as_secs_f64()
                        )
                    })
                    .collect();
                eprintln!(
                    "perfbench: allreduce_intra thread {tid}: {}; outstanding ops: [{}]",
                    if late {
                        "an op missed its deadline"
                    } else {
                        "aborted by the other thread"
                    },
                    outstanding.join(", ")
                );
                abandoned = outstanding.len() as u64;
                break;
            }
            let t = Instant::now();
            std::thread::park_timeout(PARK);
            parked += t.elapsed();
        }
        drop(driver);
        let mut bd = self.board.borrow_mut();
        bd.in_flight.iter_mut().for_each(|s| *s = None);
        ThreadPhase {
            done: std::mem::take(&mut bd.done),
            abandoned,
            polls: bd.polls,
            sends: self.sends() - sends0,
            wall: start.elapsed(),
            parked,
            trace: if traced {
                trace::take()
            } else {
                ThreadTrace::default()
            },
        }
    }
}

/// A full set-up and, when `measure` is given, the measured phases.
struct Team {
    setup_s: f64,
    /// Per phase: both threads' results.
    phases: Vec<[ThreadPhase; 2]>,
}

/// Builds the cluster and group, runs the first verified round, then the
/// phases: `(duration, traced)` each.  A failed round ends the phases; a
/// failed first round is an error.
fn team(seed: u64, phases: &[(Duration, bool)]) -> Result<Team, String> {
    let t0 = Instant::now();
    let ctl = Arc::new(Control {
        rounds: Mutex::new((0, 1)),
        epoch: t0,
        abort: AtomicBool::new(false),
        barrier: Barrier::new(2),
    });
    let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
    let ids: Vec<ProcessId> = (0..RANKS as u32).map(|r| ProcessId::new(0, r)).collect();
    let group = Group::new(1, ids).expect("group of 8");
    let setup_done: Mutex<[Option<Instant>; 2]> = Mutex::new([None; 2]);
    let results: Vec<Option<Vec<ThreadPhase>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|tid| {
                let (cluster, group, setup_done, ctl) = (&cluster, &group, &setup_done, &ctl);
                s.spawn(move || {
                    crate::affinity::pin_current_thread(tid);
                    let members: Vec<_> = (tid..RANKS)
                        .step_by(2)
                        .map(|r| {
                            let ep = Endpoint::new(cluster.add_endpoint(r as u32));
                            Rc::new(group.bind(ep).expect("bind rank"))
                        })
                        .collect();
                    let board = Rc::new(RefCell::new(Board {
                        in_flight: vec![None; members.len()],
                        ..Board::default()
                    }));
                    let ranks = Ranks { members, board };
                    // Traffic to a rank the other thread has not added yet
                    // would find no endpoint: start once all are bound.
                    ctl.barrier.wait();
                    // Round 0 is the set-up's first verified op.
                    let first = ranks.run_phase(tid, seed, 0, ctl, None, false);
                    if first.abandoned > 0 || !first.done.iter().all(|d| d.ok) {
                        ctl.abort.store(true, Ordering::SeqCst);
                    }
                    setup_done.lock().expect("set-up lock")[tid] = Some(Instant::now());
                    ctl.barrier.wait();
                    if ctl.abort.load(Ordering::SeqCst) {
                        return None;
                    }
                    let mut out = Vec::new();
                    for &(length, traced) in phases {
                        // Neither thread is running rounds between the
                        // barriers, so both read the same last round and
                        // abort flag there.
                        ctl.barrier.wait();
                        let first_round = ctl.stop_round();
                        let aborted = ctl.abort.load(Ordering::SeqCst);
                        ctl.barrier.wait();
                        if aborted {
                            break;
                        }
                        if tid == 0 {
                            ctl.rounds.lock().expect("control lock poisoned").1 = u64::MAX;
                        }
                        ctl.barrier.wait();
                        let clock = Clock::start(length);
                        out.push(ranks.run_phase(
                            tid,
                            seed,
                            first_round,
                            ctl,
                            Some(&clock),
                            traced,
                        ));
                    }
                    Some(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    });
    let Some(results) = results.into_iter().collect::<Option<Vec<_>>>() else {
        return Err("the first all_reduce round failed".into());
    };
    let done = setup_done.into_inner().expect("set-up lock");
    let setup_end = done
        .iter()
        .flatten()
        .max()
        .copied()
        .expect("both threads set up");
    let mut results = results.into_iter();
    let (r0, r1) = (
        results.next().unwrap_or_default(),
        results.next().unwrap_or_default(),
    );
    Ok(Team {
        setup_s: setup_end.duration_since(t0).as_secs_f64(),
        phases: r0.into_iter().zip(r1).map(|(a, b)| [a, b]).collect(),
    })
}

/// Folds both threads of a phase into the common phase summary.
fn summarize(threads: &[ThreadPhase; 2]) -> (Phase, Vec<f64>) {
    let mut phase = Phase {
        wall: threads[0].wall.max(threads[1].wall),
        ..Phase::default()
    };
    let mut all: Vec<&Done> = Vec::new();
    for t in threads {
        phase.failed += t.abandoned;
        phase.attempted += t.abandoned;
        all.extend(&t.done);
    }
    // Stable: ops stay in completion order within each thread and round.
    all.sort_by_key(|d| d.round);
    let mut skews = Vec::new();
    for dones in all.chunk_by(|a, b| a.round == b.round) {
        for d in dones {
            phase.attempted += 1;
            if d.ok {
                phase.latencies_us.push(f64::from(d.latency_us));
                phase.payload_bytes += (WORDS * 8) as u64;
            } else {
                phase.failed += 1;
            }
        }
        if dones.len() == RANKS && dones.iter().all(|d| d.ok) {
            phase.completed += 1;
            let first = dones.iter().map(|d| d.finished_ns).min().expect("ranks");
            let last = dones.iter().map(|d| d.finished_ns).max().expect("ranks");
            skews.push((last - first) as f64 / 1e3);
        }
    }
    (phase, skews)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let phases: Vec<(Duration, bool)> = if traced {
        let half = Duration::from_secs_f64(seconds / 2.0);
        vec![(half, false), (half, true)]
    } else {
        vec![(Duration::from_secs_f64(seconds), false)]
    };
    // Each set-up runs in its own threads, so it is timed inside `team`.
    let mut setup_times = Vec::new();
    let mut last = None;
    for i in 0..SETUP_REPS {
        let phases = if i + 1 == SETUP_REPS {
            &phases[..]
        } else {
            &[]
        };
        if i > 0 {
            std::thread::sleep(SETUP_GAP);
        }
        match team(seed, phases) {
            Ok(t) => {
                setup_times.push(t.setup_s);
                last = Some(t);
            }
            Err(e) => return Outcome::setup_failed("allreduce_intra", &e),
        }
    }
    let team = last.expect("set-ups ran");
    let setup_s = median(&mut setup_times).expect("set-ups ran");
    let summaries: Vec<(Phase, Vec<f64>)> = team.phases.iter().map(summarize).collect();
    if !traced {
        out.end_to_end(&summaries[0].0, setup_s);
        return out;
    }
    if summaries.len() < 2 {
        // The untraced half failed, so the traced half never ran.
        out.attempted = summaries[0].0.attempted;
        out.failed = summaries[0].0.failed;
        return out;
    }

    let (base, _) = &summaries[0];
    let (phase, skews) = &summaries[1];
    let [t0, t1] = &team.phases[1];
    out.attempted = base.attempted + phase.attempted;
    out.failed = base.failed + phase.failed;
    let ops = phase.latencies_us.len().max(1) as f64;
    let mut trace = ThreadTrace::default();
    trace.add_totals(&t0.trace);
    trace.add_totals(&t1.trace);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    out.metric("coll.all_reduce_us", mean(&phase.latencies_us));
    out.metric("coll.rank_skew_us", mean(skews));
    out.metric("coll.msgs_per_op", (t0.sends + t1.sends) as f64 / ops);
    out.metric("driver.polls_per_op", (t0.polls + t1.polls) as f64 / ops);
    out.metric(
        "driver.poll_busy_us_per_op",
        trace.get("driver.poll").total_ns as f64 / ops / 1e3,
    );
    out.metric("op_p99_us", base.p99());
    out.metric("trace.overhead_p50_us", phase.p50() - base.p50());
    // The rank tasks' polls are the only layer calls; the threads' time
    // outside them, less parking, is the benchmark's own (payload building,
    // sum checks) and the driver loop's.
    let busy: Duration = [t0, t1].iter().map(|t| t.wall - t.parked).sum();
    out.metric(
        "trace.unexplained_share",
        1.0 - trace.top_level_ns as f64 / busy.as_nanos() as f64,
    );
    out.drift_note(phase);
    let [t0, t1] = team.phases.into_iter().nth(1).expect("traced phase");
    out.traces = vec![("ranks-even", t0.trace), ("ranks-odd", t1.trace)];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_sum_matches_summed_contributions() {
        let seed = 42;
        let total = (0..RANKS)
            .map(|rank| {
                let (a, b) = coeffs(seed, 3, rank);
                words(a, b)
            })
            .reduce(sum_words)
            .expect("ranks");
        assert_eq!(total, expected_sum(seed, 3));
        assert_ne!(total, expected_sum(seed, 4));
    }
}
