//! `stream_reactor`: a windowed one-way stream between two endpoints of one
//! `Reactor` on 127.0.0.1.
//!
//! The reactor's event-loop thread runs both endpoints' sockets; the main
//! thread keeps 16 messages in flight under the default go-back-N, each a
//! receive posted on the receiver and a send on the sender.  It is the only
//! workload through the wire codec, ARQ acks and windows, `recvmmsg` /
//! `sendmmsg` batching and the timer wheel.  The mix is 75 % 256 B (fully
//! pushed under `BTP(1)+BTP(2)` = 760 B) and 25 % 32 KiB (pulled).  Traffic
//! crosses the host's loopback interface, not a real link.

use crate::common::{repeated_setup, Clock, MsgSeq, Outcome, PayloadPool, Phase, OP_DEADLINE};
use crate::replay;
use crate::trace::{self, span};
use bytes::Bytes;
use ppmsg_core::telemetry::metrics::{bucket_bounds, HIST_BUCKETS};
use ppmsg_core::{
    EndpointStats, HistogramSnapshot, OpId, ProcessId, ProtocolConfig, RecvOp, SendOp, Status, Tag,
    TruncationPolicy,
};
use ppmsg_host::{Reactor, ReactorEndpoint};
use push_pull_messaging::Endpoint;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

const MIX: &[(u64, usize)] = &[(75, 256), (100, 32768)];
const MAX_LEN: usize = 32768;
const POOL_LEN: usize = 4 * MAX_LEN;
const WINDOW: usize = 16;
const TAG: Tag = Tag(1);

struct InFlight {
    op: u64,
    t0: Instant,
    send: SendOp,
    recv: RecvOp,
    payload: Bytes,
    msg: (usize, usize),
}

/// ARQ counters summed over both directions of the stream.
#[derive(Debug, Default, Clone, Copy)]
struct Arq {
    frames_sent: u64,
    retransmissions: u64,
    acks_sent: u64,
    duplicates: u64,
    timeouts: u64,
}

struct Stream {
    // Field order is drop order: endpoints deregister before the reactor
    // stops.
    tx: Endpoint<ReactorEndpoint>,
    rx: Endpoint<ReactorEndpoint>,
    reactor: Reactor,
    seq: MsgSeq,
    pool: PayloadPool,
    window: VecDeque<InFlight>,
    next_op: u64,
}

impl Stream {
    fn new(seed: u64) -> Result<Stream, String> {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        // The event-loop thread inherits the CPU its creator runs on.
        crate::affinity::pin_current_thread(1);
        let reactor = Reactor::new().map_err(|e| io("start reactor", e));
        crate::affinity::pin_current_thread(0);
        let reactor = reactor?;
        let (ia, ib) = (ProcessId::new(0, 0), ProcessId::new(1, 0));
        let protocol = ProtocolConfig::paper_internode();
        let tx = reactor
            .add_endpoint(ia, protocol.clone(), "127.0.0.1:0")
            .map_err(|e| io("bind sender", e))?;
        let rx = reactor
            .add_endpoint(ib, protocol, "127.0.0.1:0")
            .map_err(|e| io("bind receiver", e))?;
        tx.add_peer(ib, rx.local_addr().map_err(|e| io("receiver address", e))?);
        rx.add_peer(ia, tx.local_addr().map_err(|e| io("sender address", e))?);
        let mut stream = Stream {
            tx: Endpoint::new(tx),
            rx: Endpoint::new(rx),
            reactor,
            seq: MsgSeq::new(seed, MIX, POOL_LEN),
            pool: PayloadPool::new(seed, POOL_LEN),
            window: VecDeque::new(),
            next_op: 0,
        };
        stream.post()?;
        stream.complete()?;
        Ok(stream)
    }

    fn post(&mut self) -> Result<(), String> {
        let op = self.next_op;
        self.next_op += 1;
        let (off, len) = self.seq.next_msg();
        let payload = self.pool.slice(off, len);
        let (tx, rx) = (&self.tx, &self.rx);
        let t0 = Instant::now();
        let recv = span("transport.post_recv", op, || {
            rx.post_recv(tx.local_id(), TAG, MAX_LEN, TruncationPolicy::Error)
        })
        .map_err(|e| format!("op {op}: post_recv: {e}"))?;
        let send = span("transport.post_send", op, || {
            tx.post_send(rx.local_id(), TAG, payload.clone())
        })
        .map_err(|e| format!("op {op}: post_send: {e}"))?;
        self.window.push_back(InFlight {
            op,
            t0,
            send,
            recv,
            payload,
            msg: (off, len),
        });
        Ok(())
    }

    /// Waits for the oldest message in flight and verifies it.
    fn complete(&mut self) -> Result<(Duration, (usize, usize)), String> {
        let m = self.window.pop_front().expect("a message in flight");
        let deadline = m.t0 + OP_DEADLINE;
        let left = || deadline.saturating_duration_since(Instant::now());
        let got = span("transport.wait", m.op, || {
            self.rx.wait(OpId::Recv(m.recv), left())
        });
        let elapsed = m.t0.elapsed();
        let sent = span("transport.wait", m.op, || {
            self.tx.wait(OpId::Send(m.send), left())
        });
        let fail = |what: &str| {
            let outstanding: Vec<String> = self
                .window
                .iter()
                .map(|w| {
                    format!(
                        "op {} ({} B, send {}, recv {})",
                        w.op, w.msg.1, w.send, w.recv
                    )
                })
                .collect();
            format!(
                "op {} ({} B, send {}, recv {}): {what}; outstanding ops: [{}]",
                m.op,
                m.msg.1,
                m.send,
                m.recv,
                outstanding.join(", ")
            )
        };
        match (got, sent) {
            (Some(r), Some(s)) if r.status == Status::Ok && s.status == Status::Ok => {
                if r.data.as_ref() != Some(&m.payload) {
                    return Err(fail("delivered payload differs from the one sent"));
                }
                Ok((elapsed, m.msg))
            }
            (Some(_), Some(_)) => Err(fail("completed with an error status")),
            _ => Err(fail("missed its deadline")),
        }
    }

    /// Both endpoints' merged stats and their channels' ARQ totals.
    fn stats(&self) -> (EndpointStats, Arq) {
        let (tx, rx) = (self.tx.raw(), self.rx.raw());
        let mut s = tx.stats();
        s.merge(&rx.stats());
        let mut arq = Arq::default();
        for c in [tx.channel_stats(rx.id()), rx.channel_stats(tx.id())]
            .into_iter()
            .flatten()
        {
            arq.frames_sent += c.frames_sent;
            arq.retransmissions += c.retransmissions;
            arq.acks_sent += c.acks_sent;
            arq.duplicates += c.duplicates;
            arq.timeouts += c.timeouts;
        }
        (s, arq)
    }

    /// Streams until `clock` runs out or an op fails, then drains the window.
    fn measure(&mut self, clock: &Clock, mut msgs: Option<&mut Vec<(usize, usize)>>) -> Phase {
        let mut phase = Phase::default();
        let mut broken = false;
        while !broken && (clock.running() || !self.window.is_empty()) {
            while clock.running() && self.window.len() < WINDOW {
                phase.attempted += 1;
                if let Err(e) = self.post() {
                    eprintln!("perfbench: stream_reactor failed op: {e}");
                    phase.failed += 1;
                    broken = true;
                    break;
                }
            }
            if broken || self.window.is_empty() {
                break;
            }
            match self.complete() {
                Ok((elapsed, msg)) => {
                    phase.latencies_us.push(elapsed.as_secs_f64() * 1e6);
                    phase.completed += 1;
                    phase.payload_bytes += msg.1 as u64;
                    if let Some(m) = msgs.as_deref_mut() {
                        m.push(msg);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: stream_reactor failed op: {e}");
                    phase.failed += 1;
                    broken = true;
                }
            }
        }
        if broken {
            // Messages still in flight behind a failed one are never
            // verified: they fail too.
            phase.failed += self.window.len() as u64;
            self.window.clear();
        }
        phase.wall = clock.elapsed();
        phase
    }
}

/// Interpolated `q`-quantile of a log2-bucketed histogram: linear within the
/// bucket the quantile falls in, between that bucket's bounds.
fn log2_quantile(h: &HistogramSnapshot, q: f64) -> f64 {
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let mut seen = 0.0;
    for (i, &n) in h.buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        if seen + n as f64 >= target {
            let (lo, hi) = bucket_bounds(i);
            let within = (target - seen) / n as f64;
            return lo as f64 + within * (hi - lo) as f64;
        }
        seen += n as f64;
    }
    bucket_bounds(HIST_BUCKETS - 1).1 as f64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (mut stream, setup_s) = match repeated_setup(|| Stream::new(seed)) {
        Ok(ok) => ok,
        Err(e) => return Outcome::setup_failed("stream_reactor", &e),
    };
    let mut out = Outcome::default();
    if !traced {
        let phase = stream.measure(&Clock::start(Duration::from_secs_f64(seconds)), None);
        out.end_to_end(&phase, setup_s);
        return out;
    }

    let half = Duration::from_secs_f64(seconds / 2.0);
    let base = stream.measure(&Clock::start(half), None);
    let (before, arq0) = stream.stats();
    let m = stream.reactor.metrics();
    let (batches0, timers0) = (m.batches.get(), m.timers_fired.get());
    let (recv0, send0, lock0, user0) = (
        m.recv_batch.snapshot(),
        m.send_batch.snapshot(),
        m.batch_lock_ns.snapshot(),
        m.user_lock_ns.snapshot(),
    );
    trace::enable(Instant::now());
    let mut msgs = Vec::new();
    let traced_phase = stream.measure(&Clock::start(half), Some(&mut msgs));
    let main = trace::take();
    let (after, arq1) = stream.stats();
    out.attempted = base.attempted + traced_phase.attempted;
    out.failed = base.failed + traced_phase.failed;

    let first_sends = |a: Arq| a.frames_sent - a.retransmissions;
    let host = replay::Counts::from_stats(&before, &after, first_sends(arq1) - first_sends(arq0));
    let replayed = replay::internode_stream(&stream.pool, &msgs, WINDOW);
    replay::check_agreement("stream_reactor", &host, &replayed.counts, &mut out);

    let n = msgs.len().max(1) as f64;
    let per_call = |name| main.self_ns_per_call(name) / 1e3;
    out.metric("transport.post_send_us", per_call("transport.post_send"));
    out.metric("transport.post_recv_us", per_call("transport.post_recv"));
    out.metric("transport.wait_us", per_call("transport.wait"));
    replay::engine_metrics(&replayed, &before, &after, &mut out);

    let sent = (arq1.frames_sent - arq0.frames_sent) as f64;
    out.metric("reliability.frames_sent_per_msg", sent / n);
    out.metric(
        "reliability.acks_per_frame",
        (arq1.acks_sent - arq0.acks_sent) as f64 / sent.max(1.0),
    );
    out.metric(
        "reliability.retransmit_ratio",
        (arq1.retransmissions - arq0.retransmissions) as f64 / sent.max(1.0),
    );
    out.metric(
        "reliability.duplicates",
        (arq1.duplicates - arq0.duplicates) as f64,
    );
    out.metric(
        "reliability.timeouts",
        (arq1.timeouts - arq0.timeouts) as f64,
    );

    let m = stream.reactor.metrics();
    let delta = |now: HistogramSnapshot, then: HistogramSnapshot| {
        let mut d = now;
        for (x, y) in d.buckets.iter_mut().zip(then.buckets.iter()) {
            *x -= y;
        }
        d
    };
    let recv = delta(m.recv_batch.snapshot(), recv0);
    let send = delta(m.send_batch.snapshot(), send0);
    let lock = delta(m.batch_lock_ns.snapshot(), lock0);
    let user = delta(m.user_lock_ns.snapshot(), user0);
    out.metric(
        "reactor.batches_per_msg",
        (m.batches.get() - batches0) as f64 / n,
    );
    out.metric("reactor.recv_batch_p50", log2_quantile(&recv, 0.5));
    out.metric("reactor.send_batch_p50", log2_quantile(&send, 0.5));
    out.metric("reactor.batch_lock_ns_p50", log2_quantile(&lock, 0.5));
    out.metric("reactor.batch_lock_ns_p99", log2_quantile(&lock, 0.99));
    out.metric("reactor.user_lock_ns_p50", log2_quantile(&user, 0.5));
    out.metric(
        "reactor.timers_fired_per_msg",
        (m.timers_fired.get() - timers0) as f64 / n,
    );

    out.metric("op_p99_us", base.p99());
    out.metric("trace.overhead_p50_us", traced_phase.p50() - base.p50());
    out.metric(
        "trace.unexplained_share",
        1.0 - main.top_level_ns as f64 / traced_phase.wall.as_nanos() as f64,
    );
    out.drift_note(&traced_phase);
    out.traces = vec![("main", main), ("replay", replayed.trace)];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_quantile_interpolates_within_a_bucket() {
        let mut h = HistogramSnapshot::default();
        assert_eq!(log2_quantile(&h, 0.5), 0.0);
        h.buckets[3] = 10; // values 4..=7
        assert_eq!(log2_quantile(&h, 0.5), 5.5);
        assert_eq!(log2_quantile(&h, 1.0), 7.0);
        h.buckets[1] = 10; // value 1
        assert_eq!(log2_quantile(&h, 0.5), 1.0);
    }
}
