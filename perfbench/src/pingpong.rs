//! `pingpong_intra`: blocking round trips between two threads on one
//! `HostCluster`.
//!
//! A client thread posts a receive for the reply, sends a seeded message,
//! and waits for both; an echo thread receives each message, checks it, and
//! sends it back.  Intranode traffic is routed inline on the posting thread
//! with no sockets, ARQ or timers, so a round trip is engine matching and
//! pull, completion publish and a cross-thread wake.  The size mix (80 %
//! 64 B, 15 % 4 KiB, 5 % 64 KiB) puts the median in the 64 B class and the
//! p99 in the 64 KiB class.

use crate::common::{repeated_setup, Clock, MsgSeq, Outcome, PayloadPool, Phase, OP_DEADLINE};
use crate::trace::{self, span, ThreadTrace};
use crate::{papersim, replay};
use bytes::Bytes;
use ppmsg_core::{EndpointStats, OpId, ProcessId, ProtocolConfig, Status, Tag, TruncationPolicy};
use ppmsg_host::{HostCluster, HostEndpoint};
use push_pull_messaging::Endpoint;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const MIX: &[(u64, usize)] = &[(80, 64), (95, 4096), (100, 65536)];
const MAX_LEN: usize = 65536;
const POOL_LEN: usize = 4 * MAX_LEN;
const TAG: Tag = Tag(1);
/// How often the idle echo thread looks at its stop flag.
const IDLE_POLL: Duration = Duration::from_millis(20);

struct Pair {
    client: Endpoint<HostEndpoint>,
    /// A handle onto the echo thread's endpoint, for statistics.
    echo_raw: HostEndpoint,
    echo_id: ProcessId,
    seq: MsgSeq,
    pool: PayloadPool,
    stop: Arc<AtomicBool>,
    trace_echo: Arc<AtomicBool>,
    echo: Option<JoinHandle<ThreadTrace>>,
    next_op: u64,
}

impl Pair {
    fn new(seed: u64) -> Result<Pair, String> {
        crate::affinity::pin_current_thread(0);
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let client = Endpoint::new(cluster.add_endpoint(0));
        let echo_raw = cluster.add_endpoint(1);
        let echo_id = echo_raw.id();
        let client_id = client.local_id();
        let pool = PayloadPool::new(seed, POOL_LEN);
        let stop = Arc::new(AtomicBool::new(false));
        let trace_echo = Arc::new(AtomicBool::new(false));
        let echo = {
            let ep = Endpoint::new(echo_raw.clone());
            let seq = MsgSeq::new(seed, MIX, POOL_LEN);
            let pool = pool.clone();
            let stop = stop.clone();
            let trace_echo = trace_echo.clone();
            std::thread::Builder::new()
                .name("perfbench-echo".into())
                .spawn(move || {
                    crate::affinity::pin_current_thread(1);
                    echo_loop(ep, client_id, seq, pool, stop, trace_echo)
                })
                .expect("spawn echo thread")
        };
        let mut pair = Pair {
            client,
            echo_raw,
            echo_id,
            seq: MsgSeq::new(seed, MIX, POOL_LEN),
            pool,
            stop,
            trace_echo,
            echo: Some(echo),
            next_op: 0,
        };
        pair.round_trip()?;
        Ok(pair)
    }

    /// One verified round trip; returns its latency and message.
    fn round_trip(&mut self) -> Result<(Duration, (usize, usize)), String> {
        let op = self.next_op;
        self.next_op += 1;
        let (off, len) = self.seq.next_msg();
        let payload = self.pool.slice(off, len);
        let ep = &self.client;
        let peer = self.echo_id;
        let t0 = Instant::now();
        let deadline = t0 + OP_DEADLINE;
        let r = span("transport.post_recv", op, || {
            ep.post_recv(peer, TAG, len, TruncationPolicy::Error)
        })
        .map_err(|e| format!("op {op}: post_recv: {e}"))?;
        let s = span("transport.post_send", op, || {
            ep.post_send(peer, TAG, payload.clone())
        })
        .map_err(|e| format!("op {op}: post_send: {e}"))?;
        let sent = span("transport.wait", op, || {
            ep.wait(
                OpId::Send(s),
                deadline.saturating_duration_since(Instant::now()),
            )
        });
        let got = span("transport.wait", op, || {
            ep.wait(
                OpId::Recv(r),
                deadline.saturating_duration_since(Instant::now()),
            )
        });
        let elapsed = t0.elapsed();
        let outstanding = |what: &str| {
            format!(
                "op {op} ({len} B): {what}; outstanding ops: send {s} {}, recv {r} {}",
                if sent.is_some() { "done" } else { "pending" },
                if got.is_some() { "done" } else { "pending" }
            )
        };
        match (&sent, &got) {
            (Some(cs), Some(cr)) if cs.status == Status::Ok && cr.status == Status::Ok => {
                if cr.data.as_ref() != Some(&payload) {
                    return Err(outstanding("echoed payload differs from the one sent"));
                }
                Ok((elapsed, (off, len)))
            }
            (Some(_), Some(_)) => Err(outstanding("completed with an error status")),
            _ => Err(outstanding("missed its deadline")),
        }
    }

    fn stats(&self) -> EndpointStats {
        let mut s = self.client.stats();
        s.merge(&self.echo_raw.stats());
        s
    }

    fn finish(&mut self) -> ThreadTrace {
        self.stop.store(true, Ordering::SeqCst);
        self.echo
            .take()
            .map(|h| h.join().expect("echo thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.echo.take() {
            let _ = h.join();
        }
    }
}

fn echo_loop(
    ep: Endpoint<HostEndpoint>,
    client: ProcessId,
    mut seq: MsgSeq,
    pool: PayloadPool,
    stop: Arc<AtomicBool>,
    trace_on: Arc<AtomicBool>,
) -> ThreadTrace {
    let mut tracing = false;
    let mut op = 0u64;
    loop {
        if !tracing && trace_on.load(Ordering::SeqCst) {
            trace::enable(Instant::now());
            tracing = true;
        }
        let Ok(r) = span("transport.post_recv", op, || {
            ep.post_recv(client, TAG, MAX_LEN, TruncationPolicy::Error)
        }) else {
            break;
        };
        let got = loop {
            if let Some(c) = span("transport.wait", op, || ep.wait(OpId::Recv(r), IDLE_POLL)) {
                break Some(c);
            }
            if stop.load(Ordering::SeqCst) {
                ep.cancel(r);
                break None;
            }
        };
        let Some(got) = got else { break };
        let (off, len) = seq.next_msg();
        // A corrupted message is answered with an empty one, so the
        // client's check fails for exactly this op.
        let reply = match got.data {
            Some(data) if got.status == Status::Ok && data == pool.slice(off, len) => data,
            _ => Bytes::new(),
        };
        let Ok(s) = span("transport.post_send", op, || {
            ep.post_send(client, TAG, reply)
        }) else {
            break;
        };
        span("transport.wait", op, || ep.wait(OpId::Send(s), OP_DEADLINE));
        op += 1;
    }
    trace::take()
}

/// Runs round trips until `clock` runs out or an op fails.
fn measure(pair: &mut Pair, clock: &Clock, mut msgs: Option<&mut Vec<(usize, usize)>>) -> Phase {
    let mut phase = Phase::default();
    while clock.running() {
        phase.attempted += 1;
        match pair.round_trip() {
            Ok((elapsed, msg)) => {
                phase.latencies_us.push(elapsed.as_secs_f64() * 1e6);
                phase.completed += 1;
                phase.payload_bytes += 2 * msg.1 as u64;
                if let Some(m) = msgs.as_deref_mut() {
                    m.push(msg);
                }
            }
            Err(e) => {
                eprintln!("perfbench: pingpong_intra failed op: {e}");
                phase.failed += 1;
                break;
            }
        }
    }
    phase.wall = clock.elapsed();
    phase
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let (mut pair, setup_s) = match repeated_setup(|| Pair::new(seed)) {
        Ok(ok) => ok,
        Err(e) => return Outcome::setup_failed("pingpong_intra", &e),
    };
    let mut out = Outcome::default();
    if !traced {
        let phase = measure(
            &mut pair,
            &Clock::start(Duration::from_secs_f64(seconds)),
            None,
        );
        pair.finish();
        out.end_to_end(&phase, setup_s);
        return out;
    }

    // Traced run: an untraced half for the overhead baseline, then a traced
    // half whose message sequence the engine replay repeats.
    let half = Duration::from_secs_f64(seconds / 2.0);
    let base = measure(&mut pair, &Clock::start(half), None);
    let before = pair.stats();
    pair.trace_echo.store(true, Ordering::SeqCst);
    trace::enable(Instant::now());
    let mut msgs = Vec::new();
    let traced_phase = measure(&mut pair, &Clock::start(half), Some(&mut msgs));
    let client = trace::take();
    let after = pair.stats();
    let echo = pair.finish();
    out.attempted = base.attempted + traced_phase.attempted;
    out.failed = base.failed + traced_phase.failed;

    let wall_ns = traced_phase.wall.as_nanos() as f64;
    let mut transport = ThreadTrace::default();
    transport.add_totals(&client);
    transport.add_totals(&echo);
    let host = replay::Counts::from_stats(&before, &after, 0);
    let replayed = replay::round_trips(&pair.pool, &msgs, true);
    replay::check_agreement("pingpong_intra", &host, &replayed.counts, &mut out);

    let per_call = |name| transport.self_ns_per_call(name) / 1e3;
    out.metric("transport.post_send_us", per_call("transport.post_send"));
    out.metric("transport.post_recv_us", per_call("transport.post_recv"));
    out.metric("transport.wait_us", per_call("transport.wait"));
    replay::engine_metrics(&replayed, &before, &after, &mut out);
    papersim::layer_metrics(&mut out);
    out.metric("op_p99_us", base.p99());
    out.metric("trace.overhead_p50_us", traced_phase.p50() - base.p50());
    out.metric(
        "trace.unexplained_share",
        1.0 - client.top_level_ns as f64 / wall_ns,
    );
    out.drift_note(&traced_phase);
    out.traces = vec![
        ("client", client),
        ("echo", echo),
        ("replay", replayed.trace),
    ];
    out
}
