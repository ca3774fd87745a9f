//! Engine replay: the traced run's seeded message sequence pushed through
//! two bare sans-I/O `ppmsg_core::Endpoint`s, relaying actions by hand as the
//! `ppmsg_core` crate example does, with every engine call timed.
//!
//! The replay must reproduce the host run's per-message protocol counts
//! exactly (pull requests, bytes pushed and pulled, and for internode the
//! data frames first sent).  If it does not, the decomposition would be
//! measuring a different code path than the host run, and the traced run
//! fails.

use crate::common::{Outcome, PayloadPool};
use crate::trace::{self, span, ThreadTrace};
use bytes::Bytes;
use ppmsg_core::reliability::Frame;
use ppmsg_core::{Action, Endpoint, EndpointStats, OpId, ProcessId, ProtocolConfig, Status, Tag};
use std::time::Instant;

const TAG: Tag = Tag(1);

/// Protocol counts the replay must reproduce.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub messages: u64,
    pub pull_requests: u64,
    pub bytes_pushed: u64,
    pub bytes_pulled: u64,
    /// Data frames sent for the first time (internode only).
    pub data_frames: u64,
}

impl Counts {
    /// Counts between two merged-stats snapshots, with the data frames
    /// first sent between them.
    pub fn from_stats(before: &EndpointStats, after: &EndpointStats, data_frames: u64) -> Counts {
        Counts {
            messages: after.recvs_completed - before.recvs_completed,
            pull_requests: after.pull_requests_sent - before.pull_requests_sent,
            bytes_pushed: after.bytes_pushed - before.bytes_pushed,
            bytes_pulled: after.bytes_pulled - before.bytes_pulled,
            data_frames,
        }
    }
}

/// Fails the run (and says why) unless host and replay counts agree.
pub fn check_agreement(workload: &str, host: &Counts, replay: &Counts, out: &mut Outcome) {
    if host == replay {
        out.notes
            .push(format!("replay agreement: {workload}: {host:?}"));
    } else {
        out.incorrect = true;
        eprintln!("perfbench: {workload}: engine replay disagrees with the host run\n  host:   {host:?}\n  replay: {replay:?}");
    }
}

/// Data frames a channel sent for the first time.
fn first_sends(stats: Option<ppmsg_core::GbnStats>) -> u64 {
    stats.map_or(0, |s| s.frames_sent - s.retransmissions)
}

/// What a replay measured.
pub struct Replay {
    pub counts: Counts,
    /// Engine and codec spans.
    pub trace: ThreadTrace,
    /// Packets and frames handed between the engines.
    pub transmissions: u64,
    /// Encoded bytes of every frame (internode only).
    pub wire_bytes: u64,
}

/// Relay state between the two bare engines.
struct Relay {
    a: Endpoint,
    b: Endpoint,
    /// Pass internode frames through `Frame::encode`/`decode`.
    codec: bool,
    /// Packets and frames handed between the engines.
    transmissions: u64,
    wire_bytes: u64,
}

impl Relay {
    fn new(a: ProcessId, b: ProcessId, protocol: ProtocolConfig, codec: bool) -> Relay {
        Relay {
            a: Endpoint::new(a, protocol.clone()),
            b: Endpoint::new(b, protocol),
            codec,
            transmissions: 0,
            wire_bytes: 0,
        }
    }

    /// Ends the replay: stops recording and collects the counts.
    fn finish(self) -> Replay {
        let trace = trace::take();
        let mut stats = self.a.stats();
        stats.merge(&self.b.stats());
        // Intranode peers have no ARQ channel, so they count no frames.
        let (ia, ib) = (self.a.id(), self.b.id());
        let frames = first_sends(self.a.channel_stats(ib)) + first_sends(self.b.channel_stats(ia));
        Replay {
            counts: Counts::from_stats(&EndpointStats::default(), &stats, frames),
            trace,
            transmissions: self.transmissions,
            wire_bytes: self.wire_bytes,
        }
    }

    /// Moves traffic both ways until neither engine has an action left.
    fn run(&mut self) {
        loop {
            let moved = self.drain(true) | self.drain(false);
            if !moved {
                break;
            }
        }
    }

    fn drain(&mut self, from_a: bool) -> bool {
        let mut moved = false;
        loop {
            let (src, dst) = if from_a {
                (&mut self.a, &mut self.b)
            } else {
                (&mut self.b, &mut self.a)
            };
            let Some(action) = span("engine.poll", 0, || src.poll_action()) else {
                return moved;
            };
            moved = true;
            let from = src.id();
            match action {
                Action::Transmit { packet, .. } => {
                    self.transmissions += 1;
                    span("engine.handle", 0, || dst.handle_packet(from, packet));
                }
                Action::TransmitFrame { frame, .. } => {
                    self.transmissions += 1;
                    let frame = if self.codec {
                        let wire = span("wire.codec", 0, || frame.encode());
                        self.wire_bytes += wire.len() as u64;
                        span("wire.codec", 0, || Frame::decode(wire)).expect("frame round-trips")
                    } else {
                        frame
                    };
                    span("engine.handle", 0, || dst.handle_frame(from, frame));
                }
                // Copies, translations and timers need no relaying: the
                // replay loses nothing, so no retransmission timer is due.
                _ => {}
            }
        }
    }
}

fn take_ok(ep: &mut Endpoint, what: &str) -> Option<Bytes> {
    let c = span("engine.poll", 0, || ep.poll_completion())
        .unwrap_or_else(|| panic!("replay: {what} did not complete"));
    assert_eq!(c.status, Status::Ok, "replay: {what}");
    c.data
}

/// Replays `msgs` round trips (message out, same-size echo back) between
/// two engines: intranode with the paper's intranode configuration and no
/// codec, or internode with the internode configuration and every frame
/// through the codec.
pub fn round_trips(pool: &PayloadPool, msgs: &[(usize, usize)], intranode: bool) -> Replay {
    let ia = ProcessId::new(0, 0);
    let (ib, protocol) = if intranode {
        (ProcessId::new(0, 1), ProtocolConfig::paper_intranode())
    } else {
        (ProcessId::new(1, 0), ProtocolConfig::paper_internode())
    };
    let mut r = Relay::new(ia, ib, protocol, !intranode);
    trace::enable(Instant::now());
    for &(off, len) in msgs {
        let payload = pool.slice(off, len);
        span("engine.post_recv", 0, || r.b.post_recv(ia, TAG, len)).expect("post_recv");
        span("engine.post_recv", 0, || r.a.post_recv(ib, TAG, len)).expect("post_recv");
        span("engine.post_send", 0, || {
            r.a.post_send(ib, TAG, payload.clone())
        })
        .expect("post_send");
        r.run();
        let data = take_ok(&mut r.b, "receive").expect("engine-buffered data");
        assert_eq!(data, payload, "replay: payload corrupted");
        span("engine.post_send", 0, || r.b.post_send(ia, TAG, data)).expect("post_send");
        r.run();
        drain_completions(&mut r.a, 2);
        drain_completions(&mut r.b, 1);
    }
    r.finish()
}

fn drain_completions(ep: &mut Endpoint, n: usize) {
    for _ in 0..n {
        take_ok(ep, "operation");
    }
}

/// Replays a one-way stream of `msgs` from an internode engine to another,
/// `window` messages posted before each relay, every frame through the codec.
pub fn internode_stream(pool: &PayloadPool, msgs: &[(usize, usize)], window: usize) -> Replay {
    let (ia, ib) = (ProcessId::new(0, 0), ProcessId::new(1, 0));
    let mut r = Relay::new(ia, ib, ProtocolConfig::paper_internode(), true);
    trace::enable(Instant::now());
    // Receives complete in arrival order, not posting order: a pushed-only
    // message can overtake an earlier pulled one.
    let mut expected = Vec::new();
    for chunk in msgs.chunks(window) {
        for &(off, len) in chunk {
            let payload = pool.slice(off, len);
            let op =
                span("engine.post_recv", 0, || r.b.post_recv(ia, TAG, len)).expect("post_recv");
            span("engine.post_send", 0, || {
                r.a.post_send(ib, TAG, payload.clone())
            })
            .expect("post_send");
            expected.push((OpId::Recv(op), payload));
        }
        r.run();
        while let Some(c) = span("engine.poll", 0, || r.b.poll_completion()) {
            assert_eq!(c.status, Status::Ok, "replay: receive");
            let i = expected
                .iter()
                .position(|(op, _)| *op == c.op)
                .expect("a posted receive");
            assert_eq!(
                c.data.as_ref(),
                Some(&expected.swap_remove(i).1),
                "replay: payload corrupted"
            );
        }
        while span("engine.poll", 0, || r.a.poll_completion()).is_some() {}
    }
    assert!(
        expected.is_empty(),
        "replay: {} messages undelivered",
        expected.len()
    );
    r.finish()
}

/// Engine and wire per-layer metrics from a replay and the host run's
/// stats over the same messages.
pub fn engine_metrics(
    replay: &Replay,
    before: &EndpointStats,
    after: &EndpointStats,
    out: &mut Outcome,
) {
    let t = &replay.trace;
    let msgs = replay.counts.messages.max(1) as f64;
    out.metric(
        "engine.post_send_ns",
        t.self_ns_per_call("engine.post_send"),
    );
    out.metric(
        "engine.post_recv_ns",
        t.self_ns_per_call("engine.post_recv"),
    );
    out.metric("engine.handle_ns", t.self_ns_per_call("engine.handle"));
    out.metric("engine.poll_ns", t.self_ns_per_call("engine.poll"));
    out.metric("engine.frames_per_msg", replay.transmissions as f64 / msgs);
    let d = |f: fn(&EndpointStats) -> u64| (f(after) - f(before)) as f64;
    out.metric(
        "engine.pull_requests_per_msg",
        d(|s| s.pull_requests_sent) / msgs,
    );
    out.metric("engine.bytes_pulled_per_msg", d(|s| s.bytes_pulled) / msgs);
    let staged = d(|s| s.bytes_copied_staged);
    let direct = d(|s| s.bytes_copied_direct);
    out.metric(
        "engine.staged_copy_ratio",
        staged / (staged + direct).max(1.0),
    );
    let payload = (replay.counts.bytes_pushed + replay.counts.bytes_pulled).max(1) as f64;
    out.metric(
        "wire.codec_ns_per_msg",
        t.get("wire.codec").self_ns as f64 / msgs,
    );
    out.metric("wire.overhead_ratio", replay.wire_bytes as f64 / payload);
}
