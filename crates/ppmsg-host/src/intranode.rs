//! Intranode fabric: threads within one OS process exchanging messages
//! through a shared in-memory "kernel agent", driving the same protocol
//! engine the simulator uses.
//!
//! Since PR 8 every member hosts a peer-sharded engine
//! ([`ShardedEngine`]) behind per-shard locks and publishes completions
//! through an MPSC [`CompletionMailbox`]: threads exchanging traffic with
//! *different* peers of one endpoint run under different shard locks, and a
//! publication with no parked waiter never touches the shared completion
//! lock at all.  The default is one shard per endpoint (identical locking
//! to the pre-sharding fabric); opt in with
//! [`EndpointConfig::shards`](ppmsg_core::EndpointConfig::shards) or
//! [`HostCluster::add_endpoint_sharded`].
//!
//! Ranks may be added while traffic flows: packets routed to a rank that
//! has not been added yet are held by the fabric and delivered, in order,
//! when [`HostCluster::add_endpoint`] registers it.

use bytes::Bytes;
use ppmsg_check::sync::Mutex;
use ppmsg_core::sharded::{EngineBatch, ShardedEngine};
use ppmsg_core::wire::Packet;
use ppmsg_core::{
    Action, CompletionMailbox, CompletionQueue, EndpointConfig, EndpointStats, ProcessId,
    ProtocolConfig, RawTransport, RecvBuf, RecvOp, Result, SendOp, Tag, TruncationPolicy,
};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

struct Member {
    /// The peer-sharded protocol engine: traffic for independent peers
    /// progresses under independent shard locks.
    engine: ShardedEngine,
    /// Completions published per shard through the MPSC mailbox; claims,
    /// polls, and waker registrations (async futures and the facade's
    /// blocking `wait` alike) go through its queue.
    done: CompletionMailbox,
}

impl Member {
    /// Publishes a drained batch (completions + shard attribution), waking
    /// every waiter registered for one of them.  Wakers are invoked after
    /// the mailbox's queue lock is released: a waker is arbitrary executor
    /// code and may poll (and so re-enter this endpoint) inline.
    fn publish(&self, batch: &mut EngineBatch) {
        self.done.post(batch.shard, &mut batch.comps);
    }
}

/// The fabric's membership: the live members, and the packets routed to
/// ranks that have not been added yet.
#[derive(Default)]
struct Members {
    live: HashMap<u64, Arc<Member>>,
    /// Per absent destination, its `(source, packet)`s in arrival order.
    /// Only pushes of sends already posted land here, so this is bounded
    /// by them.
    held: HashMap<u64, Vec<(ProcessId, Packet)>>,
}

/// The shared state of one intranode fabric (one simulated "SMP node" worth
/// of processes living in this OS process).
struct Fabric {
    members: Mutex<Members>,
}

impl Fabric {
    /// The live member `dst`, or `None` after holding `packet` for it.
    /// The lookup and the hold share one critical section, so a packet is
    /// either delivered or seen by the `add_endpoint` that registers `dst`.
    fn member_or_hold(
        &self,
        src: ProcessId,
        dst: ProcessId,
        packet: Packet,
    ) -> Option<(Arc<Member>, Packet)> {
        let mut members = self.members.lock();
        match members.live.get(&dst.as_u64()) {
            Some(member) => Some((member.clone(), packet)),
            None => {
                members
                    .held
                    .entry(dst.as_u64())
                    .or_default()
                    .push((src, packet));
                None
            }
        }
    }

    /// Queues a member's outgoing packets; cost-model hints
    /// (translate/copy) and reliability plumbing have no user-space
    /// equivalent and are dropped.  Drains `actions`, leaving its capacity
    /// for reuse.
    fn queue_actions(
        src: ProcessId,
        actions: &mut Vec<Action>,
        work: &mut VecDeque<(ProcessId, ProcessId, Packet)>,
    ) {
        for action in actions.drain(..) {
            match action {
                Action::Transmit { dst, packet, .. } => {
                    work.push_back((src, dst, packet));
                }
                Action::TransmitFrame { .. } => {
                    unreachable!("intranode fabric never uses go-back-N frames")
                }
                Action::Translate { .. }
                | Action::Copy { .. }
                | Action::SetTimer { .. }
                | Action::CancelTimer { .. }
                | Action::PacketDropped { .. }
                | Action::ChannelFailed { .. } => {}
            }
        }
    }

    /// Routes packets between members until no more traffic is generated.
    /// This is the "kernel agent": it may run on any thread that produced
    /// traffic (the paper runs it on the least-loaded processor; here the OS
    /// scheduler decides).  One batch is reused across every hop, so routing
    /// a message exchange performs no per-packet allocation — and each hop
    /// locks only the shard owning the packet's source, so routers carrying
    /// different peers' traffic into one busy endpoint run concurrently.
    fn route(&self, mut work: VecDeque<(ProcessId, ProcessId, Packet)>) {
        // One clock read stamps every event this routing pass emits.
        ppmsg_core::telemetry::clock::hold();
        let mut batch = EngineBatch::new();
        while let Some((src, dst, packet)) = work.pop_front() {
            let Some((member, packet)) = self.member_or_hold(src, dst, packet) else {
                continue;
            };
            member.engine.handle_packet(src, packet, &mut batch);
            member.publish(&mut batch);
            Self::queue_actions(dst, &mut batch.actions, &mut work);
        }
    }

    /// Registers `member`, first delivering every packet held for it.
    /// Packets held while a batch is being delivered (replies to what the
    /// batch's handling sent) are picked up by the re-check under the lock,
    /// and the member goes live only once nothing is held, so no later
    /// packet overtakes a held one.
    fn join(&self, member: Arc<Member>) {
        let id = member.engine.id();
        let mut batch = EngineBatch::new();
        loop {
            let held = {
                let mut members = self.members.lock();
                assert!(
                    !members.live.contains_key(&id.as_u64()),
                    "endpoint {id} added twice"
                );
                match members.held.remove(&id.as_u64()) {
                    Some(held) => held,
                    None => {
                        members.live.insert(id.as_u64(), member);
                        return;
                    }
                }
            };
            let mut work = VecDeque::new();
            for (src, packet) in held {
                member.engine.handle_packet(src, packet, &mut batch);
                member.publish(&mut batch);
                Self::queue_actions(id, &mut batch.actions, &mut work);
            }
            self.route(work);
        }
    }
}

/// A collection of intranode endpoints sharing one in-memory fabric.
#[derive(Clone)]
pub struct HostCluster {
    fabric: Arc<Fabric>,
    node: u32,
    protocol: ProtocolConfig,
}

impl HostCluster {
    /// Creates an empty intranode fabric for node `node`, with every endpoint
    /// using `protocol`.
    pub fn new(node: u32, protocol: ProtocolConfig) -> Self {
        HostCluster {
            fabric: Arc::new(Fabric {
                members: Mutex::new("host.fabric.members", Members::default()),
            }),
            node,
            protocol,
        }
    }

    /// Adds a process to the fabric and returns its endpoint handle.
    ///
    /// Other endpoints may send to `local_rank` before it is added: the
    /// fabric holds those packets and delivers them here, in order and
    /// before any packet sent afterwards, so the sends complete as usual
    /// once the rank exists.  Packets for a rank that is never added stay
    /// held (and their sends pending) for the fabric's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added.
    pub fn add_endpoint(&self, local_rank: u32) -> HostEndpoint {
        self.add_endpoint_with(local_rank, &EndpointConfig::new())
    }

    /// Adds a process whose engine state is partitioned across `shards`
    /// peer-keyed shards (see
    /// [`ShardedEngine`](ppmsg_core::sharded::ShardedEngine)): threads
    /// driving traffic with different peers of this endpoint stop contending
    /// on one engine lock.  Note that multi-shard endpoints reject
    /// `ANY_SOURCE` receives.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added.
    pub fn add_endpoint_sharded(&self, local_rank: u32, shards: usize) -> HostEndpoint {
        self.add_endpoint_with(local_rank, &EndpointConfig::new().shards(shards))
    }

    /// Adds a process with per-endpoint configuration overrides: the
    /// completion-retention cap, go-back-N window, BTP eager threshold, and
    /// engine shard count from `config` replace the fabric-wide defaults
    /// for this endpoint only.
    ///
    /// Only the protocol-and-queue overrides (retention cap, window, eager
    /// threshold, shards) apply here; the config's default *truncation
    /// policy* is a front-end concern — wrap the returned endpoint in the
    /// facade's `Endpoint::with_config(raw, config)` to honor it.
    ///
    /// # Panics
    ///
    /// Panics if the local rank was already added or the resulting protocol
    /// configuration is invalid.
    pub fn add_endpoint_with(&self, local_rank: u32, config: &EndpointConfig) -> HostEndpoint {
        let id = ProcessId::new(self.node, local_rank);
        let protocol = config.apply_protocol(self.protocol.clone());
        let shards = config.shard_count();
        let mut done = CompletionQueue::new();
        config.apply_retention(&mut done);
        let member = Arc::new(Member {
            engine: ShardedEngine::new(id, protocol, shards),
            done: CompletionMailbox::with_queue(shards, done),
        });
        self.fabric.join(member.clone());
        HostEndpoint {
            fabric: self.fabric.clone(),
            member,
        }
    }
}

/// One process's handle onto the intranode fabric.
#[derive(Clone)]
pub struct HostEndpoint {
    fabric: Arc<Fabric>,
    member: Arc<Member>,
}

impl HostEndpoint {
    /// This endpoint's process id.
    pub fn id(&self) -> ProcessId {
        self.member.engine.id()
    }

    /// Number of engine shards this endpoint runs (1 unless configured).
    pub fn shard_count(&self) -> usize {
        self.member.engine.shard_count()
    }

    /// Publishes a drained interaction's completions through the mailbox
    /// and routes its traffic through the fabric.
    fn finish(&self, batch: &mut EngineBatch) {
        self.member.publish(batch);
        let mut work = VecDeque::new();
        Fabric::queue_actions(self.id(), &mut batch.actions, &mut work);
        self.fabric.route(work);
    }

    /// Posts a send of `data` to `peer`, returning its operation handle.
    /// The transfer is initiated before this returns (the pushed part
    /// delivered and the remainder registered for pulling); the data is
    /// captured by reference count, so the caller may drop its handle
    /// immediately.
    pub fn post_send(&self, peer: ProcessId, tag: Tag, data: impl Into<Bytes>) -> Result<SendOp> {
        let data = data.into();
        // Latch one clock read for every event this interaction emits.
        ppmsg_core::telemetry::clock::hold();
        let mut batch = EngineBatch::new();
        let result = self.member.engine.post_send(peer, tag, data, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Posts a vectored send: `segments` arrive as one concatenated message
    /// but are never coalesced on the wire; see
    /// [`Endpoint::post_send_vectored`](ppmsg_core::Endpoint::post_send_vectored).
    pub fn post_send_vectored(
        &self,
        peer: ProcessId,
        tag: Tag,
        segments: &[Bytes],
    ) -> Result<SendOp> {
        ppmsg_core::telemetry::clock::hold();
        let mut batch = EngineBatch::new();
        let result = self
            .member
            .engine
            .post_send_vectored(peer, tag, segments, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Posts an engine-buffered receive.  `src` / `tag` may be the
    /// [`ANY_SOURCE`](ppmsg_core::ANY_SOURCE) /
    /// [`ANY_TAG`](ppmsg_core::ANY_TAG) wildcards — though `ANY_SOURCE`
    /// requires a single-shard endpoint (the default); see
    /// [`Error::ShardedWildcard`](ppmsg_core::Error::ShardedWildcard).
    pub fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ppmsg_core::telemetry::clock::hold();
        let mut batch = EngineBatch::new();
        let result = self
            .member
            .engine
            .post_recv_with(src, tag, capacity, policy, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Posts a receive that reassembles directly into the caller-owned
    /// `buf`, handed back in the completion.
    pub fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        ppmsg_core::telemetry::clock::hold();
        let mut batch = EngineBatch::new();
        let result = self
            .member
            .engine
            .post_recv_into(src, tag, buf, policy, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Cancels a still-unmatched receive; see
    /// [`Endpoint::cancel`](ppmsg_core::Endpoint::cancel).
    pub fn cancel(&self, op: RecvOp) -> bool {
        let mut batch = EngineBatch::new();
        let result = self.member.engine.cancel_recv(op, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Cancels a posted send whose remainder has not been pulled yet; see
    /// [`Endpoint::cancel_send`](ppmsg_core::Endpoint::cancel_send).
    pub fn cancel_send(&self, op: SendOp) -> bool {
        let mut batch = EngineBatch::new();
        let result = self.member.engine.cancel_send(op, &mut batch);
        self.finish(&mut batch);
        result
    }

    /// Protocol statistics of this endpoint, merged over its shards and
    /// including the completion queue's eviction counter
    /// ([`EndpointStats::completions_evicted`]).
    pub fn stats(&self) -> EndpointStats {
        let mut stats = self.member.engine.stats();
        stats.completions_evicted = self.member.done.evicted();
        stats
    }
}

/// The intranode fabric's backend contract: the posting core delegates to
/// the engine behind the member lock, and completion access goes through the
/// `done` queue under its own lock (publication wakes registered wakers
/// after releasing it).
impl RawTransport for HostEndpoint {
    fn local_id(&self) -> ProcessId {
        self.id()
    }

    fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
        HostEndpoint::post_send(self, peer, tag, data)
    }

    fn post_send_vectored(&self, peer: ProcessId, tag: Tag, segments: &[Bytes]) -> Result<SendOp> {
        HostEndpoint::post_send_vectored(self, peer, tag, segments)
    }

    fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        HostEndpoint::post_recv(self, src, tag, capacity, policy)
    }

    fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp> {
        HostEndpoint::post_recv_into(self, src, tag, buf, policy)
    }

    fn cancel_recv(&self, op: RecvOp) -> bool {
        HostEndpoint::cancel(self, op)
    }

    fn cancel_send(&self, op: SendOp) -> bool {
        HostEndpoint::cancel_send(self, op)
    }

    fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
        self.member.done.with(f);
    }

    fn stats(&self) -> EndpointStats {
        HostEndpoint::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppmsg_core::{Completion, OpId, ProtocolMode, Status, ANY_SOURCE, ANY_TAG};
    use std::thread;
    use std::time::Duration;

    const T: Duration = Duration::from_secs(5);

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// Test-local blocking wait over the `RawTransport` core (the real
    /// blocking front-end lives in the facade crate, which this crate
    /// cannot depend on): claim-poll with a short sleep.
    fn wait(ep: &HostEndpoint, op: OpId, timeout: Duration) -> Option<Completion> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if let Some(completion) = ep.take_completion(op) {
                return Some(completion);
            }
            if std::time::Instant::now() >= deadline {
                return None;
            }
            thread::sleep(Duration::from_micros(200));
        }
    }

    fn send(ep: &HostEndpoint, peer: ProcessId, tag: Tag, data: Bytes) -> SendOp {
        ep.post_send(peer, tag, data).expect("post_send failed")
    }

    fn recv(
        ep: &HostEndpoint,
        peer: ProcessId,
        tag: Tag,
        max_len: usize,
        timeout: Duration,
    ) -> Option<Bytes> {
        let op = ep
            .post_recv(peer, tag, max_len, TruncationPolicy::Error)
            .ok()?;
        let completion = wait(ep, OpId::Recv(op), timeout)?;
        match completion.status {
            Status::Ok | Status::Truncated { .. } => completion.data,
            Status::Cancelled | Status::Error(_) => None,
        }
    }

    #[test]
    fn two_thread_pingpong_all_modes() {
        for mode in [
            ProtocolMode::PushZero,
            ProtocolMode::PushPull,
            ProtocolMode::PushAll,
        ] {
            let cluster = HostCluster::new(
                0,
                ProtocolConfig::paper_intranode()
                    .with_mode(mode)
                    .with_pushed_buffer(64 * 1024),
            );
            let a = cluster.add_endpoint(0);
            let b = cluster.add_endpoint(1);
            let a_id = a.id();
            let b_id = b.id();
            let data = payload(8192);
            let expect = data.clone();

            let receiver = thread::spawn(move || {
                let got = recv(&b, a_id, Tag(5), 8192, T).expect("recv timed out");
                send(&b, a_id, Tag(6), got.clone());
                got
            });
            send(&a, b_id, Tag(5), data);
            let echoed = recv(&a, b_id, Tag(6), 8192, T).expect("echo timed out");
            let got = receiver.join().unwrap();
            assert_eq!(got, expect, "mode {mode:?}");
            assert_eq!(echoed, expect, "mode {mode:?}");
        }
    }

    #[test]
    fn late_receiver_is_still_correct() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let data = payload(4096);
        // Send before any receive is posted: data must wait in the pushed
        // buffer and be drained when the receive appears.
        let h = send(&a, b.id(), Tag(1), data.clone());
        let got = recv(&b, a.id(), Tag(1), 4096, T).expect("recv timed out");
        assert_eq!(got, data);
        assert!(wait(&a, OpId::Send(h), T).is_some());
        assert!(b.stats().bytes_copied_staged > 0);
    }

    #[test]
    fn early_receiver_is_one_copy() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let a_id = a.id();
        let b_id = b.id();
        let data = payload(4096);
        let expect = data.clone();
        let receiver = thread::spawn(move || recv(&b, a_id, Tag(2), 4096, T));
        // Give the receiver a moment to post.
        thread::sleep(Duration::from_millis(50));
        send(&a, b_id, Tag(2), data);
        assert_eq!(receiver.join().unwrap().unwrap(), expect);
    }

    #[test]
    fn many_messages_in_order() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(256 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let count = 50usize;
        for i in 0..count {
            send(&a, b.id(), Tag(9), payload(i * 37 + 1));
        }
        for i in 0..count {
            let got = recv(&b, a.id(), Tag(9), 64 * 1024, T).expect("recv timed out");
            assert_eq!(got.len(), i * 37 + 1);
        }
    }

    #[test]
    fn recv_timeout_returns_none() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let _b = cluster.add_endpoint(1);
        assert!(recv(
            &a,
            ProcessId::new(0, 1),
            Tag(1),
            64,
            Duration::from_millis(50)
        )
        .is_none());
    }

    #[test]
    fn wildcard_receive_and_recv_into() {
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(64 * 1024),
        );
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let data = payload(4096);
        let wild = b
            .post_recv(ANY_SOURCE, ANY_TAG, 4096, TruncationPolicy::Error)
            .unwrap();
        send(&a, b.id(), Tag(77), data.clone());
        let done = wait(&b, OpId::Recv(wild), T).expect("wildcard completed");
        assert_eq!(done.peer, a.id());
        assert_eq!(done.tag, Tag(77));
        assert_eq!(done.data.unwrap(), data);

        let op = b
            .post_recv_into(
                a.id(),
                Tag(78),
                RecvBuf::with_capacity(4096),
                TruncationPolicy::Error,
            )
            .unwrap();
        send(&a, b.id(), Tag(78), data.clone());
        let done = wait(&b, OpId::Recv(op), T).expect("recv_into completed");
        assert_eq!(done.buf.unwrap().as_slice(), &data[..]);
    }

    #[test]
    fn cancelled_receive_reports_cancellation() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b = cluster.add_endpoint(1);
        let op = b
            .post_recv(a.id(), Tag(1), 64, TruncationPolicy::Error)
            .unwrap();
        assert!(b.cancel(op));
        let done = wait(&b, OpId::Recv(op), T).unwrap();
        assert_eq!(done.status, Status::Cancelled);
        assert!(!b.cancel(op), "stale handle must not cancel again");
    }

    #[test]
    fn send_to_a_rank_added_later_is_delivered_in_order() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let a = cluster.add_endpoint(0);
        let b_id = ProcessId::new(0, 1);
        // Both sends precede rank 1: an eager one, then one whose
        // remainder must be pulled once the rank exists.
        let small = payload(16);
        let large = payload(32 * 1024);
        let s1 = send(&a, b_id, Tag(3), small.clone());
        let s2 = send(&a, b_id, Tag(3), large.clone());
        let b = cluster.add_endpoint(1);
        assert_eq!(recv(&b, a.id(), Tag(3), 64 * 1024, T), Some(small));
        assert_eq!(recv(&b, a.id(), Tag(3), 64 * 1024, T), Some(large));
        assert!(wait(&a, OpId::Send(s1), T).is_some());
        assert!(wait(&a, OpId::Send(s2), T).is_some());
        assert!(
            a.stats().pull_requests_served > 0,
            "remainder was not pulled"
        );
        // Later traffic flows directly.
        send(&a, b_id, Tag(4), payload(64));
        assert_eq!(recv(&b, a.id(), Tag(4), 64, T), Some(payload(64)));
    }

    #[test]
    #[should_panic(expected = "added twice")]
    fn duplicate_endpoint_rejected() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let _a = cluster.add_endpoint(0);
        let _b = cluster.add_endpoint(0);
    }

    #[test]
    fn sharded_endpoint_serves_many_peers() {
        // One 4-shard server, 8 client threads: each client sends a
        // distinct payload and receives a distinct echo.  Peers spread
        // round-robin over the shards, so concurrent clients exercise
        // different shard locks (on multi-core hardware, concurrently).
        let cluster = HostCluster::new(
            0,
            ProtocolConfig::paper_intranode().with_pushed_buffer(512 * 1024),
        );
        let server = cluster.add_endpoint_sharded(0, 4);
        assert_eq!(server.shard_count(), 4);
        let server_id = server.id();
        let clients: Vec<_> = (1..9)
            .map(|r| {
                let client = cluster.add_endpoint(r);
                thread::spawn(move || {
                    let data = payload(512 + r as usize * 37);
                    send(&client, server_id, Tag(r), data.clone());
                    let echoed =
                        recv(&client, server_id, Tag(100 + r), 64 * 1024, T).expect("echo");
                    assert_eq!(echoed, data);
                })
            })
            .collect();
        for r in 1..9u32 {
            let got = recv(&server, ProcessId::new(0, r), Tag(r), 64 * 1024, T)
                .expect("server recv timed out");
            send(&server, ProcessId::new(0, r), Tag(100 + r), got);
        }
        for handle in clients {
            handle.join().unwrap();
        }
        let stats = server.stats();
        assert_eq!(stats.recvs_completed, 8);
        assert_eq!(stats.sends_completed, 8);
    }

    #[test]
    fn sharded_endpoint_rejects_wildcard_source() {
        let cluster = HostCluster::new(0, ProtocolConfig::paper_intranode());
        let sharded = cluster.add_endpoint_sharded(0, 2);
        let _peer = cluster.add_endpoint(1);
        let err = sharded
            .post_recv(ANY_SOURCE, ANY_TAG, 64, TruncationPolicy::Error)
            .unwrap_err();
        assert_eq!(err, ppmsg_core::Error::ShardedWildcard { shards: 2 });
        // A concrete source with ANY_TAG stays legal.
        assert!(sharded
            .post_recv(ProcessId::new(0, 1), ANY_TAG, 64, TruncationPolicy::Error)
            .is_ok());
    }
}
