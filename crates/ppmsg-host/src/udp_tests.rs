//! UDP loopback scenarios in the thread-per-endpoint layout: each endpoint
//! gets a [`Reactor`](crate::Reactor) of its own, so every frame crosses
//! between two event-loop threads and two timer wheels, as it does between
//! processes on different nodes.  The reactor's own tests put both
//! endpoints on one reactor.

#[cfg(test)]
mod tests {
    use crate::{Reactor, ReactorEndpoint};
    use bytes::Bytes;
    use ppmsg_core::{
        Completion, EndpointConfig, OpId, ProcessId, ProtocolConfig, ProtocolMode, RawTransport,
        RecvBuf, ReliabilityMode, SendOp, Status, Tag, TruncationPolicy, ANY_SOURCE,
    };
    use std::time::{Duration, Instant};

    const T: Duration = Duration::from_secs(10);

    fn payload(len: usize) -> Bytes {
        Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// Claim-poll with a short sleep while the endpoint's reactor thread
    /// makes progress.
    fn wait(ep: &ReactorEndpoint, op: OpId, timeout: Duration) -> Option<Completion> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(completion) = ep.take_completion(op) {
                return Some(completion);
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    fn send(ep: &ReactorEndpoint, peer: ProcessId, tag: Tag, data: Bytes) -> SendOp {
        ep.post_send(peer, tag, data).expect("post_send failed")
    }

    fn recv(
        ep: &ReactorEndpoint,
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

    /// Two endpoints, each on a reactor of its own; the pair owns the
    /// reactors so they outlive the endpoints.
    struct Pair {
        a: ReactorEndpoint,
        b: ReactorEndpoint,
        _reactors: [Reactor; 2],
    }

    fn pair_with(protocol: ProtocolConfig, config: &EndpointConfig) -> Pair {
        let ra = Reactor::new().unwrap();
        let rb = Reactor::new().unwrap();
        let a = ra
            .add_endpoint_with(
                ProcessId::new(0, 0),
                protocol.clone(),
                "127.0.0.1:0",
                config,
            )
            .unwrap();
        let b = rb
            .add_endpoint_with(ProcessId::new(1, 0), protocol, "127.0.0.1:0", config)
            .unwrap();
        a.add_peer(b.id(), b.local_addr().unwrap());
        b.add_peer(a.id(), a.local_addr().unwrap());
        Pair {
            a,
            b,
            _reactors: [ra, rb],
        }
    }

    fn pair(protocol: ProtocolConfig) -> Pair {
        pair_with(protocol, &EndpointConfig::new())
    }

    #[test]
    fn loopback_transfer_all_modes() {
        for mode in [
            ProtocolMode::PushZero,
            ProtocolMode::PushPull,
            ProtocolMode::PushAll,
        ] {
            let protocol = ProtocolConfig::paper_internode()
                .with_mode(mode)
                .with_pushed_buffer(64 * 1024);
            let Pair { a, b, .. } = &pair(protocol);
            let data = payload(8192);
            let h = send(a, b.id(), Tag(3), data.clone());
            let got = recv(b, a.id(), Tag(3), 8192, T).expect("recv timed out");
            assert_eq!(got, data, "mode {mode:?}");
            assert!(wait(a, OpId::Send(h), T).is_some(), "mode {mode:?}");
        }
    }

    #[test]
    fn bidirectional_pingpong() {
        let Pair { a, b, .. } = &pair(ProtocolConfig::paper_internode());
        for i in 1..=10usize {
            let data = payload(i * 333);
            send(a, b.id(), Tag(1), data.clone());
            let got = recv(b, a.id(), Tag(1), 8192, T).unwrap();
            assert_eq!(got, data);
            send(b, a.id(), Tag(2), got);
            let back = recv(a, b.id(), Tag(2), 8192, T).unwrap();
            assert_eq!(back, data);
        }
        assert_eq!(a.stats().sends_completed, 10);
        assert_eq!(a.stats().recvs_completed, 10);
    }

    #[test]
    fn late_receiver_recovers_via_retransmission() {
        // Push-All with a tiny pushed buffer: the eager frames overflow and
        // are dropped; go-back-N retransmissions complete the transfer once
        // the receive is posted.
        let protocol = ProtocolConfig::paper_internode()
            .with_mode(ProtocolMode::PushAll)
            .with_pushed_buffer(4 * 1024);
        let config = EndpointConfig::new().reliability(ReliabilityMode::GoBackN);
        let Pair { a, b, .. } = &pair_with(protocol, &config);
        let data = payload(16 * 1024);
        send(a, b.id(), Tag(7), data.clone());
        std::thread::sleep(Duration::from_millis(120));
        let got = recv(b, a.id(), Tag(7), 16 * 1024, T).expect("recv timed out");
        assert_eq!(got, data);
        assert!(b.stats().frames_dropped > 0, "expected pushed-buffer drops");
    }

    #[test]
    fn recv_timeout_returns_none() {
        let Pair { a, b, .. } = &pair(ProtocolConfig::paper_internode());
        assert!(recv(a, b.id(), Tag(9), 64, Duration::from_millis(100)).is_none());
    }

    #[test]
    fn wildcard_recv_into_over_udp() {
        let Pair { a, b, .. } =
            &pair(ProtocolConfig::paper_internode().with_pushed_buffer(64 * 1024));
        let data = payload(8192);
        let op = b
            .post_recv_into(
                ANY_SOURCE,
                Tag(4),
                RecvBuf::with_capacity(8192),
                TruncationPolicy::Error,
            )
            .unwrap();
        send(a, b.id(), Tag(4), data.clone());
        let done = wait(b, OpId::Recv(op), T).expect("recv timed out");
        assert_eq!(done.status, Status::Ok);
        assert_eq!(done.peer, a.id());
        assert_eq!(done.buf.unwrap().as_slice(), &data[..]);
    }
}
