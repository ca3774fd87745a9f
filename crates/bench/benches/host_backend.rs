//! E10 — the real host backends (modern hardware, not a paper figure): wall
//! clock latency and bandwidth of the intranode shared-memory fabric and the
//! UDP socket reactor over loopback (one reactor per endpoint), driven
//! through the `Endpoint` front-end exactly as an application would.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ppmsg_host::{HostCluster, ProcessId, ProtocolConfig, Reactor, Tag};
use push_pull_messaging::prelude::{Endpoint, OpId, RawTransport};
use std::time::Duration;

fn pingpong<T: RawTransport>(
    a: &Endpoint<T>,
    b: &Endpoint<T>,
    data: &Bytes,
    size: usize,
    timeout: Duration,
) {
    // Post the send, then receive: a large message only completes its send
    // once the receiver's pull has been served, so a blocking send before
    // the matching receive would deadlock.
    let s1 = a.post_send(b.local_id(), Tag(1), data.clone()).unwrap();
    let got = b
        .recv_blocking(a.local_id(), Tag(1), size, timeout)
        .unwrap();
    let s2 = b.post_send(a.local_id(), Tag(2), got).unwrap();
    a.recv_blocking(b.local_id(), Tag(2), size, timeout)
        .unwrap();
    a.wait(OpId::Send(s1), timeout).unwrap();
    b.wait(OpId::Send(s2), timeout).unwrap();
}

fn bench(c: &mut Criterion) {
    let timeout = Duration::from_secs(10);

    // Intranode shared-memory fabric.
    let cluster = HostCluster::new(
        0,
        ProtocolConfig::paper_intranode().with_pushed_buffer(256 * 1024),
    );
    let a = Endpoint::new(cluster.add_endpoint(0));
    let b = Endpoint::new(cluster.add_endpoint(1));
    let mut group = c.benchmark_group("host_intranode");
    for size in [16usize, 4096, 65536] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("pingpong_{size}B"), |bench| {
            let data = Bytes::from(vec![7u8; size]);
            bench.iter(|| pingpong(&a, &b, &data, size, timeout));
        });
    }
    group.finish();

    // Internode UDP loopback, one reactor per endpoint.
    let (ra, rb) = (Reactor::new().unwrap(), Reactor::new().unwrap());
    let proto = ProtocolConfig::paper_internode().with_pushed_buffer(256 * 1024);
    let ua = ra
        .add_endpoint(ProcessId::new(0, 0), proto.clone(), "127.0.0.1:0")
        .unwrap();
    let ub = rb
        .add_endpoint(ProcessId::new(1, 0), proto, "127.0.0.1:0")
        .unwrap();
    ua.add_peer(ub.id(), ub.local_addr().unwrap());
    ub.add_peer(ua.id(), ua.local_addr().unwrap());
    let (ua, ub) = (Endpoint::new(ua), Endpoint::new(ub));
    let mut group = c.benchmark_group("host_reactor");
    group.sample_size(20);
    for size in [16usize, 4096] {
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(format!("pingpong_{size}B"), |bench| {
            let data = Bytes::from(vec![7u8; size]);
            bench.iter(|| pingpong(&ua, &ub, &data, size, timeout));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
