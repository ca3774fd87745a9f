//! The collectives subsystem: process groups and multi-party operations —
//! broadcast, barrier, reduce / all-reduce, gather / scatter, all-to-all —
//! implemented **once**, generically over the transport front-end's
//! [`Endpoint`](crate::transport::Endpoint)`<T:`[`RawTransport`]`>`, so the
//! intranode shared-memory fabric, the UDP socket reactor, and the
//! deterministic loopback cluster all get them from the same code.
//!
//! [`RawTransport`]: ppmsg_core::RawTransport
//!
//! # Groups, ranks, and the reserved tag space
//!
//! A [`Group`] is an ordered member set: a member's index is its **rank**,
//! and every collective is defined in rank order.  Each rank binds its own
//! endpoint with [`Group::bind`], obtaining the [`GroupMember`] handle that
//! collective operations are invoked on.  All members must invoke the same
//! collectives in the same order (the MPI rule); each invocation consumes
//! one slot of the member's collective sequence, from which the operation's
//! wire tag is derived inside the **reserved tag space**
//! ([`ppmsg_core::COLLECTIVE_TAG_BIT`]): user point-to-point traffic cannot
//! use those tags (the front-end rejects them), and wildcard (`ANY_TAG`)
//! receives never match them — collective traffic and application traffic
//! coexist on one endpoint without stealing each other's messages.  Groups
//! with different ids occupy disjoint tag slices and may run concurrently.
//!
//! # Algorithms
//!
//! Shapes follow the paper's cluster model — message count and latency
//! depth over `n` ranks, message sizes for payload `m`:
//!
//! | operation | algorithm | latency steps | notes |
//! |---|---|---|---|
//! | [`broadcast`](GroupMember::broadcast) | binomial tree, rooted at `root` by rotation | `ceil(log2 n)` | every hop zero-copy (refcount) |
//! | — large payloads | pipelined chunked tree | `ceil(log2 n) + m/chunk` overlapped | relays forward each chunk on arrival |
//! | [`barrier`](GroupMember::barrier) | dissemination | `ceil(log2 n)` | symmetric, zero-byte messages |
//! | [`reduce`](GroupMember::reduce) | binomial tree at rank 0 (+1 hop if `root != 0`) | `ceil(log2 n)` | rank-ordered: non-commutative ops fold left |
//! | [`all_reduce`](GroupMember::all_reduce) | reduce-to-0 + broadcast | `2 ceil(log2 n)` | |
//! | [`gather`](GroupMember::gather) | binomial tree at rank 0 (+1 hop if `root != 0`) | `ceil(log2 n)` | relays forward **vectored** segment lists |
//! | [`scatter`](GroupMember::scatter) | binomial tree at rank 0 (+1 hop if `root != 0`) | `ceil(log2 n)` | every block a zero-copy slice |
//! | [`all_to_all`](GroupMember::all_to_all) | pairwise rotation | `n - 1` overlapped | all receives pre-posted |
//!
//! Every operation is available as a future (driveable by
//! [`Driver`](crate::async_transport::Driver) — on the loopback cluster a
//! whole group runs deterministically on one thread) and as a `*_blocking`
//! call (one thread per rank on the host backends).
//!
//! ```
//! use push_pull_messaging::prelude::*;
//! use push_pull_messaging::coll::Group;
//! use bytes::Bytes;
//!
//! let cluster = LoopbackCluster::new(ProtocolConfig::paper_intranode());
//! let ids: Vec<ProcessId> = (0..4).map(|r| ProcessId::new(0, r)).collect();
//! let group = Group::new(0, ids.clone()).unwrap();
//!
//! let mut driver = Driver::new();
//! for &id in &ids {
//!     let member = group
//!         .bind(Endpoint::new(cluster.add_endpoint(id)))
//!         .unwrap();
//!     driver.spawn(async move {
//!         let mine = Bytes::from(vec![member.rank() as u8; 4]);
//!         // Rank-ordered concatenation-style reduce (associative, not
//!         // commutative): byte-wise (2a + b) would NOT be usable, but
//!         // element-wise max is — combine sees contiguous rank ranges.
//!         let max = member
//!             .all_reduce(mine, |a, b| if a[0] >= b[0] { a } else { b })
//!             .await
//!             .unwrap();
//!         assert_eq!(&max[..], &[3u8; 4][..]);
//!         member.barrier().await.unwrap();
//!     });
//! }
//! driver.run();
//! ```

mod all_to_all;
mod barrier;
mod broadcast;
mod gather;
mod group;
mod reduce;
mod tree;

pub use group::{Group, GroupMember, DEFAULT_CHUNK_SIZE};

/// Upper bound on a binomial-tree node's child count (one child per bit of
/// the rank space) — lets the small-fan-out collectives keep their pending
/// operation handles in a stack array instead of a heap `Vec`.
pub(crate) const MAX_CHILDREN: usize = usize::BITS as usize;
