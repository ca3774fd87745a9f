//! The object-safe backend contract: [`RawTransport`].
//!
//! A transport backend — the intranode shared-memory fabric, the UDP socket
//! reactor, the deterministic sim-cluster loopback binding, or anything a
//! downstream user writes — implements exactly one small trait:
//! the **posting core** (post a send / receive, cancel) plus a single
//! completion-access primitive, [`RawTransport::with_completions`], which
//! runs a closure against the endpoint's [`CompletionQueue`] under whatever
//! lock the backend guards it with.
//!
//! Everything else is **shared code**: claiming, polling, waker interest,
//! batch draining, and borrowed peeking are provided methods derived from
//! `with_completions`, written once here; blocking waits, async futures and
//! the configuration front-end live in the facade crate's generic
//! `Endpoint<T: RawTransport>`.  Adding a backend means implementing the
//! nine required methods below — not re-deriving a 13-method surface.
//!
//! The trait is deliberately **object-safe**: every required and provided
//! method is non-generic, so `Box<dyn RawTransport>` is a first-class
//! backend and heterogeneous endpoints (one host, one loopback, one reactor)
//! can live behind a single type in a routing table.

use crate::engine::EndpointStats;
use crate::error::Result;
use crate::ops::{
    Claim, Completion, CompletionQueue, OpId, RecvBuf, RecvOp, SendOp, TruncationPolicy,
};
use crate::types::{ProcessId, Tag};
use bytes::Bytes;
use std::task::Waker;

/// The minimal, object-safe transport backend: post operations, cancel
/// them, and expose the completion queue.  See the [module docs](self) for
/// the design rationale and the facade crate's `Endpoint<T>` for the
/// convenience layer built on top.
///
/// # Contract
///
/// * Posting methods hand the operation to the engine and initiate whatever
///   transfer the protocol calls for before returning.
/// * [`RawTransport::with_completions`] calls its closure **exactly once**,
///   under the same lock (or single-threaded context) that completion
///   publication uses, so a check-then-register through it can never race a
///   concurrently published completion.
/// * Publication must wake any [`Waker`] registered in the queue **after**
///   releasing that lock (see [`crate::ops::wake_all`]).
pub trait RawTransport {
    /// The process id of this endpoint.
    fn local_id(&self) -> ProcessId;

    /// Posts a send of `data` to `peer` with tag `tag`, returning its
    /// operation handle.  The matching [`Completion`] reports when the
    /// message has been fully handed to the transport (for Push-Pull sends,
    /// when the receiver has pulled the remainder).
    fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp>;

    /// Posts a **vectored** send: `segments` arrive as one concatenated
    /// message, but are never coalesced on the wire — every packet's payload
    /// is a zero-copy slice of exactly one segment.  Empty segments are
    /// skipped.
    fn post_send_vectored(&self, peer: ProcessId, tag: Tag, segments: &[Bytes]) -> Result<SendOp>;

    /// Posts an engine-buffered receive of up to `capacity` bytes.  `src` /
    /// `tag` may be the [`ANY_SOURCE`](crate::types::ANY_SOURCE) /
    /// [`ANY_TAG`](crate::types::ANY_TAG) wildcards; the completion reports
    /// the concrete source and tag.
    fn post_recv(
        &self,
        src: ProcessId,
        tag: Tag,
        capacity: usize,
        policy: TruncationPolicy,
    ) -> Result<RecvOp>;

    /// Posts a receive that reassembles the message directly into the
    /// caller-owned `buf`, handed back in the completion (also on
    /// cancellation and failure).
    fn post_recv_into(
        &self,
        src: ProcessId,
        tag: Tag,
        buf: RecvBuf,
        policy: TruncationPolicy,
    ) -> Result<RecvOp>;

    /// Cancels a still-unmatched receive.  Returns `true` when the operation
    /// was cancelled (a [`Status::Cancelled`](crate::Status::Cancelled)
    /// completion is produced); `false` for stale handles and
    /// already-matched receives.
    fn cancel_recv(&self, op: RecvOp) -> bool;

    /// Cancels a posted send whose remainder has not been pulled yet,
    /// reclaiming the pinned payload.  Returns `true` when the operation was
    /// cancelled; `false` for stale handles, eagerly-completed sends, and
    /// sends whose pull has already been served.  See
    /// [`crate::Endpoint::cancel_send`] for the receiver-side caveat.
    fn cancel_send(&self, op: SendOp) -> bool;

    /// Runs `f` exactly once against this endpoint's [`CompletionQueue`],
    /// under the lock that guards completion publication.  This is the single
    /// primitive all completion access (claim, poll, drain, peek, waker
    /// interest) derives from — the provided methods below and the facade's
    /// blocking/async front-end are shared code over it.
    ///
    /// Implementations must not invoke wakers while the lock is held; `f`
    /// itself never wakes (it only operates on the queue).
    fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue));

    /// Protocol statistics of this endpoint, including the backend's
    /// completion-queue eviction counter
    /// ([`EndpointStats::completions_evicted`]).
    fn stats(&self) -> EndpointStats;

    // ------------------------------------------------------------------
    // Provided methods: completion access derived from `with_completions`,
    // written once for every backend (all non-generic, so `dyn` works).
    // ------------------------------------------------------------------

    /// Takes the completion of `op` if the operation has finished, without
    /// blocking or registering anything.
    fn take_completion(&self, op: OpId) -> Option<Completion> {
        let mut out = None;
        self.with_completions(&mut |queue| out = queue.take(op));
        out
    }

    /// Takes the completion of `op` if the operation has finished, or
    /// registers `waker` to be woken when it does — one atomic step with
    /// respect to completion publication.  This is the poll primitive behind
    /// the async front-end.
    fn poll_completion(&self, op: OpId, waker: &Waker) -> Option<Completion> {
        let mut out = None;
        self.with_completions(&mut |queue| out = queue.take_or_register(op, waker));
        out
    }

    /// Exempts `op`'s completion (present or future) from retention
    /// eviction until claimed; see [`CompletionQueue::register_interest`].
    fn register_interest(&self, op: OpId) {
        self.with_completions(&mut |queue| queue.register_interest(op));
    }

    /// Withdraws any waker or interest registered for `op` (an abandoned
    /// await or an expired blocking wait); see [`CompletionQueue::deregister`].
    fn deregister_interest(&self, op: OpId) {
        self.with_completions(&mut |queue| queue.deregister(op));
    }

    /// Drains every unclaimed completion into `out`, oldest first — except
    /// completions some waiter has registered for, which stay queued for
    /// that waiter.  Beyond the endpoint's retention cap, unawaited
    /// completions are evicted oldest-first
    /// (observable through [`EndpointStats::completions_evicted`]).
    fn drain_completions(&self, out: &mut Vec<Completion>) {
        self.with_completions(&mut |queue| queue.drain_into(out));
    }

    /// Shows every unclaimed, unawaited completion to `f` **by reference**,
    /// oldest first, without moving its `Bytes` or [`RecvBuf`] — the
    /// borrowed drain for telemetry and in-place triage.  `f` returns a
    /// [`Claim`] per completion: [`Claim::Keep`] preserves it for a later
    /// claim, [`Claim::Remove`] consumes and drops it.  See
    /// [`CompletionQueue::peek_each`].
    fn peek_completions(&self, f: &mut dyn FnMut(&Completion) -> Claim) {
        self.with_completions(&mut |queue| queue.peek_each(f));
    }
}

macro_rules! delegate_raw_transport {
    ($wrapper:ty) => {
        impl<T: RawTransport + ?Sized> RawTransport for $wrapper {
            fn local_id(&self) -> ProcessId {
                (**self).local_id()
            }
            fn post_send(&self, peer: ProcessId, tag: Tag, data: Bytes) -> Result<SendOp> {
                (**self).post_send(peer, tag, data)
            }
            fn post_send_vectored(
                &self,
                peer: ProcessId,
                tag: Tag,
                segments: &[Bytes],
            ) -> Result<SendOp> {
                (**self).post_send_vectored(peer, tag, segments)
            }
            fn post_recv(
                &self,
                src: ProcessId,
                tag: Tag,
                capacity: usize,
                policy: TruncationPolicy,
            ) -> Result<RecvOp> {
                (**self).post_recv(src, tag, capacity, policy)
            }
            fn post_recv_into(
                &self,
                src: ProcessId,
                tag: Tag,
                buf: RecvBuf,
                policy: TruncationPolicy,
            ) -> Result<RecvOp> {
                (**self).post_recv_into(src, tag, buf, policy)
            }
            fn cancel_recv(&self, op: RecvOp) -> bool {
                (**self).cancel_recv(op)
            }
            fn cancel_send(&self, op: SendOp) -> bool {
                (**self).cancel_send(op)
            }
            fn with_completions(&self, f: &mut dyn FnMut(&mut CompletionQueue)) {
                (**self).with_completions(f)
            }
            fn stats(&self) -> EndpointStats {
                (**self).stats()
            }
        }
    };
}

delegate_raw_transport!(&T);
delegate_raw_transport!(Box<T>);
delegate_raw_transport!(std::sync::Arc<T>);
