//! The datagram transport abstraction the live runtime drives.
//!
//! `amoeba-runtime` is transport-agnostic: it needs a way to plug an
//! endpoint in, a way to subscribe the endpoint to a group's multicast
//! address, and a per-endpoint sender for unicast and multicast
//! frames. This module names that contract so the in-memory fabric
//! (`amoeba_runtime::LiveNet`) and the real inter-process UDP fabric
//! ([`crate::UdpNet`]) are interchangeable behind one trait object
//! (DESIGN.md §12) — the OptSCORE-style "keep the transport swappable
//! behind the config surface" argument, applied to this stack.
//!
//! Inbound frames reach a member one of two ways:
//!
//! - **Queued** ([`Transport::register`], required). The transport
//!   pushes `(source, frame)` pairs into a channel and the member's
//!   driver thread steps the protocol core. Every transport supports
//!   it; wrappers that do not forward the hook below get it too.
//! - **In place** ([`Transport::register_in_place`], provided, off by
//!   default). A transport that owns a receive thread per endpoint
//!   calls the member's [`InPlaceSink`] on that thread, so the frame is
//!   decoded and handled without a hop to the driver. `UdpNet` opts
//!   in; `LiveNet` cannot (it has no receive thread, and running the
//!   sink on the *sender's* thread would re-enter cores).
//!
//! Both sides of the contract speak [`WireFrame`]: the zero-copy
//! (head, optional tail) segment pair produced by
//! `amoeba_core::FrameEncoder`. What a transport does with the segments
//! (share them by refcount in memory, gather-write them into a socket)
//! is its own business; the protocol core never sees the difference.

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use crossbeam::channel::Receiver;

/// A raw datagram as delivered to a node: (source address, frame).
pub type Datagram = (FlipAddress, WireFrame);

/// A member's inbound frame handler, run on the transport's receive
/// thread (see [`Transport::register_in_place`]). It must not block on
/// another endpoint's progress and must not call back into the
/// transport's registration methods.
pub type InPlaceSink = Box<dyn FnMut(FlipAddress, WireFrame) + Send>;

/// A shared datagram fabric endpoints plug into.
///
/// Implementations must be cheap to share (`Arc<dyn Transport>`) and
/// must never block a sender on another endpoint's progress: delivery
/// is best-effort, datagram-shaped, and may silently drop (the group
/// protocol's negative-acknowledgement machinery is the reliability
/// layer, not the transport).
pub trait Transport: Send + Sync {
    /// Plugs a process endpoint into the fabric; returns its inbound
    /// datagram stream. The receiver disconnects once the endpoint is
    /// unregistered (or the fabric is torn down) and its queue drains.
    fn register(&self, addr: FlipAddress) -> Receiver<Datagram>;

    /// Removes an endpoint (a departed or "crashed" process): its
    /// traffic blackholes from now on.
    fn unregister(&self, addr: FlipAddress);

    /// Subscribes a registered endpoint to a group's multicast address.
    fn join_mcast(&self, group: GroupId, addr: FlipAddress);

    /// A sending port for `from`. One sender per endpoint: senders may
    /// carry per-endpoint state (an epoch-cached membership snapshot, a
    /// scratch buffer) and are `Send` but not `Sync` — callers
    /// serialize sends per endpoint, which the runtime does by sending
    /// only under the member's core lock. A sender for an endpoint that
    /// is (or later becomes) unregistered blackholes its traffic.
    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender>;

    /// Plugs `addr` in like [`Transport::register`], but hands every
    /// inbound frame to `sink` on the transport's own receive thread
    /// instead of queueing it. Returns `false`, registering nothing,
    /// when the transport does not deliver in place (the default); the
    /// caller then falls back to [`Transport::register`].
    ///
    /// A transport that returns `true` must never run `sink` again once
    /// [`Transport::unregister`] for `addr` has returned, and must run
    /// it from one thread at a time.
    fn register_in_place(&self, _addr: FlipAddress, _sink: InPlaceSink) -> bool {
        false
    }
}

/// A per-endpoint sending port (see [`Transport::sender`]).
pub trait TransportSender: Send {
    /// Sends point-to-point. Best-effort: unknown destinations and
    /// socket errors drop silently.
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame);

    /// Sends to every member of `group` except the sender itself
    /// (multicast does not loop back, as on real hardware).
    fn multicast(&mut self, group: GroupId, frame: WireFrame);
}
