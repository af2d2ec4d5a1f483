//! The inter-process UDP fabric: real `std::net::UdpSocket`s carrying
//! the existing [`WireFrame`] encoding between OS processes.
//!
//! This is the third backend of the stack (DESIGN.md §12): where
//! `LiveNet` moves refcounted frame segments between threads, `UdpNet`
//! moves *bytes* between processes, reusing two layers that already
//! exist — the zero-copy frame codec of `amoeba-core` and the
//! fragmentation/reassembly of `amoeba-flip` — against a real datagram
//! ceiling instead of a simulated one.
//!
//! **Endpoints.** Each registered FLIP address owns one UDP socket
//! bound to 127.0.0.1 (or a port pre-bound via
//! [`UdpNet::bind_endpoint`] so a harness can exchange ports before
//! the protocol starts talking) and exactly one OS thread, its
//! *receive pump*:
//!
//! - **Sends run on the calling thread.** A `UdpSender` owns its
//!   scratch buffer and peer-table cache and calls `send_to` itself,
//!   gather-encoding each fragment (envelope + head slice + tail
//!   slice) into the scratch. Fragment message ids come from one
//!   atomic counter per endpoint, shared by all its senders.
//! - **Receives run on the pump.** It turns datagrams back into
//!   `(source, WireFrame)` pairs and hands each one to the endpoint's
//!   inbox. The inbox is either the member's [`InPlaceSink`]
//!   ([`Transport::register_in_place`]), which decodes the frame and
//!   steps the protocol core right there, or a channel to the member's
//!   driver thread ([`Transport::register`]), the path wrappers that do
//!   not forward the in-place hook take.
//!
//! After [`Transport::unregister`] returns, the inbox is gone (no
//! frame reaches the member again) and every sender of the endpoint
//! blackholes, which is what `crash()` relies on.
//!
//! **Peer table.** The authoritative registry (peer socket addresses,
//! local endpoints, local multicast subscriptions) lives behind one
//! mutex, but neither senders nor pumps ever take it: every mutation
//! publishes an immutable snapshot and bumps an epoch, and each sender
//! and pump revalidates its cached `Arc` with a single atomic load —
//! the same discipline `LiveNet` established (DESIGN.md §7).
//!
//! **Multicast.** A real LAN would let the NIC filter multicast; over
//! unicast UDP we do the moral equivalent: a multicast send fans out
//! one copy per known peer (sender excluded, as on real hardware) with
//! the *group* address in the envelope, and the receiving pump drops
//! group traffic for groups its endpoint never joined. Remote group
//! membership is therefore not tracked at all — exactly like an
//! Ethernet, where the wire does not know who listens.
//!
//! **Copies.** The receive path performs exactly one userspace copy:
//! socket scratch → an exact-size refcounted buffer. Everything
//! downstream — envelope split, reassembly fast path, frame decode,
//! payload delivery — is a shared-ownership view of that buffer
//! (pinned by `decoded_body_shares_the_datagram_allocation` below).
//!
//! Delivery is best-effort by design: unknown peers, socket errors and
//! malformed datagrams drop silently, and the group protocol's
//! negative-acknowledgement machinery recovers, exactly as it does on
//! a lossy wire.

use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::{split_lens, FlipAddress, FragKey, Reassembler};
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use crate::transport::{Datagram, InPlaceSink, Transport, TransportSender};

/// Wire envelope prefixed to every datagram: magic (2) + version (1) +
/// src (8) + dst (8) + msg id (8) + fragment index (2) + count (2).
pub const ENVELOPE_LEN: usize = 31;

/// Largest payload a UDP datagram can carry (IPv4, minus IP/UDP
/// headers). [`UdpConfig::max_datagram`] must stay at or below this.
pub const MAX_UDP_DATAGRAM: usize = 65_507;

const MAGIC: u16 = 0xA0EB;
const VERSION: u8 = 1;

/// The group tag bit of a raw FLIP address (see `amoeba_flip`): set in
/// an envelope's `dst` when the datagram is group traffic.
const GROUP_TAG: u64 = 1 << 63;

/// Tuning for the UDP fabric.
#[derive(Debug, Clone, Copy)]
pub struct UdpConfig {
    /// Datagram size ceiling, envelope included. Frames larger than
    /// `max_datagram - ENVELOPE_LEN` fragment via `amoeba-flip`. The
    /// default stays under [`MAX_UDP_DATAGRAM`] with margin; tests
    /// shrink it to force multi-fragment paths on small payloads.
    pub max_datagram: usize,
    /// Partial reassemblies older than this are purged (loss of one
    /// fragment must not leak the rest forever).
    pub purge_after: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig { max_datagram: 60_000, purge_after: Duration::from_secs(5) }
    }
}

struct Envelope {
    src: u64,
    dst: u64,
    msg_id: u64,
    index: u16,
    count: u16,
}

fn encode_envelope(out: &mut Vec<u8>, env: &Envelope) {
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.extend_from_slice(&env.src.to_be_bytes());
    out.extend_from_slice(&env.dst.to_be_bytes());
    out.extend_from_slice(&env.msg_id.to_be_bytes());
    out.extend_from_slice(&env.index.to_be_bytes());
    out.extend_from_slice(&env.count.to_be_bytes());
}

/// Splits a received datagram into its envelope and body. The body is
/// a shared-ownership **view** of `datagram` (no copy). `None` on any
/// malformed input — wrong magic or version, truncation, impossible
/// fragment fields; a hostile or stray datagram must never panic the
/// pump.
fn split_envelope(datagram: &Bytes) -> Option<(Envelope, Bytes)> {
    if datagram.len() < ENVELOPE_LEN {
        return None;
    }
    let b = &datagram[..];
    if u16::from_be_bytes([b[0], b[1]]) != MAGIC || b[2] != VERSION {
        return None;
    }
    let u64_at = |i: usize| u64::from_be_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    let env = Envelope {
        src: u64_at(3),
        dst: u64_at(11),
        msg_id: u64_at(19),
        index: u16::from_be_bytes([b[27], b[28]]),
        count: u16::from_be_bytes([b[29], b[30]]),
    };
    if env.count == 0 || env.index >= env.count {
        return None;
    }
    Some((env, datagram.slice(ENVELOPE_LEN..)))
}

/// Appends `frame`'s bytes in `[off, off + len)` to `out`, gathering
/// across the head/tail segment boundary without materializing a
/// contiguous frame.
fn gather_range(out: &mut Vec<u8>, frame: &WireFrame, off: usize, len: usize) {
    let head_len = frame.head.len();
    let end = off + len;
    if off < head_len {
        out.extend_from_slice(&frame.head[off..end.min(head_len)]);
    }
    if end > head_len {
        let tail = frame.tail.as_ref().expect("range extends past head");
        out.extend_from_slice(&tail[off.saturating_sub(head_len)..end - head_len]);
    }
}
/// Immutable registry copy that pumps and senders read lock-free.
struct Snapshot {
    peers: HashMap<FlipAddress, SocketAddr>,
    /// *Local* multicast subscriptions only (see module docs).
    groups: HashMap<GroupId, HashSet<FlipAddress>>,
}

impl Snapshot {
    fn empty() -> Self {
        Snapshot { peers: HashMap::new(), groups: HashMap::new() }
    }
}

/// The published snapshot plus its epoch — shared by the fabric, every
/// pump and every sender (a separate `Arc` so they never keep the
/// fabric itself alive).
struct Published {
    epoch: AtomicU64,
    snap: Mutex<Arc<Snapshot>>,
}

/// An epoch-tagged snapshot handle: one atomic load per use, the mutex
/// touched only when membership actually changed.
struct Cache {
    epoch: u64,
    snap: Arc<Snapshot>,
}

impl Cache {
    fn new() -> Self {
        Cache { epoch: 0, snap: Arc::new(Snapshot::empty()) }
    }

    fn refresh(&mut self, published: &Published) {
        let now = published.epoch.load(Ordering::Acquire);
        if self.epoch != now {
            self.epoch = now;
            self.snap = Arc::clone(&published.snap.lock());
        }
    }
}

/// Where an endpoint's pump hands reassembled frames.
enum Inbox {
    /// To the member's driver thread ([`Transport::register`]).
    Queue(Sender<Datagram>),
    /// Into the member itself, on the pump
    /// ([`Transport::register_in_place`]).
    InPlace(InPlaceSink),
}

/// One registered endpoint, shared by its pump and all its senders.
struct Endpoint {
    sock: UdpSocket,
    /// `None` once unregistered. The pump holds the lock while it hands
    /// a frame over, so clearing it waits out a delivery in progress.
    inbox: Mutex<Option<Inbox>>,
    /// Set on unregister: senders blackhole, the pump exits. A bare
    /// flag that publishes no other data (the inbox has its own lock),
    /// hence relaxed loads and stores.
    closed: AtomicBool,
    /// Fragment message ids, one counter for all senders of the
    /// endpoint so receivers' reassembly keys never collide.
    next_msg_id: AtomicU64,
}

impl Endpoint {
    /// Stops the endpoint. Returns once no frame is being delivered and
    /// none ever will be again. Never call it with the registry locked
    /// (a delivery in progress may be sending, which reads the
    /// published snapshot).
    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        *self.inbox.lock() = None;
    }
}

/// Authoritative state, mutated under its mutex.
struct Registry {
    peers: HashMap<FlipAddress, SocketAddr>,
    groups: HashMap<GroupId, HashSet<FlipAddress>>,
    local: HashMap<FlipAddress, Arc<Endpoint>>,
    /// Sockets bound ahead of registration (port exchange).
    prebound: HashMap<FlipAddress, UdpSocket>,
}

/// The inter-process UDP datagram fabric. See the module docs.
pub struct UdpNet {
    cfg: UdpConfig,
    registry: Mutex<Registry>,
    published: Arc<Published>,
}

impl std::fmt::Debug for UdpNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.registry.lock();
        f.debug_struct("UdpNet")
            .field("peers", &reg.peers.len())
            .field("local", &reg.local.len())
            .field("max_datagram", &self.cfg.max_datagram)
            .finish()
    }
}

impl UdpNet {
    /// Creates a fabric with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `max_datagram` leaves no room for a fragment body or
    /// exceeds what UDP can carry.
    pub fn new(cfg: UdpConfig) -> Arc<Self> {
        assert!(
            cfg.max_datagram > ENVELOPE_LEN && cfg.max_datagram <= MAX_UDP_DATAGRAM,
            "max_datagram must be in ({ENVELOPE_LEN}, {MAX_UDP_DATAGRAM}]"
        );
        Arc::new(UdpNet {
            cfg,
            registry: Mutex::new(Registry {
                peers: HashMap::new(),
                groups: HashMap::new(),
                local: HashMap::new(),
                prebound: HashMap::new(),
            }),
            published: Arc::new(Published {
                epoch: AtomicU64::new(1),
                snap: Mutex::new(Arc::new(Snapshot::empty())),
            }),
        })
    }

    /// Rebuilds and publishes the snapshot from the (locked) registry.
    fn publish(&self, reg: &Registry) {
        let snap = Arc::new(Snapshot { peers: reg.peers.clone(), groups: reg.groups.clone() });
        *self.published.snap.lock() = snap;
        self.published.epoch.fetch_add(1, Ordering::Release);
    }

    /// Binds `addr`'s socket ahead of registration and returns the OS
    /// port, so a multi-process harness can exchange ports before any
    /// endpoint starts the protocol. A later [`Transport::register`]
    /// of the same address adopts this socket.
    ///
    /// # Errors
    ///
    /// The underlying bind error, if the OS refuses a loopback socket.
    pub fn bind_endpoint(&self, addr: FlipAddress) -> io::Result<SocketAddr> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        let local = sock.local_addr()?;
        self.registry.lock().prebound.insert(addr, sock);
        Ok(local)
    }

    /// Records where a *remote* peer (another OS process) listens.
    pub fn add_peer(&self, addr: FlipAddress, at: SocketAddr) {
        let mut reg = self.registry.lock();
        reg.peers.insert(addr, at);
        self.publish(&reg);
    }

    /// The socket address a registered or pre-bound local endpoint
    /// listens on (tests and harnesses read ports through this).
    pub fn local_addr(&self, addr: FlipAddress) -> Option<SocketAddr> {
        let reg = self.registry.lock();
        if let Some(sock) = reg.prebound.get(&addr) {
            return sock.local_addr().ok();
        }
        reg.peers.get(&addr).copied()
    }
}

impl UdpNet {
    /// Plugs `addr` in with the given inbox: adopts its pre-bound
    /// socket (or binds a fresh loopback port), spawns its receive
    /// pump, and announces the port to local senders. Re-registration
    /// replaces the endpoint (mirrors `LiveNet`).
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to bind or the pump cannot spawn —
    /// endpoint creation failing is a harness-level error, not a
    /// protocol outcome.
    fn plug(&self, addr: FlipAddress, inbox: Inbox) {
        let mut reg = self.registry.lock();
        let sock = reg.prebound.remove(&addr).unwrap_or_else(|| {
            UdpSocket::bind(("127.0.0.1", 0)).expect("bind UDP endpoint")
        });
        let local = sock.local_addr().expect("bound socket has an address");
        let ep = Arc::new(Endpoint {
            sock,
            inbox: Mutex::new(Some(inbox)),
            closed: AtomicBool::new(false),
            next_msg_id: AtomicU64::new(0),
        });
        let pump = Pump {
            ep: Arc::clone(&ep),
            me: addr,
            published: Arc::clone(&self.published),
            purge_after: self.cfg.purge_after,
        };
        std::thread::Builder::new()
            .name(format!("udp-p{}", addr.id()))
            .spawn(move || pump.run())
            .expect("spawn UDP receive pump");
        reg.peers.insert(addr, local);
        let old = reg.local.insert(addr, ep);
        self.publish(&reg);
        drop(reg);
        if let Some(old) = old {
            old.close();
        }
    }
}

impl Transport for UdpNet {
    fn register(&self, addr: FlipAddress) -> Receiver<Datagram> {
        let (tx, rx) = channel::unbounded();
        self.plug(addr, Inbox::Queue(tx));
        rx
    }

    fn unregister(&self, addr: FlipAddress) {
        let mut reg = self.registry.lock();
        let ep = reg.local.remove(&addr);
        reg.peers.remove(&addr);
        reg.prebound.remove(&addr);
        for members in reg.groups.values_mut() {
            members.remove(&addr);
        }
        self.publish(&reg);
        drop(reg);
        if let Some(ep) = ep {
            ep.close();
        }
    }

    fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
        let mut reg = self.registry.lock();
        reg.groups.entry(group).or_default().insert(addr);
        self.publish(&reg);
    }

    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
        match self.registry.lock().local.get(&from) {
            Some(ep) => Box::new(UdpSender {
                ep: Arc::clone(ep),
                from,
                published: Arc::clone(&self.published),
                cache: Cache::new(),
                scratch: Vec::new(),
                max_datagram: self.cfg.max_datagram,
            }),
            // An unregistered sender's traffic blackholes: best-effort,
            // like the fabric itself.
            None => Box::new(Blackhole),
        }
    }

    /// The pump decodes nothing itself: it hands each reassembled frame
    /// to `sink`, which runs the member's protocol step on the pump.
    fn register_in_place(&self, addr: FlipAddress, sink: InPlaceSink) -> bool {
        self.plug(addr, Inbox::InPlace(sink));
        true
    }
}

impl Drop for UdpNet {
    fn drop(&mut self) {
        // The flags stop the pumps within one read-timeout tick. The
        // inboxes are not locked here: this may run on a pump thread
        // in the middle of a delivery.
        for ep in self.registry.lock().local.values() {
            ep.closed.store(true, Ordering::Relaxed);
        }
    }
}

/// The per-endpoint sending port: writes from the calling thread,
/// fragmenting against the datagram ceiling and gather-encoding
/// envelope + frame slices into its own scratch per `send_to`.
struct UdpSender {
    ep: Arc<Endpoint>,
    from: FlipAddress,
    published: Arc<Published>,
    cache: Cache,
    scratch: Vec<u8>,
    max_datagram: usize,
}

impl UdpSender {
    /// Writes every fragment of `frame` to `to`, or to every peer but
    /// this endpoint when `to` is `None`. Socket errors drop silently
    /// (best-effort).
    fn emit(&mut self, dst: u64, frame: &WireFrame, to: Option<SocketAddr>) {
        let budget = (self.max_datagram - ENVELOPE_LEN) as u32;
        let lens = split_lens(frame.len() as u32, budget);
        if lens.len() > u16::MAX as usize {
            return; // cannot be expressed on the wire; drop
        }
        let count = lens.len() as u16;
        let msg_id = self.ep.next_msg_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut off = 0usize;
        for (index, len) in lens.into_iter().enumerate() {
            self.scratch.clear();
            let env = Envelope {
                src: self.from.as_u64(),
                dst,
                msg_id,
                index: index as u16,
                count,
            };
            encode_envelope(&mut self.scratch, &env);
            gather_range(&mut self.scratch, frame, off, len as usize);
            match to {
                Some(at) => {
                    let _ = self.ep.sock.send_to(&self.scratch, at);
                }
                None => {
                    for (peer, at) in &self.cache.snap.peers {
                        if *peer != self.from {
                            let _ = self.ep.sock.send_to(&self.scratch, at);
                        }
                    }
                }
            }
            off += len as usize;
        }
    }
}

impl TransportSender for UdpSender {
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
        if self.ep.closed.load(Ordering::Relaxed) {
            return;
        }
        self.cache.refresh(&self.published);
        let Some(&at) = self.cache.snap.peers.get(&to) else { return };
        self.emit(to.as_u64(), &frame, Some(at));
    }

    fn multicast(&mut self, group: GroupId, frame: WireFrame) {
        if self.ep.closed.load(Ordering::Relaxed) {
            return;
        }
        self.cache.refresh(&self.published);
        self.emit(GROUP_TAG | (group.0 & !GROUP_TAG), &frame, None);
    }
}

/// The sender of an endpoint that was never registered.
struct Blackhole;

impl TransportSender for Blackhole {
    fn unicast(&mut self, _to: FlipAddress, _frame: WireFrame) {}

    fn multicast(&mut self, _group: GroupId, _frame: WireFrame) {}
}

/// The receive pump, the endpoint's one thread: blocks on the socket
/// (with a timeout tick so unregistration is honored), validates
/// envelopes, filters group traffic by the endpoint's own
/// subscriptions, reassembles fragments, and hands `(source,
/// WireFrame)` pairs to the endpoint's inbox.
struct Pump {
    ep: Arc<Endpoint>,
    me: FlipAddress,
    published: Arc<Published>,
    purge_after: Duration,
}

impl Pump {
    fn run(self) {
        let sock = &self.ep.sock;
        let _ = sock.set_read_timeout(Some(Duration::from_millis(250)));
        let mut scratch = vec![0u8; MAX_UDP_DATAGRAM];
        let mut reasm: Reassembler<Bytes> = Reassembler::new();
        let mut cache = Cache::new();
        let started = Instant::now();
        let purge_ms = self.purge_after.as_millis().max(1) as u64;
        let mut purged_at = 0u64;
        while !self.ep.closed.load(Ordering::Relaxed) {
            let n = match sock.recv_from(&mut scratch) {
                Ok((n, _)) => n,
                // Timeout tick, or a transient error (loopback can
                // surface ICMP-style failures): never panic the pump.
                Err(_) => {
                    let now_ms = started.elapsed().as_millis() as u64;
                    if now_ms.saturating_sub(purged_at) >= purge_ms {
                        reasm.purge_older_than(now_ms.saturating_sub(purge_ms));
                        purged_at = now_ms;
                    }
                    continue;
                }
            };
            // The one userspace copy of the receive path: socket
            // scratch → exact-size refcounted buffer. The envelope
            // split, reassembly fast path and frame decode below are
            // all views of this allocation.
            let datagram = Bytes::from(scratch[..n].to_vec());
            let Some((env, body)) = split_envelope(&datagram) else { continue };
            let src = FlipAddress::from_u64(env.src);
            if !src.is_process() {
                continue;
            }
            let dst = FlipAddress::from_u64(env.dst);
            if dst.is_group() {
                // The "NIC multicast filter": drop traffic for groups
                // this endpoint never joined.
                cache.refresh(&self.published);
                let joined = cache
                    .snap
                    .groups
                    .get(&GroupId(dst.id()))
                    .is_some_and(|m| m.contains(&self.me));
                if !joined {
                    continue;
                }
            } else if dst != self.me {
                continue; // stray unicast for somebody else
            }
            let now_ms = started.elapsed().as_millis() as u64;
            let complete = if env.count == 1 {
                Some(body)
            } else {
                let key = FragKey { src, msg_id: env.msg_id };
                reasm.insert_payload(key, env.index, env.count, body, now_ms)
            };
            let Some(buf) = complete else { continue };
            let frame = WireFrame::from(buf);
            match self.ep.inbox.lock().as_mut() {
                Some(Inbox::InPlace(sink)) => sink(src, frame),
                Some(Inbox::Queue(tx)) => {
                    if tx.send((src, frame)).is_err() {
                        return; // driver gone; endpoint is dead
                    }
                }
                None => return, // unregistered
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::RecvTimeoutError;

    fn addr(n: u64) -> FlipAddress {
        FlipAddress::process(n)
    }

    fn frame(payload: Vec<u8>) -> WireFrame {
        WireFrame::from(Bytes::from(payload))
    }

    fn encode_datagram(env: &Envelope, body: &[u8]) -> Bytes {
        let mut out = Vec::new();
        encode_envelope(&mut out, env);
        out.extend_from_slice(body);
        Bytes::from(out)
    }

    fn recv(rx: &Receiver<Datagram>) -> Datagram {
        rx.recv_timeout(Duration::from_secs(5)).expect("delivered")
    }

    #[test]
    fn envelope_round_trips() {
        let env = Envelope { src: 3, dst: GROUP_TAG | 9, msg_id: 77, index: 2, count: 5 };
        let datagram = encode_datagram(&env, b"body");
        let (back, body) = split_envelope(&datagram).expect("valid");
        assert_eq!((back.src, back.dst, back.msg_id), (3, GROUP_TAG | 9, 77));
        assert_eq!((back.index, back.count), (2, 5));
        assert_eq!(&body[..], b"body");
    }

    #[test]
    fn malformed_envelopes_rejected() {
        let good = encode_datagram(
            &Envelope { src: 1, dst: 2, msg_id: 1, index: 0, count: 1 },
            b"x",
        );
        assert!(split_envelope(&good).is_some());
        // Truncated.
        assert!(split_envelope(&good.slice(..ENVELOPE_LEN - 1)).is_none());
        // Wrong magic / version.
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert!(split_envelope(&Bytes::from(bad)).is_none());
        let mut bad = good.to_vec();
        bad[2] = VERSION + 1;
        assert!(split_envelope(&Bytes::from(bad)).is_none());
        // Impossible fragment fields.
        for (index, count) in [(0u16, 0u16), (3, 3), (4, 3)] {
            let d = encode_datagram(
                &Envelope { src: 1, dst: 2, msg_id: 1, index, count },
                b"x",
            );
            assert!(split_envelope(&d).is_none(), "index {index} of {count}");
        }
        assert!(split_envelope(&Bytes::new()).is_none());
    }

    /// The zero-copy claim of the receive path, pinned: after the one
    /// scratch → buffer copy, the body is a refcounted view of the
    /// datagram buffer, and the single-fragment fast path hands that
    /// very allocation onward as the frame.
    #[test]
    fn decoded_body_shares_the_datagram_allocation() {
        let env = Envelope { src: 1, dst: 2, msg_id: 9, index: 0, count: 1 };
        let datagram = encode_datagram(&env, &vec![7u8; 4096]);
        let (_, body) = split_envelope(&datagram).expect("valid");
        assert!(body.shares_allocation(&datagram), "body must be a view, not a copy");
        let mut r: Reassembler<Bytes> = Reassembler::new();
        let key = FragKey { src: addr(1), msg_id: 9 };
        let assembled = r.insert_payload(key, 0, 1, body, 0).expect("fast path");
        assert!(assembled.shares_allocation(&datagram), "fast path must not copy");
    }

    #[test]
    fn gather_range_crosses_the_segment_boundary() {
        let f = WireFrame {
            head: Bytes::from_static(b"headxx"),
            tail: Some(Bytes::from_static(b"TAILBYTES")),
        };
        let mut out = Vec::new();
        gather_range(&mut out, &f, 0, f.len());
        assert_eq!(out, b"headxxTAILBYTES");
        out.clear();
        gather_range(&mut out, &f, 4, 5); // xx + TAI
        assert_eq!(out, b"xxTAI");
        out.clear();
        gather_range(&mut out, &f, 7, 4); // tail only
        assert_eq!(out, b"AILB");
    }

    #[test]
    fn unicast_reaches_endpoint() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        net.register(addr(2));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"hi".to_vec()));
        let (from, f) = recv(&rx);
        assert_eq!(from, addr(2));
        assert_eq!(&f.to_contiguous()[..], b"hi");
    }

    #[test]
    fn multicast_excludes_sender_and_respects_subscriptions() {
        let net = UdpNet::new(UdpConfig::default());
        let g = GroupId(9);
        let rx1 = net.register(addr(1));
        let rx2 = net.register(addr(2));
        let rx3 = net.register(addr(3));
        net.join_mcast(g, addr(1));
        net.join_mcast(g, addr(2));
        // addr(3) never joins: its pump must filter the group traffic.
        let mut tx = net.sender(addr(1));
        tx.multicast(g, frame(b"m".to_vec()));
        let (from, f) = recv(&rx2);
        assert_eq!(from, addr(1));
        assert_eq!(&f.to_contiguous()[..], b"m");
        assert!(rx1.recv_timeout(Duration::from_millis(100)).is_err(), "no loopback");
        assert!(rx3.recv_timeout(Duration::from_millis(100)).is_err(), "not subscribed");
    }

    #[test]
    fn large_frames_fragment_and_reassemble() {
        // A tiny ceiling forces many fragments out of a small payload.
        let net = UdpNet::new(UdpConfig {
            max_datagram: ENVELOPE_LEN + 16,
            ..UdpConfig::default()
        });
        let rx = net.register(addr(1));
        net.register(addr(2));
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(payload.clone()));
        let (_, f) = recv(&rx);
        assert_eq!(&f.to_contiguous()[..], &payload[..]);
    }

    #[test]
    fn unknown_destination_drops_silently() {
        let net = UdpNet::new(UdpConfig::default());
        net.register(addr(1));
        let mut tx = net.sender(addr(1));
        // Nothing to assert beyond "no panic": the send runs (and
        // drops) on this thread.
        tx.unicast(addr(99), frame(b"x".to_vec()));
    }

    #[test]
    fn unregistered_endpoint_blackholes() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        net.register(addr(2));
        net.unregister(addr(1));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"x".to_vec()));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn prebound_socket_is_adopted_by_register() {
        let net = UdpNet::new(UdpConfig::default());
        let before = net.bind_endpoint(addr(1)).expect("bind");
        let rx = net.register(addr(1));
        assert_eq!(net.local_addr(addr(1)), Some(before), "same socket, same port");
        net.register(addr(2));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"pb".to_vec()));
        let (_, f) = recv(&rx);
        assert_eq!(&f.to_contiguous()[..], b"pb");
    }

    #[test]
    fn add_peer_routes_to_a_foreign_socket() {
        // Simulate a remote process with a hand-bound socket.
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        foreign.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let at = foreign.local_addr().expect("addr");
        let net = UdpNet::new(UdpConfig::default());
        net.register(addr(1));
        net.add_peer(addr(2), at);
        let mut tx = net.sender(addr(1));
        tx.unicast(addr(2), frame(b"remote".to_vec()));
        let mut buf = [0u8; 256];
        let (n, _) = foreign.recv_from(&mut buf).expect("datagram arrives");
        let (env, body) = split_envelope(&Bytes::from(buf[..n].to_vec())).expect("valid");
        assert_eq!(env.src, addr(1).as_u64());
        assert_eq!(env.dst, addr(2).as_u64());
        assert_eq!(&body[..], b"remote");
    }

    /// An in-place sink that forwards what it is handed to a channel.
    fn in_place(net: &UdpNet, at: FlipAddress) -> Receiver<Datagram> {
        let (tx, rx) = channel::unbounded();
        let sink: InPlaceSink = Box::new(move |from, frame| {
            let _ = tx.send((from, frame));
        });
        assert!(net.register_in_place(at, sink), "UdpNet delivers in place");
        rx
    }

    #[test]
    fn kept_sender_blackholes_after_unregister() {
        let net = UdpNet::new(UdpConfig::default());
        let g = GroupId(4);
        let rx = net.register(addr(1));
        net.register(addr(2));
        net.join_mcast(g, addr(1));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"before".to_vec()));
        assert_eq!(&recv(&rx).1.to_contiguous()[..], b"before");
        // The "crashed" process's port outlives it; its traffic must not.
        net.unregister(addr(2));
        tx.unicast(addr(1), frame(b"after".to_vec()));
        tx.multicast(g, frame(b"after".to_vec()));
        assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
    }

    #[test]
    fn unregistered_endpoint_sink_sees_no_frame() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = in_place(&net, addr(1));
        let port = net.local_addr(addr(1)).expect("registered");
        // A foreign socket keeps writing to the port after unregister,
        // as a peer with a stale table would.
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let datagram = encode_datagram(
            &Envelope { src: addr(2).as_u64(), dst: addr(1).as_u64(), msg_id: 1, index: 0, count: 1 },
            b"x",
        );
        foreign.send_to(&datagram, port).expect("send");
        assert_eq!(recv(&rx).0, addr(2), "delivered in place while registered");
        net.unregister(addr(1));
        foreign.send_to(&datagram, port).expect("send");
        match rx.recv_timeout(Duration::from_millis(400)) {
            Err(RecvTimeoutError::Disconnected) => {} // sink dropped, never called
            other => panic!("frame reached an unregistered endpoint: {other:?}"),
        }
    }

    #[test]
    fn fragmented_frames_reassemble_with_per_endpoint_ids() {
        // 512-byte datagrams split each 1400-byte frame in three.
        let net = UdpNet::new(UdpConfig { max_datagram: 512, ..UdpConfig::default() });
        let rx = in_place(&net, addr(1));
        net.register(addr(2));
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        foreign.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        net.add_peer(addr(3), foreign.local_addr().expect("addr"));
        // Two senders of one endpoint draw from one id counter: their
        // fragments could share a reassembly key otherwise.
        let mut senders = [net.sender(addr(2)), net.sender(addr(2))];
        let payload = |s: u8| vec![s + 1; 1400];
        for (s, tx) in senders.iter_mut().enumerate() {
            tx.unicast(addr(3), frame(payload(s as u8)));
        }
        let mut ids = HashMap::<u64, usize>::new();
        let mut buf = [0u8; 512];
        for _ in 0..6 {
            let (n, _) = foreign.recv_from(&mut buf).expect("fragment arrives");
            let (env, _) = split_envelope(&Bytes::from(buf[..n].to_vec())).expect("valid");
            assert_eq!(env.count, 3);
            *ids.entry(env.msg_id).or_default() += 1;
        }
        assert_eq!(ids.len(), 2, "one message id per frame: {ids:?}");
        assert!(ids.values().all(|&n| n == 3));
        // And the in-place receive path reassembles them.
        for (s, tx) in senders.iter_mut().enumerate() {
            tx.unicast(addr(1), frame(payload(s as u8)));
            assert_eq!(&recv(&rx).1.to_contiguous()[..], &payload(s as u8)[..]);
        }
    }

    /// Names of this process's threads (`/proc/self/task/*/comm`).
    fn thread_names() -> Vec<String> {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .map(|name| name.trim_end().to_string())
            .collect()
    }

    /// Polls until exactly `want` threads carry `name` (a thread names
    /// itself just after it starts, and a pump exits within a tick).
    fn threads_named(name: &str, want: usize) -> usize {
        let end = Instant::now() + Duration::from_secs(2);
        loop {
            let n = thread_names().iter().filter(|t| *t == name).count();
            if n == want || Instant::now() >= end {
                return n;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn registered_endpoint_owns_exactly_one_thread() {
        let net = UdpNet::new(UdpConfig::default());
        let (queued, placed) = (addr(424_242), addr(424_243));
        let _rx = net.register(queued);
        let _in_place = in_place(&net, placed);
        let mut tx = net.sender(queued);
        tx.unicast(placed, frame(b"x".to_vec()));
        assert_eq!(threads_named("udp-p424242", 1), 1, "queued endpoint: its pump only");
        assert_eq!(threads_named("udp-p424243", 1), 1, "in-place endpoint: its pump only");
        net.unregister(queued);
        net.unregister(placed);
        assert_eq!(threads_named("udp-p424242", 0), 0, "pump exits after unregister");
        assert_eq!(threads_named("udp-p424243", 0), 0, "pump exits after unregister");
    }
}
