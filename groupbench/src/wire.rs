//! The traced run's view from the wire: a decorator around the public
//! [`Transport`]/[`TransportSender`] traits that times and decodes
//! every frame the runtime hands to the fabric.
//!
//! The runtime is never modified: the decorator is plugged in through
//! `Amoeba::over_transport` (wrapping a `UdpNet`, or the in-memory
//! fabric taken from `Amoeba::transport`). Each frame is timed around
//! the inner send call, decoded with the public codec, classified and
//! appended to an in-memory log; nothing is written until the run ends.
//! Frames carry the `(origin, sender_seq)` of the requests they send
//! and the stamps they announce, which is what lets [`Analysis`]
//! rebuild a per-operation critical path — a modern Table 3 —
//! from outside the program.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use amoeba::core::{
    decode_wire_frame, BatchItem, Body, FrameEncoder, GroupId, SequencedKind, WireFrame, WireMsg,
};
use amoeba::flip::FlipAddress;
use amoeba::net::{Datagram, Transport, TransportSender, ENVELOPE_LEN};
use crossbeam::channel::Receiver;

/// Frames kept (every [`SAMPLE_STRIDE`]-th one) for the codec timing.
const SAMPLE_CAP: usize = 1024;
const SAMPLE_STRIDE: u64 = 8;
/// Frame records kept for spans; counters keep counting past it.
const RECORD_CAP: usize = 2_000_000;
/// No operation in flight (see [`Tracer::set_op`]).
const NO_OP: u64 = u64::MAX;

/// What one frame says, as far as the per-layer metrics care.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observed {
    /// The body's tag (`bcast_req`, `bcast_batch`, …).
    pub kind: &'static str,
    /// Messages the frame carries: batch items for batch frames,
    /// 1 otherwise.
    pub items: usize,
    /// `sender_seq`s of the requests this frame sends (the origin is
    /// the header's sender).
    pub requests: Vec<u64>,
    /// `(origin, sender_seq)` of every message this frame stamps into
    /// the total order (sequencer `BcastData`, `Accept`, `BcastBatch`).
    pub stamps: Vec<(u32, u64)>,
    /// Requests in this frame whose `(origin, sender_seq)` was already
    /// sent once: the sender re-sent after a timeout.
    pub retries: usize,
}

/// Classifies decoded frames and detects re-sent requests.
#[derive(Debug, Default)]
pub struct Classifier {
    /// Frames seen per body tag.
    pub by_kind: BTreeMap<&'static str, u64>,
    sent: HashSet<(u32, u64)>,
    /// Re-sent requests so far.
    pub retries: u64,
    /// Sequencer frames that stamp messages, and the messages stamped.
    pub stamp_frames: u64,
    /// See `stamp_frames`.
    pub stamped: u64,
}

impl Classifier {
    /// Classifies one frame and updates the counters.
    pub fn observe(&mut self, msg: &WireMsg) -> Observed {
        let origin = msg.hdr.sender.0;
        let (items, requests, stamps) = match &msg.body {
            Body::BcastReq { sender_seq, .. } | Body::BcastOrig { sender_seq, .. } => {
                (1, vec![*sender_seq], Vec::new())
            }
            Body::BcastReqBatch { reqs } => (
                reqs.len(),
                reqs.iter().map(|r| r.sender_seq).collect(),
                Vec::new(),
            ),
            Body::BcastData { entry } => match &entry.kind {
                SequencedKind::App {
                    origin, sender_seq, ..
                } => (1, Vec::new(), vec![(origin.0, *sender_seq)]),
                _ => (1, Vec::new(), Vec::new()),
            },
            Body::Accept {
                origin, sender_seq, ..
            } => (1, Vec::new(), vec![(origin.0, *sender_seq)]),
            Body::BcastBatch { items } => {
                let stamps = items
                    .iter()
                    .filter_map(|item| match item {
                        BatchItem::Entry(e) => match &e.kind {
                            SequencedKind::App {
                                origin, sender_seq, ..
                            } => Some((origin.0, *sender_seq)),
                            _ => None,
                        },
                        BatchItem::Accept {
                            origin, sender_seq, ..
                        } => Some((origin.0, *sender_seq)),
                    })
                    .collect();
                (items.len(), Vec::new(), stamps)
            }
            _ => (1, Vec::new(), Vec::new()),
        };
        let retries = requests
            .iter()
            .filter(|&&s| !self.sent.insert((origin, s)))
            .count();
        let kind = msg.body.tag();
        *self.by_kind.entry(kind).or_default() += 1;
        self.retries += retries as u64;
        if matches!(
            msg.body,
            Body::BcastData { .. } | Body::Accept { .. } | Body::BcastBatch { .. }
        ) {
            self.stamp_frames += 1;
            self.stamped += items as u64;
        }
        Observed {
            kind,
            items,
            requests,
            stamps,
            retries,
        }
    }

    /// Frames of one kind seen so far.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }
}

/// One frame handed to the fabric.
#[derive(Debug, Clone)]
struct FrameRec {
    t0: u64,
    t1: u64,
    kind: &'static str,
    /// The operation attributed by `(origin, sender_seq)`, if the frame
    /// carries one; else the operation in flight when it was sent.
    key: Option<(u32, u64)>,
    op: u64,
}

#[derive(Default)]
struct State {
    classifier: Classifier,
    frames: Vec<FrameRec>,
    sample: Vec<WireFrame>,
    seen: u64,
    frame_bytes: u64,
    datagrams: u64,
    wire_bytes: u64,
    fragmented: u64,
    send_call_ns: u64,
    undecodable: u64,
    first_request: HashMap<(u32, u64), u64>,
    first_stamp: HashMap<(u32, u64), u64>,
}

/// The traced run's in-memory log, shared by every decorated sender.
pub struct Tracer {
    epoch: Instant,
    fabric: Fabric,
    current_op: AtomicU64,
    state: Mutex<State>,
}

impl Tracer {
    /// A tracer for `fabric` whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, fabric: Fabric) -> Arc<Self> {
        Arc::new(Tracer {
            epoch,
            fabric,
            current_op: AtomicU64::new(NO_OP),
            state: Mutex::new(State::default()),
        })
    }

    /// Wraps `inner` so every frame sent through it is traced.
    pub fn wrap(self: &Arc<Self>, inner: Arc<dyn Transport>) -> Arc<dyn Transport> {
        Arc::new(TracingTransport {
            inner,
            tracer: Arc::clone(self),
        })
    }

    /// Names the operation now in flight (frames carrying no request or
    /// stamp are attributed to it).
    pub fn set_op(&self, op: u64) {
        self.current_op.store(op, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn record(&self, t0: u64, t1: u64, multicast: bool, frame: WireFrame) {
        let op = self.current_op.load(Ordering::Relaxed);
        let len = frame.len();
        let copies = if multicast {
            self.fabric.members.saturating_sub(1) as u64
        } else {
            1
        };
        let (frags, envelope) = match self.fabric.max_datagram {
            Some(max) => (
                len.div_ceil(max - ENVELOPE_LEN).max(1) as u64,
                ENVELOPE_LEN as u64,
            ),
            None => (1, 0),
        };
        let decoded = decode_wire_frame(frame.clone());
        let mut s = self
            .state
            .lock()
            .expect("tracer lock poisoned by a panicking sender");
        s.seen += 1;
        s.frame_bytes += len as u64;
        s.datagrams += copies * frags;
        s.wire_bytes += copies * (len as u64 + frags * envelope);
        s.fragmented += u64::from(frags > 1);
        s.send_call_ns += t1 - t0;
        if s.seen.is_multiple_of(SAMPLE_STRIDE) && s.sample.len() < SAMPLE_CAP {
            s.sample.push(frame);
        }
        let Ok(msg) = decoded else {
            s.undecodable += 1;
            return;
        };
        let seen = s.classifier.observe(&msg);
        let origin = msg.hdr.sender.0;
        let mut key = None;
        for &seq in &seen.requests {
            s.first_request.entry((origin, seq)).or_insert(t0);
            key.get_or_insert((origin, seq));
        }
        for &k in &seen.stamps {
            s.first_stamp.entry(k).or_insert(t0);
            key.get_or_insert(k);
        }
        if s.frames.len() < RECORD_CAP {
            s.frames.push(FrameRec {
                t0,
                t1,
                kind: seen.kind,
                key,
                op,
            });
        }
    }
}

struct TracingTransport {
    inner: Arc<dyn Transport>,
    tracer: Arc<Tracer>,
}

impl Transport for TracingTransport {
    fn register(&self, addr: FlipAddress) -> Receiver<Datagram> {
        self.inner.register(addr)
    }

    fn unregister(&self, addr: FlipAddress) {
        self.inner.unregister(addr);
    }

    fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
        self.inner.join_mcast(group, addr);
    }

    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
        Box::new(TracingSender {
            inner: self.inner.sender(from),
            tracer: Arc::clone(&self.tracer),
        })
    }
}

struct TracingSender {
    inner: Box<dyn TransportSender>,
    tracer: Arc<Tracer>,
}

impl TransportSender for TracingSender {
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
        let copy = frame.clone();
        let t0 = self.tracer.now_ns();
        self.inner.unicast(to, frame);
        let t1 = self.tracer.now_ns();
        self.tracer.record(t0, t1, false, copy);
    }

    fn multicast(&mut self, group: GroupId, frame: WireFrame) {
        let copy = frame.clone();
        let t0 = self.tracer.now_ns();
        self.inner.multicast(group, frame);
        let t1 = self.tracer.now_ns();
        self.tracer.record(t0, t1, true, copy);
    }
}

/// One operation of a traced phase, in tracer-epoch nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct OpTimes {
    /// When the client issued it.
    pub issued: u64,
    /// When it completed (the send call returned, or the slowest
    /// member delivered it); `None` if it failed.
    pub done: Option<u64>,
}

/// How the fabric puts a frame on the wire.
#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    /// Group size: a multicast reaches `members - 1` peers.
    pub members: usize,
    /// Largest datagram including the envelope, for UDP; `None` for
    /// the in-memory fabric, which moves whole frames.
    pub max_datagram: Option<usize>,
}

/// Per-layer figures of one traced phase.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Named per-layer metrics (`runtime.*`, `core.*`, `codec.*`,
    /// `net.*`, `flip.*`).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations whose request was matched to their issue.
    pub matched_ops: usize,
    /// Frames the public codec could not decode (a codec defect).
    pub undecodable: u64,
}

/// Median of nanosecond gaps, in µs (0 when there are none).
fn median_us(gaps_ns: Vec<u64>) -> f64 {
    if gaps_ns.is_empty() {
        return 0.0;
    }
    crate::stats::Dist::from_values(gaps_ns.into_iter().map(|g| g as f64 / 1_000.0).collect())
        .median()
}

impl Tracer {
    /// Derives the per-layer metrics for `ops` issued by member
    /// `issuer`, and writes every span to `spans` as JSON lines.
    ///
    /// Operation `i` is the issuer's `i`-th send; the member numbers
    /// its sends with consecutive `sender_seq`s, so the lowest one the
    /// wire shows belongs to operation 0.
    pub fn analyse(
        &self,
        issuer: u32,
        ops: &[OpTimes],
        spans: &mut dyn Write,
    ) -> std::io::Result<Analysis> {
        let s = self
            .state
            .lock()
            .expect("tracer lock poisoned by a panicking sender");
        let base = s
            .first_request
            .keys()
            .filter(|k| k.0 == issuer)
            .map(|k| k.1)
            .min()
            .unwrap_or(1);
        let op_of = |(origin, seq): (u32, u64)| (origin == issuer).then(|| seq.wrapping_sub(base));
        let (mut submit, mut ordered, mut returned) = (Vec::new(), Vec::new(), Vec::new());
        let mut matched = 0;
        for (i, op) in ops.iter().enumerate() {
            let key = (issuer, base + i as u64);
            let req = s.first_request.get(&key).copied();
            let stamp = s.first_stamp.get(&key).copied();
            let mut span = |name: &str, a: u64, b: u64| {
                writeln!(
                    spans,
                    "{{\"name\":\"{name}\",\"start_ns\":{a},\"end_ns\":{b},\"op\":{i}}}"
                )
            };
            if let Some(done) = op.done {
                span("op", op.issued, done)?;
            }
            if let Some(req) = req {
                matched += 1;
                submit.push(req.saturating_sub(op.issued));
                span("runtime.submit_to_req", op.issued, req)?;
                if let Some(stamp) = stamp {
                    ordered.push(stamp.saturating_sub(req));
                    span("core.req_to_bcast", req, stamp)?;
                    if let Some(done) = op.done {
                        returned.push(done.saturating_sub(stamp));
                        span("runtime.bcast_to_return", stamp, done)?;
                    }
                }
            }
        }
        for f in &s.frames {
            let op = f.key.and_then(op_of).or((f.op != NO_OP).then_some(f.op));
            let op = op.map_or("null".to_string(), |o| o.to_string());
            writeln!(
                spans,
                "{{\"name\":\"wire.{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{op}}}",
                f.kind, f.t0, f.t1
            )?;
        }

        let completed = ops.iter().filter(|o| o.done.is_some()).count().max(1) as f64;
        let slow = ops
            .iter()
            .filter(|o| o.done.is_some_and(|d| d - o.issued > 10_000_000))
            .count();
        let c = &s.classifier;
        let (decode_ns, encode_ns) = codec_timing(&s.sample);

        let mut m = BTreeMap::new();
        m.insert("runtime.submit_to_req_us", median_us(submit));
        m.insert("runtime.bcast_to_return_us", median_us(returned));
        m.insert("runtime.slow_sends", slow as f64 * 1000.0 / completed);
        m.insert("core.req_to_bcast_us", median_us(ordered));
        m.insert("core.frames_per_op", s.seen as f64 / completed);
        m.insert("core.send_retries", c.retries as f64);
        m.insert("core.retrans_reqs", c.count("retrans_req") as f64);
        m.insert("core.sync_rounds", c.count("sync_req") as f64);
        m.insert(
            "core.batch_items_per_frame",
            if c.stamp_frames > 0 {
                c.stamped as f64 / c.stamp_frames as f64
            } else {
                0.0
            },
        );
        m.insert("codec.decode_ns", decode_ns);
        m.insert("codec.encode_ns", encode_ns);
        m.insert("codec.bytes_per_op", s.frame_bytes as f64 / completed);
        m.insert("net.datagrams_per_op", s.datagrams as f64 / completed);
        m.insert("net.bytes_per_op", s.wire_bytes as f64 / completed);
        m.insert(
            "net.send_call_ns",
            s.send_call_ns as f64 / s.seen.max(1) as f64,
        );
        m.insert("flip.fragmented_frames", s.fragmented as f64);
        Ok(Analysis {
            metrics: m,
            matched_ops: matched,
            undecodable: s.undecodable,
        })
    }
}

/// Mean nanoseconds to decode, and to re-encode, one frame of the
/// sample (clones of real frames, so the codec sees the real mix).
fn codec_timing(sample: &[WireFrame]) -> (f64, f64) {
    let msgs: Vec<WireMsg> = sample
        .iter()
        .filter_map(|f| decode_wire_frame(f.clone()).ok())
        .collect();
    if msgs.is_empty() {
        return (0.0, 0.0);
    }
    let rounds = (200_000 / sample.len()).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        for f in sample {
            std::hint::black_box(decode_wire_frame(std::hint::black_box(f.clone())).ok());
        }
    }
    let decode = t.elapsed().as_nanos() as f64 / (rounds * sample.len()) as f64;
    let mut enc = FrameEncoder::new();
    let rounds = (200_000 / msgs.len()).max(1);
    let t = Instant::now();
    for _ in 0..rounds {
        for m in &msgs {
            std::hint::black_box(enc.encode_frame(std::hint::black_box(m)));
        }
    }
    let encode = t.elapsed().as_nanos() as f64 / (rounds * msgs.len()) as f64;
    (decode, encode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba::core::{
        encode_wire_msg, BatchReq, Hdr, MemberId, MemberMeta, Seqno, Sequenced, ViewId,
    };
    use bytes::Bytes;

    fn msg(sender: u32, body: Body) -> WireMsg {
        let hdr = Hdr {
            group: GroupId(1),
            view: ViewId(1, 0),
            sender: MemberId(sender),
            last_delivered: Seqno(0),
            gc_floor: Seqno(0),
        };
        WireMsg { hdr, body }
    }

    fn app(seqno: u64, origin: u32, sender_seq: u64) -> Sequenced {
        let payload = Bytes::from_static(b"p");
        Sequenced {
            seqno: Seqno(seqno),
            kind: SequencedKind::App {
                origin: MemberId(origin),
                sender_seq,
                payload,
            },
        }
    }

    fn meta(id: u32) -> MemberMeta {
        MemberMeta {
            id: MemberId(id),
            addr: FlipAddress::process(u64::from(id) + 1),
        }
    }

    /// One hand-built frame of every body kind, with the tag, item
    /// count, requests and stamps the classifier must report.
    #[allow(clippy::type_complexity)]
    fn every_kind() -> Vec<(WireMsg, &'static str, usize, Vec<u64>, Vec<(u32, u64)>)> {
        let p = Bytes::from_static(b"payload");
        let join = Sequenced {
            seqno: Seqno(9),
            kind: SequencedKind::Join { member: meta(3) },
        };
        vec![
            (
                msg(
                    1,
                    Body::BcastReq {
                        sender_seq: 4,
                        payload: p.clone(),
                    },
                ),
                "bcast_req",
                1,
                vec![4],
                vec![],
            ),
            (
                msg(
                    0,
                    Body::BcastData {
                        entry: app(7, 1, 4),
                    },
                ),
                "bcast_data",
                1,
                vec![],
                vec![(1, 4)],
            ),
            (
                msg(0, Body::BcastData { entry: join }),
                "bcast_data",
                1,
                vec![],
                vec![],
            ),
            (
                msg(
                    2,
                    Body::BcastOrig {
                        sender_seq: 5,
                        payload: p.clone(),
                    },
                ),
                "bcast_orig",
                1,
                vec![5],
                vec![],
            ),
            (
                msg(
                    0,
                    Body::BcastBatch {
                        items: vec![
                            BatchItem::Entry(app(10, 1, 6)),
                            BatchItem::Accept {
                                seqno: Seqno(11),
                                origin: MemberId(2),
                                sender_seq: 6,
                            },
                            BatchItem::Entry(Sequenced {
                                seqno: Seqno(12),
                                kind: SequencedKind::Leave {
                                    member: MemberId(3),
                                    forced: false,
                                },
                            }),
                        ],
                    },
                ),
                "bcast_batch",
                3,
                vec![],
                vec![(1, 6), (2, 6)],
            ),
            (
                msg(
                    1,
                    Body::BcastReqBatch {
                        reqs: vec![
                            BatchReq {
                                sender_seq: 8,
                                payload: p.clone(),
                            },
                            BatchReq {
                                sender_seq: 9,
                                payload: p.clone(),
                            },
                        ],
                    },
                ),
                "bcast_req_batch",
                2,
                vec![8, 9],
                vec![],
            ),
            (
                msg(
                    0,
                    Body::Accept {
                        seqno: Seqno(13),
                        origin: MemberId(2),
                        sender_seq: 7,
                    },
                ),
                "accept",
                1,
                vec![],
                vec![(2, 7)],
            ),
            (
                msg(
                    0,
                    Body::Tentative {
                        entry: app(14, 1, 10),
                        resilience: 1,
                    },
                ),
                "tentative",
                1,
                vec![],
                vec![],
            ),
            (
                msg(2, Body::TentAck { seqno: Seqno(14) }),
                "tent_ack",
                1,
                vec![],
                vec![],
            ),
            (
                msg(
                    2,
                    Body::RetransReq {
                        from: Seqno(3),
                        to: Seqno(5),
                    },
                ),
                "retrans_req",
                1,
                vec![],
                vec![],
            ),
            (
                msg(0, Body::SyncReq { horizon: Seqno(14) }),
                "sync_req",
                1,
                vec![],
                vec![],
            ),
            (msg(2, Body::Status), "status", 1, vec![], vec![]),
            (
                msg(
                    u32::MAX,
                    Body::JoinReq {
                        addr: FlipAddress::process(9),
                        nonce: 1,
                    },
                ),
                "join_req",
                1,
                vec![],
                vec![],
            ),
            (
                msg(
                    0,
                    Body::JoinAck {
                        member: MemberId(3),
                        view: ViewId(1, 0),
                        join_seqno: Seqno(2),
                        members: vec![meta(0), meta(3)],
                        resilience: 0,
                        nonce: 1,
                    },
                ),
                "join_ack",
                1,
                vec![],
                vec![],
            ),
            (
                msg(2, Body::LeaveReq { nonce: 3 }),
                "leave_req",
                1,
                vec![],
                vec![],
            ),
            (msg(0, Body::LeaveAck), "leave_ack", 1, vec![], vec![]),
            (msg(2, Body::ViewQuery), "view_query", 1, vec![], vec![]),
            (
                msg(
                    1,
                    Body::Invite {
                        attempt: 1,
                        coord: MemberId(1),
                    },
                ),
                "invite",
                1,
                vec![],
                vec![],
            ),
            (
                msg(
                    2,
                    Body::InviteAck {
                        attempt: 1,
                        highest: Seqno(14),
                        addr: FlipAddress::process(3),
                    },
                ),
                "invite_ack",
                1,
                vec![],
                vec![],
            ),
            (
                msg(
                    1,
                    Body::NewView {
                        attempt: 1,
                        view: ViewId(2, 1),
                        members: vec![meta(1), meta(2)],
                        sequencer: MemberId(1),
                        next_seqno: Seqno(15),
                    },
                ),
                "new_view",
                1,
                vec![],
                vec![],
            ),
            (msg(1, Body::Ping { nonce: 5 }), "ping", 1, vec![], vec![]),
            (msg(2, Body::Pong { nonce: 5 }), "pong", 1, vec![], vec![]),
        ]
    }

    #[test]
    fn classifies_every_body_kind() {
        let mut c = Classifier::default();
        let cases = every_kind();
        for (m, kind, items, requests, stamps) in &cases {
            let seen = c.observe(m);
            assert_eq!(seen.kind, *kind);
            assert_eq!(seen.items, *items, "{kind}");
            assert_eq!(&seen.requests, requests, "{kind}");
            assert_eq!(&seen.stamps, stamps, "{kind}");
            assert_eq!(seen.retries, 0, "{kind}");
        }
        // Every distinct tag above is a distinct body kind.
        assert_eq!(c.by_kind.len(), cases.len() - 1);
        assert_eq!(c.count("bcast_data"), 2);
        // Stamping frames: 2 BcastData + 1 BcastBatch (3 items) + 1 Accept.
        assert_eq!((c.stamp_frames, c.stamped), (4, 6));
    }

    #[test]
    fn classifies_frames_decoded_from_the_wire() {
        let mut c = Classifier::default();
        for (m, kind, items, ..) in every_kind() {
            let back = decode_wire_frame(WireFrame::from(encode_wire_msg(&m))).expect("round trip");
            let seen = c.observe(&back);
            assert_eq!((seen.kind, seen.items), (kind, items));
        }
    }

    #[test]
    fn detects_requests_sent_again() {
        let mut c = Classifier::default();
        let p = Bytes::from_static(b"x");
        let req = |sender, seq| {
            msg(
                sender,
                Body::BcastReq {
                    sender_seq: seq,
                    payload: p.clone(),
                },
            )
        };
        assert_eq!(c.observe(&req(1, 1)).retries, 0);
        assert_eq!(c.observe(&req(1, 2)).retries, 0);
        // Another member's sender_seq 1 is a different request.
        assert_eq!(c.observe(&req(2, 1)).retries, 0);
        assert_eq!(c.observe(&req(1, 1)).retries, 1);
        // A BB origin multicast and a batch count the same way.
        let orig = msg(
            1,
            Body::BcastOrig {
                sender_seq: 2,
                payload: p.clone(),
            },
        );
        assert_eq!(c.observe(&orig).retries, 1);
        let batch = msg(
            1,
            Body::BcastReqBatch {
                reqs: (2..=4)
                    .map(|s| BatchReq {
                        sender_seq: s,
                        payload: p.clone(),
                    })
                    .collect(),
            },
        );
        assert_eq!(c.observe(&batch).retries, 1);
        assert_eq!(c.retries, 3);
        // Stamps never count as retries.
        let data = msg(
            0,
            Body::BcastData {
                entry: app(1, 1, 1),
            },
        );
        assert_eq!(c.observe(&data).retries, 0);
        assert_eq!(c.retries, 3);
    }

    /// A frame-level trace through a real in-memory fabric: the
    /// decorator sees the request and the stamp of every blocking send.
    #[test]
    fn tracer_rebuilds_the_critical_path_of_blocking_sends() {
        use amoeba::core::GroupConfig;
        use amoeba::runtime::{Amoeba, FaultPlan};
        let epoch = Instant::now();
        let tracer = Tracer::new(
            epoch,
            Fabric {
                members: 2,
                max_datagram: None,
            },
        );
        let live = Amoeba::new(1, FaultPlan::reliable());
        let amoeba = Amoeba::over_transport(tracer.wrap(Arc::clone(live.transport())), 1);
        let a = amoeba
            .create_group(GroupId(1), GroupConfig::default())
            .unwrap();
        let b = amoeba
            .join_group(GroupId(1), GroupConfig::default())
            .unwrap();
        let mut ops = Vec::new();
        for i in 0..5u64 {
            tracer.set_op(i);
            let issued = epoch.elapsed().as_nanos() as u64;
            b.send_to_group(Bytes::from(vec![i as u8; 16])).unwrap();
            ops.push(OpTimes {
                issued,
                done: Some(epoch.elapsed().as_nanos() as u64),
            });
        }
        let mut spans = Vec::new();
        let a_ = tracer.analyse(b.info().me.0, &ops, &mut spans).unwrap();
        drop((a, b));
        assert_eq!(a_.matched_ops, 5);
        assert_eq!(a_.undecodable, 0);
        assert_eq!(a_.metrics["core.send_retries"], 0.0);
        assert!(a_.metrics["core.frames_per_op"] >= 2.0);
        assert!(a_.metrics["net.datagrams_per_op"] >= 2.0);
        assert_eq!(a_.metrics["flip.fragmented_frames"], 0.0);
        let spans = String::from_utf8(spans).unwrap();
        assert_eq!(spans.matches("\"name\":\"core.req_to_bcast\"").count(), 5);
        assert!(spans.contains("\"name\":\"wire.bcast_req\""));
    }
}
