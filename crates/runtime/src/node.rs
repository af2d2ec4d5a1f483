//! Stepping a member's sans-io [`GroupCore`] and executing its actions.
//!
//! Up to three threads step one member's core: the application thread
//! (sends and the blocking primitives), the per-member driver thread
//! (timers, and inbound frames on transports that queue them), and on
//! a transport that delivers in place (`UdpNet`) that endpoint's
//! receive pump. Every one of them goes through [`NodeShared::step`],
//! which executes the resulting actions *before* releasing the
//! [`Stepper`] lock, so a member's effects (frames on the wire, events
//! to the application, completions) leave in exactly the order the
//! core produced them.

use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use amoeba_core::{
    decode_wire_frame, Action, Dest, FrameEncoder, GroupCore, GroupError, GroupEvent,
    GroupId, GroupInfo, Seqno, TimerKind, WireFrame,
};
use amoeba_flip::FlipAddress;
use amoeba_net::{Transport, TransportSender};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex};

use crate::net::Datagram;

/// A one-shot completion slot for a blocking primitive.
pub(crate) struct Slot<T> {
    value: Mutex<Option<T>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { value: Mutex::new(None), cv: Condvar::new() }
    }

    pub(crate) fn put(&self, v: T) {
        *self.value.lock() = Some(v);
        self.cv.notify_all();
    }

    /// Blocks until a value arrives.
    ///
    /// # Panics
    ///
    /// Panics after `deadline` — the protocol's own retry budgets bound
    /// every operation, so an expiry here is a harness bug, not a
    /// legitimate outcome.
    pub(crate) fn wait(&self, deadline: Duration, what: &str) -> T {
        let mut guard = self.value.lock();
        let end = Instant::now() + deadline;
        while guard.is_none() {
            if self.cv.wait_until(&mut guard, end).timed_out() {
                panic!("blocking {what} did not complete within {deadline:?}");
            }
        }
        guard.take().expect("checked above")
    }

    fn clear(&self) {
        *self.value.lock() = None;
    }
}

pub(crate) enum Ctl {
    /// Timer table changed; recompute the select deadline.
    Kick,
    /// Stop the driver.
    Shutdown,
}

/// What stepping a member needs exclusively: its protocol core and
/// its side of the wire. One lock over all of it is what keeps the
/// member's effects in core order.
pub(crate) struct Stepper {
    pub(crate) core: GroupCore,
    /// This endpoint's frame encoder (reusable scratch, DESIGN.md §7).
    encoder: FrameEncoder,
    /// This endpoint's sending port on the fabric (carries the
    /// epoch-cached membership snapshot; for UDP also the socket and
    /// scratch buffer, so the `send_to` runs on whichever thread is
    /// stepping the core).
    sender: Box<dyn TransportSender>,
}

/// State shared between the driver thread and the API handle.
pub(crate) struct NodeShared {
    pub(crate) stepper: Mutex<Stepper>,
    pub(crate) net: Arc<dyn Transport>,
    pub(crate) group: GroupId,
    pub(crate) addr: FlipAddress,
    pub(crate) timers: Mutex<HashMap<TimerKind, (u64, Instant)>>,
    timer_gen: Mutex<u64>,
    pub(crate) events_tx: Sender<GroupEvent>,
    pub(crate) ctl_tx: Sender<Ctl>,
    /// Send completions, FIFO: every submitted `SendToGroup` produces
    /// exactly one message here, so a pipelining caller pairs them with
    /// its submissions in order (a channel, not a [`Slot`], because a
    /// `send_window` > 1 can have several completions in flight).
    pub(crate) send_done_tx: Sender<Result<Seqno, GroupError>>,
    pub(crate) send_done_rx: Receiver<Result<Seqno, GroupError>>,
    /// Serializes API-level senders: with `send_window` > 1 the core
    /// happily admits two threads' sends, but the FIFO completion
    /// channel would then hand thread A thread B's result. One sender
    /// drives the pipeline at a time (the paper's one-thread-per-call
    /// model); a second caller waits instead of racing.
    pub(crate) send_lock: Mutex<()>,
    pub(crate) join_done: Slot<Result<GroupInfo, GroupError>>,
    pub(crate) leave_done: Slot<Result<(), GroupError>>,
    pub(crate) reset_done: Slot<Result<GroupInfo, GroupError>>,
}

impl NodeShared {
    /// Builds a member's shared state and plugs its endpoint into
    /// `net`: in place when the transport offers it (frames then step
    /// the core on the transport's receive thread), otherwise through
    /// the returned inbound queue, which the driver thread must drain.
    pub(crate) fn plug_in(
        core: GroupCore,
        net: Arc<dyn Transport>,
        group: GroupId,
        addr: FlipAddress,
        events_tx: Sender<GroupEvent>,
        ctl_tx: Sender<Ctl>,
    ) -> (Arc<Self>, Option<Receiver<Datagram>>) {
        let (send_done_tx, send_done_rx) = channel::unbounded();
        let mut data_rx = None;
        let shared = Arc::new_cyclic(|me: &Weak<NodeShared>| {
            // The sink holds the member weakly: the transport never
            // keeps it alive, and a frame that beats construction (no
            // peer knows this address yet) is simply dropped.
            let me = me.clone();
            let sink = Box::new(move |from, frame| {
                if let Some(shared) = me.upgrade() {
                    shared.on_frame(from, frame);
                }
            });
            if !net.register_in_place(addr, sink) {
                data_rx = Some(net.register(addr));
            }
            NodeShared {
                stepper: Mutex::new(Stepper {
                    core,
                    encoder: FrameEncoder::new(),
                    sender: net.sender(addr),
                }),
                net,
                group,
                addr,
                timers: Mutex::new(HashMap::new()),
                timer_gen: Mutex::new(0),
                events_tx,
                ctl_tx,
                send_done_tx,
                send_done_rx,
                send_lock: Mutex::new(()),
                join_done: Slot::new(),
                leave_done: Slot::new(),
                reset_done: Slot::new(),
            }
        });
        (shared, data_rx)
    }

    /// Steps the core with `op` and executes the resulting actions
    /// before releasing the stepper lock, which keeps this member's
    /// effects in core order however many threads step it. Safe
    /// because [`NodeShared::run_actions`] never takes the stepper lock
    /// and every action sink is non-blocking (unbounded channels, a
    /// datagram send, condvar notifies).
    pub(crate) fn step(&self, op: impl FnOnce(&mut GroupCore) -> Vec<Action>) {
        let mut stepper = self.stepper.lock();
        let actions = op(&mut stepper.core);
        self.run_actions(&mut stepper, actions);
    }

    /// Handles one inbound frame, on whichever thread received it.
    fn on_frame(&self, from: FlipAddress, frame: WireFrame) {
        match decode_wire_frame(frame) {
            Ok(msg) => self.step(|core| core.handle_message(from, msg)),
            Err(_) => { /* garbled packet: the protocol's loss
                           machinery recovers, as on real wires */ }
        }
    }

    /// Executes protocol actions; called only by [`NodeShared::step`],
    /// which holds the stepper lock.
    fn run_actions(&self, stepper: &mut Stepper, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { dest, msg } => {
                    // Zero-copy from here on: large payloads ride as a
                    // gathered tail segment; the in-memory transport
                    // refcount-shares the two segments per receiver,
                    // the UDP transport gather-writes them per
                    // fragment (DESIGN.md §7, §12).
                    let frame = stepper.encoder.encode_frame(&msg);
                    match dest {
                        Dest::Unicast(to) => stepper.sender.unicast(to, frame),
                        Dest::Group => stepper.sender.multicast(self.group, frame),
                    }
                }
                Action::SetTimer { kind, after_us } => {
                    let gen = {
                        let mut g = self.timer_gen.lock();
                        *g += 1;
                        *g
                    };
                    let at = Instant::now() + Duration::from_micros(after_us);
                    self.timers.lock().insert(kind, (gen, at));
                    let _ = self.ctl_tx.send(Ctl::Kick);
                }
                Action::CancelTimer { kind } => {
                    self.timers.lock().remove(&kind);
                }
                Action::Deliver(ev) => {
                    let _ = self.events_tx.send(ev);
                }
                Action::SendDone(r) => {
                    let _ = self.send_done_tx.send(r);
                }
                Action::JoinDone(r) => self.join_done.put(r),
                Action::LeaveDone(r) => self.leave_done.put(r),
                Action::ResetDone(r) => self.reset_done.put(r),
            }
        }
    }

    /// Runs a blocking primitive: clears its slot, steps the core with
    /// `op`, and waits for completion with the stepper lock released.
    pub(crate) fn blocking_op<T>(
        &self,
        slot: &Slot<T>,
        what: &str,
        op: impl FnOnce(&mut GroupCore) -> Vec<Action>,
    ) -> T {
        slot.clear();
        self.step(op);
        slot.wait(Duration::from_secs(120), what)
    }

    /// Submits one `SendToGroup`. Exactly one completion will arrive on
    /// the send-done channel (possibly `Err(Busy)` synchronously when
    /// the pipelining window is full).
    pub(crate) fn submit_send(&self, payload: bytes::Bytes) {
        self.step(|core| core.send_to_group(payload));
    }

    /// Waits for the next send completion, FIFO with submissions. If
    /// the driver died mid-send (the peer disappeared under us — a
    /// real outcome once memberships live in separate OS processes),
    /// the caller gets [`GroupError::Disconnected`], not a panic.
    ///
    /// # Panics
    ///
    /// Panics after 120 s with the driver still alive — the protocol's
    /// retry budgets bound every send, so an expiry here is a harness
    /// bug (see [`Slot::wait`]).
    pub(crate) fn wait_send(&self) -> Result<Seqno, GroupError> {
        match self.send_done_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(r) => r,
            Err(RecvTimeoutError::Disconnected) => Err(GroupError::Disconnected),
            Err(RecvTimeoutError::Timeout) => {
                panic!("blocking SendToGroup did not complete within 120s")
            }
        }
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.timers.lock().values().map(|&(_, at)| at).min()
    }

    fn fire_expired(&self) {
        let now = Instant::now();
        let expired: Vec<TimerKind> = {
            let mut timers = self.timers.lock();
            let kinds: Vec<TimerKind> = timers
                .iter()
                .filter(|(_, &(_, at))| at <= now)
                .map(|(&k, _)| k)
                .collect();
            for k in &kinds {
                timers.remove(k);
            }
            kinds
        };
        for kind in expired {
            self.step(|core| core.handle_timer(kind));
        }
    }
}

/// The driver loop: timers, control messages, and inbound frames when
/// the transport queues them (`data_rx` is `None` when it delivers
/// them in place on its own receive thread).
pub(crate) fn drive(
    shared: Arc<NodeShared>,
    data_rx: Option<Receiver<Datagram>>,
    ctl_rx: Receiver<Ctl>,
) {
    loop {
        let timeout = shared
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(100));
        match &data_rx {
            Some(data_rx) => channel::select! {
                recv(data_rx) -> d => {
                    let Ok((from, frame)) = d else { return };
                    shared.on_frame(from, frame);
                }
                recv(ctl_rx) -> c => {
                    match c {
                        Ok(Ctl::Kick) => {}
                        Ok(Ctl::Shutdown) | Err(_) => return,
                    }
                }
                default(timeout) => {}
            },
            None => match ctl_rx.recv_timeout(timeout) {
                Ok(Ctl::Kick) | Err(RecvTimeoutError::Timeout) => {}
                Ok(Ctl::Shutdown) | Err(RecvTimeoutError::Disconnected) => return,
            },
        }
        shared.fire_expired();
    }
}
