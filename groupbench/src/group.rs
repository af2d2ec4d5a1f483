//! The three workloads on the live runtime: `blocking_udp`,
//! `blocking_live` and `bulk_udp`.
//!
//! One 3-member group in this process. Member 1 (the first joiner, not
//! the sequencer) is the only client; one thread issues its sends and
//! one more drains all three members' delivery queues, so the client
//! uses at most two threads besides the runtime's own. Every run is
//! closed loop: a blocking `send_to_group` returns before the next is
//! issued, and `send_pipelined` keeps exactly the group's send window
//! in flight.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba::core::{BatchPolicy, GroupConfig, GroupEvent, GroupId};
use amoeba::net::{Transport, UdpConfig, UdpNet};
use amoeba::runtime::{Amoeba, FaultPlan, GroupHandle};
use bytes::Bytes;

use crate::os;
use crate::stats::{checksum, payload, payload_id, Dist};
use crate::wire::{Fabric, OpTimes, Tracer};
use crate::{Phase, FORMATION_EVERY, WARMUP};

const MEMBERS: usize = 3;
/// The client member (index in join order; member 0 is the sequencer).
const ISSUER: usize = 1;
/// How long the drain may take, after the last send returned, to see
/// every message at every member before the rest count as failed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the drain thread blocks on one member's queue when all
/// three are empty (bounds the delivery-time error of the others).
const POLL: Duration = Duration::from_millis(1);

/// Which fabric carries the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Net {
    /// Real sockets over 127.0.0.1 (`UdpNet`).
    Udp,
    /// The in-memory fabric (`LiveNet`, reliable).
    Live,
}

/// One live-runtime workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// The fabric.
    pub net: Net,
    /// Payload bytes per message.
    pub payload: usize,
    /// Every member's configuration.
    pub config: GroupConfig,
    /// `send_pipelined` with the config's window instead of blocking
    /// `send_to_group` calls.
    pub pipelined: bool,
}

impl Spec {
    /// `blocking_udp` / `blocking_live`: 64 B blocking sends under the
    /// paper's configuration (`GroupConfig::default()`: batching off,
    /// window 1, 128-slot history).
    pub fn blocking(net: Net) -> Spec {
        Spec {
            net,
            payload: 64,
            config: GroupConfig::default(),
            pipelined: false,
        }
    }

    /// `bulk_udp`: 8000 B payloads streamed with a 32-deep window and
    /// sequencer batching on.
    pub fn bulk() -> Spec {
        let config = GroupConfig {
            batch: BatchPolicy::On {
                max_batch: 16,
                flush_us: 200,
            },
            send_window: 32,
            ..GroupConfig::default()
        };
        Spec {
            net: Net::Udp,
            payload: 8000,
            config,
            pipelined: true,
        }
    }

    /// A one-line description of the inputs, for the report.
    pub fn describe(&self) -> String {
        let c = &self.config;
        format!(
            "{MEMBERS} members on {:?}, client = member {ISSUER}, {} B payloads, {}, batch {:?}, \
             send_window {}, history_cap {}, send_retransmit_us {}",
            self.net,
            self.payload,
            if self.pipelined {
                "send_pipelined"
            } else {
                "blocking send_to_group"
            },
            c.batch,
            c.send_window,
            c.history_cap,
            c.send_retransmit_us
        )
    }

    /// How this workload's fabric puts frames on the wire.
    pub fn fabric(&self) -> Fabric {
        let max_datagram = (self.net == Net::Udp).then(|| UdpConfig::default().max_datagram);
        Fabric {
            members: MEMBERS,
            max_datagram,
        }
    }
}

/// A formed group: the installation and its members in join order.
struct Group {
    _amoeba: Amoeba,
    members: Vec<GroupHandle>,
}

fn form(spec: &Spec, seed: u64, tracer: Option<&Arc<Tracer>>) -> Result<Group, String> {
    let amoeba = match spec.net {
        Net::Udp => {
            let udp: Arc<dyn Transport> = UdpNet::new(UdpConfig::default());
            Amoeba::over_transport(
                tracer.map_or(Arc::clone(&udp), |t| t.wrap(Arc::clone(&udp))),
                1,
            )
        }
        Net::Live => {
            let live = Amoeba::new(seed, FaultPlan::reliable());
            match tracer {
                Some(t) => Amoeba::over_transport(t.wrap(Arc::clone(live.transport())), 1),
                None => live,
            }
        }
    };
    let gid = GroupId(1);
    let mut members = vec![amoeba
        .create_group(gid, spec.config.clone())
        .map_err(|e| format!("create_group: {e:?}"))?];
    for _ in 1..MEMBERS {
        members.push(
            amoeba
                .join_group(gid, spec.config.clone())
                .map_err(|e| format!("join_group: {e:?}"))?,
        );
    }
    Ok(Group {
        _amoeba: amoeba,
        members,
    })
}

/// The formations a phase times for `setup_s`: the load group's, then
/// a throwaway group formed and dropped every [`FORMATION_EVERY`] of
/// the timed phase, between two ops. Spread over the run, their median
/// reads the host over the whole run rather than over the milliseconds
/// before it.
struct Formations<'a> {
    spec: &'a Spec,
    seed: u64,
    /// When the next throwaway formation is due (timed phase only).
    next: Option<Instant>,
    /// CPU seconds of each formation, summed over every thread of the
    /// process.
    cpu_s: Vec<f64>,
    /// Wall seconds of each formation.
    wall_s: Vec<f64>,
    /// Wall time the timed phase spent forming and dropping throwaway
    /// groups; it is not counted as issuing time.
    paused: Duration,
}

impl<'a> Formations<'a> {
    fn new(spec: &'a Spec, seed: u64) -> Self {
        Formations {
            spec,
            seed,
            next: None,
            cpu_s: Vec::new(),
            wall_s: Vec::new(),
            paused: Duration::ZERO,
        }
    }

    fn form(&mut self, tracer: Option<&Arc<Tracer>>) -> Result<Group, String> {
        let (cpu, wall) = (os::process_cpu_ns(), Instant::now());
        let group = form(self.spec, self.seed, tracer)?;
        self.wall_s.push(wall.elapsed().as_secs_f64());
        self.cpu_s
            .push(os::process_cpu_ns().saturating_sub(cpu) as f64 / 1e9);
        Ok(group)
    }

    /// Called between two ops: forms and drops a throwaway group if
    /// one is due.
    fn tick(&mut self) -> Result<(), String> {
        let Some(due) = self.next else {
            return Ok(());
        };
        let now = Instant::now();
        if now < due {
            return Ok(());
        }
        drop(self.form(None)?);
        self.paused += now.elapsed();
        self.next = Some(due + FORMATION_EVERY);
        Ok(())
    }
}

/// An op some member has not delivered yet.
struct Slot {
    seqno: u64,
    sum: u64,
    last_ns: u64,
    seen: usize,
}

/// Checks deliveries as they arrive: one total order at every member,
/// per-origin FIFO with exactly the issued ids, and payloads matching
/// their seeded checksums. It holds only the ops some member has not
/// delivered yet, so its memory does not grow with the run (and
/// `peak_rss_mb` measures the group, not the check). A member may lag —
/// its missing ops count as failed — but never diverge.
struct Checker {
    seed: u64,
    payload: usize,
    issuer: u32,
    /// Per member: messages delivered so far, and the last seqno.
    next: Vec<u64>,
    last_seqno: Vec<Option<u64>>,
    /// Op index of `window[0]`; every member delivered the ops below.
    base: u64,
    window: VecDeque<Slot>,
    /// Per op delivered everywhere: when its last member delivered it.
    done_ns: Vec<u64>,
}

impl Checker {
    fn new(spec: &Spec, seed: u64, issuer: u32, members: usize) -> Self {
        Checker {
            seed,
            payload: spec.payload,
            issuer,
            next: vec![0; members],
            last_seqno: vec![None; members],
            base: 0,
            window: VecDeque::new(),
            done_ns: Vec::new(),
        }
    }

    fn deliver(
        &mut self,
        m: usize,
        seqno: u64,
        origin: u32,
        bytes: &[u8],
        at_ns: u64,
    ) -> Result<(), String> {
        let k = self.next[m];
        self.next[m] += 1;
        if self.last_seqno[m].is_some_and(|s| seqno <= s) {
            return Err(format!("member {m}: seqno {seqno} not increasing"));
        }
        self.last_seqno[m] = Some(seqno);
        let id = payload_id(bytes);
        if origin != self.issuer || id != Some(k) {
            return Err(format!(
                "member {m} delivery {k}: origin {origin} id {id:?} breaks per-origin FIFO \
                 (expected origin {} id {k})",
                self.issuer
            ));
        }
        let sum = checksum(bytes);
        let i = (k - self.base) as usize;
        match self.window.get_mut(i) {
            None => {
                if sum != checksum(&payload(self.seed, k, self.payload)) {
                    return Err(format!("member {m}: payload {k} fails its seeded checksum"));
                }
                self.window.push_back(Slot {
                    seqno,
                    sum,
                    last_ns: at_ns,
                    seen: 1,
                });
            }
            Some(slot) if slot.seqno != seqno => {
                return Err(format!(
                    "member {m} delivery {k} differs from the total order"
                ));
            }
            Some(slot) if slot.sum != sum => {
                return Err(format!("member {m}: payload {k} fails its seeded checksum"));
            }
            Some(slot) => {
                slot.seen += 1;
                slot.last_ns = at_ns;
            }
        }
        while let Some(front) = self.window.front() {
            if front.seen < self.next.len() {
                break;
            }
            self.done_ns.push(front.last_ns);
            self.window.pop_front();
            self.base += 1;
        }
        Ok(())
    }
}

/// Drains every member's queue into `checker` until each has
/// delivered `target` messages (the target is `u64::MAX` until the
/// client knows it) or the drain deadline passes. Stops at the first
/// failed check.
fn drain(
    members: &[GroupHandle],
    mut checker: Checker,
    target: &AtomicU64,
    deadline_ns: &AtomicU64,
    epoch: Instant,
) -> Result<Checker, String> {
    let now = || epoch.elapsed().as_nanos() as u64;
    loop {
        let mut got = false;
        for (m, h) in members.iter().enumerate() {
            while let Ok(Some(ev)) = h.try_receive() {
                if let GroupEvent::Message {
                    seqno,
                    origin,
                    payload,
                } = ev
                {
                    checker.deliver(m, seqno.0, origin.0, &payload, now())?;
                }
                got = true;
            }
        }
        let want = target.load(Ordering::Acquire);
        if checker.next.iter().all(|&n| n >= want) || now() > deadline_ns.load(Ordering::Acquire) {
            return Ok(checker);
        }
        if !got {
            std::thread::sleep(POLL);
        }
    }
}

/// The issuing side of a phase.
struct Client<'a> {
    spec: &'a Spec,
    seed: u64,
    handle: &'a GroupHandle,
    epoch: Instant,
    tracer: Option<&'a Arc<Tracer>>,
}

impl Client<'_> {
    /// The payload of op `id`, with the op marked for the wire trace.
    fn next_payload(&self, id: u64) -> Bytes {
        if let Some(t) = self.tracer {
            t.set_op(id);
        }
        Bytes::from(payload(self.seed, id, self.spec.payload))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// Issues ops until `until`, blocking `send_to_group` each; returns
/// how many sends returned an error (their `done` stays `None`).
fn issue_blocking(
    client: &Client,
    ops: &mut Vec<OpTimes>,
    until: Instant,
    formations: &mut Formations,
) -> Result<u64, String> {
    let mut errors = 0;
    while Instant::now() < until {
        formations.tick()?;
        let bytes = client.next_payload(ops.len() as u64);
        let issued = client.now_ns();
        let result = client.handle.send_to_group(bytes);
        let at = client.now_ns();
        errors += u64::from(result.is_err());
        ops.push(OpTimes {
            issued,
            done: result.is_ok().then_some(at),
        });
    }
    Ok(errors)
}

/// Streams ops until `until` through one `send_pipelined` call;
/// returns how many completed with an error. `done` is filled in
/// later from the delivery logs.
fn issue_pipelined(
    client: &Client,
    ops: &mut Vec<OpTimes>,
    until: Instant,
    formations: &mut Formations,
) -> Result<u64, String> {
    let mut failed_formation = None;
    let stream = std::iter::from_fn(|| {
        if Instant::now() >= until {
            return None;
        }
        if let Err(e) = formations.tick() {
            failed_formation = Some(e);
            return None;
        }
        let bytes = client.next_payload(ops.len() as u64);
        ops.push(OpTimes {
            issued: client.now_ns(),
            done: None,
        });
        Some(bytes)
    });
    let errors = client
        .handle
        .send_pipelined(stream)
        .iter()
        .filter(|r| r.is_err())
        .count() as u64;
    match failed_formation {
        Some(e) => Err(e),
        None => Ok(errors),
    }
}

/// Runs one phase of a live-runtime workload (see [`crate::Phase`]).
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    epoch: Instant,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Phase, String> {
    let mut formations = Formations::new(spec, seed);
    // Only the group that carries the load is traced.
    let group = formations.form(tracer)?;
    let members = &group.members;
    let client = Client {
        spec,
        seed,
        handle: &members[ISSUER],
        epoch,
        tracer,
    };
    let issuer = client.handle.info().me.0;

    let target = AtomicU64::new(u64::MAX);
    let deadline = AtomicU64::new(u64::MAX);
    let mut ops: Vec<OpTimes> = Vec::new();
    let checker = Checker::new(spec, seed, issuer, members.len());
    let (checker, errors, timed_from, timed_wall, os) = std::thread::scope(|s| {
        let drainer = s.spawn(|| drain(members, checker, &target, &deadline, epoch));
        let issue = |ops: &mut Vec<OpTimes>, until: Instant, f: &mut Formations| {
            if spec.pipelined {
                issue_pipelined(&client, ops, until, f)
            } else {
                issue_blocking(&client, ops, until, f)
            }
        };
        // Formations are due only in the timed phase, so only its
        // issuing can fail.
        let warmup = issue(&mut ops, Instant::now() + WARMUP, &mut formations);
        let timed_from = ops.len();
        let before = os::sample();
        let t0 = Instant::now();
        formations.next = Some(t0 + FORMATION_EVERY / 2);
        let timed = issue(
            &mut ops,
            t0 + Duration::from_secs_f64(seconds),
            &mut formations,
        );
        let timed_wall = (t0.elapsed() - formations.paused).as_secs_f64();
        let os = before.delta(&os::sample());
        // The drain thread ends on the deadline whatever happened above.
        deadline.store(
            (epoch.elapsed() + DRAIN_TIMEOUT).as_nanos() as u64,
            Ordering::Release,
        );
        target.store(ops.len() as u64, Ordering::Release);
        let checker = drainer
            .join()
            .map_err(|_| "the drain thread panicked".to_string())??;
        let errors = warmup? + timed?;
        Ok::<_, String>((checker, errors, timed_from, timed_wall, os))
    })?;

    if let Some(n) = checker.next.iter().find(|&&n| n > ops.len() as u64) {
        return Err(format!("{n} deliveries for {} sends", ops.len()));
    }
    // An op is done once every member delivered it (pipelined) or its
    // call returned (blocking); one not delivered everywhere failed.
    for (id, op) in ops.iter_mut().enumerate() {
        match checker.done_ns.get(id) {
            None => op.done = None,
            Some(&at) if spec.pipelined => op.done = Some(at),
            Some(_) => {}
        }
    }
    let failed = ops.iter().filter(|o| o.done.is_none()).count() as u64;
    let drain_end = epoch.elapsed().as_nanos() as u64;
    let timed = &ops[timed_from..];
    let lat_us = Dist::from_values(
        timed
            .iter()
            .map(|o| (o.done.unwrap_or(drain_end) - o.issued) as f64 / 1_000.0)
            .collect(),
    );
    let completed = timed.iter().filter(|o| o.done.is_some()).count() as u64;
    let mut notes = vec![spec.describe()];
    if errors > 0 {
        notes.push(format!("{errors} send(s) returned a GroupError"));
    }
    Ok(Phase {
        attempted: ops.len() as u64,
        failed,
        completed,
        throughput_ops_s: completed as f64 / timed_wall,
        lat_us,
        setup_s: formations.cpu_s,
        setup_wall_s: formations.wall_s,
        os,
        ops,
        issuer,
        layers: Default::default(),
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker::new(&Spec::blocking(Net::Live), 5, 1, 3)
    }

    fn bytes(id: u64) -> Vec<u8> {
        payload(5, id, 64)
    }

    #[test]
    fn accepts_one_total_order_and_records_when_all_members_have_it() {
        let mut c = checker();
        for m in 0..3 {
            for id in 0..4 {
                // Members deliver at different times; the op is done
                // when the last one does.
                c.deliver(m, 10 + id, 1, &bytes(id), 100 * m as u64 + id)
                    .unwrap();
            }
            assert_eq!(c.done_ns.len(), if m == 2 { 4 } else { 0 });
        }
        assert_eq!(c.done_ns, vec![200, 201, 202, 203]);
        assert!(c.window.is_empty());
        assert_eq!(c.next, vec![4, 4, 4]);
    }

    #[test]
    fn a_lagging_member_holds_only_its_backlog() {
        let mut c = checker();
        for id in 0..100 {
            c.deliver(0, id + 1, 1, &bytes(id), id).unwrap();
            c.deliver(1, id + 1, 1, &bytes(id), id).unwrap();
        }
        c.deliver(2, 1, 1, &bytes(0), 500).unwrap();
        assert_eq!((c.base, c.window.len(), c.done_ns.len()), (1, 99, 1));
    }

    #[test]
    fn rejects_divergence_fifo_breaks_and_corrupt_payloads() {
        let mut c = checker();
        c.deliver(0, 1, 1, &bytes(0), 0).unwrap();
        let err = c.deliver(1, 2, 1, &bytes(0), 0).unwrap_err();
        assert!(err.contains("differs from the total order"), "{err}");

        let err = checker().deliver(0, 1, 1, &bytes(1), 0).unwrap_err();
        assert!(err.contains("per-origin FIFO"), "{err}");
        let err = checker().deliver(0, 1, 2, &bytes(0), 0).unwrap_err();
        assert!(err.contains("per-origin FIFO"), "{err}");

        let mut bad = bytes(0);
        bad[20] ^= 1;
        let err = checker().deliver(0, 1, 1, &bad, 0).unwrap_err();
        assert!(err.contains("seeded checksum"), "{err}");
        let mut c = checker();
        c.deliver(0, 1, 1, &bytes(0), 0).unwrap();
        let err = c.deliver(1, 1, 1, &bad, 0).unwrap_err();
        assert!(err.contains("seeded checksum"), "{err}");

        let mut c = checker();
        c.deliver(0, 5, 1, &bytes(0), 0).unwrap();
        let err = c.deliver(0, 5, 1, &bytes(1), 0).unwrap_err();
        assert!(err.contains("not increasing"), "{err}");
    }
}
