//! Per-member delivery order on the live backends: every member's
//! event stream must carry strictly increasing seqnos.
//!
//! The sequencer is the member where this is easiest to break: its
//! application thread steps the core when it sends (and the core
//! stamps and delivers its own message right there), while the receive
//! side steps the same core for everybody else's requests. If either
//! thread let go of the core lock before pushing its deliveries, two
//! events could reach the application out of seqno order. Here the
//! sequencer and one other member each make blocking sends while a
//! third member only listens, and every stream is checked.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use amoeba::core::{GroupConfig, GroupEvent, GroupId};
use amoeba::runtime::{Amoeba, FaultPlan, GroupHandle, Transport, UdpConfig, UdpNet};
use bytes::Bytes;

/// Blocking sends per sending member.
const SENDS: usize = 3000;

fn send_all(member: GroupHandle) -> JoinHandle<GroupHandle> {
    std::thread::spawn(move || {
        for i in 0..SENDS {
            member.send_to_group(Bytes::from(format!("m{i}"))).expect("send completes");
        }
        member
    })
}

/// Reads `member`'s stream up to its `2 * SENDS`-th message; panics on
/// the first seqno that does not exceed its predecessor.
fn assert_stream_in_order(label: &str, index: usize, member: &GroupHandle) {
    let mut last = None;
    let mut messages = 0;
    while messages < 2 * SENDS {
        let ev = member
            .receive_timeout(Duration::from_secs(30))
            .unwrap_or_else(|e| panic!("{label}: member {index} starved at {messages}: {e}"));
        if let Some(seqno) = ev.seqno() {
            if let Some(prev) = last {
                assert!(
                    seqno > prev,
                    "{label}: member {index} delivered seqno {} after {}",
                    seqno.0,
                    prev.0
                );
            }
            last = Some(seqno);
        }
        if matches!(ev, GroupEvent::Message { .. }) {
            messages += 1;
        }
    }
}

fn run(label: &str, amoeba: Amoeba) {
    let gid = GroupId(1);
    let sequencer = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let sender = amoeba.join_group(gid, GroupConfig::default()).expect("join sender");
    let listener = amoeba.join_group(gid, GroupConfig::default()).expect("join listener");
    let writers = [send_all(sequencer), send_all(sender)];
    let mut members: Vec<GroupHandle> =
        writers.into_iter().map(|w| w.join().expect("writer thread")).collect();
    members.push(listener);
    for (index, member) in members.iter().enumerate() {
        assert_stream_in_order(label, index, member);
    }
}

#[test]
fn live_streams_are_in_seqno_order() {
    for seed in 1..=10 {
        run(&format!("live seed {seed}"), Amoeba::new(seed, FaultPlan::reliable()));
    }
}

#[test]
fn udp_streams_are_in_seqno_order() {
    for fabric in 1..=5 {
        let net: Arc<dyn Transport> = UdpNet::new(UdpConfig::default());
        run(&format!("udp fabric {fabric}"), Amoeba::over_transport(net, 1));
    }
}
