//! The `shard_sim` workload: routed get/put traffic through the
//! sharded serving layer on the simulated kernel.
//!
//! `SimCluster` with 4 data groups × 3 members plus the 3-member meta
//! group, data-group configuration `scaled_for_world` with sequencer
//! batching on (as the `shard_scale` bench runs it), 64 routed
//! operations in flight, an even get/put mix over 4096 seeded keys.
//! No socket and no wall-clock timer is involved: the run is as fast
//! as the host can step the simulator.
//!
//! Its end-to-end figures are the simulated cluster's own: ops per
//! simulated second and simulated per-op latency, which a seed fixes
//! exactly. How fast the host steps the simulator is a per-layer
//! figure (`sim.ops_per_cpu_s`, `sim.events_per_cpu_s`), taken on the
//! simulator thread's CPU clock, which stops while the host preempts
//! it, as the median over the phase's episodes. On the shared 2-vCPU VM
//! the benchmark was built on, that speed moves by ±25 % within
//! minutes: four sets of ten runs put the spread of host-time ops per
//! second at 0.08, 0.10, 0.21 and 0.29 (IQR over median), against 0.25
//! allowed for any end-to-end metric.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::time::Instant;

use amoeba::core::audit::EndFate;
use amoeba::core::{BatchPolicy, GroupConfig};
use amoeba::shard::{audit_group, lost_acked_writes, Cluster, Completion, ShardSpec, SimCluster};

use crate::os;
use crate::stats::{Dist, SplitMix64};
use crate::{Phase, WARMUP};

const SHARDS: usize = 4;
const MEMBERS: usize = 3;
const KEYS: usize = 4096;
const IN_FLIGHT: usize = 64;
/// Simulated-millisecond cycles allowed, after the last operation is
/// issued, to finish the ones in flight before they count as failed.
const DRAIN_CYCLES: usize = 60_000;
/// Op and cycle spans kept for the trace file.
const SPAN_CAP: usize = 100_000;

/// A one-line description of the inputs, for the report.
pub fn describe() -> String {
    format!(
        "SimCluster {SHARDS} data groups x {MEMBERS} members + 3-member meta group, data config \
         scaled_for_world + BatchPolicy::On {{ max_batch: 8, flush_us: 200 }}, {IN_FLIGHT} routed \
         ops in flight, 50/50 get/put over {KEYS} seeded keys"
    )
}

fn spec(seed: u64) -> ShardSpec {
    let mut spec = ShardSpec::new(seed, SHARDS, MEMBERS);
    let mut data = GroupConfig::scaled_for_world(MEMBERS, SHARDS + 1);
    data.batch = BatchPolicy::On {
        max_batch: 8,
        flush_us: 200,
    };
    spec.data_config = Some(data);
    spec
}

struct Issued {
    op: u64,
    cpu_ns: u64,
    sim_us: u64,
    timed: bool,
    /// For a get: the value of the last put to its key issued before it
    /// (the router serializes single-key operations in issue order).
    expect: Option<Option<String>>,
}

/// Per-operation inputs, all drawn from the seed.
struct Inputs {
    rng: SplitMix64,
    keys: Vec<String>,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let keys = (0..KEYS)
            .map(|_| format!("k{:016x}", rng.next_u64()))
            .collect();
        Inputs { rng, keys }
    }

    /// The next operation: its key and, for a put, the value.
    fn next(&mut self, op: u64) -> (String, Option<String>) {
        let key = self.keys[self.rng.gen_range(KEYS as u64) as usize].clone();
        let put = self.rng.gen_bool(0.5).then(|| format!("v{op}"));
        (key, put)
    }
}

/// Routed operations per requested second: the timed phase issues
/// `seconds × OPS_PER_SECOND` operations (and the warm-up
/// [`WARMUP`]`'s share), about `seconds` of CPU time on a 2-vCPU Xeon
/// VM. A fixed amount of work, rather than a fixed time, keeps the
/// simulated-time figures and the memory held by the delivery logs
/// identical for a seed however fast the host runs.
const OPS_PER_SECOND: f64 = 45_000.0;

/// Independent clusters a phase runs one after another, each with its
/// own seed drawn from the run's seed and an equal share of the work.
/// Pooling them averages out dynamics peculiar to one cluster seed: the
/// simulated median of one cluster moves between 36 and 47 ms from
/// seed to seed, and that of 40 pooled clusters between 43 and 44 ms.
const EPISODES: u64 = 40;

/// Figures pooled over the episodes of a phase.
#[derive(Default)]
struct Totals {
    attempted: u64,
    failed: u64,
    completed: u64,
    /// Per episode: timed ops completed, CPU ns and simulated µs.
    episodes: Vec<(u64, u64, u64)>,
    events: u64,
    /// Ops per simulated latency in µs (a multiple of the 1 ms
    /// quantum), failed ops included.
    sim_lat_us: BTreeMap<u64, u64>,
    op_spans: Vec<(u64, u64, u64)>,
    cycle_spans: Vec<(u64, u64)>,
    router_ns: u64,
    router_calls: u64,
    advance_ns: u64,
    retries: u64,
    wrong_shard: u64,
    map_refreshes: u64,
    utilization: f64,
    os_start: Option<os::Sample>,
}

/// Runs one phase of `shard_sim` (see [`crate::Phase`]). With
/// `spans`, the router calls and the simulator's `advance` are timed
/// and the op and cycle spans are written there.
pub fn run(seed: u64, seconds: f64, spans: Option<&mut dyn Write>) -> Result<Phase, String> {
    let traced = spans.is_some();
    let mut seeds = SplitMix64::new(seed);
    let seeds: Vec<u64> = (0..EPISODES).map(|_| seeds.next_u64()).collect();
    let warmup_ops = (WARMUP.as_secs_f64() * OPS_PER_SECOND) as u64 / EPISODES;
    let timed_ops = ((seconds * OPS_PER_SECOND) as u64 / EPISODES).max(1);
    let mut totals = Totals::default();
    // `setup_s` is the median over the episodes, spread through the
    // whole phase, of one formation per CPU (see `time_formation`).
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    for &sub in &seeds {
        let (cpu_s, wall_s) = time_formation(sub);
        setup_s.push(cpu_s);
        setup_wall_s.push(wall_s);
        episode(
            SimCluster::new(spec(sub)),
            sub,
            warmup_ops,
            timed_ops,
            traced,
            &mut totals,
        )?;
    }
    let os = totals
        .os_start
        .take()
        .expect("an episode ran")
        .delta(&os::sample());

    if let Some(out) = spans {
        let io = |e: std::io::Error| format!("writing spans: {e}");
        for (op, a, b) in &totals.op_spans {
            writeln!(
                out,
                "{{\"name\":\"op\",\"start_ns\":{a},\"end_ns\":{b},\"op\":{op}}}"
            )
            .map_err(io)?;
        }
        for (a, b) in &totals.cycle_spans {
            writeln!(
                out,
                "{{\"name\":\"kernel.advance\",\"start_ns\":{a},\"end_ns\":{b},\"op\":null}}"
            )
            .map_err(io)?;
        }
    }

    let t = &totals;
    let cpu_ns: u64 = t.episodes.iter().map(|e| e.1).sum();
    let sim_us: u64 = t.episodes.iter().map(|e| e.2).sum();
    let median_of = |f: &dyn Fn(&(u64, u64, u64)) -> f64| {
        Dist::from_values(t.episodes.iter().map(f).collect()).median()
    };
    let ops_per_cpu_s = median_of(&|&(ops, cpu, _)| ops as f64 / (cpu as f64 / 1e9));
    let mut layers = BTreeMap::new();
    layers.insert(
        "sim.events_per_op",
        t.events as f64 / t.completed.max(1) as f64,
    );
    layers.insert(
        "sim.events_per_cpu_s",
        t.events as f64 / (cpu_ns as f64 / 1e9),
    );
    layers.insert("sim.ops_per_cpu_s", ops_per_cpu_s);
    layers.insert("kernel.advance_share", t.advance_ns as f64 / cpu_ns as f64);
    layers.insert("kernel.medium_utilization", t.utilization / EPISODES as f64);
    layers.insert(
        "shard.router_call_ns",
        t.router_ns as f64 / t.router_calls.max(1) as f64,
    );
    layers.insert("shard.retries", t.retries as f64);
    layers.insert("shard.wrong_shard", t.wrong_shard as f64);
    layers.insert("shard.map_refreshes", t.map_refreshes as f64);

    let lat_us = Dist::from_counts(totals.sim_lat_us.iter().map(|(&us, &n)| (us as f64, n)));
    Ok(Phase {
        attempted: totals.attempted,
        failed: totals.failed,
        completed: totals.completed,
        throughput_ops_s: totals.completed as f64 / (sim_us as f64 / 1e6),
        lat_us,
        setup_s,
        setup_wall_s,
        os,
        ops: Vec::new(),
        issuer: 0,
        layers,
        notes: vec![
            describe(),
            format!("{EPISODES} episodes, each a cluster seeded from --seed"),
        ],
    })
}

/// Forms the cluster of `seed` once on each CPU this thread may run on,
/// pinned there, and returns the mean CPU and wall seconds of one
/// formation. A formation is single-threaded, and each vCPU of the
/// shared 2-vCPU VM the benchmark was built on switches between two
/// speeds about 1.5 times apart, independently of the other and within
/// a second; one formation reads one vCPU's speed of the moment, their
/// mean the machine's. Each timed formation follows an untimed one on
/// the same CPU, so that it finds the allocator and the caches warm
/// rather than just after an episode returned its memory (page faults
/// then make it 3 to 6 times slower, in proportion to the episode).
fn time_formation(seed: u64) -> (f64, f64) {
    let mask = os::CpuMask::current();
    let cpus = mask.map_or_else(Vec::new, |m| m.cpus());
    let mut pins: Vec<Option<usize>> = cpus.into_iter().map(Some).collect();
    if pins.is_empty() {
        pins.push(None);
    }
    let (mut cpu_ns, mut wall_s) = (0, 0.0);
    for &pin in &pins {
        if let Some(cpu) = pin {
            os::CpuMask::only(cpu).apply();
        }
        drop(SimCluster::new(spec(seed)));
        let (cpu, wall) = (os::thread_cpu_ns(), Instant::now());
        let cluster = SimCluster::new(spec(seed));
        wall_s += wall.elapsed().as_secs_f64();
        cpu_ns += os::thread_cpu_ns() - cpu;
        drop(cluster);
    }
    if let Some(m) = mask {
        m.apply();
    }
    let n = pins.len() as f64;
    (cpu_ns as f64 / 1e9 / n, wall_s / n)
}

/// One cluster's share of the phase: warm up, drain, issue `timed_ops`
/// keeping [`IN_FLIGHT`] in flight, drain, halt and audit.
fn episode(
    mut c: SimCluster,
    seed: u64,
    warmup_ops: u64,
    timed_ops: u64,
    traced: bool,
    t: &mut Totals,
) -> Result<(), String> {
    let now_ns = os::thread_cpu_ns;
    let total_ops = warmup_ops + timed_ops;
    let op_base = t.attempted;
    let mut inputs = Inputs::new(seed);
    let mut model: HashMap<String, String> = HashMap::new();
    let mut pending: BTreeMap<u64, Issued> = BTreeMap::new();
    let mut next_op = 0u64;
    // Taken when the warm-up has drained: CPU clock, simulated time,
    // event count and router counters at the start of timing.
    let mut timed_start: Option<(u64, u64, u64, amoeba::shard::RouterStats)> = None;
    let mut drain_cycles = 0;
    let mut completed = 0;
    loop {
        if timed_start.is_none() && next_op == warmup_ops && pending.is_empty() {
            t.os_start.get_or_insert_with(os::sample);
            let events = c.world.sim.events_executed();
            let stats = c.router().stats().clone();
            timed_start = Some((now_ns(), c.now_us(), events, stats));
        }
        let limit = if timed_start.is_some() {
            total_ops
        } else {
            warmup_ops
        };
        while next_op < limit && pending.len() < IN_FLIGHT {
            let op = op_base + next_op;
            next_op += 1;
            let (key, put) = inputs.next(op);
            let expect = match &put {
                Some(_) => None,
                None => Some(model.get(&key).cloned()),
            };
            let start = (traced && timed_start.is_some()).then(now_ns);
            let id = match &put {
                Some(v) => c.router().put(&key, v),
                None => c.router().get(&key),
            };
            if let Some(start) = start {
                t.router_ns += now_ns() - start;
                t.router_calls += 1;
            }
            if let Some(v) = put {
                model.insert(key, v);
            }
            let timed = timed_start.is_some();
            pending.insert(
                id,
                Issued {
                    op,
                    cpu_ns: now_ns(),
                    sim_us: c.now_us(),
                    timed,
                    expect,
                },
            );
        }
        if next_op == total_ops {
            if pending.is_empty() {
                break;
            }
            drain_cycles += 1;
            if drain_cycles > DRAIN_CYCLES {
                // Failed ops miss any latency limit: they enter the
                // sample with the time until they were given up.
                t.failed += pending.len() as u64;
                for p in pending.values().filter(|p| p.timed) {
                    *t.sim_lat_us.entry(c.now_us() - p.sim_us).or_default() += 1;
                }
                break;
            }
        }

        let start = (traced && timed_start.is_some()).then(now_ns);
        c.advance();
        if let Some(start) = start {
            let end = now_ns();
            t.advance_ns += end - start;
            if t.cycle_spans.len() < SPAN_CAP {
                t.cycle_spans.push((start, end));
            }
        }
        let (done_ns, done_us) = (now_ns(), c.now_us());
        let router = c.router();
        let mut mismatch = None;
        pending.retain(|&id, p| {
            let Some(done) = router.take(id) else {
                return true;
            };
            if let (Some(want), Completion::Get { key, value }) = (&p.expect, &done) {
                if value != want {
                    mismatch = Some(format!(
                        "get {key:?} returned {value:?}, last put was {want:?}"
                    ));
                }
            }
            if p.timed {
                completed += 1;
                *t.sim_lat_us.entry(done_us - p.sim_us).or_default() += 1;
            }
            if t.op_spans.len() < SPAN_CAP {
                t.op_spans.push((p.op, p.cpu_ns, done_ns));
            }
            false
        });
        if let Some(m) = mismatch {
            return Err(m);
        }
    }
    let (cpu0, sim0, events0, stats0) = timed_start.ok_or("the warm-up never drained")?;
    t.completed += completed;
    t.episodes
        .push((completed, now_ns() - cpu0, c.now_us() - sim0));
    t.events += c.world.sim.events_executed() - events0;
    t.attempted += next_op;
    t.utilization += c.world.utilization();
    let stats = c.router().stats().clone();
    t.retries += stats.retries - stats0.retries;
    t.wrong_shard += stats.wrong_shard - stats0.wrong_shard;
    t.map_refreshes += stats.map_refreshes - stats0.map_refreshes;

    // Audits: no acked write lost, every group's delivery logs clean.
    let acked = c.router().acked_writes().clone();
    if !c.halt() {
        return Err("cluster did not halt".into());
    }
    let lost = lost_acked_writes(&acked, &c.board, &c.groups, |_| 0);
    if let Some(l) = lost.first() {
        return Err(format!("{} lost acked write(s), first: {l}", lost.len()));
    }
    for group in c.groups.iter().chain(std::iter::once(&c.meta)) {
        let fates = vec![EndFate::Live; group.logs.len()];
        if let Some(v) = audit_group(group, &fates, true).first() {
            return Err(format!("group {} delivery audit: {v}", group.id));
        }
    }
    Ok(())
}
