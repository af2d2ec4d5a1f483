//! Outside-in operating-system and process sampler. The counters are
//! read only at the start and end of a timed phase.
//!
//! * `/proc/net/snmp` `Udp:` counters — **machine-wide**: every process
//!   on the host contributes, so a delta is an upper bound on this
//!   run's share.
//! * `/proc/self/stat` user and system CPU time of the whole process.
//! * Voluntary and involuntary context switches summed over
//!   `/proc/self/task/*/status` (the process-level `status` file counts
//!   the main thread only). Threads that start and end inside a phase
//!   are missed: those of the throwaway groups the live workloads form
//!   to time `setup_s`; the load's threads all start before the phase.
//! * `VmHWM` (peak resident set) from `/proc/self/status`.
//! * The CPU clocks of the calling thread, [`thread_cpu_ns`], and of
//!   the whole process, [`process_cpu_ns`] (read as often as needed:
//!   `shard_sim` times itself with the first, and every workload times
//!   its formations with one of them).
//!
//! A counter the kernel does not expose reads as 0.

use std::collections::BTreeMap;
use std::fs;
use std::time::Instant;

/// Kernel clock ticks per second for `/proc/*/stat` times
/// (`USER_HZ`, 100 on every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// One reading of every counter.
#[derive(Debug, Clone)]
pub struct Sample {
    at: Instant,
    udp: BTreeMap<String, u64>,
    utime: u64,
    stime: u64,
    voluntary: u64,
    involuntary: u64,
}

/// What changed between two samples.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Wall seconds between the samples.
    pub wall_s: f64,
    /// Machine-wide `Udp: RcvbufErrors` delta.
    pub udp_rcvbuf_errors: u64,
    /// Machine-wide `Udp: InErrors` delta.
    pub udp_in_errors: u64,
    /// Process user CPU seconds.
    pub cpu_user_s: f64,
    /// Process system CPU seconds.
    pub cpu_sys_s: f64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl Delta {
    /// CPU seconds per wall second (2.0 = two cores busy).
    pub fn cpu_util(&self) -> f64 {
        if self.wall_s > 0.0 {
            (self.cpu_user_s + self.cpu_sys_s) / self.wall_s
        } else {
            0.0
        }
    }
}

/// Reads every counter now.
pub fn sample() -> Sample {
    let (utime, stime) = fs::read_to_string("/proc/self/stat").map_or((0, 0), |s| cpu_ticks(&s));
    let (voluntary, involuntary) = task_switches();
    let udp = fs::read_to_string("/proc/net/snmp")
        .map(|s| udp_counters(&s))
        .unwrap_or_default();
    Sample {
        at: Instant::now(),
        udp,
        utime,
        stime,
        voluntary,
        involuntary,
    }
}

impl Sample {
    /// The change from `self` to the later sample `end`.
    pub fn delta(&self, end: &Sample) -> Delta {
        let udp = |k: &str| {
            end.udp
                .get(k)
                .copied()
                .unwrap_or(0)
                .saturating_sub(self.udp.get(k).copied().unwrap_or(0))
        };
        Delta {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            udp_rcvbuf_errors: udp("RcvbufErrors"),
            udp_in_errors: udp("InErrors"),
            cpu_user_s: end.utime.saturating_sub(self.utime) as f64 / TICKS_PER_S,
            cpu_sys_s: end.stime.saturating_sub(self.stime) as f64 / TICKS_PER_S,
            ctx_switches: (end.voluntary + end.involuntary)
                .saturating_sub(self.voluntary + self.involuntary),
        }
    }
}

/// `clockid_t`s of the CPU-time clocks of the whole process and of the
/// calling thread (Linux).
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the clock id names a clock every Linux kernel since
    // 2.6.12 provides; on failure the call leaves `ts` zeroed.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time the calling thread has run, in nanoseconds: a clock that
/// stops while the host has the thread preempted.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time every thread of the process has run, exited ones included,
/// in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// A thread's CPU affinity mask (`cpu_set_t`: 1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuMask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl CpuMask {
    /// The calling thread's mask, or `None` if the kernel refuses it.
    pub fn current() -> Option<CpuMask> {
        let mut mask = CpuMask([0; 16]);
        // SAFETY: the pointer and size describe `mask.0`, which lives
        // and is writable for the whole call; pid 0 is the caller.
        let rc = unsafe { sched_getaffinity(0, 128, mask.0.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// The mask of `cpu` alone.
    pub fn only(cpu: usize) -> CpuMask {
        let mut mask = CpuMask([0; 16]);
        mask.0[cpu / 64] = 1 << (cpu % 64);
        mask
    }

    /// The CPUs in the mask, in order.
    pub fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|&c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Makes this the calling thread's mask; false if refused. Threads
    /// the caller starts afterwards inherit it.
    pub fn apply(&self) -> bool {
        // SAFETY: the pointer and size describe `self.0`, which lives
        // for the whole call; pid 0 is the caller.
        unsafe { sched_setaffinity(0, 128, self.0.as_ptr()) == 0 }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM:"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/*/stat` line.
/// The command name (field 2) may hold spaces, so fields are counted
/// from the closing parenthesis.
fn cpu_ticks(stat: &str) -> (u64, u64) {
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return (0, 0);
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let at = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0);
    // `rest` starts at field 3 (state), so field k sits at index k - 3.
    (at(14 - 3), at(15 - 3))
}

/// The numeric value after `key` in a `/proc/*/status` file.
fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn task_switches() -> (u64, u64) {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return (0, 0);
    };
    let mut sums = (0, 0);
    for task in tasks.flatten() {
        if let Ok(s) = fs::read_to_string(task.path().join("status")) {
            sums.0 += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0);
            sums.1 += status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    sums
}

/// The `Udp:` header/value line pair of `/proc/net/snmp` as a map.
fn udp_counters(snmp: &str) -> BTreeMap<String, u64> {
    let mut lines = snmp.lines().filter(|l| l.starts_with("Udp:"));
    let (Some(names), Some(values)) = (lines.next(), lines.next()) else {
        return BTreeMap::new();
    };
    names
        .split_whitespace()
        .skip(1)
        .zip(values.split_whitespace().skip(1))
        .filter_map(|(k, v)| Some((k.to_string(), v.parse().ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_masks_list_their_cpus() {
        assert_eq!(CpuMask::only(0).cpus(), vec![0]);
        assert_eq!(CpuMask::only(65).cpus(), vec![65]);
        let mine = CpuMask::current().expect("the kernel reports an affinity mask");
        assert!(!mine.cpus().is_empty());
    }

    #[test]
    fn parses_the_udp_block() {
        let snmp = "Tcp: RtoAlgorithm InErrs\nTcp: 1 9\n\
                    Udp: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors SndbufErrors\n\
                    Udp: 100 2 7 90 5 0\n\
                    UdpLite: InDatagrams NoPorts InErrors OutDatagrams RcvbufErrors\n\
                    UdpLite: 0 0 0 0 0\n";
        let c = udp_counters(snmp);
        assert_eq!(c["InErrors"], 7);
        assert_eq!(c["RcvbufErrors"], 5);
        assert_eq!(c.len(), 6);
    }

    #[test]
    fn parses_stat_times_past_a_spaced_command_name() {
        let stat = "42 (my prog) S 1 42 42 0 -1 4194560 100 0 0 0 250 31 0 0 20 0 9 0";
        assert_eq!(cpu_ticks(stat), (250, 31));
    }

    #[test]
    fn reads_this_process() {
        let a = sample();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let d = a.delta(&sample());
        assert!(d.wall_s > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }

    #[test]
    fn thread_cpu_clock_advances_with_work_not_with_sleep() {
        let t0 = thread_cpu_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = thread_cpu_ns() - t0;
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let worked = thread_cpu_ns() - t0 - slept;
        assert!(t0 > 0);
        assert!(slept < 20_000_000, "sleeping cost {slept} ns of CPU");
        assert!(worked > slept);
    }
}
