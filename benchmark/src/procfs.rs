//! What the kernel knows about this process's threads: on-CPU and
//! run-queue time per thread (`schedstat`), process CPU time and peak
//! resident memory. Linux only; anything unreadable reads as zero.

use std::collections::BTreeMap;
use std::fs;

/// One thread's scheduler accounting, in nanoseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedStat {
    /// Time spent running on a CPU.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU.
    pub runq_ns: u64,
}

impl SchedStat {
    pub fn add(&mut self, o: SchedStat) {
        self.cpu_ns += o.cpu_ns;
        self.runq_ns += o.runq_ns;
    }

    /// `self - earlier`, saturating (a reused thread id can go backwards).
    pub fn since(self, earlier: SchedStat) -> SchedStat {
        SchedStat {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
        }
    }
}

/// Parse a `schedstat` line: `<on-cpu ns> <run-queue ns> <timeslices>`.
pub fn parse_schedstat(s: &str) -> Option<SchedStat> {
    let mut it = s.split_ascii_whitespace().map(|f| f.parse::<u64>());
    let cpu_ns = it.next()?.ok()?;
    let runq_ns = it.next()?.ok()?;
    Some(SchedStat { cpu_ns, runq_ns })
}

/// The calling thread's accounting.
pub fn thread_self() -> SchedStat {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| parse_schedstat(&s))
        .unwrap_or_default()
}

/// Every live thread of this process: id → (name, accounting).
pub type Tasks = BTreeMap<u32, (String, SchedStat)>;

/// Snapshot every live thread of this process.
pub fn tasks() -> Tasks {
    let mut out = Tasks::new();
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in dir.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let p = e.path();
        let name = fs::read_to_string(p.join("comm")).unwrap_or_default();
        let st = fs::read_to_string(p.join("schedstat"))
            .ok()
            .and_then(|s| parse_schedstat(&s))
            .unwrap_or_default();
        out.insert(tid, (name.trim_end().to_string(), st));
    }
    out
}

/// Accounting accrued between two snapshots by the threads `pick`
/// selects (by id and name). A thread born in between counts in full.
pub fn accrued(before: &Tasks, after: &Tasks, pick: impl Fn(u32, &str) -> bool) -> SchedStat {
    let mut sum = SchedStat::default();
    for (tid, (name, st)) in after {
        if pick(*tid, name) {
            let base = before.get(tid).map(|b| b.1).unwrap_or_default();
            sum.add(st.since(base));
        }
    }
    sum
}

/// User + system CPU seconds of the whole process, including threads
/// that have already exited (`/proc/self/stat` fields 14 and 15, in
/// the kernel's fixed 100 Hz clock ticks).
pub fn process_cpu_s() -> f64 {
    let Ok(s) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may contain spaces; fields resume after its ')'.
    let rest = s.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_ascii_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    // After ')' field 3 (state) is index 0, so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Host-wide CPU time as `(stolen, total)` clock ticks: time the
/// hypervisor ran someone else while this machine's CPUs wanted to run
/// (`/proc/stat` "steal"), and all accounted time.
pub fn host_ticks() -> (u64, u64) {
    let Ok(s) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let f: Vec<u64> = s
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_ascii_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    (f.get(7).copied().unwrap_or(0), f.iter().take(8).sum())
}

/// Share of host CPU time stolen by the hypervisor since `before`
/// (a [`host_ticks`] reading).
pub fn steal_frac_since(before: (u64, u64)) -> f64 {
    let (s1, t1) = host_ticks();
    let total = t1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        s1.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedstat_parser_reads_fixed_input() {
        assert_eq!(
            parse_schedstat("360004232 2808547 39\n"),
            Some(SchedStat {
                cpu_ns: 360_004_232,
                runq_ns: 2_808_547
            })
        );
        assert_eq!(parse_schedstat("12 x 3"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn accrued_counts_deltas_and_newborns() {
        let st = |c, r| SchedStat {
            cpu_ns: c,
            runq_ns: r,
        };
        let before: Tasks = [(1, ("main".into(), st(100, 10)))].into();
        let after: Tasks = [
            (1, ("main".into(), st(150, 12))),
            (2, ("fab-pool-0".into(), st(40, 4))),
        ]
        .into();
        assert_eq!(accrued(&before, &after, |_, _| true), st(90, 6));
        assert_eq!(
            accrued(&before, &after, |_, n| n.starts_with("fab-pool-")),
            st(40, 4)
        );
    }

    #[test]
    fn own_thread_and_process_are_visible() {
        let t0 = thread_self();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_self().cpu_ns >= t0.cpu_ns);
        assert!(tasks().contains_key(&std::process::id()));
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
