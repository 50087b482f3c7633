//! The host stamp every record carries, and the `/proc` readers behind the
//! memory and CPU metrics.

use std::process::Command;

/// Scheduler ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`,
/// 100 on every Linux/x86-64 build).
const USER_HZ: f64 = 100.0;

/// What the numbers of one run depend on besides the code.
pub fn stamp(seed: u64) -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let tiers: Vec<&str> = gcon_runtime::available_tiers().iter().map(|t| t.name()).collect();
    // Only the checkout's own `.git`: git would otherwise search the parent
    // directories and could report some enclosing repository's revision.
    let rev = Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("kernel_tiers_available", tiers.join(",")),
        ("kernel_tier_selected", gcon_runtime::kernel_tier().name().to_string()),
        ("gcon_threads_env", std::env::var("GCON_THREADS").unwrap_or_else(|_| "unset".into())),
        ("pool_width", gcon_runtime::configured_width().to_string()),
        ("git_revision", rev),
        ("workload_seed", seed.to_string()),
    ]
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU seconds process `pid` has used so far.
pub fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall, the 12th and 13th after the name.
    let rest = &stat[stat.rfind(')')? + 2..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / USER_HZ)
}

/// Steal and total jiffies of all CPUs so far (`/proc/stat`): time the
/// hypervisor ran something else while this VM's vCPUs wanted to run.
pub fn steal_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let fields: Vec<u64> = cpu.split_whitespace().map(|f| f.parse().ok()).collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        let before = cpu_seconds("self").expect("readable /proc/self/stat");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds("self").unwrap() >= before);
        let (steal, total) = steal_jiffies().expect("readable /proc/stat");
        assert!(steal <= total && total > 0);
        let stamp = stamp(3);
        assert!(stamp.iter().any(|(k, v)| *k == "workload_seed" && v == "3"));
    }
}
