//! Process and per-thread counters read from `/proc/self`.

use std::collections::HashMap;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICK_NS: f64 = 1e9 / 100.0;

/// `utime + stime` in ns from the text of a `stat` file, and the thread
/// name inside its parentheses.
fn parse_stat(text: &str) -> Option<(String, f64)> {
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let name = text[open + 1..close].to_string();
    let fields: Vec<&str> = text[close + 1..].split_whitespace().collect();
    // Fields after the name start at field 3 (state); utime and stime
    // are fields 14 and 15.
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((name, (utime + stime) * TICK_NS))
}

/// Whole-process user+sys CPU in ns, exited threads included.
pub fn process_cpu_ns() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|t| parse_stat(&t))
        .map_or(0.0, |(_, ns)| ns)
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Thread group a thread name belongs to.
pub fn thread_group(name: &str) -> &'static str {
    if name.starts_with("datacell-sched") {
        "scheduler"
    } else if name.starts_with("datacell-worker") {
        "worker"
    } else if name.starts_with("emitter") {
        "emitter"
    } else if name.starts_with("datacell-net") || name.starts_with("receptor") {
        "net"
    } else if name.starts_with("perfbench") {
        "gen"
    } else {
        "other"
    }
}

/// Groups reported per tuple; threads of no group are counted as `other`.
pub const THREAD_GROUPS: [&str; 5] = ["gen", "scheduler", "worker", "emitter", "net"];

/// CPU ns of every live thread, by thread id, with its group.
pub fn thread_cpu() -> HashMap<u32, (&'static str, f64)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        if let Some((name, ns)) = std::fs::read_to_string(entry.path().join("stat"))
            .ok()
            .and_then(|t| parse_stat(&t))
        {
            out.insert(tid, (thread_group(&name), ns));
        }
    }
    out
}

/// CPU ns per thread group spent between two [`thread_cpu`] readings.
/// Threads that exited in between are lost, so take both readings while
/// the engine's threads are alive.
pub fn thread_cpu_delta(
    before: &HashMap<u32, (&'static str, f64)>,
    after: &HashMap<u32, (&'static str, f64)>,
) -> HashMap<&'static str, f64> {
    let mut out = HashMap::new();
    for (tid, (group, ns)) in after {
        let base = before.get(tid).map_or(0.0, |(_, b)| *b);
        *out.entry(*group).or_insert(0.0) += ns - base;
    }
    out
}

/// Machine-wide CPU ticks from the first line of `/proc/stat`: (steal,
/// all). Steal is time a virtual CPU was ready to run but the hypervisor
/// ran something else; the engine cannot cause it.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    parse_host_ticks(stat.lines().next().unwrap_or(""))
}

fn parse_host_ticks(cpu_line: &str) -> (u64, u64) {
    // user nice system idle iowait irq softirq steal (guest time is
    // already inside user and nice).
    let ticks: Vec<u64> = cpu_line
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Live threads of this process.
pub fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_name() {
        let line = "42 (emitter-emit q) S 1 2 3 4 5 6 7 8 9 10 250 30 0 0 20 0";
        let (name, ns) = parse_stat(line).unwrap();
        assert_eq!(name, "emitter-emit q");
        assert_eq!(ns, 280.0 * TICK_NS);
        assert_eq!(thread_group(&name), "emitter");
    }

    #[test]
    fn parses_host_steal() {
        let line = "cpu  2045527 0 615260 3327404 1232 0 17288 64852 0 0";
        assert_eq!(
            parse_host_ticks(line),
            (64852, 2045527 + 615260 + 3327404 + 1232 + 17288 + 64852)
        );
        assert_eq!(parse_host_ticks(""), (0, 0));
    }

    #[test]
    fn reads_own_process() {
        assert!(peak_rss_mb() > 0.0);
        assert!(thread_count() >= 1);
        assert!(!thread_cpu().is_empty());
    }
}
