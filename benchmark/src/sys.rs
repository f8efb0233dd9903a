//! What the operating system knows about this process and this machine:
//! CPU time, peak resident memory, and the fingerprint a result is only
//! comparable within.

use std::time::{Duration, Instant};

use schemr_obs::alloc::process_alloc_count;

/// Linux reports process times in clock ticks of 1/100 s on every
/// platform this repo builds on.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process has been scheduled for
/// (`/proc/self/stat` fields 14 and 15). 0 when procfs is unreadable.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from after its closing parenthesis, where field 3 comes first.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / TICKS_PER_SECOND
}

/// Peak resident set size in MiB (`VmHWM`). 0 when procfs is unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Wall time, CPU time and allocation count accumulated over the timed
/// stretches of a run; `pause`/`resume` cut out work that is not part of
/// the measurement (verification between two timed stages).
pub struct Meter {
    wall: Duration,
    cpu_s: f64,
    allocs: u64,
    open: Option<(Instant, f64, u64)>,
}

impl Meter {
    /// A running meter.
    pub fn start() -> Meter {
        let mut m = Meter {
            wall: Duration::ZERO,
            cpu_s: 0.0,
            allocs: 0,
            open: None,
        };
        m.resume();
        m
    }

    /// Start (or restart) accumulating.
    pub fn resume(&mut self) {
        self.open = Some((Instant::now(), cpu_seconds(), process_alloc_count()));
    }

    /// Stop accumulating until the next `resume`.
    pub fn pause(&mut self) {
        if let Some((t, cpu, allocs)) = self.open.take() {
            self.wall += t.elapsed();
            self.cpu_s += cpu_seconds() - cpu;
            self.allocs += process_alloc_count() - allocs;
        }
    }

    /// Timed wall so far, including an open stretch.
    pub fn wall(&self) -> Duration {
        self.wall + self.open.map_or(Duration::ZERO, |(t, _, _)| t.elapsed())
    }

    /// Totals of the closed stretches: `(wall seconds, cpu seconds, allocations)`.
    pub fn totals(&self) -> (f64, f64, u64) {
        (self.wall.as_secs_f64(), self.cpu_s, self.allocs)
    }
}

/// The machine and commit a result belongs to.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub git_rev: String,
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Fingerprint {
    /// Read it from procfs and, when the checkout is a git repository,
    /// from git.
    pub fn read() -> Fingerprint {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                let line = info.lines().find(|l| l.starts_with("model name"))?;
                Some(line.split_once(':')?.1.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        let git_rev = std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
            );
        Fingerprint {
            nproc: nproc(),
            cpu_model,
            kernel,
            git_rev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readers_return_plausible_values() {
        // Burn a little CPU so the tick counter has something to show.
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn meter_excludes_paused_stretches() {
        let mut m = Meter::start();
        std::thread::sleep(Duration::from_millis(20));
        m.pause();
        std::thread::sleep(Duration::from_millis(300));
        m.resume();
        std::thread::sleep(Duration::from_millis(20));
        m.pause();
        let (wall, _, _) = m.totals();
        // Both timed sleeps are in, the 300 ms pause is not.
        assert!((0.04..0.3).contains(&wall), "wall {wall}");
    }
}
