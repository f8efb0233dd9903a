//! Per-query resource accounting.
//!
//! A [`ResourceLedger`] answers "what did this one search actually
//! cost?" in units the latency histograms cannot: CPU time actually
//! scheduled (as opposed to wall time spent queued or blocked) and
//! allocator traffic. A search runs on one thread, which takes a
//! [`LedgerProbe`] reading at its start and at each phase boundary; the
//! difference of two readings ([`LedgerProbe::until`]) is what the span
//! between them cost. The whole search's ledger travels with the trace —
//! into the root span's annotations, the JSONL event log, and the
//! `X-Schemr-Cost` response header.
//!
//! CPU time comes from `clock_gettime(CLOCK_THREAD_CPUTIME_ID)` — a
//! direct `extern "C"` call into the libc that std already links, so the
//! crate stays dependency-free. Non-unix targets read 0. Allocation
//! counters come from [`crate::alloc`] and read 0 unless a counting
//! allocator is installed.

use crate::alloc::{thread_alloc_bytes, thread_alloc_count};

/// CPU time consumed by the calling thread, in microseconds.
///
/// Returns 0 on targets without `CLOCK_THREAD_CPUTIME_ID`.
pub fn thread_cpu_us() -> u64 {
    #[cfg(unix)]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = if cfg!(target_os = "macos") { 16 } else { 3 };
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: ts is a valid, writable C-layout timespec.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        if rc == 0 {
            (ts.tv_sec as u64).saturating_mul(1_000_000) + (ts.tv_nsec as u64) / 1_000
        } else {
            0
        }
    }
    #[cfg(not(unix))]
    {
        0
    }
}

/// Wall cost of one `thread_cpu_us()` call on this machine, measured
/// once per process. On bare metal the thread-CPU clock is a few hundred
/// nanoseconds; under syscall-intercepting sandboxes (gVisor, qemu-user,
/// some seccomp setups) it is tens of microseconds because it can never
/// be a vDSO read. Probing policy keys off this so per-query accounting
/// stays cheap everywhere instead of fast on the developer's laptop and
/// 10% of a query in production sandboxes.
pub fn thread_clock_cost() -> std::time::Duration {
    static COST: std::sync::OnceLock<std::time::Duration> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        const CALLS: u32 = 16;
        let start = std::time::Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(thread_cpu_us());
        }
        start.elapsed() / CALLS
    })
}

/// How deeply a query reads the thread-CPU clock. Allocation counters
/// are thread-local cell reads and are always collected; only the clock
/// — a real syscall — is rationed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuProbeDepth {
    /// Clock reads at the root and at every phase boundary — complete
    /// attribution.
    Full,
    /// Clock reads at the root only (2 per query). Phase spans still
    /// carry allocation deltas, but their `cpu_us` stays 0.
    RootOnly,
}

impl CpuProbeDepth {
    /// Per-call cost under which [`Self::measured`] picks `Full`.
    pub const FULL_BUDGET: std::time::Duration = std::time::Duration::from_micros(3);

    /// The depth this machine affords: `Full` when a clock read costs at
    /// most [`Self::FULL_BUDGET`] ([`thread_clock_cost`]), otherwise
    /// `RootOnly`.
    pub fn measured() -> CpuProbeDepth {
        if thread_clock_cost() <= Self::FULL_BUDGET {
            CpuProbeDepth::Full
        } else {
            CpuProbeDepth::RootOnly
        }
    }
}

/// What one search cost on the thread that ran it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ResourceLedger {
    /// Scheduled CPU time in microseconds.
    pub cpu_us: u64,
    /// Allocation events (alloc/alloc_zeroed/realloc calls).
    pub alloc_count: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
}

impl ResourceLedger {
    /// True when nothing was recorded (e.g. tracing disabled).
    pub fn is_zero(&self) -> bool {
        *self == ResourceLedger::default()
    }

    /// Compact `k=v;…` form for the `X-Schemr-Cost` response header.
    pub fn header_value(&self, wall_us: u64) -> String {
        format!(
            "wall_us={wall_us};cpu_us={};alloc={};alloc_bytes={}",
            self.cpu_us, self.alloc_count, self.alloc_bytes
        )
    }
}

/// A point-in-time reading of the calling thread's resource counters.
/// Take one at the start of a unit of work; [`LedgerProbe::delta`] at the
/// end yields that thread's contribution to the request ledger.
#[derive(Debug, Clone, Copy)]
pub struct LedgerProbe {
    /// `None` when this probe was opened without CPU accounting — the
    /// delta's `cpu_us` is then 0 by construction, not "really fast".
    cpu_us: Option<u64>,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl LedgerProbe {
    /// Snapshot the calling thread's counters, including the CPU clock.
    pub fn start() -> LedgerProbe {
        Self::start_with_cpu(true)
    }

    /// Snapshot the calling thread's counters; read the CPU clock only
    /// when `cpu` is set. Allocation counters are always read — they are
    /// plain thread-local loads, orders of magnitude cheaper than the
    /// clock syscall that [`CpuProbeDepth`] rations.
    pub fn start_with_cpu(cpu: bool) -> LedgerProbe {
        LedgerProbe {
            cpu_us: cpu.then(thread_cpu_us),
            alloc_count: thread_alloc_count(),
            alloc_bytes: thread_alloc_bytes(),
        }
    }

    /// Resources the calling thread spent since [`LedgerProbe::start`].
    /// Must be read on the same thread that started the probe.
    pub fn delta(&self) -> ResourceLedger {
        self.until(&LedgerProbe::start_with_cpu(self.cpu_us.is_some()))
    }

    /// Resources spent between this reading and a `later` one taken on
    /// the same thread. `cpu_us` is 0 unless both read the CPU clock.
    pub fn until(&self, later: &LedgerProbe) -> ResourceLedger {
        ResourceLedger {
            cpu_us: match (self.cpu_us, later.cpu_us) {
                (Some(start), Some(end)) => end.saturating_sub(start),
                _ => 0,
            },
            alloc_count: later.alloc_count.saturating_sub(self.alloc_count),
            alloc_bytes: later.alloc_bytes.saturating_sub(self.alloc_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_advances_under_load() {
        let before = thread_cpu_us();
        // Burn a little CPU; volatile-ish accumulator defeats constant
        // folding.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        assert!(std::hint::black_box(acc) != 1);
        let after = thread_cpu_us();
        assert!(after >= before);
        #[cfg(unix)]
        assert!(after > before, "2M multiplies must consume CPU time");
    }

    #[test]
    fn cpu_time_is_per_thread() {
        // A sleeping thread accrues (nearly) no CPU while a spinning
        // sibling does — the clock must not be process-wide.
        let spin = std::thread::spawn(|| {
            let p = LedgerProbe::start();
            let mut acc = 0u64;
            for i in 0..4_000_000u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(acc);
            p.delta().cpu_us
        });
        let idle_probe = LedgerProbe::start();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let idle = idle_probe.delta().cpu_us;
        let spun = spin.join().unwrap();
        #[cfg(unix)]
        assert!(
            spun > idle || spun > 1_000,
            "spinner ({spun}µs) should out-consume sleeper ({idle}µs)"
        );
        let _ = (spun, idle);
    }

    #[test]
    fn ledger_renders_the_cost_header() {
        assert!(ResourceLedger::default().is_zero());
        let ledger = ResourceLedger {
            cpu_us: 200,
            alloc_count: 10,
            alloc_bytes: 5120,
        };
        assert!(!ledger.is_zero());
        assert_eq!(
            ledger.header_value(950),
            "wall_us=950;cpu_us=200;alloc=10;alloc_bytes=5120"
        );
    }

    #[test]
    fn probe_delta_never_underflows() {
        let p = LedgerProbe::start();
        let d = p.delta();
        assert!(d.cpu_us < 1_000_000, "fresh probe delta is small: {d:?}");
    }

    #[test]
    fn cpu_free_probe_reads_zero_cpu() {
        let p = LedgerProbe::start_with_cpu(false);
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(acc);
        assert_eq!(p.delta().cpu_us, 0, "no clock read, no cpu delta");
        // Between two readings, the clock counts only if both read it.
        let end = LedgerProbe::start_with_cpu(false);
        assert_eq!(LedgerProbe::start().until(&end).cpu_us, 0);
        assert_eq!(end.until(&LedgerProbe::start()).cpu_us, 0);
    }

    #[test]
    fn measured_depth_follows_the_clock_cost() {
        let expected = if thread_clock_cost() <= CpuProbeDepth::FULL_BUDGET {
            CpuProbeDepth::Full
        } else {
            CpuProbeDepth::RootOnly
        };
        assert_eq!(CpuProbeDepth::measured(), expected);
        // The calibration itself is memoized and consistent.
        assert_eq!(thread_clock_cost(), thread_clock_cost());
    }
}
