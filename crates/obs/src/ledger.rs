//! Per-query resource accounting.
//!
//! A [`ResourceLedger`] answers "what did this one search actually
//! cost?" in units the latency histograms cannot: CPU time actually
//! scheduled (as opposed to wall time spent queued or blocked) and
//! allocator traffic. A search runs on one thread, which takes a
//! [`LedgerProbe`] reading at its start and reads its
//! [`delta`](LedgerProbe::delta) once, at its end. That one ledger
//! travels with the trace — into the trace header's `ledger`, the JSONL
//! event log, and the `X-Schemr-Cost` response header.
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
    cpu_us: u64,
    alloc_count: u64,
    alloc_bytes: u64,
}

impl LedgerProbe {
    /// Snapshot the calling thread's counters.
    pub fn start() -> LedgerProbe {
        LedgerProbe {
            cpu_us: thread_cpu_us(),
            alloc_count: thread_alloc_count(),
            alloc_bytes: thread_alloc_bytes(),
        }
    }

    /// Resources the calling thread spent since [`LedgerProbe::start`].
    /// Must be read on the same thread that started the probe.
    pub fn delta(&self) -> ResourceLedger {
        let now = LedgerProbe::start();
        ResourceLedger {
            cpu_us: now.cpu_us.saturating_sub(self.cpu_us),
            alloc_count: now.alloc_count.saturating_sub(self.alloc_count),
            alloc_bytes: now.alloc_bytes.saturating_sub(self.alloc_bytes),
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
}
