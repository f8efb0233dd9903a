//! The counting allocator installed as this test binary's global
//! allocator, as `schemr-cli`, the e1 bench and the benchmark install it:
//! its counters count, per process and per thread, and a registry lookup
//! of a series that already exists allocates nothing.

use schemr_obs::alloc::{
    process_alloc_bytes, process_alloc_count, thread_alloc_bytes, thread_alloc_count, CountingAlloc,
};
use schemr_obs::{MetricsRegistry, LATENCY_BUCKETS};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn installed_allocator_counts_events_and_bytes() {
    let (c0, b0) = (process_alloc_count(), process_alloc_bytes());
    let (t0, tb0) = (thread_alloc_count(), thread_alloc_bytes());
    let v: Vec<u8> = Vec::with_capacity(4096);
    drop(std::hint::black_box(v));
    assert!(process_alloc_count() > c0, "process events counted");
    assert!(process_alloc_bytes() - b0 >= 4096, "process bytes counted");
    assert!(thread_alloc_count() > t0, "thread events counted");
    assert!(thread_alloc_bytes() - tb0 >= 4096, "thread bytes counted");
}

#[test]
fn thread_counters_are_thread_local() {
    let before = thread_alloc_count();
    let other = std::thread::spawn(|| {
        let before = thread_alloc_count();
        drop(std::hint::black_box(Vec::<u8>::with_capacity(1024)));
        thread_alloc_count() - before
    })
    .join()
    .unwrap();
    assert!(other > 0, "spawned thread saw its own allocations");
    // Another thread's traffic never shows up on this thread's counter
    // (it may have grown from the spawn itself).
    assert!(thread_alloc_count() >= before);
}

#[test]
fn looking_up_a_registered_series_allocates_nothing() {
    let registry = MetricsRegistry::new();
    let labels = [("route", "/search"), ("status", "200")];
    let route = [("route", "/search")];
    let counter = || registry.counter_with("requests_total", "Requests.", &labels);
    let histogram =
        || registry.histogram_with("request_seconds", "Latency.", &route, LATENCY_BUCKETS);
    let (c, h) = (counter(), histogram());
    let before = thread_alloc_count();
    let (c2, h2) = (counter(), histogram());
    assert_eq!(thread_alloc_count() - before, 0);
    assert!(std::sync::Arc::ptr_eq(&c, &c2));
    assert!(std::sync::Arc::ptr_eq(&h, &h2));
    // Labels out of order find the same series, through an owned key.
    let swapped = [("status", "200"), ("route", "/search")];
    let c3 = registry.counter_with("requests_total", "Requests.", &swapped);
    assert!(std::sync::Arc::ptr_eq(&c, &c3));
}
