//! A bounded ring buffer for completed request traces.
//!
//! Writers claim slots with a single `fetch_add` on an atomic cursor, so
//! concurrent searches never contend on a shared lock for the whole
//! buffer — only on the one slot they're overwriting (a short per-slot
//! `RwLock` write). Readers snapshot slots newest-first without blocking
//! writers on other slots. Capacity is fixed at construction; the buffer
//! retains the last `capacity` pushes and silently drops older entries.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::memsize::DeepSize;

/// Fixed-capacity concurrent ring of `Arc<T>` entries.
#[derive(Debug)]
pub struct Ring<T> {
    slots: Vec<RwLock<Option<Arc<T>>>>,
    /// Total number of pushes ever; `cursor % capacity` is the next slot.
    cursor: AtomicUsize,
}

impl<T> Ring<T> {
    /// A ring retaining the last `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            slots: (0..capacity).map(|_| RwLock::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }

    /// Number of entries currently retained.
    pub fn len(&self) -> usize {
        self.cursor.load(Ordering::Acquire).min(self.slots.len())
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.cursor.load(Ordering::Acquire) == 0
    }

    /// Append an entry, evicting the oldest once full.
    pub fn push(&self, value: Arc<T>) {
        let seq = self.cursor.fetch_add(1, Ordering::AcqRel);
        let slot = seq % self.slots.len();
        *self.slots[slot].write().expect("ring slot") = Some(value);
    }

    /// Up to `limit` most recent entries, newest first.
    pub fn recent(&self, limit: usize) -> Vec<Arc<T>> {
        let seq = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len();
        let available = seq.min(cap).min(limit);
        let mut out = Vec::with_capacity(available);
        for back in 1..=available {
            let slot = (seq - back) % cap;
            if let Some(entry) = self.slots[slot].read().expect("ring slot").as_ref() {
                out.push(Arc::clone(entry));
            }
        }
        out
    }

    /// First retained entry matching `pred`, scanning newest first.
    pub fn find(&self, pred: impl Fn(&T) -> bool) -> Option<Arc<T>> {
        let seq = self.cursor.load(Ordering::Acquire);
        let cap = self.slots.len();
        for back in 1..=seq.min(cap) {
            let slot = (seq - back) % cap;
            let guard = self.slots[slot].read().expect("ring slot");
            if let Some(entry) = guard.as_ref() {
                if pred(entry) {
                    return Some(Arc::clone(entry));
                }
            }
        }
        None
    }
}

impl<T: DeepSize> DeepSize for Ring<T> {
    /// The slot table at capacity plus every retained entry's payload
    /// (each behind an `Arc` with its two refcounts). Takes each slot's
    /// read lock briefly; writers on other slots are unaffected.
    fn deep_size_of_children(&self) -> usize {
        let mut bytes = self.slots.capacity() * std::mem::size_of::<RwLock<Option<Arc<T>>>>();
        for slot in &self.slots {
            if let Some(entry) = slot.read().expect("ring slot").as_ref() {
                bytes += 2 * std::mem::size_of::<usize>() + entry.as_ref().deep_size_of();
            }
        }
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_last_n_newest_first() {
        let ring = Ring::new(3);
        assert!(ring.is_empty());
        for i in 0..5u32 {
            ring.push(Arc::new(i));
        }
        assert_eq!(ring.len(), 3);
        let recent: Vec<u32> = ring.recent(10).iter().map(|v| **v).collect();
        assert_eq!(recent, vec![4, 3, 2]);
        let limited: Vec<u32> = ring.recent(2).iter().map(|v| **v).collect();
        assert_eq!(limited, vec![4, 3]);
    }

    #[test]
    fn find_scans_newest_first() {
        let ring = Ring::new(4);
        for i in 0..4u32 {
            ring.push(Arc::new(i));
        }
        assert_eq!(ring.find(|v| v % 2 == 1).map(|v| *v), Some(3));
        assert_eq!(ring.find(|v| *v == 0).map(|v| *v), Some(0));
        assert_eq!(ring.find(|v| *v == 9), None);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let ring = Ring::new(0);
        ring.push(Arc::new(7u32));
        ring.push(Arc::new(8u32));
        assert_eq!(ring.recent(5).len(), 1);
    }

    #[test]
    fn concurrent_pushes_keep_exactly_capacity() {
        let ring = Arc::new(Ring::new(8));
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let ring = Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..100u32 {
                        ring.push(Arc::new(t * 1000 + i));
                    }
                });
            }
        });
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.recent(100).len(), 8);
    }
}
