//! Offline shim for `crossbeam`: the one piece Schemr uses.
//!
//! [`channel`] — a bounded MPMC channel (`bounded`) with
//! `try_send`/`recv` semantics matching crossbeam-channel: cloneable
//! senders *and* receivers, `TrySendError::Full` carrying the rejected
//! value back, and disconnection when either side's last handle drops.
//!
//! (Scoped threads are `std::thread::scope` at the call site.)

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: Mutex<VecDeque<T>>,
        not_empty: Condvar,
        capacity: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error for `try_send`: the channel is full or has no receivers.
    /// Carries the value back so callers can recover it (load shedding
    /// uses this to answer the rejected connection).
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        Full(T),
        Disconnected(T),
    }

    #[derive(Debug, PartialEq, Eq)]
    pub enum SendError<T> {
        Disconnected(T),
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        Timeout,
        Disconnected,
    }

    pub struct Sender<T>(Arc<Inner<T>>);

    pub struct Receiver<T>(Arc<Inner<T>>);

    /// A bounded channel holding at most `cap` queued values.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            queue: Mutex::new(VecDeque::with_capacity(cap.min(1024))),
            not_empty: Condvar::new(),
            capacity: cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(inner.clone()), Receiver(inner))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Last sender gone: wake blocked receivers so they can
                // observe disconnection.
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> Sender<T> {
        /// Non-blocking send: `Full` bounces the value back immediately
        /// when the queue is at capacity.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            let mut q = self.0.queue.lock().expect("channel lock");
            if q.len() >= self.0.capacity {
                return Err(TrySendError::Full(value));
            }
            q.push_back(value);
            drop(q);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Blocking send (spins on a short park when full; the serving
        /// path never uses this under load — it sheds via `try_send`).
        pub fn send(&self, mut value: T) -> Result<(), SendError<T>> {
            loop {
                match self.try_send(value) {
                    Ok(()) => return Ok(()),
                    Err(TrySendError::Disconnected(v)) => return Err(SendError::Disconnected(v)),
                    Err(TrySendError::Full(v)) => {
                        value = v;
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
            }
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().expect("channel lock").len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive; errors once the queue is drained and every
        /// sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.0.queue.lock().expect("channel lock");
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                q = self.0.not_empty.wait(q).expect("channel lock");
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.0.queue.lock().expect("channel lock");
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut q = self.0.queue.lock().expect("channel lock");
            loop {
                if let Some(v) = q.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, res) = self
                    .0
                    .not_empty
                    .wait_timeout(q, deadline - now)
                    .expect("channel lock");
                q = guard;
                if res.timed_out() && q.is_empty() {
                    if self.0.senders.load(Ordering::SeqCst) == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        pub fn len(&self) -> usize {
            self.0.queue.lock().expect("channel lock").len()
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, TrySendError};

    #[test]
    fn bounded_channel_sheds_when_full() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
    }

    #[test]
    fn receivers_drain_then_disconnect() {
        let (tx, rx) = bounded(4);
        tx.try_send("a").unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok("a"));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn cloned_receivers_share_the_queue() {
        let (tx, rx) = bounded(8);
        let rx2 = rx.clone();
        let h = std::thread::spawn(move || rx2.recv().unwrap());
        tx.try_send(42u32).unwrap();
        let got = h.join().unwrap();
        assert_eq!(got, 42);
        drop(rx);
        assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
    }
}
