//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the one facility the workspace uses: [`channel`] —
//! multi-producer **multi-consumer** channels (std's mpsc receiver is not
//! cloneable; the fetch worker pool needs work-stealing consumption),
//! implemented with a mutex-guarded deque and condvars.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        /// Capacity bound; usize::MAX for unbounded channels.
        cap: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
        /// Signalled when an item arrives or the last sender leaves.
        not_empty: Condvar,
        /// Signalled when space frees up or the last receiver leaves.
        not_full: Condvar,
    }

    /// Sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// The channel is closed and empty.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// All receivers are gone; the unsent value is returned.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl<T: fmt::Debug> std::error::Error for SendError<T> {}

    /// Nothing available right now.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    /// Why a bounded-wait receive returned without a value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait elapsed with the channel still empty.
        Timeout,
        /// The channel is closed and empty.
        Disconnected,
    }

    /// A channel with unlimited buffering.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(usize::MAX)
    }

    /// A channel holding at most `cap` queued items; sends block when full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(cap.max(1))
    }

    fn with_capacity<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(shared.clone()), Receiver(shared))
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
                // Last sender: wake all blocked receivers so they observe
                // disconnection. The notify must happen with the queue
                // lock held: a receiver that already loaded `senders > 0`
                // holds the lock right up until `wait()` parks it, so
                // locking here delays the notify until that receiver is
                // parked (and can hear it). Notifying without the lock
                // races that check-then-park window and a receiver parks
                // forever on a channel nobody will ever signal again.
                let _queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
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
            if self.0.receivers.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Same check-then-park race as the Sender drop, for
                // senders blocked on a full bounded channel.
                let _queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if self.0.receivers.load(Ordering::SeqCst) == 0 {
                    return Err(SendError(value));
                }
                if queue.len() < self.0.cap {
                    queue.push_back(value);
                    drop(queue);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                queue = self
                    .0
                    .not_full
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                queue = self
                    .0
                    .not_empty
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }

        /// Blocks for the next value at most `timeout`; distinguishes an
        /// elapsed wait from a closed-and-drained channel so pollers can
        /// keep deadlines without busy-spinning.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(v) = queue.pop_front() {
                    drop(queue);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (q, _) = self
                    .0
                    .not_empty
                    .wait_timeout(queue, remaining)
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
            }
        }

        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut queue = self.0.queue.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(v) = queue.pop_front() {
                drop(queue);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator until the channel is closed and drained.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    /// Iterator over received values.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn mpmc_fan_out_fan_in() {
            let (tx, rx) = unbounded::<usize>();
            let (out_tx, out_rx) = unbounded::<usize>();
            std::thread::scope(|s| {
                for _ in 0..4 {
                    let rx = rx.clone();
                    let out = out_tx.clone();
                    s.spawn(move || {
                        while let Ok(v) = rx.recv() {
                            out.send(v * 2).unwrap();
                        }
                    });
                }
                drop(out_tx);
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
                drop(tx);
                drop(rx);
                let mut got: Vec<usize> = out_rx.iter().collect();
                got.sort_unstable();
                assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
            });
        }

        #[test]
        fn bounded_blocks_then_drains() {
            let (tx, rx) = bounded::<u32>(2);
            let h = std::thread::spawn(move || {
                for i in 0..10 {
                    tx.send(i).unwrap();
                }
            });
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            h.join().unwrap();
            assert_eq!(got, (0..10).collect::<Vec<_>>());
        }

        #[test]
        fn send_fails_without_receivers() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded::<u8>();
            let t0 = std::time::Instant::now();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
            tx.send(9).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(9));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_wakes_on_send_before_deadline() {
            let (tx, rx) = unbounded::<u8>();
            std::thread::scope(|s| {
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    tx.send(1).unwrap();
                });
                assert_eq!(rx.recv_timeout(std::time::Duration::from_secs(5)), Ok(1));
            });
        }

        #[test]
        fn recv_fails_when_closed_and_empty() {
            let (tx, rx) = unbounded::<u8>();
            tx.send(1).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        /// Regression stress for the disconnect lost-wakeup: the last
        /// sender's drop must not slip its notify into the window between
        /// a receiver's `senders > 0` check and its condvar park (the
        /// notify must be issued under the queue lock). On the buggy
        /// ordering a receiver parks forever, so the stress runs in a
        /// detached thread under a watchdog: a hang fails the test
        /// instead of wedging the suite.
        #[test]
        fn last_sender_drop_always_wakes_parked_receivers() {
            use std::sync::atomic::AtomicBool;
            use std::sync::Arc;

            let done = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&done);
            std::thread::spawn(move || {
                for i in 0..4000u32 {
                    let (tx, rx) = unbounded::<u8>();
                    let workers: Vec<_> = (0..3)
                        .map(|_| {
                            let rx = rx.clone();
                            std::thread::spawn(move || while rx.recv().is_ok() {})
                        })
                        .collect();
                    drop(rx);
                    // A burst keeps every receiver cycling pop → check →
                    // park while the disconnect lands; the drop is
                    // jittered so across iterations it hits every phase
                    // of that cycle, including the fatal check-then-park
                    // gap.
                    for _ in 0..24 {
                        tx.send(1).unwrap();
                    }
                    for _ in 0..(i % 61) {
                        std::hint::spin_loop();
                    }
                    drop(tx);
                    for w in workers {
                        w.join().unwrap();
                    }
                }
                flag.store(true, Ordering::SeqCst);
            });
            for _ in 0..600 {
                if done.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(100));
            }
            panic!("a receiver missed the last-sender disconnect and parked forever");
        }
    }
}
