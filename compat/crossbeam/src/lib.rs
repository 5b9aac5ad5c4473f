//! Minimal offline stand-in for `crossbeam`: an MPMC unbounded channel
//! (clonable senders *and* receivers). Nothing here polls: a receiver
//! with nothing to take sleeps on the condvar, and `send` / the last
//! `Sender`'s drop pay the wake-up syscall only when the channel's
//! `waiting` count says a receiver is actually asleep.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Chan<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    struct State<T> {
        queue: VecDeque<T>,
        /// Receivers asleep on `ready`. Written only under the mutex
        /// (`+= 1` before the wait, `-= 1` after), so a sender that
        /// reads 0 under the same mutex knows nobody needs a wake-up.
        waiting: usize,
    }

    /// Sending half of an unbounded MPMC channel.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half of an unbounded MPMC channel.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// Error: all receivers dropped; returns the unsent value.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error: channel empty and all senders dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Result of a deadline-bounded receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with no message queued.
        Timeout,
        /// No message queued and all senders dropped.
        Disconnected,
    }

    /// Result of a non-blocking receive attempt.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// No message queued and all senders dropped.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                waiting: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::SeqCst) == 0 {
                return Err(SendError(value));
            }
            let mut st = self.0.state.lock().expect("channel poisoned");
            st.queue.push_back(value);
            let wake = st.waiting > 0;
            drop(st);
            if wake {
                self.0.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::SeqCst);
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
                // Wake blocked receivers so they observe disconnection.
                // The lock MUST be taken between the decrement and the
                // notify: a receiver that read `senders == 1` and is
                // about to sleep holds it, so locking here waits until
                // it is asleep (and counted in `waiting`) — otherwise
                // the notify lands in that window and is lost. Ignore
                // poisoning: `drop` must not panic.
                let wake = self.0.state.lock().map_or(true, |st| st.waiting > 0);
                if wake {
                    self.0.ready.notify_all();
                }
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvError);
                }
                st.waiting += 1;
                st = self.0.ready.wait(st).expect("channel poisoned");
                st.waiting -= 1;
            }
        }

        /// Blocks until a message arrives, every sender is gone, or
        /// `deadline` passes — the wait primitive behind the live
        /// runtime's client-side timeout timers.
        pub fn recv_deadline(&self, deadline: std::time::Instant) -> Result<T, RecvTimeoutError> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::SeqCst) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Err(RecvTimeoutError::Timeout);
                };
                st.waiting += 1;
                st = self
                    .0
                    .ready
                    .wait_timeout(st, remaining)
                    .expect("channel poisoned")
                    .0;
                st.waiting -= 1;
            }
        }

        /// [`Receiver::recv_deadline`] with a relative duration.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            self.recv_deadline(std::time::Instant::now() + timeout)
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.state.lock().expect("channel poisoned");
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if self.0.senders.load(Ordering::SeqCst) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.0.state.lock().expect("channel poisoned").queue.len()
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receivers currently asleep on this channel.
        #[cfg(test)]
        pub(crate) fn waiting(&self) -> usize {
            self.0.state.lock().expect("channel poisoned").waiting
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::SeqCst);
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.receivers.fetch_sub(1, Ordering::SeqCst);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Iterator over received messages (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;
        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;
        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvError, RecvTimeoutError};
    use std::sync::{Arc, Barrier};
    use std::time::{Duration, Instant};

    #[test]
    fn mpmc_round_trip_and_disconnect() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx2.recv(), Ok(2));
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn recv_deadline_times_out_and_delivers() {
        let (tx, rx) = unbounded::<u32>();
        // Empty channel with a live sender: the deadline fires.
        let t0 = Instant::now();
        assert_eq!(
            rx.recv_deadline(t0 + Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(t0.elapsed() >= Duration::from_millis(10));
        // A queued message is delivered without waiting out the deadline.
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(9));
        // All senders gone: disconnection, not a timeout.
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    /// Joins every handle, failing instead of hanging when one is still
    /// running at the bound.
    fn join_within<T>(handles: Vec<std::thread::JoinHandle<T>>, bound: Duration) -> Vec<T> {
        let deadline = Instant::now() + bound;
        while !handles.iter().all(|h| h.is_finished()) {
            assert!(Instant::now() < deadline, "a thread is still blocked");
            std::thread::sleep(Duration::from_millis(1));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// The last sender's drop must wake a receiver that has already
    /// decided to sleep: the decrement and the notify bracket the
    /// channel mutex, so the wake-up cannot land between the receiver's
    /// `senders` check and its wait.
    #[test]
    fn last_sender_drop_never_strands_a_blocked_receiver() {
        let rounds: Vec<_> = (0..2_000)
            .map(|_| {
                let (tx, rx) = unbounded::<u32>();
                // Line both sides up so the drop races the receiver's
                // way into its wait rather than preceding it.
                let start = Arc::new(Barrier::new(2));
                let receiver = {
                    let start = Arc::clone(&start);
                    std::thread::spawn(move || {
                        start.wait();
                        rx.recv()
                    })
                };
                start.wait();
                drop(tx);
                receiver
            })
            .collect();
        for got in join_within(rounds, Duration::from_secs(5)) {
            assert_eq!(got, Err(RecvError));
        }
    }

    #[test]
    fn waiting_count_returns_to_zero_and_unwaited_sends_are_kept() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.waiting(), 0, "a timed-out wait left itself counted");
        // Nobody waits, so this send skips the notify; a receiver that
        // arrives later must still find the message.
        tx.send(3).unwrap();
        assert_eq!(rx.waiting(), 0);
        let late = rx.clone();
        let got = join_within(
            vec![std::thread::spawn(move || late.recv())],
            Duration::from_secs(5),
        );
        assert_eq!(got, vec![Ok(3)]);
    }

    #[test]
    fn concurrent_senders_and_receivers_deliver_each_message_once() {
        const PER_SENDER: u64 = 10_000;
        let (tx, rx) = unbounded::<u64>();
        let receivers: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().collect::<Vec<u64>>())
            })
            .collect();
        drop(rx);
        let senders: Vec<_> = (0..4u64)
            .map(|s| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_SENDER {
                        tx.send(s * PER_SENDER + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        join_within(senders, Duration::from_secs(30));
        let mut got: Vec<u64> = join_within(receivers, Duration::from_secs(30))
            .into_iter()
            .flatten()
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..4 * PER_SENDER).collect::<Vec<u64>>());
    }
}
