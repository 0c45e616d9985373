//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The build environment has no network access, so external crates cannot be
//! fetched. This shim provides the `crossbeam::channel` API subset the
//! workspace uses: `bounded`/`unbounded` MPMC channels with disconnect
//! semantics, plus a two-arm `select!` macro. Channels are a `Mutex<VecDeque>`
//! with condvars — not lock-free like the real crate, but the pipeline moves
//! whole activation tensors per message, so channel overhead is negligible.

/// MPMC channels with `Sender`/`Receiver` endpoints and disconnect semantics.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, Weak};
    use std::time::{Duration, Instant};

    pub use crate::select;

    /// Sending failed because every `Receiver` was dropped. Returns the
    /// unsent message.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate, printable without requiring `T: Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Receiving failed because the channel is empty and every `Sender` was
    /// dropped.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Non-blocking receive outcome when no message was taken.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently has no messages but senders remain.
        Empty,
        /// Channel is empty and every `Sender` was dropped.
        Disconnected,
    }

    /// Bounded-wait receive outcome when no message was taken.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The deadline passed with the channel still empty.
        Timeout,
        /// Channel is empty and every `Sender` was dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    /// Non-blocking send outcome when the message was not enqueued; carries
    /// the message back like the real crate.
    #[derive(PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity right now.
        Full(T),
        /// Every `Receiver` was dropped.
        Disconnected(T),
    }

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "TrySendError::Full(..)"),
                TrySendError::Disconnected(_) => write!(f, "TrySendError::Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => write!(f, "sending on a full channel"),
                TrySendError::Disconnected(_) => write!(f, "sending on a disconnected channel"),
            }
        }
    }

    /// Wakeup latch shared between `select2` and the channels it watches.
    pub(crate) struct SelectSignal {
        fired: Mutex<bool>,
        cond: Condvar,
    }

    impl SelectSignal {
        fn new() -> Self {
            SelectSignal {
                fired: Mutex::new(false),
                cond: Condvar::new(),
            }
        }

        fn reset(&self) {
            *self.fired.lock().unwrap() = false;
        }

        pub(crate) fn notify(&self) {
            *self.fired.lock().unwrap() = true;
            self.cond.notify_all();
        }

        /// Waits until notified. The timeout is a belt-and-braces guard; the
        /// registration protocol re-checks readiness after registering, so a
        /// wakeup cannot be lost.
        fn wait(&self) {
            let guard = self.fired.lock().unwrap();
            let _unused = self
                .cond
                .wait_timeout_while(guard, Duration::from_millis(50), |fired| !*fired)
                .unwrap();
        }
    }

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        waiters: Vec<Weak<SelectSignal>>,
    }

    impl<T> Inner<T> {
        /// Wakes every registered `select` waiter; stale entries are pruned.
        fn notify_waiters(&mut self) {
            for w in self.waiters.drain(..) {
                if let Some(signal) = w.upgrade() {
                    signal.notify();
                }
            }
        }
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// The sending half of a channel. Cloneable; the channel disconnects for
    /// receivers when the last clone is dropped.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel. Cloneable; the channel disconnects
    /// for senders when the last clone is dropped.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates a channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` in-flight messages; `send`
    /// blocks while full. A capacity of zero is treated as one (the real
    /// crate's rendezvous semantics are not needed here).
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
                waiters: Vec::new(),
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Blocks until the message is enqueued, or returns it in
        /// `SendError` if every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
                if !full {
                    break;
                }
                inner = self.shared.not_full.wait(inner).unwrap();
            }
            inner.queue.push_back(value);
            inner.notify_waiters();
            self.shared.not_empty.notify_one();
            Ok(())
        }

        /// Non-blocking send: enqueues the message only if a slot is free
        /// right now, otherwise hands it back as `Full`/`Disconnected`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
                return Err(TrySendError::Full(value));
            }
            inner.queue.push_back(value);
            inner.notify_waiters();
            self.shared.not_empty.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                inner.notify_waiters();
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives, or returns `RecvError` once the
        /// channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.shared.not_empty.wait(inner).unwrap();
            }
        }

        /// Like [`Receiver::recv`], but gives up once `timeout` elapses with
        /// the channel still empty.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.shared.inner.lock().unwrap();
            loop {
                if let Some(value) = inner.queue.pop_front() {
                    self.shared.not_full.notify_one();
                    return Ok(value);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _timed_out) = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.shared.inner.lock().unwrap();
            match inner.queue.pop_front() {
                Some(value) => {
                    self.shared.not_full.notify_one();
                    Ok(value)
                }
                None if inner.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// True when `recv` would return without blocking (message queued or
        /// channel disconnected).
        fn is_ready(&self) -> bool {
            let inner = self.shared.inner.lock().unwrap();
            !inner.queue.is_empty() || inner.senders == 0
        }

        fn register_waiter(&self, signal: &Arc<SelectSignal>) {
            self.shared
                .inner
                .lock()
                .unwrap()
                .waiters
                .push(Arc::downgrade(signal));
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.inner.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                self.shared.not_full.notify_all();
            }
        }
    }

    /// Which arm of a two-channel `select!` fired, carrying the `recv`
    /// result for that channel.
    pub enum Select2<A, B> {
        /// The first channel produced a result.
        First(Result<A, RecvError>),
        /// The second channel produced a result.
        Second(Result<B, RecvError>),
    }

    thread_local! {
        /// Reusable per-thread wakeup latch for [`select2`]. A stale
        /// registration from an earlier call can only cause a spurious
        /// notify, which the re-polling loop absorbs — so reuse is safe and
        /// keeps the fast path (message already queued) allocation-free.
        static SELECT_SIGNAL: Arc<SelectSignal> = Arc::new(SelectSignal::new());
    }

    /// Blocks until either channel has a message or is disconnected, then
    /// receives from it. The first channel is polled first, matching the
    /// priority the pipeline wants (gradients before activations).
    pub fn select2<A, B>(a: &Receiver<A>, b: &Receiver<B>) -> Select2<A, B> {
        let mut signal = None;
        loop {
            match a.try_recv() {
                Ok(v) => return Select2::First(Ok(v)),
                Err(TryRecvError::Disconnected) => return Select2::First(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            match b.try_recv() {
                Ok(v) => return Select2::Second(Ok(v)),
                Err(TryRecvError::Disconnected) => return Select2::Second(Err(RecvError)),
                Err(TryRecvError::Empty) => {}
            }
            let signal = signal.get_or_insert_with(|| SELECT_SIGNAL.with(Arc::clone));
            signal.reset();
            a.register_waiter(signal);
            b.register_waiter(signal);
            // Re-check after registering so a send that raced ahead of the
            // registration cannot leave us sleeping on a ready channel.
            if a.is_ready() || b.is_ready() {
                continue;
            }
            signal.wait();
        }
    }
}

/// Two-arm `select!` over `recv` operations, mirroring the call syntax of
/// `crossbeam_channel::select!` for the cases this workspace uses. Each arm
/// binds the `Result<T, RecvError>` of a receive on its channel.
#[macro_export]
macro_rules! select {
    (recv($r1:expr) -> $m1:pat => $b1:block recv($r2:expr) -> $m2:pat => $b2:block $(,)?) => {
        $crate::select!(recv($r1) -> $m1 => $b1, recv($r2) -> $m2 => $b2,)
    };
    (recv($r1:expr) -> $m1:pat => $b1:block recv($r2:expr) -> $m2:pat => $b2:expr $(,)?) => {
        $crate::select!(recv($r1) -> $m1 => $b1, recv($r2) -> $m2 => $b2,)
    };
    (recv($r1:expr) -> $m1:pat => $b1:expr, recv($r2:expr) -> $m2:pat => $b2:expr $(,)?) => {
        match $crate::channel::select2(&$r1, &$r2) {
            $crate::channel::Select2::First($m1) => $b1,
            $crate::channel::Select2::Second($m2) => $b2,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::channel::{
        bounded, unbounded, RecvError, RecvTimeoutError, SendError, TryRecvError, TrySendError,
    };
    use std::thread;
    use std::time::{Duration, Instant};

    #[test]
    fn unbounded_fifo_roundtrip() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_errors_after_all_receivers_drop() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)));
    }

    #[test]
    fn bounded_send_applies_backpressure() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let handle = thread::spawn(move || {
            tx.send(3).unwrap(); // blocks until a slot frees up
            "sent"
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(handle.join().unwrap(), "sent");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn recv_blocks_until_message_arrives() {
        let (tx, rx) = unbounded();
        let handle = thread::spawn(move || rx.recv());
        thread::sleep(Duration::from_millis(20));
        tx.send(42u32).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(42));
    }

    #[test]
    fn select_takes_whichever_side_is_ready() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();

        tx_b.send(5).unwrap();
        let hit = crate::select! {
            recv(rx_a) -> msg => { let _ = msg; "a" },
            recv(rx_b) -> msg => { assert_eq!(msg, Ok(5)); "b" },
        };
        assert_eq!(hit, "b");

        tx_a.send(9).unwrap();
        let hit = crate::select! {
            recv(rx_a) -> msg => { assert_eq!(msg, Ok(9)); "a" },
            recv(rx_b) -> msg => { let _ = msg; "b" },
        };
        assert_eq!(hit, "a");
    }

    #[test]
    fn select_wakes_on_cross_thread_send() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (_tx_b, rx_b) = unbounded::<u32>();
        let handle = thread::spawn(move || {
            crate::select! {
                recv(rx_a) -> msg => msg.unwrap(),
                recv(rx_b) -> msg => { let _ = msg; unreachable!("b never sends") },
            }
        });
        thread::sleep(Duration::from_millis(20));
        tx_a.send(11).unwrap();
        assert_eq!(handle.join().unwrap(), 11);
    }

    #[test]
    fn recv_timeout_returns_timeout_then_message() {
        let (tx, rx) = unbounded::<u32>();
        let start = Instant::now();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(start.elapsed() >= Duration::from_millis(30));
        tx.send(4).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(30)), Ok(4));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(30)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn recv_timeout_wakes_on_cross_thread_send() {
        let (tx, rx) = unbounded::<u32>();
        let handle = thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        tx.send(8).unwrap();
        assert_eq!(handle.join().unwrap(), Ok(8));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()));
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));

        // Unbounded channels are never Full.
        let (tx, rx) = unbounded();
        for i in 0..100 {
            assert_eq!(tx.try_send(i), Ok(()));
        }
        drop(rx);
        assert_eq!(tx.try_send(100), Err(TrySendError::Disconnected(100)));
    }

    #[test]
    fn select_sees_disconnect() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();
        drop(tx_b);
        let hit = crate::select! {
            recv(rx_b) -> msg => { assert_eq!(msg, Err(RecvError)); "closed" },
            recv(rx_a) -> msg => { let _ = msg; "open" },
        };
        assert_eq!(hit, "closed");
        drop(tx_a);
    }
}
