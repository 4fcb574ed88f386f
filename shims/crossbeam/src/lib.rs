//! Offline stand-in for the `crossbeam` crate.
//!
//! Provides the `crossbeam::channel` subset this workspace uses —
//! [`channel::unbounded`] with cloneable senders and `recv_timeout` — on
//! top of `std::sync::mpsc::channel`, which allocates only as it fills.

pub mod channel {
    //! Unbounded MPSC channels with crossbeam's error vocabulary.

    use std::sync::mpsc;
    use std::time::Duration;

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(mpsc::Sender<T>);

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Error returned by [`Sender::send`] when the channel disconnected.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders are gone.
        Disconnected,
    }

    /// Creates a channel of unbounded capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (Sender(tx), Receiver(rx))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        /// Enqueues the message without blocking; fails only once every
        /// receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.0.send(msg).map_err(|mpsc::SendError(v)| SendError(v))
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives (or every sender is gone).
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }

        /// Blocks for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Receives without blocking, if a message is ready.
        pub fn try_recv(&self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn unbounded_roundtrip_in_order() {
        let (tx, rx) = unbounded::<u32>();
        (0..1000).for_each(|i| tx.send(i).unwrap());
        assert!((0..1000).all(|i| rx.recv().unwrap() == i));
        assert_eq!(rx.try_recv(), None);
        drop(rx);
        assert_eq!(tx.send(7), Err(SendError(7)), "no receiver: the message comes back");
    }

    #[test]
    fn recv_timeout_vocabulary() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Timeout));
        drop(tx);
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn senders_clone_across_threads() {
        let (tx, rx) = unbounded::<u64>();
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || tx.send(t).unwrap()));
        }
        drop(tx);
        let mut got = Vec::new();
        while let Ok(v) = rx.recv() {
            got.push(v);
        }
        for h in handles {
            h.join().unwrap();
        }
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
