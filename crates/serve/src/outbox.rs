//! Per-connection outbox for server-pushed frames, and the claim on the
//! connection's write side.
//!
//! Streaming pulls need the server to hand a frame to a connection that
//! is not currently asking for one. With no async runtime, each
//! connection owns an [`Outbox`] — a condvar-guarded queue of encoded
//! frames. Producers (whichever thread flushes a shard, the request
//! handler) push; the connection's writer (a dedicated thread on TCP,
//! the poll loop on loopback/DES) drains. The queue carries *encoded*
//! frames so the encoding cost is paid once even when a batch fans out
//! to many subscribers.
//!
//! On TCP two threads write to one socket: the connection's reader, which
//! writes the reply to the request it just handled, and the writer
//! thread, which writes what was queued. The outbox's **write claim**
//! keeps their bytes apart and in outbox order. At most one
//! [`WriteClaim`] exists at a time, and whoever holds it owns the
//! socket's write side until it drops:
//!
//! * the reader gets one from [`Outbox::try_claim`] only while nothing
//!   is queued, nobody is writing and the outbox is open — its reply is
//!   then the next frame in outbox order, and it writes it itself with no
//!   thread woken; when the claim fails it queues the reply like any
//!   other producer;
//! * the writer gets one from [`Outbox::claim_next`] in the same critical
//!   section that pops the frame it is for, so there is no instant at
//!   which a popped frame is unwritten and the claim free.
//!
//! The claim is a flag under the outbox mutex, not the mutex: no lock is
//! held across a socket write, and producers never wait for the socket.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Interior state guarded by the outbox mutex.
struct State {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
    /// A [`WriteClaim`] is live.
    writing: bool,
}

/// A condvar-guarded queue of encoded frames bound for one connection.
pub struct Outbox {
    state: Mutex<State>,
    cv: Condvar,
}

/// Ownership of the connection's write side; released on drop.
pub(crate) struct WriteClaim<'a> {
    outbox: &'a Outbox,
    /// Taken by the reader ([`Outbox::try_claim`]), so the writer may be
    /// asleep behind it. The writer's own claim wakes nobody: only the
    /// writer waits in `claim_next`.
    by_reader: bool,
}

impl Drop for WriteClaim<'_> {
    fn drop(&mut self) {
        // A poisoned lock means a producer panicked; the flag is still
        // valid, and `Drop` must not panic in its turn.
        let mut st = self.outbox.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        st.writing = false;
        let writer_has_work = !st.frames.is_empty() || st.closed;
        drop(st);
        // The writer may have been woken for a frame (or the close) while
        // the reader's claim was out and gone back to sleep behind it. With
        // nothing queued it sleeps for a frame, and `push_frame` wakes it.
        if self.by_reader && writer_has_work {
            self.outbox.cv.notify_all();
        }
    }
}

impl Default for Outbox {
    fn default() -> Self {
        Self::new()
    }
}

impl Outbox {
    /// Creates an empty, open outbox.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            state: Mutex::new(State { frames: VecDeque::new(), closed: false, writing: false }),
            cv: Condvar::new(),
        }
    }

    /// Enqueues one encoded frame and wakes the writer. Frames pushed
    /// after [`close`](Self::close) are dropped.
    pub(crate) fn push_frame(&self, frame: Vec<u8>) {
        let mut st = self.state.lock().expect("outbox lock");
        if st.closed {
            return;
        }
        st.frames.push_back(frame);
        drop(st);
        self.cv.notify_all();
    }

    /// Pops the next frame without blocking or claiming; for connections
    /// with no socket behind them (loopback), where the caller's poll is
    /// the only consumer.
    pub(crate) fn try_next(&self) -> Option<Vec<u8>> {
        self.state.lock().expect("outbox lock").frames.pop_front()
    }

    /// The connection reader's claim: granted only when a frame written
    /// now is next in outbox order — nothing queued, nobody writing, the
    /// outbox open. Never blocks; on `None` the reply goes through
    /// [`push_frame`](Self::push_frame) (which drops it after a close, as
    /// it always has).
    pub(crate) fn try_claim(&self) -> Option<WriteClaim<'_>> {
        let mut st = self.state.lock().expect("outbox lock");
        if st.writing || st.closed || !st.frames.is_empty() {
            return None;
        }
        st.writing = true;
        Some(WriteClaim { outbox: self, by_reader: true })
    }

    /// The writer thread's claim: blocks until a frame is queued and the
    /// write side is free, then pops the frame and takes the claim in one
    /// step. `None` once the outbox has closed and drained (frames queued
    /// before the close are still handed out).
    pub(crate) fn claim_next(&self) -> Option<(Vec<u8>, WriteClaim<'_>)> {
        let mut st = self.state.lock().expect("outbox lock");
        while st.writing || (st.frames.is_empty() && !st.closed) {
            st = self.cv.wait(st).expect("outbox lock");
        }
        let frame = st.frames.pop_front()?;
        st.writing = true;
        Some((frame, WriteClaim { outbox: self, by_reader: false }))
    }

    /// Marks the outbox finished and wakes any blocked writer. Already
    /// queued frames stay drainable; new pushes are dropped.
    pub(crate) fn close(&self) {
        // As in `WriteClaim::drop`: a panicking reader's unwind calls this,
        // and it must not panic in its turn.
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    /// Long enough for a spawned thread to reach its wait. The tests
    /// below hold in either order; the pause only steers them onto the
    /// blocked path they are about.
    const SETTLE: Duration = Duration::from_millis(20);

    /// Runs `claim_next` to exhaustion on another thread, reporting each
    /// frame once its claim is released.
    fn spawn_writer(o: &Arc<Outbox>) -> (mpsc::Receiver<Vec<u8>>, std::thread::JoinHandle<()>) {
        let (tx, rx) = mpsc::channel();
        let o = Arc::clone(o);
        let handle = std::thread::spawn(move || {
            while let Some((frame, claim)) = o.claim_next() {
                drop(claim);
                tx.send(frame).expect("test is listening");
            }
        });
        (rx, handle)
    }

    #[test]
    fn frames_drain_in_order() {
        let o = Outbox::new();
        o.push_frame(vec![1]);
        o.push_frame(vec![2]);
        assert_eq!(o.try_next(), Some(vec![1]));
        assert_eq!(o.try_next(), Some(vec![2]));
        assert_eq!(o.try_next(), None);
    }

    #[test]
    fn close_wakes_a_blocked_waiter_and_drops_new_pushes() {
        let o = Arc::new(Outbox::new());
        let (rx, writer) = spawn_writer(&o);
        std::thread::sleep(SETTLE);
        o.close();
        // No timeout in `claim_next`: only the close's notify ends it.
        writer.join().expect("writer exits");
        assert!(rx.try_recv().is_err(), "nothing was queued");
        o.push_frame(vec![9]);
        assert_eq!(o.try_next(), None);
    }

    #[test]
    fn queued_frames_survive_close() {
        let o = Outbox::new();
        o.push_frame(vec![7]);
        o.close();
        let (frame, claim) = o.claim_next().expect("queued before the close");
        assert_eq!(frame, vec![7]);
        drop(claim);
        assert!(o.claim_next().is_none());
    }

    #[test]
    fn a_claim_is_refused_while_a_frame_is_queued() {
        let o = Outbox::new();
        o.push_frame(vec![1]);
        assert!(o.try_claim().is_none(), "the queued frame goes first");
        assert_eq!(o.try_next(), Some(vec![1]));
        assert!(o.try_claim().is_some());
    }

    #[test]
    fn a_claim_is_refused_while_the_writer_holds_a_popped_frame() {
        let o = Outbox::new();
        o.push_frame(vec![1]);
        let (frame, claim) = o.claim_next().expect("one frame queued");
        assert_eq!(frame, vec![1]);
        // The queue is empty, but the frame is not on the socket yet.
        assert!(o.try_claim().is_none());
        drop(claim);
        let held = o.try_claim().expect("free again");
        assert!(o.try_claim().is_none(), "one claim at a time");
        drop(held);
    }

    #[test]
    fn a_claim_is_refused_after_close() {
        let o = Outbox::new();
        o.close();
        assert!(o.try_claim().is_none());
    }

    #[test]
    fn release_wakes_a_writer_blocked_behind_the_claim() {
        let o = Arc::new(Outbox::new());
        let claim = o.try_claim().expect("idle outbox");
        let (rx, writer) = spawn_writer(&o);
        o.push_frame(vec![5]);
        // The writer has a frame to take and may not take it.
        assert!(rx.recv_timeout(SETTLE).is_err(), "popped a frame past a live claim");
        drop(claim);
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(vec![5]));
        o.close();
        writer.join().expect("writer exits");
    }

    #[test]
    fn close_during_an_inline_write_still_lets_the_writer_drain_and_exit() {
        let o = Arc::new(Outbox::new());
        let claim = o.try_claim().expect("idle outbox");
        let (rx, writer) = spawn_writer(&o);
        o.push_frame(vec![1]);
        o.push_frame(vec![2]);
        o.close();
        assert!(rx.recv_timeout(SETTLE).is_err(), "drained past a live claim");
        drop(claim);
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(vec![1]));
        assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(vec![2]));
        writer.join().expect("writer exits once drained");

        // The same with nothing queued: the close alone must reach a
        // writer that slept through it behind the claim.
        let o = Arc::new(Outbox::new());
        let claim = o.try_claim().expect("idle outbox");
        let (_rx, writer) = spawn_writer(&o);
        std::thread::sleep(SETTLE);
        o.close();
        std::thread::sleep(SETTLE);
        drop(claim);
        writer.join().expect("writer exits");
    }
}
