//! Per-connection outbox for server-pushed frames.
//!
//! Streaming pulls need the server to hand a frame to a connection that
//! is not currently asking for one. With no async runtime, each
//! connection owns an [`Outbox`] — a condvar-guarded queue of encoded
//! frames. Producers (whichever thread flushes a shard, the request
//! handler) push; the
//! connection's writer (a dedicated thread on TCP, the poll loop on
//! loopback/DES) drains. The queue carries *encoded* frames so the
//! encoding cost is paid once even when a batch fans out to many
//! subscribers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Interior state guarded by the outbox mutex.
struct State {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

/// A condvar-guarded queue of encoded frames bound for one connection.
pub struct Outbox {
    state: Mutex<State>,
    cv: Condvar,
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
            state: Mutex::new(State { frames: VecDeque::new(), closed: false }),
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

    /// Pops the next frame without blocking. `None` means "nothing
    /// queued right now" — check [`is_closed`](Self::is_closed) to
    /// distinguish empty from finished.
    pub(crate) fn try_next(&self) -> Option<Vec<u8>> {
        self.state.lock().expect("outbox lock").frames.pop_front()
    }

    /// Blocks up to `timeout` for the next frame. `None` means the
    /// outbox closed or the timeout elapsed with nothing queued.
    pub(crate) fn wait_next(&self, timeout: Duration) -> Option<Vec<u8>> {
        let mut st = self.state.lock().expect("outbox lock");
        loop {
            if let Some(frame) = st.frames.pop_front() {
                return Some(frame);
            }
            if st.closed {
                return None;
            }
            let (next, res) = self.cv.wait_timeout(st, timeout).expect("outbox lock");
            st = next;
            if res.timed_out() {
                return st.frames.pop_front();
            }
        }
    }

    /// Marks the outbox finished and wakes any blocked writer. Already
    /// queued frames stay drainable; new pushes are dropped.
    pub(crate) fn close(&self) {
        self.state.lock().expect("outbox lock").closed = true;
        self.cv.notify_all();
    }

    /// True once [`close`](Self::close) has run.
    pub(crate) fn is_closed(&self) -> bool {
        self.state.lock().expect("outbox lock").closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        let o2 = Arc::clone(&o);
        let h = std::thread::spawn(move || o2.wait_next(Duration::from_secs(30)));
        // Give the waiter a moment to block, then close.
        std::thread::sleep(Duration::from_millis(10));
        o.close();
        assert_eq!(h.join().unwrap(), None);
        o.push_frame(vec![9]);
        assert_eq!(o.try_next(), None);
    }

    #[test]
    fn queued_frames_survive_close() {
        let o = Outbox::new();
        o.push_frame(vec![7]);
        o.close();
        assert_eq!(o.wait_next(Duration::from_millis(1)), Some(vec![7]));
        assert_eq!(o.wait_next(Duration::from_millis(1)), None);
    }
}
