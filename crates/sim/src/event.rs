//! The totally ordered event queue at the heart of the simulator.
//!
//! Discrete-event simulation is only deterministic if event *ordering* is:
//! two events at the same simulated instant must pop in an order that does
//! not depend on incidental facts like heap internals or insertion history.
//! [`EventQueue`] orders by a three-part key:
//!
//! 1. **time** (simulated seconds, ascending),
//! 2. a caller-chosen **tie key** (ascending) — e.g. the acting node's id —
//!    so simultaneous events at different actors have a meaningful order,
//! 3. a monotone **sequence number** (ascending) assigned at scheduling
//!    time, breaking exact `(time, tie)` collisions by scheduling order.
//!
//! Because scheduling order inside the simulator is itself a deterministic
//! function of the seed and scenario, the pop order — and therefore every
//! simulation output — is reproducible bit for bit.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use orco_wsn::clock::assert_monotone_dt;

/// One scheduled entry (internal; callers see `(time, payload)` on pop).
#[derive(Debug)]
struct Entry<T> {
    time_s: f64,
    tie: u64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other) == Ordering::Equal
    }
}

impl<T> Eq for Entry<T> {}

impl<T> Entry<T> {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.time_s
            .total_cmp(&other.time_s)
            .then(self.tie.cmp(&other.tie))
            .then(self.seq.cmp(&other.seq))
    }
}

// BinaryHeap is a max-heap; invert so the *earliest* key pops first.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key(other).reverse()
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use orco_sim::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(2.0, 0, "late");
/// q.schedule(1.0, 0, "early");
/// q.schedule(1.0, 1, "early-but-bigger-tie");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.pop(), Some((1.0, "early-but-bigger-tie")));
/// assert_eq!(q.pop(), Some((2.0, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedules `payload` at absolute simulated time `time_s` with the
    /// given tie key. Returns the assigned sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `time_s` is not a finite number of seconds ≥ 0.
    pub fn schedule(&mut self, time_s: f64, tie: u64, payload: T) -> u64 {
        assert_monotone_dt(time_s);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time_s, tie, seq, payload });
        seq
    }

    /// Removes and returns the earliest event as `(time_s, payload)`.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| (e.time_s, e.payload))
    }

    /// The timestamp of the earliest pending event.
    #[must_use]
    pub(crate) fn peek_time_s(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_tie_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 5, "t1-tie5-first");
        q.schedule(1.0, 5, "t1-tie5-second");
        q.schedule(1.0, 2, "t1-tie2");
        q.schedule(0.5, 9, "t0.5");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, ["t0.5", "t1-tie2", "t1-tie5-first", "t1-tie5-second"]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time_s(), None);
        q.schedule(3.0, 0, ());
        q.schedule(2.0, 0, ());
        assert_eq!(q.peek_time_s(), Some(2.0));
        assert_eq!(q.pop().unwrap().0, 2.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_times() {
        EventQueue::new().schedule(f64::NAN, 0, ());
    }
}
