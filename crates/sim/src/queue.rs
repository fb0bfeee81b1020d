//! Time-ordered event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Time;

/// An event scheduled for delivery: destination actor plus payload.
#[derive(Debug)]
pub struct Scheduled<M> {
    /// Delivery time.
    pub time: Time,
    /// Destination actor index (interpretation is up to the embedder).
    pub dst: usize,
    /// Message payload.
    pub msg: M,
}

struct HeapEntry<M> {
    time: Time,
    seq: u64,
    dst: usize,
    msg: M,
}

impl<M> PartialEq for HeapEntry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for HeapEntry<M> {}
impl<M> PartialOrd for HeapEntry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for HeapEntry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq). Ties broken by insertion
        // order (seq) so the simulation is deterministic.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic event queue keyed on `(time, insertion order)`.
///
/// Ties at equal timestamps are delivered in insertion order, which makes the
/// whole simulation a pure function of its inputs.
///
/// # Examples
///
/// ```
/// use chaos_sim::EventQueue;
///
/// let mut q: EventQueue<&'static str> = EventQueue::new();
/// q.push(10, 0, "later");
/// q.push(5, 1, "sooner");
/// let first = q.pop().unwrap();
/// assert_eq!((first.time, first.msg), (5, "sooner"));
/// ```
pub struct EventQueue<M> {
    heap: BinaryHeap<HeapEntry<M>>,
    seq: u64,
    now: Time,
    delivered: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
            delivered: 0,
        }
    }

    /// Current virtual time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of events pushed so far (cumulative, not pending).
    pub fn pushed(&self) -> u64 {
        self.seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `msg` for delivery to actor `dst` at absolute time `time`.
    ///
    /// Scheduling in the past is a logic error in the embedding simulation;
    /// the queue clamps to `now` rather than time-traveling, and debug builds
    /// assert.
    pub fn push(&mut self, time: Time, dst: usize, msg: M) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let time = time.max(self.now);
        self.heap.push(HeapEntry {
            time,
            seq: self.seq,
            dst,
            msg,
        });
        self.seq += 1;
    }

    /// Timestamp of the next event without popping it, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.time)
    }

    /// Pops the next event, advancing the virtual clock to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<M>> {
        let HeapEntry { time, dst, msg, .. } = self.heap.pop()?;
        self.now = time;
        self.delivered += 1;
        Some(Scheduled { time, dst, msg })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_insertion() {
        let mut q = EventQueue::new();
        q.push(5, 0, "a");
        q.push(3, 1, "b");
        q.push(5, 2, "c");
        q.push(4, 3, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|e| e.msg)).collect();
        assert_eq!(order, vec!["b", "d", "a", "c"]);
    }

    #[test]
    fn peek_does_not_advance_the_clock() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(9, 0, "x");
        q.push(4, 0, "y");
        assert_eq!(q.peek_time(), Some(4));
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.peek_time(), Some(9));
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut q = EventQueue::new();
        q.push(7, 0, ());
        q.push(2, 0, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 2);
        q.pop();
        assert_eq!(q.now(), 7);
        assert_eq!(q.delivered(), 2);
        assert_eq!(q.pushed(), 2);
        assert!(q.is_empty());
    }

    #[test]
    fn past_events_clamp_to_now() {
        // Scheduling "in the past" trips the debug assertion; release
        // builds clamp to the clock instead.
        if cfg!(debug_assertions) {
            return;
        }
        let mut q = EventQueue::new();
        q.push(10, 0, "x");
        q.pop();
        q.push(5, 0, "y");
        assert_eq!(q.pop().unwrap().time, 10);
    }
}
