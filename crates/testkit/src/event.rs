//! The deterministic event queue.
//!
//! A binary heap keyed by `(time, sequence)`: the sequence number is
//! assigned at push, so simultaneous events fire in push order and two
//! runs with the same inputs produce identical traces. (Heap order
//! alone is not deterministic for equal keys.)

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of `E` events with deterministic tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(SimTime, u64, OrdIgnored<E>)>>,
    next_seq: u64,
}

/// Wrapper that makes the payload invisible to the heap's ordering.
#[derive(Debug, Clone)]
struct OrdIgnored<E>(E);

impl<E> PartialEq for OrdIgnored<E> {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}
impl<E> Eq for OrdIgnored<E> {}
impl<E> PartialOrd for OrdIgnored<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for OrdIgnored<E> {
    fn cmp(&self, _: &Self) -> std::cmp::Ordering {
        std::cmp::Ordering::Equal
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((time, seq, OrdIgnored(event))));
    }

    /// Removes and returns the earliest event (FIFO among equal times).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse((t, _, OrdIgnored(e)))| (t, e))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.peek_time(), Some(SimTime(10)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fire_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_pushes_keep_determinism() {
        let mut q = EventQueue::new();
        q.push(SimTime(10), "late-first");
        q.push(SimTime(5), "early");
        q.push(SimTime(10), "late-second");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "late-first");
        assert_eq!(q.pop().unwrap().1, "late-second");
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}
