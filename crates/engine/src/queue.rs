//! The time-ordered event queue with explicit sequence-number tie-breaking.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use vtrain_model::TimeNs;

/// One scheduled event: the payload plus its dispatch key.
#[derive(Clone, Debug)]
pub struct EventEntry<E> {
    /// Dispatch time.
    pub time: TimeNs,
    /// Monotonic insertion index; the tie-breaker for equal times.
    pub seq: u64,
    /// Caller-defined payload.
    pub event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    /// Reversed `(time, seq)` ordering, so `BinaryHeap` (a max-heap) pops
    /// the *earliest* event, and among equal times the *first inserted*.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events pop in ascending `(time, seq)` order, where `seq` is assigned at
/// insertion. Equal-timestamp events therefore pop in exactly the order
/// they were scheduled — the property that makes whole-simulation replays
/// bit-identical.
#[derive(Clone, Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<EventEntry<E>>,
    /// Same-timestamp fast lane: a run of entries all sharing one dispatch
    /// time, in ascending `seq` order (guaranteed because `seq` is assigned
    /// monotonically and entries only append). Consecutive same-time pushes
    /// — the shape a finishing task produces when it releases several
    /// children at once — bypass the heap entirely, making them O(1)
    /// instead of O(log n).
    ///
    /// Correctness: pop takes the global `(time, seq)` minimum of the heap
    /// top and the lane front. The lane front is the lane's minimum (sorted
    /// by construction) and the heap top is the heap's minimum, so any
    /// partition of pending entries between the two structures dispatches
    /// in exactly the order a single heap would.
    fifo: VecDeque<EventEntry<E>>,
    next_seq: u64,
    /// Deepest the queue has ever been (pending events).
    max_depth: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), fifo: VecDeque::new(), next_seq: 0, max_depth: 0 }
    }

    /// Creates an empty queue with room for `capacity` events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            fifo: VecDeque::with_capacity(capacity),
            next_seq: 0,
            max_depth: 0,
        }
    }

    /// Schedules `event` at `time`, returning its sequence number.
    pub fn push(&mut self, time: TimeNs, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = EventEntry { time, seq, event };
        match self.fifo.back() {
            // Extend (or start) the same-time run; otherwise spill to the
            // heap without disturbing the active run.
            Some(back) if back.time == time => self.fifo.push_back(entry),
            None => self.fifo.push_back(entry),
            Some(_) => self.heap.push(entry),
        }
        self.max_depth = self.max_depth.max(self.len());
        seq
    }

    /// True if the earliest pending entry sits in the FIFO lane rather
    /// than the heap.
    fn fifo_is_next(&self) -> bool {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => (f.time, f.seq) < (h.time, h.seq),
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<EventEntry<E>> {
        if self.fifo_is_next() {
            self.fifo.pop_front()
        } else {
            self.heap.pop()
        }
    }

    /// Dispatch time of the earliest pending event.
    pub fn peek_time(&self) -> Option<TimeNs> {
        match (self.fifo.front(), self.heap.peek()) {
            (Some(f), Some(h)) => Some(f.time.min(h.time)),
            (Some(f), None) => Some(f.time),
            (None, Some(h)) => Some(h.time),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.fifo.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.fifo.is_empty()
    }

    /// Total events ever scheduled on this queue (sequence numbers are
    /// dense, so this is the next sequence number).
    pub fn total_scheduled(&self) -> u64 {
        self.next_seq
    }

    /// The deepest the queue has ever been (maximum simultaneous pending
    /// events) since construction.
    pub fn high_watermark(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(TimeNs::from_micros(3), "c");
        q.push(TimeNs::from_micros(1), "a");
        q.push(TimeNs::from_micros(2), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = TimeNs::from_micros(5);
        for i in 0..100u32 {
            q.push(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_ties_still_respect_time_first() {
        let mut q = EventQueue::new();
        let t1 = TimeNs::from_micros(1);
        let t2 = TimeNs::from_micros(2);
        q.push(t2, 10);
        q.push(t1, 0);
        q.push(t2, 11);
        q.push(t1, 1);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec![0, 1, 10, 11]);
    }

    #[test]
    fn fifo_lane_spills_and_merges_correctly() {
        // Start a same-time run, spill earlier events to the heap, extend
        // the run, and check the global (time, seq) order is preserved.
        let mut q = EventQueue::new();
        let t1 = TimeNs::from_micros(1);
        let t2 = TimeNs::from_micros(2);
        q.push(t2, "run0"); // lane
        q.push(t2, "run1"); // lane
        q.push(t1, "early0"); // heap (lane is active at t2)
        q.push(t1, "early1"); // heap
        q.push(t2, "run2"); // lane append
        assert_eq!(q.len(), 5);
        assert_eq!(q.peek_time(), Some(t1));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["early0", "early1", "run0", "run1", "run2"]);
    }

    #[test]
    fn draining_lane_starts_fresh_run_at_new_time() {
        let mut q = EventQueue::new();
        let t1 = TimeNs::from_micros(1);
        let t2 = TimeNs::from_micros(2);
        q.push(t1, 1);
        assert_eq!(q.pop().unwrap().event, 1);
        // Lane drained: a new run may begin at a different time.
        q.push(t2, 2);
        q.push(t2, 3);
        assert_eq!(q.pop().unwrap().event, 2);
        assert_eq!(q.pop().unwrap().event, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn counters_track_activity() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(TimeNs::ZERO, ());
        q.push(TimeNs::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.peek_time(), Some(TimeNs::ZERO));
        q.pop();
        q.pop();
        assert!(q.pop().is_none());
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn high_watermark_tracks_peak_depth() {
        let mut q = EventQueue::new();
        assert_eq!(q.high_watermark(), 0);
        q.push(TimeNs::ZERO, 1);
        q.push(TimeNs::ZERO, 2);
        q.push(TimeNs::from_micros(1), 3);
        assert_eq!(q.high_watermark(), 3);
        q.pop();
        q.pop();
        // Draining does not lower the watermark.
        assert_eq!(q.high_watermark(), 3);
        q.push(TimeNs::from_micros(2), 4);
        assert_eq!(q.high_watermark(), 3, "depth 2 never beats the old peak");
    }
}
