//! The discrete-event queue at the heart of the simulator.
//!
//! The engine advances tick by tick for API compatibility, but per-tick
//! work is driven by *events*: nothing in the cluster changes between
//! events, so an event-free tick costs O(1). Four event kinds exist:
//!
//! - [`Event::JobCompletion`]: a *check* whether every node of a running
//!   job has reached 100% progress, scheduled from the closed-form
//!   progress law so that it never lands after the true completion tick.
//!   It is scheduled at the job's first cap, re-armed when a check finds
//!   the job unfinished, and rescheduled when a re-cap lifts the job's
//!   rate above the ceiling the check was scheduled against. Each is
//!   stamped with the job's generation so a reschedule invalidates the
//!   superseded check (stale generations are discarded on pop).
//! - [`Event::JobArrival`]: the submission schedule's next entry comes
//!   due. The schedule itself is a sorted queue, so only the *next*
//!   arrival ever needs a heap entry; it is used by the fast-forward path
//!   to bound jumps.
//! - [`Event::RecapBoundary`]: the regulation signal's next
//!   piecewise-constant boundary, from
//!   `RegulationSignal::next_change_after`. Power-target changes
//!   re-anchor affected jobs' completion times; the per-tick target
//!   comparison is the authoritative detector (it is one float compare on
//!   a value the tracking stage computes anyway), and the heap entry
//!   exists to bound fast-forward jumps.
//! - [`Event::AdmissionRetry`]: a power-blocked queue head's forced-start
//!   wait will cross its threshold. Admission outcomes are otherwise a
//!   pure function of state that only events change, so this is the one
//!   wake-up the scheduler needs between events.
//!
//! Ordering is a strict total order on `(tick, kind rank, sequence)`:
//! the sequence number makes every key unique, so heap pops are
//! deterministic regardless of insertion history. History sampling is
//! *not* an event: a retained history row is O(1) appended inline each
//! tick when recording is on (and recording disables fast-forward).

use anor_types::JobId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A typed simulator event (see the module docs for the taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// Check whether all nodes of `job` have reached 100% progress
    /// (valid only while the job's generation still equals `gen`).
    JobCompletion {
        /// The completing job.
        job: JobId,
        /// Generation the check was scheduled under.
        gen: u32,
    },
    /// The next submission-schedule entry comes due.
    JobArrival,
    /// The regulation signal crosses a piecewise-constant boundary.
    RecapBoundary,
    /// Re-evaluate queue admission (a blocked job's forced-start wait
    /// crosses its threshold).
    AdmissionRetry,
}

impl Event {
    /// Rank within a tick (completions first, mirroring the legacy
    /// stage order: node update, then cluster view, then scheduling).
    fn rank(&self) -> u8 {
        match self {
            Event::JobCompletion { .. } => 0,
            Event::JobArrival => 1,
            Event::RecapBoundary => 2,
            Event::AdmissionRetry => 3,
        }
    }
}

/// One queued event with its full ordering key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QueuedEvent {
    tick: u64,
    rank: u8,
    seq: u64,
    event: Event,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest key.
        (other.tick, other.rank, other.seq).cmp(&(self.tick, self.rank, self.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A binary min-heap of [`Event`]s keyed by tick.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<QueuedEvent>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` for `tick`.
    pub fn push(&mut self, tick: u64, event: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(QueuedEvent {
            tick,
            rank: event.rank(),
            seq,
            event,
        });
    }

    /// The earliest scheduled tick, if any.
    pub fn next_tick(&self) -> Option<u64> {
        self.heap.peek().map(|e| e.tick)
    }

    /// Pop the earliest event if it is due at or before `tick`.
    pub fn pop_due(&mut self, tick: u64) -> Option<Event> {
        if self.heap.peek().is_some_and(|e| e.tick <= tick) {
            self.heap.pop().map(|e| e.event)
        } else {
            None
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Is the queue empty?
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_then_rank_then_sequence_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::AdmissionRetry);
        q.push(
            3,
            Event::JobCompletion {
                job: JobId(1),
                gen: 0,
            },
        );
        q.push(3, Event::AdmissionRetry);
        q.push(
            3,
            Event::JobCompletion {
                job: JobId(2),
                gen: 0,
            },
        );
        assert_eq!(q.next_tick(), Some(3));
        // Tick 3: completions first (insertion order among equals), then
        // the retry; tick-5 events are not yet due.
        assert_eq!(
            q.pop_due(3),
            Some(Event::JobCompletion {
                job: JobId(1),
                gen: 0
            })
        );
        assert_eq!(
            q.pop_due(3),
            Some(Event::JobCompletion {
                job: JobId(2),
                gen: 0
            })
        );
        assert_eq!(q.pop_due(3), Some(Event::AdmissionRetry));
        assert_eq!(q.pop_due(3), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_due(5), Some(Event::AdmissionRetry));
        assert!(q.is_empty());
    }

    #[test]
    fn overdue_events_still_pop() {
        let mut q = EventQueue::new();
        q.push(2, Event::JobArrival);
        assert_eq!(q.pop_due(10), Some(Event::JobArrival));
    }

    #[test]
    fn rank_orders_kinds_within_a_tick() {
        let mut q = EventQueue::new();
        q.push(1, Event::AdmissionRetry);
        q.push(1, Event::RecapBoundary);
        q.push(1, Event::JobArrival);
        q.push(
            1,
            Event::JobCompletion {
                job: JobId(0),
                gen: 3,
            },
        );
        let order: Vec<Event> = std::iter::from_fn(|| q.pop_due(1)).collect();
        assert_eq!(
            order,
            vec![
                Event::JobCompletion {
                    job: JobId(0),
                    gen: 3
                },
                Event::JobArrival,
                Event::RecapBoundary,
                Event::AdmissionRetry,
            ]
        );
    }
}
