//! Bounded ring buffer of trace events.
//!
//! Overflow policy: drop-oldest. A long workload keeps the most recent
//! window of events (the part a viewer usually wants) and the tracer
//! reports how many were overwritten, so truncation is visible rather
//! than silent.

use crate::event::TraceEvent;

/// Fixed-capacity event buffer with drop-oldest overflow.
#[derive(Clone, Debug)]
pub(crate) struct RingBuffer {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Index of the oldest retained event once the buffer has wrapped.
    start: usize,
    dropped: u64,
}

impl RingBuffer {
    /// Creates a buffer retaining at most `capacity` events (minimum 1).
    pub(crate) fn new(capacity: usize) -> RingBuffer {
        let cap = capacity.max(1);
        RingBuffer {
            buf: Vec::new(),
            cap,
            start: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest when full.
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Number of events overwritten by overflow.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }

    /// High-water mark: the most events the buffer has ever retained at
    /// once. Occupancy only grows until it hits capacity, so this equals
    /// `len()` — exposed separately so `FSLEDS_STAT` can report occupancy
    /// against capacity even after a future `clear` is added.
    pub(crate) fn high_water(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Iterates retained events oldest-first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &TraceEvent> + '_ {
        let n = self.buf.len();
        (0..n).map(move |i| &self.buf[(self.start + i) % n.max(1)])
    }

    /// Copies retained events oldest-first into a fresh vector.
    pub(crate) fn to_vec(&self) -> Vec<TraceEvent> {
        self.iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventPhase, Layer};
    use sleds_sim_core::{SimDuration, SimTime};

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            seq,
            ts: SimTime::from_nanos(seq * 10),
            dur: SimDuration::ZERO,
            phase: EventPhase::Mark,
            layer: Layer::App,
            tenant: 0,
            name: "t",
            args: [seq, 0, 0],
        }
    }

    #[test]
    fn fills_then_drops_oldest() {
        let mut r = RingBuffer::new(3);
        for s in 0..5 {
            r.push(ev(s));
        }
        assert_eq!(r.high_water(), 3);
        assert_eq!(r.dropped(), 2);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        assert_eq!(r.to_vec().len(), 3);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingBuffer::new(0);
        r.push(ev(1));
        r.push(ev(2));
        assert_eq!(r.high_water(), 1);
        assert_eq!(r.iter().next().map(|e| e.seq), Some(2));
    }

    #[test]
    fn empty_iterates_nothing() {
        let r = RingBuffer::new(4);
        assert_eq!(r.high_water(), 0);
        assert_eq!(r.iter().count(), 0);
    }
}
