//! The NIC's reorder buffer: items held for in-order release, indexed by
//! sequence number.
//!
//! [`crate::nic::RecvNic`] keeps one per queue pair (the out-of-order
//! staging buffer, based at the QP's next expected sequence number) and one
//! for the cross-QP total-order gate (based at the next global sequence
//! number to release).

use crate::rdma::SackBlocks;
use std::collections::VecDeque;

/// Items held for in-order release: slot `k` holds sequence `base + k`, and
/// `base` is the next sequence to release. Parking, the duplicate check and
/// a release are O(1); the slots grow only when an item lands past the last
/// one, so a window at size allocates nothing. The last slot is always
/// occupied, so an empty window holds no slot at all.
#[derive(Debug)]
pub(crate) struct ReorderWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slots.
    len: usize,
}

impl<T> Default for ReorderWindow<T> {
    fn default() -> Self {
        ReorderWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }
}

impl<T> ReorderWindow<T> {
    /// The next sequence number to release.
    pub(crate) fn base(&self) -> u64 {
        self.base
    }

    /// Items held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether an item with sequence `seq` is held.
    pub(crate) fn contains(&self, seq: u64) -> bool {
        seq.checked_sub(self.base)
            .and_then(|k| self.slots.get(usize::try_from(k).ok()?))
            .is_some_and(Option::is_some)
    }

    /// Holds `item` at `seq`, which must be at or past the base and not held
    /// already.
    pub(crate) fn park(&mut self, seq: u64, item: T) {
        let k = usize::try_from(seq - self.base).expect("offset fits in memory");
        if k >= self.slots.len() {
            self.slots.resize_with(k, || None);
            self.slots.push_back(Some(item));
        } else {
            debug_assert!(self.slots[k].is_none(), "sequence {seq} parked twice");
            self.slots[k] = Some(item);
        }
        self.len += 1;
    }

    /// Releases the item at the base, if it is held, and moves the base past
    /// it.
    pub(crate) fn pop_front(&mut self) -> Option<T> {
        if !matches!(self.slots.front(), Some(Some(_))) {
            return None;
        }
        self.skip()
    }

    /// Undoes a [`ReorderWindow::pop_front`] whose item could not be
    /// delivered: the item goes back to the front and the base back to it.
    pub(crate) fn put_back(&mut self, item: T) {
        self.base -= 1;
        self.slots.push_front(Some(item));
        self.len += 1;
    }

    /// Moves the base past one sequence number, handing back whatever was
    /// held there.
    pub(crate) fn skip(&mut self) -> Option<T> {
        self.base += 1;
        let item = self.slots.pop_front().flatten();
        self.len -= usize::from(item.is_some());
        item
    }

    /// Drops whatever is held and moves the base back to 0: the window reads
    /// as new, and keeps its slots' allocation.
    pub(crate) fn reset(&mut self) {
        self.base = 0;
        self.slots.clear();
        self.len = 0;
    }

    /// The held runs as SACK blocks, lowest first (bounded by
    /// [`crate::rdma::MAX_SACK_BLOCKS`]; lower runs win since they unblock
    /// the cumulative edge soonest).
    pub(crate) fn sack(&self) -> SackBlocks {
        let mut sack = SackBlocks::empty();
        let mut start = None;
        // The trailing `None` closes the last run.
        let slots = self.slots.iter().chain(std::iter::once(&None));
        for (seq, slot) in (self.base..).zip(slots) {
            match (start, slot) {
                (None, Some(_)) => start = Some(seq),
                (Some(s), None) => {
                    if !sack.push(s, seq) {
                        break;
                    }
                    start = None;
                }
                _ => {}
            }
        }
        sack
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdma::MAX_SACK_BLOCKS;
    use otm_base::FaultRng;
    use std::collections::BTreeMap;

    /// The SACK blocks of a sorted reference buffer (what the NIC computed
    /// when its staging buffer was an ordered map).
    fn reference_sack(held: &BTreeMap<u64, u64>) -> SackBlocks {
        let mut sack = SackBlocks::empty();
        let mut run: Option<(u64, u64)> = None;
        for &seq in held.keys() {
            run = match run {
                Some((start, end)) if seq == end => Some((start, end + 1)),
                Some((start, end)) => {
                    if !sack.push(start, end) {
                        return sack;
                    }
                    Some((seq, seq + 1))
                }
                None => Some((seq, seq + 1)),
            };
        }
        if let Some((start, end)) = run {
            sack.push(start, end);
        }
        sack
    }

    /// Seeded random operations on a window and on an ordered-map reference,
    /// parking under the NIC's count bound `capacity`; every item is its own
    /// sequence number. Returns the most runs the reference held at once.
    fn window_against_reference(seed: u64, capacity: usize, steps: usize) -> usize {
        let mut rng = FaultRng::new(seed);
        let mut window = ReorderWindow::default();
        let mut reference: BTreeMap<u64, u64> = BTreeMap::new();
        let mut base = 0u64;
        let mut most_runs = 0;
        for step in 0..steps {
            match rng.below(8) {
                // Park near the base, or past the end of the slots.
                0..=3 => {
                    let span = if rng.chance(100) { 40 } else { 12 };
                    let seq = base + rng.below(span);
                    if reference.contains_key(&seq) {
                        assert!(window.contains(seq), "step {step}: {seq} held");
                    } else if reference.len() < capacity {
                        assert!(!window.contains(seq), "step {step}: {seq} free");
                        window.park(seq, seq);
                        reference.insert(seq, seq);
                    }
                }
                // A duplicate of a held item.
                4 => {
                    if let Some(&seq) = reference.keys().nth(rng.below(8) as usize) {
                        assert!(window.contains(seq), "step {step}: duplicate {seq}");
                    }
                }
                // Release the run at the base.
                5 => loop {
                    let got = window.pop_front();
                    let want = reference.remove(&base);
                    assert_eq!(got, want, "step {step}: release order");
                    if want.is_none() {
                        break;
                    }
                    base += 1;
                },
                // A release whose bounce-pool staging failed.
                6 => {
                    if let Some(seq) = window.pop_front() {
                        assert_eq!(seq, base, "step {step}");
                        window.put_back(seq);
                    }
                }
                // The in-order copy arrived directly: the base moves on and a
                // held copy of it becomes a duplicate.
                _ => {
                    assert_eq!(window.skip(), reference.remove(&base), "step {step}");
                    base += 1;
                }
            }
            assert_eq!(window.base(), base, "step {step}");
            assert_eq!(window.len(), reference.len(), "step {step}: occupancy");
            assert!(
                !matches!(window.slots.back(), Some(None)),
                "step {step}: the last slot is held"
            );
            let top = reference.keys().next_back().map_or(base, |&s| s + 2);
            for seq in base.saturating_sub(2)..top {
                let held = reference.contains_key(&seq);
                assert_eq!(window.contains(seq), held, "step {step}: seq {seq}");
            }
            assert_eq!(window.sack(), reference_sack(&reference), "step {step}");
            let runs = reference
                .keys()
                .filter(|&&s| s == 0 || !reference.contains_key(&(s - 1)))
                .count();
            most_runs = most_runs.max(runs);
        }
        most_runs
    }

    #[test]
    fn a_reset_window_reads_as_new_and_keeps_its_slots() {
        let mut window = ReorderWindow::default();
        window.park(0, 0u64);
        assert_eq!(window.pop_front(), Some(0));
        window.park(3, 3);
        window.park(9, 9);
        let slots = window.slots.capacity();
        window.reset();
        assert_eq!((window.base(), window.len()), (0, 0));
        assert!(!window.contains(3) && window.sack().is_empty());
        assert_eq!(window.slots.capacity(), slots, "the allocation stays");
        window.park(1, 1);
        assert_eq!(window.pop_front(), None, "sequence 0 is the next again");
        assert_eq!(window.skip(), None);
        assert_eq!(window.pop_front(), Some(1));
    }

    #[test]
    fn window_equals_an_ordered_map_reference() {
        for seed in 1..=4 {
            let runs = window_against_reference(seed, 64, 4000);
            assert!(
                runs > MAX_SACK_BLOCKS,
                "seed {seed}: the SACK cap must be reached ({runs} runs)"
            );
            window_against_reference(seed, 5, 4000);
            assert_eq!(window_against_reference(seed, 0, 500), 0, "nothing held");
        }
    }
}
