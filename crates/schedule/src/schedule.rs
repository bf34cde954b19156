//! The [`Schedule`] type: an ordered sequence of slots over a link set.

use crate::power_mode::PowerMode;
use serde::{Deserialize, Serialize};
use std::fmt;
use wagg_sinr::{Link, SinrModel};

/// A (periodic) TDMA schedule over a fixed link set.
///
/// Slot `t` holds the indices (into the link slice the schedule was built for) of the
/// links transmitting in time slot `t`. Repeating the slots periodically yields an
/// aggregation schedule of rate `1 / len()`, as described in the paper (Sec. 2).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
/// use wagg_schedule::Schedule;
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0)),
/// ];
/// let schedule = Schedule::new(vec![vec![0], vec![1]]);
/// assert_eq!(schedule.len(), 2);
/// assert_eq!(schedule.rate(), 0.5);
/// assert!(schedule.covers_all(links.len()));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    slots: Vec<Vec<usize>>,
}

impl Schedule {
    /// Creates a schedule from explicit slots (each a list of link indices).
    pub fn new(slots: Vec<Vec<usize>>) -> Self {
        Schedule { slots }
    }

    /// Creates the trivial TDMA schedule: one link per slot, in index order.
    ///
    /// This is the `1/n`-rate baseline that needs no power control and no geometry —
    /// the paper's point of comparison for "no spatial reuse".
    pub fn round_robin(num_links: usize) -> Self {
        Schedule {
            slots: (0..num_links).map(|i| vec![i]).collect(),
        }
    }

    /// The slots of the schedule.
    pub fn slots(&self) -> &[Vec<usize>] {
        &self.slots
    }

    /// The slot at position `t`.
    pub fn slot(&self, t: usize) -> &[usize] {
        &self.slots[t]
    }

    /// Number of slots (the schedule length `T`).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The aggregation rate of the periodic repetition of this schedule: `1 / T`
    /// (and `0` for an empty schedule over a non-empty link set, by convention).
    pub fn rate(&self) -> f64 {
        if self.slots.is_empty() {
            return 0.0;
        }
        1.0 / self.slots.len() as f64
    }

    /// Total number of link transmissions across all slots.
    pub fn total_transmissions(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Size of the largest slot.
    pub fn max_slot_size(&self) -> usize {
        self.slots.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether every link index in `0..num_links` appears in at least one slot and no
    /// slot references an out-of-range index or repeats an index within a slot.
    pub fn covers_all(&self, num_links: usize) -> bool {
        // `last_slot[idx]` is one past the last slot `idx` appeared in (0:
        // never), so a repeat inside one slot meets its own stamp.
        let mut last_slot = vec![0usize; num_links];
        for (t, slot) in self.slots.iter().enumerate() {
            let stamp = t + 1;
            for &idx in slot {
                if idx >= num_links || last_slot[idx] == stamp {
                    return false;
                }
                last_slot[idx] = stamp;
            }
        }
        last_slot.into_iter().all(|s| s != 0)
    }

    /// Whether the schedule is a *partition* of `0..num_links`: covers everything and
    /// schedules each link exactly once (a coloring schedule).
    pub fn is_partition(&self, num_links: usize) -> bool {
        self.covers_all(num_links) && self.total_transmissions() == num_links
    }

    /// Verifies that every slot is feasible for `links` under `mode` and `model`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::{Link, SinrModel};
    /// use wagg_schedule::{PowerMode, Schedule};
    ///
    /// let links = vec![
    ///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
    ///     Link::new(1, Point::new(1.5, 0.0), Point::new(2.5, 0.0)),
    /// ];
    /// let model = SinrModel::default();
    /// let together = Schedule::new(vec![vec![0, 1]]);
    /// let apart = Schedule::new(vec![vec![0], vec![1]]);
    /// assert!(!together.verify(&links, &model, PowerMode::Uniform));
    /// assert!(apart.verify(&links, &model, PowerMode::Uniform));
    /// ```
    pub fn verify(&self, links: &[Link], model: &SinrModel, mode: PowerMode) -> bool {
        self.slots.iter().all(|slot| {
            let slot_links: Vec<Link> = slot.iter().map(|&i| links[i]).collect();
            mode.slot_feasible(model, &slot_links)
        })
    }

    /// For each link index, how many of the first `window` slots (cyclically repeated)
    /// include it. Used to compute rates of general periodic schedules.
    pub fn transmissions_in_window(&self, num_links: usize, window: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_links];
        if self.slots.is_empty() {
            return counts;
        }
        for t in 0..window {
            for &idx in &self.slots[t % self.slots.len()] {
                if idx < num_links {
                    counts[idx] += 1;
                }
            }
        }
        counts
    }

    /// The sustained per-link rate of the periodic repetition: the minimum over links
    /// of (appearances per period) / (period length).
    ///
    /// For a coloring schedule this equals [`Schedule::rate`]; for multicoloring
    /// schedules (links appearing several times per period) it can be higher.
    pub fn sustained_rate(&self, num_links: usize) -> f64 {
        if self.slots.is_empty() || num_links == 0 {
            return 0.0;
        }
        let counts = self.transmissions_in_window(num_links, self.slots.len());
        let min_count = counts.into_iter().min().unwrap_or(0);
        min_count as f64 / self.slots.len() as f64
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule with {} slots (rate {:.4})",
            self.len(),
            self.rate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wagg_geometry::Point;

    fn line_link(id: usize, s: f64, r: f64) -> Link {
        Link::new(id, Point::on_line(s), Point::on_line(r))
    }

    #[test]
    fn round_robin_properties() {
        let s = Schedule::round_robin(5);
        assert_eq!(s.len(), 5);
        assert_eq!(s.rate(), 0.2);
        assert!(s.is_partition(5));
        assert_eq!(s.max_slot_size(), 1);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new(vec![]);
        assert!(s.is_empty());
        assert_eq!(s.rate(), 0.0);
        assert_eq!(s.sustained_rate(3), 0.0);
        assert!(s.covers_all(0));
        assert!(!s.covers_all(1));
    }

    #[test]
    fn coverage_checks() {
        let s = Schedule::new(vec![vec![0, 2], vec![1]]);
        assert!(s.covers_all(3));
        assert!(s.is_partition(3));
        assert!(!s.covers_all(4));
        let repeated_in_slot = Schedule::new(vec![vec![0, 0], vec![1]]);
        assert!(!repeated_in_slot.covers_all(2));
        let out_of_range = Schedule::new(vec![vec![0, 5]]);
        assert!(!out_of_range.covers_all(2));
        // A repeat across slots still covers; only the partition count
        // rejects it.
        let across = Schedule::new(vec![vec![0, 1], vec![1]]);
        assert!(across.covers_all(2));
        assert!(!across.is_partition(2));
        // A repeat inside a later slot is caught after an earlier slot
        // already used the index.
        let later_repeat = Schedule::new(vec![vec![1], vec![0, 1, 1]]);
        assert!(!later_repeat.covers_all(2));
    }

    #[test]
    fn multicolor_schedule_is_not_a_partition_but_covers() {
        let s = Schedule::new(vec![
            vec![0, 2],
            vec![1, 3],
            vec![0, 3],
            vec![1, 4],
            vec![2, 4],
        ]);
        assert!(s.covers_all(5));
        assert!(!s.is_partition(5));
        assert_eq!(s.sustained_rate(5), 2.0 / 5.0);
    }

    #[test]
    fn sustained_rate_of_coloring_matches_rate() {
        let s = Schedule::new(vec![vec![0], vec![1], vec![2]]);
        assert_eq!(s.sustained_rate(3), s.rate());
    }

    #[test]
    fn transmissions_in_window_cycles() {
        let s = Schedule::new(vec![vec![0], vec![1]]);
        assert_eq!(s.transmissions_in_window(2, 5), vec![3, 2]);
    }

    #[test]
    fn verify_under_different_modes() {
        let model = SinrModel::default();
        // One long link whose receiver is near a short link: needs power control.
        let links = vec![line_link(0, 0.0, 1.0), line_link(1, 30.0, 3.0)];
        let together = Schedule::new(vec![vec![0, 1]]);
        assert!(!together.verify(&links, &model, PowerMode::Uniform));
        assert!(together.verify(&links, &model, PowerMode::GlobalControl));
        let apart = Schedule::round_robin(2);
        assert!(apart.verify(&links, &model, PowerMode::Uniform));
    }

    #[test]
    fn display_contains_slot_count() {
        let s = Schedule::round_robin(4);
        assert!(s.to_string().contains("4 slots"));
    }
}
