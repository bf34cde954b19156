//! Communication links and the geometric quantities the paper attaches to them.

use serde::{Deserialize, Serialize};
use std::fmt;
use wagg_geometry::point::segment_distance;
use wagg_geometry::Point;

/// Identifier of a link within a link set.
///
/// Link identifiers are assigned by the code constructing the link set (typically
/// the MST orientation in `wagg-mst`) and are stable across the whole pipeline:
/// conflict graphs, colorings, schedules and the simulator all refer to links by
/// this identifier.
///
/// # Examples
///
/// ```
/// use wagg_sinr::LinkId;
/// let id = LinkId(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl LinkId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

impl From<usize> for LinkId {
    fn from(value: usize) -> Self {
        LinkId(value)
    }
}

/// Identifier of a node (sensor) within a pointset.
///
/// # Examples
///
/// ```
/// use wagg_sinr::NodeId;
/// assert_eq!(NodeId(0).index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// The underlying index.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(value: usize) -> Self {
        NodeId(value)
    }
}

/// A directed communication link from a sender node to a receiver node.
///
/// In the paper's notation, link `i` has sender `s_i`, receiver `r_i` and length
/// `l_i = d(s_i, r_i)`. Optionally the link records which nodes of the original
/// pointset it connects (used by the aggregation tree and the simulator).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::Link;
///
/// let link = Link::new(0, Point::new(0.0, 0.0), Point::new(3.0, 4.0));
/// assert_eq!(link.length(), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Identifier of the link.
    pub id: LinkId,
    /// Position of the sender node `s_i`.
    pub sender: Point,
    /// Position of the receiver node `r_i`.
    pub receiver: Point,
    /// Index of the sender node in the originating pointset, if known.
    pub sender_node: Option<NodeId>,
    /// Index of the receiver node in the originating pointset, if known.
    pub receiver_node: Option<NodeId>,
    /// Cached Euclidean length `l_i = d(s_i, r_i)`, computed at construction.
    ///
    /// `l_i` is read in every interference term, every conflict check and every
    /// length-sorted processing order, so it is paid for once here instead of
    /// recomputing a `sqrt` per call. Private, but the endpoint fields are
    /// public: assigning `sender` or `receiver` in place leaves it stale, so
    /// code that moves an endpoint builds a new link with [`Link::new`], and
    /// code that takes untrusted links (a session restore) rebuilds them the
    /// same way.
    length: f64,
}

impl Link {
    /// Creates a link with the given identifier, sender and receiver positions.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// let l = Link::new(7, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// assert_eq!(l.id.index(), 7);
    /// ```
    pub fn new(id: usize, sender: Point, receiver: Point) -> Self {
        Link {
            id: LinkId(id),
            sender,
            receiver,
            sender_node: None,
            receiver_node: None,
            length: sender.distance(receiver),
        }
    }

    /// Creates a link that also records which pointset nodes it connects.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::{Link, NodeId};
    /// let l = Link::with_nodes(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0), NodeId(4), NodeId(2));
    /// assert_eq!(l.sender_node, Some(NodeId(4)));
    /// assert_eq!(l.receiver_node, Some(NodeId(2)));
    /// ```
    pub fn with_nodes(
        id: usize,
        sender: Point,
        receiver: Point,
        sender_node: NodeId,
        receiver_node: NodeId,
    ) -> Self {
        Link {
            id: LinkId(id),
            sender,
            receiver,
            sender_node: Some(sender_node),
            receiver_node: Some(receiver_node),
            length: sender.distance(receiver),
        }
    }

    /// The link length `l_i = d(s_i, r_i)` (cached at construction).
    #[inline]
    pub fn length(&self) -> f64 {
        self.length
    }

    /// Distance `d_ij = d(s_i, r_j)` from this link's sender to another link's receiver.
    ///
    /// This is the distance that determines the interference this link's transmission
    /// causes at the other link's receiver.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// let i = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// let j = Link::new(1, Point::new(5.0, 0.0), Point::new(4.0, 0.0));
    /// assert_eq!(i.sender_to_receiver_distance(&j), 4.0);
    /// ```
    pub fn sender_to_receiver_distance(&self, other: &Link) -> f64 {
        self.sender.distance(other.receiver)
    }

    /// The minimum distance `d(i, j)` between the two links, viewed as segments
    /// between their endpoints.
    ///
    /// This is the quantity used by the conflict-graph definitions of the paper
    /// (Appendix A and the graph `G1` of Sec. 3.2).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// let i = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// let j = Link::new(1, Point::new(3.0, 0.0), Point::new(4.0, 0.0));
    /// assert_eq!(i.distance_to(&j), 2.0);
    /// ```
    pub fn distance_to(&self, other: &Link) -> f64 {
        segment_distance(self.sender, self.receiver, other.sender, other.receiver)
    }

    /// Whether the two links share an endpoint node (by position).
    ///
    /// Links sharing a node can never be scheduled concurrently in any sensible
    /// model (a radio cannot send and receive simultaneously), and indeed have
    /// `d(i, j) = 0` so every conflict graph in this workspace marks them adjacent.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// let a = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// let b = Link::new(1, Point::new(1.0, 0.0), Point::new(2.0, 0.0));
    /// assert!(a.shares_endpoint(&b));
    /// ```
    pub fn shares_endpoint(&self, other: &Link) -> bool {
        self.sender == other.sender
            || self.sender == other.receiver
            || self.receiver == other.sender
            || self.receiver == other.receiver
    }

    /// Returns the link with sender and receiver swapped (reversed direction).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// use wagg_sinr::Link;
    /// let l = Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0));
    /// let r = l.reversed();
    /// assert_eq!(r.sender, l.receiver);
    /// assert_eq!(r.receiver, l.sender);
    /// ```
    pub fn reversed(&self) -> Link {
        Link {
            id: self.id,
            sender: self.receiver,
            receiver: self.sender,
            sender_node: self.receiver_node,
            receiver_node: self.sender_node,
            length: self.length,
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} -> {} (l = {:.4})",
            self.id,
            self.sender,
            self.receiver,
            self.length()
        )
    }
}

/// Ratio between the longest and shortest link length in a set (the paper's `Δ(L)`).
///
/// Returns `None` for an empty set or when the shortest length is not positive.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{Link, link::link_diversity};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(0.0, 5.0), Point::new(8.0, 5.0)),
/// ];
/// assert_eq!(link_diversity(&links), Some(8.0));
/// ```
pub fn link_diversity(links: &[Link]) -> Option<f64> {
    let lengths: Vec<f64> = links.iter().map(|l| l.length()).collect();
    wagg_geometry::diversity::length_ratio(&lengths)
}

/// Sorts link indices by non-increasing link length (longest first).
///
/// This is the processing order of the paper's greedy coloring algorithms.
/// Ties are broken by link identifier so the order is deterministic.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{Link, link::indices_by_decreasing_length};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(1.0, 0.0)),
///     Link::new(1, Point::new(0.0, 2.0), Point::new(3.0, 2.0)),
/// ];
/// assert_eq!(indices_by_decreasing_length(&links), vec![1, 0]);
/// ```
pub fn indices_by_decreasing_length(links: &[Link]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..links.len()).collect();
    idx.sort_by(|&a, &b| {
        links[b]
            .length()
            .total_cmp(&links[a].length())
            .then(links[a].id.cmp(&links[b].id))
    });
    idx
}

/// Sorts link indices by non-decreasing link length (shortest first).
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
/// use wagg_sinr::{Link, link::indices_by_increasing_length};
///
/// let links = vec![
///     Link::new(0, Point::new(0.0, 0.0), Point::new(4.0, 0.0)),
///     Link::new(1, Point::new(0.0, 2.0), Point::new(1.0, 2.0)),
/// ];
/// assert_eq!(indices_by_increasing_length(&links), vec![1, 0]);
/// ```
pub fn indices_by_increasing_length(links: &[Link]) -> Vec<usize> {
    let mut idx = indices_by_decreasing_length(links);
    idx.reverse();
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizontal(id: usize, x0: f64, x1: f64) -> Link {
        Link::new(id, Point::on_line(x0), Point::on_line(x1))
    }

    #[test]
    fn length_of_unit_link() {
        assert_eq!(horizontal(0, 0.0, 1.0).length(), 1.0);
    }

    #[test]
    fn sender_receiver_distances_are_directional() {
        let i = horizontal(0, 0.0, 1.0);
        let j = horizontal(1, 10.0, 12.0);
        assert_eq!(i.sender_to_receiver_distance(&j), 12.0);
        assert_eq!(j.sender_to_receiver_distance(&i), 9.0);
    }

    #[test]
    fn distance_to_is_symmetric() {
        let i = horizontal(0, 0.0, 1.0);
        let j = Link::new(1, Point::new(4.0, 3.0), Point::new(4.0, 10.0));
        assert!((i.distance_to(&j) - j.distance_to(&i)).abs() < 1e-12);
        assert!(
            (i.distance_to(&j) - Point::new(1.0, 0.0).distance(Point::new(4.0, 3.0))).abs() < 1e-12
        );
    }

    #[test]
    fn shared_endpoint_detection() {
        let a = horizontal(0, 0.0, 1.0);
        let b = horizontal(1, 1.0, 3.0);
        let c = horizontal(2, 5.0, 6.0);
        assert!(a.shares_endpoint(&b));
        assert!(!a.shares_endpoint(&c));
        assert_eq!(a.distance_to(&b), 0.0);
    }

    #[test]
    fn reversed_preserves_id_and_length() {
        let l = Link::with_nodes(
            3,
            Point::new(0.0, 0.0),
            Point::new(0.0, 2.0),
            NodeId(1),
            NodeId(0),
        );
        let r = l.reversed();
        assert_eq!(r.id, l.id);
        assert_eq!(r.length(), l.length());
        assert_eq!(r.sender_node, Some(NodeId(0)));
        assert_eq!(r.receiver_node, Some(NodeId(1)));
    }

    #[test]
    fn diversity_of_equal_links_is_one() {
        let links = vec![horizontal(0, 0.0, 1.0), horizontal(1, 5.0, 6.0)];
        assert_eq!(link_diversity(&links), Some(1.0));
    }

    #[test]
    fn diversity_empty_is_none() {
        assert_eq!(link_diversity(&[]), None);
    }

    #[test]
    fn diversity_zero_length_link_is_none() {
        let links = vec![horizontal(0, 0.0, 0.0), horizontal(1, 1.0, 2.0)];
        assert_eq!(link_diversity(&links), None);
    }

    #[test]
    fn ordering_by_length() {
        let links = vec![
            horizontal(0, 0.0, 2.0),
            horizontal(1, 0.0, 8.0),
            horizontal(2, 0.0, 1.0),
        ];
        assert_eq!(indices_by_decreasing_length(&links), vec![1, 0, 2]);
        assert_eq!(indices_by_increasing_length(&links), vec![2, 0, 1]);
    }

    #[test]
    fn ordering_breaks_ties_by_id() {
        let links = vec![horizontal(0, 0.0, 1.0), horizontal(1, 2.0, 3.0)];
        assert_eq!(indices_by_decreasing_length(&links), vec![0, 1]);
    }

    #[test]
    fn ids_display() {
        assert_eq!(LinkId(2).to_string(), "link#2");
        assert_eq!(NodeId(5).to_string(), "node#5");
    }

    #[test]
    fn link_display_contains_length() {
        let l = horizontal(1, 0.0, 2.0);
        let s = l.to_string();
        assert!(s.contains("link#1"));
        assert!(s.contains("2.0000"));
    }
}
