//! Points in the Euclidean plane.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Sub};

/// A point in the Euclidean plane.
///
/// All node positions in the aggregation library are represented with this type.
/// Coordinates are `f64`; the library never relies on exact equality of derived
/// distances, only on comparisons with explicit tolerances.
///
/// # Examples
///
/// ```
/// use wagg_geometry::Point;
///
/// let a = Point::new(0.0, 0.0);
/// let b = Point::new(3.0, 4.0);
/// assert_eq!(a.distance(b), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// Creates a new point at `(x, y)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// let p = Point::new(1.5, -2.0);
    /// assert_eq!(p.x, 1.5);
    /// assert_eq!(p.y, -2.0);
    /// ```
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// The origin `(0, 0)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// assert_eq!(Point::origin(), Point::new(0.0, 0.0));
    /// ```
    pub fn origin() -> Self {
        Point { x: 0.0, y: 0.0 }
    }

    /// Creates a point on the real line (`y = 0`), the setting of the paper's
    /// lower-bound constructions (Sec. 4).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// let p = Point::on_line(7.0);
    /// assert_eq!(p, Point::new(7.0, 0.0));
    /// ```
    pub fn on_line(x: f64) -> Self {
        Point { x, y: 0.0 }
    }

    /// Euclidean distance to another point.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// let d = Point::new(0.0, 0.0).distance(Point::new(1.0, 1.0));
    /// assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    /// ```
    pub fn distance(&self, other: Point) -> f64 {
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    ///
    /// Useful to avoid the square root when only comparisons are needed
    /// (e.g. inside MST construction).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// assert_eq!(Point::new(0.0, 0.0).distance_squared(Point::new(3.0, 4.0)), 25.0);
    /// ```
    pub fn distance_squared(&self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// The midpoint between `self` and `other`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// let m = Point::new(0.0, 0.0).midpoint(Point::new(2.0, 4.0));
    /// assert_eq!(m, Point::new(1.0, 2.0));
    /// ```
    pub fn midpoint(&self, other: Point) -> Point {
        Point::new((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)
    }

    /// Scales the point's coordinates by `factor` (about the origin).
    ///
    /// Used by the recursive lower-bound construction of the paper (Fig. 3),
    /// where copies of an instance are scaled before concatenation.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// assert_eq!(Point::new(1.0, 2.0).scaled(3.0), Point::new(3.0, 6.0));
    /// ```
    pub fn scaled(&self, factor: f64) -> Point {
        Point::new(self.x * factor, self.y * factor)
    }

    /// Translates the point by `(dx, dy)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// assert_eq!(Point::new(1.0, 2.0).translated(1.0, -1.0), Point::new(2.0, 1.0));
    /// ```
    pub fn translated(&self, dx: f64, dy: f64) -> Point {
        Point::new(self.x + dx, self.y + dy)
    }

    /// Distance from this point to the segment `[a, b]`.
    ///
    /// This is the building block for the link-to-link distance `d(i, j)` used by
    /// the conflict graphs of the paper (the minimum distance between any point of
    /// one link segment and any point of the other).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::Point;
    /// let p = Point::new(1.0, 1.0);
    /// let d = p.distance_to_segment(Point::new(0.0, 0.0), Point::new(2.0, 0.0));
    /// assert!((d - 1.0).abs() < 1e-12);
    /// ```
    pub fn distance_to_segment(&self, a: Point, b: Point) -> f64 {
        let len_sq = a.distance_squared(b);
        if len_sq == 0.0 {
            return self.distance(a);
        }
        // Project onto the segment, clamping to [0, 1].
        let t = ((self.x - a.x) * (b.x - a.x) + (self.y - a.y) * (b.y - a.y)) / len_sq;
        let t = t.clamp(0.0, 1.0);
        let proj = Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y));
        self.distance(proj)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from(value: (f64, f64)) -> Self {
        Point::new(value.0, value.1)
    }
}

/// Minimum distance between two closed segments `[a1, b1]` and `[a2, b2]`.
///
/// This is exactly the quantity `d(i, j)` from the paper: the smallest distance
/// between any point of link `i` (viewed as a segment between its sender and
/// receiver) and any point of link `j`. If the segments intersect the distance
/// is zero.
///
/// # Examples
///
/// ```
/// use wagg_geometry::{Point, point::segment_distance};
///
/// let d = segment_distance(
///     Point::new(0.0, 0.0), Point::new(1.0, 0.0),
///     Point::new(3.0, 0.0), Point::new(4.0, 0.0),
/// );
/// assert!((d - 2.0).abs() < 1e-12);
/// ```
pub fn segment_distance(a1: Point, b1: Point, a2: Point, b2: Point) -> f64 {
    if segments_intersect(a1, b1, a2, b2) {
        return 0.0;
    }
    let d1 = a1.distance_to_segment(a2, b2);
    let d2 = b1.distance_to_segment(a2, b2);
    let d3 = a2.distance_to_segment(a1, b1);
    let d4 = b2.distance_to_segment(a1, b1);
    d1.min(d2).min(d3).min(d4)
}

/// Orientation of the ordered triple `(p, q, r)`.
///
/// Returns a positive value for counter-clockwise, negative for clockwise and zero
/// for collinear points (within floating point accuracy).
fn orientation(p: Point, q: Point, r: Point) -> f64 {
    (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
}

fn on_segment(p: Point, q: Point, r: Point) -> bool {
    q.x <= p.x.max(r.x) && q.x >= p.x.min(r.x) && q.y <= p.y.max(r.y) && q.y >= p.y.min(r.y)
}

/// Whether the closed segments `[p1, q1]` and `[p2, q2]` intersect.
///
/// # Examples
///
/// ```
/// use wagg_geometry::{Point, point::segments_intersect};
///
/// assert!(segments_intersect(
///     Point::new(0.0, 0.0), Point::new(2.0, 2.0),
///     Point::new(0.0, 2.0), Point::new(2.0, 0.0),
/// ));
/// assert!(!segments_intersect(
///     Point::new(0.0, 0.0), Point::new(1.0, 0.0),
///     Point::new(2.0, 0.0), Point::new(3.0, 0.0),
/// ));
/// ```
pub fn segments_intersect(p1: Point, q1: Point, p2: Point, q2: Point) -> bool {
    // Segments that meet share a point, so their bounding boxes overlap.
    // Testing the boxes first keeps rounding in the orientation signs from
    // reporting a crossing of two nearly collinear segments that lie apart
    // on a slanted line.
    if p1.x.max(q1.x) < p2.x.min(q2.x)
        || p2.x.max(q2.x) < p1.x.min(q1.x)
        || p1.y.max(q1.y) < p2.y.min(q2.y)
        || p2.y.max(q2.y) < p1.y.min(q1.y)
    {
        return false;
    }
    let o1 = orientation(p1, q1, p2);
    let o2 = orientation(p1, q1, q2);
    let o3 = orientation(p2, q2, p1);
    let o4 = orientation(p2, q2, q1);

    if (o1 > 0.0) != (o2 > 0.0)
        && (o3 > 0.0) != (o4 > 0.0)
        && o1 != 0.0
        && o2 != 0.0
        && o3 != 0.0
        && o4 != 0.0
    {
        return true;
    }
    // Collinear special cases.
    (o1 == 0.0 && on_segment(p1, p2, q1))
        || (o2 == 0.0 && on_segment(p1, q2, q1))
        || (o3 == 0.0 && on_segment(p2, p1, q2))
        || (o4 == 0.0 && on_segment(p2, q1, q2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(-3.0, 5.5);
        assert_eq!(a.distance(b), b.distance(a));
    }

    #[test]
    fn distance_345() {
        assert_eq!(Point::new(0.0, 0.0).distance(Point::new(3.0, 4.0)), 5.0);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let p = Point::new(3.2, -1.1);
        assert_eq!(p.distance(p), 0.0);
    }

    #[test]
    fn midpoint_of_opposite_points_is_origin() {
        let a = Point::new(2.0, -4.0);
        let b = Point::new(-2.0, 4.0);
        assert_eq!(a.midpoint(b), Point::origin());
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(0.5, -0.25);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn scaled_and_translated() {
        let p = Point::new(1.0, -1.0);
        assert_eq!(p.scaled(2.0), Point::new(2.0, -2.0));
        assert_eq!(p.translated(1.0, 1.0), Point::new(2.0, 0.0));
    }

    #[test]
    fn point_from_tuple() {
        let p: Point = (1.0, 2.0).into();
        assert_eq!(p, Point::new(1.0, 2.0));
    }

    #[test]
    fn display_format() {
        assert_eq!(Point::new(1.0, 2.5).to_string(), "(1, 2.5)");
    }

    #[test]
    fn distance_to_degenerate_segment() {
        let p = Point::new(1.0, 1.0);
        let a = Point::new(0.0, 0.0);
        assert_eq!(p.distance_to_segment(a, a), p.distance(a));
    }

    #[test]
    fn distance_to_segment_interior_projection() {
        let p = Point::new(5.0, 3.0);
        let d = p.distance_to_segment(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn distance_to_segment_clamps_to_endpoint() {
        let p = Point::new(-4.0, 3.0);
        let d = p.distance_to_segment(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert!((d - 5.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_parallel() {
        let d = segment_distance(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(1.0, 2.0),
        );
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn segment_distance_crossing_is_zero() {
        let d = segment_distance(
            Point::new(0.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
        );
        assert_eq!(d, 0.0);
    }

    #[test]
    fn segment_distance_shared_endpoint_is_zero() {
        let d = segment_distance(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 5.0),
        );
        assert_eq!(d, 0.0);
    }

    #[test]
    fn collinear_overlapping_segments_intersect() {
        assert!(segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(3.0, 0.0),
        ));
    }

    #[test]
    fn collinear_disjoint_segments_do_not_intersect() {
        assert!(!segments_intersect(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(3.0, 0.0),
        ));
    }

    #[test]
    fn apart_collinear_segments_on_a_slanted_line_do_not_intersect() {
        // Unit segments on the line y = 0.489…·x, about 1.56 apart. Rounding
        // in the four orientations alone gives them opposite signs, so
        // without the box test these read as crossing at distance zero.
        let (p1, q1) = (
            Point::new(1.4963044777091572, 0.7321925617650044),
            Point::new(2.496304477709157, 1.2215264992574533),
        );
        let (p2, q2) = (
            Point::new(3.8999239371397327, 1.9083651360816396),
            Point::new(4.899923937139732, 2.3976990735740884),
        );
        assert!(!segments_intersect(p1, q1, p2, q2));
        let d = segment_distance(p1, q1, p2, q2);
        assert!((d - q1.distance(p2)).abs() < 1e-12, "distance {d}");
    }

    #[test]
    fn segment_distance_on_line_adjacent_links() {
        // Two collinear line links separated by a gap, as in the paper's
        // line constructions.
        let d = segment_distance(
            Point::on_line(0.0),
            Point::on_line(1.0),
            Point::on_line(4.0),
            Point::on_line(9.0),
        );
        assert!((d - 3.0).abs() < 1e-12);
    }
}
