//! Axis-aligned bounding boxes of pointsets.

use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned bounding box.
///
/// Used by instance generators and by the experiment harness to report
/// deployment areas and to normalise instances.
///
/// # Examples
///
/// ```
/// use wagg_geometry::{BoundingBox, Point};
///
/// let pts = [Point::new(0.0, 1.0), Point::new(2.0, -1.0)];
/// let bb = BoundingBox::of_points(&pts).unwrap();
/// assert_eq!(bb.width(), 2.0);
/// assert_eq!(bb.height(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    /// Minimum x coordinate.
    pub min_x: f64,
    /// Minimum y coordinate.
    pub min_y: f64,
    /// Maximum x coordinate.
    pub max_x: f64,
    /// Maximum y coordinate.
    pub max_y: f64,
}

impl BoundingBox {
    /// Creates a bounding box from explicit corner coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `min_x > max_x` or `min_y > max_y`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::BoundingBox;
    /// let bb = BoundingBox::new(0.0, 0.0, 1.0, 2.0);
    /// assert_eq!(bb.area(), 2.0);
    /// ```
    pub fn new(min_x: f64, min_y: f64, max_x: f64, max_y: f64) -> Self {
        assert!(min_x <= max_x, "min_x must not exceed max_x");
        assert!(min_y <= max_y, "min_y must not exceed max_y");
        BoundingBox {
            min_x,
            min_y,
            max_x,
            max_y,
        }
    }

    /// Computes the bounding box of a non-empty slice of points.
    ///
    /// Returns `None` for an empty slice.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::{BoundingBox, Point};
    /// assert!(BoundingBox::of_points(&[]).is_none());
    /// let bb = BoundingBox::of_points(&[Point::new(1.0, 1.0)]).unwrap();
    /// assert_eq!(bb.area(), 0.0);
    /// ```
    pub fn of_points(points: &[Point]) -> Option<Self> {
        let first = points.first()?;
        let mut bb = BoundingBox {
            min_x: first.x,
            min_y: first.y,
            max_x: first.x,
            max_y: first.y,
        };
        for p in &points[1..] {
            bb.min_x = bb.min_x.min(p.x);
            bb.min_y = bb.min_y.min(p.y);
            bb.max_x = bb.max_x.max(p.x);
            bb.max_y = bb.max_y.max(p.y);
        }
        Some(bb)
    }

    /// Width of the box.
    pub fn width(&self) -> f64 {
        self.max_x - self.min_x
    }

    /// Height of the box.
    pub fn height(&self) -> f64 {
        self.max_y - self.min_y
    }

    /// Area of the box.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Length of the diagonal — an upper bound on the diameter of the contained pointset.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::BoundingBox;
    /// let bb = BoundingBox::new(0.0, 0.0, 3.0, 4.0);
    /// assert_eq!(bb.diagonal(), 5.0);
    /// ```
    pub fn diagonal(&self) -> f64 {
        (self.width() * self.width() + self.height() * self.height()).sqrt()
    }

    /// The centre point of the box.
    pub fn center(&self) -> Point {
        Point::new(
            (self.min_x + self.max_x) / 2.0,
            (self.min_y + self.max_y) / 2.0,
        )
    }

    /// The bounding box of the segment `[a, b]` (used to index link segments
    /// in the spatial grid).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::{BoundingBox, Point};
    /// let bb = BoundingBox::of_segment(Point::new(2.0, 0.0), Point::new(0.0, 3.0));
    /// assert_eq!(bb, BoundingBox::new(0.0, 0.0, 2.0, 3.0));
    /// ```
    pub fn of_segment(a: Point, b: Point) -> Self {
        BoundingBox {
            min_x: a.x.min(b.x),
            min_y: a.y.min(b.y),
            max_x: a.x.max(b.x),
            max_y: a.y.max(b.y),
        }
    }

    /// Whether the box contains the point `p` (boundary inclusive).
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::{BoundingBox, Point};
    /// let bb = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
    /// assert!(bb.contains(Point::new(0.5, 1.0)));
    /// assert!(!bb.contains(Point::new(1.5, 0.5)));
    /// ```
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min_x && p.x <= self.max_x && p.y >= self.min_y && p.y <= self.max_y
    }

    /// Euclidean distance from `p` to the box (zero when the box contains
    /// `p`). This lower-bounds the distance from `p` to every point inside
    /// the box, which is what makes aggregated `power / distance^α` terms
    /// over a box of senders a certified upper bound.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::{BoundingBox, Point};
    /// let bb = BoundingBox::new(0.0, 0.0, 2.0, 1.0);
    /// assert_eq!(bb.distance_to(Point::new(1.0, 0.5)), 0.0);
    /// assert_eq!(bb.distance_to(Point::new(5.0, 5.0)), 5.0);
    /// ```
    pub fn distance_to(&self, p: Point) -> f64 {
        let dx = (self.min_x - p.x).max(p.x - self.max_x).max(0.0);
        let dy = (self.min_y - p.y).max(p.y - self.max_y).max(0.0);
        dx.hypot(dy)
    }

    /// The squared distance between the closest points of two boxes (zero
    /// when they overlap). It lower-bounds the squared distance between any
    /// point of one box and any point of the other.
    ///
    /// # Examples
    ///
    /// ```
    /// use wagg_geometry::BoundingBox;
    /// let a = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
    /// assert_eq!(a.gap_sq(&BoundingBox::new(4.0, 5.0, 6.0, 6.0)), 25.0);
    /// assert_eq!(a.gap_sq(&BoundingBox::new(0.5, 0.5, 2.0, 2.0)), 0.0);
    /// ```
    #[inline]
    pub fn gap_sq(&self, other: &BoundingBox) -> f64 {
        let dx = (self.min_x - other.max_x)
            .max(other.min_x - self.max_x)
            .max(0.0);
        let dy = (self.min_y - other.max_y)
            .max(other.min_y - self.max_y)
            .max(0.0);
        dx * dx + dy * dy
    }

    /// The smallest box containing both boxes.
    #[inline]
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min_x: self.min_x.min(other.min_x),
            min_y: self.min_y.min(other.min_y),
            max_x: self.max_x.max(other.max_x),
            max_y: self.max_y.max(other.max_y),
        }
    }

    /// The largest absolute value of the box's coordinates.
    #[inline]
    pub fn max_abs(&self) -> f64 {
        self.min_x
            .abs()
            .max(self.min_y.abs())
            .max(self.max_x.abs())
            .max(self.max_y.abs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn of_points_empty_is_none() {
        assert!(BoundingBox::of_points(&[]).is_none());
    }

    #[test]
    fn of_points_single() {
        let bb = BoundingBox::of_points(&[Point::new(2.0, 3.0)]).unwrap();
        assert_eq!(bb.width(), 0.0);
        assert_eq!(bb.height(), 0.0);
        assert_eq!(bb.center(), Point::new(2.0, 3.0));
    }

    #[test]
    fn of_points_spans_all() {
        let pts = [
            Point::new(-1.0, 2.0),
            Point::new(3.0, 0.0),
            Point::new(1.0, 5.0),
        ];
        let bb = BoundingBox::of_points(&pts).unwrap();
        assert_eq!(bb.min_x, -1.0);
        assert_eq!(bb.max_x, 3.0);
        assert_eq!(bb.min_y, 0.0);
        assert_eq!(bb.max_y, 5.0);
        for p in pts {
            assert!(bb.contains(p));
        }
    }

    #[test]
    #[should_panic(expected = "min_x must not exceed max_x")]
    fn new_rejects_inverted_x() {
        let _ = BoundingBox::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn diagonal_and_area() {
        let bb = BoundingBox::new(0.0, 0.0, 6.0, 8.0);
        assert_eq!(bb.diagonal(), 10.0);
        assert_eq!(bb.area(), 48.0);
    }

    #[test]
    fn contains_boundary() {
        let bb = BoundingBox::new(0.0, 0.0, 1.0, 1.0);
        assert!(bb.contains(Point::new(0.0, 0.0)));
        assert!(bb.contains(Point::new(1.0, 1.0)));
    }
}
