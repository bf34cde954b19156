//! A static 2-d tree over a pointset that counts the live points under
//! every node: the nearest-neighbour index behind Prim's algorithm in
//! [`euclidean_mst`](crate::euclidean_mst) (Bentley and Friedman, "Fast
//! algorithms for constructing minimal spanning trees in coordinate spaces",
//! IEEE Trans. Computers C-27, 1978) and behind the duplicate check every
//! tree constructor runs.
//!
//! A query returns the live point nearest to a query point by
//! `(distance, index)`, with distances computed by [`Point::distance`] and
//! compared exactly, so a tie goes to the lowest index, as in a scan over
//! every point. Points are removed as they join the tree; the layout never
//! changes.

use wagg_geometry::Point;

/// Most points a leaf holds.
const LEAF: usize = 8;

/// One node: a contiguous run of the tree order and its bounding box.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Smallest coordinates of the node's points.
    min: Point,
    /// Largest coordinates of the node's points.
    max: Point,
    /// The node's points sit at `start..end` in the tree order.
    start: usize,
    end: usize,
    /// The right child (the left child is the next node); zero for a leaf.
    right: usize,
    /// How many of the node's points are live.
    live: usize,
}

/// The tree: nodes in preorder over a permutation of the points.
#[derive(Debug)]
pub(crate) struct KdTree {
    nodes: Vec<Node>,
    /// The points in tree order, with their input indices.
    points: Vec<Point>,
    ids: Vec<usize>,
    /// Whether the point at each tree-order position is live.
    live: Vec<bool>,
    /// Each input index's position in the tree order.
    slot: Vec<usize>,
}

impl KdTree {
    /// Lays the tree out over `points` (at least one, all finite), every
    /// point live.
    pub(crate) fn new(points: &[Point]) -> Self {
        let n = points.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut tree = KdTree {
            nodes: Vec::with_capacity(2 * n.div_ceil(LEAF)),
            points: Vec::new(),
            ids: Vec::new(),
            live: vec![true; n],
            slot: vec![0; n],
        };
        tree.split(points, &mut order, 0);
        tree.points = order.iter().map(|&i| points[i]).collect();
        for (s, &i) in order.iter().enumerate() {
            tree.slot[i] = s;
        }
        tree.ids = order;
        tree
    }

    /// Adds the node over `order` (tree positions from `start`) and its
    /// subtree, halving at the median of the box's wider side; returns the
    /// node's index.
    fn split(&mut self, points: &[Point], order: &mut [usize], start: usize) -> usize {
        let first = points[order[0]];
        let (min, max) = order.iter().fold((first, first), |(lo, hi), &i| {
            let p = points[i];
            (
                Point::new(lo.x.min(p.x), lo.y.min(p.y)),
                Point::new(hi.x.max(p.x), hi.y.max(p.y)),
            )
        });
        let k = self.nodes.len();
        self.nodes.push(Node {
            min,
            max,
            start,
            end: start + order.len(),
            right: 0,
            live: order.len(),
        });
        if order.len() > LEAF {
            let mid = order.len() / 2;
            if max.x - min.x >= max.y - min.y {
                order.select_nth_unstable_by(mid, |&a, &b| points[a].x.total_cmp(&points[b].x));
            } else {
                order.select_nth_unstable_by(mid, |&a, &b| points[a].y.total_cmp(&points[b].y));
            }
            let (left, right) = order.split_at_mut(mid);
            self.split(points, left, start);
            self.nodes[k].right = self.split(points, right, start + mid);
        }
        k
    }

    /// Whether point `id` is live.
    pub(crate) fn is_live(&self, id: usize) -> bool {
        self.live[self.slot[id]]
    }

    /// Removes the live point `id` from every later query.
    pub(crate) fn remove(&mut self, id: usize) {
        let s = self.slot[id];
        debug_assert!(self.live[s], "point {id} was removed twice");
        self.live[s] = false;
        let mut k = 0;
        loop {
            self.nodes[k].live -= 1;
            let right = self.nodes[k].right;
            if right == 0 {
                return;
            }
            k = if s < self.nodes[right].start {
                k + 1
            } else {
                right
            };
        }
    }

    /// Makes every point live again.
    pub(crate) fn revive(&mut self) {
        self.live.fill(true);
        for node in &mut self.nodes {
            node.live = node.end - node.start;
        }
    }

    /// The live point nearest to `q` by `(distance, index)` among those at
    /// distance at most `within`, with that distance: `within = ∞` is a
    /// nearest-neighbour query, `within = 0` finds the lowest-indexed live
    /// point that coincides with `q`.
    pub(crate) fn nearest(&self, q: Point, within: f64) -> Option<(f64, usize)> {
        let mut best = (within, usize::MAX);
        if self.nodes[0].live > 0 && self.bound(0, q) <= within {
            self.search(0, q, &mut best);
        }
        (best.1 != usize::MAX).then_some(best)
    }

    fn search(&self, k: usize, q: Point, best: &mut (f64, usize)) {
        let node = &self.nodes[k];
        if node.right == 0 {
            for s in node.start..node.end {
                if self.live[s] {
                    let (d, id) = (q.distance(self.points[s]), self.ids[s]);
                    if d < best.0 || (d == best.0 && id < best.1) {
                        *best = (d, id);
                    }
                }
            }
            return;
        }
        let (left, right) = (k + 1, node.right);
        let (near, far) = {
            let (l, r) = (self.bound(left, q), self.bound(right, q));
            if r < l {
                ((right, r), (left, l))
            } else {
                ((left, l), (right, r))
            }
        };
        for (child, bound) in [near, far] {
            // A box exactly at the best distance may still hold a lower
            // index at that distance: prune only a strictly farther one.
            if self.nodes[child].live > 0 && bound <= best.0 {
                self.search(child, q, best);
            }
        }
    }

    /// A lower bound on the distance from `q` to every point of node `k`:
    /// [`Point::distance`] to the box's point nearest to `q`. Rounding is
    /// monotone, so each coordinate difference and then the whole
    /// computation rounds to no more than it does for any member.
    fn bound(&self, k: usize, q: Point) -> f64 {
        let Node { min, max, .. } = self.nodes[k];
        q.distance(Point::new(q.x.clamp(min.x, max.x), q.y.clamp(min.y, max.y)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The reference: a scan over every live point.
    fn scan(points: &[Point], live: &[bool], q: Point, within: f64) -> Option<(f64, usize)> {
        let mut best = (within, usize::MAX);
        for (id, &p) in points.iter().enumerate() {
            let d = q.distance(p);
            if live[id] && (d < best.0 || (d == best.0 && id < best.1)) {
                best = (d, id);
            }
        }
        (best.1 != usize::MAX).then_some(best)
    }

    #[test]
    fn queries_match_a_scan_while_points_leave() {
        let mut rng = wagg_geometry::rng::seeded_rng(5);
        for n in [1usize, 2, 8, 9, 17, 200] {
            // A coarse lattice: many exact ties in distance.
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.gen_range(0..12) as f64, rng.gen_range(0..12) as f64))
                .collect();
            let mut tree = KdTree::new(&points);
            let mut live = vec![true; n];
            for round in 0..n {
                for within in [f64::INFINITY, 0.0] {
                    let q = Point::new(rng.gen_range(-2.0..14.0), rng.gen_range(-2.0..14.0));
                    assert_eq!(tree.nearest(q, within), scan(&points, &live, q, within));
                    let p = points[round];
                    assert_eq!(tree.nearest(p, within), scan(&points, &live, p, within));
                }
                tree.remove(round);
                live[round] = false;
                assert!(!tree.is_live(round));
            }
            assert_eq!(tree.nearest(Point::origin(), f64::INFINITY), None);
            tree.revive();
            assert!((0..n).all(|id| tree.is_live(id)));
            assert_eq!(tree.nodes[0].live, n);
        }
    }
}
