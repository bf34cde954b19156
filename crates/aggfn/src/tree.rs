//! A validated convergecast tree and in-network evaluation of aggregates.

use crate::error::AggfnError;
use crate::ops::AggregateOp;
use std::collections::HashMap;
use wagg_sinr::Link;

/// A convergecast tree reconstructed from a set of links oriented towards a
/// sink (for example the output of
/// `wagg_mst::SpanningTree::orient_towards`).
///
/// The tree stores, for every non-sink node, its parent and the index of the
/// link it transmits on, plus a bottom-up evaluation order (children before
/// parents) so aggregates can be folded exactly the way the network would.
///
/// # Examples
///
/// ```
/// use wagg_aggfn::{ConvergecastTree, Sum};
/// use wagg_instances::random::grid;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = grid(3, 3, 1.0);
/// let tree = ConvergecastTree::from_links(&inst.mst_links()?)?;
/// assert_eq!(tree.node_count(), 9);
/// assert_eq!(tree.sink(), inst.sink);
///
/// let readings = vec![1.0; 9];
/// assert_eq!(tree.aggregate(&Sum, &readings)?, 9.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConvergecastTree {
    /// `parent[v] = (parent node, link index)` for every non-sink node.
    parent: HashMap<usize, (usize, usize)>,
    /// All node indices, in bottom-up (children before parents) order.
    bottom_up: Vec<usize>,
    /// Children of each node.
    children: HashMap<usize, Vec<usize>>,
    sink: usize,
    num_links: usize,
}

impl ConvergecastTree {
    /// Reconstructs the tree from convergecast links.
    ///
    /// # Errors
    ///
    /// Returns an [`AggfnError`] if the link set is empty, a link lacks node
    /// identifiers, a node has more than one parent, or the links do not form
    /// a single tree directed towards one sink.
    pub fn from_links(links: &[Link]) -> Result<Self, AggfnError> {
        if links.is_empty() {
            return Err(AggfnError::EmptyTree);
        }
        let mut parent: HashMap<usize, (usize, usize)> = HashMap::new();
        let mut children: HashMap<usize, Vec<usize>> = HashMap::new();
        let mut nodes: Vec<usize> = Vec::new();
        for (idx, link) in links.iter().enumerate() {
            let (s, r) = match (link.sender_node, link.receiver_node) {
                (Some(s), Some(r)) => (s.index(), r.index()),
                _ => {
                    return Err(AggfnError::MissingNodeIds {
                        link: link.id.index(),
                    })
                }
            };
            if parent.insert(s, (r, idx)).is_some() {
                return Err(AggfnError::MultipleParents { node: s });
            }
            children.entry(r).or_default().push(s);
            for v in [s, r] {
                if !nodes.contains(&v) {
                    nodes.push(v);
                }
            }
        }
        let sinks: Vec<usize> = nodes
            .iter()
            .copied()
            .filter(|v| !parent.contains_key(v))
            .collect();
        if sinks.len() != 1 {
            return Err(AggfnError::NotAConvergecastTree);
        }
        let sink = sinks[0];

        // Depth-first traversal from the sink over the children relation gives a
        // top-down order; reverse it for bottom-up. Detect unreachable nodes
        // (which would indicate a cycle among the remaining links).
        let mut top_down = Vec::with_capacity(nodes.len());
        let mut stack = vec![sink];
        let mut seen: HashMap<usize, bool> = nodes.iter().map(|&v| (v, false)).collect();
        while let Some(v) = stack.pop() {
            if seen.get(&v).copied().unwrap_or(false) {
                return Err(AggfnError::NotAConvergecastTree);
            }
            seen.insert(v, true);
            top_down.push(v);
            if let Some(cs) = children.get(&v) {
                stack.extend(cs.iter().copied());
            }
        }
        if top_down.len() != nodes.len() {
            return Err(AggfnError::NotAConvergecastTree);
        }
        let bottom_up: Vec<usize> = top_down.into_iter().rev().collect();

        Ok(ConvergecastTree {
            parent,
            bottom_up,
            children,
            sink,
            num_links: links.len(),
        })
    }

    /// The sink node index.
    pub fn sink(&self) -> usize {
        self.sink
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.bottom_up.len()
    }

    /// Number of links (always `node_count() - 1`).
    pub fn link_count(&self) -> usize {
        self.num_links
    }

    /// All node indices in bottom-up (children before parents) order.
    pub fn nodes_bottom_up(&self) -> &[usize] {
        &self.bottom_up
    }

    /// The parent of a node, or `None` for the sink and unknown nodes.
    pub fn parent_of(&self, node: usize) -> Option<usize> {
        self.parent.get(&node).map(|&(p, _)| p)
    }

    /// The children of a node.
    pub fn children_of(&self, node: usize) -> &[usize] {
        self.children.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Depth of a node (number of hops to the sink); `None` for unknown nodes.
    pub fn depth_of(&self, node: usize) -> Option<usize> {
        if !self.parent.contains_key(&node) && node != self.sink {
            return None;
        }
        let mut cur = node;
        let mut depth = 0;
        while cur != self.sink {
            cur = self.parent[&cur].0;
            depth += 1;
        }
        Some(depth)
    }

    /// Height of the tree (maximum node depth).
    pub fn height(&self) -> usize {
        self.bottom_up
            .iter()
            .filter_map(|&v| self.depth_of(v))
            .max()
            .unwrap_or(0)
    }

    /// Checks that the readings slice covers every node of the tree and
    /// contains only finite values.
    fn validate_readings(&self, readings: &[f64]) -> Result<(), AggfnError> {
        for &v in &self.bottom_up {
            match readings.get(v) {
                None => {
                    return Err(AggfnError::MissingReading {
                        node: v,
                        provided: readings.len(),
                    })
                }
                Some(r) if !r.is_finite() => return Err(AggfnError::NonFiniteReading { node: v }),
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Evaluates a compressible aggregate in-network: every node combines its
    /// own reading with its children's accumulators and forwards a single
    /// packet, exactly as a convergecast frame would.
    ///
    /// `readings[v]` is the reading of node `v`; the slice must cover every
    /// node index appearing in the tree.
    ///
    /// # Errors
    ///
    /// Returns [`AggfnError::MissingReading`] or
    /// [`AggfnError::NonFiniteReading`] when the readings are unusable.
    pub fn aggregate<O: AggregateOp>(&self, op: &O, readings: &[f64]) -> Result<f64, AggfnError> {
        Ok(op.finish(&self.aggregate_acc(op, readings)?))
    }

    /// Like [`ConvergecastTree::aggregate`] but returns the sink's raw
    /// accumulator (useful for pair accumulators such as [`crate::Mean`]'s).
    ///
    /// # Errors
    ///
    /// Same as [`ConvergecastTree::aggregate`].
    pub fn aggregate_acc<O: AggregateOp>(
        &self,
        op: &O,
        readings: &[f64],
    ) -> Result<O::Acc, AggfnError> {
        self.validate_readings(readings)?;
        let mut acc: HashMap<usize, O::Acc> = self
            .bottom_up
            .iter()
            .map(|&v| (v, op.lift(readings[v])))
            .collect();
        for &v in &self.bottom_up {
            if v == self.sink {
                continue;
            }
            let p = self.parent[&v].0;
            let merged = op.combine(&acc[&p], &acc[&v]);
            acc.insert(p, merged);
        }
        Ok(acc.remove(&self.sink).expect("sink accumulator present"))
    }

    /// Evaluates an aggregate and records the per-node transcript: which
    /// accumulator each node forwarded to its parent.
    ///
    /// # Errors
    ///
    /// Same as [`ConvergecastTree::aggregate`].
    pub fn aggregate_with_trace<O: AggregateOp>(
        &self,
        op: &O,
        readings: &[f64],
    ) -> Result<(f64, AggregationTrace), AggfnError> {
        self.validate_readings(readings)?;
        let mut acc: HashMap<usize, O::Acc> = self
            .bottom_up
            .iter()
            .map(|&v| (v, op.lift(readings[v])))
            .collect();
        let mut forwarded: Vec<(usize, usize, f64)> = Vec::with_capacity(self.num_links);
        for &v in &self.bottom_up {
            if v == self.sink {
                continue;
            }
            let p = self.parent[&v].0;
            forwarded.push((v, p, op.finish(&acc[&v])));
            let merged = op.combine(&acc[&p], &acc[&v]);
            acc.insert(p, merged);
        }
        let result = op.finish(&acc[&self.sink]);
        Ok((
            result,
            AggregationTrace {
                forwarded,
                transmissions: self.num_links,
            },
        ))
    }
}

/// Transcript of one convergecast evaluation: every `(child, parent, value)`
/// forwarding that took place, in evaluation order.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationTrace {
    /// `(sender, receiver, forwarded value)` for every link, children first.
    pub forwarded: Vec<(usize, usize, f64)>,
    /// Total number of packet transmissions (always `n - 1` for a tree on `n`
    /// nodes — the compressibility the paper assumes).
    pub transmissions: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{Count, Max, Mean, Min, Sum};
    use wagg_geometry::Point;
    use wagg_instances::random::{grid, uniform_square};
    use wagg_sinr::NodeId;

    fn star_links(n: usize) -> Vec<Link> {
        // Nodes 1..n all send directly to node 0.
        (1..n)
            .map(|i| {
                Link::with_nodes(
                    i - 1,
                    Point::new(i as f64, 1.0),
                    Point::origin(),
                    NodeId(i),
                    NodeId(0),
                )
            })
            .collect()
    }

    #[test]
    fn star_tree_has_height_one() {
        let tree = ConvergecastTree::from_links(&star_links(6)).unwrap();
        assert_eq!(tree.sink(), 0);
        assert_eq!(tree.node_count(), 6);
        assert_eq!(tree.link_count(), 5);
        assert_eq!(tree.height(), 1);
        assert_eq!(tree.children_of(0).len(), 5);
        assert_eq!(tree.parent_of(3), Some(0));
        assert_eq!(tree.parent_of(0), None);
        assert_eq!(tree.depth_of(4), Some(1));
        assert_eq!(tree.depth_of(99), None);
    }

    #[test]
    fn empty_link_set_is_rejected() {
        assert_eq!(
            ConvergecastTree::from_links(&[]).unwrap_err(),
            AggfnError::EmptyTree
        );
    }

    #[test]
    fn links_without_node_ids_are_rejected() {
        let links = vec![Link::new(0, Point::origin(), Point::new(1.0, 0.0))];
        assert!(matches!(
            ConvergecastTree::from_links(&links).unwrap_err(),
            AggfnError::MissingNodeIds { link: 0 }
        ));
    }

    #[test]
    fn double_parent_is_rejected() {
        let mut links = star_links(3);
        links.push(Link::with_nodes(
            2,
            Point::new(1.0, 1.0),
            Point::new(2.0, 1.0),
            NodeId(1),
            NodeId(2),
        ));
        assert!(matches!(
            ConvergecastTree::from_links(&links).unwrap_err(),
            AggfnError::MultipleParents { node: 1 }
        ));
    }

    #[test]
    fn two_component_forest_is_rejected() {
        let links = vec![
            Link::with_nodes(
                0,
                Point::new(1.0, 0.0),
                Point::origin(),
                NodeId(1),
                NodeId(0),
            ),
            Link::with_nodes(
                1,
                Point::new(10.0, 0.0),
                Point::new(11.0, 0.0),
                NodeId(3),
                NodeId(2),
            ),
        ];
        assert_eq!(
            ConvergecastTree::from_links(&links).unwrap_err(),
            AggfnError::NotAConvergecastTree
        );
    }

    #[test]
    fn cycle_is_rejected() {
        let links = vec![
            Link::with_nodes(
                0,
                Point::new(1.0, 0.0),
                Point::new(2.0, 0.0),
                NodeId(1),
                NodeId(2),
            ),
            Link::with_nodes(
                1,
                Point::new(2.0, 0.0),
                Point::new(1.0, 0.0),
                NodeId(2),
                NodeId(1),
            ),
            Link::with_nodes(
                2,
                Point::new(3.0, 0.0),
                Point::origin(),
                NodeId(3),
                NodeId(0),
            ),
        ];
        assert_eq!(
            ConvergecastTree::from_links(&links).unwrap_err(),
            AggfnError::NotAConvergecastTree
        );
    }

    #[test]
    fn aggregates_match_direct_computation_on_mst() {
        let inst = uniform_square(40, 100.0, 11);
        let tree = ConvergecastTree::from_links(&inst.mst_links().unwrap()).unwrap();
        let readings: Vec<f64> = (0..40).map(|i| ((i * 37) % 23) as f64 - 11.0).collect();

        let direct_sum: f64 = readings.iter().sum();
        let direct_max = readings.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let direct_min = readings.iter().cloned().fold(f64::INFINITY, f64::min);

        assert!((tree.aggregate(&Sum, &readings).unwrap() - direct_sum).abs() < 1e-9);
        assert_eq!(tree.aggregate(&Max, &readings).unwrap(), direct_max);
        assert_eq!(tree.aggregate(&Min, &readings).unwrap(), direct_min);
        assert_eq!(tree.aggregate(&Count, &readings).unwrap(), 40.0);
        let mean = tree.aggregate(&Mean, &readings).unwrap();
        assert!((mean - direct_sum / 40.0).abs() < 1e-9);
    }

    #[test]
    fn missing_and_non_finite_readings_are_reported() {
        let tree = ConvergecastTree::from_links(&star_links(4)).unwrap();
        let short = vec![1.0, 2.0];
        assert!(matches!(
            tree.aggregate(&Sum, &short).unwrap_err(),
            AggfnError::MissingReading { provided: 2, .. }
        ));
        let bad = vec![1.0, f64::NAN, 3.0, 4.0];
        assert_eq!(
            tree.aggregate(&Sum, &bad).unwrap_err(),
            AggfnError::NonFiniteReading { node: 1 }
        );
    }

    #[test]
    fn trace_records_one_transmission_per_link() {
        let inst = grid(4, 4, 2.0);
        let tree = ConvergecastTree::from_links(&inst.mst_links().unwrap()).unwrap();
        let readings = vec![1.0; 16];
        let (total, trace) = tree.aggregate_with_trace(&Sum, &readings).unwrap();
        assert_eq!(total, 16.0);
        assert_eq!(trace.transmissions, 15);
        assert_eq!(trace.forwarded.len(), 15);
        // Every forwarded value is the size of the sender's subtree (all readings 1).
        for &(_, _, value) in &trace.forwarded {
            assert!((1.0..=16.0).contains(&value));
        }
    }

    #[test]
    fn bottom_up_order_has_children_before_parents() {
        let inst = uniform_square(30, 60.0, 3);
        let tree = ConvergecastTree::from_links(&inst.mst_links().unwrap()).unwrap();
        let order = tree.nodes_bottom_up();
        let position: HashMap<usize, usize> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for &v in order {
            if let Some(p) = tree.parent_of(v) {
                assert!(position[&v] < position[&p], "child {v} after parent {p}");
            }
        }
        assert_eq!(*order.last().unwrap(), tree.sink());
    }
}
