//! The physical network graph `G_p = (N ∪ {r}, E_p)`.
//!
//! Nodes are placed in a rectangular deployment area; two nodes are
//! physically connected iff their Euclidean distance is at most the radio
//! range `ρ` (a unit-disk graph). Node `0` is by convention the root/sink
//! `r`: it has an infinite energy supply and takes no measurements
//! (paper §2).
//!
//! The graph is stored in compressed sparse rows (one `offsets` array, one
//! flat id-sorted `adj` array) and built in linear time by a flat cell grid;
//! see [`Topology::build`].

use std::ops::Range;

use crate::geometry::Point;

/// Identifier of a network node. Index `0` is always the root (sink).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The distinguished root node `r`.
    pub const ROOT: NodeId = NodeId(0);

    /// Returns the node id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// True iff this is the root node.
    #[inline]
    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The physical topology: node positions plus the disk connectivity graph.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    radio_range: f64,
    /// CSR disk graph (symmetric, no self loops): the neighbors of `i` are
    /// `adj[offsets[i] .. offsets[i + 1]]`, ascending by id.
    offsets: Vec<u32>,
    adj: Vec<NodeId>,
}

impl Topology {
    /// Builds the disk graph over `positions` with radio range
    /// `radio_range` (meters). `positions\[0\]` is the root.
    ///
    /// Buckets the nodes into a flat grid of `ρ`-sized cells by counting
    /// sort (cell key `floor((p − min) / ρ)`), then tests each node against
    /// the candidates of its 3×3 cell block with a branch-free
    /// `dist² ≤ ρ²` mask: once to count each row of the CSR graph, once to
    /// fill it. The fill visits sources in ascending id and appends each
    /// source to the rows of its hits, so every row comes out sorted with
    /// no per-row sort; its only scratch is one row of hits.
    ///
    /// Time is `O(n + c)` for `c` candidate tests, about `9/π` per
    /// neighbor on a uniform deployment. Memory is `O(n + |E|)`: when
    /// `extent / ρ` would need more than `4n` cells, `k × k` blocks of
    /// cells merge into one, which only adds candidates — the mask still
    /// decides every edge.
    ///
    /// # Panics
    /// Panics if fewer than two positions are given or the range is not
    /// strictly positive.
    pub fn build(positions: Vec<Point>, radio_range: f64) -> Self {
        assert!(positions.len() >= 2, "need a root and at least one sensor");
        assert!(radio_range > 0.0, "radio range must be positive");
        let n = positions.len();
        let cells = Cells::sort(&positions, radio_range);
        let range_sq = radio_range * radio_range;
        let hit = |x: f64, y: f64, p: &Point| Point::new(x, y).dist_sq(p) <= range_sq;

        // Count pass: row lengths. The block of `i` includes `i` itself.
        let mut offsets = vec![0u32; n + 1];
        for (i, p) in positions.iter().enumerate() {
            let mut degree = 0u32;
            for run in cells.block(i) {
                for (&x, &y) in cells.xs[run.clone()].iter().zip(&cells.ys[run]) {
                    degree += hit(x, y, p) as u32;
                }
            }
            offsets[i + 1] = (offsets[i] + degree)
                .checked_sub(hit(p.x, p.y, p) as u32)
                .expect("the block of a node includes the node");
        }

        // Fill pass: compact the hits of `i` (the buffer holds one row),
        // then append `i` to each hit's row. Sources ascend, so every row
        // fills in ascending id order.
        let max_degree = offsets.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        let mut hits = vec![0u32; max_degree as usize + 1];
        let mut fill = offsets.clone();
        let mut adj = vec![NodeId::ROOT; offsets[n] as usize];
        for (i, p) in positions.iter().enumerate() {
            let mut len = 0;
            for run in cells.block(i) {
                for k in run {
                    let j = cells.ids[k];
                    hits[len] = j;
                    len += (hit(cells.xs[k], cells.ys[k], p) & (j as usize != i)) as usize;
                }
            }
            for &j in &hits[..len] {
                adj[fill[j as usize] as usize] = NodeId(i as u32);
                fill[j as usize] += 1;
            }
        }

        Topology {
            positions,
            radio_range,
            offsets,
            adj,
        }
    }

    /// Hands back the position buffer, so a caller rebuilding the graph
    /// every round can refill it instead of allocating a new one.
    pub(crate) fn into_positions(self) -> Vec<Point> {
        self.positions
    }

    /// Total number of nodes including the root (`|N| + 1`).
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Never true: a topology always has at least a root and one sensor.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of sensor nodes `|N|` (root excluded).
    pub fn sensor_count(&self) -> usize {
        self.positions.len() - 1
    }

    /// The radio range ρ in meters.
    pub fn radio_range(&self) -> f64 {
        self.radio_range
    }

    /// Position of a node.
    pub fn position(&self, id: NodeId) -> Point {
        self.positions[id.index()]
    }

    /// Physical neighbors of `id` in the disk graph.
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Returns `true` iff every node can reach the root over physical links
    /// (the paper assumes an unpartitioned network).
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::ROOT];
        seen[0] = true;
        let mut visited = 0usize;
        while let Some(u) = stack.pop() {
            visited += 1;
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        visited == n
    }

    /// Iterator over all node ids, root first.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len() as u32).map(NodeId)
    }

    /// Iterator over sensor node ids (everything but the root).
    pub fn sensor_ids(&self) -> impl Iterator<Item = NodeId> {
        (1..self.len() as u32).map(NodeId)
    }
}

/// The nodes of a [`Topology::build`] counting-sorted into a flat grid of
/// `cols × rows` cells of side `k · ρ`, numbered row-major.
struct Cells {
    cols: usize,
    rows: usize,
    /// Cell of each node, by id.
    cell_of: Vec<u32>,
    /// The members of cell `c` are at `start[c] .. start[c + 1]` of the
    /// parallel member arrays, ascending by id.
    start: Vec<u32>,
    ids: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl Cells {
    fn sort(positions: &[Point], range: f64) -> Cells {
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        for p in positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
        }
        // The `ρ`-cell coordinates; the float → int casts saturate, so an
        // absurd extent lands in the last cell.
        let key = |p: &Point| {
            (
                ((p.x - min_x) / range).floor() as u64,
                ((p.y - min_y) / range).floor() as u64,
            )
        };
        let (mut max_cx, mut max_cy) = (0u64, 0u64);
        for p in positions {
            let (cx, cy) = key(p);
            max_cx = max_cx.max(cx);
            max_cy = max_cy.max(cy);
        }
        // At most 4n cells: merge k × k blocks of ρ-cells until the grid
        // fits. Neighbors sit at most one ρ-cell apart per axis, hence at
        // most one merged cell apart too.
        let cap = 4 * positions.len() as u128;
        let cell_count = |k: u64| ((max_cx / k) as u128 + 1) * ((max_cy / k) as u128 + 1);
        let mut k = 1u64;
        while cell_count(k) > cap {
            k = k.saturating_mul(2);
        }
        let (cols, rows) = ((max_cx / k) as usize + 1, (max_cy / k) as usize + 1);

        let cell_of: Vec<u32> = positions
            .iter()
            .map(|p| {
                let (cx, cy) = key(p);
                ((cy / k) as usize * cols + (cx / k) as usize) as u32
            })
            .collect();
        let mut start = vec![0u32; cols * rows + 1];
        for &c in &cell_of {
            start[c as usize + 1] += 1;
        }
        for c in 1..start.len() {
            start[c] += start[c - 1];
        }
        let n = positions.len();
        let (mut ids, mut xs, mut ys) = (vec![0u32; n], vec![0.0; n], vec![0.0; n]);
        let mut cursor = start.clone();
        for (i, (&c, p)) in cell_of.iter().zip(positions).enumerate() {
            let at = cursor[c as usize] as usize;
            (ids[at], xs[at], ys[at]) = (i as u32, p.x, p.y);
            cursor[c as usize] += 1;
        }
        Cells {
            cols,
            rows,
            cell_of,
            start,
            ids,
            xs,
            ys,
        }
    }

    /// The member ranges of node `i`'s 3×3 cell block, one per grid row
    /// (the three cells of a row are contiguous).
    fn block(&self, i: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        let c = self.cell_of[i] as usize;
        let (cx, cy) = (c % self.cols, c / self.cols);
        let (x0, x1) = (cx.saturating_sub(1), (cx + 1).min(self.cols - 1));
        (cy.saturating_sub(1)..=(cy + 1).min(self.rows - 1)).map(move |y| {
            let row = y * self.cols;
            self.start[row + x0] as usize..self.start[row + x1 + 1] as usize
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_topology(n: usize, spacing: f64, range: f64) -> Topology {
        let positions = (0..n)
            .map(|i| Point::new(i as f64 * spacing, 0.0))
            .collect();
        Topology::build(positions, range)
    }

    #[test]
    fn disk_graph_edges_respect_range() {
        let topo = line_topology(5, 10.0, 10.5);
        // Each interior node sees exactly its two line neighbors.
        assert_eq!(topo.neighbors(NodeId(2)), &[NodeId(1), NodeId(3)]);
        assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
        assert!(topo.is_connected());
    }

    #[test]
    fn larger_range_adds_edges() {
        let topo = line_topology(5, 10.0, 20.5);
        assert_eq!(topo.neighbors(NodeId(2)).len(), 4);
    }

    #[test]
    fn disconnected_topology_detected() {
        let mut positions: Vec<Point> = (0..3).map(|i| Point::new(i as f64, 0.0)).collect();
        positions.push(Point::new(100.0, 100.0));
        let topo = Topology::build(positions, 2.0);
        assert!(!topo.is_connected());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let topo = line_topology(20, 7.0, 15.0);
        for u in topo.node_ids() {
            for &v in topo.neighbors(u) {
                assert!(topo.neighbors(v).contains(&u), "{u} -> {v} not symmetric");
                assert_ne!(u, v, "self loop at {u}");
            }
        }
    }

    #[test]
    fn grid_index_matches_bruteforce() {
        // Deterministic pseudo-random placement.
        let mut s: u64 = 42;
        let mut next = || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as f64) / ((1u64 << 31) as f64)
        };
        let positions: Vec<Point> = (0..200)
            .map(|_| Point::new(next() * 100.0, next() * 100.0))
            .collect();
        let range = 12.0;
        let topo = Topology::build(positions.clone(), range);
        for i in 0..positions.len() {
            let mut expect: Vec<NodeId> = (0..positions.len())
                .filter(|&j| j != i && positions[i].dist(&positions[j]) <= range)
                .map(|j| NodeId(j as u32))
                .collect();
            expect.sort_unstable();
            assert_eq!(topo.neighbors(NodeId(i as u32)), expect.as_slice());
        }
    }

    #[test]
    fn counts_exclude_root() {
        let topo = line_topology(5, 1.0, 2.0);
        assert_eq!(topo.len(), 5);
        assert_eq!(topo.sensor_count(), 4);
        assert_eq!(topo.sensor_ids().count(), 4);
        assert!(NodeId::ROOT.is_root());
        assert!(!NodeId(1).is_root());
    }
}
