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
//! see [`Topology::build`]. After nodes move, the same builder re-tests
//! only the pairs with a moved endpoint and copies every other row.

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
    /// Buffers kept between [`Topology::relocate`] calls.
    scratch: Scratch,
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
    /// no per-row sort; its only scratch is one row of hits. This is the
    /// every-node-moved case, run from an edgeless graph, of the routine
    /// that [`crate::Network::dynamics_rebuild`] re-derives the graph with
    /// when only some nodes moved.
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
        let mut topo = Topology {
            offsets: vec![0; positions.len() + 1],
            positions,
            radio_range,
            adj: Vec::new(),
            scratch: Scratch::default(),
        };
        topo.relink(&[]);
        topo
    }

    /// Moves the nodes to `positions` and re-derives the disk graph, then
    /// hands the previous positions back in `positions`, so a caller that
    /// rebuilds every round cycles one buffer instead of allocating.
    ///
    /// A node moved iff either coordinate differs bit for bit. Only pairs
    /// with a moved endpoint are tested again, through the same grid and
    /// mask as [`Topology::build`]; a link between two nodes that stayed
    /// put is copied from the old row, and a row that gains and loses no
    /// moved neighbor is copied whole. The graph equals a fresh
    /// [`Topology::build`] over the same positions. The grid and row
    /// buffers are reused from call to call; the CSR arrays are written
    /// fresh and the old ones freed, since keeping a spent CSR alive
    /// between rebuilds raised the peak RSS of a churning world.
    ///
    /// # Panics
    /// Panics if `positions` holds a different number of nodes.
    pub(crate) fn relocate(&mut self, positions: &mut Vec<Point>) {
        assert_eq!(positions.len(), self.len(), "relocation keeps every node");
        std::mem::swap(&mut self.positions, positions);
        self.relink(positions);
    }

    /// Re-derives the graph over the current positions from the graph
    /// over `old`. Node `i` moved iff `old` lacks it or its bits differ.
    ///
    /// The count pass sizes every row: a node that stayed put starts from
    /// its old degree; a moved node counts its block hits, leaves the rows
    /// of the nodes that stayed put within range of its old position, and
    /// joins those within range of its new one as their fresh link — both
    /// found among the grid's members that stayed put, which each cell
    /// keeps apart from those that moved. The fill pass visits sources in
    /// ascending id and appends each source to the rows of its moved
    /// neighbors — a moved source through its block, a source that stayed
    /// put through its fresh links — so moved rows fill sorted. The rows
    /// of the nodes that stayed put are copied, a run of untouched rows at
    /// a time; a touched row is its old row without the moved nodes,
    /// merged with its fresh links. When every node moved, only the count
    /// and fill passes do any work.
    fn relink(&mut self, old: &[Point]) {
        let Topology {
            positions,
            radio_range,
            offsets,
            adj,
            scratch,
        } = self;
        let Scratch {
            cells,
            moved,
            touched,
            fresh,
            link_start,
            links,
            fill,
            hits,
        } = scratch;
        let n = positions.len();
        let range_sq = *radio_range * *radio_range;
        let bits = |p: &Point| (p.x.to_bits(), p.y.to_bits());
        let (offsets, adj): (&[u32], &[NodeId]) = (offsets, adj);
        let old_row = |i: usize| &adj[offsets[i] as usize..offsets[i + 1] as usize];

        // Moved set; `deg[i + 1]` collects the new degree of `i`.
        moved.clear();
        moved.extend((0..n).map(|i| old.get(i).is_none_or(|o| bits(o) != bits(&positions[i]))));
        let mut next_offsets = vec![0; n + 1];
        let deg = &mut next_offsets[..];
        for i in (0..n).filter(|&i| !moved[i]) {
            deg[i + 1] = offsets[i + 1] - offsets[i];
        }
        touched.clear();
        touched.resize(n, false);
        cells.sort(positions, *radio_range, moved);
        let (cells, moved) = (&*cells, &moved[..]);

        // Count pass over the moved nodes. The block of `i` includes `i`.
        // The nodes that stayed put within range of its old position lose
        // their link to it (stale); those within range of its new
        // position gain one (fresh).
        fresh.clear();
        let mut max_degree = 0;
        for (i, p) in positions.iter().enumerate() {
            if !moved[i] {
                continue;
            }
            if let Some(o) = old.get(i) {
                for j in cells.stayed_within(cells.cell_at(o), o, range_sq) {
                    deg[j + 1] -= 1;
                    touched[j] = true;
                }
            }
            for j in cells.stayed_within(cells.cell_of[i], p, range_sq) {
                fresh.push((j as u32, i as u32));
                deg[j + 1] += 1;
                touched[j] = true;
            }
            let degree = cells
                .count(i, p, range_sq)
                .checked_sub(within(p.x, p.y, p, range_sq) as u32)
                .expect("the block of a node includes the node");
            deg[i + 1] = degree;
            max_degree = max_degree.max(degree as usize);
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }

        // Group the fresh links by the node that stayed put (counting
        // sort). They were recorded in ascending moved id, so every group
        // ascends.
        link_start.clear();
        link_start.resize(n + 1, 0);
        for &(j, _) in fresh.iter() {
            link_start[j as usize + 1] += 1;
        }
        for j in 0..n {
            link_start[j + 1] += link_start[j];
        }
        fill.clear();
        fill.extend_from_slice(&link_start[..n]);
        links.clear();
        links.resize(fresh.len(), 0);
        for &(j, m) in fresh.iter() {
            links[fill[j as usize] as usize] = m;
            fill[j as usize] += 1;
        }

        let (links, link_start, touched) = (&links[..], &link_start[..], &touched[..]);
        let links_of = |i: usize| &links[link_start[i] as usize..link_start[i + 1] as usize];

        // Fill pass over the moved rows, sources ascending: a moved source
        // appends itself to its moved hits, a source that stayed put to its
        // fresh links, so every moved row fills in ascending id order.
        // `fill` is the write cursor of each row.
        fill.clear();
        fill.extend_from_slice(&deg[..n]);
        let mut next_adj = vec![NodeId::ROOT; deg[n] as usize];
        hits.resize(hits.len().max(max_degree + 1), 0);
        let (next, fill) = (&mut next_adj[..], &mut fill[..]);
        for (i, p) in positions.iter().enumerate() {
            let source = NodeId(i as u32);
            if moved[i] {
                let len = cells.hits(i, p, range_sq, hits);
                let rows = hits[..len].iter().filter(|&&j| moved[j as usize]);
                append(next, fill, rows, source);
            } else {
                append(next, fill, links_of(i).iter(), source);
            }
        }

        // The rows of the nodes that stayed put. A run of rows that kept
        // all their links is one copy; a touched row is its old row without
        // the moved nodes, merged with its fresh links.
        let mut run = 0;
        for i in 0..=n {
            if i < n && !moved[i] && !touched[i] {
                continue;
            }
            if run < i {
                let (from, to) = (offsets[run] as usize, offsets[i] as usize);
                next[deg[run] as usize..deg[i] as usize].copy_from_slice(&adj[from..to]);
            }
            if i < n && touched[i] {
                let row = &mut next[deg[i] as usize..deg[i + 1] as usize];
                merge_into(row, old_row(i), moved, links_of(i));
            }
            run = i + 1;
        }
        (self.offsets, self.adj) = (next_offsets, next_adj);
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

/// The disk-graph link test, `dist² ≤ ρ²` from the candidate at `(x, y)`
/// to `p`; one argument order everywhere, so every build decides each
/// pair bit for bit alike.
#[inline]
fn within(x: f64, y: f64, p: &Point, range_sq: f64) -> bool {
    Point::new(x, y).dist_sq(p) <= range_sq
}

/// Appends `source` to each of `rows` in `adj`, at the rows' write
/// cursors. A function of its own so that the compiler knows `adj` and
/// `cursor` do not alias: inlined into the fill loop, the two scratch
/// slices cost a reload per write.
#[inline]
fn append<'a>(
    adj: &mut [NodeId],
    cursor: &mut [u32],
    rows: impl Iterator<Item = &'a u32>,
    source: NodeId,
) {
    for &j in rows {
        adj[cursor[j as usize] as usize] = source;
        cursor[j as usize] += 1;
    }
}

/// Writes the links of `old` to nodes that did not move, merged with the
/// ascending `fresh` ids, into `row`, which holds exactly that many.
fn merge_into(row: &mut [NodeId], old: &[NodeId], moved: &[bool], fresh: &[u32]) {
    let (mut w, mut f) = (0, 0);
    for &j in old.iter().filter(|j| !moved[j.index()]) {
        while f < fresh.len() && fresh[f] < j.0 {
            row[w] = NodeId(fresh[f]);
            (w, f) = (w + 1, f + 1);
        }
        row[w] = j;
        w += 1;
    }
    for (slot, &m) in row[w..].iter_mut().zip(&fresh[f..]) {
        *slot = NodeId(m);
    }
}

/// The buffers of [`Topology::relocate`], reused across calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    cells: Cells,
    /// Per node: whether it moved since the last graph.
    moved: Vec<bool>,
    /// Per node that stayed put: whether it lost or gained a moved
    /// neighbor.
    touched: Vec<bool>,
    /// `(j, m)`: node `j` stayed put and moved node `m` now links to it.
    fresh: Vec<(u32, u32)>,
    /// The moved neighbors of each node that stayed put, ascending: node
    /// `j`'s are `links[link_start[j] .. link_start[j + 1]]`.
    link_start: Vec<u32>,
    links: Vec<u32>,
    /// Row write cursors.
    fill: Vec<u32>,
    /// The hits of one source.
    hits: Vec<u32>,
}

/// The nodes counting-sorted into a flat grid of `cols × rows` cells of
/// side `2^shift · ρ` from the corner `min`, numbered row-major.
#[derive(Debug, Clone, Default)]
struct Cells {
    min: Point,
    range: f64,
    shift: u32,
    cols: usize,
    rows: usize,
    /// Cell `(col, row)` of each node, by id.
    cell_of: Vec<(u32, u32)>,
    /// The members of cell `c` are at `start[c] .. start[c + 1]` of the
    /// parallel member arrays: first those that did not move, up to
    /// `split[c]`, then those that moved, each part ascending by id.
    start: Vec<u32>,
    split: Vec<u32>,
    /// Whether the 3×3 block around cell `c` holds a member that did not
    /// move.
    near_stayed: Vec<bool>,
    ids: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Placement cursors of the sort.
    cursor: Vec<u32>,
}

impl Cells {
    /// Sorts `positions` into the grid, reusing the buffers; `moved`
    /// marks the nodes that moved.
    fn sort(&mut self, positions: &[Point], range: f64, moved: &[bool]) {
        self.min = Point::new(f64::INFINITY, f64::INFINITY);
        for p in positions {
            self.min = Point::new(self.min.x.min(p.x), self.min.y.min(p.y));
        }
        self.range = range;
        let (mut max_cx, mut max_cy) = (0u64, 0u64);
        for p in positions {
            let (cx, cy) = self.key(p);
            max_cx = max_cx.max(cx);
            max_cy = max_cy.max(cy);
        }
        // At most 4n cells: merge 2^s × 2^s blocks of ρ-cells until the
        // grid fits. Neighbors sit at most one ρ-cell apart per axis, hence
        // at most one merged cell apart too.
        let cap = 4 * positions.len() as u128;
        let cell_count = |s: u32| ((max_cx >> s) as u128 + 1) * ((max_cy >> s) as u128 + 1);
        self.shift = (0..63).find(|&s| cell_count(s) <= cap).unwrap_or(63);
        self.cols = (max_cx >> self.shift) as usize + 1;
        self.rows = (max_cy >> self.shift) as usize + 1;

        let mut cell_of = std::mem::take(&mut self.cell_of);
        cell_of.clear();
        cell_of.extend(positions.iter().map(|p| self.cell_at(p)));
        self.cell_of = cell_of;
        let (cells, cols) = (self.cols * self.rows, self.cols);
        let flat = |&(col, row): &(u32, u32)| row as usize * cols + col as usize;
        let (start, split) = (&mut self.start, &mut self.split);
        start.clear();
        start.resize(cells + 1, 0);
        split.clear();
        split.resize(cells, 0);
        for (cell, &moved) in self.cell_of.iter().zip(moved) {
            start[flat(cell) + 1] += 1;
            split[flat(cell)] += !moved as u32;
        }
        for c in 0..cells {
            start[c + 1] += start[c];
            split[c] += start[c];
        }
        // Place the members that stayed, then those that moved, each in
        // ascending id: one cursor per cell runs from `start[c]` through
        // `split[c]` to `start[c + 1]`.
        let n = positions.len();
        for v in [&mut self.xs, &mut self.ys] {
            v.clear();
            v.resize(n, 0.0);
        }
        self.ids.clear();
        self.ids.resize(n, 0);
        let cursor = &mut self.cursor;
        cursor.clear();
        cursor.extend_from_slice(&start[..cells]);
        for pass_moved in [false, true] {
            for (i, (cell, p)) in self.cell_of.iter().zip(positions).enumerate() {
                if moved[i] == pass_moved {
                    let at = cursor[flat(cell)] as usize;
                    (self.ids[at], self.xs[at], self.ys[at]) = (i as u32, p.x, p.y);
                    cursor[flat(cell)] += 1;
                }
            }
        }
        let mut near_stayed = std::mem::take(&mut self.near_stayed);
        near_stayed.clear();
        near_stayed.resize(cells, false);
        for (row, col) in (0..self.rows).flat_map(|row| (0..cols).map(move |col| (row, col))) {
            let c = row * cols + col;
            if self.split[c] > self.start[c] {
                for cells in self.block_cells((col as u32, row as u32)) {
                    near_stayed[cells].fill(true);
                }
            }
        }
        self.near_stayed = near_stayed;
    }

    /// The `ρ`-cell coordinates `floor((p − min) / ρ)`. The quotients are
    /// never negative for a member, so the float → int cast truncates to
    /// the floor; it saturates, so an absurd extent lands in the last cell
    /// (and a point left of or below the grid in the first).
    fn key(&self, p: &Point) -> (u64, u64) {
        (
            ((p.x - self.min.x) / self.range) as u64,
            ((p.y - self.min.y) / self.range) as u64,
        )
    }

    /// The cell `(col, row)` of any point, clamped into the grid: a point
    /// outside it lands in the nearest edge cell, whose block still holds
    /// every member within `ρ` of it.
    fn cell_at(&self, p: &Point) -> (u32, u32) {
        let (cx, cy) = self.key(p);
        let col = (cx >> self.shift).min(self.cols as u64 - 1);
        let row = (cy >> self.shift).min(self.rows as u64 - 1);
        (col as u32, row as u32)
    }

    /// The flat indices of the cells of the 3×3 block around cell
    /// `(col, row)`, one contiguous range per grid row.
    fn block_cells(&self, (col, row): (u32, u32)) -> impl Iterator<Item = Range<usize>> + '_ {
        let (col, row) = (col as usize, row as usize);
        let (x0, x1) = (col.saturating_sub(1), (col + 1).min(self.cols - 1));
        (row.saturating_sub(1)..=(row + 1).min(self.rows - 1)).map(move |y| {
            let first = y * self.cols;
            first + x0..first + x1 + 1
        })
    }

    /// The member ranges of node `i`'s 3×3 cell block, one per grid row.
    fn block(&self, i: usize) -> impl Iterator<Item = Range<usize>> + '_ {
        self.block_cells(self.cell_of[i])
            .map(|c| self.start[c.start] as usize..self.start[c.end] as usize)
    }

    /// The ids of the members that did not move and are in range of any
    /// point `p`, tested through the block around `p`'s cell `cell`.
    fn stayed_within<'a>(
        &'a self,
        cell: (u32, u32),
        p: &'a Point,
        range_sq: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let c = cell.1 as usize * self.cols + cell.0 as usize;
        self.near_stayed[c]
            .then(|| self.block_cells(cell))
            .into_iter()
            .flatten()
            .flatten()
            .flat_map(|c| self.start[c] as usize..self.split[c] as usize)
            .filter(move |&k| within(self.xs[k], self.ys[k], p, range_sq))
            .map(|k| self.ids[k] as usize)
    }

    /// How many members of node `i`'s block (`i` included) are in range
    /// of `p`, counted with a branch-free mask.
    fn count(&self, i: usize, p: &Point, range_sq: f64) -> u32 {
        let mut count = 0;
        for run in self.block(i) {
            for (&x, &y) in self.xs[run.clone()].iter().zip(&self.ys[run]) {
                count += within(x, y, p, range_sq) as u32;
            }
        }
        count
    }

    /// Compacts the ids of the members of node `i`'s block in range of
    /// `p`, other than `i`, into `out` (in cell order) and returns how
    /// many; `out` must hold one more than that.
    fn hits(&self, i: usize, p: &Point, range_sq: f64, out: &mut [u32]) -> usize {
        let (ids, xs, ys) = (&self.ids[..], &self.xs[..], &self.ys[..]);
        let mut len = 0;
        for run in self.block(i) {
            for k in run {
                out[len] = ids[k];
                len += (within(xs[k], ys[k], p, range_sq) & (ids[k] as usize != i)) as usize;
            }
        }
        len
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
    fn relocation_drops_links_of_nodes_that_left_the_grid() {
        // Node 2 starts just outside the corner node 1 holds, then moves
        // next to node 3: its old position lies outside the new grid, on
        // the low and then on the high side, and node 1 must still lose
        // the link.
        for flip in [1.0, -1.0] {
            let at = |x: f64, y: f64| Point::new(flip * x, flip * y);
            let start = vec![at(10.0, 10.0), at(0.0, 0.0), at(-0.7, -0.7), at(5.0, 5.0)];
            let mut topo = Topology::build(start.clone(), 1.0);
            assert_eq!(topo.neighbors(NodeId(1)), &[NodeId(2)]);
            let mut moved = start.clone();
            moved[2] = at(5.5, 5.0);
            topo.relocate(&mut moved);
            assert_eq!(moved, start, "the old positions come back");
            assert!(topo.neighbors(NodeId(1)).is_empty());
            assert_eq!(topo.neighbors(NodeId(2)), &[NodeId(3)]);
            let fresh = Topology::build(topo.positions.clone(), 1.0);
            for id in topo.node_ids() {
                assert_eq!(topo.neighbors(id), fresh.neighbors(id));
            }
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
