//! LCLL-R — the *range-anchored* reconstruction of Liu et al.'s
//! hierarchical refining \[16\].
//!
//! [`crate::lcll`] reconstructs LCLL's refinement as a search relative to
//! the last quantile (displacement-driven). This module implements the
//! other faithful reading of \[16\]: a **static two-level bucket hierarchy
//! anchored to the value range**.
//!
//! * Level 0: `b` equal buckets over the whole universe `[r_min, r_max]`
//!   (with the default 128-byte payload, `b = 64`).
//! * Level 1: the *focus bucket* — the top-level bucket currently holding
//!   the quantile — is kept subdivided (unit buckets whenever the top
//!   bucket is at most `b` wide, which holds for every workload in the
//!   paper).
//!
//! Validation: a node whose measurement moved between cells of this
//! partition (top-level buckets, or unit cells inside the focus bucket)
//! transmits two signed deltas (§5.1.6's improved validation). The root
//! therefore always knows the exact histogram, and as long as the quantile
//! stays inside the focus bucket it answers **without any refinement**.
//! When the quantile escapes to another top-level bucket, one *refocus*
//! round-trip (zoom-out/zoom-in) rebuilds the sub-histogram there.
//!
//! Compared to the displacement-driven variants this trades much heavier
//! validation (every bucket crossing reports, and inside the focus bucket
//! *every* value change reports) for near-zero refinement — and, crucially,
//! it reacts to value-range re-scaling: wider ranges mean wider top
//! buckets, fewer escapes, fewer refinements (§5.2.5's pessimistic-setting
//! behaviour of LCLL-H).

use wsn_net::Network;

use crate::buckets::BucketPartition;
use crate::descent::{descend, DescentConfig};
use crate::init::{run_init, InitStrategy};
use crate::payloads::{DeltaHistogram, Histogram};
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::retrieval::RankAnchor;
use crate::Value;

/// The range-anchored LCLL variant.
#[derive(Debug, Clone)]
pub struct LcllRange {
    query: QueryConfig,
    /// Top-level partition over the full range (static).
    top: BucketPartition,
    /// Count per top-level bucket; the focus bucket's entry equals the sum
    /// of `sub_counts`.
    top_counts: Vec<u64>,
    /// Index of the focus bucket.
    focus: usize,
    /// Partition of the focus bucket.
    sub: BucketPartition,
    /// Count per focus sub-bucket.
    sub_counts: Vec<u64>,
    /// Per-node view of the focus bucket (index into `top`); may go stale
    /// under message loss.
    node_focus: Vec<usize>,
    prev: Vec<Value>,
    last_quantile: Value,
    initialized: bool,
    last_refinements: u32,
    init: InitStrategy,
}

impl LcllRange {
    /// Creates an LCLL-R query; `b` comes from the message size like the
    /// other LCLL variants.
    pub fn new(query: QueryConfig, sizes: &wsn_net::MessageSizes) -> Self {
        let b = (sizes.max_payload_bits / sizes.bucket_bits).max(2) as usize;
        let top = BucketPartition::new(query.range_min, query.range_max, b);
        let (lo, hi) = top.bounds(0);
        let sub = BucketPartition::new(lo, hi, b);
        LcllRange {
            query,
            top,
            top_counts: vec![0; top.buckets],
            focus: 0,
            sub,
            sub_counts: vec![0; sub.buckets],
            node_focus: Vec::new(),
            prev: Vec::new(),
            last_quantile: query.range_min,
            initialized: false,
            last_refinements: 0,
            init: InitStrategy::default(),
        }
    }

    /// Selects the initialization strategy.
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Number of top-level buckets.
    pub fn buckets(&self) -> usize {
        self.top.buckets
    }

    /// Refinement convergecasts in the most recent round.
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    /// Wire code of a value in the disjoint partition {top buckets except
    /// the focus} ∪ {sub-buckets of the focus}: codes `0..b` are top-level
    /// buckets, codes `b..b+sub.buckets` are focus cells.
    fn code(&self, v: Value, focus: usize, sub: &BucketPartition) -> usize {
        let t = self.top.index_of(v).expect("values stay in range");
        if t == focus {
            self.top.buckets + sub.index_of(v).expect("inside focus")
        } else {
            t
        }
    }

    /// Re-derives the partition of top bucket `i`.
    fn sub_partition(&self, i: usize) -> BucketPartition {
        let (lo, hi) = self.top.bounds(i);
        BucketPartition::new(lo, hi, self.top.buckets)
    }

    /// Rebuilds root state from a full collection (initialization).
    fn rebuild_from_values(&mut self, sorted: &[Value], quantile: Value) {
        self.top_counts = vec![0; self.top.buckets];
        for &v in sorted {
            self.top_counts[self.top.index_of(v).expect("in range")] += 1;
        }
        self.focus = self.top.index_of(quantile).expect("in range");
        self.sub = self.sub_partition(self.focus);
        self.sub_counts = vec![0; self.sub.buckets];
        for &v in sorted {
            if let Some(j) = self.sub.index_of(v) {
                self.sub_counts[j] += 1;
            }
        }
    }

    /// Locates the 1-based rank `k` in the current two-level histogram.
    /// Returns `Located::SubCell` when it falls inside the focus bucket.
    fn locate(&self, k: u64) -> Option<Located> {
        let mut cum = 0u64;
        for t in 0..self.top.buckets {
            let c = if t == self.focus {
                self.sub_counts.iter().sum()
            } else {
                self.top_counts[t]
            };
            if cum + c >= k {
                if t != self.focus {
                    return Some(Located::TopBucket {
                        bucket: t,
                        below: cum,
                    });
                }
                // Walk the focus cells.
                for (j, &sc) in self.sub_counts.iter().enumerate() {
                    if cum + sc >= k {
                        return Some(Located::SubCell {
                            cell: j,
                            below: cum,
                            inside: sc,
                        });
                    }
                    cum += sc;
                }
                return None; // inconsistent (loss)
            }
            cum += c;
        }
        None
    }

    /// Refocuses onto top bucket `bucket`: broadcasts its bounds, collects
    /// the unit sub-histogram from the nodes inside, updates node focus
    /// views, and returns the quantile (descending further if the bucket is
    /// wider than `b`).
    fn refocus(&mut self, net: &mut Network, values: &[Value], bucket: usize, below: u64) -> Value {
        // The old focus bucket's total re-materializes at top level.
        self.top_counts[self.focus] = self.sub_counts.iter().sum();

        let part = self.sub_partition(bucket);
        self.last_refinements += 1;
        let n = net.len();
        let received = net.broadcast(net.sizes().refinement_request_bits());
        let mut contributions: Vec<Option<Histogram>> = vec![None; n];
        for idx in 1..n {
            if !received.get(idx) {
                continue;
            }
            self.node_focus[idx] = bucket;
            if let Some(j) = part.index_of(values[idx - 1]) {
                contributions[idx] = Some(Histogram::unit(part.buckets, j));
            }
        }
        let hist = net
            .convergecast(|u| contributions[u.index()].take())
            .unwrap_or_else(|| Histogram::zeros(part.buckets));

        self.focus = bucket;
        self.sub = part;
        self.sub_counts = hist.counts().to_vec();

        // Locate within the fresh sub histogram.
        let k = self.query.k;
        let mut cum = below;
        for j in 0..self.sub.buckets {
            let c = self.sub_counts[j];
            if cum + c >= k {
                let (lo, hi) = self.sub.bounds(j);
                if lo == hi {
                    return lo;
                }
                // Top bucket wider than b (huge universes): descend.
                let cfg = DescentConfig {
                    b: self.top.buckets,
                    k,
                    n_total: self.query_n(),
                    direct_capacity: Some(net.sizes().values_per_message() as u64),
                    max_refinements: 100,
                };
                let outcome = descend(
                    net,
                    values,
                    cfg,
                    lo,
                    hi,
                    RankAnchor::BelowLo(cum),
                    Some(c),
                    &mut self.last_refinements,
                    |_, _, _| {},
                );
                return outcome.map(|o| o.quantile).unwrap_or(self.last_quantile);
            }
            cum += c;
        }
        self.last_quantile // inconsistent (loss)
    }

    fn query_n(&self) -> u64 {
        self.top_counts
            .iter()
            .enumerate()
            .map(|(t, &c)| {
                if t == self.focus {
                    self.sub_counts.iter().sum()
                } else {
                    c
                }
            })
            .sum()
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        self.node_focus = vec![self.focus; net.len()];
        let out = run_init(net, values, self.query, self.init);
        let q = out.quantile;
        // LCLL-R needs the full histogram; with a b-ary init we fall back
        // to deriving it from ground truth... which we refuse to do:
        // instead, always derive state from a collection. With the TAG
        // strategy the collection is already paid for; with BarySearch we
        // charge one extra full histogram convergecast (top + focus).
        match out.sorted {
            Some(sorted) => self.rebuild_from_values(&sorted, q),
            None => {
                // One histogram convergecast over the full range plus one
                // over the focus bucket re-establishes the exact state.
                let top = self.top;
                self.last_refinements += 1;
                let n = net.len();
                let received = net.broadcast(net.sizes().refinement_request_bits());
                let mut contributions: Vec<Option<Histogram>> = vec![None; n];
                for idx in 1..n {
                    if !received.get(idx) {
                        continue;
                    }
                    if let Some(j) = top.index_of(values[idx - 1]) {
                        contributions[idx] = Some(Histogram::unit(top.buckets, j));
                    }
                }
                let hist = net
                    .convergecast(|u| contributions[u.index()].take())
                    .unwrap_or_else(|| Histogram::zeros(top.buckets));
                self.top_counts = hist.counts().to_vec();
                // Materialize focus from the known values (root-side
                // bookkeeping only; focus histogram is fetched next).
                self.focus = self.top.index_of(q).expect("in range");
                self.sub = self.sub_partition(self.focus);
                let below: u64 = self.top_counts[..self.focus].iter().sum();
                let q2 = self.refocus(net, values, self.focus, below);
                debug_assert_eq!(q2, q);
            }
        }

        for f in &mut self.node_focus {
            *f = self.focus;
        }
        self.prev = values.to_vec();
        self.last_quantile = q;
        // Focus announcement (bucket bounds) so every node can classify
        // itself; with the BarySearch path the refocus broadcast already
        // did this, but the TAG path needs it.
        for i in net
            .broadcast(net.sizes().refinement_request_bits())
            .iter_ones()
        {
            self.node_focus[i] = self.focus;
        }
        self.initialized = true;
        net.end_round();
        q
    }
}

/// Where the k-th value sits in the two-level histogram.
#[derive(Debug, Clone, Copy)]
enum Located {
    /// In a non-focus top-level bucket (a refocus is needed unless the
    /// bucket is a single value wide).
    TopBucket { bucket: usize, below: u64 },
    /// In cell `cell` of the focus bucket.
    SubCell {
        cell: usize,
        below: u64,
        inside: u64,
    },
}

impl ContinuousQuantile for LcllRange {
    fn name(&self) -> &'static str {
        "LCLL-R"
    }

    fn round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;
        let n = net.len();
        let code_len = self.top.buckets + self.sub.buckets;

        // --- Validation: deltas over the two-level partition ---
        net.set_phase(wsn_net::Phase::Validation);
        let mut contributions: Vec<Option<DeltaHistogram>> = Vec::with_capacity(n);
        contributions.push(None);
        for idx in 1..n {
            // Nodes with a stale focus view (loss) classify against their
            // own view; their codes may then disagree with the root's —
            // exactly the desynchronization loss causes in reality. For
            // wire-length simplicity the stale view is clamped to the
            // current sub length.
            let focus = self.node_focus[idx];
            let sub = if focus == self.focus {
                self.sub
            } else {
                self.sub_partition(focus)
            };
            let old = self.code(self.prev[idx - 1], focus, &sub);
            let new = self.code(values[idx - 1], focus, &sub);
            contributions.push((old != new).then(|| {
                DeltaHistogram::movement(
                    code_len.max(self.top.buckets + sub.buckets),
                    old.min(code_len - 1),
                    new.min(code_len - 1),
                )
            }));
        }
        self.prev.copy_from_slice(values);
        if let Some(deltas) = net.convergecast(|u| contributions[u.index()].take()) {
            let apply = |base: u64, d: i64| {
                if d >= 0 {
                    base + d as u64
                } else {
                    base.saturating_sub((-d) as u64)
                }
            };
            for t in 0..self.top.buckets {
                if t != self.focus {
                    self.top_counts[t] = apply(self.top_counts[t], deltas.deltas[t]);
                }
            }
            for j in 0..self.sub.buckets {
                let d = deltas.deltas[self.top.buckets + j];
                self.sub_counts[j] = apply(self.sub_counts[j], d);
            }
        }

        // --- Locate; refocus only when the quantile escaped ---
        // (Refocus/descent traffic below is refinement; during the init
        // round `refocus` runs under the Init phase instead.)
        net.set_phase(wsn_net::Phase::Refinement);
        let result = match self.locate(self.query.k) {
            Some(Located::SubCell {
                cell,
                below,
                inside,
            }) => {
                let (lo, hi) = self.sub.bounds(cell);
                if lo == hi {
                    lo
                } else {
                    // Huge universes: one descent inside the cell.
                    let cfg = DescentConfig {
                        b: self.top.buckets,
                        k: self.query.k,
                        n_total: self.query_n(),
                        direct_capacity: Some(net.sizes().values_per_message() as u64),
                        max_refinements: 100,
                    };
                    let outcome = descend(
                        net,
                        values,
                        cfg,
                        lo,
                        hi,
                        RankAnchor::BelowLo(below),
                        Some(inside),
                        &mut self.last_refinements,
                        |_, _, _| {},
                    );
                    outcome.map(|o| o.quantile).unwrap_or(self.last_quantile)
                }
            }
            Some(Located::TopBucket { bucket, below }) => {
                let (lo, hi) = self.top.bounds(bucket);
                if lo == hi {
                    lo
                } else {
                    self.refocus(net, values, bucket, below)
                }
            }
            None => self.last_quantile, // loss-induced inconsistency
        };

        self.last_quantile = result;
        net.end_round();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    fn drifting_values(n: usize, t: u32) -> Vec<Value> {
        (0..n)
            .map(|i| 200 + (i as Value * 13) % 90 + ((t as Value * 9) % 150))
            .collect()
    }

    #[test]
    fn lcll_r_is_exact_over_many_rounds() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        for t in 0..50 {
            let values = drifting_values(n, t);
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "round {t}"
            );
        }
    }

    #[test]
    fn quantile_inside_focus_needs_no_refinement() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        let v0: Vec<Value> = (0..n).map(|i| 500 + i as Value).collect();
        alg.round(&mut net, &v0);
        // Shuffle values *within* buckets — the two-level histogram stays
        // exact through deltas, so no refinement convergecast fires.
        for t in 1..6 {
            let values: Vec<Value> = (0..n).map(|i| 500 + ((i + t) % n) as Value).collect();
            let got = alg.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k));
            assert_eq!(alg.last_refinements(), 0, "t={t}");
        }
    }

    #[test]
    fn escaping_the_focus_costs_exactly_one_refocus() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        let v0: Vec<Value> = (0..n).map(|i| 100 + i as Value).collect();
        alg.round(&mut net, &v0);
        // Jump far: quantile lands in a distant top bucket.
        let v1: Vec<Value> = (0..n).map(|i| 900 + i as Value).collect();
        let got = alg.round(&mut net, &v1);
        assert_eq!(got, rank::kth_smallest(&v1, query.k));
        assert_eq!(alg.last_refinements(), 1, "distance-independent refocus");
    }

    #[test]
    fn wider_range_means_fewer_refocuses() {
        // The §5.2.5 pessimistic-setting effect: same absolute movement,
        // wider buckets, fewer escapes.
        let count_refinements = |range_max: Value| {
            let n = 30;
            let mut net = line_net(n);
            let query = QueryConfig::median(n, 0, range_max);
            let mut alg = LcllRange::new(query, &MessageSizes::default());
            let mut total = 0u32;
            for t in 0..60 {
                let values: Vec<Value> = (0..n).map(|i| 500 + i as Value + t * 7).collect();
                alg.round(&mut net, &values);
                total += alg.last_refinements();
            }
            total
        };
        let narrow = count_refinements(1023); // bucket width 16, unit cells
        let wide = count_refinements(4095); // bucket width 64, unit cells
        assert!(
            wide < narrow,
            "wider buckets ({wide}) must refocus less than narrow ({narrow})"
        );
    }

    #[test]
    fn handles_extreme_ranks_and_duplicates() {
        let n = 24;
        for &k in &[1u64, 12, 24] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 255,
            };
            let mut alg = LcllRange::new(query, &MessageSizes::default());
            for t in 0..15 {
                let values: Vec<Value> = (0..n)
                    .map(|i| (((i + t as usize) % 7) * 30) as Value)
                    .collect();
                assert_eq!(
                    alg.round(&mut net, &values),
                    rank::kth_smallest(&values, k),
                    "k={k} t={t}"
                );
            }
        }
    }

    #[test]
    fn works_on_huge_universes_via_descent() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, (1 << 20) - 1);
        let mut alg = LcllRange::new(query, &MessageSizes::default());
        for t in 0..10 {
            let values: Vec<Value> = (0..n)
                .map(|i| 500_000 + i as Value * 97 + t as Value * 1313)
                .collect();
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "t={t}"
            );
        }
    }

    #[test]
    fn bary_init_is_exact_too() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 2047);
        let mut alg =
            LcllRange::new(query, &MessageSizes::default()).with_init(InitStrategy::BarySearch);
        for t in 0..20 {
            let values = drifting_values(n, t);
            assert_eq!(
                alg.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "t={t}"
            );
        }
    }
}
