//! POS — binary-search continuous quantiles (Cox et al. \[9\], §3.2).
//!
//! Rounds after initialization consist of a *validation* convergecast
//! (movement counters + min/max hints) and, when the filter is no longer
//! the k-th value, a *refinement* phase: the root repeatedly broadcasts the
//! midpoint of the candidate interval as a probe threshold; nodes whose
//! measurement switches interval answer with counter messages, halving the
//! interval each time. When the remaining candidates are guaranteed to fit
//! into a single message the root requests them directly and broadcasts the
//! final filter (§3.2 improvements).

use wsn_net::Network;

use crate::init::{run_init, InitStrategy};
use crate::payloads::{MovementCounters, ValueList};
use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::rank::{kth_smallest, side, Counts, Direction};
use crate::recovery;
use crate::validation::{node_validation, HintStyle, ValidationPayload};
use crate::Value;

/// Safety cap on refinement iterations: a clean binary search over a 64-bit
/// universe needs at most 64; only message loss can exceed this.
const MAX_REFINEMENTS: u32 = 80;

/// The POS continuous quantile protocol.
#[derive(Debug, Clone)]
pub struct Pos {
    query: QueryConfig,
    /// Root state: counts w.r.t. `root_filter`.
    counts: Counts,
    root_filter: Value,
    /// Per-node filter / probe threshold (may diverge under message loss).
    node_filter: Vec<Value>,
    /// Per-node previous-round measurement.
    prev: Vec<Value>,
    initialized: bool,
    /// Refinement iterations executed in the most recent round.
    last_refinements: u32,
    /// Direct value retrieval enabled (§3.2 improvement; on by default).
    direct_retrieval: bool,
    init: InitStrategy,
    /// Reusable reception-flag buffer for the probe/broadcast loop (scratch
    /// only, never observable state).
    recv: wsn_net::NodeBits,
}

impl Pos {
    /// Creates a POS query.
    pub fn new(query: QueryConfig) -> Self {
        Pos {
            query,
            counts: Counts::default(),
            root_filter: 0,
            node_filter: Vec::new(),
            prev: Vec::new(),
            initialized: false,
            last_refinements: 0,
            direct_retrieval: true,
            init: InitStrategy::default(),
            recv: wsn_net::NodeBits::new(),
        }
    }

    /// Selects the initialization strategy (§3.2: TAG by default).
    pub fn with_init(mut self, init: InitStrategy) -> Self {
        self.init = init;
        self
    }

    /// Disables the direct-retrieval improvement (ablation studies).
    pub fn without_direct_retrieval(mut self) -> Self {
        self.direct_retrieval = false;
        self
    }

    /// Refinement iterations used by the last round (0 when validation
    /// alone settled the quantile).
    pub fn last_refinements(&self) -> u32 {
        self.last_refinements
    }

    fn init_round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        let out = run_init(net, values, self.query, self.init);
        let q = out.quantile;
        self.counts = out.counts;
        self.root_filter = q;
        self.node_filter = vec![q; net.len()];
        self.prev = values.to_vec();
        // Filter broadcast: one value.
        net.broadcast_into(net.sizes().value_bits, &mut self.recv);
        for i in self.recv.iter_ones() {
            self.node_filter[i] = q;
        }
        self.initialized = true;
        net.end_round();
        q
    }

    /// Broadcasts probe threshold `mid` and collects movement counters from
    /// nodes whose measurement switched interval, updating per-node
    /// thresholds and the root counts.
    fn probe(&mut self, net: &mut Network, values: &[Value], mid: Value) -> Counts {
        net.broadcast_into(net.sizes().value_bits, &mut self.recv);
        let n = net.len();
        let mut contributions: Vec<Option<MovementCounters>> = vec![None; n];
        for idx in 1..n {
            if !self.recv.get(idx) {
                continue; // node missed the probe; it cannot react
            }
            let old_thr = self.node_filter[idx];
            self.node_filter[idx] = mid;
            let v = values[idx - 1];
            let old_side = side(v, old_thr);
            let new_side = side(v, mid);
            if old_side != new_side {
                let mut c = MovementCounters::default();
                match old_side {
                    crate::rank::Side::Lt => c.outof_lt = 1,
                    crate::rank::Side::Gt => c.outof_gt = 1,
                    crate::rank::Side::Eq => {}
                }
                match new_side {
                    crate::rank::Side::Lt => c.into_lt = 1,
                    crate::rank::Side::Gt => c.into_gt = 1,
                    crate::rank::Side::Eq => {}
                }
                contributions[idx] = Some(c);
            }
        }
        let merged = net
            .convergecast(|u| contributions[u.index()].take())
            .unwrap_or_default();
        let n_total = self.counts.n();
        let l = (self.counts.l + merged.into_lt).saturating_sub(merged.outof_lt);
        let g = (self.counts.g + merged.into_gt).saturating_sub(merged.outof_gt);
        let e = n_total.saturating_sub(l + g);
        self.root_filter = mid;
        Counts { l, e, g }
    }

    /// Requests all values in `[lo, hi]` directly, determines the quantile
    /// and re-establishes root/node state. `anchor` is what the root knows
    /// about ranks outside the interval.
    fn direct_retrieval(
        &mut self,
        net: &mut Network,
        values: &[Value],
        lo: Value,
        hi: Value,
        anchor: RankAnchor,
    ) -> Value {
        // Request: the interval bounds.
        net.broadcast_into(net.sizes().refinement_request_bits(), &mut self.recv);
        let n = net.len();
        let mut contributions: Vec<Option<ValueList>> = vec![None; n];
        for idx in 1..n {
            if !self.recv.get(idx) {
                continue;
            }
            let v = values[idx - 1];
            if v >= lo && v <= hi {
                contributions[idx] = Some(ValueList::single(v));
            }
        }
        let collected = net
            .convergecast(|u| contributions[u.index()].take())
            .map(|l: ValueList| l.vals)
            .unwrap_or_default();

        // #values < lo: either known directly, or derived from the exact
        // count of values ≤ hi minus what the interval just returned.
        let below = match anchor {
            RankAnchor::BelowLo(b) => b,
            RankAnchor::AtMostHi(t) => t.saturating_sub(collected.len() as u64),
        };
        let rank_within = self.query.k.saturating_sub(below).max(1);
        let q = if collected.is_empty() {
            // Only possible under message loss; keep the previous filter.
            self.root_filter
        } else {
            kth_smallest(&collected, rank_within.min(collected.len() as u64))
        };

        let in_lt = collected.iter().filter(|&&v| v < q).count() as u64;
        let in_eq = collected.iter().filter(|&&v| v == q).count() as u64;
        let l = below + in_lt;
        let e = in_eq;
        self.counts = Counts {
            l,
            e,
            g: self.counts.n().saturating_sub(l + e),
        };
        self.root_filter = q;
        // Final filter broadcast (§3.2: "with this improvement a final
        // broadcast becomes necessary").
        net.broadcast_into(net.sizes().value_bits, &mut self.recv);
        for i in self.recv.iter_ones() {
            self.node_filter[i] = q;
        }
        q
    }
}

impl ContinuousQuantile for Pos {
    fn name(&self) -> &'static str {
        "POS"
    }

    fn round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        if !self.initialized {
            return self.init_round(net, values);
        }
        self.last_refinements = 0;
        let n = net.len();

        // --- Validation ---
        net.set_phase(wsn_net::Phase::Validation);
        let mut contributions: Vec<Option<ValidationPayload>> = Vec::with_capacity(n);
        contributions.push(None); // root
        for idx in 1..n {
            contributions.push(node_validation(
                self.prev[idx - 1],
                values[idx - 1],
                self.node_filter[idx],
                HintStyle::MinMax,
                None,
            ));
        }
        self.prev.copy_from_slice(values);
        // A silently incomplete validation would corrupt the maintained
        // rank forever; with wave recovery enabled the collection re-issues
        // the wave for missing subtrees (cloning keeps the closure
        // idempotent).
        let validation =
            recovery::collect_with_recovery(net, |id| contributions[id.index()].clone());

        if let Some(v) = &validation {
            let n_total = self.counts.n();
            let l = (self.counts.l + v.counters.into_lt).saturating_sub(v.counters.outof_lt);
            let g = (self.counts.g + v.counters.into_gt).saturating_sub(v.counters.outof_gt);
            self.counts = Counts {
                l,
                g,
                e: n_total.saturating_sub(l + g),
            };
        }

        if self.counts.is_valid_quantile(self.query.k) {
            net.end_round();
            return self.root_filter;
        }

        // --- Refinement: binary search with hints ---
        net.set_phase(wsn_net::Phase::Refinement);
        let filter = self.root_filter;
        let dir = self
            .counts
            .quantile_moved(self.query.k)
            .expect("invalid counts imply a direction");
        let empty = ValidationPayload {
            counters: MovementCounters::default(),
            hint_min: Value::MAX,
            hint_max: Value::MIN,
            max_diff: 0,
            extra: ValueList::default(),
            style: HintStyle::MinMax,
        };
        let v = validation.as_ref().unwrap_or(&empty);
        // `below`/`above`: exact counts outside [lo, hi] when known
        // (None = only the trivial bound is available).
        let (mut lo, mut hi, mut below, mut above) = match dir {
            Direction::Down => (
                v.lower_bound(filter).max(self.query.range_min),
                filter - 1,
                None,
                Some(self.counts.n() - self.counts.l),
            ),
            Direction::Up => (
                filter + 1,
                v.upper_bound(filter).min(self.query.range_max),
                Some(self.counts.l + self.counts.e),
                None,
            ),
        };

        let capacity = net.sizes().values_per_message() as u64;
        let result = loop {
            if lo > hi {
                // Inconsistent state: only reachable under message loss.
                break self.root_filter;
            }
            // Upper bound on candidate count in [lo, hi].
            let known_outside = below.unwrap_or(0) + above.unwrap_or(0);
            let ub = self.counts.n().saturating_sub(known_outside);
            if self.direct_retrieval && ub <= capacity {
                self.last_refinements += 1;
                let anchor = match (below, above) {
                    (Some(b), _) => RankAnchor::BelowLo(b),
                    // #≤hi = n − #>hi is exact; the retrieval response
                    // resolves the split around lo.
                    (None, Some(a)) => RankAnchor::AtMostHi(self.counts.n() - a),
                    (None, None) => unreachable!("one side is always known"),
                };
                break self.direct_retrieval(net, values, lo, hi, anchor);
            }

            if self.last_refinements >= MAX_REFINEMENTS {
                break self.root_filter;
            }
            self.last_refinements += 1;
            let mid = lo + (hi - lo) / 2;
            self.counts = self.probe(net, values, mid);
            if self.counts.is_valid_quantile(self.query.k) {
                break mid;
            }
            match self.counts.quantile_moved(self.query.k).expect("invalid") {
                Direction::Down => {
                    hi = mid - 1;
                    above = Some(self.counts.n() - self.counts.l);
                }
                Direction::Up => {
                    lo = mid + 1;
                    below = Some(self.counts.l + self.counts.e);
                }
            }
        };

        net.end_round();
        result
    }
}

/// What the root knows about ranks outside a retrieval interval `[lo, hi]`:
/// either the exact count of values `< lo`, or the exact count of values
/// `≤ hi` (from which `< lo` follows once the interval's content arrives).
#[derive(Debug, Clone, Copy)]
enum RankAnchor {
    BelowLo(u64),
    AtMostHi(u64),
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
            .map(|i| 100 + (i as Value * 7) % 50 + (t as Value * 3) % 40)
            .collect()
    }

    #[test]
    fn pos_is_exact_over_many_rounds() {
        let n = 30;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        for t in 0..40 {
            let values = drifting_values(n, t);
            let got = pos.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
        }
    }

    #[test]
    fn stable_values_need_no_refinement() {
        let n = 20;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        let values = drifting_values(n, 0);
        pos.round(&mut net, &values);
        let msgs_before = net.stats().messages;
        pos.round(&mut net, &values);
        assert_eq!(pos.last_refinements(), 0);
        // An unchanged round generates zero traffic: no node moved.
        assert_eq!(net.stats().messages, msgs_before);
    }

    #[test]
    fn pos_tracks_abrupt_changes() {
        let n = 25;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut pos = Pos::new(query);
        let v0: Vec<Value> = (0..n).map(|i| 100 + i as Value).collect();
        pos.round(&mut net, &v0);
        // Jump the whole distribution far up.
        let v1: Vec<Value> = (0..n).map(|i| 900 + ((i * 3) % 50) as Value).collect();
        let got = pos.round(&mut net, &v1);
        assert_eq!(got, rank::kth_smallest(&v1, query.k));
        // And far down.
        let v2: Vec<Value> = (0..n).map(|i| 5 + ((i * 5) % 30) as Value).collect();
        let got = pos.round(&mut net, &v2);
        assert_eq!(got, rank::kth_smallest(&v2, query.k));
    }

    #[test]
    fn pos_handles_duplicate_heavy_data() {
        let n = 16;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 15);
        let mut pos = Pos::new(query);
        for t in 0..10 {
            let values: Vec<Value> = (0..n).map(|i| ((i + t as usize) % 4) as Value).collect();
            let got = pos.round(&mut net, &values);
            assert_eq!(got, rank::kth_smallest(&values, query.k), "round {t}");
        }
    }

    #[test]
    fn pos_exact_for_non_median_quantiles() {
        let n = 20;
        let mut net = line_net(n);
        for &k in &[1u64, 5, 15, 20] {
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 1023,
            };
            let mut pos = Pos::new(query);
            for t in 0..12 {
                let values = drifting_values(n, t * 5);
                let got = pos.round(&mut net, &values);
                assert_eq!(got, rank::kth_smallest(&values, k), "k={k} t={t}");
            }
        }
    }

    #[test]
    fn refinements_stay_logarithmic() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1 << 16);
        let mut pos = Pos::new(query);
        let v0: Vec<Value> = (0..n).map(|i| (i as Value) * 100).collect();
        pos.round(&mut net, &v0);
        let v1: Vec<Value> = v0.iter().map(|v| v + 1500).collect();
        pos.round(&mut net, &v1);
        assert!(
            pos.last_refinements() <= 17,
            "refinements {}",
            pos.last_refinements()
        );
    }
}
