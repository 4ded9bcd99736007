//! GK — the summary-based exact method of §3.1 (\[10\]): compute a
//! mergeable quantile summary in-network, use its rank bounds to narrow a
//! candidate interval, count exactly, and recurse — "transmitting
//! O(log³ |N|) values" instead of TAG's O(|N|).
//!
//! The paper classifies this as an exact *snapshot* technique and does not
//! evaluate it; we include it as an extension baseline (`exactcmp` sweep)
//! because it rounds out the design space: per-node cost independent of
//! the value range (unlike POS/HBC/LCLL) *and* sublinear in `|N|` (unlike
//! TAG/IQ validation) — at the price of ignoring temporal correlation
//! entirely (every round is a fresh snapshot).
//!
//! Each iteration is: (1) a [`RankSummary`] convergecast restricted to the
//! candidate interval, pruned to one message's worth of entries at every
//! hop; (2) an exact counting round-trip for the summary-derived
//! sub-interval; (3) direct value retrieval once few enough candidates
//! remain.

use wsn_net::{Aggregate, MessageSizes, Network};

use crate::protocol::{ContinuousQuantile, QueryConfig};
use crate::retrieval::{direct_retrieval, RankAnchor};
use crate::summary::RankSummary;
use crate::Value;

/// Exact counting response: values below / inside a probed sub-interval.
#[derive(Debug, Clone, Copy, Default)]
struct CountPair {
    below: u64,
    inside: u64,
}

impl Aggregate for CountPair {
    fn merge(&mut self, other: Self) {
        self.below += other.below;
        self.inside += other.inside;
    }
    fn payload_bits(&self, sizes: &MessageSizes) -> u64 {
        2 * sizes.counter_bits
    }
}

/// The GK-style exact quantile protocol (per-round snapshot).
#[derive(Debug, Clone)]
pub struct Gk {
    query: QueryConfig,
    /// Summary entries per forwarded message (derived from payload size).
    capacity: usize,
    last: Option<Value>,
    last_iterations: u32,
    /// Reusable reception-flag buffer for the per-iteration broadcasts
    /// (scratch only, never observable state).
    recv: wsn_net::NodeBits,
}

/// Hard cap on narrowing iterations per round.
const MAX_ITERATIONS: u32 = 64;

impl Gk {
    /// Creates a GK query; the summary capacity is whatever fits one
    /// payload (entries cost one value plus two counters).
    pub fn new(query: QueryConfig, sizes: &MessageSizes) -> Self {
        let entry_bits = sizes.summary_entry_bits();
        let capacity = ((sizes.max_payload_bits - sizes.counter_bits) / entry_bits).max(4) as usize;
        Gk {
            query,
            capacity,
            last: None,
            last_iterations: 0,
            recv: wsn_net::NodeBits::new(),
        }
    }

    /// Summary capacity per message.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Narrowing iterations used by the last round.
    pub fn last_iterations(&self) -> u32 {
        self.last_iterations
    }

    /// Summary convergecast over values inside `[lo, hi]`.
    fn summary_pass(
        &mut self,
        net: &mut Network,
        values: &[Value],
        lo: Value,
        hi: Value,
    ) -> RankSummary {
        // Interval announcement.
        net.broadcast_into(net.sizes().refinement_request_bits(), &mut self.recv);
        let n = net.len();
        let mut contributions: Vec<Option<RankSummary>> = vec![None; n];
        for idx in 1..n {
            if !self.recv.get(idx) {
                continue;
            }
            let v = values[idx - 1];
            if v >= lo && v <= hi {
                contributions[idx] = Some(RankSummary::singleton(v));
            }
        }
        let capacity = self.capacity;
        net.convergecast_with(
            |id| contributions[id.index()].take(),
            |_, s: &mut RankSummary| s.prune(capacity),
        )
        .unwrap_or_else(RankSummary::empty)
    }

    /// Exact counting round-trip: how many values of `[lo, hi]` fall below
    /// `probe_lo`, and how many inside `[probe_lo, probe_hi]`.
    fn counting_pass(
        &mut self,
        net: &mut Network,
        values: &[Value],
        lo: Value,
        hi: Value,
        probe_lo: Value,
        probe_hi: Value,
    ) -> CountPair {
        let bits = 2 * net.sizes().value_bits + net.sizes().refinement_request_bits();
        net.broadcast_into(bits, &mut self.recv);
        let n = net.len();
        let mut contributions: Vec<Option<CountPair>> = vec![None; n];
        for idx in 1..n {
            if !self.recv.get(idx) {
                continue;
            }
            let v = values[idx - 1];
            if v >= lo && v <= hi {
                let pair = if v < probe_lo {
                    CountPair {
                        below: 1,
                        inside: 0,
                    }
                } else if v <= probe_hi {
                    CountPair {
                        below: 0,
                        inside: 1,
                    }
                } else {
                    continue;
                };
                contributions[idx] = Some(pair);
            }
        }
        net.convergecast(|u| contributions[u.index()].take())
            .unwrap_or_default()
    }
}

impl ContinuousQuantile for Gk {
    fn name(&self) -> &'static str {
        "GK"
    }

    fn round(&mut self, net: &mut Network, values: &[Value]) -> Value {
        self.last_iterations = 0;
        let n_total = values.len() as u64;
        let k = self.query.k;
        let capacity_direct = net.sizes().values_per_message() as u64;

        let mut lo = self.query.range_min;
        let mut hi = self.query.range_max;
        let mut below = 0u64; // exact #values < lo
        let mut inside = n_total; // exact #values in [lo, hi]

        let result = loop {
            if self.last_iterations >= MAX_ITERATIONS {
                break self.last.unwrap_or(lo);
            }
            if lo == hi {
                break lo;
            }
            if inside <= capacity_direct {
                self.last_iterations += 1;
                let r =
                    direct_retrieval(net, values, lo, hi, k, n_total, RankAnchor::BelowLo(below));
                break match r.quantile {
                    Some(q) => q,
                    None => self.last.unwrap_or(lo),
                };
            }

            self.last_iterations += 1;
            let summary = self.summary_pass(net, values, lo, hi);
            let rank_in = k.saturating_sub(below);
            if rank_in == 0 || rank_in > summary.count {
                break self.last.unwrap_or(lo); // loss inconsistency
            }
            let Some((s_lo, s_hi)) = summary.enclosing_interval(rank_in) else {
                break self.last.unwrap_or(lo);
            };

            // Exact counting pins the anchor for the next iteration.
            let counts = self.counting_pass(net, values, lo, hi, s_lo, s_hi);
            let new_below = below + counts.below;
            if k <= new_below || k > new_below + counts.inside {
                // Bounds were conservative but the count disagrees — only
                // possible under loss.
                break self.last.unwrap_or(lo);
            }
            if (s_lo, s_hi) == (lo, hi) && counts.inside == inside {
                // No progress (pathological duplicates): bisect instead.
                let mid = lo + (hi - lo) / 2;
                let half = self.counting_pass(net, values, lo, hi, lo, mid);
                self.last_iterations += 1;
                if k <= below + half.inside {
                    hi = mid;
                    inside = half.inside;
                } else {
                    below += half.inside;
                    lo = mid + 1;
                    inside -= half.inside;
                }
                continue;
            }
            lo = s_lo;
            hi = s_hi;
            below = new_below;
            inside = counts.inside;
        };

        self.last = Some(result);
        net.end_round();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rank;
    use wsn_net::{Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn gk_is_exact_over_many_rounds() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 65_535);
        let mut gk = Gk::new(query, &MessageSizes::default());
        for t in 0..20u32 {
            let values: Vec<Value> = (0..n)
                .map(|i| {
                    ((i as u32).wrapping_mul(2654435761).wrapping_add(t * 97) % 60_000) as Value
                })
                .collect();
            assert_eq!(
                gk.round(&mut net, &values),
                rank::kth_smallest(&values, query.k),
                "round {t}"
            );
        }
    }

    #[test]
    fn gk_is_exact_for_every_rank() {
        let n = 30;
        let values: Vec<Value> = (0..n).map(|i| ((i * 313) % 1000) as Value).collect();
        for k in [1u64, 7, 15, 23, 30] {
            let mut net = line_net(n);
            let query = QueryConfig {
                k,
                range_min: 0,
                range_max: 1023,
            };
            let mut gk = Gk::new(query, &MessageSizes::default());
            assert_eq!(gk.round(&mut net, &values), rank::kth_smallest(&values, k));
        }
    }

    #[test]
    fn duplicates_trigger_bisection_fallback_safely() {
        let n = 40;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, 1023);
        let mut gk = Gk::new(query, &MessageSizes::default());
        let values = vec![512; n];
        assert_eq!(gk.round(&mut net, &values), 512);
    }

    #[test]
    fn iterations_stay_logarithmic() {
        let n = 60;
        let mut net = line_net(n);
        let query = QueryConfig::median(n, 0, (1 << 30) - 1);
        let mut gk = Gk::new(query, &MessageSizes::default());
        let values: Vec<Value> = (0..n)
            .map(|i| ((i as i64 * 7_777_777) % (1 << 30)).abs())
            .collect();
        assert_eq!(
            gk.round(&mut net, &values),
            rank::kth_smallest(&values, query.k)
        );
        assert!(
            gk.last_iterations() <= 8,
            "iterations {}",
            gk.last_iterations()
        );
    }

    fn grid_net(n_sensors: usize) -> Network {
        let cols = (n_sensors as f64).sqrt().ceil() as usize + 1;
        let positions: Vec<Point> = (0..=n_sensors)
            .map(|i| Point::new((i % cols) as f64 * 9.0, (i / cols) as f64 * 9.0))
            .collect();
        let topo = Topology::build(positions, 13.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    #[test]
    fn per_node_values_are_sublinear_in_n() {
        // The headline property of [10]: intermediate nodes forward a
        // bounded summary, not the whole subtree. (On realistic tree
        // depths; a degenerate line topology compounds prune slack, which
        // is the known weakness of merge-prune summaries on paths.)
        // (per-hop value average, hotspot energy)
        let run = |n: usize, alg: &mut dyn ContinuousQuantile| {
            let mut net = grid_net(n);
            let values: Vec<Value> = (0..n).map(|i| (i * 131 % 60_000) as Value).collect();
            alg.round(&mut net, &values);
            (
                net.stats().values as f64 / n as f64,
                net.ledger().max_sensor_consumption(),
            )
        };
        let sizes = MessageSizes::default();
        // Both sizes engage the summary machinery (> 64 candidates).
        let q_small = QueryConfig::median(160, 0, 65_535);
        let q_large = QueryConfig::median(640, 0, 65_535);
        let (small, gk_hot_small) = run(160, &mut Gk::new(q_small, &sizes));
        let (large, gk_hot_large) = run(640, &mut Gk::new(q_large, &sizes));
        assert!(
            large < small * 2.5,
            "per-hop values grew {small} -> {large}"
        );
        // The paper's metric is the hotspot. TAG's funnel node forwards
        // k = |N|/2 values, so its hotspot scales ~linearly in |N|; GK's
        // bounded summaries must scale much slower (the O(log³) claim).
        let (_, tag_hot_small) = run(160, &mut crate::Tag::new(q_small));
        let (_, tag_hot_large) = run(640, &mut crate::Tag::new(q_large));
        let gk_growth = gk_hot_large / gk_hot_small;
        let tag_growth = tag_hot_large / tag_hot_small;
        assert!(
            gk_growth < tag_growth * 0.85,
            "GK hotspot growth ({gk_growth:.2}x) should be well below TAG's ({tag_growth:.2}x)"
        );
    }

    #[test]
    fn capacity_derived_from_message_size() {
        let gk = Gk::new(QueryConfig::median(10, 0, 100), &MessageSizes::default());
        // (1024 - 16) / 48 = 21 entries.
        assert_eq!(gk.capacity(), 21);
    }
}
