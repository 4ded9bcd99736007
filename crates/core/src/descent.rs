//! Shared `b`-ary histogram descent (the refinement core of HBC §4.1 and
//! LCLL-H \[16\]).
//!
//! Given a candidate interval known to contain the k-th value, the root
//! repeatedly broadcasts a refinement request; nodes whose measurement
//! falls inside answer with a (compressed) histogram over the agreed
//! partition; the root picks the bucket containing the target rank and
//! recurses until the bucket width is 1 — or, when enabled and the
//! candidate count provably fits one message, requests the values directly
//! (\[21\]).

use wsn_net::Network;

use crate::buckets::BucketPartition;
use crate::payloads::Histogram;
use crate::rank::Counts;
use crate::retrieval::{direct_retrieval, RankAnchor};
use crate::Value;

/// Static parameters of a descent.
#[derive(Debug, Clone, Copy)]
pub struct DescentConfig {
    /// Bucket count per refinement level.
    pub b: usize,
    /// Target rank (1-based, global).
    pub k: u64,
    /// Total number of network values `|N|`.
    pub n_total: u64,
    /// When `Some(c)`, switch to direct value retrieval once at most `c`
    /// candidates remain.
    pub direct_capacity: Option<u64>,
    /// Hard iteration cap (loss protection).
    pub max_refinements: u32,
}

/// Result of a successful descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescentOutcome {
    /// The k-th value.
    pub quantile: Value,
    /// Root counts relative to the quantile itself.
    pub counts: Counts,
    /// Bounds of the last refinement *request* broadcast, if any — what
    /// every node remembers as its partition in HBC's §4.1.2 variant.
    pub last_request: Option<(Value, Value)>,
    /// Root counts relative to `last_request` (`l` = below it, `e` =
    /// inside, `g` = above), when a request was made.
    pub last_request_counts: Option<Counts>,
}

/// Broadcasts a refinement request for `part`'s interval and returns the
/// aggregated histogram. `on_receive(idx, lo, hi)` fires for every node
/// that received the request (protocols hook per-node state updates here,
/// e.g. HBC's §4.1.2 interval tracking).
pub fn histogram_request(
    net: &mut Network,
    values: &[Value],
    part: BucketPartition,
    on_receive: impl FnMut(usize, Value, Value),
) -> Histogram {
    let mut scratch = WaveScratch::default();
    histogram_request_reuse(net, values, part, on_receive, &mut scratch)
}

/// Reusable buffers for repeated request waves ([`histogram_request`] in
/// the descent loop): reception flags and per-node contribution slots, so
/// one descent performs no per-iteration heap allocation.
#[derive(Debug, Default)]
struct WaveScratch {
    received: wsn_net::NodeBits,
    contributions: Vec<Option<Histogram>>,
}

/// [`histogram_request`] with caller-owned scratch buffers.
fn histogram_request_reuse(
    net: &mut Network,
    values: &[Value],
    part: BucketPartition,
    mut on_receive: impl FnMut(usize, Value, Value),
    scratch: &mut WaveScratch,
) -> Histogram {
    net.broadcast_into(net.sizes().refinement_request_bits(), &mut scratch.received);
    let n = net.len();
    scratch.contributions.clear();
    scratch.contributions.resize(n, None);
    for idx in 1..n {
        if !scratch.received.get(idx) {
            continue;
        }
        on_receive(idx, part.lo, part.hi);
        if let Some(i) = part.index_of(values[idx - 1]) {
            scratch.contributions[idx] = Some(Histogram::unit(part.buckets, i));
        }
    }
    net.convergecast(|u| scratch.contributions[u.index()].take())
        .unwrap_or_else(|| Histogram::zeros(part.buckets))
}

/// Runs the descent from `[lo, hi]` (which must contain the k-th value).
///
/// `inside` is the exact candidate count in the interval when already
/// known. `refinements` is incremented per convergecast. Returns the
/// quantile and fresh counts, or `None` when the bookkeeping turns out
/// inconsistent (possible only under message loss).
#[allow(clippy::too_many_arguments)]
pub fn descend(
    net: &mut Network,
    values: &[Value],
    cfg: DescentConfig,
    mut lo: Value,
    mut hi: Value,
    mut anchor: RankAnchor,
    mut inside: Option<u64>,
    refinements: &mut u32,
    mut on_receive: impl FnMut(usize, Value, Value),
) -> Option<DescentOutcome> {
    let mut last_request: Option<(Value, Value)> = None;
    let mut last_request_counts: Option<Counts> = None;
    let mut scratch = WaveScratch::default();
    loop {
        if lo > hi || *refinements >= cfg.max_refinements {
            return None;
        }
        if lo == hi {
            if let Some(e) = inside {
                let below = match anchor {
                    RankAnchor::BelowLo(b) => b,
                    RankAnchor::AtMostHi(t) => t.saturating_sub(e),
                };
                return Some(DescentOutcome {
                    quantile: lo,
                    counts: Counts {
                        l: below,
                        e,
                        g: cfg.n_total.saturating_sub(below + e),
                    },
                    last_request,
                    last_request_counts,
                });
            }
            // Unit interval with unknown occupancy (a hint collapsed the
            // interval): fall through — one unit-bucket histogram request
            // learns the counts the root must carry forward.
        }

        let bound = inside.unwrap_or_else(|| match anchor {
            RankAnchor::BelowLo(b) => cfg.n_total.saturating_sub(b),
            RankAnchor::AtMostHi(t) => t,
        });
        if let Some(capacity) = cfg.direct_capacity {
            if bound <= capacity {
                *refinements += 1;
                let r = direct_retrieval(net, values, lo, hi, cfg.k, cfg.n_total, anchor);
                return r.quantile.map(|q| DescentOutcome {
                    quantile: q,
                    counts: r.counts,
                    last_request: None,
                    last_request_counts: None,
                });
            }
        }

        *refinements += 1;
        let part = BucketPartition::new(lo, hi, cfg.b);
        let hist = histogram_request_reuse(net, values, part, &mut on_receive, &mut scratch);
        let total = hist.total();
        let mut below = match anchor {
            RankAnchor::BelowLo(b) => b,
            RankAnchor::AtMostHi(t) => t.saturating_sub(total),
        };
        last_request = Some((part.lo, part.hi));
        last_request_counts = Some(Counts {
            l: below,
            e: total,
            g: cfg.n_total.saturating_sub(below + total),
        });
        let rank_in = cfg.k.saturating_sub(below);
        if rank_in == 0 || rank_in > total {
            return None;
        }
        let mut cum = 0u64;
        let mut chosen = part.buckets - 1;
        for i in 0..part.buckets {
            let c = hist.counts()[i];
            if cum + c >= rank_in {
                chosen = i;
                break;
            }
            cum += c;
        }
        below += cum;
        let (s, e) = part.bounds(chosen);
        lo = s;
        hi = e;
        anchor = RankAnchor::BelowLo(below);
        inside = Some(hist.counts()[chosen]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{MessageSizes, Point, RadioModel, RoutingTree, Topology};

    fn line_net(n_sensors: usize) -> Network {
        let positions = (0..=n_sensors)
            .map(|i| Point::new(i as f64 * 10.0, 0.0))
            .collect();
        let topo = Topology::build(positions, 12.0);
        let tree = RoutingTree::shortest_path_tree(&topo).unwrap();
        Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
    }

    fn cfg(b: usize, k: u64, n: u64, direct: Option<u64>) -> DescentConfig {
        DescentConfig {
            b,
            k,
            n_total: n,
            direct_capacity: direct,
            max_refinements: 100,
        }
    }

    #[test]
    fn descent_pins_down_the_kth_value() {
        let mut net = line_net(20);
        let values: Vec<Value> = (0..20).map(|i| (i * 37) % 500).collect();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for k in 1..=20u64 {
            let mut refinements = 0;
            let out = descend(
                &mut net,
                &values,
                cfg(8, k, 20, None),
                0,
                511,
                RankAnchor::BelowLo(0),
                Some(20),
                &mut refinements,
                |_, _, _| {},
            )
            .unwrap();
            assert_eq!(out.quantile, sorted[k as usize - 1], "k={k}");
            assert!(out.counts.is_valid_quantile(k));
            assert!(refinements >= 1);
            let (lb, ub) = out.last_request.unwrap();
            assert!(lb <= out.quantile && out.quantile <= ub);
            assert!(out.last_request_counts.unwrap().n() <= 20);
        }
    }

    #[test]
    fn direct_retrieval_short_circuits() {
        let mut net = line_net(10);
        let values: Vec<Value> = (0..10).map(|i| i * 50).collect();
        let mut with_direct = 0;
        descend(
            &mut net,
            &values,
            cfg(4, 5, 10, Some(64)),
            0,
            1023,
            RankAnchor::BelowLo(0),
            Some(10),
            &mut with_direct,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(with_direct, 1, "10 candidates fit one message");

        let mut without = 0;
        descend(
            &mut net,
            &values,
            cfg(4, 5, 10, None),
            0,
            1023,
            RankAnchor::BelowLo(0),
            Some(10),
            &mut without,
            |_, _, _| {},
        )
        .unwrap();
        assert!(without > 1);
    }

    #[test]
    fn atmost_anchor_resolves_after_first_histogram() {
        let mut net = line_net(10);
        let values: Vec<Value> = vec![1, 2, 3, 10, 11, 12, 13, 20, 21, 22];
        // k = 5 -> 11; candidates in [5, 15], #<=15 is 7.
        let mut refinements = 0;
        let out = descend(
            &mut net,
            &values,
            cfg(4, 5, 10, None),
            5,
            15,
            RankAnchor::AtMostHi(7),
            None,
            &mut refinements,
            |_, _, _| {},
        )
        .unwrap();
        assert_eq!(out.quantile, 11);
    }

    #[test]
    fn inconsistent_rank_returns_none() {
        let mut net = line_net(5);
        let values: Vec<Value> = vec![100, 101, 102, 103, 104];
        // Interval does not contain the k-th value at all.
        let mut refinements = 0;
        let out = descend(
            &mut net,
            &values,
            cfg(4, 3, 5, None),
            0,
            50,
            RankAnchor::BelowLo(0),
            None,
            &mut refinements,
            |_, _, _| {},
        );
        assert!(out.is_none());
    }

    #[test]
    fn on_receive_sees_every_request() {
        let mut net = line_net(6);
        let values: Vec<Value> = vec![5, 15, 25, 35, 45, 55];
        let mut seen = Vec::new();
        let mut refinements = 0;
        descend(
            &mut net,
            &values,
            cfg(2, 3, 6, None),
            0,
            63,
            RankAnchor::BelowLo(0),
            Some(6),
            &mut refinements,
            |idx, lo, hi| seen.push((idx, lo, hi)),
        )
        .unwrap();
        // Every refinement reaches all 6 sensors.
        assert_eq!(seen.len() as u32, refinements * 6);
    }
}
