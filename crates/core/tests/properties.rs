//! Seeded property tests of the core: rank math, bucket partitions, value
//! lists, the cost model, the wire format, rank summaries, and every
//! protocol end to end on random topologies and value streams (exactness,
//! IQ's one-refinement guarantee and quiet smooth streams, no panic under
//! loss).
//!
//! Every property runs over a fixed set of splitmix64-drawn cases, so a
//! failure names its case and replays exactly.

use cqp_core::buckets::BucketPartition;
use cqp_core::cost_model::{bary_search_cost, iterations_for, lambert_w0, optimal_buckets};
use cqp_core::hbc::{Hbc, HbcConfig};
use cqp_core::iq::{Iq, IqConfig};
use cqp_core::lcll::{Lcll, RefiningStrategy};
use cqp_core::payloads::{DeltaHistogram, Histogram, MovementCounters, ValueList};
use cqp_core::pos::Pos;
use cqp_core::rank::{kth_smallest, rank_of_phi, side_interval, Counts, Direction, Side};
use cqp_core::summary::RankSummary;
use cqp_core::tag::Tag;
use cqp_core::wire::WireContext;
use cqp_core::{ContinuousQuantile, QueryConfig};
use wsn_net::splitmix::SplitMix64;
use wsn_net::{Aggregate, MessageSizes, Network, Point, RadioModel, RoutingTree, Topology};

/// Cases per data-structure property.
const CASES: u64 = 64;

/// Cases per end-to-end protocol property (each runs whole networks).
const PROTOCOL_CASES: u64 = 24;

/// A seeded case generator: property `prop`, case `case`.
struct Gen(SplitMix64);

impl Gen {
    fn new(prop: u64, case: u64) -> Gen {
        Gen(SplitMix64::new(prop << 32 | case))
    }

    /// Uniform in `[lo, hi)`.
    fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.0.next_f64()
    }

    /// Uniform in `lo..hi`.
    fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.0.next_u64() % (hi - lo)
    }

    /// Uniform in `lo..hi`.
    fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.u64_in(0, (hi - lo) as u64) as i64
    }

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// A vector of length in `len_lo..len_hi`, entries in `lo..hi`.
    fn values(&mut self, lo: i64, hi: i64, len_lo: usize, len_hi: usize) -> Vec<i64> {
        let len = self.usize_in(len_lo, len_hi);
        (0..len).map(|_| self.i64_in(lo, hi)).collect()
    }

    /// `rows` rows (count in `rows_lo..rows_hi`) of `width` values in `0..hi`.
    fn rows(&mut self, width: usize, hi: i64, rows_lo: usize, rows_hi: usize) -> Vec<Vec<i64>> {
        let rows = self.usize_in(rows_lo, rows_hi);
        (0..rows)
            .map(|_| self.values(0, hi, width, width + 1))
            .collect()
    }

    /// Jitter offsets in the unit square (count in `lo..hi`).
    fn jitter(&mut self, lo: usize, hi: usize) -> Vec<(f64, f64)> {
        let len = self.usize_in(lo, hi);
        (0..len)
            .map(|_| (self.f64_in(0.0, 1.0), self.f64_in(0.0, 1.0)))
            .collect()
    }
}

#[test]
fn kth_smallest_matches_full_sort() {
    for case in 0..CASES {
        let mut g = Gen::new(1, case);
        let values = g.values(-1000, 1000, 1, 200);
        let k = g.usize_in(0, 200) as u64 % values.len() as u64 + 1;
        let mut sorted = values.clone();
        sorted.sort_unstable();
        assert_eq!(
            kth_smallest(&values, k),
            sorted[k as usize - 1],
            "case {case}"
        );
    }
}

#[test]
fn counts_partition_and_validity() {
    for case in 0..CASES {
        let mut g = Gen::new(2, case);
        let values = g.values(-50, 50, 1, 100);
        let q = g.i64_in(-60, 60);
        let c = Counts::of(&values, q);
        assert_eq!(c.n(), values.len() as u64, "case {case}");
        for k in 1..=values.len() as u64 {
            let truth = kth_smallest(&values, k);
            assert_eq!(
                c.is_valid_quantile(k),
                q == truth,
                "case {case}: k={k} q={q}"
            );
        }
    }
}

#[test]
fn movement_direction_is_consistent_with_truth() {
    for case in 0..CASES {
        let mut g = Gen::new(3, case);
        let values = g.values(0, 100, 1, 80);
        let q = g.i64_in(0, 100);
        let k = g.usize_in(0, 80) as u64 % values.len() as u64 + 1;
        let truth = kth_smallest(&values, k);
        match Counts::of(&values, q).quantile_moved(k) {
            None => assert_eq!(truth, q, "case {case}"),
            Some(Direction::Down) => assert!(truth < q, "case {case}"),
            Some(Direction::Up) => assert!(truth > q, "case {case}"),
        }
    }
}

#[test]
fn rank_of_phi_is_a_valid_rank() {
    for case in 0..CASES {
        let mut g = Gen::new(4, case);
        // Both ends of [0, 1] explicitly, then the interior.
        let phi = match case {
            0 => 0.0,
            1 => 1.0,
            _ => g.f64_in(0.0, 1.0),
        };
        let n = g.usize_in(1, 10_000);
        let k = rank_of_phi(phi, n);
        assert!(k >= 1 && k <= n as u64, "case {case}: φ={phi} n={n} k={k}");
    }
}

#[test]
fn side_interval_partitions() {
    for case in 0..CASES {
        let mut g = Gen::new(5, case);
        let v = g.i64_in(-100, 100);
        let lb = g.i64_in(-50, 50);
        let ub = lb + g.i64_in(0, 40);
        match side_interval(v, lb, ub) {
            Side::Lt => assert!(v < lb, "case {case}"),
            Side::Eq => assert!(lb <= v && v <= ub, "case {case}"),
            Side::Gt => assert!(v > ub, "case {case}"),
        }
    }
}

#[test]
fn bucket_partition_covers_exactly() {
    for case in 0..CASES {
        let mut g = Gen::new(6, case);
        let lo = g.i64_in(-1000, 1000);
        let hi = lo + g.i64_in(1, 5000) - 1;
        let p = BucketPartition::new(lo, hi, g.usize_in(1, 128));
        // Bounds tile the interval.
        let mut next = lo;
        for i in 0..p.buckets {
            let (s, e) = p.bounds(i);
            assert_eq!(s, next, "case {case}: bucket {i}");
            assert!(s <= e, "case {case}: bucket {i}");
            next = e + 1;
        }
        assert_eq!(next, hi + 1, "case {case}");
    }
}

#[test]
fn bucket_index_agrees_with_bounds() {
    for case in 0..CASES {
        let mut g = Gen::new(7, case);
        let lo = g.i64_in(-300, 300);
        let width = g.i64_in(1, 600);
        let p = BucketPartition::new(lo, lo + width - 1, g.usize_in(1, 80));
        let v = lo + g.i64_in(0, 600) % width;
        let i = p.index_of(v).expect("inside");
        let (s, e) = p.bounds(i);
        assert!(
            s <= v && v <= e,
            "case {case}: {v} in bucket {i} = [{s}, {e}]"
        );
    }
}

#[test]
fn keep_largest_with_ties_is_sound() {
    for case in 0..CASES {
        let mut g = Gen::new(8, case);
        let vals = g.values(-20, 20, 0, 100);
        let f = g.usize_in(0, 40);
        let mut l = ValueList { vals: vals.clone() };
        l.keep_largest_with_ties(f);
        if f == 0 {
            assert!(l.vals.is_empty(), "case {case}");
        } else if vals.len() <= f {
            assert_eq!(l.vals.len(), vals.len(), "case {case}");
        } else {
            let mut sorted = vals.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            let cutoff = sorted[f - 1];
            // Everything >= cutoff survives, nothing below does.
            let expect: Vec<i64> = sorted.iter().copied().filter(|&v| v >= cutoff).collect();
            let mut got = l.vals.clone();
            got.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(got, expect, "case {case}");
        }
    }
}

#[test]
fn keep_smallest_keeps_the_f_smallest() {
    for case in 0..CASES {
        let mut g = Gen::new(9, case);
        let vals = g.values(-50, 50, 0, 120);
        let f = g.usize_in(0, 60);
        let mut l = ValueList { vals: vals.clone() };
        l.keep_smallest(f);
        let mut expect = vals;
        expect.sort_unstable();
        expect.truncate(f);
        let mut got = l.vals;
        got.sort_unstable();
        assert_eq!(got, expect, "case {case}");
    }
}

#[test]
fn lambert_w_inverts() {
    for case in 0..CASES {
        let mut g = Gen::new(10, case);
        // Spread the arguments over orders of magnitude up to 1e6.
        let x = match case {
            0 => 0.0,
            _ => 10f64.powf(g.f64_in(-6.0, 6.0)),
        };
        let w = lambert_w0(x);
        assert!(
            (w * w.exp() - x).abs() <= 1e-6 * (1.0 + x),
            "case {case}: W({x}) = {w}"
        );
    }
}

#[test]
fn optimal_buckets_is_the_argmin() {
    let sizes = MessageSizes::default();
    for case in 0..CASES {
        let mut g = Gen::new(11, case);
        let range = g.u64_in(2, 1_000_000);
        let b = optimal_buckets(&sizes, range);
        let cost = bary_search_cost(&sizes, b, range);
        for candidate in [2usize, 3, 8, 16, 32, 64] {
            assert!(
                cost <= bary_search_cost(&sizes, candidate, range) + 1e-9,
                "case {case}: range {range}, b = {b} loses to {candidate}"
            );
        }
    }
}

#[test]
fn iterations_are_enough_to_isolate_one_value() {
    let cover = |b: usize, it: u32| (0..it).fold(1u128, |c, _| c.saturating_mul(b as u128));
    for case in 0..CASES {
        let mut g = Gen::new(12, case);
        let b = g.usize_in(2, 64);
        let range = g.u64_in(1, 1_000_000);
        let it = iterations_for(b, range);
        // b^it >= range, and one fewer is not enough for range > 1.
        assert!(cover(b, it) >= range as u128, "case {case}");
        if range > 1 && it > 0 {
            assert!(cover(b, it - 1) < range as u128, "case {case}");
        }
    }
}

/// Wire-format certification: the encoded size of every payload matches
/// the bits the energy model charges, and decoding restores the payload.
fn wire() -> WireContext {
    WireContext::new(MessageSizes::default(), 0)
}

#[test]
fn value_lists_roundtrip() {
    let c = wire();
    for case in 0..CASES {
        let mut g = Gen::new(13, case);
        let list = ValueList {
            vals: g.values(0, 65536, 0, 200),
        };
        let bytes = c.encode_values(&list);
        assert_eq!(
            c.decode_values(&bytes, list.vals.len()).unwrap(),
            list,
            "case {case}"
        );
        assert_eq!(
            bytes.len() as u64,
            list.payload_bits(&c.sizes).div_ceil(8),
            "case {case}"
        );
    }
}

#[test]
fn counters_roundtrip() {
    let c = wire();
    for case in 0..CASES {
        let mut g = Gen::new(14, case);
        let m = MovementCounters {
            outof_lt: g.u64_in(0, 65536),
            into_lt: g.u64_in(0, 65536),
            outof_gt: g.u64_in(0, 65536),
            into_gt: g.u64_in(0, 65536),
        };
        let bytes = c.encode_counters(&m);
        assert_eq!(c.decode_counters(&bytes).unwrap(), m, "case {case}");
        assert_eq!(
            bytes.len() as u64 * 8,
            m.payload_bits(&c.sizes),
            "case {case}"
        );
    }
}

#[test]
fn histograms_roundtrip() {
    let c = wire();
    for case in 0..CASES {
        let mut g = Gen::new(15, case);
        let mut h = Histogram::zeros(g.usize_in(1, 128));
        // Empty buckets too, so the sparse encoding is exercised.
        for count in h.counts_mut() {
            if g.u64_in(0, 3) > 0 {
                *count = g.u64_in(0, 65536);
            }
        }
        let bytes = c.encode_histogram(&h);
        let decoded = c
            .decode_histogram(&bytes, h.counts().len(), h.nonempty())
            .unwrap();
        assert_eq!(decoded, h, "case {case}");
        assert_eq!(
            bytes.len() as u64 * 8,
            h.payload_bits(&c.sizes),
            "case {case}"
        );
    }
}

#[test]
fn deltas_roundtrip() {
    let c = wire();
    for case in 0..CASES {
        let mut g = Gen::new(16, case);
        let len = g.usize_in(1, 128);
        let deltas = (0..len)
            .map(|_| match g.u64_in(0, 3) {
                0 => 0,
                _ => g.i64_in(-1000, 1000),
            })
            .collect();
        let d = DeltaHistogram { deltas };
        let bytes = c.encode_deltas(&d);
        let decoded = c
            .decode_deltas(&bytes, d.deltas.len(), d.nonzero())
            .unwrap();
        assert_eq!(decoded, d, "case {case}");
        assert_eq!(
            bytes.len() as u64 * 8,
            d.payload_bits(&c.sizes),
            "case {case}"
        );
    }
}

/// Rank-summary invariant: under arbitrary merge/prune trees, every
/// entry's bounds contain the true rank and the enclosing interval
/// contains the true k-th value.
#[test]
fn summary_bounds_and_intervals_stay_valid() {
    for case in 0..CASES {
        let mut g = Gen::new(17, case);
        let values = g.values(0, 1000, 1, 300);
        let capacity = g.usize_in(4, 64);
        let chunk = g.usize_in(1, 8);
        // Merge in irregular chunks (mimics uneven subtree sizes).
        let mut acc = RankSummary::empty();
        for group in values.chunks(chunk) {
            let mut s = RankSummary::empty();
            for &v in group {
                s.merge_summary(&RankSummary::singleton(v));
            }
            s.prune(capacity);
            acc.merge_summary(&s);
            acc.prune(capacity);
        }
        assert_eq!(acc.count, values.len() as u64, "case {case}");

        let mut sorted = values.clone();
        sorted.sort_unstable();
        for e in &acc.entries {
            let lo = sorted.partition_point(|&v| v < e.value) as u64 + 1;
            let hi = sorted.partition_point(|&v| v <= e.value) as u64;
            assert!(
                e.rmin <= hi && e.rmax >= lo,
                "case {case}: {e:?} vs [{lo},{hi}]"
            );
        }
        for k in [1u64, values.len() as u64 / 2 + 1, values.len() as u64] {
            let truth = kth_smallest(&values, k);
            let (lo, hi) = acc.enclosing_interval(k).expect("in range");
            assert!(
                lo <= truth && truth <= hi,
                "case {case}: k={k}: [{lo},{hi}] vs {truth}"
            );
        }
    }
}

/// A connected network over a jittered grid of `n` sensors plus the sink
/// (grid + jitter keeps it connected by construction).
fn jittered_grid(n: usize, jitter: &[(f64, f64)]) -> Network {
    let cols = (n as f64).sqrt().ceil() as usize + 1;
    let positions: Vec<Point> = (0..=n)
        .map(|i| {
            let (jx, jy) = jitter[i % jitter.len()];
            Point::new(
                (i % cols) as f64 * 8.0 + jx * 3.0,
                (i / cols) as f64 * 8.0 + jy * 3.0,
            )
        })
        .collect();
    let topo = Topology::build(positions, 14.0);
    let tree = RoutingTree::shortest_path_tree(&topo).expect("grid stays connected");
    Network::new(topo, tree, RadioModel::default(), MessageSizes::default())
}

/// Every exact paper protocol and its ablation switches.
fn protocols(query: QueryConfig) -> Vec<Box<dyn ContinuousQuantile>> {
    let sizes = MessageSizes::default();
    vec![
        Box::new(Tag::new(query)),
        Box::new(Pos::new(query)),
        Box::new(Pos::new(query).without_direct_retrieval()),
        Box::new(Hbc::new(query, HbcConfig::default(), &sizes)),
        Box::new(Hbc::new(
            query,
            HbcConfig {
                direct_retrieval: false,
                eliminate_threshold_broadcast: true,
                ..HbcConfig::default()
            },
            &sizes,
        )),
        Box::new(Iq::new(query, IqConfig::default())),
        Box::new(Lcll::new(query, RefiningStrategy::Hierarchical, &sizes)),
        Box::new(Lcll::new(query, RefiningStrategy::Slip, &sizes)),
        Box::new(cqp_core::LcllRange::new(query, &sizes)),
    ]
}

#[test]
fn every_protocol_is_exact_on_random_streams() {
    for case in 0..PROTOCOL_CASES {
        let mut g = Gen::new(18, case);
        let n = g.usize_in(8, 40);
        let k = g.u64_in(0, 1000) % n as u64 + 1;
        let jitter = g.jitter(8, 32);
        let rounds = g.rows(n, 256, 4, 12);
        let query = QueryConfig {
            k,
            range_min: 0,
            range_max: 255,
        };
        for mut alg in protocols(query) {
            let mut net = jittered_grid(n, &jitter);
            for (t, values) in rounds.iter().enumerate() {
                assert_eq!(
                    alg.round(&mut net, values),
                    kth_smallest(values, k),
                    "case {case}: {} wrong at round {t} (k={k})",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn iq_one_refinement_guarantee_holds_always() {
    for case in 0..PROTOCOL_CASES {
        let mut g = Gen::new(19, case);
        let n = g.usize_in(8, 40);
        let jitter = g.jitter(8, 16);
        let rounds = g.rows(n, 10_000, 4, 10);
        let mut iq = Iq::new(QueryConfig::median(n, 0, 9_999), IqConfig::default());
        let mut net = jittered_grid(n, &jitter);
        for (t, values) in rounds.iter().enumerate() {
            iq.round(&mut net, values);
            assert!(iq.last_refinements() <= 1, "case {case}: round {t}");
        }
    }
}

#[test]
fn smooth_streams_keep_iq_quiet() {
    for case in 0..PROTOCOL_CASES {
        let mut g = Gen::new(20, case);
        let n = g.usize_in(10, 30);
        let jitter = g.jitter(8, 16);
        let base = g.i64_in(100, 5000);
        let step = g.i64_in(1, 4);
        // A linear drift: after warm-up, IQ must answer from validation
        // alone (the Ξ adaptation property, §4.2.2).
        let mut iq = Iq::new(QueryConfig::median(n, 0, 100_000), IqConfig::default());
        let mut net = jittered_grid(n, &jitter);
        for t in 0..25i64 {
            let values: Vec<i64> = (0..n).map(|i| base + i as i64 * 7 + t * step).collect();
            iq.round(&mut net, &values);
            if t > 5 {
                assert_eq!(iq.last_refinements(), 0, "case {case}: round {t}");
            }
        }
    }
}

#[test]
fn no_protocol_panics_under_message_loss() {
    for case in 0..PROTOCOL_CASES {
        let mut g = Gen::new(21, case);
        let n = g.usize_in(8, 32);
        let jitter = g.jitter(8, 16);
        let loss = g.u64_in(1, 400) as f64 / 1000.0;
        let seed = g.u64_in(0, 10_000);
        let rounds = g.rows(n, 512, 4, 10);
        // Under loss, answers may be wrong — but every protocol must keep
        // running, stay silent-safe, and answer inside the universe.
        for mut alg in protocols(QueryConfig::median(n, 0, 511)) {
            let mut net = jittered_grid(n, &jitter);
            net.set_loss(Some(wsn_net::loss::LossModel::new(loss, seed)));
            for values in &rounds {
                let answer = alg.round(&mut net, values);
                assert!(
                    (0..=511).contains(&answer),
                    "case {case}: {} answered {answer} outside the universe",
                    alg.name()
                );
            }
        }
    }
}

#[test]
fn protocol_state_survives_alternating_extremes() {
    for case in 0..PROTOCOL_CASES {
        let mut g = Gen::new(22, case);
        let n = g.usize_in(8, 24);
        let jitter = g.jitter(8, 16);
        let reps = g.usize_in(2, 5);
        // Ping-pong between the range ends — worst case for filters.
        let query = QueryConfig::median(n, 0, 4095);
        let lowish: Vec<i64> = (0..n).map(|i| (i as i64 * 3) % 64).collect();
        let highish: Vec<i64> = (0..n).map(|i| 4000 + (i as i64 * 5) % 64).collect();
        for mut alg in protocols(query) {
            let mut net = jittered_grid(n, &jitter);
            for r in 0..reps {
                for values in [&lowish, &highish] {
                    assert_eq!(
                        alg.round(&mut net, values),
                        kth_smallest(values, query.k),
                        "case {case}: {} rep {r}",
                        alg.name()
                    );
                }
            }
        }
    }
}
