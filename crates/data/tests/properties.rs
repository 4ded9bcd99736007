//! Seeded property tests of the dataset generators: RNG bounds, value
//! ranges of every generator, SOM placement, per-seed determinism, and
//! the waypoint walk the dynamic worlds move nodes with.
//!
//! Every property runs over a fixed set of splitmix64-drawn cases, so a
//! failure names its case and replays exactly.

use wsn_data::pressure::{PressureConfig, RangeSetting};
use wsn_data::som::som_placement;
use wsn_data::synthetic::{SyntheticConfig, SyntheticDataset};
use wsn_data::{Dataset, PressureDataset, Rng, WaypointWalk};
use wsn_net::splitmix::SplitMix64;
use wsn_net::Point;

/// Cases per randomized property.
const CASES: u64 = 32;

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

    fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    fn bool(&mut self) -> bool {
        self.0.next_u64() & 1 == 1
    }
}

#[test]
fn rng_below_respects_bound() {
    for case in 0..CASES {
        let mut g = Gen::new(1, case);
        // Small bounds, random ones, and the worst case for rejection.
        let n = match case {
            0 => 1,
            1 => (1 << 63) + 1,
            2 => u64::MAX,
            _ => g.u64_in(1, 1_000_000),
        };
        let mut rng = Rng::seed_from_u64(g.u64_in(0, 1000));
        for _ in 0..100 {
            assert!(rng.below(n) < n, "case {case}: n = {n}");
        }
    }
}

#[test]
fn rng_range_respects_bounds() {
    for case in 0..CASES {
        let mut g = Gen::new(2, case);
        let lo = g.u64_in(0, 2000) as i64 - 1000;
        let hi = lo + g.u64_in(0, 500) as i64;
        let mut rng = Rng::seed_from_u64(g.u64_in(0, 1000));
        for _ in 0..50 {
            let v = rng.range_i64(lo, hi);
            assert!(
                (lo..=hi).contains(&v),
                "case {case}: {v} outside {lo}..={hi}"
            );
        }
    }
}

#[test]
fn synthetic_values_always_in_range() {
    for case in 0..CASES {
        let mut g = Gen::new(3, case);
        let n = g.usize_in(1, 80);
        let period = g.u64_in(1, 300) as u32;
        let cfg = SyntheticConfig {
            period,
            noise_percent: g.f64_in(0.0, 100.0),
            range_size: g.u64_in(2, 4096),
            ..SyntheticConfig::default()
        };
        let mut rng = Rng::seed_from_u64(g.u64_in(0, 500));
        let pos: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.range_f64(0.0, 200.0), rng.range_f64(0.0, 200.0)))
            .collect();
        let mut ds = SyntheticDataset::generate(cfg, &pos, &mut rng);
        let mut out = vec![0; n];
        for t in [0, 1, period / 2, period, period * 2 + 3] {
            ds.sample_round(t, &mut out);
            for &v in &out {
                assert!(
                    (ds.range_min()..=ds.range_max()).contains(&v),
                    "case {case} round {t}: {v}"
                );
            }
        }
    }
}

#[test]
fn pressure_values_always_in_range() {
    for case in 0..CASES {
        let mut g = Gen::new(4, case);
        let n = g.usize_in(1, 60);
        let cfg = PressureConfig {
            sensor_count: n,
            steps: 200,
            skip: g.u64_in(1, 20) as u32,
            range: if g.bool() {
                RangeSetting::Pessimistic
            } else {
                RangeSetting::Optimistic
            },
            ..PressureConfig::default()
        };
        let mut ds = PressureDataset::generate(cfg, &mut Rng::seed_from_u64(g.u64_in(0, 200)));
        assert!(ds.range_min() < ds.range_max(), "case {case}");
        let mut out = vec![0; n];
        for t in [0, 1, 50, 500] {
            ds.sample_round(t, &mut out);
            for &v in &out {
                assert!(
                    (ds.range_min()..=ds.range_max()).contains(&v),
                    "case {case} round {t}: {v}"
                );
            }
        }
    }
}

#[test]
fn som_placement_stays_in_area() {
    for case in 0..CASES {
        let mut g = Gen::new(5, case);
        let features: Vec<i64> = (0..g.usize_in(2, 150))
            .map(|_| g.u64_in(0, 10_000) as i64)
            .collect();
        let (w, h) = (g.f64_in(10.0, 400.0), g.f64_in(10.0, 400.0));
        let mut rng = Rng::seed_from_u64(g.u64_in(0, 200));
        let pos = som_placement(&features, w, h, &mut rng);
        assert_eq!(pos.len(), features.len(), "case {case}");
        for &(x, y) in &pos {
            assert!(
                (0.0..=w).contains(&x) && (0.0..=h).contains(&y),
                "case {case}: ({x}, {y}) outside {w} × {h}"
            );
        }
    }
}

#[test]
fn datasets_are_deterministic_per_seed() {
    let make = |seed: u64| {
        let mut rng = Rng::seed_from_u64(seed);
        let pos = [(10.0, 10.0), (50.0, 70.0), (150.0, 30.0)];
        let mut ds = SyntheticDataset::generate(SyntheticConfig::default(), &pos, &mut rng);
        let mut out = vec![0; 3];
        ds.sample_round(5, &mut out);
        out
    };
    for case in 0..CASES {
        let seed = Gen::new(6, case).u64_in(0, 500);
        assert_eq!(make(seed), make(seed), "case {case}");
    }
}

#[test]
fn range_size_is_consistent() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(Gen::new(7, case).u64_in(0, 100));
        let pos = [(1.0, 1.0); 5];
        let ds = SyntheticDataset::generate(SyntheticConfig::default(), &pos, &mut rng);
        assert_eq!(
            ds.range_size(),
            (ds.range_max() - ds.range_min() + 1) as u64,
            "case {case}"
        );
    }
}

/// A walk over `n` random start points in a `w × h` field.
fn walk(g: &mut Gen, n: usize, w: f64, h: f64, step: f64) -> WaypointWalk {
    let start = (0..n)
        .map(|_| Point::new(g.f64_in(0.0, w), g.f64_in(0.0, h)))
        .collect();
    WaypointWalk::new(
        start,
        w,
        h,
        step,
        &mut Rng::seed_from_u64(g.u64_in(0, 1 << 32)),
    )
}

fn bits(points: &[Point]) -> Vec<(u64, u64)> {
    points
        .iter()
        .map(|p| (p.x.to_bits(), p.y.to_bits()))
        .collect()
}

#[test]
fn a_frozen_walk_never_moves() {
    // Churn-only worlds run a walk with step 0; the disk graph treats a
    // node as moved iff its coordinates change bit for bit, so a frozen
    // advance must change none.
    for case in 0..CASES {
        let mut g = Gen::new(8, case);
        let n = g.usize_in(1, 200);
        let mut walk = walk(&mut g, n, 200.0, 200.0, 0.0);
        let before = bits(walk.positions());
        for _ in 0..10 {
            walk.advance();
        }
        assert_eq!(bits(walk.positions()), before, "case {case}");
    }
}

#[test]
fn replace_moves_only_its_point() {
    for case in 0..CASES {
        let mut g = Gen::new(9, case);
        let n = g.usize_in(1, 200);
        let step = if g.bool() { 0.0 } else { g.f64_in(0.0, 50.0) };
        let mut walk = walk(&mut g, n, 200.0, 150.0, step);
        for _ in 0..20 {
            let i = g.usize_in(0, n);
            let mut expect = bits(walk.positions());
            walk.replace(i);
            expect[i] = bits(&walk.positions()[i..=i])[0];
            assert_eq!(bits(walk.positions()), expect, "case {case}: replace({i})");
        }
    }
}

#[test]
fn walks_stay_in_the_field() {
    for case in 0..CASES {
        let mut g = Gen::new(10, case);
        let n = g.usize_in(1, 100);
        let (w, h) = (g.f64_in(1.0, 500.0), g.f64_in(1.0, 500.0));
        // Steps from a crawl to several field widths per advance.
        let step = w.max(h) * g.f64_in(0.0, 3.0);
        let mut walk = walk(&mut g, n, w, h, step);
        for round in 0..100 {
            if g.bool() {
                walk.replace(g.usize_in(0, n));
            }
            walk.advance();
            for p in walk.positions() {
                assert!(
                    (0.0..=w).contains(&p.x) && (0.0..=h).contains(&p.y),
                    "case {case} round {round}: {p:?} outside {w} × {h}"
                );
            }
        }
    }
}
