//! Order statistics over timing samples.

/// Quartiles `[q1, median, q3]` by the method of Python's
/// `statistics.quantiles(data, n=4)` ("exclusive"). A single sample is
/// its own quartiles.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => [0.0; 3],
        1 => [d[0]; 3],
        len => {
            let m = len + 1;
            [1, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
            })
        }
    }
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples)[1]
}

/// The tail: the highest order statistic with at least ten samples
/// beyond it. Returns `(value, percentile, samples beyond)`; with fewer
/// than eleven samples it falls back to the maximum, with none beyond.
pub fn tail(samples: &[f64]) -> (f64, f64, usize) {
    let mut d = samples.to_vec();
    d.sort_by(f64::total_cmp);
    let n = d.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let i = n.saturating_sub(11);
    let beyond = n - 1 - i;
    if beyond < 10 {
        return (d[n - 1], 100.0, 0);
    }
    (d[i], 100.0 * (i + 1) as f64 / n as f64, beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert_eq!(median(&[4.0]), 4.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0, 10));
        let few: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(tail(&few), (5.0, 100.0, 0));
    }
}
