//! Order statistics shared by every workload and by `perf compare`.

/// Samples that must lie beyond a percentile before it is reported: a
/// p99 therefore needs 1000 samples, a p90 a hundred.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// A percentile together with the number of samples it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// How many samples the rank was taken from.
    pub n: usize,
}

/// Can a percentile `q` be taken from `n` samples? Not from none, not
/// for a `q` outside `(0, 1]`, and not a tail percentile (`q > 0.5`)
/// with fewer than [`MIN_SAMPLES_BEYOND`] samples beyond it — a p99 from
/// fewer than 1000 samples is the maximum of a handful of values.
fn supported(q: f64, n: usize) -> bool {
    n > 0
        && q > 0.0
        && q <= 1.0
        && (q <= 0.5 || (1.0 - q) * (n as f64) >= MIN_SAMPLES_BEYOND - 1e-9)
}

/// The smallest sample such that at least `q * n` samples are less than
/// or equal to it. Sorts `samples` in place; they must not be empty.
fn nearest_rank(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    samples[rank.min(n) - 1]
}

/// Nearest-rank percentile of `samples` (sorted in place), or `None`
/// where the samples do not support it (see [`MIN_SAMPLES_BEYOND`]).
pub fn percentile(samples: &mut [f64], q: f64) -> Option<Percentile> {
    supported(q, samples.len()).then(|| Percentile {
        value: nearest_rank(samples, q),
        n: samples.len(),
    })
}

/// A percentile of a run made of rounds of the same work: the
/// nearest-rank percentile of each round, then the median over rounds.
/// Pooling the samples instead would let one disturbed round own the
/// whole tail; this way a minority of disturbed rounds moves nothing.
/// The rounds together must support the percentile; their sample count
/// is returned.
pub fn percentile_over_rounds(rounds: &[Vec<f64>], q: f64) -> Option<Percentile> {
    let n: usize = rounds.iter().map(Vec::len).sum();
    if !supported(q, n) {
        return None;
    }
    let per_round: Vec<f64> = rounds
        .iter()
        .filter(|round| !round.is_empty())
        .map(|round| nearest_rank(&mut round.clone(), q))
        .collect();
    Some(Percentile {
        value: median(&per_round),
        n,
    })
}

/// The nearest-rank median, or 0 for an empty set (a layer that never
/// ran reports 0, which is what "bypassed" looks like).
pub fn p50(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5).map_or(0.0, |p| p.value)
}

/// The conventional median (mean of the two middle values for an even
/// count) — used across rounds and across runs, where sets are small.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` gives, which is what the
/// acceptance driver computes spreads from. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1).abs() / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_returns_sample_and_count() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v.reverse();
        assert_eq!(
            percentile(&mut v, 0.5),
            Some(Percentile { value: 5.0, n: 10 })
        );
        assert_eq!(percentile(&mut v, 0.1).unwrap().value, 1.0);
        assert_eq!(percentile(&mut v, 0.11).unwrap().value, 2.0);
        assert_eq!(percentile(&mut [], 0.5), None);
        assert_eq!(percentile(&mut [1.0], 0.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        let mut few: Vec<f64> = (0..999).map(f64::from).collect();
        assert_eq!(percentile(&mut few, 0.99), None);
        let mut enough: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = percentile(&mut enough, 0.99).unwrap();
        assert_eq!((p.value, p.n), (990.0, 1000));
        // A p90 is satisfied by a hundred.
        let mut hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut hundred, 0.9).unwrap().value, 90.0);
    }

    #[test]
    fn a_disturbed_round_does_not_own_the_tail() {
        let calm: Vec<f64> = (1..=250).map(f64::from).collect();
        let disturbed: Vec<f64> = calm.iter().map(|x| x * 3.0).collect();
        let rounds = vec![calm.clone(), calm.clone(), disturbed, calm.clone()];
        let p = percentile_over_rounds(&rounds, 0.99).unwrap();
        assert_eq!((p.value, p.n), (248.0, 1000));
        let mut pooled: Vec<f64> = rounds.concat();
        assert!(percentile(&mut pooled, 0.99).unwrap().value > 700.0);
        // Three rounds of 250 are too few for a p99, whatever the rounds.
        assert_eq!(percentile_over_rounds(&rounds[..3], 0.99), None);
        assert_eq!(
            percentile_over_rounds(&rounds[..3], 0.5).unwrap().value,
            125.0
        );
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        let (q1, q3) = quartiles(&[3.0, 1.0]).unwrap();
        assert!((q1 - 0.5).abs() < 1e-12 && (q3 - 3.5).abs() < 1e-12);
    }
}
