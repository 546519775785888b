//! Interleaved-round sampling.
//!
//! Host noise on a small shared machine drifts from one second to the
//! next, so a metric timed in one burst inherits whatever the machine was
//! doing during that burst. Instead, every round takes one sample of every
//! timed quantity of the workload, rounds repeat until the time budget is
//! spent, and each metric is the median over rounds. A slow second then
//! costs every quantity one sample instead of costing one quantity all of
//! its samples. The first round warms caches and lazy set-up and is
//! discarded.

use std::collections::BTreeMap;

/// What the scheduler collected.
#[derive(Debug)]
pub struct Sampled<K> {
    /// Samples per quantity over the timed rounds, in round order.
    pub series: BTreeMap<K, Vec<f64>>,
    /// Timed rounds run (the warm-up round excluded).
    pub rounds: usize,
}

/// Runs one discarded warm-up round, then timed rounds until `budget_s`
/// seconds (read from `elapsed_s`, which starts counting at the first
/// timed round) are spent and at least `min_rounds` timed rounds ran.
///
/// `round(k)` runs round `k` (0 is the warm-up) and returns its samples.
pub fn interleaved<K: Ord>(
    budget_s: f64,
    min_rounds: usize,
    mut elapsed_s: impl FnMut() -> f64,
    mut round: impl FnMut(usize) -> BTreeMap<K, f64>,
) -> Sampled<K> {
    round(0);
    let start = elapsed_s();
    let mut out = Sampled {
        series: BTreeMap::new(),
        rounds: 0,
    };
    while out.rounds < min_rounds || elapsed_s() - start < budget_s {
        out.rounds += 1;
        for (name, v) in round(out.rounds) {
            out.series.entry(name).or_default().push(v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A fake clock advanced by the rounds themselves.
    fn run(budget: f64, min_rounds: usize, round_cost: f64) -> (Sampled<&'static str>, Vec<usize>) {
        let now = Cell::new(0.0);
        let mut seen = Vec::new();
        let s = interleaved(
            budget,
            min_rounds,
            || now.get(),
            |k| {
                seen.push(k);
                now.set(now.get() + round_cost);
                // The warm-up round reports a sample far off the others;
                // it must never reach the series.
                let v = if k == 0 { 1e9 } else { k as f64 };
                BTreeMap::from([("a", v), ("b", 2.0 * v)])
            },
        );
        (s, seen)
    }

    #[test]
    fn warm_up_round_runs_first_and_is_excluded() {
        let (s, seen) = run(3.0, 1, 1.0);
        assert_eq!(seen, vec![0, 1, 2, 3]);
        assert_eq!(s.rounds, 3);
        assert_eq!(s.series["a"], vec![1.0, 2.0, 3.0]);
        assert_eq!(s.series["b"], vec![2.0, 4.0, 6.0]);
    }

    #[test]
    fn every_round_samples_every_quantity() {
        let (s, _) = run(10.0, 1, 0.7);
        assert_eq!(s.series.len(), 2);
        assert!(s.series.values().all(|v| v.len() == s.rounds));
    }

    #[test]
    fn budget_excludes_warm_up_time() {
        // A warm-up that alone exceeds the budget still leaves the timed
        // rounds their full budget.
        let now = Cell::new(0.0);
        let s = interleaved(
            2.0,
            1,
            || now.get(),
            |k| {
                now.set(now.get() + if k == 0 { 100.0 } else { 1.0 });
                BTreeMap::from([("a", 1.0)])
            },
        );
        assert_eq!(s.rounds, 2);
    }

    #[test]
    fn minimum_rounds_outlast_the_budget() {
        let (s, _) = run(0.5, 4, 1.0);
        assert_eq!(s.rounds, 4);
        let (s, _) = run(0.0, 1, 1.0);
        assert_eq!(s.rounds, 1);
    }
}
