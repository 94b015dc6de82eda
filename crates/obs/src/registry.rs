//! A small metrics registry: named monotonic counters + histograms.

use std::collections::BTreeMap;

use crate::Histogram;

/// A registry of named monotonic counters and latency histograms.
///
/// Names are static: the metric set is closed and defined by the code
/// that feeds it (`serve`, the CLI, the bench harness). Iteration order
/// is name order (BTreeMap), so every export is deterministic given the
/// same counter values.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Add `delta` to the counter `name` (creating it at 0).
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set the counter `name` to `value` if larger (monotonic gauge).
    pub fn max(&mut self, name: &'static str, value: u64) {
        let e = self.counters.entry(name).or_insert(0);
        *e = (*e).max(value);
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Record a sample into histogram `name` (microseconds).
    pub fn observe_us(&mut self, name: &'static str, us: u64) {
        self.histograms.entry(name).or_default().record_us(us);
    }

    /// The histogram `name`, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_histograms() {
        let mut r = Registry::new();
        r.add("checks", 1);
        r.add("checks", 2);
        r.max("docs", 4);
        r.max("docs", 2);
        r.observe_us("latency", 100);
        r.observe_us("latency", 200);
        assert_eq!(r.counter("checks"), 3);
        assert_eq!(r.counter("docs"), 4);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.histogram("latency").unwrap().count(), 2);
        let names: Vec<_> = r.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["checks", "docs"]);
    }
}
