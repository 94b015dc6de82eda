//! Self-time attribution over raw spans.
//!
//! A span's self time is its duration minus the part of it that child
//! spans on the same thread cover. Over a window of wall time, every
//! instant belongs to the innermost open span of each thread that has
//! one. Two sums come out of that:
//!
//! - `summed`: each busy thread charges the instant to its innermost
//!   span's layer, so on two busy workers a layer can collect twice the
//!   wall time (time summed across workers);
//! - `wall`: the instant is split evenly among the busy threads, so the
//!   layers plus `unattributed` add up to the window's wall time exactly.
//!
//! Instants when no thread is inside a span, or when a thread's
//! innermost span belongs to no layer (the harness's own spans), count
//! as unattributed.

use std::collections::{BTreeMap, HashMap};

/// One completed span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// The layer the span's self time is charged to; `None` for the
    /// harness's own spans.
    pub layer: Option<&'static str>,
    /// Recording thread.
    pub tid: u64,
    /// Nesting depth on that thread (0 = outermost).
    pub depth: u32,
    /// Start, in nanoseconds on a clock shared by every span.
    pub start_ns: u64,
    /// End, on the same clock.
    pub end_ns: u64,
}

/// Where the wall time of one window went.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Attribution {
    /// Length of the window, in nanoseconds.
    pub wall_ns: f64,
    /// Per layer: self time with each instant split among busy threads.
    pub wall: BTreeMap<&'static str, f64>,
    /// Per layer: self time summed across threads.
    pub summed: BTreeMap<&'static str, f64>,
    /// Wall time no layer covers; `wall` plus this equals `wall_ns`.
    pub unattributed_ns: f64,
}

impl Attribution {
    /// Adds `other`'s times into `self` (accumulating several windows).
    pub fn add(&mut self, other: &Attribution) {
        self.wall_ns += other.wall_ns;
        self.unattributed_ns += other.unattributed_ns;
        for (k, v) in &other.wall {
            *self.wall.entry(k).or_default() += v;
        }
        for (k, v) in &other.summed {
            *self.summed.entry(k).or_default() += v;
        }
    }
}

/// Attributes the wall time of `[from_ns, to_ns)` to the layers of
/// `spans` (clipped to the window).
pub fn attribute(spans: &[Span], from_ns: u64, to_ns: u64) -> Attribution {
    let mut events: Vec<(u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        let (a, b) = (s.start_ns.max(from_ns), s.end_ns.min(to_ns));
        if a < b {
            events.push((a, true, i));
            events.push((b, false, i));
        }
    }
    events.sort_unstable_by_key(|e| e.0);

    let mut out = Attribution {
        wall_ns: to_ns.saturating_sub(from_ns) as f64,
        ..Attribution::default()
    };
    let mut open: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut charge = |open: &HashMap<u64, Vec<usize>>, dt: f64| {
        let innermost: Vec<usize> = open
            .values()
            .filter_map(|stack| stack.iter().copied().max_by_key(|&i| spans[i].depth))
            .collect();
        if innermost.is_empty() {
            out.unattributed_ns += dt;
            return;
        }
        let share = dt / innermost.len() as f64;
        for i in innermost {
            match spans[i].layer {
                Some(layer) => {
                    *out.wall.entry(layer).or_default() += share;
                    *out.summed.entry(layer).or_default() += dt;
                }
                None => out.unattributed_ns += share,
            }
        }
    };

    let mut now = from_ns;
    for (t, is_start, i) in events {
        if t > now {
            charge(&open, (t - now) as f64);
            now = t;
        }
        let stack = open.entry(spans[i].tid).or_default();
        if is_start {
            stack.push(i);
        } else if let Some(pos) = stack.iter().rposition(|&j| j == i) {
            stack.remove(pos);
            if stack.is_empty() {
                open.remove(&spans[i].tid);
            }
        }
    }
    if to_ns > now {
        charge(&open, (to_ns - now) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, tid: u64, depth: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer: Some(layer),
            tid,
            depth,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_spans_on_two_threads() {
        // Thread 1: a [0,100) holding b [10,40).
        // Thread 2: c [50,150) holding d [60,70).
        let spans = [
            span("a", 1, 0, 0, 100),
            span("b", 1, 1, 10, 40),
            span("c", 2, 0, 50, 150),
            span("d", 2, 1, 60, 70),
        ];
        let at = attribute(&spans, 0, 200);
        let summed: Vec<(&str, f64)> = at.summed.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(summed, [("a", 70.0), ("b", 30.0), ("c", 90.0), ("d", 10.0)]);
        // [50,100) has both threads busy, so a, c and d share it.
        let wall: Vec<(&str, f64)> = at.wall.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(wall, [("a", 45.0), ("b", 30.0), ("c", 70.0), ("d", 5.0)]);
        assert_eq!(at.unattributed_ns, 50.0);
        let total: f64 = at.wall.values().sum::<f64>() + at.unattributed_ns;
        assert_eq!(total, at.wall_ns);
    }

    #[test]
    fn same_layer_nested_and_shared_start() {
        // A child starting at its parent's start still owns its interval,
        // and a layer's self time is the sum over all its spans.
        let spans = [
            span("fix", 1, 0, 0, 50),
            span("fix", 1, 1, 0, 20),
            span("smt", 1, 2, 5, 15),
        ];
        let at = attribute(&spans, 0, 50);
        assert_eq!(at.summed["fix"], 40.0);
        assert_eq!(at.summed["smt"], 10.0);
        assert_eq!(at.unattributed_ns, 0.0);
    }

    #[test]
    fn harness_spans_and_clipping_count_as_unattributed() {
        let spans = [
            Span {
                layer: None,
                tid: 1,
                depth: 0,
                start_ns: 0,
                end_ns: 100,
            },
            span("parse", 1, 1, 20, 30),
            // Starts before the window: only its inside part counts.
            span("ssa", 2, 0, 0, 60),
        ];
        let at = attribute(&spans, 40, 120);
        // [40,60): harness + ssa share; [60,100): harness alone;
        // [100,120): nothing open.
        assert_eq!(at.wall["ssa"], 10.0);
        assert!(!at.wall.contains_key("parse"));
        assert_eq!(at.unattributed_ns, 10.0 + 40.0 + 20.0);
        assert_eq!(at.wall_ns, 80.0);
    }

    #[test]
    fn add_accumulates_windows() {
        let a = attribute(&[span("x", 1, 0, 0, 10)], 0, 20);
        let mut total = Attribution::default();
        total.add(&a);
        total.add(&a);
        assert_eq!(total.wall["x"], 20.0);
        assert_eq!(total.unattributed_ns, 20.0);
        assert_eq!(total.wall_ns, 40.0);
    }
}
