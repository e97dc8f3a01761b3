//! In-memory span tracer for the traced run.
//!
//! Spans are opened and closed by the benchmark around each call into
//! a layer's public functions; nothing inside the program is
//! instrumented. Recording every span of a fleet day individually
//! would cost hundreds of megabytes, so spans are folded on close into
//! a call tree keyed by their path (root → … → span name). Each node
//! keeps its span count, the summed span durations, and the summed
//! durations of its direct children, which is all the self-time
//! arithmetic needs: self = total − children. The tree is written out
//! (as collapsed stacks) when the benchmark ends.
//!
//! A span's own bookkeeping (two clock reads and the fold) lands in its
//! parent's duration. [`span_cost`] measures that cost once per run,
//! so the traced run can take it back out of the busy times it
//! reconciles and report it as the tracing overhead.

use fadewich_telemetry::Clock;

#[derive(Debug)]
struct Node {
    name: &'static str,
    parent: Option<usize>,
    children: Vec<usize>,
    count: u64,
    total_ns: u64,
    child_ns: u64,
}

/// Folds nested spans into per-path totals. See the module docs.
#[derive(Debug)]
pub struct Tracer<'c> {
    clock: &'c dyn Clock,
    nodes: Vec<Node>,
    roots: Vec<usize>,
    /// Open spans: (node, start ns).
    stack: Vec<(usize, u64)>,
}

impl<'c> Tracer<'c> {
    pub fn new(clock: &'c dyn Clock) -> Tracer<'c> {
        Tracer {
            clock,
            nodes: Vec::new(),
            roots: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn child(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        let siblings = match parent {
            Some(p) => &self.nodes[p].children,
            None => &self.roots,
        };
        if let Some(&id) = siblings.iter().find(|&&id| self.nodes[id].name == name) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(Node {
            name,
            parent,
            children: Vec::new(),
            count: 0,
            total_ns: 0,
            child_ns: 0,
        });
        match parent {
            Some(p) => self.nodes[p].children.push(id),
            None => self.roots.push(id),
        }
        id
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.stack.last().map(|&(id, _)| id);
        let id = self.child(parent, name);
        self.stack.push((id, self.clock.now_ns()));
    }

    /// Closes the innermost open span and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open (a benchmark bug).
    pub fn exit(&mut self) -> u64 {
        let (id, start) = self.stack.pop().expect("exit without a matching enter");
        let dur = self.clock.now_ns().saturating_sub(start);
        let node = &mut self.nodes[id];
        node.count += 1;
        node.total_ns += dur;
        if let Some(p) = node.parent {
            self.nodes[p].child_ns += dur;
        }
        dur
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Node> + '_ {
        let name = name.to_string();
        self.nodes.iter().filter(move |n| n.name == name)
    }

    /// Summed duration of every span named `name`, on any path.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).map(|n| n.total_ns).sum()
    }

    /// Summed self time (duration minus direct children) of every span
    /// named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.named(name).map(|n| n.total_ns - n.child_ns).sum()
    }

    /// Number of closed spans named `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.named(name).map(|n| n.count).sum()
    }

    /// Summed duration of the outermost spans: the time covered by at
    /// least one span, counted once.
    pub fn busy_ns(&self) -> u64 {
        self.roots.iter().map(|&r| self.nodes[r].total_ns).sum()
    }

    /// Adds every span `other` recorded into this tree, path by path
    /// (tracers filled on other threads are merged this way).
    ///
    /// # Panics
    ///
    /// When `other` still has open spans (a benchmark bug).
    pub fn absorb(&mut self, other: &Tracer<'_>) {
        assert!(other.stack.is_empty(), "absorbing a tracer with open spans");
        // A node is created while its parent is open, so parents come
        // first in `nodes`.
        let mut ids = Vec::with_capacity(other.nodes.len());
        for node in &other.nodes {
            let id = self.child(node.parent.map(|p| ids[p]), node.name);
            ids.push(id);
            let mine = &mut self.nodes[id];
            mine.count += node.count;
            mine.total_ns += node.total_ns;
            mine.child_ns += node.child_ns;
        }
    }

    /// Closed spans: `(all, nested)`, where nested spans are those
    /// closed inside another span.
    pub fn span_counts(&self) -> (u64, u64) {
        let all = self.nodes.iter().map(|n| n.count).sum();
        let nested = self
            .nodes
            .iter()
            .filter(|n| n.parent.is_some())
            .map(|n| n.count)
            .sum();
        (all, nested)
    }

    /// The call tree as collapsed stacks (`a;b;c <self ns>`), one line
    /// per path, in first-seen order.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            let mut path = vec![node.name];
            let mut up = node.parent;
            while let Some(p) = up {
                path.push(self.nodes[p].name);
                up = self.nodes[p].parent;
            }
            path.reverse();
            out.push_str(&format!(
                "{} {}\n",
                path.join(";"),
                node.total_ns - node.child_ns
            ));
        }
        out
    }
}

/// What a span's own bookkeeping costs, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// What one nested span adds to its parent's duration.
    pub pair_ns: f64,
    /// The part of that inside the nested span's own duration.
    pub inner_ns: f64,
}

/// Measures [`SpanCost`]: the median, over a few rounds, of a root
/// span holding many empty spans.
pub fn span_cost(clock: &dyn Clock) -> SpanCost {
    const SPANS: u64 = 20_000;
    let mut rounds: Vec<SpanCost> = (0..5)
        .map(|_| {
            let mut t = Tracer::new(clock);
            t.enter("calibrate");
            for _ in 0..SPANS {
                t.enter("empty");
                t.exit();
            }
            let pair = t.exit();
            SpanCost {
                pair_ns: pair as f64 / SPANS as f64,
                inner_ns: t.total_ns("empty") as f64 / SPANS as f64,
            }
        })
        .collect();
    rounds.sort_by(|a, b| a.pair_ns.total_cmp(&b.pair_ns));
    rounds[rounds.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use fadewich_telemetry::ManualClock;

    #[test]
    fn self_time_is_exact_under_a_manual_clock() {
        let clock = ManualClock::new();
        let mut t = Tracer::new(&clock);
        t.enter("outer");
        clock.advance_ns(10);
        t.enter("inner");
        clock.advance_ns(25);
        assert_eq!(t.exit(), 25);
        clock.advance_ns(5);
        t.enter("inner");
        clock.advance_ns(7);
        t.exit();
        clock.advance_ns(3);
        assert_eq!(t.exit(), 50);
        t.enter("other");
        clock.advance_ns(4);
        t.exit();

        assert_eq!(t.total_ns("outer"), 50);
        assert_eq!(t.self_ns("outer"), 50 - 25 - 7);
        assert_eq!(t.total_ns("inner"), 32);
        assert_eq!(t.self_ns("inner"), 32);
        assert_eq!(t.count("inner"), 2);
        assert_eq!(t.busy_ns(), 54);
        assert_eq!(t.collapsed(), "outer 18\nouter;inner 32\nother 4\n");
        assert_eq!(t.span_counts(), (4, 2));
        let zero = SpanCost {
            pair_ns: 0.0,
            inner_ns: 0.0,
        };
        assert_eq!(span_cost(&clock), zero);
    }

    #[test]
    fn same_name_on_different_paths_is_summed() {
        let clock = ManualClock::new();
        let mut t = Tracer::new(&clock);
        t.span("a", || clock.advance_ns(3));
        t.enter("b");
        t.span("a", || clock.advance_ns(4));
        t.exit();
        assert_eq!(t.total_ns("a"), 7);
        assert_eq!(t.count("a"), 2);
        assert_eq!(t.self_ns("b"), 0);
    }

    #[test]
    fn absorbing_adds_path_by_path() {
        let clock = ManualClock::new();
        let mut a = Tracer::new(&clock);
        a.enter("root");
        a.span("x", || clock.advance_ns(2));
        clock.advance_ns(1);
        a.exit();
        let mut b = Tracer::new(&clock);
        b.span("y", || clock.advance_ns(5));
        b.enter("root");
        b.span("x", || clock.advance_ns(3));
        b.exit();
        a.absorb(&b);
        assert_eq!(a.total_ns("root"), 6);
        assert_eq!(a.self_ns("root"), 1);
        assert_eq!(a.count("x"), 2);
        assert_eq!(a.total_ns("y"), 5);
        assert_eq!(a.span_counts(), (5, 2));
        assert_eq!(a.collapsed(), "root 1\nroot;x 5\ny 5\n");
    }

    #[test]
    #[should_panic(expected = "without a matching enter")]
    fn unbalanced_exit_is_a_bug() {
        let clock = ManualClock::new();
        Tracer::new(&clock).exit();
    }
}
