//! In-memory spans recorded around calls into the program's crates, and
//! the inclusive/self-time report built from them.
//!
//! A span's layer is the part of its name before the first `.`
//! (`faultsim.golden` belongs to `faultsim`). Spans are kept in memory
//! while the traced pass runs and written out once it has ended.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The root span of one kernel in a timed pass. The traced pass is the set
/// of these roots; its wall is the sum of theirs, and the report's shares
/// are of that wall.
pub const KERNEL: &str = "bench.kernel";

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Position of the kernel the span belongs to in the run's kernel
    /// list, if any.
    pub kernel: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when on; when off, [`Tracer::span`] only calls through.
/// The benchmark drives one pipeline at a time from one thread, so spans
/// nest strictly and a stack gives each span its parent.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    kernel: Cell<Option<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            kernel: Cell::new(None),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Attribute the spans opened from now on to kernel `k`.
    pub fn set_kernel(&self, k: Option<usize>) {
        self.kernel.set(k);
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.stack.borrow().last().copied(),
                kernel: self.kernel.get(),
                start: self.origin.elapsed().as_secs_f64(),
                end: 0.0,
            });
            spans.len() - 1
        };
        self.stack.borrow_mut().push(idx);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// Self and inclusive time per span name and per layer, over every span.
#[derive(Debug, Default)]
pub struct Summary {
    /// name -> (calls, inclusive s, self s)
    pub by_name: BTreeMap<&'static str, (u64, f64, f64)>,
    /// layer -> (inclusive s without double-counting nested spans of the
    /// same layer, self s)
    pub by_layer: BTreeMap<&'static str, (f64, f64)>,
}

/// Time each span spends outside its direct children.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.secs();
        }
    }
    own
}

/// Whether some ancestor of span `i` belongs to the same layer.
fn nested_in_own_layer(spans: &[Span], i: usize) -> bool {
    let layer = spans[i].layer();
    let mut p = spans[i].parent;
    while let Some(j) = p {
        if spans[j].layer() == layer {
            return true;
        }
        p = spans[j].parent;
    }
    false
}

pub fn summarize(spans: &[Span]) -> Summary {
    let own = self_times(spans);
    let mut sum = Summary::default();
    for (i, s) in spans.iter().enumerate() {
        let e = sum.by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.secs();
        e.2 += own[i];
        let l = sum.by_layer.entry(s.layer()).or_default();
        if !nested_in_own_layer(spans, i) {
            l.0 += s.secs();
        }
        l.1 += own[i];
    }
    sum
}

/// Spans of the traced pass: every root [`KERNEL`] span and its
/// descendants, re-indexed so parents stay valid.
pub fn pass_spans(spans: &[Span]) -> Vec<Span> {
    let mut keep: Vec<Option<usize>> = vec![None; spans.len()];
    let mut out: Vec<Span> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.and_then(|p| keep[p]);
        if parent.is_some() || (s.parent.is_none() && s.name == KERNEL) {
            keep[i] = Some(out.len());
            out.push(Span {
                parent,
                ..s.clone()
            });
        }
    }
    out
}

/// Wall time of a pass: the sum of its root spans.
pub fn pass_wall(pass: &[Span]) -> f64 {
    pass.iter()
        .filter(|s| s.parent.is_none())
        .map(Span::secs)
        .sum()
}

/// The trace report: inclusive and self time per span and per layer as
/// shares of the traced pass wall (the root is 100%), then per kernel.
pub fn report(spans: &[Span], kernels: &[&str]) -> String {
    let pass = pass_spans(spans);
    if pass.is_empty() {
        return "no traced pass\n".to_string();
    }
    let wall = pass_wall(&pass);
    let pct = |s: f64| 100.0 * s / wall;
    let sum = summarize(&pass);
    let mut out = String::new();
    let _ = writeln!(out, "traced pass wall: {wall:.3} s");
    let _ = writeln!(
        out,
        "{:<26} {:>7} {:>10} {:>8} {:>10} {:>8}",
        "span", "calls", "incl_s", "incl_%", "self_s", "self_%"
    );
    // the root: the pass is its kernel spans, so it has no self time
    let _ = writeln!(
        out,
        "{:<26} {:>7} {wall:>10.3} {:>8.2} {:>10.3} {:>8.2}",
        "(pass)", 1, 100.0, 0.0, 0.0
    );
    let mut names: Vec<_> = sum.by_name.iter().collect();
    names.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    for (name, (calls, incl, own)) in names {
        let _ = writeln!(
            out,
            "{name:<26} {calls:>7} {incl:>10.3} {:>8.2} {own:>10.3} {:>8.2}",
            pct(*incl),
            pct(*own)
        );
    }
    let _ = writeln!(
        out,
        "{:<26} {:>10} {:>8} {:>10} {:>8}",
        "layer", "incl_s", "incl_%", "self_s", "self_%"
    );
    for (layer, (incl, own)) in &sum.by_layer {
        let _ = writeln!(
            out,
            "{layer:<26} {incl:>10.3} {:>8.2} {own:>10.3} {:>8.2}",
            pct(*incl),
            pct(*own)
        );
    }
    let own = self_times(&pass);
    let mut layers: Vec<&str> = sum.by_layer.keys().copied().collect();
    layers.retain(|l| *l != "bench");
    let _ = write!(out, "{:<16} {:>9} {:>7}", "kernel", "incl_s", "incl_%");
    for l in &layers {
        let _ = write!(out, " {:>10}", format!("{l}_self"));
    }
    let _ = writeln!(out);
    for (k, name) in kernels.iter().enumerate() {
        let incl: f64 = pass
            .iter()
            .filter(|s| s.parent.is_none() && s.kernel == Some(k))
            .map(Span::secs)
            .sum();
        let _ = write!(out, "{name:<16} {incl:>9.3} {:>7.2}", pct(incl));
        for l in &layers {
            let s: f64 = pass
                .iter()
                .enumerate()
                .filter(|(_, s)| s.kernel == Some(k) && s.layer() == *l)
                .map(|(i, _)| own[i])
                .sum();
            let _ = write!(out, " {s:>10.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// One span per line: `name parent kernel start end`, for offline use.
pub fn dump(spans: &[Span]) -> String {
    let mut out = String::from("# name\tparent\tkernel\tstart_s\tend_s\n");
    for s in spans {
        let opt = |v: Option<usize>| v.map_or("-".to_string(), |v| v.to_string());
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:.9}\t{:.9}",
            s.name,
            opt(s.parent),
            opt(s.kernel),
            s.start,
            s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            kernel: None,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_layers_do_not_double_count() {
        let spans = vec![
            span("bench.setup", None, 0.0, 1.0),
            span("minic.compile", Some(0), 0.0, 1.0),
            span(KERNEL, None, 1.0, 11.0),
            span("core.pipeline", Some(2), 2.0, 10.0),
            span("core.search", Some(3), 3.0, 5.0),
            span("faultsim.per_inst", Some(3), 5.0, 9.0),
        ];
        let pass = pass_spans(&spans);
        assert_eq!(pass.len(), 4, "set-up spans are not part of the pass");
        assert_eq!(pass_wall(&pass), 10.0);
        let sum = summarize(&pass);
        assert_eq!(sum.by_name[KERNEL], (1, 10.0, 2.0));
        assert_eq!(sum.by_name["core.pipeline"], (1, 8.0, 2.0));
        // core.search sits inside core.pipeline: the layer's inclusive
        // time counts the outer span once
        assert_eq!(sum.by_layer["core"], (8.0, 4.0));
        assert_eq!(sum.by_layer["faultsim"], (4.0, 4.0));
        let total_self: f64 = sum.by_layer.values().map(|v| v.1).sum();
        assert_eq!(total_self, 10.0, "self times add up to the pass wall");
    }
}
