//! The hierarchical span recorder.
//!
//! A [`SpanGuard`] opens a scope on creation and closes it on drop; scopes
//! nest per thread through a thread-local stack, so a span's *path* is the
//! `;`-joined chain of the enclosing span names (the collapsed-stack
//! convention). Aggregation is by path — the collector keeps one
//! `(count, total wall-clock ns)` cell per distinct path, not one record per
//! span — which keeps recording O(1) in the number of spans entered.
//!
//! Work handed to other threads keeps its parentage through
//! [`SpanContext`]: capture the current stack before spawning, adopt it
//! inside the worker, and spans opened there extend the captured path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Aggregate of one distinct span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PathStat {
    count: u64,
    total_ns: u64,
}

/// The process-wide span aggregation behind [`crate::global`].
#[derive(Debug, Default)]
pub struct SpanCollector {
    paths: Mutex<BTreeMap<String, PathStat>>,
}

impl SpanCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    fn record(&self, path: String, elapsed_ns: u64) {
        let mut paths = self.paths.lock().expect("span paths");
        let stat = paths.entry(path).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed_ns);
    }

    /// Drops every aggregated path.
    pub fn reset(&self) {
        self.paths.lock().expect("span paths").clear();
    }

    /// All aggregated paths as `(path, count, total_ns, self_ns)` sorted by
    /// path. Self time is the span's total minus the totals of its *direct*
    /// children (clamped at zero: children running on other threads can
    /// overlap their parent wall-clock).
    pub fn collect(&self) -> Vec<(String, u64, u64, u64)> {
        let paths = self.paths.lock().expect("span paths");
        paths
            .iter()
            .map(|(path, stat)| {
                let child_ns: u64 = paths
                    .iter()
                    .filter(|(other, _)| {
                        other.len() > path.len() + 1
                            && other.starts_with(path.as_str())
                            && other.as_bytes()[path.len()] == b';'
                            && !other[path.len() + 1..].contains(';')
                    })
                    .map(|(_, child)| child.total_ns)
                    .sum();
                (
                    path.clone(),
                    stat.count,
                    stat.total_ns,
                    stat.total_ns.saturating_sub(child_ns),
                )
            })
            .collect()
    }

    /// Collapsed-stack (flamegraph) text: one `path self_ns` line per
    /// distinct path, sorted by path — feedable to standard flamegraph
    /// tooling, with self-time nanoseconds as the weight.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, _, _, self_ns) in self.collect() {
            out.push_str(&path);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

/// An open span scope; closes (and records) on drop.
///
/// Created by [`crate::span`]; inert (no clock read, no allocation) when
/// recording is disabled.
#[derive(Debug)]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    path: String,
    start: Instant,
}

impl SpanGuard {
    /// An inert guard (recording disabled).
    pub(crate) fn disabled() -> Self {
        SpanGuard { inner: None }
    }

    /// Opens a scope named `name` on the current thread's stack.
    pub(crate) fn enter(name: &str) -> Self {
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = if let Some(parent) = stack.last() {
                format!("{parent};{name}")
            } else {
                name.to_string()
            };
            stack.push(path.clone());
            path
        });
        SpanGuard {
            inner: Some(SpanInner {
                path,
                start: Instant::now(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let elapsed_ns = inner.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Pop back to this span even if an inner guard leaked (mem::forget).
            if let Some(position) = stack.iter().rposition(|path| *path == inner.path) {
                stack.truncate(position);
            }
        });
        crate::global().spans().record(inner.path, elapsed_ns);
    }
}

/// A captured span stack, for carrying parentage onto worker threads (for
/// example into rayon closures). Cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct SpanContext {
    /// The capturing thread's innermost span path (empty when none or when
    /// recording was disabled at capture time).
    path: Option<String>,
}

impl SpanContext {
    /// Captures the calling thread's current span path.
    pub fn capture() -> Self {
        if !crate::enabled() {
            return SpanContext { path: None };
        }
        SpanContext {
            path: SPAN_STACK.with(|stack| stack.borrow().last().cloned()),
        }
    }

    /// Installs the captured path as the calling thread's span parent until
    /// the returned guard drops (restoring whatever was there before).
    /// Spans opened under the guard extend the captured path.
    pub fn adopt(&self) -> ContextGuard {
        let Some(path) = &self.path else {
            return ContextGuard { depth: None };
        };
        let depth = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            stack.push(path.clone());
            stack.len()
        });
        ContextGuard { depth: Some(depth) }
    }
}

/// Restores the thread's span stack when an adopted [`SpanContext`] scope
/// ends.
#[derive(Debug)]
pub struct ContextGuard {
    depth: Option<usize>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else {
            return;
        };
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.len() >= depth {
                stack.truncate(depth - 1);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::with_recorder;

    #[test]
    fn nested_spans_build_semicolon_paths() {
        with_recorder(|| {
            {
                let _outer = crate::span("outer");
                let _inner = crate::span("inner");
            }
            {
                let _outer = crate::span("outer");
            }
            let collected = crate::global().spans().collect();
            let paths: Vec<&str> = collected.iter().map(|(p, ..)| p.as_str()).collect();
            assert_eq!(paths, vec!["outer", "outer;inner"]);
            let outer = &collected[0];
            assert_eq!(outer.1, 2, "outer entered twice");
            // Self time excludes the direct child's total.
            assert_eq!(outer.3, outer.2.saturating_sub(collected[1].2));
            let flame = crate::flamegraph();
            assert!(flame.contains("outer;inner "));
        });
    }

    #[test]
    fn contexts_carry_parentage_across_threads() {
        with_recorder(|| {
            let context = {
                let _parent = crate::span("parent");
                SpanContext::capture()
            };
            std::thread::spawn(move || {
                let _adopted = context.adopt();
                let _child = crate::span("child");
            })
            .join()
            .expect("worker");
            let collected = crate::global().spans().collect();
            assert!(
                collected.iter().any(|(p, ..)| p == "parent;child"),
                "missing adopted path: {collected:?}"
            );
        });
    }

    #[test]
    fn disabled_spans_record_nothing() {
        with_recorder(|| {
            crate::set_enabled(false);
            {
                let _span = crate::span("ghost");
            }
            assert!(crate::global().spans().collect().is_empty());
            assert!(SpanContext::capture().path.is_none());
        });
    }
}
