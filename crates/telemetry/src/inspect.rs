//! The inspection surface: [`Inspector`] hubs and [`InspectNode`] snapshots.
//!
//! Modelled on Fuchsia's component inspection: a component owns an
//! [`Inspector`], registers metrics under hierarchical paths, and anyone
//! holding a clone can call [`Inspector::snapshot`] at any moment to get a
//! consistent-enough tree of everything — while sorts and service requests
//! are still in flight.  The snapshot is a plain [`InspectNode`] value that
//! serialises to JSON (and parses back, see [`crate::json`]).

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::json;
use crate::metrics::{Counter, FloatGauge, Gauge, TextMetric};
use crate::registry::{MetricTypeError, MetricsRegistry};
use crate::span::{RingSink, SpanGuard, SpanSink};
use crate::JsonError;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One property value in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum InspectValue {
    /// An unsigned integer (counters, gauges, histogram aggregates).
    UInt(u64),
    /// A signed integer (only produced by parsing; kept for generality).
    Int(i64),
    /// A floating-point value (ratios, means).
    Double(f64),
    /// A text value (labels, device names).
    Text(String),
}

impl InspectValue {
    /// The value as a `u64`, if it is a [`InspectValue::UInt`].
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            InspectValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64`, widening integers as needed.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            InspectValue::UInt(v) => Some(*v as f64),
            InspectValue::Int(v) => Some(*v as f64),
            InspectValue::Double(v) => Some(*v),
            InspectValue::Text(_) => None,
        }
    }

    /// The value as text, if it is a [`InspectValue::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            InspectValue::Text(v) => Some(v),
            _ => None,
        }
    }
}

impl From<u64> for InspectValue {
    fn from(v: u64) -> Self {
        InspectValue::UInt(v)
    }
}

impl From<usize> for InspectValue {
    fn from(v: usize) -> Self {
        InspectValue::UInt(v as u64)
    }
}

/// Booleans are stored as `UInt` 0 or 1.
impl From<bool> for InspectValue {
    fn from(v: bool) -> Self {
        InspectValue::UInt(u64::from(v))
    }
}

impl From<f64> for InspectValue {
    fn from(v: f64) -> Self {
        InspectValue::Double(v)
    }
}

impl From<&str> for InspectValue {
    fn from(v: &str) -> Self {
        InspectValue::Text(v.to_string())
    }
}

/// One node in a snapshot tree: a name, a list of `(key, value)`
/// properties, and child nodes.  Ordering is deterministic (registry paths
/// are sorted), so equal states produce equal trees.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InspectNode {
    /// Node name (one path segment).
    pub name: String,
    /// Properties in insertion order.
    pub properties: Vec<(String, InspectValue)>,
    /// Child nodes in insertion order.
    pub children: Vec<InspectNode>,
}

impl InspectNode {
    /// An empty node with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        InspectNode {
            name: name.into(),
            properties: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Finds or creates the direct child named `name`.
    pub fn child_mut(&mut self, name: &str) -> &mut InspectNode {
        // Two passes to satisfy the borrow checker without unsafe.
        if let Some(i) = self.children.iter().position(|c| c.name == name) {
            return &mut self.children[i];
        }
        self.children.push(InspectNode::new(name));
        self.children.last_mut().expect("just pushed")
    }

    /// Sets (replacing on re-set) the property `key`.
    pub fn set(&mut self, key: &str, value: InspectValue) {
        if let Some(slot) = self.properties.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.properties.push((key.to_string(), value));
        }
    }

    /// Looks up a property value by key.
    pub fn property(&self, key: &str) -> Option<&InspectValue> {
        self.properties
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// A property as `u64` (counters, gauges).
    pub fn uint(&self, key: &str) -> Option<u64> {
        self.property(key).and_then(InspectValue::as_uint)
    }

    /// A property as `f64` (integers widen).
    pub fn double(&self, key: &str) -> Option<f64> {
        self.property(key).and_then(InspectValue::as_double)
    }

    /// A property as text.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.property(key).and_then(InspectValue::as_text)
    }

    /// Walks a `/`-separated path of child names from this node.
    pub fn node(&self, path: &str) -> Option<&InspectNode> {
        let mut node = self;
        for seg in path.split('/') {
            node = node.children.iter().find(|c| c.name == seg)?;
        }
        Some(node)
    }

    /// Serialises the tree to JSON.
    pub fn to_json(&self) -> String {
        json::node_to_json(self)
    }

    /// Parses a tree from JSON produced by [`InspectNode::to_json`].
    pub fn from_json(input: &str) -> Result<InspectNode, JsonError> {
        json::node_from_json(input)
    }
}

struct Inner {
    registry: MetricsRegistry,
    sink: Arc<dyn SpanSink>,
}

/// The shared observability hub: a metrics registry plus a span sink.
///
/// Cloning is cheap (one `Arc`), and every clone reports into the same
/// tree — the sharded sorter hands its inspector to the sort service so a
/// single [`snapshot`](Inspector::snapshot) covers core, multi-GPU,
/// out-of-core, and service layers at once.
#[derive(Clone)]
pub struct Inspector(Arc<Inner>);

impl Default for Inspector {
    fn default() -> Self {
        Inspector::new()
    }
}

impl std::fmt::Debug for Inspector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Inspector")
            .field("registry", &self.0.registry)
            .finish()
    }
}

impl Inspector {
    /// An inspector with the default bounded [`RingSink`] (256 spans).
    pub fn new() -> Self {
        Inspector::with_sink(Arc::new(RingSink::new(256)))
    }

    /// An inspector with a caller-provided span sink.
    pub fn with_sink(sink: Arc<dyn SpanSink>) -> Self {
        Inspector(Arc::new(Inner {
            registry: MetricsRegistry::new(),
            sink,
        }))
    }

    /// The underlying metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.0.registry
    }

    /// Whether two inspectors share the same registry and sink.
    pub fn same_as(&self, other: &Inspector) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Registers (or retrieves) a counter at `path`.  Panics if the path
    /// holds a different kind; see [`Inspector::try_counter`].
    pub fn counter(&self, path: &str) -> Counter {
        self.0.registry.counter(path)
    }

    /// Registers (or retrieves) an integer gauge at `path`.  Panics if the
    /// path holds a different kind; see [`Inspector::try_gauge`].
    pub fn gauge(&self, path: &str) -> Gauge {
        self.0.registry.gauge(path)
    }

    /// Registers (or retrieves) a floating-point gauge at `path`.  Panics
    /// if the path holds a different kind; see
    /// [`Inspector::try_float_gauge`].
    pub fn float_gauge(&self, path: &str) -> FloatGauge {
        self.0.registry.float_gauge(path)
    }

    /// Registers (or retrieves) a histogram at `path`.  Panics if the path
    /// holds a different kind; see [`Inspector::try_histogram`].
    pub fn histogram(&self, path: &str) -> Histogram {
        self.0.registry.histogram(path)
    }

    /// Registers (or retrieves) a text metric at `path`.  Panics if the
    /// path holds a different kind; see [`Inspector::try_text`].
    pub fn text(&self, path: &str) -> TextMetric {
        self.0.registry.text(path)
    }

    /// Fallible counter registration: a [`MetricTypeError`] names the path
    /// and both kinds when the path already holds a different metric.
    pub fn try_counter(&self, path: &str) -> Result<Counter, MetricTypeError> {
        self.0.registry.try_counter(path)
    }

    /// Fallible integer-gauge registration (see [`Inspector::try_counter`]).
    pub fn try_gauge(&self, path: &str) -> Result<Gauge, MetricTypeError> {
        self.0.registry.try_gauge(path)
    }

    /// Fallible float-gauge registration (see [`Inspector::try_counter`]).
    pub fn try_float_gauge(&self, path: &str) -> Result<FloatGauge, MetricTypeError> {
        self.0.registry.try_float_gauge(path)
    }

    /// Fallible histogram registration (see [`Inspector::try_counter`]).
    pub fn try_histogram(&self, path: &str) -> Result<Histogram, MetricTypeError> {
        self.0.registry.try_histogram(path)
    }

    /// Fallible text-metric registration (see [`Inspector::try_counter`]).
    pub fn try_text(&self, path: &str) -> Result<TextMetric, MetricTypeError> {
        self.0.registry.try_text(path)
    }

    /// Snapshot of the histogram at `path`, if one is registered there.
    pub fn histogram_snapshot(&self, path: &str) -> Option<HistogramSnapshot> {
        self.0.registry.histogram_snapshot(path)
    }

    /// Opens a scoped timer that reports to the span sink when dropped or
    /// [`finish`](SpanGuard::finish)ed.
    pub fn span(&self, name: impl Into<String>) -> SpanGuard {
        SpanGuard::start(name, self.0.sink.clone(), None)
    }

    /// Like [`span`](Inspector::span), but the measured duration is also
    /// recorded into the histogram registered at `histogram_path`.
    pub fn span_with(&self, name: impl Into<String>, histogram_path: &str) -> SpanGuard {
        let histogram = self.0.registry.histogram(histogram_path);
        SpanGuard::start(name, self.0.sink.clone(), Some(histogram))
    }

    /// Walks the whole tree — every registered metric plus an aggregate of
    /// the span sink's retained spans under `spans/` — into a root
    /// [`InspectNode`].  Safe to call at any moment from any thread.
    pub fn snapshot(&self) -> InspectNode {
        let mut root = InspectNode::new("root");
        self.0.registry.snapshot_into(&mut root);

        let recent = self.0.sink.recent();
        if !recent.is_empty() {
            // Aggregate retained spans by name, deterministically ordered.
            let mut agg: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
            for span in recent {
                let ns = u64::try_from(span.duration.as_nanos()).unwrap_or(u64::MAX);
                let slot = agg.entry(span.name).or_insert((0, 0, 0));
                slot.0 += 1;
                slot.1 = slot.1.saturating_add(ns);
                slot.2 = slot.2.max(ns);
            }
            let spans = root.child_mut("spans");
            for (name, (count, total_ns, max_ns)) in agg {
                let mut node = &mut *spans;
                for seg in name.split('/') {
                    node = node.child_mut(seg);
                }
                node.set("count", InspectValue::UInt(count));
                node.set("total_ns", InspectValue::UInt(total_ns));
                node.set("max_ns", InspectValue::UInt(max_ns));
            }
        }
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_live_metrics() {
        let inspector = Inspector::new();
        let sorts = inspector.counter("core/sorts");
        inspector.gauge("service/queue_depth").set(4);
        sorts.add(2);

        let snap = inspector.snapshot();
        assert_eq!(snap.node("core").unwrap().uint("sorts"), Some(2));
        assert_eq!(snap.node("service").unwrap().uint("queue_depth"), Some(4));

        sorts.inc();
        assert_eq!(
            inspector.snapshot().node("core").unwrap().uint("sorts"),
            Some(3),
            "snapshots see updates made after earlier snapshots"
        );
    }

    #[test]
    fn clones_share_the_tree() {
        let a = Inspector::new();
        let b = a.clone();
        assert!(a.same_as(&b));
        b.counter("x").inc();
        assert_eq!(a.snapshot().uint("x"), Some(1));
        assert!(!a.same_as(&Inspector::new()));
    }

    #[test]
    fn spans_aggregate_under_their_path() {
        let inspector = Inspector::new();
        inspector.span("multi_gpu/partition").finish();
        inspector.span("multi_gpu/partition").finish();
        inspector.span("multi_gpu/merge").finish();

        let snap = inspector.snapshot();
        let partition = snap.node("spans/multi_gpu/partition").unwrap();
        assert_eq!(partition.uint("count"), Some(2));
        assert_eq!(
            snap.node("spans/multi_gpu/merge").unwrap().uint("count"),
            Some(1)
        );
    }

    #[test]
    fn span_with_feeds_the_histogram() {
        let inspector = Inspector::new();
        inspector
            .span_with("service/flush", "service/flush_ns")
            .finish();
        assert_eq!(
            inspector
                .histogram_snapshot("service/flush_ns")
                .unwrap()
                .count,
            1
        );
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let inspector = Inspector::new();
        inspector.counter("service/requests").add(9);
        inspector
            .float_gauge("multi_gpu/dev0/utilisation")
            .set(0.25);
        inspector.text("multi_gpu/dev0/name").set("GTX 980");
        inspector.histogram("service/latency_ns").record(123_456);
        inspector.span("core/pass").finish();

        let snap = inspector.snapshot();
        let parsed = InspectNode::from_json(&snap.to_json()).expect("parses");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn node_path_lookup_and_setters() {
        let mut node = InspectNode::new("root");
        node.set("k", InspectValue::UInt(1));
        node.set("k", InspectValue::UInt(2));
        assert_eq!(node.uint("k"), Some(2));
        assert_eq!(node.properties.len(), 1, "set replaces in place");
        node.child_mut("a")
            .child_mut("b")
            .set("v", InspectValue::Int(-1));
        assert_eq!(
            node.node("a/b").unwrap().property("v"),
            Some(&InspectValue::Int(-1))
        );
        assert!(node.node("a/missing").is_none());
        assert_eq!(node.double("k"), Some(2.0));
        assert!(node.text("k").is_none());
    }
}
