//! The metrics registry: names, labels, and shared metric handles.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use crate::counter::Counter;
use crate::histogram::{Histogram, HistogramSnapshot};
use crate::render;

/// A canonical (sorted) list of `label → value` pairs identifying one
/// series within a metric family.
pub type LabelSet = Vec<(String, String)>;

fn label_set(labels: &[(&str, &str)]) -> LabelSet {
    let mut set: LabelSet = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    set.sort();
    set
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MetricKind {
    Counter,
    Histogram,
}

impl MetricKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum Series {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

/// One metric family: a help string, a kind, and the labeled series.
#[derive(Debug)]
pub(crate) struct Family {
    pub help: String,
    pub kind: MetricKind,
    pub series: BTreeMap<LabelSet, Series>,
}

/// A registry of named counters and histograms.
///
/// `counter*`/`histogram*` return shared handles: the first call for a
/// `(name, labels)` pair creates the series, later calls return the same
/// `Arc`. Registration takes a write lock; the returned handles are
/// lock-free, so hot paths should hold onto their `Arc`s. Re-looking a
/// handle up per event is also fine for request-rate work: with the
/// labels given in sorted order, it is a read lock, a map probe and a
/// scan of the family's series, and allocates nothing.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    pub(crate) families: RwLock<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// A labeled counter.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a histogram.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        if let Some(Series::Counter(c)) = self.find(name, labels) {
            return c;
        }
        let set = label_set(labels);
        let mut families = self.families.write().expect("metrics lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Counter,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            MetricKind::Counter,
            "metric `{name}` is already registered as a {}",
            family.kind.as_str()
        );
        match family
            .series
            .entry(set)
            .or_insert_with(|| Series::Counter(Arc::new(Counter::new())))
        {
            Series::Counter(c) => c.clone(),
            Series::Histogram(_) => unreachable!("kind checked above"),
        }
    }

    /// An unlabeled histogram with the given finite bucket bounds.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.histogram_with(name, help, &[], bounds)
    }

    /// A labeled histogram. All series of one family share the bucket
    /// layout of the first registration.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a counter.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Arc<Histogram> {
        if let Some(Series::Histogram(h)) = self.find(name, labels) {
            return h;
        }
        let set = label_set(labels);
        let mut families = self.families.write().expect("metrics lock");
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind: MetricKind::Histogram,
            series: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            MetricKind::Histogram,
            "metric `{name}` is already registered as a {}",
            family.kind.as_str()
        );
        match family
            .series
            .entry(set)
            .or_insert_with(|| Series::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Series::Histogram(h) => h.clone(),
            Series::Counter(_) => unreachable!("kind checked above"),
        }
    }

    /// The series registered under `name` and `labels`, under the read
    /// lock. Labels in sorted order are compared as borrowed `&str`s
    /// against each of the family's series (a family's label values come
    /// from small fixed sets, so it has a handful); others are sorted into
    /// an owned key for a map probe.
    fn find(&self, name: &str, labels: &[(&str, &str)]) -> Option<Series> {
        let families = self.families.read().expect("metrics lock");
        let series = &families.get(name)?.series;
        if !labels.is_sorted() {
            return series.get(&label_set(labels)).cloned();
        }
        series
            .iter()
            .find(|(set, _)| {
                let set = set.iter().map(|(k, v)| (k.as_str(), v.as_str()));
                set.eq(labels.iter().copied())
            })
            .map(|(_, s)| s.clone())
    }

    /// Current value of a counter series, if registered.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match self.find(name, labels)? {
            Series::Counter(c) => Some(c.get()),
            Series::Histogram(_) => None,
        }
    }

    /// Snapshot of a histogram series, if registered.
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<HistogramSnapshot> {
        match self.find(name, labels)? {
            Series::Histogram(h) => Some(h.snapshot()),
            Series::Counter(_) => None,
        }
    }

    /// Names of all registered families, sorted.
    pub fn family_names(&self) -> Vec<String> {
        self.families
            .read()
            .expect("metrics lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Render every family in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` comments, then one line per
    /// sample, with histogram `_bucket`/`_sum`/`_count` expansion and
    /// label-value escaping.
    pub fn render_prometheus(&self) -> String {
        render::render(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_and_labels_share_one_counter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("requests_total", "Total requests.");
        let b = reg.counter("requests_total", "Total requests.");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("requests_total", &[]), Some(3));
    }

    #[test]
    fn label_order_does_not_matter() {
        let reg = MetricsRegistry::new();
        let a = reg.counter_with("hits", "h", &[("route", "/a"), ("status", "200")]);
        let b = reg.counter_with("hits", "h", &[("status", "200"), ("route", "/a")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    fn distinct_labels_are_distinct_series() {
        let reg = MetricsRegistry::new();
        reg.counter_with("hits", "h", &[("route", "/a")]).inc();
        reg.counter_with("hits", "h", &[("route", "/b")]).add(5);
        assert_eq!(reg.counter_value("hits", &[("route", "/a")]), Some(1));
        assert_eq!(reg.counter_value("hits", &[("route", "/b")]), Some(5));
        assert_eq!(reg.counter_value("hits", &[("route", "/c")]), None);
    }

    #[test]
    fn histogram_series_snapshot_roundtrip() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("latency", "l", &[("phase", "match")], &[0.1, 1.0]);
        h.observe(0.05);
        h.observe(0.5);
        let snap = reg
            .histogram_snapshot("latency", &[("phase", "match")])
            .unwrap();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.counts, vec![1, 1, 0]);
        assert!(reg.histogram_snapshot("latency", &[]).is_none());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x", "c");
        reg.histogram("x", "h", &[1.0]);
    }

    #[test]
    fn family_names_are_sorted() {
        let reg = MetricsRegistry::new();
        reg.counter("zeta", "z");
        reg.counter("alpha", "a");
        assert_eq!(reg.family_names(), vec!["alpha", "zeta"]);
    }
}
