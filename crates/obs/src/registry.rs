//! The metrics registry: named, labelled families of counters, gauges
//! and histograms, rendered as Prometheus text-format exposition.
//!
//! A [`MetricsRegistry`] is a map from family name to a kind-tagged set
//! of labelled samples. Registration is get-or-insert: asking twice for
//! the same `(name, labels)` answers the *same* `Arc` handle, so call
//! sites can resolve their handles once (cold) and update lock-free
//! (hot) — the registry mutex is only ever taken at registration and
//! scrape time, never on a metric update.
//!
//! Rendering is **byte-stable**: families and samples live in `BTreeMap`s
//! (sorted by name and by canonical label string), label pairs are
//! sorted at registration, histogram bounds print as fixed six-decimal
//! seconds, and no floating-point formatting is involved anywhere. A
//! fixed sequence of registrations and updates therefore renders to
//! identical bytes on every run — which is what makes the exposition
//! testable with plain string equality.
//!
//! Naming convention (enforced by review, not code): families are
//! `dbt_<layer>_<name>`, e.g. `dbt_serve_requests_total`,
//! `dbt_runmemo_hits_total`, `dbt_translate_phase_seconds`.

use crate::metric::{micros_as_seconds, Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// What kind of samples a family holds; a name registers as exactly one
/// kind for the life of the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// One labelled sample of a family.
#[derive(Debug, Clone)]
enum Sample {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named family: help text, kind, and its samples keyed by canonical
/// label string (`""` for the unlabelled sample).
#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    samples: BTreeMap<String, Sample>,
}

/// The registry. Construct with [`MetricsRegistry::new`] (an `Arc`, like
/// every shared service in this workspace); each daemon owns its own, so
/// concurrent daemons (e.g. tests in one process) never share samples.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::default())
    }

    /// The families, also after a panic elsewhere poisoned their lock: a
    /// registration inserts a whole family or sample, or nothing, so the
    /// map is never left half updated.
    fn families(&self) -> MutexGuard<'_, BTreeMap<String, Family>> {
        self.families.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get-or-register the unlabelled counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, help, &[])
    }

    /// Get-or-register the counter `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// If `name` is already registered as a different kind, or a name or
    /// label is not a valid Prometheus identifier.
    pub fn counter_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        match self
            .sample(name, help, Kind::Counter, labels, || Sample::Counter(Arc::new(Counter::new())))
        {
            Sample::Counter(c) => c,
            _ => unreachable!("kind was checked under the registry lock"),
        }
    }

    /// Get-or-register the unlabelled gauge `name`.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, help, &[])
    }

    /// Get-or-register the gauge `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// As [`MetricsRegistry::counter_with`].
    pub fn gauge_with(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        match self.sample(name, help, Kind::Gauge, labels, || Sample::Gauge(Arc::new(Gauge::new())))
        {
            Sample::Gauge(g) => g,
            _ => unreachable!("kind was checked under the registry lock"),
        }
    }

    /// Get-or-register the unlabelled histogram `name` over `bounds`
    /// (inclusive microsecond upper edges).
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Arc<Histogram> {
        self.histogram_with(name, help, bounds, &[])
    }

    /// Get-or-register the histogram `name` with the given label pairs.
    ///
    /// # Panics
    ///
    /// As [`MetricsRegistry::counter_with`]; additionally if the sample
    /// already exists with different bucket bounds.
    pub fn histogram_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        labels: &[(&str, &str)],
    ) -> Arc<Histogram> {
        match self.sample(name, help, Kind::Histogram, labels, || {
            Sample::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Sample::Histogram(h) => {
                assert_eq!(
                    h.bounds(),
                    bounds,
                    "histogram {name} re-registered with different bucket bounds"
                );
                h
            }
            _ => unreachable!("kind was checked under the registry lock"),
        }
    }

    /// The shared get-or-insert path; `make` runs only for a brand-new
    /// sample, under the registry lock.
    fn sample(
        &self,
        name: &str,
        help: &str,
        kind: Kind,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Sample,
    ) -> Sample {
        assert!(valid_name(name), "invalid metric name {name:?}");
        for (label, _) in labels {
            assert!(valid_name(label), "invalid label name {label:?} on metric {name:?}");
        }
        let key = canonical_labels(labels);
        let mut families = self.families();
        let family = families.entry(name.to_string()).or_insert_with(|| Family {
            help: help.to_string(),
            kind,
            samples: BTreeMap::new(),
        });
        assert_eq!(
            family.kind,
            kind,
            "metric {name} already registered as a {}",
            family.kind.as_str()
        );
        family.samples.entry(key).or_insert_with(make).clone()
    }

    /// Renders every family as Prometheus text-format exposition
    /// (`# HELP`/`# TYPE` headers, then one line per sample; histograms
    /// expand to cumulative `_bucket{le=...}` lines plus `_sum` and
    /// `_count`). Output order and formatting are byte-stable for a
    /// fixed registry state.
    pub fn render(&self) -> String {
        let families = self.families();
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(&escape_help(&family.help));
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.as_str());
            out.push('\n');
            for (labels, sample) in family.samples.iter() {
                match sample {
                    Sample::Counter(c) => {
                        push_sample_line(&mut out, name, "", labels, &c.get().to_string());
                    }
                    Sample::Gauge(g) => {
                        push_sample_line(&mut out, name, "", labels, &g.get().to_string());
                    }
                    Sample::Histogram(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

/// Renders one histogram sample: cumulative buckets, `+Inf`, sum (as
/// seconds) and count.
fn render_histogram(out: &mut String, name: &str, labels: &str, histogram: &Histogram) {
    let counts = histogram.bucket_counts();
    let mut cumulative = 0u64;
    for (slot, bound) in histogram.bounds().iter().enumerate() {
        cumulative += counts[slot];
        let le = format!("le=\"{}\"", micros_as_seconds(*bound));
        push_sample_line(out, name, "_bucket", &join_labels(labels, &le), &cumulative.to_string());
    }
    cumulative += counts[counts.len() - 1];
    push_sample_line(
        out,
        name,
        "_bucket",
        &join_labels(labels, "le=\"+Inf\""),
        &cumulative.to_string(),
    );
    push_sample_line(out, name, "_sum", labels, &micros_as_seconds(histogram.sum_micros()));
    push_sample_line(out, name, "_count", labels, &cumulative.to_string());
}

/// Appends `name<suffix>{labels} value\n`, omitting the braces for an
/// unlabelled sample.
fn push_sample_line(out: &mut String, name: &str, suffix: &str, labels: &str, value: &str) {
    out.push_str(name);
    out.push_str(suffix);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Joins a (possibly empty) canonical label string with one more pair.
fn join_labels(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_string()
    } else {
        format!("{labels},{extra}")
    }
}

/// The canonical label string: pairs sorted by label name, values
/// escaped, rendered `k1="v1",k2="v2"`. Doubles as the sample key, so
/// label order at the call site never matters.
fn canonical_labels(labels: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_unstable();
    pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect::<Vec<_>>()
        .join(",")
}

/// `true` for a valid Prometheus metric/label identifier.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && !name.starts_with(|c: char| c.is_ascii_digit())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Escapes a label value per the exposition format.
fn escape_label_value(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Escapes help text per the exposition format.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::DEFAULT_LATENCY_BOUNDS_MICROS;

    #[test]
    fn a_poisoned_lock_still_registers_and_renders() {
        let registry = MetricsRegistry::new();
        registry.counter("dbt_before_total", "Registered before the panic.").inc();
        let poisoner = Arc::clone(&registry);
        let panicked = std::thread::spawn(move || {
            let _families = poisoner.families.lock().unwrap();
            panic!("a panic while the registry's lock is held");
        })
        .join();
        assert!(panicked.is_err() && registry.families.is_poisoned());
        registry.counter("dbt_after_total", "Registered after the panic.").inc();
        let text = registry.render();
        assert!(text.contains("dbt_before_total 1\n"), "{text}");
        assert!(text.contains("dbt_after_total 1\n"), "{text}");
    }

    #[test]
    fn registration_is_get_or_insert() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_with("dbt_test_total", "t", &[("op", "run")]);
        let b = registry.counter_with("dbt_test_total", "t", &[("op", "run")]);
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3, "both handles point at the same counter");
        let other = registry.counter_with("dbt_test_total", "t", &[("op", "sweep")]);
        assert_eq!(other.get(), 0, "different labels, different sample");
    }

    #[test]
    fn label_order_does_not_matter() {
        let registry = MetricsRegistry::new();
        let a = registry.counter_with("dbt_test_total", "t", &[("a", "1"), ("b", "2")]);
        let b = registry.counter_with("dbt_test_total", "t", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.get(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("dbt_test_total", "t");
        let _ = registry.gauge("dbt_test_total", "t");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        let _ = MetricsRegistry::new().counter("dbt test", "t");
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn histogram_bound_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.histogram("dbt_test_seconds", "t", &[50, 100]);
        let _ = registry.histogram("dbt_test_seconds", "t", &[50, 100, 250]);
    }

    /// The acceptance-critical property: a fixed synthetic registry
    /// renders to exactly these bytes, every run.
    #[test]
    fn render_is_byte_stable_for_a_fixed_registry() {
        let registry = MetricsRegistry::new();
        let hits = registry.counter("dbt_test_hits_total", "Test hits.");
        hits.add(5);
        let depth = registry.gauge("dbt_test_depth", "Test depth.");
        depth.set(-2);
        let by_op = registry.counter_with("dbt_test_ops_total", "Per-op.", &[("op", "run")]);
        by_op.add(3);
        let sweep_op = registry.counter_with("dbt_test_ops_total", "Per-op.", &[("op", "sweep")]);
        sweep_op.add(1);
        let latency = registry.histogram("dbt_test_seconds", "Test latency.", &[50, 100, 250]);
        latency.observe_micros(50);
        latency.observe_micros(75);
        latency.observe_micros(9_000);
        let expected = "\
# HELP dbt_test_depth Test depth.
# TYPE dbt_test_depth gauge
dbt_test_depth -2
# HELP dbt_test_hits_total Test hits.
# TYPE dbt_test_hits_total counter
dbt_test_hits_total 5
# HELP dbt_test_ops_total Per-op.
# TYPE dbt_test_ops_total counter
dbt_test_ops_total{op=\"run\"} 3
dbt_test_ops_total{op=\"sweep\"} 1
# HELP dbt_test_seconds Test latency.
# TYPE dbt_test_seconds histogram
dbt_test_seconds_bucket{le=\"0.000050\"} 1
dbt_test_seconds_bucket{le=\"0.000100\"} 2
dbt_test_seconds_bucket{le=\"0.000250\"} 2
dbt_test_seconds_bucket{le=\"+Inf\"} 3
dbt_test_seconds_sum 0.009125
dbt_test_seconds_count 3
";
        assert_eq!(registry.render(), expected);
        assert_eq!(registry.render(), expected, "rendering twice is idempotent");
    }

    #[test]
    fn labelled_histograms_merge_le_into_the_label_set() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram_with(
            "dbt_test_seconds",
            "t",
            DEFAULT_LATENCY_BOUNDS_MICROS,
            &[("op", "run")],
        );
        h.observe_micros(60);
        let text = registry.render();
        assert!(text.contains("dbt_test_seconds_bucket{op=\"run\",le=\"0.000100\"} 1"), "{text}");
        assert!(text.contains("dbt_test_seconds_bucket{op=\"run\",le=\"+Inf\"} 1"), "{text}");
        assert!(text.contains("dbt_test_seconds_sum{op=\"run\"} 0.000060"), "{text}");
        assert!(text.contains("dbt_test_seconds_count{op=\"run\"} 1"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        let c = registry.counter_with("dbt_test_total", "t", &[("path", "a\"b\\c\nd")]);
        c.inc();
        assert!(
            registry.render().contains("dbt_test_total{path=\"a\\\"b\\\\c\\nd\"} 1"),
            "{}",
            registry.render()
        );
    }
}
