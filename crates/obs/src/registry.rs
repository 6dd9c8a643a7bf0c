//! Aggregation: mergeable log-linear histograms, the event-folding
//! [`Registry`] and its serializable [`Snapshot`].
//!
//! The [`Histogram`] is HDR-style: a fixed log-linear bucket layout shared
//! by every instance, so [`Histogram::merge`] is a plain element-wise count
//! addition — exact, associative and commutative. Histograms from
//! independent recorders therefore combine into fleet-level quantiles
//! with exact counts and a bounded relative error on the quantile values
//! ([`QUANTILE_RELATIVE_ERROR`]).

use crate::event::{Event, EventKind};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Subbuckets per power-of-two octave. 32 subbuckets bound the relative
/// quantile error at `1 / (2 * 32)` ≈ 1.6% while keeping the whole layout
/// at [`BUCKETS`] fixed-size counters.
pub const SUBBUCKETS_PER_OCTAVE: usize = 32;

/// Lowest tracked octave: samples below `2^MIN_EXP` (≈ 9.3e-10) clamp into
/// the first bucket and are tallied in [`Histogram::saturated_low`].
const MIN_EXP: i32 = -30;

/// One past the highest tracked octave: samples at or above `2^MAX_EXP`
/// (≈ 1.1e12) clamp into the last bucket ([`Histogram::saturated_high`]).
/// The range comfortably covers nanosecond span durations (1 ns … ~18 min)
/// and every value observation the pipeline emits (z-scores, fractions,
/// delays in seconds).
const MAX_EXP: i32 = 40;

/// Total bucket count of the shared log-linear layout.
pub const BUCKETS: usize = (MAX_EXP - MIN_EXP) as usize * SUBBUCKETS_PER_OCTAVE;

/// Upper bound on the relative error of [`Histogram::quantile`] for
/// positive samples inside the tracked range: half of one subbucket's
/// relative width, `1 / (2 * SUBBUCKETS_PER_OCTAVE)`.
pub const QUANTILE_RELATIVE_ERROR: f64 = 1.0 / (2.0 * SUBBUCKETS_PER_OCTAVE as f64);

/// A mergeable log-bucketed histogram with bounded relative error.
///
/// Every instance shares one global log-linear layout
/// ([`SUBBUCKETS_PER_OCTAVE`] subbuckets per octave across `2^-30 … 2^40`),
/// so allocation is fixed at construction ([`BUCKETS`] counters) and never
/// grows with the sample count — safe for unbounded production streams,
/// unlike the raw-sample histogram it replaces. Count, sum, min and max are
/// tracked exactly; quantiles come from bucket midpoints with relative
/// error at most [`QUANTILE_RELATIVE_ERROR`] for positive in-range samples.
/// Non-positive samples collapse into one dedicated bucket; out-of-range
/// samples clamp into the edge buckets and are tallied separately, never
/// silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    nonpositive: u64,
    saturated_low: u64,
    saturated_high: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram on the shared log-linear layout.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            nonpositive: 0,
            saturated_low: 0,
            saturated_high: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Maps a positive finite sample to its bucket index, or `None` when it
    /// falls outside the tracked range. Derived from the IEEE-754 bit
    /// pattern (exponent selects the octave, the mantissa's top bits the
    /// subbucket), so the mapping is exact and branch-cheap — no float
    /// logarithm whose platform-dependent rounding could move boundary
    /// samples between buckets.
    fn bucket_index(value: f64) -> Option<usize> {
        debug_assert!(value > 0.0 && value.is_finite());
        let bits = value.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if !(MIN_EXP..MAX_EXP).contains(&exp) {
            return None;
        }
        let sub = ((bits >> (52 - 5)) & (SUBBUCKETS_PER_OCTAVE as u64 - 1)) as usize;
        Some((exp - MIN_EXP) as usize * SUBBUCKETS_PER_OCTAVE + sub)
    }

    /// Lower edge of bucket `i` (inclusive).
    fn bucket_lower(i: usize) -> f64 {
        let octave = (i / SUBBUCKETS_PER_OCTAVE) as i32 + MIN_EXP;
        let sub = (i % SUBBUCKETS_PER_OCTAVE) as f64;
        (octave as f64).exp2() * (1.0 + sub / SUBBUCKETS_PER_OCTAVE as f64)
    }

    /// Upper edge of bucket `i` (exclusive).
    fn bucket_upper(i: usize) -> f64 {
        if i + 1 >= BUCKETS {
            (MAX_EXP as f64).exp2()
        } else {
            Self::bucket_lower(i + 1)
        }
    }

    /// Midpoint used as the representative value of bucket `i`.
    fn bucket_mid(i: usize) -> f64 {
        0.5 * (Self::bucket_lower(i) + Self::bucket_upper(i))
    }

    /// Records one sample. Non-finite samples are ignored; non-positive and
    /// out-of-range samples are tracked in their dedicated tallies.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if value <= 0.0 {
            self.nonpositive += 1;
        } else {
            match Self::bucket_index(value) {
                Some(i) => self.counts[i] += 1,
                None if value < 1.0 => {
                    self.saturated_low += 1;
                    self.counts[0] += 1;
                }
                None => {
                    self.saturated_high += 1;
                    self.counts[BUCKETS - 1] += 1;
                }
            }
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds another histogram into this one by element-wise count
    /// addition. Because every instance shares one layout, the merge is
    /// exact (no re-bucketing error), associative and commutative on every
    /// integer tally, `min` and `max`; only the float `sum` accumulator
    /// can differ in the last ulp between merge orders.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.nonpositive += other.nonpositive;
        self.saturated_low += other.saturated_low;
        self.saturated_high += other.saturated_high;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples (exact).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (exact).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (exact); `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample (exact); `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (exact); `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Non-positive samples (collapsed into one bucket).
    pub fn nonpositive(&self) -> u64 {
        self.nonpositive
    }

    /// Positive samples below the tracked range, clamped into the first
    /// bucket.
    pub fn saturated_low(&self) -> u64 {
        self.saturated_low
    }

    /// Samples at or above the top of the tracked range, clamped into the
    /// last bucket.
    pub fn saturated_high(&self) -> u64 {
        self.saturated_high
    }

    /// Nearest-rank quantile, answered from bucket midpoints. For positive
    /// samples inside the tracked range the relative error is at most
    /// [`QUANTILE_RELATIVE_ERROR`]; `q = 0` and `q = 1` return the exact
    /// min / max. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = self.nonpositive;
        if rank <= seen {
            // All non-positive samples collapse to the recorded minimum:
            // the layout only resolves positive magnitudes.
            return Some(self.min);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if rank <= seen {
                return Some(Self::bucket_mid(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs in ascending
    /// order; non-positive samples appear first with an upper bound of
    /// `0.0`. This sparse view is what snapshots serialize.
    pub fn nonzero_buckets(&self) -> Vec<(f64, u64)> {
        let mut rows = Vec::new();
        if self.nonpositive > 0 {
            rows.push((0.0, self.nonpositive));
        }
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 {
                rows.push((Self::bucket_upper(i), c));
            }
        }
        rows
    }
}

/// Aggregated view of an event stream: counters, gauges, value histograms
/// and per-span duration histograms.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Folds one event into the aggregates. `SpanStart` carries no
    /// aggregate payload; marks are tallied as counters under their name.
    pub fn absorb(&mut self, event: &Event) {
        match event.kind {
            EventKind::CounterAdd => {
                *self.counters.entry(event.name.clone()).or_insert(0) +=
                    event.value.unwrap_or(0.0).max(0.0) as u64;
            }
            EventKind::GaugeSet => {
                self.gauges
                    .insert(event.name.clone(), event.value.unwrap_or(0.0));
            }
            EventKind::Observe => {
                self.histograms
                    .entry(event.name.clone())
                    .or_default()
                    .observe(event.value.unwrap_or(0.0));
            }
            EventKind::SpanEnd => {
                if let Some(ns) = event.duration_ns {
                    self.spans
                        .entry(event.name.clone())
                        .or_default()
                        .observe(ns as f64);
                }
            }
            EventKind::Mark => {
                *self.counters.entry(event.name.clone()).or_insert(0) += 1;
            }
            EventKind::SpanStart => {}
        }
    }

    /// Builds a registry by folding a whole event stream.
    pub fn from_events(events: &[Event]) -> Self {
        let mut r = Registry::new();
        for e in events {
            r.absorb(e);
        }
        r
    }

    /// Counter level by name.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge level by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Span-duration histogram (nanoseconds) by name.
    pub fn span_durations(&self, name: &str) -> Option<&Histogram> {
        self.spans.get(name)
    }

    /// Freezes the registry into a serializable snapshot, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        const MS: f64 = 1e-6; // nanoseconds -> milliseconds
        let q = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0.0);
        let spans = self
            .spans
            .iter()
            .map(|(name, h)| SpanRow {
                name: name.clone(),
                count: h.count(),
                total_ms: h.sum() * MS,
                mean_ms: h.mean() * MS,
                p50_ms: q(h, 0.5) * MS,
                p90_ms: q(h, 0.9) * MS,
                p99_ms: q(h, 0.99) * MS,
                p999_ms: q(h, 0.999) * MS,
                max_ms: h.max().unwrap_or(0.0) * MS,
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, v)| CounterRow {
                name: name.clone(),
                value: *v,
            })
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(name, v)| GaugeRow {
                name: name.clone(),
                value: *v,
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(name, h)| HistogramRow {
                name: name.clone(),
                count: h.count(),
                mean: h.mean(),
                min: h.min().unwrap_or(0.0),
                max: h.max().unwrap_or(0.0),
                p50: q(h, 0.5),
                p90: q(h, 0.9),
                p99: q(h, 0.99),
                buckets: h
                    .nonzero_buckets()
                    .into_iter()
                    .map(|(le, count)| BucketRow { le, count })
                    .collect(),
                overflow: h.saturated_high(),
            })
            .collect();
        Snapshot {
            spans,
            counters,
            gauges,
            histograms,
        }
    }
}

/// Aggregated timing of one span name.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanRow {
    /// Span (stage) name.
    pub name: String,
    /// Completed span count.
    pub count: u64,
    /// Total time spent, milliseconds.
    pub total_ms: f64,
    /// Mean duration, milliseconds.
    pub mean_ms: f64,
    /// Median duration, milliseconds.
    pub p50_ms: f64,
    /// 90th-percentile duration, milliseconds.
    pub p90_ms: f64,
    /// 99th-percentile duration, milliseconds.
    pub p99_ms: f64,
    /// 99.9th-percentile duration, milliseconds.
    pub p999_ms: f64,
    /// Worst duration, milliseconds.
    pub max_ms: f64,
}

/// One counter level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterRow {
    /// Counter name.
    pub name: String,
    /// Accumulated count.
    pub value: u64,
}

/// One gauge level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeRow {
    /// Gauge name.
    pub name: String,
    /// Last recorded level.
    pub value: f64,
}

/// One non-empty histogram bucket (plain per-bucket counts, not
/// Prometheus-style cumulative). A bound of `0.0` is the dedicated
/// non-positive bucket.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketRow {
    /// Bucket upper bound (exclusive).
    pub le: f64,
    /// Samples in this bucket.
    pub count: u64,
}

/// Aggregated distribution of one observed value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramRow {
    /// Metric name.
    pub name: String,
    /// Sample count.
    pub count: u64,
    /// Mean sample (exact).
    pub mean: f64,
    /// Smallest sample (exact).
    pub min: f64,
    /// Largest sample (exact).
    pub max: f64,
    /// Median sample (bucket-midpoint estimate).
    pub p50: f64,
    /// 90th-percentile sample (bucket-midpoint estimate).
    pub p90: f64,
    /// 99th-percentile sample (bucket-midpoint estimate).
    pub p99: f64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<BucketRow>,
    /// Samples clamped into the last bucket from above the tracked range.
    pub overflow: u64,
}

/// A frozen, serializable view of a [`Registry`]. Rows are sorted by name,
/// so snapshots of equal registries compare equal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Per-span timing rows.
    pub spans: Vec<SpanRow>,
    /// Counter rows.
    pub counters: Vec<CounterRow>,
    /// Gauge rows.
    pub gauges: Vec<GaugeRow>,
    /// Histogram rows.
    pub histograms: Vec<HistogramRow>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter_event(name: &str, delta: f64) -> Event {
        Event {
            seq: 0,
            kind: EventKind::CounterAdd,
            name: name.to_string(),
            parent: None,
            depth: 0,
            session: None,
            clip: None,
            value: Some(delta),
            duration_ns: None,
            detail: None,
        }
    }

    /// Nearest-rank ground truth over the raw samples.
    fn exact_nearest_rank(samples: &mut [f64], q: f64) -> f64 {
        samples.sort_by(|a, b| a.total_cmp(b));
        let rank = ((q * samples.len() as f64).ceil().max(1.0) as usize).min(samples.len());
        samples[rank - 1]
    }

    #[test]
    fn exact_stats_and_extreme_quantiles() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(4.0));
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(4.0));
        assert!((h.mean() - 2.5).abs() < 1e-12);
        assert!((h.sum() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_stay_within_the_documented_relative_error() {
        let samples: Vec<f64> = (1..=2000).map(|i| (i as f64) * 17.3 + 0.5).collect();
        let mut h = Histogram::new();
        for &v in &samples {
            h.observe(v);
        }
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let mut raw = samples.clone();
            let truth = exact_nearest_rank(&mut raw, q);
            let est = h.quantile(q).unwrap();
            let rel = (est - truth).abs() / truth;
            assert!(
                rel <= QUANTILE_RELATIVE_ERROR + 1e-12,
                "q={q}: est {est} vs truth {truth} (rel {rel})"
            );
        }
    }

    #[test]
    fn merge_is_exact_and_order_independent() {
        let all: Vec<f64> = (1..=600).map(|i| (i as f64) * 3.7).collect();
        let mut whole = Histogram::new();
        for &v in &all {
            whole.observe(v);
        }
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, &v) in all.iter().enumerate() {
            if i % 3 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole, "split+merge must equal observing everything");
        assert_eq!(ab, ba, "merge must be commutative");
    }

    #[test]
    fn nonpositive_and_saturation_are_tallied_not_dropped() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(1e-12); // below 2^-30
        h.observe(1e15); // above 2^40
        h.observe(f64::NAN); // ignored entirely
        h.observe(f64::INFINITY); // ignored entirely
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonpositive(), 2);
        assert_eq!(h.saturated_low(), 1);
        assert_eq!(h.saturated_high(), 1);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(1e15));
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets[0], (0.0, 2));
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), 4);
    }

    #[test]
    fn bucket_index_respects_bucket_edges() {
        // A value exactly on a bucket's lower edge belongs to that bucket,
        // and values just below it to the previous one.
        for i in [0, 1, 31, 32, 1000, BUCKETS - 1] {
            let lo = Histogram::bucket_lower(i);
            assert_eq!(Histogram::bucket_index(lo), Some(i), "lower edge of {i}");
            let inside = lo * (1.0 + 1.0 / 128.0);
            assert_eq!(Histogram::bucket_index(inside), Some(i), "inside {i}");
        }
        assert_eq!(Histogram::bucket_index(Histogram::bucket_upper(0)), Some(1));
    }

    #[test]
    fn snapshot_is_sorted_and_round_trips() {
        let mut r = Registry::new();
        r.absorb(&counter_event("zeta", 1.0));
        r.absorb(&counter_event("alpha", 2.0));
        r.absorb(&Event {
            seq: 1,
            kind: EventKind::SpanEnd,
            name: "detect".to_string(),
            parent: None,
            depth: 0,
            session: None,
            clip: None,
            value: None,
            duration_ns: Some(2_000_000),
            detail: None,
        });
        let snap = r.snapshot();
        assert_eq!(snap.counters[0].name, "alpha");
        assert_eq!(snap.counters[1].name, "zeta");
        assert_eq!(snap.spans.len(), 1);
        assert!((snap.spans[0].total_ms - 2.0).abs() < 1e-9);
        let text = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_buckets_are_sparse() {
        let mut r = Registry::new();
        let mut e = counter_event("detector.score", 0.0);
        e.kind = EventKind::Observe;
        e.value = Some(1.5);
        r.absorb(&e);
        let snap = r.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].buckets.len(), 1);
        assert_eq!(snap.histograms[0].buckets[0].count, 1);
    }

    #[test]
    fn marks_count_as_counters() {
        let mut r = Registry::new();
        r.absorb(&Event {
            seq: 0,
            kind: EventKind::Mark,
            name: "stream.status".to_string(),
            parent: None,
            depth: 0,
            session: None,
            clip: None,
            value: None,
            duration_ns: None,
            detail: Some("Gathering->Trusted".to_string()),
        });
        assert_eq!(r.counter("stream.status"), 1);
    }
}
