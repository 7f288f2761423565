//! The structured event vocabulary: spans, counters, and gauges, split
//! into a deterministic **content** class and a machine-dependent
//! **profile** class.

/// What an [`Event`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A named phase opened (`round`, `cell`, `probe`, `beam_generation`).
    SpanBegin,
    /// The matching phase closed.
    SpanEnd,
    /// A monotone integer observation (message counts, steal counts).
    Counter,
    /// An `f64` observation, carried as [`f64::to_bits`] so the JSONL
    /// round-trips bit-exactly (diameters, contraction ratios).
    Gauge,
}

impl EventKind {
    /// The stable JSONL tag for this kind.
    #[must_use]
    pub fn tag(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "span_begin",
            EventKind::SpanEnd => "span_end",
            EventKind::Counter => "counter",
            EventKind::Gauge => "gauge",
        }
    }

    /// Parses [`EventKind::tag`] back.
    #[must_use]
    pub fn from_tag(tag: &str) -> Option<Self> {
        Some(match tag {
            "span_begin" => EventKind::SpanBegin,
            "span_end" => EventKind::SpanEnd,
            "counter" => EventKind::Counter,
            "gauge" => EventKind::Gauge,
            _ => return None,
        })
    }
}

/// The determinism class of an event.
///
/// This split is what lets one stream serve both the CI golden gate and
/// live profiling:
///
/// * [`Class::Content`] events are a pure function of the computation —
///   bit-identical at every thread count. The trace golden
///   (`ci/golden_trace.jsonl`) pins exactly this subset.
/// * [`Class::Profile`] events depend on scheduling or the machine
///   (per-worker task counts, steal counts, cell durations). They are
///   excluded from the content JSONL and from fingerprints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Deterministic: part of the golden-gated content stream.
    Content,
    /// Scheduling/machine-dependent: profiling side-channel only.
    Profile,
}

/// One structured observation. `Copy` and 4 words wide — recording is a
/// bounds check and a `Vec` push on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Span boundary, counter, or gauge.
    pub kind: EventKind,
    /// Content (deterministic) or profile (machine-dependent).
    pub class: Class,
    /// The event name (`"round"`, `"cell"`, `"diameter"`, …).
    pub name: &'static str,
    /// The instance index: round number for `round` spans, cell index
    /// for `cell` spans, worker id for pool profile counters.
    pub index: u64,
    /// Payload: the counter value, or the gauge's [`f64::to_bits`].
    /// Zero for span boundaries.
    pub value: u64,
}

impl Event {
    /// A content-class span opening.
    #[must_use]
    pub fn span_begin(name: &'static str, index: u64) -> Self {
        Event {
            kind: EventKind::SpanBegin,
            class: Class::Content,
            name,
            index,
            value: 0,
        }
    }

    /// A content-class span closing.
    #[must_use]
    pub fn span_end(name: &'static str, index: u64) -> Self {
        Event {
            kind: EventKind::SpanEnd,
            class: Class::Content,
            name,
            index,
            value: 0,
        }
    }

    /// A content-class counter observation.
    #[must_use]
    pub fn counter(name: &'static str, index: u64, value: u64) -> Self {
        Event {
            kind: EventKind::Counter,
            class: Class::Content,
            name,
            index,
            value,
        }
    }

    /// A content-class gauge observation (stored as [`f64::to_bits`]).
    #[must_use]
    pub fn gauge(name: &'static str, index: u64, value: f64) -> Self {
        Event {
            kind: EventKind::Gauge,
            class: Class::Content,
            name,
            index,
            value: value.to_bits(),
        }
    }

    /// The same event reclassified as profiling side-channel data.
    #[must_use]
    pub fn profile(mut self) -> Self {
        self.class = Class::Profile;
        self
    }

    /// The gauge payload as an `f64` (bit-exact; garbage for counters).
    #[must_use]
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_payload_roundtrips_bit_exactly() {
        for x in [0.5, -0.0, 1.0 / 3.0, f64::NAN, f64::INFINITY] {
            let e = Event::gauge("d", 7, x);
            assert_eq!(e.value_f64().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn kind_tags_roundtrip() {
        for k in [
            EventKind::SpanBegin,
            EventKind::SpanEnd,
            EventKind::Counter,
            EventKind::Gauge,
        ] {
            assert_eq!(EventKind::from_tag(k.tag()), Some(k));
        }
        assert_eq!(EventKind::from_tag("bogus"), None);
    }

    #[test]
    fn profile_reclassifies() {
        let e = Event::counter("steals", 0, 3).profile();
        assert_eq!(e.class, Class::Profile);
        assert_eq!(e.value, 3);
    }
}
