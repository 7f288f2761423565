//! Byte-stable JSONL serialization of event streams, plus the line
//! parser the `trace-report` bin reads back with, both on the
//! [`crate::json`] codec: keys in a fixed order and — in content mode —
//! nothing machine- or time-dependent, so the CI trace golden
//! (`ci/golden_trace.jsonl`) can diff the output byte-for-byte across
//! thread counts.
//!
//! Gauges additionally carry their payload as a `bits` hex field: the
//! `value` field is for humans, `bits` is the authoritative bit-exact
//! round-trip channel (`f64::to_bits`).

use crate::event::{Class, EventKind};
use crate::json::{self, Json};
use crate::trace::EventStream;

fn push_line(out: &mut String, e: &crate::recorder::TimedEvent, timing: bool) {
    out.push_str(&format!(
        "{{\"shard\":{},\"lane\":{},\"seq\":{},\"kind\":\"{}\",\"name\":\"{}\",\"index\":{}",
        e.shard,
        e.lane,
        e.seq,
        e.event.kind.tag(),
        json::escape(e.event.name),
        e.event.index,
    ));
    match e.event.kind {
        EventKind::Counter => out.push_str(&format!(",\"value\":{}", e.event.value)),
        EventKind::Gauge => out.push_str(&format!(
            ",\"value\":{},\"bits\":\"{:016x}\"",
            json::float(e.event.value_f64()),
            e.event.value
        )),
        EventKind::SpanBegin | EventKind::SpanEnd => {}
    }
    if e.event.class == Class::Profile {
        out.push_str(",\"class\":\"profile\"");
    }
    if timing {
        if let Some(t) = e.t_ns {
            out.push_str(&format!(",\"t_ns\":{t}"));
        }
    }
    out.push_str("}\n");
}

/// Serializes the **content** stream: content-class events only, timing
/// stripped — the byte-stable, thread-count-invariant form the CI trace
/// golden pins.
#[must_use]
pub fn to_jsonl_content(stream: &EventStream) -> String {
    let mut out = String::new();
    for e in &stream.content().events {
        push_line(&mut out, e, false);
    }
    out
}

/// Serializes the **full** stream: every event (profile class tagged)
/// with the timing side-channel included where the injected clock
/// provided one. Machine-dependent by design; never golden-gated.
#[must_use]
pub fn to_jsonl_full(stream: &EventStream) -> String {
    let mut out = String::new();
    for e in &stream.events {
        push_line(&mut out, e, true);
    }
    out
}

/// One event parsed back from a JSONL line (owned name; payload kept
/// as raw bits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedEvent {
    /// The shard field.
    pub shard: u64,
    /// The lane field.
    pub lane: u8,
    /// The seq field.
    pub seq: u32,
    /// The event kind.
    pub kind: EventKind,
    /// The determinism class (`profile` tag present or not).
    pub class: Class,
    /// The event name.
    pub name: String,
    /// The instance index.
    pub index: u64,
    /// Counter value, or gauge bits (from the `bits` field).
    pub value: u64,
    /// The timing side-channel, when serialized.
    pub t_ns: Option<u64>,
}

impl ParsedEvent {
    /// The gauge payload as an `f64` (bit-exact; garbage for counters).
    #[must_use]
    pub fn value_f64(&self) -> f64 {
        f64::from_bits(self.value)
    }
}

/// Parses one line written by [`to_jsonl_content`] or
/// [`to_jsonl_full`]. Returns `None` on blank or malformed lines.
#[must_use]
pub fn parse_line(line: &str) -> Option<ParsedEvent> {
    let v = Json::parse(line).ok()?;
    let u64_field = |key: &str| v.field(key).and_then(Json::as_u64).ok();
    let kind = EventKind::from_tag(v.field("kind").and_then(Json::as_str).ok()?)?;
    let value = match kind {
        EventKind::Counter => u64_field("value")?,
        EventKind::Gauge => v.field("bits").and_then(Json::as_hex_u64).ok()?,
        EventKind::SpanBegin | EventKind::SpanEnd => 0,
    };
    let class = if v.field("class").and_then(Json::as_str) == Ok("profile") {
        Class::Profile
    } else {
        Class::Content
    };
    Some(ParsedEvent {
        shard: u64_field("shard")?,
        lane: u8::try_from(u64_field("lane")?).ok()?,
        seq: u32::try_from(u64_field("seq")?).ok()?,
        kind,
        class,
        name: v.field("name").and_then(Json::as_str).ok()?.to_owned(),
        index: u64_field("index")?,
        value,
        t_ns: u64_field("t_ns"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use crate::trace::{lane, TraceHandle};
    use std::sync::Arc;

    fn sample() -> EventStream {
        let t = TraceHandle::enabled_with(64, Arc::new(TickClock::new()));
        let mut r = t.recorder(1, lane::SWEEP).expect("enabled");
        r.span_begin("cell", 1);
        r.counter("messages", 1, 42);
        r.gauge("diameter", 1, 1.0 / 3.0);
        r.profile_counter("steals", 0, 2);
        r.span_end("cell", 1);
        t.commit(r);
        t.merged()
    }

    #[test]
    fn content_jsonl_is_byte_stable_and_untimed() {
        let s = sample();
        let a = to_jsonl_content(&s);
        let b = to_jsonl_content(&s);
        assert_eq!(a, b);
        assert!(!a.contains("t_ns"), "{a}");
        assert!(!a.contains("profile"), "{a}");
        assert!(a.contains("\"kind\":\"span_begin\""));
        assert!(a.contains("\"bits\":\"3fd5555555555555\""));
        assert!(a.lines().count() == 4, "{a}");
    }

    #[test]
    fn full_jsonl_carries_timing_and_class() {
        let s = sample();
        let full = to_jsonl_full(&s);
        assert!(full.contains("\"t_ns\":0"), "{full}");
        assert!(full.contains("\"class\":\"profile\""), "{full}");
        assert_eq!(full.lines().count(), 5);
    }

    #[test]
    fn parse_roundtrips_every_line() {
        // Names carrying JSON-significant characters: a `,` or `}` inside
        // the string, escaped control characters, a quote, and a literal
        // backslash followed by `n` (not a newline).
        let t = TraceHandle::enabled_with(64, Arc::new(TickClock::new()));
        let mut r = t.recorder(2, lane::SWEEP).expect("enabled");
        for name in ["a,b", "x}y", "tab\there", "ctl\u{1}", "x\\ny", "q\"uote"] {
            r.counter(name, 2, 7);
        }
        t.commit(r);
        for s in [sample(), t.merged()] {
            let text = to_jsonl_full(&s);
            assert_eq!(text.lines().count(), s.events.len());
            for (line, want) in text.lines().zip(&s.events) {
                let p = parse_line(line).expect("parses");
                assert_eq!(p.shard, want.shard);
                assert_eq!(p.lane, want.lane);
                assert_eq!(p.seq, want.seq);
                assert_eq!(p.kind, want.event.kind);
                assert_eq!(p.class, want.event.class);
                assert_eq!(p.name, want.event.name);
                assert_eq!(p.index, want.event.index);
                assert_eq!(p.value, want.event.value);
                assert_eq!(p.t_ns, want.t_ns);
            }
        }
    }

    #[test]
    fn gauge_bits_roundtrip_even_for_non_finite() {
        let t = TraceHandle::enabled();
        let mut r = t.recorder(0, 0).expect("enabled");
        r.gauge("g", 0, f64::INFINITY);
        t.commit(r);
        let s = t.merged();
        let text = to_jsonl_content(&s);
        assert!(text.contains("\"value\":null"), "{text}");
        let p = parse_line(text.lines().next().unwrap()).expect("parses");
        assert_eq!(p.value_f64(), f64::INFINITY);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert_eq!(parse_line(""), None);
        assert_eq!(parse_line("{\"shard\":0}"), None);
        assert_eq!(parse_line("not json"), None);
    }
}
