//! The `GET /v1/trace/<trace-id>` body: one daemon's spans for a trace.
//!
//! The daemon encodes the spans it recorded ([`encode`]); the CLI's
//! `trace` subcommand decodes each daemon's answer ([`decode`]) and
//! stitches the fragments by the shared trace id. Both halves live here
//! so the format has one definition:
//!
//! ```text
//! {"trace_id":"<32 hex>","spans":[{"span_id":"<16 hex>",
//!   "parent_span_id":"<16 hex>"|null,"name":"…","request_id":"…",
//!   "start_unix_ns":N,"dur_ns":N,"pid":N,"tid":N}, …]}
//! ```

use serde::{Number, Value};
use smrseek_obs::{dtrace, DistSpan};

/// The JSON body for `spans`, all recorded under `trace_id`.
pub fn encode(trace_id: u128, spans: &[DistSpan]) -> String {
    let hex = |id: u64| Value::String(format!("{id:016x}"));
    let num = |n: u64| Value::Number(Number::U(n));
    let spans_json: Vec<Value> = spans
        .iter()
        .map(|span| {
            Value::Object(vec![
                ("span_id".to_owned(), hex(span.span_id)),
                (
                    "parent_span_id".to_owned(),
                    span.parent_span_id.map_or(Value::Null, hex),
                ),
                ("name".to_owned(), Value::String(span.name.clone())),
                (
                    "request_id".to_owned(),
                    Value::String(span.request_id.clone()),
                ),
                ("start_unix_ns".to_owned(), num(span.start_unix_ns)),
                ("dur_ns".to_owned(), num(span.dur_ns)),
                ("pid".to_owned(), num(u64::from(span.pid))),
                ("tid".to_owned(), num(span.tid)),
            ])
        })
        .collect();
    let trace_id = Value::String(format!("{trace_id:032x}"));
    serde_json::to_string(&Value::Object(vec![
        ("trace_id".to_owned(), trace_id),
        ("spans".to_owned(), Value::Array(spans_json)),
    ]))
    .expect("trace body serializes")
}

/// Decodes an [`encode`]d body back into spans.
///
/// # Errors
///
/// A message naming the first missing or malformed field.
pub fn decode(body: &[u8]) -> Result<Vec<DistSpan>, String> {
    fn hex_span_id(value: &Value) -> Option<u64> {
        value.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
    }
    fn number(span: &Value, key: &str) -> Result<u64, String> {
        span.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("span is missing {key}"))
    }
    let text = std::str::from_utf8(body).map_err(|_| "trace body is not UTF-8".to_owned())?;
    let root: Value =
        serde_json::from_str(text).map_err(|e| format!("trace body is not JSON: {e}"))?;
    let trace_id = root
        .get("trace_id")
        .and_then(Value::as_str)
        .and_then(dtrace::parse_trace_id)
        .ok_or("trace body has no trace_id")?;
    let spans = root
        .get("spans")
        .and_then(Value::as_array)
        .ok_or("trace body has no spans array")?;
    spans
        .iter()
        .map(|span| {
            Ok(DistSpan {
                trace_id,
                span_id: span
                    .get("span_id")
                    .and_then(hex_span_id)
                    .ok_or("span is missing span_id")?,
                parent_span_id: span.get("parent_span_id").and_then(hex_span_id),
                name: span
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or("span is missing name")?
                    .to_owned(),
                request_id: span
                    .get("request_id")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                start_unix_ns: number(span, "start_unix_ns")?,
                dur_ns: number(span, "dur_ns")?,
                pid: u32::try_from(number(span, "pid")?).map_err(|_| "pid overflows u32")?,
                tid: number(span, "tid")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(span_id: u64, parent_span_id: Option<u64>, name: &str) -> DistSpan {
        DistSpan {
            trace_id: 0x0123_4567_89ab_cdef_0011_2233_4455_6677,
            span_id,
            parent_span_id,
            name: name.to_owned(),
            request_id: "rq-1".to_owned(),
            start_unix_ns: 1_700_000_000_000_000_000,
            dur_ns: 12_345,
            pid: u32::MAX,
            tid: 7,
        }
    }

    #[test]
    fn spans_round_trip_through_the_body() {
        let spans = vec![
            span(u64::MAX, None, "dispatch"),
            span(1, Some(u64::MAX), "forward"),
        ];
        let body = encode(spans[0].trace_id, &spans);
        assert!(
            body.starts_with(r#"{"trace_id":"0123456789abcdef0011223344556677","spans":[{"span_id":"ffffffffffffffff","parent_span_id":null,"#),
            "{body}"
        );
        assert_eq!(decode(body.as_bytes()).expect("decodes"), spans);
        assert_eq!(
            decode(encode(9, &[]).as_bytes()).expect("decodes"),
            Vec::new()
        );
    }

    #[test]
    fn malformed_bodies_name_the_problem() {
        assert_eq!(
            decode(b"\xff").expect_err("not utf8"),
            "trace body is not UTF-8"
        );
        assert_eq!(
            decode(br#"{"spans":[]}"#).expect_err("no id"),
            "trace body has no trace_id"
        );
        let body = encode(1, &[span(2, None, "queue")]).replace("\"dur_ns\"", "\"dur\"");
        assert_eq!(
            decode(body.as_bytes()).expect_err("missing field"),
            "span is missing dur_ns"
        );
    }
}
