//! The line-delimited JSON protocol between the coordinator and a
//! `sweep-worker` process.
//!
//! One request line in, one response line out, over the worker's
//! stdin/stdout — the same one-process-per-pipe shape as an LSP server,
//! minus the framing headers. The grid, preset, and base seed are fixed
//! per worker (passed as process arguments at spawn), so a request only
//! names the cell:
//!
//! ```text
//! → {"cell": 7}
//! ← {"cell": 7, "status": "done", "outcomes": [{"rate_bits": "3fe0000000000000",
//!      "decision_round": 12, "rounds": 12, "converged": true,
//!      "fingerprint": "00000000deadbeef"}]}
//! ← {"cell": 7, "status": "failed", "error": "..."}        (on a cell error)
//! ```
//!
//! `rate_bits` and `fingerprint` are raw hexadecimal `u64`s — the rate
//! crosses the pipe as its exact `f64::to_bits` pattern, never as a
//! decimal, so the process-worker path aggregates **bit**-identically to
//! the in-process path. Lines are read with the shared
//! [`consensus_obs::json`] parser, which accepts arbitrary whitespace and
//! field order.

use consensus_obs::json::{self, Json};
use consensus_sweep::CellOutcome;

/// Encodes a cell-dispatch request line (no trailing newline).
#[must_use]
pub fn encode_request(cell: u64) -> String {
    format!("{{\"cell\": {cell}}}")
}

/// Encodes a success response line for `cell` (no trailing newline).
#[must_use]
pub fn encode_done(cell: u64, outcomes: &[CellOutcome]) -> String {
    let mut out = format!("{{\"cell\": {cell}, \"status\": \"done\", \"outcomes\": [");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let decision = o
            .decision_round
            .map_or("null".to_owned(), |d| d.to_string());
        out.push_str(&format!(
            "{{\"rate_bits\": \"{:016x}\", \"decision_round\": {decision}, \"rounds\": {}, \"converged\": {}, \"fingerprint\": \"{:016x}\"}}",
            o.rate.to_bits(),
            o.rounds,
            o.converged,
            o.fingerprint,
        ));
    }
    out.push_str("]}");
    out
}

/// Encodes a failure response line for `cell` (no trailing newline).
#[must_use]
pub fn encode_failed(cell: u64, error: &str) -> String {
    format!(
        "{{\"cell\": {cell}, \"status\": \"failed\", \"error\": \"{}\"}}",
        json::escape(error)
    )
}

/// A decoded worker response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The cell ran; its outcome rows, bit-exact.
    Done {
        /// The echoed cell index.
        cell: u64,
        /// The cell's outcome rows.
        outcomes: Vec<CellOutcome>,
    },
    /// The worker could not run the cell.
    Failed {
        /// The echoed cell index.
        cell: u64,
        /// The worker's error message.
        error: String,
    },
}

/// Decodes a request line; returns the cell index.
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn decode_request(line: &str) -> Result<u64, String> {
    let v = Json::parse(line)?;
    v.field("cell")?.as_u64()
}

/// Decodes a response line.
///
/// # Errors
///
/// Returns a description of the malformed line.
pub fn decode_response(line: &str) -> Result<Response, String> {
    let v = Json::parse(line)?;
    let cell = v.field("cell")?.as_u64()?;
    let status = v.field("status")?.as_str()?;
    match status {
        "done" => {
            let rows = v.field("outcomes")?.as_array()?;
            let mut outcomes = Vec::with_capacity(rows.len());
            for row in rows {
                outcomes.push(CellOutcome {
                    rate: f64::from_bits(row.field("rate_bits")?.as_hex_u64()?),
                    decision_round: match row.field("decision_round")? {
                        Json::Null => None,
                        other => Some(other.as_u64()?),
                    },
                    rounds: row.field("rounds")?.as_u64()?,
                    converged: row.field("converged")?.as_bool()?,
                    fingerprint: row.field("fingerprint")?.as_hex_u64()?,
                });
            }
            Ok(Response::Done { cell, outcomes })
        }
        "failed" => Ok(Response::Failed {
            cell,
            error: v.field("error")?.as_str()?.to_owned(),
        }),
        other => Err(format!("unknown response status {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(rate: f64) -> CellOutcome {
        CellOutcome {
            rate,
            decision_round: Some(12),
            rounds: 12,
            converged: true,
            fingerprint: 0xDEAD_BEEF,
        }
    }

    #[test]
    fn request_round_trips() {
        assert_eq!(decode_request(&encode_request(7)).unwrap(), 7);
        assert_eq!(decode_request(" { \"cell\" : 123 } ").unwrap(), 123);
        assert!(decode_request("{\"cells\": 1}").is_err());
    }

    #[test]
    fn done_response_round_trips_bit_exactly() {
        let outcomes = vec![outcome(1.0 / 3.0), outcome(f64::NAN)];
        let line = encode_done(9, &outcomes);
        let Response::Done {
            cell,
            outcomes: got,
        } = decode_response(&line).unwrap()
        else {
            panic!("expected done");
        };
        assert_eq!(cell, 9);
        assert_eq!(got.len(), 2);
        for (a, b) in got.iter().zip(&outcomes) {
            assert_eq!(a.rate.to_bits(), b.rate.to_bits(), "rate crosses as bits");
            assert_eq!(a.decision_round, b.decision_round);
            assert_eq!(a.rounds, b.rounds);
            assert_eq!(a.converged, b.converged);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
    }

    #[test]
    fn no_decision_encodes_as_null() {
        let mut o = outcome(0.5);
        o.decision_round = None;
        let line = encode_done(0, &[o]);
        assert!(line.contains("\"decision_round\": null"), "{line}");
        let Response::Done { outcomes, .. } = decode_response(&line).unwrap() else {
            panic!("expected done");
        };
        assert_eq!(outcomes[0].decision_round, None);
    }

    #[test]
    fn failed_response_round_trips_with_escapes() {
        let line = encode_failed(3, "panic: \"quoted\"\nsecond line");
        let Response::Failed { cell, error } = decode_response(&line).unwrap() else {
            panic!("expected failed");
        };
        assert_eq!(cell, 3);
        assert_eq!(error, "panic: \"quoted\"\nsecond line");
    }

    #[test]
    fn malformed_lines_err_cleanly() {
        assert!(decode_response("").is_err());
        assert!(decode_response("{").is_err());
        assert!(decode_response("{\"cell\": 1}").is_err(), "missing status");
        assert!(
            decode_response("{\"cell\": 1, \"status\": \"bogus\"}").is_err(),
            "unknown status"
        );
        assert!(Json::parse("{\"a\": 1} trailing").is_err());
    }
}
