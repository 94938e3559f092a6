//! The farm wire protocol: newline-delimited JSON messages over TCP.
//!
//! Coordinator and workers exchange one flat JSON object per line, and
//! every message is encoded through [`Row`] and parsed back through
//! [`parse_row`] — the wire format *is* the artifact format, so the
//! round-trip guarantee the resume path already relies on
//! (`parse_row(line).to_json_row() == line`) covers the network too.
//! Completed rows travel embedded as an escaped string field (`data`),
//! which keeps the framing flat: a torn line, however it was torn, is
//! one malformed message, never half of the next one.
//!
//! Message labels share the `~farm-` prefix (like `~sweep-config`, a
//! `~` label can never collide with a spec name). Decoding ignores
//! unknown *fields* (forward compatibility: an older coordinator accepts
//! a newer worker's hello) but rejects unknown *labels* and missing
//! fields — a coordinator must never guess at a half-understood
//! completion.

use crate::jsonl::parse_row;
use crate::rows::Row;

/// One farm protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Worker → coordinator, first line on a connection: identifies the
    /// sweep the worker was launched for. The coordinator rejects
    /// mismatched spec names or configurations (a `reduced` worker must
    /// never compute points for a `full` sweep).
    Hello {
        /// The spec (row-tag) name the worker is serving.
        spec: String,
        /// The worker's configuration stamp (`SweepSpec::config`).
        config: Option<String>,
        /// Worker display name (for coordinator logs).
        worker: String,
    },
    /// Coordinator → worker, the hello acknowledgment. Carries the
    /// coordinator's root seed so every worker derives the exact
    /// per-point seeds of a single-process run.
    Welcome {
        /// Root sweep seed (the coordinator's
        /// [`DEFAULT_SWEEP_SEED`](crate::DEFAULT_SWEEP_SEED)).
        seed: u64,
        /// Selected points in the whole sweep (informational).
        points: usize,
    },
    /// Coordinator → worker: the connection is refused (spec/config
    /// mismatch, or a non-hello first message).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker → coordinator: ready for (more) work.
    Request,
    /// Coordinator → worker: a lease on a batch of points.
    Grant {
        /// Lease id, echoed back in completions.
        lease: u64,
        /// Global point ids (the worker maps them via `SweepSpec::point`).
        points: Vec<usize>,
        /// Seconds until the coordinator may re-lease these points.
        expires_s: f64,
    },
    /// Coordinator → worker: nothing grantable right now (every pending
    /// point is leased elsewhere) — retry shortly.
    Wait {
        /// Suggested seconds to sleep before the next request.
        retry_s: f64,
    },
    /// Worker → coordinator: one completed point of a lease.
    Done {
        /// The lease the point was granted under (possibly stale —
        /// acceptance is first-writer-wins on the point, not the lease).
        lease: u64,
        /// Global point id.
        point: usize,
        /// Which worker-local evaluation attempt succeeded (1-based;
        /// trace/observability attribution, never gating).
        attempt: u32,
        /// Evaluation wall-clock seconds (feeds lease batch sizing).
        secs: f64,
        /// The completed row's JSON, exactly as the worker serialized it.
        data: String,
    },
    /// Worker → coordinator: one point of a lease failed its guarded
    /// evaluation (panic or deadline overrun). Reporting the failure —
    /// instead of letting the panic kill the worker — keeps the worker
    /// alive for the rest of its lease and lets the coordinator count
    /// failures toward the point's quarantine budget.
    Failed {
        /// The lease the point was granted under (informational, like
        /// `Done`).
        lease: u64,
        /// Global point id.
        point: usize,
        /// Which worker-local evaluation attempt failed (1-based).
        attempt: u32,
        /// Wall-clock seconds spent on the failed attempt.
        secs: f64,
        /// Failure class: `panic` or `timeout`.
        cause: String,
        /// The panic payload or deadline description.
        message: String,
    },
    /// Coordinator → worker: the sweep is complete, disconnect.
    Fin,
}

const HELLO: &str = "~farm-hello";
const WELCOME: &str = "~farm-welcome";
const REJECT: &str = "~farm-reject";
const REQUEST: &str = "~farm-request";
const GRANT: &str = "~farm-grant";
const WAIT: &str = "~farm-wait";
const DONE: &str = "~farm-done";
const FAILED: &str = "~farm-failed";
const FIN: &str = "~farm-fin";

impl Msg {
    /// Serializes the message as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Msg::Hello {
                spec,
                config,
                worker,
            } => {
                let row = Row::new(HELLO).str("spec", spec).str("worker", worker);
                match config {
                    Some(c) => row.str("config", c),
                    None => row,
                }
            }
            Msg::Welcome { seed, points } => Row::new(WELCOME)
                // u64 seeds bit-cast through i64: `encode_seed` restores
                // the exact value on decode.
                .int("seed", *seed as i64)
                .int("points", *points as i64),
            Msg::Reject { reason } => Row::new(REJECT).str("reason", reason),
            Msg::Request => Row::new(REQUEST),
            Msg::Grant {
                lease,
                points,
                expires_s,
            } => {
                let list: Vec<String> = points.iter().map(usize::to_string).collect();
                Row::new(GRANT)
                    .int("lease", *lease as i64)
                    .str("points", &list.join(","))
                    .num("expires_s", *expires_s)
            }
            Msg::Wait { retry_s } => Row::new(WAIT).num("retry_s", *retry_s),
            Msg::Done {
                lease,
                point,
                attempt,
                secs,
                data,
            } => Row::new(DONE)
                .int("lease", *lease as i64)
                .int("point", *point as i64)
                .int("attempt", i64::from(*attempt))
                .num("secs", *secs)
                .str("data", data),
            Msg::Failed {
                lease,
                point,
                attempt,
                secs,
                cause,
                message,
            } => Row::new(FAILED)
                .int("lease", *lease as i64)
                .int("point", *point as i64)
                .int("attempt", i64::from(*attempt))
                .num("secs", *secs)
                .str("cause", cause)
                .str("message", message),
            Msg::Fin => Row::new(FIN),
        }
        .to_json_row()
    }

    /// Parses one wire line.
    ///
    /// # Errors
    ///
    /// Returns a description when the line is not valid flat JSON, the
    /// label is not a farm message, or a required field is missing or of
    /// the wrong type. Unknown extra fields are ignored.
    pub fn decode(line: &str) -> Result<Msg, String> {
        let row = parse_row(line)?;
        let int = |key: &str| -> Result<i64, String> {
            row.get_int(key)
                .ok_or_else(|| format!("{}: missing integer field '{key}'", row.label()))
        };
        let num = |key: &str| -> Result<f64, String> {
            row.get_num(key)
                .ok_or_else(|| format!("{}: missing number field '{key}'", row.label()))
        };
        let text = |key: &str| -> Result<String, String> {
            row.get_str(key)
                .map(str::to_string)
                .ok_or_else(|| format!("{}: missing string field '{key}'", row.label()))
        };
        // Pre-`attempt` peers omit the field; default to the first
        // attempt so a mixed-version farm keeps working.
        let attempt = || {
            row.get_int("attempt")
                .and_then(|v| u32::try_from(v).ok())
                .unwrap_or(1)
                .max(1)
        };
        match row.label() {
            HELLO => Ok(Msg::Hello {
                spec: text("spec")?,
                config: row.get_str("config").map(str::to_string),
                worker: text("worker")?,
            }),
            WELCOME => Ok(Msg::Welcome {
                seed: int("seed")? as u64,
                points: usize::try_from(int("points")?)
                    .map_err(|_| "~farm-welcome: negative point count".to_string())?,
            }),
            REJECT => Ok(Msg::Reject {
                reason: text("reason")?,
            }),
            REQUEST => Ok(Msg::Request),
            GRANT => {
                let mut points = Vec::new();
                for part in text("points")?.split(',') {
                    let part = part.trim();
                    if part.is_empty() {
                        continue;
                    }
                    points.push(
                        part.parse::<usize>()
                            .map_err(|e| format!("~farm-grant: bad point id '{part}': {e}"))?,
                    );
                }
                if points.is_empty() {
                    return Err("~farm-grant: empty point list".into());
                }
                Ok(Msg::Grant {
                    lease: int("lease")? as u64,
                    points,
                    expires_s: num("expires_s")?,
                })
            }
            WAIT => Ok(Msg::Wait {
                retry_s: num("retry_s")?,
            }),
            FIN => Ok(Msg::Fin),
            DONE => Ok(Msg::Done {
                lease: int("lease")? as u64,
                point: usize::try_from(int("point")?)
                    .map_err(|_| "~farm-done: negative point id".to_string())?,
                attempt: attempt(),
                secs: num("secs")?,
                data: text("data")?,
            }),
            FAILED => Ok(Msg::Failed {
                lease: int("lease")? as u64,
                point: usize::try_from(int("point")?)
                    .map_err(|_| "~farm-failed: negative point id".to_string())?,
                attempt: attempt(),
                secs: num("secs")?,
                cause: text("cause")?,
                message: text("message")?,
            }),
            other => Err(format!("unknown farm message '{other}'")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Msg) {
        let line = msg.encode();
        assert_eq!(Msg::decode(&line).unwrap(), msg, "{line}");
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Msg::Hello {
            spec: "fig12".into(),
            config: Some("reduced".into()),
            worker: "worker-17".into(),
        });
        round_trip(Msg::Hello {
            spec: "toy".into(),
            config: None,
            worker: "w".into(),
        });
        round_trip(Msg::Welcome {
            seed: 0x5eed_5eed,
            points: 18,
        });
        round_trip(Msg::Welcome {
            seed: u64::MAX, // bit-casts through the i64 wire field
            points: 0,
        });
        round_trip(Msg::Reject {
            reason: "config mismatch: \"full\" vs \"reduced\"".into(),
        });
        round_trip(Msg::Request);
        round_trip(Msg::Grant {
            lease: 3,
            points: vec![0, 7, 12],
            expires_s: 120.0,
        });
        round_trip(Msg::Wait { retry_s: 0.05 });
        round_trip(Msg::Done {
            lease: 3,
            point: 7,
            attempt: 1,
            secs: 0.125,
            data: r#"{"row":"fig12","model":"Ising","qubits":16,"gamma":6.83}"#.into(),
        });
        round_trip(Msg::Failed {
            lease: 3,
            point: 7,
            attempt: 2,
            secs: 0.25,
            cause: "panic".into(),
            message: "chaos: planted panic at point 7".into(),
        });
        round_trip(Msg::Failed {
            lease: 0,
            point: 0,
            attempt: 1,
            secs: 60.0,
            cause: "timeout".into(),
            message: "evaluation exceeded the 30s point deadline \"quoted\"".into(),
        });
        round_trip(Msg::Fin);
    }

    #[test]
    fn embedded_row_payload_survives_the_string_escaping() {
        let inner = Row::new("toy")
            .str("s", "quote \" backslash \\ newline \n done")
            .num("nan", f64::NAN)
            .num("x", 12.525168769000476);
        let msg = Msg::Done {
            lease: 1,
            point: 0,
            attempt: 1,
            secs: 0.0,
            data: inner.to_json_row(),
        };
        let Msg::Done { data, .. } = Msg::decode(&msg.encode()).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(data, inner.to_json_row());
        let back = crate::jsonl::parse_row(&data).unwrap();
        assert_eq!(back.to_json_row(), inner.to_json_row());
    }

    #[test]
    fn pre_attempt_wire_lines_decode_with_attempt_one() {
        // Lines from a peer built before the `attempt` field existed.
        let done = r#"{"row":"~farm-done","lease":3,"point":7,"secs":0.125,"data":"{}"}"#;
        let Msg::Done { attempt, .. } = Msg::decode(done).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(attempt, 1);
        let failed = r#"{"row":"~farm-failed","lease":3,"point":7,"secs":0.25,"cause":"panic","message":"m"}"#;
        let Msg::Failed { attempt, .. } = Msg::decode(failed).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(attempt, 1);
        // A nonsense attempt (negative, zero) clamps to 1 instead of
        // poisoning the trace attribution.
        let odd = r#"{"row":"~farm-done","lease":3,"point":7,"attempt":-2,"secs":0.1,"data":"{}"}"#;
        let Msg::Done { attempt, .. } = Msg::decode(odd).unwrap() else {
            panic!("wrong message kind");
        };
        assert_eq!(attempt, 1);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let line = r#"{"row":"~farm-wait","retry_s":0.1,"future_field":"ignored","n":3}"#;
        assert_eq!(Msg::decode(line).unwrap(), Msg::Wait { retry_s: 0.1 });
    }

    #[test]
    fn malformed_lines_are_rejected_not_panicked() {
        for bad in [
            "",
            "{",
            "not json",
            r#"{"row":"~farm-grant"}"#, // missing fields
            r#"{"row":"~farm-grant","lease":1,"points":"","expires_s":1}"#, // empty grant
            r#"{"row":"~farm-grant","lease":1,"points":"1,x","expires_s":1}"#, // bad id
            r#"{"row":"~farm-done","lease":1,"point":-2,"secs":0,"data":"{}"}"#, // negative id
            r#"{"row":"~farm-done","lease":1,"point":2,"secs":0}"#, // missing payload
            r#"{"row":"~farm-failed","lease":1,"point":-2,"secs":0,"cause":"panic","message":"m"}"#, // negative id
            r#"{"row":"~farm-failed","lease":1,"point":2,"secs":0,"cause":"panic"}"#, // missing message
            r#"{"row":"~farm-nope"}"#,        // unknown label
            r#"{"row":"fig12","qubits":16}"#, // artifact row, not a message
            r#"{"row":"~farm-welcome","seed":1,"points":-4}"#, // negative count
        ] {
            assert!(Msg::decode(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn truncations_of_valid_lines_never_panic() {
        let line = Msg::Grant {
            lease: 9,
            points: vec![1, 2, 3],
            expires_s: 60.0,
        }
        .encode();
        for k in 0..line.len() {
            let _ = Msg::decode(&line[..k]); // Err or Ok, never a panic
        }
    }
}
