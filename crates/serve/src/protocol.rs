//! The wire protocol of the lab daemon: newline-delimited JSON frames.
//!
//! Every request and every response is exactly one line of JSON followed
//! by `\n`. Multi-line payloads (the lab's byte-stable report JSON) travel
//! *inside* a frame as an escaped string in the `body` member, so framing
//! never depends on payload shape and the unescaped body is byte-identical
//! to what the `lab` CLI would have printed locally.
//!
//! See `docs/PROTOCOL.md` for the full specification with examples; the
//! summary (protocol v2):
//!
//! | request `op` | payload members          | answer                          |
//! |--------------|--------------------------|---------------------------------|
//! | `run`        | `scenario`               | one-scenario lab report JSON    |
//! | `run`        | `program`, `policy?`, knobs | ad-hoc program-ref report JSON |
//! | `sweep`      | `sweep`, `threads?`      | full sweep report JSON          |
//! | `analyze`    | `program`                | taint-verdict report JSON       |
//! | `upload`     | `asm` \| `image`         | content fingerprint + dedup     |
//! | `profile`    | `program`, `policy?`     | cycle-domain profile report JSON|
//! | `stats`      | —                        | server + cache counters         |
//! | `metrics`    | —                        | Prometheus text exposition      |
//! | `trace`      | `target`                 | span tree of one trace id       |
//! | `logs`       | `level?`                 | structured event-log ring       |
//! | `health`     | —                        | liveness + capacity             |
//! | `shutdown`   | —                        | ack, then the daemon stops      |
//!
//! v2 turns programs into data: `upload` submits a guest program (text
//! assembly or a program-image JSON document, both escaped into one frame
//! member) into the daemon's content-addressed program store, and the
//! `program` members of `run`/`analyze`/`profile` accept the program-ref
//! grammar (`registry:<name>` or a bare name, `fp:<16-hex>` for uploaded
//! content). Program-ref `run` frames additionally accept the sparse
//! platform knobs of [`RunKnobs`] plus a planted `secret`, and any
//! request frame may carry a `trace_id` member — echoed verbatim on the
//! response, generated deterministically by the server when absent (see
//! [`Request::decode_frame`]).
//!
//! Responses carry `status`: `"ok"` (with `body`), `"busy"` (bounded job
//! queue full — explicit backpressure, retry later) or `"error"` (with
//! `error`).
//!
//! **Protocol v3** adds the fleet envelope, strictly additively: any
//! request frame may carry an `auth` member (a bearer token, checked by
//! the `dbt-router` front door; single daemons ignore it), and responses
//! gain a fourth status, `"quota_exceeded"` — the router's deterministic
//! token-bucket rate limiter bounced the request; back off and retry,
//! like `busy`. Both members are optional and off by default, so v2
//! clients and daemons interoperate unchanged (unknown request members
//! are ignored by design). [`FrameMeta`] bundles the per-frame envelope
//! (`trace_id` + `parent_span` + `auth`) for clients and proxies that
//! speak v3.
//!
//! Distributed tracing rides the same envelope: a frame may carry a
//! `parent_span` member naming the span the receiver's request-root span
//! should attach under (the router sets it when relaying, so backend
//! trees stitch under the router's relay span); the `trace` op fetches
//! the assembled span tree of one trace id (`dbt-serve/trace/v1`) and
//! the `logs` op the structured event-log ring (`dbt-serve/logs/v1`).
//! Both are cheap ops answered inline, like `stats`.

use dbt_json::{escape, JsonValue};

/// Mitigation-policy label applied when a program-ref `run` request does
/// not name one: the verdict-gated selective policy, the flagship of this
/// repo's analysis pipeline.
pub const DEFAULT_RUN_POLICY: &str = "selective";

/// The optional per-frame envelope members a v3 request may carry next to
/// its payload: the `trace_id` echoed on the response and the `auth`
/// bearer token the `dbt-router` front door checks. Both default to
/// absent, which encodes — and decodes — exactly like a v2 frame.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FrameMeta {
    /// Request trace id, echoed verbatim on the response.
    pub trace_id: Option<String>,
    /// Span id the receiver's request-root span should attach under —
    /// how the router threads causal context through to backends.
    /// Receivers without a span layer ignore it like any unknown member.
    pub parent_span: Option<String>,
    /// Bearer token for router-enforced per-connection auth. Plain
    /// daemons ignore it (unknown members pass through), so a token-
    /// carrying client works against both a router and a bare daemon.
    pub auth: Option<String>,
}

impl FrameMeta {
    /// `true` when no member is set (the frame needs no envelope members).
    pub fn is_empty(&self) -> bool {
        *self == FrameMeta::default()
    }
}

/// The source form of an uploaded guest program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramSource {
    /// Text assembly (the `dbt-riscv` `.s` grammar).
    Asm(String),
    /// A program-image JSON document (`dbt-riscv/program-image/v1`).
    Image(String),
}

impl ProgramSource {
    /// The frame member carrying this source form.
    pub fn member(&self) -> &'static str {
        match self {
            ProgramSource::Asm(_) => "asm",
            ProgramSource::Image(_) => "image",
        }
    }

    /// The source text.
    pub fn text(&self) -> &str {
        match self {
            ProgramSource::Asm(text) | ProgramSource::Image(text) => text,
        }
    }
}

/// Sparse platform knobs an ad-hoc program-ref `run` request may carry,
/// as flat optional frame members. `None` members keep the per-policy
/// default platform — an all-`None` knob set is exactly the v2 behaviour.
/// Cache geometry is not wire-settable (it is a structured object, not a
/// scalar knob); sweeps over cache shapes stay a registry concern.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunKnobs {
    /// VLIW issue width (scheduler and core).
    pub issue_width: Option<u64>,
    /// Hot threshold of the DBT profiler.
    pub hot_threshold: Option<u64>,
    /// Enable/disable branch (trace-scheduling) speculation.
    pub branch_speculation: Option<bool>,
    /// Enable/disable memory (MCB) speculation.
    pub memory_speculation: Option<bool>,
    /// Memory Conflict Buffer capacity.
    pub mcb_capacity: Option<u64>,
    /// Rollback penalty in cycles.
    pub rollback_penalty: Option<u64>,
    /// Block budget of the run.
    pub max_blocks: Option<u64>,
    /// Secret to plant into the program's `secret` buffer; its presence
    /// turns the run into an attack-style measurement (recovery rate
    /// against the planted bytes).
    pub secret: Option<String>,
}

impl RunKnobs {
    /// `true` when no knob is set (the frame needs no knob members).
    pub fn is_default(&self) -> bool {
        *self == RunKnobs::default()
    }

    /// Appends the set knobs as `, "name": value` members.
    fn encode_members(&self, out: &mut String) {
        fn number(out: &mut String, name: &str, value: Option<u64>) {
            if let Some(value) = value {
                out.push_str(&format!(", \"{name}\": {value}"));
            }
        }
        fn boolean(out: &mut String, name: &str, value: Option<bool>) {
            if let Some(value) = value {
                out.push_str(&format!(", \"{name}\": {value}"));
            }
        }
        number(out, "issue_width", self.issue_width);
        number(out, "hot_threshold", self.hot_threshold);
        boolean(out, "branch_speculation", self.branch_speculation);
        boolean(out, "memory_speculation", self.memory_speculation);
        number(out, "mcb_capacity", self.mcb_capacity);
        number(out, "rollback_penalty", self.rollback_penalty);
        number(out, "max_blocks", self.max_blocks);
        if let Some(secret) = &self.secret {
            out.push_str(&format!(", \"secret\": \"{}\"", escape(secret)));
        }
    }

    /// Reads the knob members out of a parsed request frame.
    fn decode(value: &JsonValue) -> Result<RunKnobs, String> {
        let number = |name: &str| match value.get(name) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("`{name}` must be a non-negative integer")),
        };
        let boolean = |name: &str| match value.get(name) {
            None => Ok(None),
            Some(v) => v.as_bool().map(Some).ok_or_else(|| format!("`{name}` must be a boolean")),
        };
        let secret = match value.get("secret") {
            None => None,
            Some(v) => Some(v.as_str().ok_or("`secret` must be a string")?.to_string()),
        };
        Ok(RunKnobs {
            issue_width: number("issue_width")?,
            hot_threshold: number("hot_threshold")?,
            branch_speculation: boolean("branch_speculation")?,
            memory_speculation: boolean("memory_speculation")?,
            mcb_capacity: number("mcb_capacity")?,
            rollback_penalty: number("rollback_penalty")?,
            max_blocks: number("max_blocks")?,
            secret,
        })
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run one scenario by its full `sweep/program/policy/platform` name.
    Run {
        /// The scenario name.
        scenario: String,
    },
    /// Run an ad-hoc program named by a program ref under one policy.
    RunProgram {
        /// Program ref (`registry:<name>`, bare name, or `fp:<16-hex>`).
        program: String,
        /// Mitigation-policy label (`unsafe`, `selective`, ...).
        policy: String,
        /// Sparse platform overrides and optional planted secret.
        knobs: RunKnobs,
    },
    /// The deterministic cycle-domain profile of one program run.
    Profile {
        /// Program ref to profile.
        program: String,
        /// Mitigation-policy label for the profiled run.
        policy: String,
    },
    /// Run one registered sweep.
    Sweep {
        /// The sweep name.
        name: String,
        /// Worker threads for this sweep's executor; `0` = daemon default.
        threads: usize,
    },
    /// Per-block speculative-taint verdicts of one program.
    Analyze {
        /// Program ref: a registry name (a workload, `ptr-matmul`,
        /// `spectre-v1`, `spectre-v4`) or `fp:<16-hex>` of uploaded
        /// content.
        program: String,
    },
    /// Submit a guest program into the daemon's program store.
    Upload {
        /// The program source (text assembly or image JSON).
        source: ProgramSource,
    },
    /// Server and cache counters.
    Stats,
    /// Prometheus text-format metrics exposition.
    Metrics,
    /// The assembled span tree of one trace id (`dbt-serve/trace/v1`).
    /// The router answers with its own spans stitched over the owning
    /// backend's; a daemon answers with its local spans.
    Trace {
        /// The trace id to assemble (`target`, because `trace_id` is the
        /// envelope member naming *this* request's trace).
        target: String,
    },
    /// The structured event-log ring (`dbt-serve/logs/v1`).
    Logs {
        /// Minimum level to include (`debug|info|warn|error`); absent =
        /// everything.
        level: Option<String>,
    },
    /// Liveness and capacity.
    Health,
    /// Stop the daemon (in-flight jobs finish first).
    Shutdown,
}

impl Request {
    /// The `op` tag of this request.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Run { .. } | Request::RunProgram { .. } => "run",
            Request::Profile { .. } => "profile",
            Request::Sweep { .. } => "sweep",
            Request::Analyze { .. } => "analyze",
            Request::Upload { .. } => "upload",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Logs { .. } => "logs",
            Request::Health => "health",
            Request::Shutdown => "shutdown",
        }
    }

    /// `true` if the request is executed on the worker pool (and therefore
    /// subject to queue backpressure) rather than answered inline.
    pub fn is_heavy(&self) -> bool {
        matches!(
            self,
            Request::Run { .. }
                | Request::RunProgram { .. }
                | Request::Profile { .. }
                | Request::Sweep { .. }
                | Request::Analyze { .. }
                | Request::Upload { .. }
        )
    }

    /// Encodes the frame (one line, no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Run { scenario } => {
                format!("{{\"op\": \"run\", \"scenario\": \"{}\"}}", escape(scenario))
            }
            Request::RunProgram { program, policy, knobs } => {
                let mut out = format!(
                    "{{\"op\": \"run\", \"program\": \"{}\", \"policy\": \"{}\"",
                    escape(program),
                    escape(policy)
                );
                knobs.encode_members(&mut out);
                out.push('}');
                out
            }
            Request::Profile { program, policy } => format!(
                "{{\"op\": \"profile\", \"program\": \"{}\", \"policy\": \"{}\"}}",
                escape(program),
                escape(policy)
            ),
            Request::Sweep { name, threads } => format!(
                "{{\"op\": \"sweep\", \"sweep\": \"{}\", \"threads\": {threads}}}",
                escape(name)
            ),
            Request::Analyze { program } => {
                format!("{{\"op\": \"analyze\", \"program\": \"{}\"}}", escape(program))
            }
            Request::Upload { source } => format!(
                "{{\"op\": \"upload\", \"{}\": \"{}\"}}",
                source.member(),
                escape(source.text())
            ),
            Request::Stats => "{\"op\": \"stats\"}".to_string(),
            Request::Metrics => "{\"op\": \"metrics\"}".to_string(),
            Request::Trace { target } => {
                format!("{{\"op\": \"trace\", \"target\": \"{}\"}}", escape(target))
            }
            Request::Logs { level } => match level {
                Some(level) => format!("{{\"op\": \"logs\", \"level\": \"{}\"}}", escape(level)),
                None => "{\"op\": \"logs\"}".to_string(),
            },
            Request::Health => "{\"op\": \"health\"}".to_string(),
            Request::Shutdown => "{\"op\": \"shutdown\"}".to_string(),
        }
    }

    /// Decodes one request line, discarding any `trace_id`.
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `error` response frame: malformed
    /// JSON, missing/ill-typed members, or an unknown `op`.
    pub fn decode(line: &str) -> Result<Request, String> {
        Request::decode_frame(line).map(|(request, _)| request)
    }

    /// Decodes one request line, extracting the optional `trace_id`
    /// member alongside the request. The server echoes this id verbatim
    /// on the response (and generates a deterministic per-connection one
    /// when the frame carries none).
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `error` response frame: malformed
    /// JSON, missing/ill-typed members, or an unknown `op`.
    pub fn decode_frame(line: &str) -> Result<(Request, Option<String>), String> {
        Request::decode_frame_meta(line).map(|(request, meta)| (request, meta.trace_id))
    }

    /// Decodes one request line together with its full v3 envelope
    /// ([`FrameMeta`]: the optional `trace_id` and `auth` members).
    ///
    /// # Errors
    ///
    /// Returns a message suitable for an `error` response frame: malformed
    /// JSON, missing/ill-typed members, or an unknown `op`.
    pub fn decode_frame_meta(line: &str) -> Result<(Request, FrameMeta), String> {
        let value = JsonValue::parse(line).map_err(|e| format!("malformed request: {e}"))?;
        let optional = |name: &str| match value.get(name) {
            None => Ok(None),
            Some(v) => {
                v.as_str().map(|s| Some(s.to_string())).ok_or(format!("`{name}` must be a string"))
            }
        };
        let meta = FrameMeta {
            trace_id: optional("trace_id")?,
            parent_span: optional("parent_span")?,
            auth: optional("auth")?,
        };
        Ok((Request::from_value(&value)?, meta))
    }

    /// Decodes an already-parsed request frame.
    fn from_value(value: &JsonValue) -> Result<Request, String> {
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or("request needs a string `op` member")?;
        let need = |member: &str| {
            value
                .get(member)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("`{op}` needs a string `{member}` member"))
        };
        let policy = |value: &JsonValue| match value.get("policy") {
            None => Ok(DEFAULT_RUN_POLICY.to_string()),
            Some(_) => need("policy"),
        };
        match op {
            "run" => {
                if value.get("program").is_some() {
                    Ok(Request::RunProgram {
                        program: need("program")?,
                        policy: policy(value)?,
                        knobs: RunKnobs::decode(value)?,
                    })
                } else {
                    Ok(Request::Run { scenario: need("scenario")? })
                }
            }
            "profile" => Ok(Request::Profile { program: need("program")?, policy: policy(value)? }),
            "sweep" => {
                let threads = match value.get("threads") {
                    None => 0,
                    Some(t) => {
                        t.as_u64().ok_or("`threads` must be a non-negative integer")? as usize
                    }
                };
                Ok(Request::Sweep { name: need("sweep")?, threads })
            }
            "analyze" => Ok(Request::Analyze { program: need("program")? }),
            "upload" => match (value.get("asm"), value.get("image")) {
                (Some(_), None) => Ok(Request::Upload { source: ProgramSource::Asm(need("asm")?) }),
                (None, Some(_)) => {
                    Ok(Request::Upload { source: ProgramSource::Image(need("image")?) })
                }
                (Some(_), Some(_)) => Err("`upload` takes `asm` or `image`, not both".to_string()),
                (None, None) => Err("`upload` needs an `asm` or `image` string member".to_string()),
            },
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "trace" => Ok(Request::Trace { target: need("target")? }),
            "logs" => Ok(Request::Logs {
                level: match value.get("level") {
                    None => None,
                    Some(_) => Some(need("level")?),
                },
            }),
            "health" => Ok(Request::Health),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!(
                "unknown op `{other}` (expected run|profile|sweep|analyze|upload|trace|logs|stats|metrics|health|shutdown)"
            )),
        }
    }

    /// [`Request::encode`] with a `trace_id` member appended, for clients
    /// that want to correlate responses with their own ids.
    pub fn encode_with_trace(&self, trace_id: &str) -> String {
        append_trace(self.encode(), trace_id)
    }

    /// [`Request::encode`] with the set members of `meta` appended
    /// (`trace_id`, then `parent_span`, then `auth`). An empty meta
    /// encodes exactly like [`Request::encode`].
    pub fn encode_with_meta(&self, meta: &FrameMeta) -> String {
        let mut frame = self.encode();
        if let Some(trace_id) = &meta.trace_id {
            frame = append_trace(frame, trace_id);
        }
        if let Some(parent_span) = &meta.parent_span {
            frame = append_member(frame, "parent_span", parent_span);
        }
        if let Some(auth) = &meta.auth {
            frame = append_member(frame, "auth", auth);
        }
        frame
    }
}

/// Appends `, "trace_id": "..."` to an encoded frame (which always ends
/// in `}`).
fn append_trace(frame: String, trace_id: &str) -> String {
    append_member(frame, "trace_id", trace_id)
}

/// Appends `, "<name>": "<value>"` to an encoded frame (which always ends
/// in `}`).
fn append_member(mut frame: String, name: &str, value: &str) -> String {
    frame.pop();
    frame.push_str(&format!(", \"{name}\": \"{}\"}}", escape(value)));
    frame
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The request succeeded; `body` is the payload (itself JSON text).
    Ok {
        /// Echo of the request's `op`.
        op: String,
        /// Payload, unescaped — for `run`/`sweep`/`analyze` this is the
        /// exact multi-line JSON the `lab` CLI would print locally.
        body: String,
    },
    /// The bounded job queue is full: explicit backpressure, retry later.
    Busy {
        /// Echo of the request's `op`.
        op: String,
    },
    /// A v3 rate quota bounced the request (the router's token bucket ran
    /// dry for this client): back off and retry, like [`Response::Busy`].
    /// Only the `dbt-router` front door emits this status; single daemons
    /// never do.
    QuotaExceeded {
        /// Echo of the request's `op`.
        op: String,
    },
    /// The request failed.
    Error {
        /// Echo of the request's `op` (`"invalid"` if it never parsed).
        op: String,
        /// Human-readable cause.
        error: String,
    },
}

impl Response {
    /// Encodes the frame (one line, no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Response::Ok { op, body } => format!(
                "{{\"status\": \"ok\", \"op\": \"{}\", \"body\": \"{}\"}}",
                escape(op),
                escape(body)
            ),
            Response::Busy { op } => {
                format!("{{\"status\": \"busy\", \"op\": \"{}\"}}", escape(op))
            }
            Response::QuotaExceeded { op } => {
                format!("{{\"status\": \"quota_exceeded\", \"op\": \"{}\"}}", escape(op))
            }
            Response::Error { op, error } => format!(
                "{{\"status\": \"error\", \"op\": \"{}\", \"error\": \"{}\"}}",
                escape(op),
                escape(error)
            ),
        }
    }

    /// [`Response::encode`] with the request's `trace_id` echoed as the
    /// frame's last member (when one is known).
    pub fn encode_with_trace(&self, trace_id: Option<&str>) -> String {
        match trace_id {
            None => self.encode(),
            Some(trace_id) => append_trace(self.encode(), trace_id),
        }
    }

    /// Decodes one response line, discarding any echoed `trace_id`.
    ///
    /// # Errors
    ///
    /// Returns a message if the line is not a valid response frame.
    pub fn decode(line: &str) -> Result<Response, String> {
        Response::decode_frame(line).map(|(response, _)| response)
    }

    /// Decodes one response line together with the echoed `trace_id`, if
    /// the server attached one.
    ///
    /// # Errors
    ///
    /// Returns a message if the line is not a valid response frame.
    pub fn decode_frame(line: &str) -> Result<(Response, Option<String>), String> {
        let value = JsonValue::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        let member = |name: &str| {
            value
                .get(name)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or(format!("response needs a string `{name}` member"))
        };
        let trace_id = match value.get("trace_id") {
            None => None,
            Some(v) => Some(v.as_str().ok_or("`trace_id` must be a string")?.to_string()),
        };
        let op = member("op")?;
        let response = match member("status")?.as_str() {
            "ok" => Response::Ok { op, body: member("body")? },
            "busy" => Response::Busy { op },
            "quota_exceeded" => Response::QuotaExceeded { op },
            "error" => Response::Error { op, error: member("error")? },
            other => return Err(format!("unknown status `{other}`")),
        };
        Ok((response, trace_id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Run { scenario: "figure4/gemm (flat)/our-approach/default".to_string() },
            Request::RunProgram {
                program: "fp:0123456789abcdef".to_string(),
                policy: "selective".to_string(),
                knobs: RunKnobs::default(),
            },
            Request::RunProgram {
                program: "histogram".to_string(),
                policy: "unsafe".to_string(),
                knobs: RunKnobs {
                    issue_width: Some(8),
                    hot_threshold: Some(2),
                    branch_speculation: Some(true),
                    memory_speculation: Some(false),
                    mcb_capacity: Some(16),
                    rollback_penalty: Some(11),
                    max_blocks: Some(50_000),
                    secret: Some("GhostBusters!".to_string()),
                },
            },
            Request::Profile { program: "spectre-v1".to_string(), policy: "selective".to_string() },
            Request::Sweep { name: "figure4".to_string(), threads: 7 },
            Request::Analyze { program: "histogram".to_string() },
            Request::Upload { source: ProgramSource::Asm("li a0, 1\necall\n".to_string()) },
            Request::Upload { source: ProgramSource::Image("{\"schema\": \"x\"}".to_string()) },
            Request::Stats,
            Request::Metrics,
            Request::Trace { target: "c0-17".to_string() },
            Request::Logs { level: None },
            Request::Logs { level: Some("warn".to_string()) },
            Request::Health,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Request::decode(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn trace_ids_ride_any_frame_and_round_trip() {
        // Requests: absent by default, extracted when present.
        let request = Request::Analyze { program: "gemm".to_string() };
        assert_eq!(Request::decode_frame(&request.encode()).unwrap(), (request.clone(), None));
        let line = request.encode_with_trace("c3-17");
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Request::decode_frame(&line).unwrap(), (request, Some("c3-17".to_string())));
        // Responses: the echo survives encode/decode, and plain `decode`
        // (v2 clients) ignores it.
        let response = Response::Ok { op: "analyze".to_string(), body: "{}\n".to_string() };
        let line = response.encode_with_trace(Some("c3-17"));
        assert_eq!(
            Response::decode_frame(&line).unwrap(),
            (response.clone(), Some("c3-17".to_string()))
        );
        assert_eq!(Response::decode(&line).unwrap(), response);
        assert_eq!(response.encode_with_trace(None), response.encode());
        // Ill-typed ids are rejected, not silently dropped.
        assert!(Request::decode_frame(r#"{"op": "stats", "trace_id": 7}"#)
            .unwrap_err()
            .contains("trace_id"));
    }

    #[test]
    fn v3_meta_members_ride_any_frame_and_round_trip() {
        let request = Request::Analyze { program: "gemm".to_string() };
        // An empty meta encodes exactly like v2 — byte for byte.
        assert_eq!(request.encode_with_meta(&FrameMeta::default()), request.encode());
        assert!(FrameMeta::default().is_empty());
        // All members set: still one line, and all decode back out.
        let meta = FrameMeta {
            trace_id: Some("c3-17".to_string()),
            parent_span: Some("r:relay".to_string()),
            auth: Some("fleet-secret".to_string()),
        };
        assert!(!meta.is_empty());
        let line = request.encode_with_meta(&meta);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Request::decode_frame_meta(&line).unwrap(), (request.clone(), meta));
        // Auth alone: the trace id stays absent, and v2 decode paths
        // (which know nothing about `auth`) ignore the member entirely.
        let auth_only = FrameMeta { auth: Some("tok".to_string()), ..FrameMeta::default() };
        let line = request.encode_with_meta(&auth_only);
        assert_eq!(Request::decode_frame(&line).unwrap(), (request.clone(), None));
        assert_eq!(Request::decode(&line).unwrap(), request);
        // Ill-typed tokens are rejected, not silently dropped.
        assert!(Request::decode_frame_meta(r#"{"op": "stats", "auth": 7}"#)
            .unwrap_err()
            .contains("auth"));
        assert!(Request::decode_frame_meta(r#"{"op": "stats", "parent_span": 7}"#)
            .unwrap_err()
            .contains("parent_span"));
    }

    #[test]
    fn profile_without_a_program_no_longer_decodes() {
        let error = Request::decode(r#"{"op": "profile"}"#).unwrap_err();
        assert_eq!(error, "`profile` needs a string `program` member");
        let error = Request::decode(r#"{"op": "profile", "policy": "unsafe"}"#).unwrap_err();
        assert!(error.contains("`program`"), "{error}");
    }

    #[test]
    fn quota_exceeded_responses_round_trip() {
        let response = Response::QuotaExceeded { op: "run".to_string() };
        let line = response.encode();
        assert_eq!(line, "{\"status\": \"quota_exceeded\", \"op\": \"run\"}");
        assert_eq!(Response::decode(&line).unwrap(), response);
        let traced = response.encode_with_trace(Some("c0-1"));
        assert_eq!(Response::decode_frame(&traced).unwrap(), (response, Some("c0-1".to_string())));
    }

    #[test]
    fn run_knobs_default_to_empty_and_reject_ill_typed_members() {
        let request = Request::decode(r#"{"op": "run", "program": "gemm"}"#).unwrap();
        assert_eq!(
            request,
            Request::RunProgram {
                program: "gemm".to_string(),
                policy: DEFAULT_RUN_POLICY.to_string(),
                knobs: RunKnobs::default(),
            }
        );
        assert!(RunKnobs::default().is_default());
        assert!(!RunKnobs { issue_width: Some(4), ..RunKnobs::default() }.is_default());
        for (line, needle) in [
            (r#"{"op": "run", "program": "gemm", "issue_width": "wide"}"#, "`issue_width`"),
            (
                r#"{"op": "run", "program": "gemm", "branch_speculation": 1}"#,
                "`branch_speculation`",
            ),
            (r#"{"op": "run", "program": "gemm", "secret": 42}"#, "`secret`"),
        ] {
            let error = Request::decode(line).unwrap_err();
            assert!(error.contains(needle), "{line}: {error}");
        }
    }

    #[test]
    fn profile_requests_default_policy_and_classify_weight() {
        let heavy = Request::decode(r#"{"op": "profile", "program": "spectre-v1"}"#).unwrap();
        assert_eq!(
            heavy,
            Request::Profile {
                program: "spectre-v1".to_string(),
                policy: DEFAULT_RUN_POLICY.to_string(),
            }
        );
        assert!(heavy.is_heavy(), "profiling a program runs on the worker pool");
        assert_eq!(heavy.op(), "profile");
        // The observability ops are always cheap: answered inline, never
        // queued, never quota-charged.
        assert!(!Request::Trace { target: "c0-1".to_string() }.is_heavy());
        assert!(!Request::Logs { level: None }.is_heavy());
    }

    #[test]
    fn sweep_threads_default_to_zero() {
        let request = Request::decode(r#"{"op": "sweep", "sweep": "figure4"}"#).unwrap();
        assert_eq!(request, Request::Sweep { name: "figure4".to_string(), threads: 0 });
    }

    #[test]
    fn program_ref_runs_default_to_the_selective_policy() {
        let request =
            Request::decode(r#"{"op": "run", "program": "fp:00000000000000aa"}"#).unwrap();
        assert_eq!(
            request,
            Request::RunProgram {
                program: "fp:00000000000000aa".to_string(),
                policy: DEFAULT_RUN_POLICY.to_string(),
                knobs: RunKnobs::default(),
            }
        );
        // A scenario-form `run` still decodes as before.
        let request = Request::decode(r#"{"op": "run", "scenario": "a/b/c/d"}"#).unwrap();
        assert_eq!(request, Request::Run { scenario: "a/b/c/d".to_string() });
    }

    #[test]
    fn upload_sources_carry_multiline_programs() {
        let source = ProgramSource::Asm(".word table, 1, 2\nli a0, 3\necall\n".to_string());
        let line = Request::Upload { source: source.clone() }.encode();
        assert!(!line.contains('\n'), "frames are single lines: {line}");
        assert_eq!(Request::decode(&line).unwrap(), Request::Upload { source });
    }

    #[test]
    fn responses_round_trip_with_multiline_bodies() {
        let body = "{\n  \"schema\": \"dbt-lab/v1\",\n  \"jobs\": []\n}\n";
        let responses = [
            Response::Ok { op: "sweep".to_string(), body: body.to_string() },
            Response::Busy { op: "run".to_string() },
            Response::Error { op: "analyze".to_string(), error: "unknown program `x`".to_string() },
        ];
        for response in responses {
            let line = response.encode();
            assert!(!line.contains('\n'), "frames are single lines: {line}");
            assert_eq!(Response::decode(&line).unwrap(), response);
        }
    }

    #[test]
    fn malformed_requests_are_described() {
        for (line, needle) in [
            ("nonsense", "malformed"),
            ("{}", "`op`"),
            (r#"{"op": "run"}"#, "`scenario`"),
            (r#"{"op": "run", "program": "x", "policy": 3}"#, "`policy`"),
            (r#"{"op": "sweep", "sweep": "x", "threads": -1}"#, "threads"),
            (r#"{"op": "upload"}"#, "`asm` or `image`"),
            (r#"{"op": "upload", "asm": "ecall", "image": "{}"}"#, "not both"),
            (r#"{"op": "trace"}"#, "`target`"),
            (r#"{"op": "logs", "level": 3}"#, "`level`"),
            (r#"{"op": "teleport"}"#, "unknown op"),
        ] {
            let error = Request::decode(line).unwrap_err();
            assert!(error.contains(needle), "{line}: {error}");
        }
    }
}
