//! The `rsc serve` protocol: a Language-Server-Protocol subset spoken
//! as JSON-RPC 2.0 over newline-delimited JSON — one request per line
//! on stdin, one JSON value per line on stdout (no `Content-Length`
//! framing).
//!
//! The server state is a [`Workspace`]: one document session per URI,
//! each retaining its own verdicts over one shared VC cache, so
//! interleaved edits across documents never re-check cold and
//! `import`-connected files re-check their importers automatically.
//!
//! | method                     | effect                                          |
//! |----------------------------|-------------------------------------------------|
//! | `initialize`               | `{"id":…,"result":{"capabilities":…}}`          |
//! | `initialized`              | notification, no response line                  |
//! | `textDocument/didOpen`     | open `params.textDocument.uri`, check, publish  |
//! | `textDocument/didChange`   | re-check the URI with the last full text        |
//! | `textDocument/didClose`    | drop the URI's session, clear its diagnostics   |
//! | `rsc/metrics`              | server-wide counters, cache, latency, phases    |
//! | `shutdown`                 | `{"id":…,"result":null}`                        |
//! | `exit`                     | leave the loop                                  |
//!
//! `didOpen`/`didChange` answer with one
//! `textDocument/publishDiagnostics` notification **per affected URI**:
//! the edited document first (plus any closure files that are not
//! themselves open documents), then each open importer that was
//! re-checked. Ranges are true LSP positions — 0-based `{line,
//! character}` pairs in the protocol's default **UTF-16** position
//! encoding, local to each file — and cross-file blame flows through
//! `relatedInformation`, whose locations name the *exporting* file's
//! URI. Each notification also carries a non-standard top-level `rsc`
//! object with the incremental counters of the check that produced it,
//! plus `deps_changed` (dependencies whose export surface changed) and
//! `dirty_own`: the units declared in the published document itself
//! (`fun:f`, `ctor:C`, `method:C.m`, `top`) whose constraint bundles the
//! document's previous check did not have.
//!
//! The custom `rsc/metrics` request answers with the server-wide view:
//!
//! ```json
//! {"jsonrpc":"2.0","id":7,"result":{"docs":1,
//!  "counters":{"checks_total":3,"bundles_reused_total":14,…},
//!  "cache":{"entries":90,"hits":12,"misses":90,"evictions":0,"hit_rate":0.12},
//!  "timing":{"checks":3,"check_p50_us":2100,"check_p90_us":…,"check_p99_us":…,
//!            "phases_ms":{"parse":0.4,"solve":5.2,…}},
//!  "symbols":{"interned":456,"bytes":3120},"memo":{"entries":16}}}
//! ```
//!
//! `symbols` sizes the process-wide symbol table (`rsc_core::Sym`),
//! which only grows: replaying an edit script must leave both numbers
//! where the first run left them. They depend on everything the process
//! checked before, so `--stats-json` does not carry them. `memo` counts
//! the bundle verdicts the open documents' sessions hold for later
//! checks, summed: a session holds at most twice the bundles of its
//! latest check plus those of the check before, and `didClose` drops
//! its share.
//!
//! Errors follow JSON-RPC 2.0 and never end the loop. A line that is
//! not JSON answers `-32700` (ParseError) with `id: null`; a value
//! without a string `method` answers `-32600` (InvalidRequest); an
//! unknown method answers `-32601` (MethodNotFound). A missing
//! `params.textDocument.uri` is an InvalidParams (`-32602`) error —
//! defaulting two malformed clients onto one shared buffer would alias
//! their documents. So are range-carrying `contentChanges` entries
//! (*any* element, not just the last: this server advertises
//! full-document sync) and an empty `contentChanges` array. As the spec
//! demands, malformed *requests* (carrying an `id`) get an InvalidParams
//! error while malformed notifications are dropped silently.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::sync::Mutex;

use rsc_core::{CheckerOptions, Diagnostic};
use rsc_syntax::LineIndex;

use crate::json::Json;
use crate::workspace::{DocReport, Workspace};

/// JSON-RPC 2.0 error codes.
const PARSE_ERROR: f64 = -32700.0;
const INVALID_REQUEST: f64 = -32600.0;
const METHOD_NOT_FOUND: f64 = -32601.0;
const INVALID_PARAMS: f64 = -32602.0;

/// The state behind one `rsc serve` loop.
pub struct Serve {
    ws: Workspace,
    /// Per-document: the URIs its last check published diagnostics for.
    /// When a file leaves a document's closure (an import removed, a
    /// specifier that stopped resolving), its URI gets one final empty
    /// publish — otherwise the client would pin its stale errors
    /// forever.
    published: HashMap<String, BTreeSet<String>>,
    /// Cumulative per-phase `(count, total_ns)` across every check this
    /// server ran — the `rsc/metrics` timing summary. Keyed by phase
    /// name (sorted), so exports are deterministic given the same spans.
    phase_acc: BTreeMap<&'static str, (u64, u64)>,
    /// Monotonic counters plus the check-latency histogram
    /// (p50/p90/p99) behind `rsc/metrics`.
    registry: rsc_obs::Registry,
}

impl Serve {
    /// A fresh serve state checking with `opts`.
    pub fn new(opts: CheckerOptions) -> Serve {
        Serve::over(Workspace::new(opts))
    }

    /// A fresh serve state over a caller-built workspace (how the
    /// binary attaches the persistent `--vc-cache` disk tier).
    pub fn over(ws: Workspace) -> Serve {
        Serve {
            ws,
            published: HashMap::new(),
            phase_acc: BTreeMap::new(),
            registry: rsc_obs::Registry::new(),
        }
    }

    /// Runs one workspace update with span collection enabled, returning
    /// the reports plus the per-phase timing object for exactly this
    /// check. Collection is metrics-only: the reports are byte-identical
    /// to an uninstrumented update (enforced by
    /// `tests/profile_determinism.rs` at the workspace root).
    fn checked_update(&mut self, key: &str, text: String) -> (Vec<DocReport>, Json) {
        // The span collector is process-global; serialize the
        // enable → check → drain window so concurrent `Serve` instances
        // (tests) cannot drain each other's spans mid-check.
        static OBS_LOCK: Mutex<()> = Mutex::new(());
        let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let was_enabled = rsc_obs::enabled();
        rsc_obs::set_enabled(true);
        rsc_obs::drain(); // attribute spans to this check only
        let reports = self.ws.update(key, text);
        let profile = rsc_obs::drain();
        rsc_obs::set_enabled(was_enabled);

        profile.accumulate_into(&mut self.phase_acc);
        self.registry.add("checks_total", 1);
        for r in &reports {
            let incr = &r.outcome.incr;
            self.registry.add("bundles_total", incr.bundles as u64);
            self.registry
                .add("bundles_reused_total", incr.reused as u64);
            self.registry
                .add("bundles_solved_total", incr.solved as u64);
            self.registry
                .add("importers_skipped_total", incr.importers_skipped as u64);
            if !r.outcome.result.ok() {
                self.registry.add("checks_failed_total", 1);
            }
            self.registry.add(
                "obligations_discharged_total",
                r.outcome.result.stats.obligations_discharged,
            );
            self.registry
                .add("model_refuted_total", r.outcome.result.stats.model_refuted);
            self.registry
                .add("lints_total", r.outcome.result.lints.len() as u64);
            self.registry.observe_us("check_latency", incr.total_micros);
        }
        (reports, timing_json(&profile.phase_totals()))
    }

    /// Handles one request line; returns the response (possibly several
    /// newline-separated JSON values, one per published notification;
    /// empty for silent notifications) and whether the loop should
    /// exit.
    pub fn handle(&mut self, line: &str) -> (String, bool) {
        let req = match Json::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                let msg = format!("bad JSON: {e}");
                return (lsp_error_code(Json::Null, PARSE_ERROR, &msg), false);
            }
        };
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        let Some(method) = req.get("method").and_then(Json::as_str) else {
            let msg = "a request needs a string \"method\"";
            return (lsp_error_code(id, INVALID_REQUEST, msg), false);
        };
        let params = req.get("params");
        let response = match method {
            "initialize" => Ok(lsp_response(id.clone(), initialize_result())),
            "initialized" | "exit" => Ok(String::new()),
            "rsc/metrics" => Ok(lsp_response(id.clone(), self.metrics())),
            "shutdown" => Ok(lsp_response(id.clone(), Json::Null)),
            "textDocument/didOpen" => self.did_open(params),
            "textDocument/didChange" => self.did_change(params),
            "textDocument/didClose" => self.did_close(params),
            // MethodNotFound: spec-following clients degrade silently.
            other => {
                let msg = format!("unknown method {other:?}");
                Ok(lsp_error_code(id.clone(), METHOD_NOT_FOUND, &msg))
            }
        };
        // Bad params: InvalidParams for a request that carried an `id`;
        // silence for a true notification (the spec forbids responding
        // to notifications, and a response with `id: null` reads as a
        // protocol error to clients).
        let response = match response {
            Ok(lines) => lines,
            Err(msg) if req.get("id").is_some() => lsp_error_code(id, INVALID_PARAMS, msg),
            Err(_) => String::new(),
        };
        (response, method == "exit")
    }

    /// `textDocument/didOpen`: checks the document's text and publishes.
    fn did_open(&mut self, params: Option<&Json>) -> Result<String, &'static str> {
        // A missing URI is a hard parameter error: defaulting to a shared
        // buffer would alias documents from two malformed clients onto
        // one session.
        let uri = doc_uri(params).ok_or("didOpen needs params.textDocument.uri")?;
        let text = params
            .and_then(|p| p.get("textDocument")?.get("text")?.as_str())
            .ok_or("didOpen needs params.textDocument.text")?;
        Ok(self.lsp_check(uri, text.to_string()))
    }

    /// `textDocument/didChange` under full-document sync (advertised as
    /// `textDocumentSync: 1`): folds the changes over the current
    /// overlay. An element without a `range` replaces the whole
    /// document, and so does one whose range demonstrably *covers* the
    /// whole current document (start at 0:0, end at or past the last
    /// position) — some clients spell full sync that way. A genuinely
    /// partial range is refused loudly: silently checking a fragment as
    /// the whole buffer would publish garbage diagnostics and corrupt
    /// the remembered document text.
    fn did_change(&mut self, params: Option<&Json>) -> Result<String, &'static str> {
        let uri = doc_uri(params).ok_or("didChange needs params.textDocument.uri")?;
        let changes = match params.and_then(|p| p.get("contentChanges")) {
            Some(Json::Arr(changes)) if !changes.is_empty() => changes,
            _ => return Err("didChange needs a non-empty params.contentChanges array"),
        };
        let mut cur = self.ws.doc_text(uri).unwrap_or_default();
        for ch in changes {
            let text = ch
                .get("text")
                .and_then(Json::as_str)
                .ok_or("didChange needs params.contentChanges[…].text")?;
            if ch
                .get("range")
                .is_some_and(|range| !range_covers_document(range, cur))
            {
                return Err("incremental (partial range) changes are not supported; \
                     this server uses full-document sync (textDocumentSync: 1, \
                     whole-document ranges accepted)");
            }
            cur = text;
        }
        Ok(self.lsp_check(uri, cur.to_string()))
    }

    /// `textDocument/didClose`: drops the document's session and clears
    /// its diagnostics client-side — its own URI plus every closure URI
    /// its last check published for (open importers will re-claim
    /// theirs on their next check).
    fn did_close(&mut self, params: Option<&Json>) -> Result<String, &'static str> {
        let uri = doc_uri(params).ok_or("didClose needs params.textDocument.uri")?;
        self.ws.close(uri);
        let mut uris = self.published.remove(uri).unwrap_or_default();
        uris.insert(uri.to_string());
        let lines: Vec<String> = uris.iter().map(|u| publish_empty(u)).collect();
        Ok(lines.join("\n"))
    }

    /// Checks `text` as the document `uri` through the workspace and
    /// renders one `publishDiagnostics` notification per affected URI —
    /// plus one final *empty* publish for every URI the same document
    /// published for last time but no longer covers (a removed import's
    /// diagnostics must not stay pinned in the editor).
    fn lsp_check(&mut self, uri: &str, text: String) -> String {
        let (reports, timing) = self.checked_update(uri, text);
        let mut lines = Vec::new();
        for report in &reports {
            let (published, now) = publishes_for(&self.ws, report, &timing);
            lines.extend(published);
            let before = self
                .published
                .insert(report.uri.clone(), now.clone())
                .unwrap_or_default();
            for gone in before.difference(&now) {
                lines.push(publish_empty(gone));
            }
        }
        lines.join("\n")
    }

    /// The `rsc/metrics` result: open documents, the registry's
    /// monotonic counters, the shared VC cache's counters, the timing
    /// summary (check-latency percentiles plus cumulative per-phase
    /// milliseconds), the symbol table's size and the sessions' verdict
    /// memo size — all derived from the registry, the cache, the table
    /// and the sessions, never from verdicts.
    fn metrics(&self) -> Json {
        let c = self.ws.cache().counters();
        let (symbols, symbol_bytes) = rsc_core::Sym::table_size();
        let counters = Json::Obj(
            self.registry
                .counters()
                .map(|(name, v)| (name.to_string(), Json::num(v as f64)))
                .collect(),
        );
        let lat = self.registry.histogram("check_latency");
        let phases = Json::Obj(
            self.phase_acc
                .iter()
                .map(|(name, (_, total_ns))| (name.to_string(), Json::num(ns_to_ms(*total_ns))))
                .collect(),
        );
        Json::Obj(vec![
            ("docs".into(), Json::num(self.ws.doc_count() as f64)),
            ("counters".into(), counters),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("entries".into(), Json::num(c.entries as f64)),
                    ("hits".into(), Json::num(c.hits as f64)),
                    ("misses".into(), Json::num(c.misses as f64)),
                    ("evictions".into(), Json::num(c.evictions as f64)),
                    ("hit_rate".into(), Json::num(c.hit_rate())),
                ]),
            ),
            (
                "timing".into(),
                Json::Obj(vec![
                    (
                        "checks".into(),
                        Json::num(self.registry.counter("checks_total") as f64),
                    ),
                    (
                        "check_p50_us".into(),
                        Json::num(lat.map_or(0, |h| h.p50_us()) as f64),
                    ),
                    (
                        "check_p90_us".into(),
                        Json::num(lat.map_or(0, |h| h.p90_us()) as f64),
                    ),
                    (
                        "check_p99_us".into(),
                        Json::num(lat.map_or(0, |h| h.p99_us()) as f64),
                    ),
                    ("phases_ms".into(), phases),
                ]),
            ),
            (
                "symbols".into(),
                Json::Obj(vec![
                    ("interned".into(), Json::num(symbols as f64)),
                    ("bytes".into(), Json::num(symbol_bytes as f64)),
                ]),
            ),
            (
                "memo".into(),
                Json::Obj(vec![(
                    "entries".into(),
                    Json::num(self.ws.memo_len() as f64),
                )]),
            ),
        ])
    }

    /// Runs the serve loop over a caller-built workspace (e.g. one with
    /// a persistent `--vc-cache` tier attached) and arbitrary
    /// reader/writer pairs (stdin and stdout in the binary; in-memory
    /// buffers in tests).
    pub fn run_over(
        ws: Workspace,
        reader: impl BufRead,
        mut writer: impl Write,
    ) -> std::io::Result<()> {
        let mut serve = Serve::over(ws);
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (response, quit) = serve.handle(&line);
            // LSP notifications (`initialized`, `exit`) have no response.
            if !response.is_empty() {
                writeln!(writer, "{response}")?;
                writer.flush()?;
            }
            if quit {
                break;
            }
        }
        Ok(())
    }
}

/// The publish notifications for one document check: the document's
/// own URI first, then closure files that are not open documents
/// themselves (an open document's diagnostics are owned by its own
/// check). Returns the rendered lines and the set of URIs published.
fn publishes_for(
    ws: &Workspace,
    report: &DocReport,
    timing: &Json,
) -> (Vec<String>, BTreeSet<String>) {
    let idxs: Vec<LineIndex> = report
        .merged
        .files
        .iter()
        .map(|f| LineIndex::new(&f.text))
        .collect();
    let groups = report.diags_by_file();
    let mut order: Vec<usize> = vec![report.merged.root];
    for (i, f) in report.merged.files.iter().enumerate() {
        if i != report.merged.root && !ws.contains(&f.name) {
            order.push(i);
        }
    }
    let uris = order
        .iter()
        .map(|&fi| report.merged.files[fi].name.clone())
        .collect();
    let lines = order
        .into_iter()
        .map(|fi| publish_diagnostics(report, fi, &groups[fi].1, &idxs, timing))
        .collect();
    (lines, uris)
}

/// Nanoseconds → fractional milliseconds.
fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1_000_000.0
}

/// The per-phase millisecond timing object for one check, keyed by
/// phase name (already sorted by [`rsc_obs::Profile::phase_totals`]).
fn timing_json(phases: &[rsc_obs::Phase]) -> Json {
    Json::Obj(
        phases
            .iter()
            .map(|p| (p.name.to_string(), Json::num(ns_to_ms(p.total_ns))))
            .collect(),
    )
}

fn lsp_response(id: Json, result: Json) -> String {
    Json::Obj(vec![
        ("jsonrpc".into(), Json::str("2.0")),
        ("id".into(), id),
        ("result".into(), result),
    ])
    .to_string()
}

/// A JSON-RPC error response with one of the codes above.
fn lsp_error_code(id: Json, code: f64, msg: &str) -> String {
    Json::Obj(vec![
        ("jsonrpc".into(), Json::str("2.0")),
        ("id".into(), id),
        (
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::num(code)),
                ("message".into(), Json::str(msg)),
            ]),
        ),
    ])
    .to_string()
}

/// `params.textDocument.uri`.
fn doc_uri(params: Option<&Json>) -> Option<&str> {
    params?.get("textDocument")?.get("uri")?.as_str()
}

/// The `initialize` result: full-document sync (`didChange` carries
/// the whole text), UTF-16 positions, and the server's name/version.
fn initialize_result() -> Json {
    Json::Obj(vec![
        (
            "capabilities".into(),
            Json::Obj(vec![
                ("textDocumentSync".into(), Json::num(1.0)),
                ("positionEncoding".into(), Json::str("utf-16")),
                ("diagnosticProvider".into(), Json::Bool(true)),
            ]),
        ),
        (
            "serverInfo".into(),
            Json::Obj(vec![
                ("name".into(), Json::str("rsc")),
                ("version".into(), Json::str(env!("CARGO_PKG_VERSION"))),
            ]),
        ),
    ])
}

/// True when an LSP `{start, end}` range covers the entire `doc`:
/// start at 0:0 and end at or past the document's last position
/// (0-based UTF-16 line/character, the same convention the server
/// publishes). A malformed range (missing or non-numeric positions)
/// is never "covering".
fn range_covers_document(range: &Json, doc: &str) -> bool {
    let pos = |key: &str| -> Option<(f64, f64)> {
        let p = range.get(key)?;
        Some((
            p.get("line").and_then(Json::as_f64)?,
            p.get("character").and_then(Json::as_f64)?,
        ))
    };
    let (Some((start_line, start_char)), Some((end_line, end_char))) = (pos("start"), pos("end"))
    else {
        return false;
    };
    if start_line != 0.0 || start_char != 0.0 {
        return false;
    }
    let idx = LineIndex::new(doc);
    let last = idx.line_col_utf16(doc, doc.len() as u32);
    let (last_line, last_char) = ((last.line - 1) as f64, (last.col - 1) as f64);
    end_line > last_line || (end_line == last_line && end_char >= last_char)
}

/// `{line, character}` — LSP positions are 0-based and count **UTF-16
/// code units** (the protocol's default encoding, advertised in the
/// `initialize` capabilities; see
/// [`rsc_syntax::LineIndex::line_col_utf16`]).
fn lsp_position(idx: &LineIndex, src: &str, offset: u32) -> Json {
    let lc = idx.line_col_utf16(src, offset);
    Json::Obj(vec![
        ("line".into(), Json::num((lc.line - 1) as f64)),
        ("character".into(), Json::num((lc.col - 1) as f64)),
    ])
}

/// A `{start, end}` LSP range for a merged span, in the owning file's
/// local coordinates.
fn lsp_range(report: &DocReport, idxs: &[LineIndex], span: rsc_syntax::Span) -> (usize, Json) {
    let (fi, local) = report.merged.local_span(span);
    let src = &report.merged.files[fi].text;
    (
        fi,
        Json::Obj(vec![
            ("start".into(), lsp_position(&idxs[fi], src, local.lo)),
            ("end".into(), lsp_position(&idxs[fi], src, local.hi)),
        ]),
    )
}

/// One LSP diagnostic object from a checker [`Diagnostic`]: range from
/// the blame span (file-local), severity, obligation code, message with
/// the expected/actual notes folded in, secondary labels as
/// `relatedInformation` — whose locations may name *other* files of the
/// closure (cross-file blame).
fn lsp_diagnostic(d: &Diagnostic, report: &DocReport, idxs: &[LineIndex]) -> Json {
    let severity = match d.severity {
        rsc_core::Severity::Error => 1.0,
        rsc_core::Severity::Warning => 2.0,
        rsc_core::Severity::Note => 3.0,
    };
    // Demangle module-qualified names: the user must never see
    // `m{id}$helper`, only `helper`.
    let mut message = report.merged.demangle(&d.message);
    for note in &d.notes {
        message.push('\n');
        message.push_str(&report.merged.demangle(note));
    }
    let (_, range) = lsp_range(report, idxs, d.span);
    let mut fields = vec![
        ("range".into(), range),
        ("severity".into(), Json::num(severity)),
        ("source".into(), Json::str("rsc")),
        ("message".into(), Json::str(message)),
    ];
    if let Some(code) = d.code {
        fields.insert(2, ("code".into(), Json::str(code)));
    }
    if !d.secondary.is_empty() {
        let related: Vec<Json> = d
            .secondary
            .iter()
            .map(|(span, label)| {
                let (sfi, srange) = lsp_range(report, idxs, *span);
                Json::Obj(vec![
                    (
                        "location".into(),
                        Json::Obj(vec![
                            (
                                "uri".into(),
                                Json::str(report.merged.files[sfi].name.clone()),
                            ),
                            ("range".into(), srange),
                        ]),
                    ),
                    ("message".into(), Json::str(report.merged.demangle(label))),
                ])
            })
            .collect();
        fields.push(("relatedInformation".into(), Json::Arr(related)));
    }
    Json::Obj(fields)
}

fn str_arr(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::str(s.clone())).collect())
}

/// The non-standard `rsc` counters object attached to every publish of
/// one document check. `timing` carries the per-phase millisecond
/// breakdown of the update that produced the report (shared by every
/// report of one update — phases are collected per update, not per
/// document).
fn rsc_counters(report: &DocReport, timing: &Json) -> Json {
    let incr = &report.outcome.incr;
    Json::Obj(vec![
        ("verified".into(), Json::Bool(report.outcome.result.ok())),
        ("bundles".into(), Json::num(incr.bundles as f64)),
        ("reused".into(), Json::num(incr.reused as f64)),
        ("solved".into(), Json::num(incr.solved as f64)),
        ("fast_path".into(), Json::Bool(incr.fast_path)),
        (
            "importers_skipped".into(),
            Json::num(incr.importers_skipped as f64),
        ),
        ("deps_changed".into(), str_arr(&report.deps_changed)),
        ("dirty_own".into(), str_arr(&report.dirty_own)),
        ("time_us".into(), Json::num(incr.total_micros as f64)),
        ("timing_ms".into(), timing.clone()),
    ])
}

/// The `textDocument/publishDiagnostics` notification for one file of
/// one document check.
fn publish_diagnostics(
    report: &DocReport,
    fi: usize,
    diags: &[&Diagnostic],
    idxs: &[LineIndex],
    timing: &Json,
) -> String {
    let uri = report.merged.files[fi].name.clone();
    let rendered: Vec<Json> = diags
        .iter()
        .map(|d| lsp_diagnostic(d, report, idxs))
        .collect();
    Json::Obj(vec![
        ("jsonrpc".into(), Json::str("2.0")),
        (
            "method".into(),
            Json::str("textDocument/publishDiagnostics"),
        ),
        (
            "params".into(),
            Json::Obj(vec![
                ("uri".into(), Json::str(uri)),
                ("diagnostics".into(), Json::Arr(rendered)),
            ]),
        ),
        ("rsc".into(), rsc_counters(report, timing)),
    ])
    .to_string()
}

/// An empty publish clearing a closed document's diagnostics.
fn publish_empty(uri: &str) -> String {
    Json::Obj(vec![
        ("jsonrpc".into(), Json::str("2.0")),
        (
            "method".into(),
            Json::str("textDocument/publishDiagnostics"),
        ),
        (
            "params".into(),
            Json::Obj(vec![
                ("uri".into(), Json::str(uri)),
                ("diagnostics".into(), Json::Arr(Vec::new())),
            ]),
        ),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "type nat = {v: number | 0 <= v};\nfunction abs(x: number): nat {\n    if (x < 0) { return 0 - x; }\n    return x;\n}\nfunction dbl(y: nat): nat { return y + y; }\n";

    fn lsp_req(method: &str, params: Json, id: Option<f64>) -> String {
        let mut fields = vec![
            ("jsonrpc".into(), Json::str("2.0")),
            ("method".into(), Json::str(method)),
        ];
        if let Some(id) = id {
            fields.insert(1, ("id".into(), Json::num(id)));
        }
        fields.push(("params".into(), params));
        Json::Obj(fields).to_string()
    }

    fn did_open(uri: &str, text: &str) -> String {
        lsp_req(
            "textDocument/didOpen",
            Json::Obj(vec![(
                "textDocument".into(),
                Json::Obj(vec![
                    ("uri".into(), Json::str(uri)),
                    ("text".into(), Json::str(text)),
                ]),
            )]),
            None,
        )
    }

    fn did_change(uri: &str, text: &str) -> String {
        lsp_req(
            "textDocument/didChange",
            Json::Obj(vec![
                (
                    "textDocument".into(),
                    Json::Obj(vec![("uri".into(), Json::str(uri))]),
                ),
                (
                    "contentChanges".into(),
                    Json::Arr(vec![Json::Obj(vec![("text".into(), Json::str(text))])]),
                ),
            ]),
            None,
        )
    }

    /// Parses a (possibly multi-line) response into JSON values.
    fn parse_lines(resp: &str) -> Vec<Json> {
        resp.lines().map(|l| Json::parse(l).unwrap()).collect()
    }

    /// The `result` of an `rsc/metrics` request.
    fn metrics(serve: &mut Serve) -> Json {
        let (resp, quit) = serve.handle(r#"{"jsonrpc":"2.0","id":99,"method":"rsc/metrics"}"#);
        assert!(!quit);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(99.0), "{resp}");
        v.get("result").cloned().expect("metrics result")
    }

    fn open_docs(serve: &mut Serve) -> Option<f64> {
        metrics(serve).get("docs").and_then(Json::as_f64)
    }

    /// Each malformed line answers its JSON-RPC 2.0 error code (with the
    /// request's id where it has one) and the next request is still
    /// answered; only `exit` ends the loop.
    #[test]
    fn protocol_errors_do_not_kill_the_loop() {
        let mut serve = Serve::new(CheckerOptions::default());
        let deep = "[".repeat(200_000);
        for (bad, code, id) in [
            ("not json", -32700.0, Json::Null),
            (deep.as_str(), -32700.0, Json::Null),
            ("", -32700.0, Json::Null),
            ("{}", -32600.0, Json::Null),
            ("[1, 2]", -32600.0, Json::Null),
            (
                r#"{"jsonrpc":"2.0","id":4,"method":7}"#,
                -32600.0,
                Json::num(4.0),
            ),
            (
                r#"{"cmd":"load","source":"var x = 1;"}"#,
                -32600.0,
                Json::Null,
            ),
            (r#"{"cmd":"quit"}"#, -32600.0, Json::Null),
            (
                r#"{"jsonrpc":"2.0","id":5,"method":"nope"}"#,
                -32601.0,
                Json::num(5.0),
            ),
        ] {
            let (resp, quit) = serve.handle(bad);
            assert!(!quit, "{bad:?} ended the loop");
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("id"), Some(&id), "{bad:?}: {resp}");
            let got = v.get("error").and_then(|e| e.get("code"));
            assert_eq!(got.and_then(Json::as_f64), Some(code), "{bad:?}: {resp}");
            assert_eq!(open_docs(&mut serve), Some(0.0), "after {bad:?}");
        }
        let (resp, quit) = serve.handle(r#"{"jsonrpc":"2.0","method":"exit"}"#);
        assert!(resp.is_empty() && quit);
    }

    /// Input that once took the server down publishes one parse
    /// diagnostic, and the next request is answered: a non-ASCII
    /// character where an operator belongs (it panicked the lexer) and
    /// parentheses nested far past the parser's depth bound (they
    /// overflowed its stack). A debug build's parser frames are many
    /// times a release build's, so the requests run on a thread with a
    /// large stack.
    #[test]
    fn non_ascii_operator_publishes_a_parse_diagnostic() {
        let deep = format!("var x = {}1{};\n", "(".repeat(100_000), ")".repeat(100_000));
        let inputs = [
            (
                "function f(x: number): number { return x \u{2014} 1; }\n".to_string(),
                "'\u{2014}'",
            ),
            (deep, "nesting deeper than"),
        ];
        let run = move || {
            for (i, (text, expected)) in inputs.iter().enumerate() {
                let uri = format!("file:///bad{i}.rsc");
                let mut serve = Serve::new(CheckerOptions::default());
                let (resp, _) = serve.handle(&did_open(&uri, text));
                let lines = parse_lines(&resp);
                assert_eq!(lines.len(), 1, "{resp}");
                match lines[0].get("params").and_then(|p| p.get("diagnostics")) {
                    Some(Json::Arr(ds)) => {
                        assert_eq!(ds.len(), 1, "{resp}");
                        let msg = ds[0].get("message").and_then(Json::as_str).unwrap();
                        assert!(msg.contains(expected), "{resp}");
                    }
                    other => panic!("bad diagnostics: {other:?}"),
                }
                assert_eq!(open_docs(&mut serve), Some(1.0));
            }
        };
        std::thread::Builder::new()
            .stack_size(256 << 20)
            .spawn(run)
            .expect("spawn")
            .join()
            .expect("no panic");
    }

    #[test]
    fn lsp_initialize_and_shutdown() {
        let mut serve = Serve::new(CheckerOptions::default());
        let (resp, quit) =
            serve.handle(r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#);
        assert!(!quit);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_f64), Some(1.0));
        let caps = v.get("result").and_then(|r| r.get("capabilities"));
        assert!(caps.is_some(), "{resp}");
        // `initialized` is a notification: no response line.
        let (resp, quit) = serve.handle(r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#);
        assert!(resp.is_empty() && !quit);
        let (resp, _) = serve.handle(r#"{"jsonrpc":"2.0","id":2,"method":"shutdown"}"#);
        assert_eq!(Json::parse(&resp).unwrap().get("result"), Some(&Json::Null));
        let (resp, quit) = serve.handle(r#"{"jsonrpc":"2.0","method":"exit"}"#);
        assert!(resp.is_empty() && quit);
    }

    #[test]
    fn lsp_open_edit_cycle_publishes_ranged_diagnostics() {
        let uri = "file:///buffer.rsc";
        let mut serve = Serve::new(CheckerOptions::default());

        // Clean open: publishDiagnostics with an empty list.
        let (resp, _) = serve.handle(&did_open(uri, PROG));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("method").and_then(Json::as_str),
            Some("textDocument/publishDiagnostics"),
            "{resp}"
        );
        let params = v.get("params").unwrap();
        assert_eq!(params.get("uri").and_then(Json::as_str), Some(uri));
        assert_eq!(params.get("diagnostics"), Some(&Json::Arr(vec![])));
        assert_eq!(
            v.get("rsc").and_then(|r| r.get("verified")),
            Some(&Json::Bool(true))
        );

        // Broken edit: a diagnostic with a non-dummy LSP range and a code.
        let bad = PROG.replace("return x;\n}", "return x - 1;\n}");
        let (resp, _) = serve.handle(&did_change(uri, &bad));
        let v = Json::parse(&resp).unwrap();
        let diags = match v.get("params").and_then(|p| p.get("diagnostics")) {
            Some(Json::Arr(ds)) if !ds.is_empty() => ds.clone(),
            other => panic!("expected diagnostics, got {other:?}: {resp}"),
        };
        for d in &diags {
            let range = d.get("range").expect("range");
            let start = range.get("start").expect("start");
            let end = range.get("end").expect("end");
            let sl = start.get("line").and_then(Json::as_f64).unwrap();
            let sc = start.get("character").and_then(Json::as_f64).unwrap();
            let el = end.get("line").and_then(Json::as_f64).unwrap();
            let ec = end.get("character").and_then(Json::as_f64).unwrap();
            assert!(
                (el, ec) > (sl, sc),
                "range must be non-dummy (start < end): {d:?}"
            );
            let code = d.get("code").and_then(Json::as_str).expect("code");
            assert!(code.starts_with('R'), "{code}");
            assert_eq!(d.get("severity").and_then(Json::as_f64), Some(1.0));
        }
        // The session reused the untouched function's bundle.
        let rsc = v.get("rsc").unwrap();
        assert_eq!(rsc.get("verified"), Some(&Json::Bool(false)));
        assert!(rsc.get("reused").and_then(Json::as_f64).unwrap() > 0.0);

        // Fix it back: clean again.
        let (resp, _) = serve.handle(&did_change(uri, PROG));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("rsc").and_then(|r| r.get("verified")),
            Some(&Json::Bool(true))
        );
    }

    /// The PR-5 headline regression: two documents, interleaved
    /// didOpen/didChange — each document's counters stay warm across
    /// switches (the single-session server re-checked cold on every
    /// switch).
    #[test]
    fn multi_document_sessions_stay_warm() {
        let u1 = "file:///w/a.rsc";
        let u2 = "file:///w/b.rsc";
        let prog2 = PROG.replace("abs", "abs2").replace("dbl", "dbl2");
        let mut serve = Serve::new(CheckerOptions::default());

        let (resp, _) = serve.handle(&did_open(u1, PROG));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("rsc").unwrap().get("verified"),
            Some(&Json::Bool(true))
        );

        let (resp, _) = serve.handle(&did_open(u2, &prog2));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("params").unwrap().get("uri").and_then(Json::as_str),
            Some(u2)
        );

        // Switch back to document 1 and edit it: its other function's
        // bundle must be *reused*, not re-solved cold.
        let bad = PROG.replace("return x;\n}", "return x - 1;\n}");
        let (resp, _) = serve.handle(&did_change(u1, &bad));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("params").unwrap().get("uri").and_then(Json::as_str),
            Some(u1)
        );
        let rsc = v.get("rsc").unwrap();
        assert_eq!(rsc.get("verified"), Some(&Json::Bool(false)));
        assert!(
            rsc.get("reused").and_then(Json::as_f64).unwrap() > 0.0,
            "document 1 re-checked cold after a switch: {resp}"
        );

        // Edit document 2: warm too.
        let bad2 = prog2.replace("return x;\n}", "return x - 1;\n}");
        let (resp, _) = serve.handle(&did_change(u2, &bad2));
        let rsc = Json::parse(&resp).unwrap().get("rsc").cloned().unwrap();
        assert!(rsc.get("reused").and_then(Json::as_f64).unwrap() > 0.0);

        // Edit document 1 again (third switch): still warm, and
        // re-sending its text verbatim hits the fast path.
        let (resp, _) = serve.handle(&did_change(u1, PROG));
        let rsc = Json::parse(&resp).unwrap().get("rsc").cloned().unwrap();
        assert!(rsc.get("reused").and_then(Json::as_f64).unwrap() > 0.0);
        let (resp, _) = serve.handle(&did_change(u1, PROG));
        let rsc = Json::parse(&resp).unwrap().get("rsc").cloned().unwrap();
        assert_eq!(rsc.get("fast_path"), Some(&Json::Bool(true)), "{resp}");
    }

    /// An import-connected pair: editing the exporting document
    /// re-checks the importer and publishes for both URIs; cross-file
    /// dirtiness is reported precisely.
    #[test]
    fn imports_recheck_importers_across_uris() {
        let lib_uri = "file:///w/lib.rsc";
        let app_uri = "file:///w/app.rsc";
        let lib = "type nat = {v: number | 0 <= v};\n\
            export function step(x: number): nat {\n\
                if (x < 0) { return 0; }\n\
                return x + 1;\n\
            }\n\
            function helper(y: number): number { return y; }\n";
        let app = "import {step} from \"./lib.rsc\";\n\
            function use(k: number): {v: number | 0 <= v} {\n\
                return step(k);\n\
            }\n";
        let mut serve = Serve::new(CheckerOptions::default());
        let (resp, _) = serve.handle(&did_open(lib_uri, lib));
        assert_eq!(parse_lines(&resp).len(), 1);
        let (resp, _) = serve.handle(&did_open(app_uri, app));
        // lib is an open document, so app's check publishes only for app.
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 1, "{resp}");
        assert_eq!(
            lines[0]
                .get("params")
                .unwrap()
                .get("uri")
                .and_then(Json::as_str),
            Some(app_uri)
        );
        assert_eq!(
            lines[0].get("rsc").unwrap().get("verified"),
            Some(&Json::Bool(true)),
            "{resp}"
        );

        // Non-exported body edit in lib: nothing the importer can
        // observe changed, so its re-check is skipped entirely — only
        // lib re-publishes, and the skip is reported in its counters.
        let (resp, _) = serve.handle(&did_change(
            lib_uri,
            &lib.replace("return y;", "return y + 1;"),
        ));
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 1, "{resp}");
        assert_eq!(
            lines[0]
                .get("params")
                .unwrap()
                .get("uri")
                .and_then(Json::as_str),
            Some(lib_uri)
        );
        let lib_rsc = lines[0].get("rsc").unwrap();
        assert_eq!(
            lib_rsc.get("importers_skipped").and_then(Json::as_f64),
            Some(1.0),
            "{resp}"
        );

        // Exported-signature edit: the importer's calling unit is dirty
        // and the dependency is named.
        let sig_edit = lib.replace(
            "export function step(x: number): nat {",
            "export function step(x: number): {v: number | 0 <= v && x < v} {",
        );
        let (resp, _) = serve.handle(&did_change(lib_uri, &sig_edit));
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 2, "{resp}");
        assert_eq!(
            lines[0]
                .get("rsc")
                .unwrap()
                .get("importers_skipped")
                .and_then(Json::as_f64),
            Some(0.0),
            "{resp}"
        );
        let app_rsc = lines[1].get("rsc").unwrap();
        assert_eq!(
            app_rsc.get("deps_changed"),
            Some(&Json::Arr(vec![Json::str(lib_uri)]))
        );
        match app_rsc.get("dirty_own") {
            Some(Json::Arr(units)) => {
                assert!(units.contains(&Json::str("fun:use")), "{resp}")
            }
            other => panic!("missing dirty_own: {other:?}"),
        }
    }

    /// Satellite: a mixed contentChanges array where only a *non-last*
    /// element carries a range must be rejected, and an empty array is a
    /// parameter error.
    #[test]
    fn did_change_rejects_any_range_and_empty_changes() {
        let uri = "file:///x.rsc";
        let mut serve = Serve::new(CheckerOptions::default());
        serve.handle(&did_open(uri, PROG));
        // Mixed array: [{range,text}, {text}] — previously accepted
        // silently because only the last element was inspected.
        let mixed = lsp_req(
            "textDocument/didChange",
            Json::Obj(vec![
                (
                    "textDocument".into(),
                    Json::Obj(vec![("uri".into(), Json::str(uri))]),
                ),
                (
                    "contentChanges".into(),
                    Json::Arr(vec![
                        Json::Obj(vec![
                            ("range".into(), Json::Obj(vec![])),
                            ("text".into(), Json::str("x")),
                        ]),
                        Json::Obj(vec![("text".into(), Json::str(PROG))]),
                    ]),
                ),
            ]),
            Some(7.0),
        );
        let (resp, quit) = serve.handle(&mixed);
        assert!(!quit);
        let v = Json::parse(&resp).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(msg.contains("full-document sync"), "{resp}");
        // Empty contentChanges: a clear parameter error, not a crash or
        // a silent no-op check.
        let empty = lsp_req(
            "textDocument/didChange",
            Json::Obj(vec![
                (
                    "textDocument".into(),
                    Json::Obj(vec![("uri".into(), Json::str(uri))]),
                ),
                ("contentChanges".into(), Json::Arr(vec![])),
            ]),
            Some(8.0),
        );
        let (resp, _) = serve.handle(&empty);
        let v = Json::parse(&resp).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(msg.contains("non-empty"), "{resp}");
    }

    fn range_json(sl: f64, sc: f64, el: f64, ec: f64) -> Json {
        let pos = |l: f64, c: f64| {
            Json::Obj(vec![
                ("line".into(), Json::num(l)),
                ("character".into(), Json::num(c)),
            ])
        };
        Json::Obj(vec![
            ("start".into(), pos(sl, sc)),
            ("end".into(), pos(el, ec)),
        ])
    }

    fn did_change_ranged(uri: &str, range: Json, text: &str, id: Option<f64>) -> String {
        lsp_req(
            "textDocument/didChange",
            Json::Obj(vec![
                (
                    "textDocument".into(),
                    Json::Obj(vec![("uri".into(), Json::str(uri))]),
                ),
                (
                    "contentChanges".into(),
                    Json::Arr(vec![Json::Obj(vec![
                        ("range".into(), range),
                        ("text".into(), Json::str(text)),
                    ])]),
                ),
            ]),
            id,
        )
    }

    /// Satellite: a contentChange whose range covers the whole current
    /// document is full-document sync spelled verbosely — accepted and
    /// applied — while a genuinely partial range is still refused.
    #[test]
    fn did_change_accepts_a_whole_document_range() {
        let uri = "file:///x.rsc";
        let mut serve = Serve::new(CheckerOptions::default());
        serve.handle(&did_open(uri, PROG));
        // PROG is 6 newline-terminated lines, so its last position is
        // 0-based {line: 6, character: 0} — the exact boundary.
        let bad = PROG.replace("return x;\n}", "return x - 1;\n}");
        let (resp, _) = serve.handle(&did_change_ranged(
            uri,
            range_json(0.0, 0.0, 6.0, 0.0),
            &bad,
            None,
        ));
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 1, "{resp}");
        assert_eq!(
            lines[0].get("rsc").unwrap().get("verified"),
            Some(&Json::Bool(false)),
            "whole-document range edit was not applied: {resp}"
        );
        // A range past the end also counts as covering.
        let (resp, _) = serve.handle(&did_change_ranged(
            uri,
            range_json(0.0, 0.0, 999.0, 0.0),
            PROG,
            None,
        ));
        assert_eq!(
            parse_lines(&resp)[0].get("rsc").unwrap().get("verified"),
            Some(&Json::Bool(true)),
            "{resp}"
        );
        // A genuinely partial range (first line only) is still an
        // InvalidParams error and the overlay is untouched.
        let (resp, _) = serve.handle(&did_change_ranged(
            uri,
            range_json(0.0, 0.0, 1.0, 0.0),
            "type nat = {v: number | 0 <= v};\n",
            Some(11.0),
        ));
        let v = Json::parse(&resp).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(msg.contains("full-document sync"), "{resp}");
    }

    /// Satellite: a missing URI is an InvalidParams error (on requests)
    /// or silently dropped (on notifications) — never an alias onto a
    /// shared default buffer.
    #[test]
    fn missing_uri_is_a_param_error() {
        let mut serve = Serve::new(CheckerOptions::default());
        // didOpen with text but no uri, as a request: error mentioning
        // the uri.
        let open = lsp_req(
            "textDocument/didOpen",
            Json::Obj(vec![(
                "textDocument".into(),
                Json::Obj(vec![("text".into(), Json::str(PROG))]),
            )]),
            Some(3.0),
        );
        let (resp, _) = serve.handle(&open);
        let v = Json::parse(&resp).unwrap();
        let msg = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        assert!(msg.contains("uri"), "{resp}");
        // As a notification: dropped silently, and *no* document was
        // created under any default key.
        let open_notif = lsp_req(
            "textDocument/didOpen",
            Json::Obj(vec![(
                "textDocument".into(),
                Json::Obj(vec![("text".into(), Json::str(PROG))]),
            )]),
            None,
        );
        let (resp, _) = serve.handle(&open_notif);
        assert!(resp.is_empty(), "{resp}");
        assert_eq!(open_docs(&mut serve), Some(0.0));
        // didChange without a uri: same contract.
        let change = lsp_req(
            "textDocument/didChange",
            Json::Obj(vec![(
                "contentChanges".into(),
                Json::Arr(vec![Json::Obj(vec![("text".into(), Json::str(PROG))])]),
            )]),
            Some(4.0),
        );
        let (resp, _) = serve.handle(&change);
        let v = Json::parse(&resp).unwrap();
        assert!(v.get("error").is_some(), "{resp}");
    }

    /// `didClose` drops the document's session, and with it the
    /// verdicts `rsc/metrics` counts under `memo`.
    #[test]
    fn did_close_clears_diagnostics_and_session() {
        let uri = "file:///x.rsc";
        let mut serve = Serve::new(CheckerOptions::default());
        serve.handle(&did_open(uri, PROG));
        let memo = |serve: &mut Serve| {
            metrics(serve)
                .get("memo")
                .and_then(|m| m.get("entries"))
                .and_then(Json::as_f64)
        };
        assert!(memo(&mut serve).is_some_and(|n| n > 0.0));
        let close = lsp_req(
            "textDocument/didClose",
            Json::Obj(vec![(
                "textDocument".into(),
                Json::Obj(vec![("uri".into(), Json::str(uri))]),
            )]),
            None,
        );
        let (resp, _) = serve.handle(&close);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("params").unwrap().get("diagnostics"),
            Some(&Json::Arr(vec![]))
        );
        assert_eq!(open_docs(&mut serve), Some(0.0));
        assert_eq!(memo(&mut serve), Some(0.0));
    }

    /// Diagnostics published under a *non-open* closure file's URI must
    /// be cleared with an empty publish once that file leaves the
    /// closure — otherwise the editor pins its stale errors forever.
    #[test]
    fn removed_import_clears_the_dependency_uri() {
        let dir = std::env::temp_dir().join("rsc_serve_stale_dep");
        std::fs::create_dir_all(&dir).unwrap();
        // lib.rsc lives only on disk (never didOpen'ed) and is broken.
        std::fs::write(
            dir.join("lib.rsc"),
            "export function f(): {v: number | 0 <= v} { return 0 - 1; }\n",
        )
        .unwrap();
        let app_uri = format!("file://{}/app.rsc", dir.to_str().unwrap());
        let lib_uri = format!("file://{}/lib.rsc", dir.to_str().unwrap());
        let app = "import {f} from \"./lib.rsc\";\nvar z = f();\n";
        let mut serve = Serve::new(CheckerOptions::default());
        let (resp, _) = serve.handle(&did_open(&app_uri, app));
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 2, "app + non-open lib: {resp}");
        let lib_line = lines
            .iter()
            .find(|l| {
                l.get("params").unwrap().get("uri").and_then(Json::as_str) == Some(lib_uri.as_str())
            })
            .expect("publish for the non-open dependency");
        match lib_line.get("params").unwrap().get("diagnostics") {
            Some(Json::Arr(ds)) => assert!(!ds.is_empty(), "{resp}"),
            other => panic!("bad diagnostics: {other:?}"),
        }
        // Drop the import: lib leaves the closure, so its URI must get
        // one final empty publish.
        let (resp, _) = serve.handle(&did_change(&app_uri, "var z = 1;\n"));
        let lines = parse_lines(&resp);
        assert_eq!(lines.len(), 2, "app + clearing publish for lib: {resp}");
        let lib_line = lines
            .iter()
            .find(|l| {
                l.get("params").unwrap().get("uri").and_then(Json::as_str) == Some(lib_uri.as_str())
            })
            .expect("clearing publish for the departed dependency");
        assert_eq!(
            lib_line.get("params").unwrap().get("diagnostics"),
            Some(&Json::Arr(vec![])),
            "{resp}"
        );
        // Steady state: no more publishes for lib.
        let (resp, _) = serve.handle(&did_change(&app_uri, "var z = 2;\n"));
        assert_eq!(parse_lines(&resp).len(), 1, "{resp}");
    }

    #[test]
    fn malformed_requests_error_while_notifications_stay_silent() {
        let mut serve = Serve::new(CheckerOptions::default());
        // A malformed *request* (it carries an id) errors without
        // killing the loop…
        let (resp, quit) =
            serve.handle(r#"{"jsonrpc":"2.0","id":9,"method":"textDocument/didOpen","params":{}}"#);
        assert!(!quit);
        let v = Json::parse(&resp).unwrap();
        let code = v.get("error").and_then(|e| e.get("code"));
        assert_eq!(code.and_then(Json::as_f64), Some(-32602.0), "{resp}");
        // …while a malformed *notification* (no id) is dropped silently:
        // the spec forbids responding to notifications.
        let (resp, quit) =
            serve.handle(r#"{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{}}"#);
        assert!(resp.is_empty() && !quit, "{resp}");
        let (resp, _) = serve.handle(&did_open("file:///x.rsc", PROG));
        assert!(resp.contains("publishDiagnostics"), "{resp}");
    }

    /// The loop writes one line per response, skips blank lines and
    /// silent notifications, survives a malformed line, and stops
    /// reading at `exit`.
    #[test]
    fn run_loop_over_buffers() {
        let script = [
            r#"{"jsonrpc":"2.0","id":1,"method":"initialize","params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","method":"initialized","params":{}}"#.to_string(),
            did_open("file:///x.rsc", PROG),
            String::new(),
            "not json".to_string(),
            r#"{"jsonrpc":"2.0","id":2,"method":"rsc/metrics"}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":3,"method":"shutdown"}"#.to_string(),
            r#"{"jsonrpc":"2.0","method":"exit"}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":4,"method":"shutdown"}"#.to_string(),
        ]
        .join("\n");
        let mut out = Vec::new();
        Serve::run_over(
            Workspace::new(CheckerOptions::default()),
            std::io::BufReader::new(script.as_bytes()),
            &mut out,
        )
        .unwrap();
        let lines = parse_lines(std::str::from_utf8(&out).unwrap());
        // initialize, publish, parse error, metrics, shutdown — and
        // nothing for the request after `exit`.
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert!(lines[0]
            .get("result")
            .unwrap()
            .get("capabilities")
            .is_some());
        assert_eq!(
            lines[1].get("method").and_then(Json::as_str),
            Some("textDocument/publishDiagnostics")
        );
        let code = lines[2].get("error").and_then(|e| e.get("code"));
        assert_eq!(code.and_then(Json::as_f64), Some(-32700.0));
        let m = lines[3].get("result").unwrap();
        assert_eq!(m.get("docs").and_then(Json::as_f64), Some(1.0));
        let checks = m.get("counters").and_then(|c| c.get("checks_total"));
        assert_eq!(checks.and_then(Json::as_f64), Some(1.0));
        let timing = m.get("timing").unwrap();
        assert_eq!(timing.get("checks").and_then(Json::as_f64), Some(1.0));
        assert_eq!(lines[4].get("id").and_then(Json::as_f64), Some(3.0));
        assert_eq!(lines[4].get("result"), Some(&Json::Null));
    }
}
