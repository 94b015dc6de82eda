//! The `rsc serve` protocol: newline-delimited JSON requests on stdin,
//! one JSON value per line on stdout.
//!
//! The server state is a [`Workspace`]: one document session per
//! URI/path, each retaining its own verdicts over one shared VC cache,
//! so interleaved edits across documents never re-check cold and
//! `import`-connected files re-check their importers automatically.
//!
//! Two request shapes share the transport:
//!
//! # Legacy `cmd` requests
//!
//! | request                                   | effect                              |
//! |-------------------------------------------|-------------------------------------|
//! | `{"cmd":"load","path":"f.rsc"}`           | read file, (re-)check its closure   |
//! | `{"cmd":"load","source":"…"}`             | check the inline source             |
//! | `{"cmd":"edit","source":"…"}`             | replace the text, incremental check |
//! | `{"cmd":"edit","path":"f.rsc"}`           | re-read the file, incremental check |
//! | `{"cmd":"check"}`                         | re-check the active document        |
//! | `{"cmd":"stats"}`                         | session + VC-cache counters + timing|
//! | `{"cmd":"metrics"}`                       | counters, cache rates, latency, phases |
//! | `{"cmd":"reset"}`                         | drop all documents and the cache    |
//! | `{"cmd":"quit"}`                          | acknowledge and exit                |
//!
//! Each `load`/`edit` names a document: the `path` is its key (inline
//! sources without a path share the `inline:buffer` key). Check
//! responses look like:
//!
//! ```json
//! {"ok":true,"cmd":"edit","path":"a.rsc","verified":false,
//!  "diagnostics":[{"severity":"error","line":12,"code":"R0008","message":"…"}],
//!  "bundles":9,"reused":8,"solved":1,"fast_path":false,
//!  "dirty_units":["fun:step"],"deps_changed":[],"dirty_own":["fun:step"],
//!  "importers":[{"path":"b.rsc","verified":true,"reused":4,"solved":0,
//!                "deps_changed":[],"dirty_own":[]}],
//!  "time_us":1234}
//! ```
//!
//! In a multi-file closure each diagnostic carries a `file` field and a
//! `line` local to that file; editing a file that other loaded
//! documents import re-checks those importers too (summarized under
//! `importers`). Errors (unreadable file, bad JSON, unknown command)
//! come back as `{"ok":false,"error":"…"}` and never kill the loop.
//!
//! # LSP-shaped `method` requests
//!
//! Requests carrying a `method` field speak a Language-Server-Protocol
//! subset over the same NDJSON transport (one JSON value per line, no
//! `Content-Length` framing):
//!
//! | method                     | effect                                          |
//! |----------------------------|-------------------------------------------------|
//! | `initialize`               | `{"id":…,"result":{"capabilities":…}}`          |
//! | `initialized`              | notification, no response line                  |
//! | `textDocument/didOpen`     | open `params.textDocument.uri`, check, publish  |
//! | `textDocument/didChange`   | re-check the URI with the last full text        |
//! | `textDocument/didClose`    | drop the URI's session, clear its diagnostics   |
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
//! `dirty_own` (dirty units in the published document itself).
//!
//! A missing `params.textDocument.uri` is an `InvalidParams` error —
//! defaulting two malformed clients onto one shared buffer would alias
//! their documents. So are range-carrying `contentChanges` entries
//! (*any* element, not just the last: this server advertises
//! full-document sync) and an empty `contentChanges` array. As the spec
//! demands, malformed *requests* (carrying an `id`) get a JSON-RPC
//! error while malformed notifications are dropped silently.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufRead, Write};
use std::sync::Mutex;

use rsc_core::{CheckerOptions, Diagnostic};
use rsc_syntax::LineIndex;

use crate::json::Json;
use crate::workspace::{disk_path, DocReport, Workspace};

/// The document key for legacy inline sources that never named a path.
const INLINE_KEY: &str = "inline:buffer";

/// The state behind one `rsc serve` loop.
pub struct Serve {
    ws: Workspace,
    /// The most recently checked document (bare `edit`/`check` target).
    active: Option<String>,
    /// Per-document: true when the current text arrived inline (an
    /// editor buffer) rather than from disk — a bare `check` must then
    /// re-check the buffer, not silently revert to the file's on-disk
    /// contents.
    inline: HashMap<String, bool>,
    /// Per-document: the URIs its last check published diagnostics for.
    /// When a file leaves a document's closure (an import removed, a
    /// specifier that stopped resolving), its URI gets one final empty
    /// publish — otherwise the client would pin its stale errors
    /// forever.
    published: HashMap<String, BTreeSet<String>>,
    /// Cumulative per-phase `(count, total_ns)` across every check this
    /// server ran — the `stats`/`metrics` timing summary. Keyed by phase
    /// name (sorted), so exports are deterministic given the same spans.
    phase_acc: BTreeMap<&'static str, (u64, u64)>,
    /// Monotonic counters plus the check-latency histogram
    /// (p50/p90/p99) behind `{"cmd":"metrics"}`.
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
            active: None,
            inline: HashMap::new(),
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
        let line = line.trim();
        if line.is_empty() {
            return (err("empty request"), false);
        }
        let req = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return (err(&format!("bad JSON: {e}")), false),
        };
        if req.get("method").and_then(Json::as_str).is_some() {
            return self.handle_lsp(&req);
        }
        let cmd = match req.get("cmd").and_then(Json::as_str) {
            Some(c) => c.to_string(),
            None => return (err("missing \"cmd\" (or LSP \"method\")"), false),
        };
        match cmd.as_str() {
            "load" | "edit" => {
                let inline_src = req.get("source").and_then(Json::as_str).map(str::to_string);
                let path = req.get("path").and_then(Json::as_str).map(str::to_string);
                let key = match path.clone().or_else(|| self.active.clone()) {
                    Some(k) => k,
                    None if inline_src.is_some() => INLINE_KEY.to_string(),
                    None => return (err("need \"source\" or \"path\""), false),
                };
                let (text, is_inline) = match inline_src {
                    Some(s) => (s, true),
                    None => match read_doc(&key) {
                        Ok(t) => (t, false),
                        Err(e) => return (err(&e), false),
                    },
                };
                self.inline.insert(key.clone(), is_inline);
                self.active = Some(key.clone());
                let (reports, timing) = self.checked_update(&key, text);
                (check_response(&cmd, &key, &reports, timing), false)
            }
            "check" => {
                let Some(key) = self.active.clone() else {
                    return (err("nothing loaded"), false);
                };
                // Inline buffers re-check as-is; path-backed documents
                // re-read the disk (the file may have changed under us).
                let inline = self.inline.get(&key).copied().unwrap_or(true);
                let text = if inline {
                    self.ws.doc_text(&key).unwrap_or_default().to_string()
                } else {
                    match read_doc(&key) {
                        Ok(text) => text,
                        Err(e) => return (err(&e), false),
                    }
                };
                let (reports, timing) = self.checked_update(&key, text);
                (check_response("check", &key, &reports, timing), false)
            }
            "stats" => (self.stats_response(), false),
            "metrics" => (self.metrics_response(), false),
            "reset" => {
                self.ws.reset();
                self.active = None;
                self.inline.clear();
                self.published.clear();
                (
                    Json::Obj(vec![
                        ("ok".into(), Json::Bool(true)),
                        ("cmd".into(), Json::str("reset")),
                    ])
                    .to_string(),
                    false,
                )
            }
            "quit" => (
                Json::Obj(vec![
                    ("ok".into(), Json::Bool(true)),
                    ("cmd".into(), Json::str("quit")),
                ])
                .to_string(),
                true,
            ),
            other => (err(&format!("unknown cmd {other:?}")), false),
        }
    }

    /// Dispatches one LSP-shaped request (`method` field present).
    /// Notifications that warrant no response return an empty line,
    /// which [`Serve::run`] skips.
    fn handle_lsp(&mut self, req: &Json) -> (String, bool) {
        let method = req.get("method").and_then(Json::as_str).unwrap_or_default();
        let id = req.get("id").cloned().unwrap_or(Json::Null);
        match method {
            "initialize" => {
                let result = Json::Obj(vec![
                    (
                        "capabilities".into(),
                        Json::Obj(vec![
                            // 1 = full-document sync; didChange carries the
                            // whole text.
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
                ]);
                (lsp_response(id, result), false)
            }
            "initialized" => (String::new(), false),
            "shutdown" => (lsp_response(id, Json::Null), false),
            "exit" => (String::new(), true),
            "textDocument/didOpen" => {
                let doc = req.get("params").and_then(|p| p.get("textDocument"));
                // A missing URI is a hard parameter error: defaulting to
                // a shared buffer would alias documents from two
                // malformed clients onto one session.
                let Some(uri) = doc.and_then(|d| d.get("uri")).and_then(Json::as_str) else {
                    return (
                        notification_param_error(req, id, "didOpen needs params.textDocument.uri"),
                        false,
                    );
                };
                let uri = uri.to_string();
                let Some(text) = doc.and_then(|d| d.get("text")).and_then(Json::as_str) else {
                    return (
                        notification_param_error(req, id, "didOpen needs params.textDocument.text"),
                        false,
                    );
                };
                let text = text.to_string();
                (self.lsp_check(&uri, text), false)
            }
            "textDocument/didChange" => {
                let params = req.get("params");
                let Some(uri) = params
                    .and_then(|p| p.get("textDocument"))
                    .and_then(|d| d.get("uri"))
                    .and_then(Json::as_str)
                else {
                    return (
                        notification_param_error(
                            req,
                            id,
                            "didChange needs params.textDocument.uri",
                        ),
                        false,
                    );
                };
                let uri = uri.to_string();
                // Full-document sync (advertised as textDocumentSync: 1):
                // fold the changes over the current overlay. An element
                // without a `range` replaces the whole document, and so
                // does one whose range demonstrably *covers* the whole
                // current document (start at 0:0, end at or past the
                // last position) — some clients spell full sync that
                // way. A genuinely partial range is refused loudly:
                // silently checking a fragment as the whole buffer
                // would publish garbage diagnostics and corrupt the
                // remembered document text.
                let changes = match params.and_then(|p| p.get("contentChanges")) {
                    Some(Json::Arr(changes)) if !changes.is_empty() => changes.clone(),
                    _ => {
                        return (
                            notification_param_error(
                                req,
                                id,
                                "didChange needs a non-empty params.contentChanges array",
                            ),
                            false,
                        )
                    }
                };
                let mut cur = self
                    .ws
                    .doc_text(&uri)
                    .map(str::to_string)
                    .unwrap_or_default();
                for ch in &changes {
                    let Some(text) = ch.get("text").and_then(Json::as_str) else {
                        return (
                            notification_param_error(
                                req,
                                id,
                                "didChange needs params.contentChanges[…].text",
                            ),
                            false,
                        );
                    };
                    if let Some(range) = ch.get("range") {
                        if !range_covers_document(range, &cur) {
                            return (
                                notification_param_error(
                                    req,
                                    id,
                                    "incremental (partial range) changes are not supported; \
                                     this server uses full-document sync (textDocumentSync: 1, \
                                     whole-document ranges accepted)",
                                ),
                                false,
                            );
                        }
                    }
                    cur = text.to_string();
                }
                (self.lsp_check(&uri, cur), false)
            }
            "textDocument/didClose" => {
                let Some(uri) = req
                    .get("params")
                    .and_then(|p| p.get("textDocument"))
                    .and_then(|d| d.get("uri"))
                    .and_then(Json::as_str)
                else {
                    return (
                        notification_param_error(req, id, "didClose needs params.textDocument.uri"),
                        false,
                    );
                };
                let uri = uri.to_string();
                self.ws.close(&uri);
                self.inline.remove(&uri);
                if self.active.as_deref() == Some(uri.as_str()) {
                    self.active = None;
                }
                // Clear the closed document's diagnostics client-side —
                // its own URI plus every closure URI its last check
                // published for (open importers will re-claim theirs on
                // their next check).
                let mut uris = self.published.remove(&uri).unwrap_or_default();
                uris.insert(uri);
                let lines: Vec<String> = uris.iter().map(|u| publish_empty(u)).collect();
                (lines.join("\n"), false)
            }
            other => (
                // MethodNotFound: spec-following clients degrade silently.
                lsp_error_code(id, -32601.0, &format!("unknown method {other:?}")),
                false,
            ),
        }
    }

    /// Checks `text` as the document `uri` through the workspace and
    /// renders one `publishDiagnostics` notification per affected URI —
    /// plus one final *empty* publish for every URI the same document
    /// published for last time but no longer covers (a removed import's
    /// diagnostics must not stay pinned in the editor).
    fn lsp_check(&mut self, uri: &str, text: String) -> String {
        self.inline.insert(uri.to_string(), true);
        self.active = Some(uri.to_string());
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

    fn stats_response(&self) -> String {
        let c = self.ws.cache().counters();
        let mut fields = vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("stats")),
            ("docs".into(), Json::num(self.ws.doc_count() as f64)),
            ("cache_entries".into(), Json::num(c.entries as f64)),
            ("cache_hits".into(), Json::num(c.hits as f64)),
            ("cache_misses".into(), Json::num(c.misses as f64)),
            ("cache_evictions".into(), Json::num(c.evictions as f64)),
            // Cumulative across the server's lifetime, so the smoke
            // harness can assert session + skip counters + timing on
            // this one object.
            (
                "importers_skipped".into(),
                Json::num(self.registry.counter("importers_skipped_total") as f64),
            ),
            ("timing".into(), self.timing_summary()),
        ];
        if let Some(last) = self.active.as_ref().and_then(|k| self.ws.last(k)) {
            fields.push((
                "bundles".into(),
                Json::num(last.outcome.incr.bundles as f64),
            ));
            fields.push(("verified".into(), Json::Bool(last.outcome.result.ok())));
        }
        Json::Obj(fields).to_string()
    }

    /// The aggregate timing summary shared by `stats` and `metrics`:
    /// check-latency percentiles plus cumulative per-phase milliseconds.
    fn timing_summary(&self) -> Json {
        let lat = self.registry.histogram("check_latency");
        let phases = Json::Obj(
            self.phase_acc
                .iter()
                .map(|(name, (_, total_ns))| (name.to_string(), Json::num(ns_to_ms(*total_ns))))
                .collect(),
        );
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
        ])
    }

    /// `{"cmd":"metrics"}`: the ROADMAP's `/metrics`-style surface —
    /// monotonic counters, cache hit rate, and check-latency
    /// percentiles, all derived from the registry (never from verdicts).
    fn metrics_response(&self) -> String {
        let c = self.ws.cache().counters();
        let counters = Json::Obj(
            self.registry
                .counters()
                .map(|(name, v)| (name.to_string(), Json::num(v as f64)))
                .collect(),
        );
        Json::Obj(vec![
            ("ok".into(), Json::Bool(true)),
            ("cmd".into(), Json::str("metrics")),
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
            ("timing".into(), self.timing_summary()),
        ])
        .to_string()
    }

    /// Runs the serve loop over arbitrary reader/writer pairs (stdin and
    /// stdout in the binary; in-memory buffers in tests and CI drivers).
    pub fn run(
        opts: CheckerOptions,
        reader: impl BufRead,
        writer: impl Write,
    ) -> std::io::Result<()> {
        Serve::run_over(Workspace::new(opts), reader, writer)
    }

    /// [`Serve::run`] over a caller-built workspace (e.g. one with a
    /// persistent `--vc-cache` tier attached).
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

/// Reads a legacy document key's backing file from disk.
fn read_doc(key: &str) -> Result<String, String> {
    let path = disk_path(key).ok_or_else(|| format!("`{key}` has no backing file"))?;
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

fn err(msg: &str) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        ("error".into(), Json::str(msg)),
    ])
    .to_string()
}

fn lsp_response(id: Json, result: Json) -> String {
    Json::Obj(vec![
        ("jsonrpc".into(), Json::str("2.0")),
        ("id".into(), id),
        ("result".into(), result),
    ])
    .to_string()
}

/// JSON-RPC error codes: `-32601` MethodNotFound, `-32602` InvalidParams.
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

fn lsp_error(id: Json, msg: &str) -> String {
    lsp_error_code(id, -32602.0, msg)
}

/// InvalidParams for a request that carried an `id`; silence for a true
/// notification (the spec forbids responding to notifications, and a
/// response with `id: null` reads as a protocol error to clients).
fn notification_param_error(req: &Json, id: Json, msg: &str) -> String {
    if req.get("id").is_some() {
        lsp_error(id, msg)
    } else {
        String::new()
    }
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

/// One importer's summary inside a legacy check response.
fn importer_summary(report: &DocReport) -> Json {
    Json::Obj(vec![
        ("path".into(), Json::str(report.uri.clone())),
        ("verified".into(), Json::Bool(report.outcome.result.ok())),
        (
            "reused".into(),
            Json::num(report.outcome.incr.reused as f64),
        ),
        (
            "solved".into(),
            Json::num(report.outcome.incr.solved as f64),
        ),
        ("deps_changed".into(), str_arr(&report.deps_changed)),
        ("dirty_own".into(), str_arr(&report.dirty_own)),
    ])
}

fn check_response(cmd: &str, key: &str, reports: &[DocReport], timing: Json) -> String {
    let report = &reports[0];
    let outcome = &report.outcome;
    let multi_file = report.merged.files.len() > 1;
    let render_diag = |d: &Diagnostic| {
        let (fi, local) = report.merged.localize(d);
        let severity = match local.severity {
            rsc_core::Severity::Error => "error",
            rsc_core::Severity::Warning => "warning",
            rsc_core::Severity::Note => "note",
        };
        let mut fields = vec![
            ("severity".into(), Json::str(severity)),
            ("line".into(), Json::num(local.span.line as f64)),
            ("message".into(), Json::str(local.message.clone())),
        ];
        if let Some(code) = local.code {
            fields.insert(1, ("code".into(), Json::str(code)));
        }
        if multi_file {
            fields.push((
                "file".into(),
                Json::str(report.merged.files[fi].name.clone()),
            ));
        }
        Json::Obj(fields)
    };
    let diags: Vec<Json> = outcome.result.diagnostics.iter().map(render_diag).collect();
    let lints: Vec<Json> = outcome.result.lints.iter().map(render_diag).collect();
    // Unit names over a qualified merged program carry module prefixes;
    // strip them — user-visible output never shows mangled names.
    let dirty_units: Vec<String> = outcome
        .incr
        .dirty_units
        .iter()
        .map(|n| report.merged.demangle(n))
        .collect();
    let mut fields = vec![
        ("ok".into(), Json::Bool(true)),
        ("cmd".into(), Json::str(cmd)),
        ("path".into(), Json::str(key)),
        ("verified".into(), Json::Bool(outcome.result.ok())),
        ("diagnostics".into(), Json::Arr(diags)),
        ("lints".into(), Json::Arr(lints)),
        ("bundles".into(), Json::num(outcome.incr.bundles as f64)),
        ("reused".into(), Json::num(outcome.incr.reused as f64)),
        ("solved".into(), Json::num(outcome.incr.solved as f64)),
        ("fast_path".into(), Json::Bool(outcome.incr.fast_path)),
        (
            "importers_skipped".into(),
            Json::num(outcome.incr.importers_skipped as f64),
        ),
        ("dirty_units".into(), str_arr(&dirty_units)),
        ("deps_changed".into(), str_arr(&report.deps_changed)),
        ("dirty_own".into(), str_arr(&report.dirty_own)),
    ];
    if reports.len() > 1 {
        fields.push((
            "importers".into(),
            Json::Arr(reports[1..].iter().map(importer_summary).collect()),
        ));
    }
    fields.push((
        "time_us".into(),
        Json::num(outcome.incr.total_micros as f64),
    ));
    fields.push(("timing_ms".into(), timing));
    Json::Obj(fields).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "type nat = {v: number | 0 <= v};\nfunction abs(x: number): nat {\n    if (x < 0) { return 0 - x; }\n    return x;\n}\nfunction dbl(y: nat): nat { return y + y; }\n";

    fn load_req(src: &str) -> String {
        Json::Obj(vec![
            ("cmd".into(), Json::str("load")),
            ("source".into(), Json::str(src)),
        ])
        .to_string()
    }

    fn edit_req(src: &str) -> String {
        Json::Obj(vec![
            ("cmd".into(), Json::str("edit")),
            ("source".into(), Json::str(src)),
        ])
        .to_string()
    }

    #[test]
    fn load_edit_cycle() {
        let mut serve = Serve::new(CheckerOptions::default());
        let (resp, quit) = serve.handle(&load_req(PROG));
        assert!(!quit);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("verified"), Some(&Json::Bool(true)));
        assert_eq!(v.get("reused").unwrap().as_f64(), Some(0.0));

        // Break abs (x = 0 falls through and returns -1); id's bundle
        // is reused and the error is reported.
        let bad = PROG.replace("return x;\n}", "return x - 1;\n}");
        let (resp, _) = serve.handle(&edit_req(&bad));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("verified"), Some(&Json::Bool(false)));
        assert!(v.get("reused").unwrap().as_f64().unwrap() > 0.0);
        match v.get("diagnostics") {
            Some(Json::Arr(ds)) => assert!(!ds.is_empty()),
            other => panic!("bad diagnostics: {other:?}"),
        }

        // Fix it again: fast, verified.
        let (resp, _) = serve.handle(&edit_req(PROG));
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("verified"), Some(&Json::Bool(true)));
    }

    /// A bare `check` after an inline `edit` must re-check the inline
    /// buffer, not silently re-read the older on-disk file.
    #[test]
    fn bare_check_prefers_the_inline_buffer() {
        let dir = std::env::temp_dir().join("rsc_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("buffer.rsc");
        std::fs::write(&file, PROG).unwrap();
        let mut serve = Serve::new(CheckerOptions::default());
        let load = Json::Obj(vec![
            ("cmd".into(), Json::str("load")),
            ("path".into(), Json::str(file.to_str().unwrap())),
        ])
        .to_string();
        let (resp, _) = serve.handle(&load);
        assert_eq!(
            Json::parse(&resp).unwrap().get("verified"),
            Some(&Json::Bool(true))
        );
        // Editor submits a broken buffer; the disk file stays clean.
        let bad = PROG.replace("return x;\n}", "return x - 1;\n}");
        serve.handle(&edit_req(&bad));
        let (resp, _) = serve.handle(r#"{"cmd":"check"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(
            v.get("verified"),
            Some(&Json::Bool(false)),
            "bare check must see the inline edit, not the stale file: {resp}"
        );
        // A path-carrying edit switches back to disk.
        let reload = Json::Obj(vec![
            ("cmd".into(), Json::str("edit")),
            ("path".into(), Json::str(file.to_str().unwrap())),
        ])
        .to_string();
        let (resp, _) = serve.handle(&reload);
        assert_eq!(
            Json::parse(&resp).unwrap().get("verified"),
            Some(&Json::Bool(true))
        );
    }

    #[test]
    fn protocol_errors_do_not_kill_the_loop() {
        let mut serve = Serve::new(CheckerOptions::default());
        for bad in ["not json", "{}", r#"{"cmd":"nope"}"#, r#"{"cmd":"check"}"#] {
            let (resp, quit) = serve.handle(bad);
            assert!(!quit);
            let v = Json::parse(&resp).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{bad}");
        }
        let (_, quit) = serve.handle(r#"{"cmd":"quit"}"#);
        assert!(quit);
    }

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
        let (resp, _) = serve.handle(r#"{"cmd":"stats"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("docs").and_then(Json::as_f64), Some(0.0), "{resp}");
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

    #[test]
    fn did_close_clears_diagnostics_and_session() {
        let uri = "file:///x.rsc";
        let mut serve = Serve::new(CheckerOptions::default());
        serve.handle(&did_open(uri, PROG));
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
        let (resp, _) = serve.handle(r#"{"cmd":"stats"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("docs").and_then(Json::as_f64), Some(0.0), "{resp}");
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
    fn lsp_and_legacy_requests_interleave() {
        let mut serve = Serve::new(CheckerOptions::default());
        let (resp, _) = serve.handle(&did_open("file:///x.rsc", PROG));
        assert!(resp.contains("publishDiagnostics"));
        // A legacy bare `check` sees the LSP buffer.
        let (resp, _) = serve.handle(r#"{"cmd":"check"}"#);
        let v = Json::parse(&resp).unwrap();
        assert_eq!(v.get("verified"), Some(&Json::Bool(true)), "{resp}");
        // Malformed LSP *request* (it carries an id) errors without
        // killing the loop…
        let (resp, quit) =
            serve.handle(r#"{"jsonrpc":"2.0","id":9,"method":"textDocument/didOpen","params":{}}"#);
        assert!(!quit);
        assert!(Json::parse(&resp).unwrap().get("error").is_some(), "{resp}");
        // …while a malformed *notification* (no id) is dropped silently:
        // the spec forbids responding to notifications.
        let (resp, quit) =
            serve.handle(r#"{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{}}"#);
        assert!(resp.is_empty() && !quit, "{resp}");
    }

    #[test]
    fn run_loop_over_buffers() {
        let script = format!(
            "{}\n{}\n{}\n{}\n",
            load_req(PROG),
            r#"{"cmd":"stats"}"#,
            r#"{"cmd":"reset"}"#,
            r#"{"cmd":"quit"}"#
        );
        let mut out = Vec::new();
        Serve::run(
            CheckerOptions::default(),
            std::io::BufReader::new(script.as_bytes()),
            &mut out,
        )
        .unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 4);
        for l in &lines {
            assert_eq!(
                Json::parse(l).unwrap().get("ok"),
                Some(&Json::Bool(true)),
                "{l}"
            );
        }
    }
}
