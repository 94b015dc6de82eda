//! The multi-file workspace model: per-URI document sessions over one
//! shared VC cache, `import`/`export` resolution, and the cross-file
//! dependency edges that make editor workloads incremental across
//! files.
//!
//! # Why this layer exists
//!
//! A [`CheckSession`] retains verdicts for exactly one evolving program
//! text. An editor, however, juggles *documents*: switching from `a.ts`
//! to `b.ts` and back must not throw away what was proved about either
//! (the PR-4 server owned a single session, so every document switch
//! re-checked cold — the bug this module fixes). A [`Workspace`] owns
//! one [`CheckSession`] per URI/path, all sharing one
//! [`VcCache`] (sound: cache keys are canonical VC
//! fingerprints, independent of which document produced them).
//!
//! # Modules, merging and qualification
//!
//! A document's check unit is its *import closure*: `import {a} from
//! "./mod"` declarations are resolved relative to the importing file
//! (trying the specifier verbatim, then with `.rsc` and `.ts`
//! appended), the closure is loaded — open documents override the disk
//! (editor overlays) — and topologically ordered (dependencies first).
//! The closure's texts are concatenated into a [`Merged`] region map,
//! and its ASTs are **module-qualified**: each file's top-level
//! declarations are α-renamed to `m{id}$name` (the id is a stable hash
//! of the file's name — [`rsc_syntax::module_id`]) and references are
//! rewritten scope-awarely, with spans shifted into the file's region
//! of the merged text (see [`rsc_syntax::qualify`]). The qualified
//! items flow as one program through the ordinary
//! `generate_artifacts`/`solve_artifacts` split.
//!
//! Qualification makes module identity real: two files declaring the
//! same non-exported `function helper` (or the same class name) no
//! longer collide in a shared global namespace, referencing another
//! module's name *without importing it* is a spanned diagnostic at the
//! use site instead of accidental capture, and an import resolves to
//! exactly the exporter's qualified declaration. Checking a workspace
//! root is equivalent to a cold check of the qualified merged program
//! ([`qualified_program`]); a single-file closure skips qualification
//! entirely and stays *byte-identical* to checking the document text.
//! Import cycles and imports of names the target never exports are
//! real diagnostics, not silent misbehavior.
//!
//! Mangled names never reach the user: [`Merged::localize`] and the
//! serve layer demangle every rendered message, note and label back to
//! source names, and `dirty_own` unit names are demangled at the
//! workspace boundary. Module ids depend only on file names, so
//! retained bundle fingerprints (which include symbol names) survive
//! adding an unrelated module to a closure — untouched modules re-solve
//! zero bundles.
//!
//! A [`Merged`] value remembers where each file landed in the
//! concatenation, so diagnostics (whose spans refer to the merged text)
//! can be attributed back to their owning file and rebased to
//! file-local positions — including cross-file secondary labels, which
//! LSP clients render via `relatedInformation` against the right URI.
//!
//! # Cross-file dependency edges
//!
//! Each closure file is fingerprinted by its
//! [`DepGraph::export_surface`] — the interface hashes of its exported
//! units plus its global declarations. The workspace records, per
//! document, the surface of every dependency at its last check; when a
//! dependency's surface changes the importer is reported in
//! `deps_changed` and its own dirty units (callers of the changed
//! export) in `dirty_own`. A non-exported body edit in `a.ts` leaves
//! `a`'s surface untouched, so [`Workspace::update`] *skips* the
//! importer re-check entirely (reported as `importers_skipped` in the
//! edited document's [`IncrStats`]) — safe because nothing an importer
//! can observe changed; an exported-signature edit dirties exactly the
//! importing units and re-checks them.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use rsc_core::{CheckResult, CheckStats, CheckerOptions, Diagnostic};
use rsc_smt::VcCache;
use rsc_syntax::ast::Program;
use rsc_syntax::qualify::{self, ModuleEnv};
use rsc_syntax::{module_id, Span};

use crate::graph::DepGraph;
use crate::session::{text_hash, CheckSession, IncrStats, SessionOutcome};

// ------------------------------------------------------------ resolution ---

/// An error raised while resolving a document's import closure: a
/// missing module, an import cycle, a name the target does not export,
/// or a parse/SSA failure inside a dependency. The span is local to
/// `file`'s own text.
#[derive(Clone, Debug)]
pub struct WorkspaceError {
    /// The file the error is attributed to.
    pub file: String,
    /// Span within `file`'s text.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
}

/// One import edge after resolution.
#[derive(Clone, Debug)]
pub struct ResolvedImport {
    /// The resolved target file (a workspace key).
    pub target: String,
    /// Span of the import declaration in the importer.
    pub span: Span,
}

/// One loaded file of an import closure.
#[derive(Clone, Debug)]
pub struct ModuleFile {
    /// Canonical name (the workspace key: a URI or path).
    pub name: String,
    /// The file's text.
    pub text: String,
    /// The file's parsed program (shared with the resolver's facts
    /// memo; qualification clones and renames its items).
    pub program: Arc<Program>,
    /// Resolved imports, in declaration order (parallel to
    /// `program.imports`).
    pub imports: Vec<ResolvedImport>,
    /// The file's export surface fingerprint
    /// ([`DepGraph::export_surface`] of the file checked alone).
    pub surface: u64,
    /// The names the file exports.
    pub exports: BTreeSet<String>,
}

/// True when `spec` already names a file extension the resolver knows.
fn has_known_ext(spec: &str) -> bool {
    spec.ends_with(".rsc") || spec.ends_with(".ts")
}

/// Joins a module specifier onto the importing file's directory,
/// folding `.` and `..` segments. Works uniformly on plain paths and
/// URI-shaped names (`file:///w/a.rsc` + `./b` → `file:///w/b.rsc`).
fn join_spec(importer: &str, spec: &str) -> String {
    let base = importer.rsplit_once('/').map(|(d, _)| d).unwrap_or("");
    let mut segs: Vec<&str> = if base.is_empty() {
        Vec::new()
    } else {
        base.split('/').collect()
    };
    for part in spec.split('/') {
        match part {
            "" | "." => {}
            ".." => {
                // Never pop through a URI authority/scheme segment.
                if segs
                    .last()
                    .is_some_and(|s| !s.is_empty() && !s.ends_with(':'))
                {
                    segs.pop();
                }
            }
            p => segs.push(p),
        }
    }
    segs.join("/")
}

/// The candidate file names a specifier can resolve to, in probe order.
fn candidates(importer: &str, spec: &str) -> Vec<String> {
    let joined = join_spec(importer, spec);
    if has_known_ext(&joined) {
        vec![joined]
    } else {
        vec![
            joined.clone(),
            format!("{joined}.rsc"),
            format!("{joined}.ts"),
        ]
    }
}

/// What resolution needs from one parsed file: its export surface,
/// export list, and import declarations. Memoized per file name keyed
/// by the text hash it was computed from, so unchanged closure files
/// are not re-parsed (or SSA-transformed, or graph-built) on every
/// keystroke of every document.
#[derive(Clone, Debug)]
struct FileFacts {
    surface: u64,
    exports: BTreeSet<String>,
    program: Arc<Program>,
}

/// Per-file-name memo of [`FileFacts`], with the hash of the text they
/// were derived from. One entry per file name (the latest text wins),
/// so the cache is bounded by the number of files ever seen.
type FactsCache = HashMap<String, (u64, FileFacts)>;

/// The session fast-path key of a resolved closure: every file's name,
/// text and resolved import targets, in closure order — everything the
/// qualified program is built from, spans included.
fn closure_key(files: &[ModuleFile]) -> u64 {
    let mut h = DefaultHasher::new();
    for f in files {
        f.name.hash(&mut h);
        f.text.hash(&mut h);
        h.write_usize(f.imports.len());
        for imp in &f.imports {
            imp.target.hash(&mut h);
        }
    }
    h.finish()
}

struct Resolver<'a> {
    lookup: &'a mut dyn FnMut(&str) -> Option<String>,
    facts: &'a mut FactsCache,
    /// Memoized loads, so overlay/disk are consulted once per file.
    loaded: HashMap<String, Option<String>>,
    /// Post-order output: dependencies strictly before importers.
    order: Vec<ModuleFile>,
    done: BTreeSet<String>,
    /// DFS stack, for cycle reporting.
    stack: Vec<String>,
}

impl Resolver<'_> {
    fn load(&mut self, name: &str) -> Option<String> {
        if let Some(t) = self.loaded.get(name) {
            return t.clone();
        }
        let t = (self.lookup)(name);
        self.loaded.insert(name.to_string(), t.clone());
        t
    }

    fn visit(&mut self, name: &str) -> Result<(), WorkspaceError> {
        let text = self.load(name).ok_or_else(|| WorkspaceError {
            file: name.to_string(),
            span: Span::dummy(),
            message: format!("cannot read module `{name}`"),
        })?;
        let err = |span, message| WorkspaceError {
            file: name.to_string(),
            span,
            message,
        };
        let hash = text_hash(&text);
        let facts = match self.facts.get(name) {
            Some((h, f)) if *h == hash => f.clone(),
            _ => {
                let prog = rsc_syntax::parse_program(&text).map_err(|e| err(e.span, e.message))?;
                let ir = rsc_ssa::transform_program(&prog).map_err(|e| err(e.span, e.message))?;
                let f = FileFacts {
                    surface: DepGraph::build(&ir).export_surface(),
                    exports: prog.exports.iter().map(|(n, _)| n.to_string()).collect(),
                    program: Arc::new(prog),
                };
                self.facts.insert(name.to_string(), (hash, f.clone()));
                f
            }
        };

        self.stack.push(name.to_string());
        let mut imports = Vec::new();
        for imp in &facts.program.imports {
            let target = candidates(name, &imp.from)
                .into_iter()
                .find(|c| self.load(c).is_some())
                .ok_or_else(|| {
                    err(
                        imp.span,
                        format!("cannot resolve import \"{}\" from `{name}`", imp.from),
                    )
                })?;
            if let Some(at) = self.stack.iter().position(|f| *f == target) {
                let mut cycle: Vec<&str> = self.stack[at..].iter().map(String::as_str).collect();
                cycle.push(&target);
                return Err(err(
                    imp.span,
                    format!("import cycle: {}", cycle.join(" → ")),
                ));
            }
            if !self.done.contains(&target) {
                self.visit(&target)?;
            }
            // The target is resolved now; validate the imported names
            // against its export list.
            let target_exports = &self
                .order
                .iter()
                .find(|f| f.name == target)
                .expect("visited module is in post-order")
                .exports;
            for (imported, nspan) in &imp.names {
                if !target_exports.contains(imported.as_str()) {
                    return Err(err(
                        *nspan,
                        format!("module `{target}` does not export `{imported}`"),
                    ));
                }
            }
            imports.push(ResolvedImport {
                target,
                span: imp.span,
            });
        }
        self.stack.pop();
        self.done.insert(name.to_string());
        self.order.push(ModuleFile {
            name: name.to_string(),
            text,
            program: facts.program,
            imports,
            surface: facts.surface,
            exports: facts.exports,
        });
        Ok(())
    }
}

/// Resolves the import closure of `root`, loading files through
/// `lookup` (which should consult editor overlays before the disk).
/// Returns the closure in topological (dependencies-first) order with
/// `root` last, or the first resolution error encountered.
pub fn resolve_closure(
    root: &str,
    lookup: &mut dyn FnMut(&str) -> Option<String>,
) -> Result<Vec<ModuleFile>, WorkspaceError> {
    resolve_closure_cached(root, lookup, &mut FactsCache::new())
}

/// [`resolve_closure`] against a persistent per-file facts memo (the
/// workspace's, surviving across checks).
fn resolve_closure_cached(
    root: &str,
    lookup: &mut dyn FnMut(&str) -> Option<String>,
    facts: &mut FactsCache,
) -> Result<Vec<ModuleFile>, WorkspaceError> {
    let mut r = Resolver {
        lookup,
        facts,
        loaded: HashMap::new(),
        order: Vec::new(),
        done: BTreeSet::new(),
        stack: Vec::new(),
    };
    r.visit(root)?;
    Ok(r.order)
}

// --------------------------------------------------------------- merging ---

/// One file's region inside a merged program text.
#[derive(Clone, Debug)]
pub struct MergedFile {
    /// The file's workspace key (URI or path).
    pub name: String,
    /// The file's own text, exactly as merged (a trailing newline is
    /// appended if the file lacked one).
    pub text: String,
    /// Byte offset of the region start in the merged text.
    pub start: u32,
    /// Number of lines strictly before the region.
    pub line_offset: u32,
}

/// A multi-file program merged by concatenation, with enough structure
/// to map merged spans back to (file, local span).
#[derive(Clone, Debug, Default)]
pub struct Merged {
    /// The concatenated program text (what the session actually checks).
    pub text: String,
    /// Per-file regions, in concatenation (topological) order.
    pub files: Vec<MergedFile>,
    /// Index of the root document's region (always the last one).
    pub root: usize,
}

impl Merged {
    /// Concatenates a resolved closure. Files are joined in the given
    /// (topological) order, each padded to end with exactly its own
    /// text plus a newline terminator when missing — so byte offsets of
    /// later files are stable under edits that don't change earlier
    /// files' lengths.
    pub fn build(files: &[ModuleFile]) -> Merged {
        let mut text = String::new();
        let mut lines = 0u32;
        let mut out = Vec::with_capacity(files.len());
        for f in files {
            let start = text.len() as u32;
            let mut t = f.text.clone();
            if !t.ends_with('\n') {
                t.push('\n');
            }
            text.push_str(&t);
            out.push(MergedFile {
                name: f.name.clone(),
                text: t,
                start,
                line_offset: lines,
            });
            lines += out
                .last()
                .expect("just pushed")
                .text
                .bytes()
                .filter(|&b| b == b'\n')
                .count() as u32;
        }
        Merged {
            text,
            root: out.len().saturating_sub(1),
            files: out,
        }
    }

    /// A degenerate single-file merge (used when resolution fails and
    /// the document must still publish something for its own URI).
    pub fn single(name: &str, text: &str) -> Merged {
        Merged::build(&[ModuleFile {
            name: name.to_string(),
            text: text.to_string(),
            program: Arc::new(Program::default()),
            imports: Vec::new(),
            surface: 0,
            exports: BTreeSet::new(),
        }])
    }

    /// The module ids of the closure files, derived from their names
    /// (the same ids [`qualified_program`] renames with).
    pub fn module_ids(&self) -> Vec<String> {
        self.files.iter().map(|f| module_id(&f.name)).collect()
    }

    /// Strips module-qualification prefixes from rendered text, so
    /// user-visible messages always show source names. The identity for
    /// single-file closures (which are never qualified).
    pub fn demangle(&self, text: &str) -> String {
        if self.files.len() <= 1 {
            return text.to_string();
        }
        qualify::demangle(text, &self.module_ids())
    }

    /// Index of the file owning a merged byte offset (clamped to the
    /// last region for out-of-range offsets, which also routes the
    /// synthetic `top` unit's `u32::MAX` marker to the root document).
    pub fn owner(&self, offset: u32) -> usize {
        match self.files.binary_search_by_key(&offset, |f| f.start) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        }
    }

    /// Rebases a merged span into its owning file's local coordinates.
    pub fn local_span(&self, span: Span) -> (usize, Span) {
        let fi = self.owner(span.lo);
        let f = &self.files[fi];
        let end = f.start + f.text.len() as u32;
        (
            fi,
            Span {
                lo: span.lo.saturating_sub(f.start),
                hi: span.hi.clamp(f.start, end) - f.start,
                line: span.line.saturating_sub(f.line_offset).max(1),
            },
        )
    }

    /// Attributes a diagnostic to its owning file and rebases every
    /// span to that file's local coordinates. Secondary labels that
    /// live in *other* files cannot be expressed as local spans, so
    /// they are folded into notes carrying an explicit
    /// `file:line` location (the LSP path keeps them as true
    /// cross-file `relatedInformation` instead — see `serve`).
    pub fn localize(&self, d: &Diagnostic) -> (usize, Diagnostic) {
        if d.span.is_dummy() {
            // Global (program-wide) diagnostics belong to the root.
            let mut out = d.clone();
            out.message = self.demangle(&out.message);
            out.notes = out.notes.iter().map(|n| self.demangle(n)).collect();
            return (self.root, out);
        }
        let (fi, span) = self.local_span(d.span);
        let mut out = d.clone();
        out.message = self.demangle(&out.message);
        out.notes = out.notes.iter().map(|n| self.demangle(n)).collect();
        out.span = span;
        out.secondary.clear();
        for (sspan, label) in &d.secondary {
            let (sfi, local) = self.local_span(*sspan);
            if sfi == fi {
                out.secondary.push((local, self.demangle(label)));
            } else {
                out.notes.push(format!(
                    "see also {}:{}: {}",
                    self.files[sfi].name,
                    local.line,
                    self.demangle(label)
                ));
            }
        }
        (fi, out)
    }
}

// --------------------------------------------------------- qualification ---

/// Builds the module-qualified program of a resolved closure: each
/// file's top-level declarations are α-renamed into its module
/// namespace (`m{id}$name`), references are rewritten scope-awarely —
/// imports resolve to the exporter's qualified declaration, a file's
/// own declarations shadow same-named imports — and every span is
/// shifted into the file's region of `merged`'s text, so diagnostics
/// over the qualified program localize exactly like diagnostics over
/// the concatenated text. Single-file closures are returned unqualified
/// and unshifted (the identity).
///
/// Errors when a file references a name declared in *another* closure
/// file without importing it — the cross-module-capture case the
/// pre-qualification merge silently accepted. The error is blamed at
/// the use site, in the referencing file's own coordinates.
pub fn qualified_program(merged: &Merged, files: &[ModuleFile]) -> Result<Program, WorkspaceError> {
    if files.len() <= 1 {
        return Ok(files
            .first()
            .map(|f| (*f.program).clone())
            .unwrap_or_default());
    }
    let ids = merged.module_ids();
    let decls: Vec<Vec<qualify::Sym>> = files
        .iter()
        .map(|f| qualify::top_level_decls(&f.program))
        .collect();
    let mut items = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let mut env = ModuleEnv::default();
        // Imports first: each imported name resolves to the exporter's
        // qualified declaration…
        for (imp, resolved) in f.program.imports.iter().zip(&f.imports) {
            let Some(t) = files.iter().position(|g| g.name == resolved.target) else {
                continue;
            };
            for (name, _) in &imp.names {
                let q = qualify::qualified_name(&ids[t], name.as_str());
                env.renames.insert(name.clone(), qualify::Sym::from(q));
            }
        }
        // …then the file's own declarations, which shadow same-named
        // imports (import-then-shadow keeps the local meaning).
        for n in &decls[i] {
            let q = qualify::qualified_name(&ids[i], n.as_str());
            env.renames.insert(n.clone(), qualify::Sym::from(q));
        }
        // Names declared only in other closure files are foreign here:
        // referencing one without an import is an error at the use site.
        for (j, other) in decls.iter().enumerate() {
            if j == i {
                continue;
            }
            for n in other {
                if !env.renames.contains_key(n) {
                    env.foreign
                        .entry(n.clone())
                        .or_insert_with(|| files[j].name.clone());
                }
            }
        }
        let region = &merged.files[i];
        let qualified =
            qualify::qualify_program(&f.program, &env, region.start, region.line_offset).map_err(
                |e| WorkspaceError {
                    file: f.name.clone(),
                    span: e.span,
                    message: format!(
                "cannot find name `{}` in this module; `{}` is declared in `{}` but not imported",
                e.name, e.name, e.from
            ),
                },
            )?;
        items.extend(qualified);
    }
    Ok(Program {
        items,
        imports: Vec::new(),
        exports: Vec::new(),
    })
}

// ------------------------------------------------------------- documents ---

/// The outcome of checking one document's import closure.
#[derive(Clone, Debug)]
pub struct DocReport {
    /// The document's workspace key.
    pub uri: String,
    /// The session outcome over the merged program (byte-identical to a
    /// cold check of [`DocReport::merged`]'s text).
    pub outcome: SessionOutcome,
    /// The merged program and its file map.
    pub merged: Merged,
    /// Dependencies whose export surface changed since this document's
    /// previous check (empty on first checks and when only non-exported
    /// code changed).
    pub deps_changed: Vec<String>,
    /// The dirty units that live in this document's own file (callers
    /// of a changed cross-file export land here; a pure dependency-body
    /// edit leaves it empty).
    pub dirty_own: Vec<String>,
}

impl DocReport {
    /// Diagnostics grouped by owning file index, one (possibly empty)
    /// entry per closure file in merge order — publishers use the empty
    /// entries to clear stale diagnostics. Errors come first within a
    /// file, then lint warnings, so consumers that only look at leading
    /// entries see failures before style findings.
    pub fn diags_by_file(&self) -> Vec<(usize, Vec<&Diagnostic>)> {
        let mut groups: Vec<(usize, Vec<&Diagnostic>)> = (0..self.merged.files.len())
            .map(|i| (i, Vec::new()))
            .collect();
        for d in self
            .outcome
            .result
            .diagnostics
            .iter()
            .chain(&self.outcome.result.lints)
        {
            let fi = if d.span.is_dummy() {
                self.merged.root
            } else {
                self.merged.owner(d.span.lo)
            };
            groups[fi].1.push(d);
        }
        groups
    }
}

struct Doc {
    session: CheckSession,
    /// The document's own text (the editor overlay).
    text: String,
    /// Names of the closure files at the last successful resolution,
    /// excluding the document itself.
    closure: BTreeSet<String>,
    /// Export surface of every closure file at the last check.
    surfaces: BTreeMap<String, u64>,
    last: Option<DocReport>,
}

/// A set of per-URI document sessions over one shared VC cache.
///
/// Each document retains its own bundle verdicts (switching between
/// documents never re-checks cold — the PR-4 single-session server did)
/// and is checked as its full import closure, with open documents
/// overriding the disk. Editing a document re-checks it *and* every
/// open document whose closure contains it.
pub struct Workspace {
    opts: CheckerOptions,
    cache: Arc<VcCache>,
    docs: BTreeMap<String, Doc>,
    /// Per-file parse/SSA/graph facts memo for closure resolution.
    facts: FactsCache,
    /// Directory of the persistent VC/bundle disk tier (`--vc-cache`),
    /// threaded into every document session.
    disk_dir: Option<std::path::PathBuf>,
}

impl Workspace {
    /// An empty workspace checking with `opts`.
    pub fn new(opts: CheckerOptions) -> Workspace {
        Workspace::with_cache(opts, VcCache::shared_with_capacity(opts.cache_capacity))
    }

    /// An empty workspace over a caller-supplied VC cache. Batch
    /// drivers (`rsc check --recursive`) run one workspace per worker
    /// thread, all sharing one cache: verdicts are pure functions of
    /// the canonical VC, so roots with overlapping closures solve each
    /// shared bundle's queries once fleet-wide.
    pub fn with_cache(opts: CheckerOptions, cache: Arc<VcCache>) -> Workspace {
        Workspace {
            opts,
            cache,
            docs: BTreeMap::new(),
            facts: FactsCache::new(),
            disk_dir: None,
        }
    }

    /// Persists VC and bundle verdicts to `dir` across process restarts
    /// (builder-style; the `--vc-cache DIR` tier). Every document
    /// session opened after this call loads warm verdicts from `dir`
    /// and appends its new proofs — see [`CheckSession::persisting_to`].
    pub fn persisting_to(mut self, dir: impl Into<std::path::PathBuf>) -> Workspace {
        self.disk_dir = Some(dir.into());
        self
    }

    /// The workspace's options.
    pub fn options(&self) -> CheckerOptions {
        self.opts
    }

    /// The shared cross-document VC cache.
    pub fn cache(&self) -> &Arc<VcCache> {
        &self.cache
    }

    /// Number of open documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// True when `uri` is an open document.
    pub fn contains(&self, uri: &str) -> bool {
        self.docs.contains_key(uri)
    }

    /// The current overlay text of a document.
    pub fn doc_text(&self, uri: &str) -> Option<&str> {
        self.docs.get(uri).map(|d| d.text.as_str())
    }

    /// The last report of a document.
    pub fn last(&self, uri: &str) -> Option<&DocReport> {
        self.docs.get(uri).and_then(|d| d.last.as_ref())
    }

    /// Closes a document: its retained verdicts are dropped and its
    /// text no longer overrides the disk for importers. Returns true if
    /// the document existed.
    pub fn close(&mut self, uri: &str) -> bool {
        self.docs.remove(uri).is_some()
    }

    /// Every file the workspace's documents currently depend on
    /// (document keys plus their closures) — the watch loop's poll set.
    pub fn watched_files(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for (k, d) in &self.docs {
            out.insert(k.clone());
            out.extend(d.closure.iter().cloned());
        }
        out
    }

    /// Documents whose import closure contains `file` (excluding `file`
    /// itself when it is a document), in deterministic key order.
    pub fn importers_of(&self, file: &str) -> Vec<String> {
        self.docs
            .iter()
            .filter(|(k, d)| k.as_str() != file && d.closure.contains(file))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Sets (or opens) a document's text and re-checks it, then
    /// re-checks every open document whose closure contains it (their
    /// merged programs embed the new text). Returns the reports in
    /// check order: the edited document first, importers after, sorted
    /// by key.
    ///
    /// An importer's re-check is **skipped entirely** when nothing it
    /// can observe changed: the edit left the document's import
    /// specifiers and export surface exactly as the importer last saw
    /// them (a non-exported body edit). The number of importers skipped
    /// this way is reported in the edited document's
    /// [`IncrStats::importers_skipped`].
    pub fn update(&mut self, uri: &str, text: String) -> Vec<DocReport> {
        // Snapshot the pre-edit import specifiers before the overlay
        // changes; `None` (no valid facts yet) disables skipping.
        let old_specs = self.import_specs(uri);
        self.ensure_doc(uri);
        self.docs.get_mut(uri).expect("just ensured").text = text;
        let (mut report, resolved_ok) = self.check_doc_inner(uri);
        let new_specs = self.import_specs(uri);
        let new_surface = self.file_surface(uri);
        let mut skipped = 0usize;
        let mut importer_reports = Vec::new();
        for imp in self.importers_of(uri) {
            let unchanged = resolved_ok
                && old_specs.is_some()
                && old_specs == new_specs
                && new_surface.is_some()
                && self
                    .docs
                    .get(&imp)
                    .and_then(|d| d.surfaces.get(uri).copied())
                    == new_surface;
            if unchanged {
                skipped += 1;
            } else {
                importer_reports.push(self.check_doc(&imp));
            }
        }
        report.outcome.incr.importers_skipped = skipped;
        if let Some(last) = self.docs.get_mut(uri).and_then(|d| d.last.as_mut()) {
            last.outcome.incr.importers_skipped = skipped;
        }
        let mut reports = vec![report];
        reports.extend(importer_reports);
        reports
    }

    /// The document's current import specifier strings, valid only when
    /// the resolution facts memo was computed from the document's
    /// current overlay text (otherwise `None` — conservatively treated
    /// as "unknown, cannot skip").
    fn import_specs(&self, uri: &str) -> Option<Vec<String>> {
        let doc = self.docs.get(uri)?;
        let (h, facts) = self.facts.get(uri)?;
        if *h != text_hash(&doc.text) {
            return None;
        }
        Some(
            facts
                .program
                .imports
                .iter()
                .map(|i| i.from.clone())
                .collect(),
        )
    }

    /// The document's export surface under the same facts-are-current
    /// guard as [`Workspace::import_specs`].
    fn file_surface(&self, uri: &str) -> Option<u64> {
        let doc = self.docs.get(uri)?;
        let (h, facts) = self.facts.get(uri)?;
        (*h == text_hash(&doc.text)).then_some(facts.surface)
    }

    /// Like [`Workspace::update`], but without re-checking importers —
    /// the batch CLI's entry point, where every root is checked exactly
    /// once in command-line order.
    pub fn check_one(&mut self, uri: &str, text: String) -> DocReport {
        self.ensure_doc(uri);
        self.docs.get_mut(uri).expect("just ensured").text = text;
        self.check_doc(uri)
    }

    /// Re-checks a document against its current overlay and the current
    /// disk state of its dependencies (the watch loop's entry point; an
    /// unchanged closure hits the session fast path). Returns `None`
    /// for unknown documents.
    pub fn recheck(&mut self, uri: &str) -> Option<DocReport> {
        if !self.docs.contains_key(uri) {
            return None;
        }
        Some(self.check_doc(uri))
    }

    fn ensure_doc(&mut self, uri: &str) {
        if !self.docs.contains_key(uri) {
            let mut session = CheckSession::with_cache(self.opts, Arc::clone(&self.cache));
            if let Some(dir) = &self.disk_dir {
                session = session.persisting_to(dir.clone());
            }
            self.docs.insert(
                uri.to_string(),
                Doc {
                    session,
                    text: String::new(),
                    closure: BTreeSet::new(),
                    surfaces: BTreeMap::new(),
                    last: None,
                },
            );
        }
    }

    /// Checks one document's closure through its own session.
    fn check_doc(&mut self, uri: &str) -> DocReport {
        self.check_doc_inner(uri).0
    }

    /// [`Workspace::check_doc`] plus whether resolution *and*
    /// qualification succeeded (the precondition for [`Workspace::update`]
    /// to trust the document's surface and skip importers).
    fn check_doc_inner(&mut self, uri: &str) -> (DocReport, bool) {
        let start = Instant::now();
        let resolved = {
            let _sp = rsc_obs::span!("imports");
            // Editor overlays: open documents override the disk
            // everywhere (borrowed, not cloned — only closure members'
            // texts are copied, into their `ModuleFile`s).
            let docs = &self.docs;
            let mut lookup = |name: &str| -> Option<String> {
                if let Some(d) = docs.get(name) {
                    return Some(d.text.clone());
                }
                let path = disk_path(name)?;
                std::fs::read_to_string(path).ok()
            };
            resolve_closure_cached(uri, &mut lookup, &mut self.facts)
        };
        let doc = self.docs.get_mut(uri).expect("document exists");
        // Resolution and qualification share one error path: both keep
        // the session's retained state for the fix.
        let checked = resolved.and_then(|files| {
            let merged = Merged::build(&files);
            let program = qualified_program(&merged, &files)?;
            let outcome = doc.session.check_ast(&program, closure_key(&files));
            Ok((files, merged, outcome))
        });
        let (report, ok) = match checked {
            Err(e) => {
                // Report the failure on this document (naming the
                // offending file when it is not this one).
                let diag = if e.file == uri {
                    Diagnostic::error(e.message, e.span)
                } else {
                    Diagnostic::error(
                        format!("{} (in `{}` line {})", e.message, e.file, e.span.line),
                        Span::dummy(),
                    )
                };
                let report = DocReport {
                    uri: uri.to_string(),
                    outcome: SessionOutcome {
                        result: CheckResult {
                            diagnostics: vec![diag],
                            lints: Vec::new(),
                            stats: CheckStats::default(),
                            bundle_reports: Vec::new(),
                        },
                        incr: IncrStats {
                            total_micros: start.elapsed().as_micros() as u64,
                            ..IncrStats::default()
                        },
                    },
                    merged: Merged::single(uri, &doc.text),
                    deps_changed: Vec::new(),
                    dirty_own: Vec::new(),
                };
                (report, false)
            }
            Ok((files, merged, outcome)) => {
                // Cross-file edges: which dependencies' export surfaces
                // changed since this document last checked?
                let first_check = doc.surfaces.is_empty();
                let mut deps_changed = Vec::new();
                for f in &files {
                    if f.name == uri {
                        continue;
                    }
                    let changed = match doc.surfaces.get(&f.name) {
                        Some(&old) => old != f.surface,
                        None => !first_check,
                    };
                    if changed {
                        deps_changed.push(f.name.clone());
                    }
                }
                let dirty_own = match doc.session.graph() {
                    Some(g) => outcome
                        .incr
                        .dirty_units
                        .iter()
                        .filter(|name| {
                            g.units
                                .iter()
                                .find(|u| u.name == **name)
                                .is_some_and(|u| merged.owner(u.span_lo) == merged.root)
                        })
                        .map(|name| merged.demangle(name))
                        .collect(),
                    None => Vec::new(),
                };
                doc.closure = files
                    .iter()
                    .filter(|f| f.name != uri)
                    .map(|f| f.name.clone())
                    .collect();
                doc.surfaces = files.iter().map(|f| (f.name.clone(), f.surface)).collect();
                let report = DocReport {
                    uri: uri.to_string(),
                    outcome,
                    merged,
                    deps_changed,
                    dirty_own,
                };
                (report, true)
            }
        };
        doc.last = Some(report.clone());
        (report, ok)
    }
}

/// The on-disk path behind a workspace key: `file://` URIs are
/// stripped, scheme-less keys are used verbatim, and any other scheme
/// (e.g. `untitled:`) has no disk backing.
fn disk_path(name: &str) -> Option<&str> {
    if let Some(rest) = name.strip_prefix("file://") {
        return Some(rest);
    }
    if name.contains("://") || name.starts_with("untitled:") || name.starts_with("inline:") {
        return None;
    }
    Some(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_core::{check_program, check_program_ast};

    const LIB: &str = "type nat = {v: number | 0 <= v};\n\
        export function step(x: number): nat {\n\
            if (x < 0) { return 0; }\n\
            return x + 1;\n\
        }\n\
        function helper(y: number): number { return y; }\n";

    const APP: &str = "import {step} from \"./lib\";\n\
        function use(k: number): {v: number | 0 <= v} {\n\
            return step(k);\n\
        }\n";

    fn ws_with(files: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace::new(CheckerOptions::default());
        for (name, text) in files {
            ws.update(name, text.to_string());
        }
        ws
    }

    fn render(r: &CheckResult) -> String {
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn join_spec_handles_uris_and_paths() {
        assert_eq!(join_spec("file:///w/a.rsc", "./b"), "file:///w/b");
        assert_eq!(join_spec("a.rsc", "./b"), "b");
        assert_eq!(join_spec("/x/y/a.rsc", "../z/b.rsc"), "/x/z/b.rsc");
        assert_eq!(join_spec("file:///w/a.rsc", "../b"), "file:///b");
        // `..` never pops through the scheme.
        assert_eq!(join_spec("file:///a.rsc", "../../b"), "file:///b");
    }

    #[test]
    fn closure_check_equals_the_qualified_merged_program() {
        let mut ws = ws_with(&[("lib.rsc", LIB)]);
        let app_text = APP.replace("./lib", "./lib.rsc");
        let reports = ws.update("app.rsc", app_text.clone());
        let app = &reports[0];
        assert_eq!(app.uri, "app.rsc");
        assert_eq!(app.merged.files.len(), 2);
        assert_eq!(app.merged.files[0].name, "lib.rsc");
        // The workspace check equals a cold check of the
        // module-qualified merged program.
        let mut lookup = |name: &str| match name {
            "lib.rsc" => Some(LIB.to_string()),
            "app.rsc" => Some(app_text.clone()),
            _ => None,
        };
        let files = resolve_closure("app.rsc", &mut lookup).unwrap();
        let merged = Merged::build(&files);
        assert_eq!(merged.text, app.merged.text);
        let prog = qualified_program(&merged, &files).expect("qualifies");
        let cold = check_program_ast(&prog, CheckerOptions::default());
        assert_eq!(render(&app.outcome.result), render(&cold));
        assert_eq!(app.outcome.result.ok(), cold.ok());
        assert!(app.outcome.result.ok(), "{}", render(&app.outcome.result));
    }

    #[test]
    fn single_file_closure_is_byte_identical_to_checking_the_text() {
        let src = "type nat = {v: number | 0 <= v};\n\
            function f(x: number): nat { if (x < 0) { return 0; } return x; }\n";
        let ws = ws_with(&[("solo.rsc", src)]);
        let r = ws.last("solo.rsc").unwrap();
        assert_eq!(r.merged.files.len(), 1);
        // No qualification for single-file closures: the merged text is
        // the document text (newline-terminated) and the cold check of
        // that text renders identically.
        assert_eq!(r.merged.text, src);
        let cold = check_program(src, CheckerOptions::default());
        assert_eq!(render(&r.outcome.result), render(&cold));
    }

    #[test]
    fn same_class_name_in_two_files_checks_cleanly() {
        // Regression for the session-layer "transiently duplicated
        // class name" band-aid this PR removes: two modules declaring
        // the same class name must both check, each against its own
        // definition — real namespacing, not duplicate suppression.
        let a = "export class Box { x : number; constructor(x: number) { this.x = x; } }\n\
            export function mk(v: number): number { return v; }\n";
        let b = "import {mk} from \"./a.rsc\";\n\
            class Box { y : number; constructor(y: number) { this.y = y; } }\n\
            function use(p: Box): number { return mk(p.y); }\n";
        let mut ws = ws_with(&[("a.rsc", a)]);
        let reports = ws.update("b.rsc", b.to_string());
        let r = &reports[0];
        assert_eq!(r.merged.files.len(), 2);
        assert!(r.outcome.result.ok(), "{}", render(&r.outcome.result));
    }

    #[test]
    fn documents_stay_warm_across_switches() {
        // The PR-5 headline bug: two documents, interleaved edits, no
        // cold re-check on switch.
        let a = "type nat = {v: number | 0 <= v};\n\
                 function fa(x: number): nat { if (x < 0) { return 0 - x; } return x + 1; }\n\
                 function ga(x: number): nat { if (x < 0) { return 0; } return x + 2; }\n";
        let b = "type nat = {v: number | 0 <= v};\n\
                 function fb(x: number): nat { if (x < 0) { return 0 - x; } return x + 3; }\n\
                 function gb(x: number): nat { if (x < 0) { return 0; } return x + 4; }\n";
        let mut ws = ws_with(&[("a.rsc", a), ("b.rsc", b)]);
        // Edit a — its other function's bundle must be reused even
        // though b was checked in between.
        let ra = &ws.update("a.rsc", a.replace("x + 1", "x + 10"))[0];
        assert!(ra.outcome.incr.reused > 0, "{:?}", ra.outcome.incr);
        let rb = &ws.update("b.rsc", b.replace("x + 3", "x + 30"))[0];
        assert!(rb.outcome.incr.reused > 0, "{:?}", rb.outcome.incr);
        // Re-sending a's text verbatim hits the fast path.
        let ra2 = &ws.update("a.rsc", a.replace("x + 1", "x + 10"))[0];
        assert!(ra2.outcome.incr.fast_path, "{:?}", ra2.outcome.incr);
    }

    #[test]
    fn dependency_edits_recheck_importers() {
        let mut ws = ws_with(&[("lib.rsc", LIB)]);
        ws.update("app.rsc", APP.replace("./lib", "./lib.rsc"));
        assert_eq!(ws.importers_of("lib.rsc"), vec!["app.rsc".to_string()]);

        // Non-exported body edit: nothing the importer can observe
        // changed (same import specifiers, same export surface), so its
        // re-check is skipped entirely — not run-and-found-clean.
        let reports = ws.update("lib.rsc", LIB.replace("return y;", "return y + 1;"));
        assert_eq!(
            reports.len(),
            1,
            "importer must be skipped: {:?}",
            reports.iter().map(|r| r.uri.clone()).collect::<Vec<_>>()
        );
        assert_eq!(reports[0].outcome.incr.importers_skipped, 1);
        let lib_last = ws.last("lib.rsc").unwrap();
        assert_eq!(lib_last.outcome.incr.importers_skipped, 1);

        // Exported-signature edit: the importer re-checks, its calling
        // unit is dirty (demangled to the source name), and the surface
        // change is attributed to lib.
        let sig_edit = LIB.replace(
            "export function step(x: number): nat {",
            "export function step(x: number): {v: number | 0 <= v && x < v} {",
        );
        let reports = ws.update("lib.rsc", sig_edit);
        assert_eq!(reports.len(), 2, "sig change re-checks the importer");
        assert_eq!(reports[0].outcome.incr.importers_skipped, 0);
        let app = &reports[1];
        assert_eq!(app.deps_changed, vec!["lib.rsc".to_string()]);
        assert!(
            app.dirty_own.contains(&"fun:use".to_string()),
            "{:?}",
            app.dirty_own
        );
    }

    #[test]
    fn import_cycle_is_a_diagnostic() {
        let mut ws = Workspace::new(CheckerOptions::default());
        ws.update(
            "a.rsc",
            "import {f} from \"./b.rsc\";\nexport function g(x: number): number { return f(x); }\n"
                .to_string(),
        );
        let reports = ws.update(
            "b.rsc",
            "import {g} from \"./a.rsc\";\nexport function f(x: number): number { return g(x); }\n"
                .to_string(),
        );
        // Both b's own check and a's re-check see the cycle.
        for r in &reports {
            assert!(!r.outcome.result.ok(), "{}", r.uri);
            let msg = render(&r.outcome.result);
            assert!(msg.contains("import cycle"), "{msg}");
        }
        let a = ws.recheck("a.rsc").unwrap();
        let msg = render(&a.outcome.result);
        assert!(msg.contains("import cycle"), "{msg}");
        assert!(msg.contains("a.rsc → b.rsc → a.rsc"), "{msg}");
    }

    #[test]
    fn missing_export_is_blamed_at_the_import() {
        let mut ws = ws_with(&[("lib.rsc", LIB)]);
        let reports = ws.update(
            "app.rsc",
            "import {helper} from \"./lib.rsc\";\nvar z = helper(1);\n".to_string(),
        );
        let app = &reports[0];
        assert!(!app.outcome.result.ok());
        let msg = render(&app.outcome.result);
        assert!(msg.contains("does not export `helper`"), "{msg}");
        // Blamed at the importer's own line 1 (the name inside braces).
        assert_eq!(app.outcome.result.diagnostics[0].span.line, 1);
    }

    #[test]
    fn unresolvable_import_is_a_diagnostic() {
        let mut ws = Workspace::new(CheckerOptions::default());
        let reports = ws.update(
            "app.rsc",
            "import {x} from \"./nope\";\nvar z = 1;\n".to_string(),
        );
        let msg = render(&reports[0].outcome.result);
        assert!(msg.contains("cannot resolve import"), "{msg}");
        // The fix re-checks cleanly (session state survived).
        let fixed = ws.update("app.rsc", "var z = 1;\n".to_string());
        assert!(fixed[0].outcome.result.ok());
    }

    #[test]
    fn localize_rebases_to_file_coordinates() {
        let mut ws = ws_with(&[("lib.rsc", LIB)]);
        // Break the importer: its diagnostic must land in app.rsc with
        // a file-local line number.
        let bad_app = "import {step} from \"./lib.rsc\";\n\
            function use(k: number): {v: number | 10 <= v} {\n\
                return step(k);\n\
            }\n";
        let reports = ws.update("app.rsc", bad_app.to_string());
        let app = &reports[0];
        assert!(!app.outcome.result.ok());
        let groups = app.diags_by_file();
        let root_diags = &groups[app.merged.root].1;
        assert!(!root_diags.is_empty(), "{}", render(&app.outcome.result));
        for d in root_diags {
            let (fi, local) = app.merged.localize(d);
            assert_eq!(app.merged.files[fi].name, "app.rsc");
            assert!(
                (1..=4).contains(&local.span.line),
                "local line out of file range: {:?}",
                local.span
            );
        }
    }

    #[test]
    fn close_drops_the_overlay() {
        let mut ws = ws_with(&[("a.rsc", "var x = 1;\n")]);
        assert!(ws.contains("a.rsc"));
        assert!(ws.close("a.rsc"));
        assert!(!ws.contains("a.rsc"));
        assert!(!ws.close("a.rsc"));
    }
}
