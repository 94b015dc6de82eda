//! `edit-session`: one editor on the LSP surface of `rsc serve`, driven
//! in process through `Serve::handle` at one worker, closed loop, no
//! think time.
//!
//! Set-up opens the seven corpus programs and one seed-generated
//! three-file import chain. The timed part replays a seed-interleaved
//! script of full-text `didChange` edits: on each corpus document bug
//! in, bug out, a comment-only edit and a revert; on the chain a private
//! function (importers skipped), an exported type alias (importers
//! re-checked), their reverts, and a seeded bug in and out of the middle
//! file.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use proptest::test_runner::TestRng;
use rsc_incr::{Json, Serve, VcCache, Workspace};

use crate::common::{self, Counters, Outcome, Settings};
use crate::corpus::{corpus_text, golden_codes};
use perfbench::trace::Attribution;

/// One document: its URI, clean text, and the files its closure holds
/// (indices into the document list, itself included).
struct Doc {
    uri: String,
    clean: String,
    closure: Vec<usize>,
}

/// One scripted `didChange`.
struct Step {
    doc: usize,
    text: String,
    /// Error codes the document's own text carries after the edit.
    codes: BTreeSet<String>,
    label: String,
}

struct Script {
    docs: Vec<Doc>,
    steps: Vec<Step>,
    /// Label of the seeded bug the chain's `m1` takes.
    chain_bug: String,
}

/// The documents and the seed-interleaved edit script.
fn build_script(seed: u64) -> Result<Script, String> {
    let mut docs = Vec::new();
    let mut subs: Vec<Vec<Step>> = Vec::new();
    let bugs: BTreeMap<&str, (&str, &str)> = rsc_bench::seeded_mutations()
        .iter()
        .map(|&(n, from, to)| (n, (from, to)))
        .collect();
    for name in rsc_bench::benchmark_names() {
        let clean = corpus_text(name)?;
        let (from, to) = bugs[name];
        if !clean.contains(from) {
            return Err(format!("{name}: seeded-bug site `{from}` not found"));
        }
        let d = docs.len();
        let codes = golden_codes(&format!("tests/golden/seeded-{name}.diag"))?;
        let step = |text: String, codes: BTreeSet<String>, what: &str| Step {
            doc: d,
            text,
            codes,
            label: format!("{name}:{what}"),
        };
        subs.push(vec![
            step(clean.replacen(from, to, 1), codes, "bug-in"),
            step(clean.clone(), BTreeSet::new(), "bug-out"),
            step(format!("// edited\n{clean}"), BTreeSet::new(), "comment"),
            step(clean.clone(), BTreeSet::new(), "revert"),
        ]);
        docs.push(Doc {
            uri: format!("untitled:corpus/{name}.rsc"),
            clean,
            closure: vec![d],
        });
    }

    // The import chain: a generated program (safe by construction) split
    // into m0 <- m1 <- m2, each file importing its predecessor. Four
    // functions keep it small: a generated program's check cost varies by
    // an order of magnitude between seeds, and at eight functions the
    // chain alone moved the set-up's median between 0.9 s and 1.7 s.
    let mut rng = TestRng::from_seed(seed.wrapping_mul(0x2545_f491_4f6c_dd1d) | 1);
    let program = rsc_gen::generate(
        &mut rng,
        rsc_gen::GenConfig {
            funs: 4,
            cluster: None,
        },
    );
    let files = rsc_gen::workspace::split(&program, 2, |k| format!("m{k}.rsc"), true);
    if files.len() < 2 {
        return Err("generated chain has fewer than two files".into());
    }
    let base = docs.len();
    for (k, (name, text)) in files.iter().enumerate() {
        docs.push(Doc {
            uri: format!("untitled:chain/{name}"),
            clean: text.clone(),
            closure: (base..=base + k).collect(),
        });
    }
    let (m0, m1) = (base, base + 1);
    let mut pick = common::Rng::new(seed, 2);
    let bug = bug_template(&mut pick);
    let chain_bug = format!("{} {}", bug.kind.code(), bug.label);
    let chain_step = |doc: usize, text: String, codes: BTreeSet<String>, what: &str| Step {
        doc,
        text,
        codes,
        label: format!("chain:{what}"),
    };
    let c0 = &docs[m0].clean;
    let c1 = &docs[m1].clean;
    subs.push(vec![
        chain_step(
            m0,
            format!("{c0}function pbPrivate(x: number): number {{ return x; }}\n"),
            BTreeSet::new(),
            "m0-private",
        ),
        chain_step(m0, c0.clone(), BTreeSet::new(), "m0-private-revert"),
        chain_step(
            m0,
            format!("{c0}export type PbExported = number;\n"),
            BTreeSet::new(),
            "m0-export",
        ),
        chain_step(m0, c0.clone(), BTreeSet::new(), "m0-export-revert"),
        chain_step(
            m1,
            format!("{c1}{}", bug.text),
            BTreeSet::from([bug.kind.code().to_string()]),
            "m1-bug-in",
        ),
        chain_step(m1, c1.clone(), BTreeSet::new(), "m1-bug-out"),
    ]);

    // Interleave the per-document scripts in a seeded order, keeping each
    // document's own steps in sequence.
    let mut steps = Vec::new();
    let mut queues: Vec<std::collections::VecDeque<Step>> =
        subs.into_iter().map(Into::into).collect();
    loop {
        let left: usize = queues.iter().map(|q| q.len()).sum();
        if left == 0 {
            break;
        }
        let mut k = pick.below(left);
        let q = queues
            .iter_mut()
            .find(|q| {
                if k < q.len() {
                    true
                } else {
                    k -= q.len();
                    false
                }
            })
            .expect("k indexes a remaining step");
        steps.push(q.pop_front().expect("non-empty queue"));
    }
    Ok(Script {
        docs,
        steps,
        chain_bug,
    })
}

/// A seeded single-obligation bug whose text needs none of the chain's
/// type aliases (so it fits in any file).
pub fn bug_template(rng: &mut common::Rng) -> rsc_gen::Mutation {
    let candidates: Vec<rsc_gen::Mutation> = rsc_gen::templates("_pb", "NAT_", "POS_")
        .into_iter()
        .filter(|m| {
            !m.text.contains("NAT_") && !m.text.contains("POS_") && !m.text.contains("class ")
        })
        .collect();
    let i = rng.below(candidates.len());
    candidates.into_iter().nth(i).expect("index in range")
}

fn request(method: &str, params: Json, id: Option<f64>) -> String {
    let mut fields = vec![("jsonrpc".to_string(), Json::str("2.0"))];
    if let Some(id) = id {
        fields.push(("id".into(), Json::num(id)));
    }
    fields.push(("method".into(), Json::str(method)));
    fields.push(("params".into(), params));
    Json::Obj(fields).to_string()
}

/// `didOpen` parameters.
fn open_params(uri: &str, text: &str) -> Json {
    Json::Obj(vec![(
        "textDocument".into(),
        Json::Obj(vec![
            ("uri".into(), Json::str(uri)),
            ("languageId".into(), Json::str("rsc")),
            ("version".into(), Json::num(1.0)),
            ("text".into(), Json::str(text)),
        ]),
    )])
}

/// Full-document `didChange` parameters.
fn change_params(uri: &str, text: &str) -> Json {
    Json::Obj(vec![
        (
            "textDocument".into(),
            Json::Obj(vec![
                ("uri".into(), Json::str(uri)),
                ("version".into(), Json::num(2.0)),
            ]),
        ),
        (
            "contentChanges".into(),
            Json::Arr(vec![Json::Obj(vec![("text".into(), Json::str(text))])]),
        ),
    ])
}

/// What one `didChange`/`didOpen` response said.
#[derive(Default)]
struct Reply {
    /// Checks reported (the edited document plus re-checked importers).
    reports: u64,
    solved: u64,
    reused: u64,
    bundles: u64,
    fast_path: u64,
    importers_skipped: u64,
    /// Sum of the reports' `time_us`, in ms.
    check_ms: f64,
    /// Per-phase totals of the update (`rsc.timing_ms`).
    timing: BTreeMap<String, f64>,
}

/// Parses a response and checks every publish against the model: a
/// document's own error codes, and `verified` exactly when its whole
/// closure is bug-free.
fn check_reply(
    resp: &str,
    edited: &str,
    docs: &[Doc],
    codes: &[BTreeSet<String>],
) -> Result<Reply, String> {
    let mut reply = Reply::default();
    for (i, line) in resp.lines().enumerate() {
        let v = Json::parse(line).map_err(|e| format!("unparsable response line: {e}"))?;
        if let Some(err) = v.get("error") {
            return Err(format!("LSP error response: {err}"));
        }
        let Some(rsc) = v.get("rsc") else { continue };
        let params = v.get("params").ok_or("publish without params")?;
        let uri = params.get("uri").and_then(Json::as_str).unwrap_or("");
        if i == 0 && uri != edited {
            return Err(format!(
                "first publish is for {uri}, not the edited {edited}"
            ));
        }
        let d = docs
            .iter()
            .position(|d| d.uri == uri)
            .ok_or_else(|| format!("publish for unknown document {uri}"))?;
        let got: BTreeSet<String> = match params.get("diagnostics") {
            Some(Json::Arr(ds)) => ds
                .iter()
                .filter(|d| d.get("severity").and_then(Json::as_f64) == Some(1.0))
                .map(|d| {
                    d.get("code")
                        .and_then(Json::as_str)
                        .unwrap_or("(no code)")
                        .to_string()
                })
                .collect(),
            _ => return Err(format!("{uri}: publish without diagnostics")),
        };
        common::verdict(&got, &codes[d], uri)?;
        let clean = docs[d].closure.iter().all(|&f| codes[f].is_empty());
        if rsc.get("verified") != Some(&Json::Bool(clean)) {
            return Err(format!("{uri}: verified should be {clean}"));
        }
        let num = |k: &str| rsc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        reply.reports += 1;
        reply.solved += num("solved") as u64;
        reply.reused += num("reused") as u64;
        reply.bundles += num("bundles") as u64;
        reply.fast_path += u64::from(rsc.get("fast_path") == Some(&Json::Bool(true)));
        reply.check_ms += num("time_us") / 1e3;
        if uri == edited {
            reply.importers_skipped = num("importers_skipped") as u64;
        }
        if let (true, Some(Json::Obj(phases))) = (reply.timing.is_empty(), rsc.get("timing_ms")) {
            for (k, v) in phases {
                reply.timing.insert(k.clone(), v.as_f64().unwrap_or(0.0));
            }
        }
    }
    if reply.reports == 0 {
        return Err(format!("no publish for {edited}"));
    }
    Ok(reply)
}

/// Charges one update's wall time to the layers, from the phase totals
/// the response carries. `rsc.timing_ms` holds per-name totals, not
/// spans, so a phase that can sit under two parents is split by rule:
/// top-level `parse` is what the reports' `time_us` covers beyond the
/// `check` spans; SMT queries go to the fixpoint first (up to its total)
/// and the rest to constraint generation; SSA goes to the session's
/// `check` span first and the rest to `imports`.
fn attribute_update(at: &mut BTreeMap<&'static str, f64>, r: &Reply, handle_ms: f64) {
    let t = |k: &str| r.timing.get(k).copied().unwrap_or(0.0);
    let (parse, ssa, check, imports) = (t("parse"), t("ssa"), t("check"), t("imports"));
    let (sq, sb, cg) = (t("smt-query"), t("solve-bundle"), t("constraint-gen"));
    let parse_top = (r.check_ms - check).clamp(0.0, parse);
    let sq_in_bundles = sq.min(sb);
    let check_kids = t("class-table") + cg + t("partition") + t("absint") + t("solve");
    let ssa_in_check = ssa.min((check - check_kids).max(0.0));
    let mut add = |k: &'static str, v: f64| *at.entry(k).or_default() += v;
    add("rsc_syntax.parse_ms", parse);
    add("rsc_ssa.ssa_ms", ssa);
    add("rsc_core.class_table_ms", t("class-table"));
    add("rsc_core.constraint_gen_ms", cg - (sq - sq_in_bundles));
    add("rsc_core.partition_ms", t("partition"));
    add("rsc_core.solve_driver_ms", t("solve") - sb);
    add("rsc_absint.lints_ms", t("absint"));
    add("rsc_liquid.fixpoint_self_ms", sb - sq_in_bundles);
    add("rsc_smt.query_ms", sq);
    add(
        "rsc_incr.workspace.imports_ms",
        imports - (parse - parse_top) - (ssa - ssa_in_check),
    );
    add(
        "rsc_incr.session.self_ms",
        check - check_kids - ssa_in_check,
    );
    add(
        "rsc_incr.serve.overhead_ms",
        handle_ms - (imports + check + parse_top),
    );
}

struct Session {
    serve: Serve,
    cache: Arc<VcCache>,
    /// Current error codes per document.
    codes: Vec<BTreeSet<String>>,
}

/// `initialize` plus a `didOpen` per document, then one unmeasured pass
/// of the script so caches fill before timing.
fn open_session(script: &Script, lines: &[String], out: &mut Outcome) -> Session {
    let ws = Workspace::new(common::options());
    let cache = Arc::clone(ws.cache());
    let mut serve = Serve::over(ws);
    let init = request("initialize", Json::Obj(vec![]), Some(1.0));
    out.op(match common::guarded(|| serve.handle(&init)) {
        Ok((resp, _)) if resp.contains("\"result\"") => Ok(()),
        Ok((resp, _)) => Err(format!("initialize answered {resp}")),
        Err(e) => Err(format!("initialize: {e}")),
    });
    serve.handle(&request("initialized", Json::Obj(vec![]), None));
    let codes = vec![BTreeSet::new(); script.docs.len()];
    for d in &script.docs {
        let open = request("textDocument/didOpen", open_params(&d.uri, &d.clean), None);
        let result = common::guarded(|| serve.handle(&open).0)
            .and_then(|resp| check_reply(&resp, &d.uri, &script.docs, &codes).map(|_| ()));
        out.op(result.map_err(|e| format!("didOpen {}: {e}", d.uri)));
    }
    let mut s = Session {
        serve,
        cache,
        codes,
    };
    for (step, line) in script.steps.iter().zip(lines) {
        let result = s.edit(script, step, line).map(|_| ());
        out.op(result);
    }
    s
}

impl Session {
    fn edit(
        &mut self,
        script: &Script,
        step: &Step,
        line: &str,
    ) -> Result<(Reply, f64, usize), String> {
        self.codes[step.doc] = step.codes.clone();
        let serve = &mut self.serve;
        let t = Instant::now();
        let resp = common::guarded(|| serve.handle(line).0);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let resp = resp.map_err(|e| format!("{}: {e}", step.label))?;
        let reply = check_reply(&resp, &script.docs[step.doc].uri, &script.docs, &self.codes)
            .map_err(|e| format!("{}: {e}", step.label))?;
        Ok((reply, ms, resp.len()))
    }
}

pub fn run(settings: &Settings) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let script = build_script(settings.seed)?;
    let lines: Vec<String> = script
        .steps
        .iter()
        .map(|s| {
            request(
                "textDocument/didChange",
                change_params(&script.docs[s.doc].uri, &s.text),
                None,
            )
        })
        .collect();
    let loc: usize = script
        .steps
        .iter()
        .map(|s| rsc_bench::count_loc(&s.text))
        .sum();

    let mut setups = Vec::new();
    let mut session = None;
    let repeats = if settings.trace {
        1
    } else {
        common::SETUP_REPEATS
    };
    for _ in 0..repeats {
        drop(session.take());
        let t = Instant::now();
        session = Some(open_session(&script, &lines, &mut out));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");
    let cache_before = session.cache.counters();

    let mut by_step: Vec<Vec<f64>> = vec![Vec::new(); script.steps.len()];
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut layers = BTreeMap::new();
    let mut unattributed_ms = 0.0;
    let mut bytes = 0usize;
    let mut first: Option<Counters> = None;
    let passes = common::timed_passes(settings, script.steps.len(), |pass, tracing| {
        let mut c = Counters::new();
        let mut handled_ms = 0.0;
        let t = Instant::now();
        for (i, (step, line)) in script.steps.iter().zip(&lines).enumerate() {
            match session.edit(&script, step, line) {
                Ok((reply, ms, len)) => {
                    out.op(Ok(()));
                    if tracing {
                        attribute_update(&mut layers, &reply, ms);
                        handled_ms += ms;
                        bytes += len;
                    } else {
                        by_step[i].push(ms);
                    }
                    let closure = script.docs[step.doc].closure.len() as u64;
                    for (k, v) in [
                        ("updates", 1),
                        ("checks", reply.reports),
                        ("solved", reply.solved),
                        ("reused", reply.reused),
                        ("rsc_core.bundles", reply.bundles),
                        ("fast_path", reply.fast_path),
                        ("rsc_incr.workspace.importers_rechecked", reply.reports - 1),
                        (
                            "rsc_incr.workspace.importers_skipped",
                            reply.importers_skipped,
                        ),
                        ("rsc_incr.workspace.closure_files", closure),
                    ] {
                        *c.entry(k).or_default() += v;
                    }
                }
                Err(e) => out.op(Err(e)),
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if tracing {
            traced_walls.push(wall);
            unattributed_ms += wall * 1e3 - handled_ms;
        } else {
            walls.push(wall);
        }
        match &first {
            None => first = Some(c),
            Some(f) => common::same_counters(f, &c, pass, &mut out),
        }
    });

    let c = first.unwrap_or_default();
    out.note("workers", 1);
    out.note("documents", script.docs.len());
    out.note("steps_per_pass", script.steps.len());
    out.note("loc_per_pass", loc);
    out.note("passes", passes);
    out.note("counters_per_pass", format!("{c:?}"));
    out.note("chain_bug", &script.chain_bug);
    if settings.trace {
        let traced = traced_walls.len();
        let total = Attribution {
            wall_ns: traced_walls.iter().sum::<f64>() * 1e9,
            wall: layers.iter().map(|(k, v)| (*k, v * 1e6)).collect(),
            summed: layers.iter().map(|(k, v)| (*k, v * 1e6)).collect(),
            unattributed_ns: unattributed_ms * 1e6,
        };
        let cache = session.cache.counters();
        out.metric(
            "rsc_core.bundles",
            c.get("rsc_core.bundles").copied().unwrap_or(0) as f64,
            "count",
            passes,
        );
        common::report_cache(
            &mut out,
            cache.hits - cache_before.hits,
            cache.misses - cache_before.misses,
            cache.entries,
        );
        common::report_session(&mut out, &c, passes);
        out.metric(
            "rsc_incr.serve.response_bytes",
            bytes as f64 / traced.max(1) as f64,
            "bytes",
            passes,
        );
        common::report_layers(&mut out, &total, traced, &traced_walls, &walls);
    } else {
        let names: Vec<String> = script.steps.iter().map(|s| s.label.clone()).collect();
        common::report_latency(&mut out, &by_step, &names);
        common::report_pass_rate(&mut out, loc, &walls, &setups);
    }
    Ok(out)
}
