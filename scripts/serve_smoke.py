#!/usr/bin/env python3
"""End-to-end smoke test for `rsc serve` over scripted edit sessions.

Usage: python3 scripts/serve_smoke.py [path/to/rsc-binary] [--leg LEG]

Legs (default: lsp + multi-file):

* ``lsp``         — for every benchmark with a seeded mutation:
  ``initialize``, ``textDocument/didOpen`` of the clean file,
  ``didChange`` to edit the bug in (must reject, reusing all but the
  edited function's bundle) and back out (must verify, re-solving no
  bundle: the open's verdicts are still in the session's memo),
  asserting that every published diagnostic carries a non-dummy 0-based
  ``{start:{line,character},end:{…}}`` range and an ``R…``-style code.
* ``cache-bound`` — a long edit script under ``rsc serve --cache-cap
  16``: verdicts must stay correct while the VC cache stays bounded and
  reports evictions in ``rsc/metrics``.
* ``metrics``     — the observability surface: a short edit session,
  then an ``rsc/metrics`` request (must report monotonic registry
  counters with ``importers_skipped_total``, VC-cache counters with a
  hit rate, the check count, check-latency percentiles, and cumulative
  per-phase milliseconds covering the span taxonomy, and the symbol
  table's size and the sessions' verdict memo within its bound). Every
  publish must also carry a per-phase ``timing_ms`` object. The edit
  session then replays, and a second ``rsc/metrics`` must report the
  same symbol count and bytes, and a memo still within its bound.
* ``disk-cache``  — the persistent ``--vc-cache DIR`` round-trip: cold
  batch-check the corpus into a fresh directory, let the process exit,
  then re-check with a new process against the warm directory. The warm
  run must reuse every bundle from disk, record **zero** ``smt-query``
  spans, and produce byte-identical verdicts and stats.
* ``multi-file`` — URIs connected by ``import``: a non-exported body
  edit in the exporting document skips the importer's re-check
  entirely (one publish, ``importers_skipped`` counted), while an
  exported-signature edit re-publishes for the importer with the
  dependency named in ``deps_changed`` and the importing unit in
  ``dirty_own``. A second workspace pairs two files that both declare
  the *same* non-exported ``helper`` — per-module qualification keeps
  them apart, so both verify. Finally, ``didChange`` with a
  whole-document ``range`` is accepted and applied, while a genuinely
  partial range is refused with an InvalidParams error.

Exits non-zero on any protocol or verdict mismatch — this is the CI leg
that keeps the serve front-end honest.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (benchmark, original snippet, buggy replacement) — mirrors
# rsc_bench::seeded_mutations; check_in_sync() below fails the run if
# the Rust table drifts from this copy.
MUTATIONS = [
    ("navier-stokes", "i + 1 < row.length", "i + 1 <= row.length"),
    ("raytrace", "out[2] = a[2] + b[2];", "out[3] = a[2] + b[2];"),
    ("tsc-checker", "t.flags & TypeFlags.Object", "t.flags & TypeFlags.String"),
    ("richards", "handlers[id]", "handlers[id + 1]"),
    ("d3-arrays", "var best = a[0];", "var best = a[1];"),
]


def fail(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_in_sync():
    """Every (from, to) pair must still appear verbatim in the Rust
    mutation table, so editing one side without the other fails CI
    instead of silently testing stale edits."""
    corpus_rs = (ROOT / "crates" / "bench" / "src" / "corpus.rs").read_text()
    for name, frm, to in MUTATIONS:
        for snippet in (frm, to):
            if json.dumps(snippet) not in corpus_rs:
                fail(
                    f"{name}: snippet {snippet!r} not found in "
                    "crates/bench/src/corpus.rs — MUTATIONS is out of sync "
                    "with rsc_bench::seeded_mutations"
                )


def run_serve(binary, requests, args=()):
    """Feeds one request per line, returns the parsed response lines."""
    stdin = "".join(json.dumps(r) + "\n" for r in requests)
    proc = subprocess.run(
        [binary, "serve", *args], input=stdin, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        fail(f"serve exited {proc.returncode}: {proc.stderr[-500:]}")
    return [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]


def corpus():
    out = []
    for name, frm, to in MUTATIONS:
        src = (ROOT / "benchmarks" / f"{name}.rsc").read_text()
        if frm not in src:
            fail(f"{name}: mutation site {frm!r} not found")
        out.append((name, src, src.replace(frm, to, 1)))
    return out


def lsp_errors(params):
    """Severity-1 diagnostics (refinement errors); severity 2 is the
    dataflow lint layer, which may publish on clean text too."""
    return [d for d in params["diagnostics"] if d.get("severity") == 1]


def assert_lsp_diagnostics(name, params):
    """Every published diagnostic must carry a non-dummy LSP range and
    either an obligation code (severity 1) or a lint code (severity 2)."""
    for d in params["diagnostics"]:
        rng = d.get("range")
        if not rng:
            fail(f"{name}: diagnostic without a range: {d}")
        start, end = rng["start"], rng["end"]
        for pos in (start, end):
            if not {"line", "character"} <= set(pos):
                fail(f"{name}: position missing line/character: {d}")
        if (end["line"], end["character"]) <= (start["line"], start["character"]):
            fail(f"{name}: dummy/empty diagnostic range: {d}")
        code = d.get("code", "")
        if d.get("severity") == 1 and not code.startswith("R"):
            fail(f"{name}: error diagnostic without an R-code: {d}")
        if d.get("severity") == 2 and not code.startswith("L"):
            fail(f"{name}: warning diagnostic without an L-code: {d}")
        if not code.startswith(("R", "L")):
            fail(f"{name}: diagnostic without a code: {d}")
        if d.get("source") != "rsc":
            fail(f"{name}: diagnostic source is not 'rsc': {d}")


def lsp_leg(binary):
    uri = "file:///corpus.rsc"
    requests = [{"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}},
                {"jsonrpc": "2.0", "method": "initialized", "params": {}}]
    expected = [("initialize", "-")]  # `initialized` produces no line
    for name, src, mutated in corpus():
        requests.append({"jsonrpc": "2.0", "method": "textDocument/didOpen",
                         "params": {"textDocument": {"uri": uri, "text": src}}})
        expected.append(("clean-open", name))
        requests.append({"jsonrpc": "2.0", "method": "textDocument/didChange",
                         "params": {"textDocument": {"uri": uri},
                                    "contentChanges": [{"text": mutated}]}})
        expected.append(("broken-change", name))
        requests.append({"jsonrpc": "2.0", "method": "textDocument/didChange",
                         "params": {"textDocument": {"uri": uri},
                                    "contentChanges": [{"text": src}]}})
        expected.append(("clean-change", name))
    requests.append({"jsonrpc": "2.0", "id": 2, "method": "shutdown"})
    expected.append(("shutdown", "-"))
    requests.append({"jsonrpc": "2.0", "method": "exit"})

    lines = run_serve(binary, requests)
    if len(lines) != len(expected):
        fail(f"lsp: expected {len(expected)} responses, got {len(lines)}")

    for v, (kind, name) in zip(lines, expected):
        if kind == "initialize":
            if "capabilities" not in v.get("result", {}):
                fail(f"initialize: no capabilities: {v}")
            continue
        if kind == "shutdown":
            if v.get("result", "missing") is not None:
                fail(f"shutdown: expected null result: {v}")
            continue
        if v.get("method") != "textDocument/publishDiagnostics":
            fail(f"{name}/{kind}: expected publishDiagnostics: {v}")
        params = v["params"]
        if params.get("uri") != uri:
            fail(f"{name}/{kind}: wrong uri: {v}")
        rsc = v.get("rsc", {})
        if kind in ("clean-open", "clean-change"):
            if lsp_errors(params) or rsc.get("verified") is not True:
                fail(f"{name}: clean text published error diagnostics: {v}")
            assert_lsp_diagnostics(name, params)
            if kind == "clean-change" and \
                    (rsc.get("solved") != 0 or rsc.get("reused") != rsc.get("bundles")):
                fail(f"{name}: revert re-solved bundles the open had solved: {v}")
        else:
            if not lsp_errors(params) or rsc.get("verified") is not False:
                fail(f"{name}: seeded bug published no diagnostics: {v}")
            assert_lsp_diagnostics(name, params)
            if rsc.get("bundles", 0) > 1 and rsc.get("reused", 0) == 0:
                fail(f"{name}: broken change reused nothing: {v}")
        print(f"serve_smoke: ok {name:<14} {kind:<13} "
              f"reused={rsc.get('reused', '-')}/{rsc.get('bundles', '-')} "
              f"diags={len(params['diagnostics'])}")
    print("serve_smoke: lsp leg PASS")


def did_open(uri, text):
    return {"jsonrpc": "2.0", "method": "textDocument/didOpen",
            "params": {"textDocument": {"uri": uri, "text": text}}}


def did_change(uri, text):
    return {"jsonrpc": "2.0", "method": "textDocument/didChange",
            "params": {"textDocument": {"uri": uri},
                       "contentChanges": [{"text": text}]}}


METRICS = {"jsonrpc": "2.0", "id": 2, "method": "rsc/metrics"}
EXIT = {"jsonrpc": "2.0", "method": "exit"}


def metrics_result(v, req_id=2):
    if v.get("id") != req_id or not isinstance(v.get("result"), dict):
        fail(f"bad rsc/metrics response: {v}")
    return v["result"]


def cache_bound_leg(binary, cap=16, rounds=3):
    """A long edit script with a tiny VC cache: verdicts stay correct,
    the cache stays bounded, and evictions are reported."""
    uri = "file:///corpus.rsc"
    requests = []
    expected = []  # (kind, name) per publish
    for _ in range(rounds):
        for name, src, mutated in corpus():
            requests.append(did_open(uri, src))
            expected.append(("clean", name))
            requests.append(did_change(uri, mutated))
            expected.append(("broken", name))
            requests.append(did_change(uri, src))
            expected.append(("clean", name))
    requests += [METRICS, EXIT]

    lines = run_serve(binary, requests, args=["--cache-cap", str(cap)])
    if len(lines) != len(expected) + 1:
        fail(f"cache-bound: expected {len(expected) + 1} responses, got {len(lines)}")
    for v, (kind, name) in zip(lines, expected):
        if v.get("method") != "textDocument/publishDiagnostics":
            fail(f"cache-bound {name}/{kind}: expected publishDiagnostics: {v}")
        verified = v.get("rsc", {}).get("verified")
        if kind == "clean" and verified is not True:
            fail(f"cache-bound {name}: clean text did not verify under cap: {v}")
        if kind == "broken" and verified is not False:
            fail(f"cache-bound {name}: seeded bug not rejected under cap: {v}")
    cache = metrics_result(lines[-1]).get("cache", {})
    if cache.get("entries", cap + 1) > cap:
        fail(f"cache-bound: {cache.get('entries')} entries exceed cap {cap}: {cache}")
    evictions = cache.get("evictions", 0)
    if not evictions:
        fail("cache-bound: a long edit script under a tiny cap must evict")
    print(f"serve_smoke: cache-bound leg PASS "
          f"(cap={cap}, evictions={evictions})")


def memo_bound(publishes):
    """The most verdicts one document's session may hold: twice the
    bundles of its latest generation run plus those of the run before
    (a fast-path check runs nothing)."""
    runs = [v["rsc"]["bundles"] for v in publishes if not v["rsc"]["fast_path"]]
    return 2 * runs[-1] + (runs[-2] if len(runs) > 1 else 0)


def metrics_leg(binary):
    """Observability surface: per-check timing_ms on every publish, and
    the rsc/metrics counters/cache/latency/phase/symbols/memo object.
    The edit script runs twice; the symbol table must not grow on the
    replay (a name carrying a session-wide counter would), and the
    verdict memo must stay within its bound after each run."""
    uri = "file:///corpus.rsc"
    name, src, mutated = corpus()[0]
    script = [did_open(uri, src), did_change(uri, mutated), did_change(uri, src)]
    replay_metrics = {"jsonrpc": "2.0", "id": 3, "method": "rsc/metrics"}
    requests = script + [METRICS] + script + [replay_metrics, EXIT]
    lines = run_serve(binary, requests)
    if len(lines) != 8:
        fail(f"metrics: expected 8 responses, got {len(lines)}")
    checks, metrics = lines[:3], metrics_result(lines[3])
    replayed = metrics_result(lines[7], req_id=3)

    for i, v in enumerate(checks):
        if v.get("method") != "textDocument/publishDiagnostics":
            fail(f"metrics: check {i} did not publish: {v}")
        timing = v.get("rsc", {}).get("timing_ms")
        if not isinstance(timing, dict) or "solve" not in timing:
            fail(f"metrics: check {i} has no per-phase timing_ms: {v}")

    if metrics.get("docs") != 1:
        fail(f"metrics: expected 1 open document: {metrics}")
    counters = metrics.get("counters", {})
    if counters.get("checks_total") != 3 or counters.get("checks_failed_total") != 1:
        fail(f"metrics: counters did not track the session: {counters}")
    # Cumulative across the server's lifetime; 0 here (no imports).
    if counters.get("importers_skipped_total") != 0:
        fail(f"metrics: importers_skipped_total missing/wrong: {counters}")
    if counters.get("bundles_total", 0) <= counters.get("bundles_solved_total", 0):
        fail(f"metrics: edits must reuse bundles: {counters}")
    # A corpus program's cold check drops candidates with pooled
    # counterexample models.
    if counters.get("model_refuted_total", 0) <= 0:
        fail(f"metrics: no pooled model refutations counted: {counters}")
    cache = metrics.get("cache", {})
    if cache.get("hits", 0) + cache.get("misses", 0) <= 0 or "hit_rate" not in cache:
        fail(f"metrics: cache counters missing: {cache}")
    timing = metrics.get("timing", {})
    if timing.get("checks") != 3:
        fail(f"metrics: timing did not count 3 checks: {timing}")
    if timing.get("check_p50_us", 0) <= 0 or timing.get("check_p99_us", 0) < \
            timing.get("check_p50_us", 0):
        fail(f"metrics: bad latency percentiles: {timing}")
    phases = timing.get("phases_ms", {})
    missing = {"parse", "ssa", "constraint-gen", "partition", "solve",
               "solve-bundle", "smt-query", "check"} - set(phases)
    if missing:
        fail(f"metrics: phases_ms missing taxonomy phases {missing}: {phases}")
    symbols = metrics.get("symbols", {})
    if symbols.get("interned", 0) <= 0 or symbols.get("bytes", 0) <= 0:
        fail(f"metrics: symbol table size missing: {symbols}")
    if replayed.get("symbols") != symbols:
        fail(f"metrics: symbol table grew on a replayed edit script: "
             f"{symbols} -> {replayed.get('symbols')}")
    memo = {}
    for tag, m, publishes in (("first", metrics, lines[:3]),
                              ("replayed", replayed, lines[:3] + lines[4:7])):
        memo[tag] = m.get("memo", {}).get("entries")
        bound = memo_bound(publishes)
        if not isinstance(memo[tag], (int, float)) or not 0 < memo[tag] <= bound:
            fail(f"metrics: {tag} verdict memo {m.get('memo')} outside (0, {bound}]")
    print(f"serve_smoke: metrics leg PASS (p50={timing['check_p50_us']}us, "
          f"phases={len(phases)}, symbols={symbols['interned']}, "
          f"memo={memo['first']}/{memo['replayed']})")


def disk_cache_leg(binary):
    """Persistent VC cache round-trip: a cold batch check populates the
    disk tier, the process exits, and a *new* process re-checking the
    same corpus must serve every bundle verdict from disk — zero
    smt-query spans, every bundle reused, identical verdicts."""
    import shutil
    import tempfile

    cache_dir = tempfile.mkdtemp(prefix="rsc-vcc-smoke-")
    files = sorted(str(p) for p in (ROOT / "benchmarks").glob("*.rsc"))
    if not files:
        fail("disk-cache: no benchmark files found")

    def batch(tag):
        proc = subprocess.run(
            [binary, "--vc-cache", cache_dir, "--stats-json"] + files,
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"disk-cache {tag}: rsc exited {proc.returncode}: "
                 f"{proc.stderr[-500:]}")
        return json.loads(proc.stdout)

    try:
        cold = batch("cold")
        # Process exit above is the "kill": only the directory survives.
        warm = batch("warm")

        cold_queries = warm_queries = 0
        for c, w in zip(cold["files"], warm["files"]):
            name = c["file"]
            if c["file"] != w["file"] or c["ok"] != w["ok"]:
                fail(f"disk-cache {name}: warm verdict differs: "
                     f"{c['ok']} vs {w['ok']}")
            # Structural stats (constraints, κ-vars, liquid query counts)
            # are pure functions of the program — identical either way.
            if c["stats"] != {**w["stats"], "bundles_reused": 0}:
                fail(f"disk-cache {name}: warm stats drifted: "
                     f"{c['stats']} vs {w['stats']}")
            if w["stats"]["bundles_reused"] != w["stats"]["bundles"]:
                fail(f"disk-cache {name}: warm run did not reuse every "
                     f"bundle: {w['stats']}")
            cq = {p["name"]: p["count"] for p in c["phases"]}.get("smt-query", 0)
            wq = {p["name"]: p["count"] for p in w["phases"]}.get("smt-query", 0)
            cold_queries += cq
            warm_queries += wq
            print(f"serve_smoke: ok {Path(name).stem:<14} disk-cache "
                  f"smt-queries {cq} -> {wq}, reused "
                  f"{w['stats']['bundles_reused']}/{w['stats']['bundles']}")
        if cold_queries == 0:
            fail("disk-cache: cold run issued no smt queries (broken stats?)")
        if warm_queries != 0:
            fail(f"disk-cache: warm run still issued {warm_queries} smt "
                 "queries; disk tier is not serving verdicts")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    print(f"serve_smoke: disk-cache leg PASS "
          f"(smt-queries {cold_queries} cold -> 0 warm)")


def multi_file_leg(binary):
    """URIs over one workspace: a non-exported edit skips the importer
    entirely; a signature edit re-checks it; same-named private helpers
    in two files don't collide; whole-document-range didChange works."""
    lib_uri = "file:///w/lib.rsc"
    app_uri = "file:///w/app.rsc"
    lib = (
        "type nat = {v: number | 0 <= v};\n"
        "export function step(x: number): nat {\n"
        "    if (x < 0) { return 0; }\n"
        "    return x + 1;\n"
        "}\n"
        "function helper(y: number): number { return y; }\n"
    )
    app = (
        'import {step} from "./lib.rsc";\n'
        "function use(k: number): {v: number | 0 <= v} {\n"
        "    return step(k);\n"
        "}\n"
    )
    body_edit = lib.replace("return y;", "return y + 1;")
    sig_edit = lib.replace(
        "export function step(x: number): nat {",
        "export function step(x: number): {v: number | 0 <= v && x < v} {",
    )
    # Collision workspace: both files declare a non-exported `helper`
    # with *contradictory* refinements — they only verify if each file
    # resolves `helper` to its own module's declaration.
    col_lib_uri = "file:///w/collide_lib.rsc"
    col_app_uri = "file:///w/collide_app.rsc"
    col_lib = (
        "export function inc(x: number): {v: number | x < v} "
        "{ return helper(x); }\n"
        "function helper(y: number): {v: number | y < v} { return y + 1; }\n"
    )
    col_app = (
        'import {inc} from "./collide_lib.rsc";\n'
        "function helper(y: number): {v: number | v <= y} { return y - 1; }\n"
        "function dec(x: number): {v: number | v <= x} { return helper(x); }\n"
        "function use(k: number): {v: number | k < v} { return inc(k); }\n"
    )
    col_break = col_app.replace("return y - 1;", "return y + 1;")

    def open_(uri, text):
        return {"jsonrpc": "2.0", "method": "textDocument/didOpen",
                "params": {"textDocument": {"uri": uri, "text": text}}}

    def change(uri, text):
        return {"jsonrpc": "2.0", "method": "textDocument/didChange",
                "params": {"textDocument": {"uri": uri},
                           "contentChanges": [{"text": text}]}}

    def change_ranged(uri, start, end, text, req_id=None):
        req = {"jsonrpc": "2.0", "method": "textDocument/didChange",
               "params": {"textDocument": {"uri": uri},
                          "contentChanges": [{
                              "range": {
                                  "start": {"line": start[0], "character": start[1]},
                                  "end": {"line": end[0], "character": end[1]},
                              },
                              "text": text}]}}
        if req_id is not None:
            req["id"] = req_id
        return req

    requests = [
        {"jsonrpc": "2.0", "id": 1, "method": "initialize", "params": {}},
        open_(lib_uri, lib),          # 1 line: publish lib
        open_(app_uri, app),          # 1 line: publish app (lib is open)
        change(lib_uri, body_edit),   # 1 line: lib only, importer skipped
        change(lib_uri, sig_edit),    # 2 lines: lib, then importer app
        open_(col_lib_uri, col_lib),  # 1 line: publish collide_lib
        open_(col_app_uri, col_app),  # 1 line: publish collide_app
        # Whole-document range (end past EOF counts as covering): the
        # breaking edit must be applied, not dropped.
        change_ranged(col_app_uri, (0, 0), (999, 0), col_break),
        # Genuinely partial range (first line only), sent as a request
        # so the refusal comes back as a JSON-RPC error line.
        change_ranged(col_app_uri, (0, 0), (1, 0), "// nope\n", req_id=3),
        change_ranged(col_app_uri, (0, 0), (999, 0), col_app),
        {"jsonrpc": "2.0", "id": 2, "method": "shutdown"},
        {"jsonrpc": "2.0", "method": "exit"},
    ]
    lines = run_serve(binary, requests)
    if len(lines) != 12:
        fail(f"multi-file: expected 12 response lines, got {len(lines)}: {lines}")

    def expect_publish(v, uri, verified, step):
        if v.get("method") != "textDocument/publishDiagnostics":
            fail(f"multi-file/{step}: expected publishDiagnostics: {v}")
        if v["params"]["uri"] != uri:
            fail(f"multi-file/{step}: expected uri {uri}: {v}")
        if v["rsc"]["verified"] is not verified:
            fail(f"multi-file/{step}: expected verified={verified}: {v}")
        return v["rsc"]

    expect_publish(lines[1], lib_uri, True, "open-lib")
    expect_publish(lines[2], app_uri, True, "open-app")

    # Non-exported body edit in lib: nothing observable changed for the
    # importer, so its re-check is skipped entirely — one publish line
    # for lib, with the skip counted.
    rsc = expect_publish(lines[3], lib_uri, True, "body-edit-lib")
    if rsc.get("importers_skipped") != 1:
        fail(f"multi-file: body edit did not skip the importer: {rsc}")

    # Exported-signature edit: the importer must be re-checked with the
    # dependency named and exactly its importing unit dirty.
    rsc = expect_publish(lines[4], lib_uri, True, "sig-edit-lib")
    if rsc.get("importers_skipped") != 0:
        fail(f"multi-file: sig edit skipped the importer: {rsc}")
    rsc = expect_publish(lines[5], app_uri, True, "sig-edit-app")
    if rsc["deps_changed"] != [lib_uri]:
        fail(f"multi-file: sig edit did not flag the dependency: {rsc}")
    if "fun:use" not in rsc["dirty_own"]:
        fail(f"multi-file: sig edit did not dirty the importing unit: {rsc}")
    importer_rsc = rsc

    # Collision workspace: both files verify despite declaring the same
    # non-exported `helper` with contradictory refinements.
    expect_publish(lines[6], col_lib_uri, True, "open-collide-lib")
    expect_publish(lines[7], col_app_uri, True, "open-collide-app")

    # Whole-document-range didChange: applied (the broken helper now
    # violates its own refinement), then a partial range is refused,
    # then a covering range restores the clean text.
    expect_publish(lines[8], col_app_uri, False, "ranged-break")
    err = lines[9].get("error", {})
    if lines[9].get("id") != 3 or "full-document sync" not in err.get("message", ""):
        fail(f"multi-file: partial range not refused as InvalidParams: {lines[9]}")
    expect_publish(lines[10], col_app_uri, True, "ranged-restore")

    if lines[11].get("result", "missing") is not None:
        fail(f"multi-file: bad shutdown response: {lines[11]}")
    print("serve_smoke: multi-file leg PASS "
          f"(importer reuse={importer_rsc['reused']}/{importer_rsc['bundles']}, "
          "collision + ranged didChange ok)")


def main():
    check_in_sync()
    args = [a for a in sys.argv[1:]]
    legs = []
    positional = []
    i = 0
    while i < len(args):
        if args[i] == "--leg":
            if i + 1 >= len(args):
                fail("--leg expects a value (lsp | cache-bound | multi-file "
                     "| metrics | disk-cache)")
            legs.append(args[i + 1])
            i += 2
        else:
            positional.append(args[i])
            i += 1
    if len(positional) > 1:
        fail(f"unexpected extra arguments: {positional[1:]}")
    binary = positional[0] if positional else str(ROOT / "target/release/rsc")
    if not legs:
        legs = ["lsp", "multi-file"]
    for leg in legs:
        if leg == "lsp":
            lsp_leg(binary)
        elif leg == "cache-bound":
            cache_bound_leg(binary)
        elif leg == "metrics":
            metrics_leg(binary)
        elif leg == "multi-file":
            multi_file_leg(binary)
        elif leg == "disk-cache":
            disk_cache_leg(binary)
        else:
            fail(f"unknown leg {leg!r}")
    print("serve_smoke: PASS")


if __name__ == "__main__":
    main()
