"""sheap_analyze command line.

Modes (combinable; default = run all eight checks on the tree):

  --report            dump the extracted model (locks, edges, atomics, gate)
  --emit-graph FILE   write the extracted lock graph as JSON (CI artifact)
  --emit-markdown     print the generated DESIGN.md lock-rank block
  --check-markdown    fail if DESIGN.md's generated block is stale
  --write-markdown    rewrite DESIGN.md's generated block in place
  --selftest DIR      run the negative-fixture suite under DIR

Exit status: 0 = clean, 1 = findings, 2 = usage/environment error.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile

from . import checks
from . import frontend_clang
from . import frontend_text
from . import rankdoc


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def compdb_files(repo, compdb_path):
    """TU list from the CMake-exported database, repo-relative."""
    with open(compdb_path, "r", encoding="utf-8") as fh:
        db = json.load(fh)
    out = []
    for entry in db:
        f = entry.get("file", "")
        if not os.path.isabs(f):
            f = os.path.join(entry.get("directory", ""), f)
        f = os.path.normpath(f)
        try:
            rel = os.path.relpath(f, repo)
        except ValueError:
            continue
        if rel.startswith("src" + os.sep) and rel.endswith(".cc"):
            out.append(rel)
    return out


def gather_files(repo, compdb_path):
    """All headers under src/ plus the compdb's TUs (or all of src/)."""
    files = []
    for dirpath, _, names in os.walk(os.path.join(repo, "src")):
        for nm in sorted(names):
            rel = os.path.relpath(os.path.join(dirpath, nm), repo)
            if nm.endswith(".h"):
                files.append(rel)
            elif nm.endswith(".cc") and not compdb_path:
                files.append(rel)
    if compdb_path:
        tus = compdb_files(repo, compdb_path)
        if not tus:
            print("sheap_analyze: %s lists no src/*.cc TUs; globbing src/"
                  % compdb_path, file=sys.stderr)
            tus = [os.path.relpath(os.path.join(d, n), repo)
                   for d, _, ns in os.walk(os.path.join(repo, "src"))
                   for n in ns if n.endswith(".cc")]
        files += tus
    files = [f for f in files
             if f != os.path.join("src", "common", "thread_annotations.h")]
    return sorted(set(files))


def analyze(repo, table_path, compdb, which):
    """Build the model of `repo` and run the named checks on it."""
    table = checks.RankTable.load(table_path)
    model = frontend_text.build_model(repo, files=gather_files(repo, compdb))
    analysis = checks.Analysis(model, table, repo)
    analysis.run(which)
    return model, analysis


def run_checks(repo, table_path, compdb, which, frontend, emit_graph=None,
               report=False):
    model, analysis = analyze(repo, table_path, compdb, which)
    if frontend in ("clang", "auto") and compdb:
        inv = (frontend_clang.ast_inventory(repo, compdb)
               if frontend_clang.available() or frontend == "clang"
               else None)
        if inv is None and frontend == "clang":
            print("sheap_analyze: --frontend clang requested but libclang "
                  "is unusable", file=sys.stderr)
            return 2
        if inv is not None:
            for file, msg in frontend_clang.cross_check(model, inv):
                analysis.findings.append(
                    checks.Finding("frontend", file, 0, msg))
    if report:
        print(analysis.report())
    if emit_graph:
        with open(emit_graph, "w", encoding="utf-8") as fh:
            json.dump(analysis.graph_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("sheap_analyze: wrote %s" % emit_graph)
    if analysis.findings:
        for f in analysis.findings:
            print(f)
        print("sheap_analyze: %d finding(s)" % len(analysis.findings))
        return 1
    if not report:
        print("sheap_analyze: clean, %d check(s) (%d locks, %d edges, "
              "%d atomics, %d functions)" %
              (len(which), len(model.locks), len(analysis.extract_edges()),
               len(model.atomics), len(model.funcs)))
    return 0


def match_expected(expected, findings):
    """Pair each expected substring with its own finding. Returns the
    patterns left unmatched and the findings left over; both empty means
    the case produced exactly the expected findings."""
    left = list(findings)
    missing = []
    for pat in expected:
        hit = next((f for f in left if pat in f), None)
        if hit is None:
            missing.append(pat)
        else:
            left.remove(hit)
    return missing, left


def selftest(testdata):
    """Each case = base tree + the case's overlay, run through all checks.
    expect.txt holds one substring per expected finding: every line must
    match its own finding and no finding may be left over."""
    base = os.path.join(testdata, "base")
    cases_dir = os.path.join(testdata, "cases")
    if not os.path.isdir(base) or not os.path.isdir(cases_dir):
        print("selftest: %s must contain base/ and cases/" % testdata)
        return 2
    failures = 0
    cases = sorted(c for c in os.listdir(cases_dir)
                   if os.path.isdir(os.path.join(cases_dir, c)))
    for case in cases:
        case_dir = os.path.join(cases_dir, case)
        with tempfile.TemporaryDirectory(prefix="sheap_analyze_") as tmp:
            shutil.copytree(base, tmp, dirs_exist_ok=True)
            shutil.copytree(case_dir, tmp, dirs_exist_ok=True,
                            ignore=shutil.ignore_patterns("expect.txt"))
            _, analysis = analyze(tmp, os.path.join(tmp, "lock_rank.json"),
                                  None, checks.ALL_CHECKS)
        findings = [str(f) for f in analysis.findings]
        with open(os.path.join(case_dir, "expect.txt"), "r",
                  encoding="utf-8") as fh:
            expected = [ln.strip() for ln in fh
                        if ln.strip() and not ln.startswith("#")]
        missing, extra = match_expected(expected, findings)
        if missing or extra:
            failures += 1
            print("FAIL %s: expected %d finding(s), got %d" %
                  (case, len(expected), len(findings)))
            for pat in missing:
                print("    missing: " + pat)
            for f in extra:
                print("    unexpected: " + f)
        else:
            print("ok   %s (%d finding(s))" % (case, len(findings)))
    if failures:
        print("selftest: %d of %d case(s) failed" % (failures, len(cases)))
        return 1
    print("selftest: all %d cases passed" % len(cases))
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="sheap_analyze", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repo", default=repo_root())
    ap.add_argument("--compdb", default=None,
                    help="compile_commands.json (CMake: "
                    "CMAKE_EXPORT_COMPILE_COMMANDS=ON)")
    ap.add_argument("--rank-table", default=None,
                    help="default: <repo>/tools/lock_rank.json")
    ap.add_argument("--design", default=None,
                    help="default: <repo>/DESIGN.md")
    ap.add_argument("--frontend", choices=("auto", "text", "clang"),
                    default="auto")
    ap.add_argument("--checks", default=",".join(checks.ALL_CHECKS))
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--emit-graph", metavar="FILE")
    ap.add_argument("--emit-markdown", action="store_true")
    ap.add_argument("--check-markdown", action="store_true")
    ap.add_argument("--write-markdown", action="store_true")
    ap.add_argument("--selftest", metavar="DIR")
    args = ap.parse_args(argv)

    if args.selftest:
        return selftest(args.selftest)

    repo = os.path.abspath(args.repo)
    table_path = args.rank_table or os.path.join(repo, "tools",
                                                 "lock_rank.json")
    design = args.design or os.path.join(repo, "DESIGN.md")
    if not os.path.exists(table_path):
        print("sheap_analyze: missing rank table %s" % table_path)
        return 2

    if args.emit_markdown or args.check_markdown or args.write_markdown:
        with open(table_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if args.emit_markdown:
            print(rankdoc.render(data))
        if args.write_markdown:
            rankdoc.write(design, data)
            print("sheap_analyze: rewrote lock-rank block in %s" % design)
        if args.check_markdown:
            with open(design, "r", encoding="utf-8") as fh:
                err = rankdoc.check(fh.read(), data)
            if err:
                print("sheap_analyze: " + err)
                return 1
            print("sheap_analyze: DESIGN.md lock-rank block is current")
        if not (args.report or args.emit_graph):
            return 0

    which = tuple(c.strip() for c in args.checks.split(",") if c.strip())
    unknown = sorted(set(which) - set(checks.ALL_CHECKS))
    if unknown:
        print("sheap_analyze: unknown check(s) %s; known: %s" %
              (", ".join(unknown), ", ".join(checks.ALL_CHECKS)))
        return 2
    compdb = args.compdb
    if compdb and not os.path.exists(compdb):
        print("sheap_analyze: compdb %s not found; globbing src/" % compdb,
              file=sys.stderr)
        compdb = None
    return run_checks(repo, table_path, compdb, which, args.frontend,
                      emit_graph=args.emit_graph, report=args.report)
