"""The eight sheap_analyze checks, run against a Model + tools/lock_rank.json.

Concurrency protocol (on the Model built by a frontend):

  rank     — extract the mutex-acquisition graph (MutexLock nesting, manual
             lock()/unlock(), REQUIRES preconditions, interprocedural
             may-acquire), reconcile it two-sidedly with the declared table,
             verify ranks are monotone and the combined graph is acyclic.
  gate     — every non-exempt public method of the gate class must open (or
             reach) a MutatorGate section; SHEAP_GATE_EXCLUSIVE members must
             never be touched from a shared section, directly or through
             calls.
  atomics  — every atomic access in the declared scope must name an explicit
             std::memory_order, and per variable the release/acquire sides
             must pair up (all-relaxed is fine; one-sided fencing is not).
  coverage — in the declared scope, a member of a mutex-owning class without
             GUARDED_BY needs an explicit `// unguarded:` justification.

Recovery protocol (on the comment/string-blanked text of the tree):

  fault-points   — every SHEAP_FAULT_POINT site in src/ has a unique
                   `subsystem.component.event` name, and the sites agree
                   set-for-set with the arrays in tests/crash_matrix_points.h
                   (an unlisted point is a crash state the matrix skips; a
                   listed point with no site is dead coverage).
  record-types   — every RecordType enumerator (but the kMaxRecordType
                   sentinel) is named in each dispatch file: repeating
                   history needs redo, analysis, the codec and the log
                   inspector to decide on every record type, so those
                   switches carry no `default:`.
  raw-mutex      — std::mutex and friends appear only in
                   src/common/thread_annotations.h: a raw lock is invisible
                   to clang's thread-safety analysis.
  dropped-status — a statement-position call to a durability entry point
                   (Flush, WritePage, ...) must consume its Status; the
                   compiler's [[nodiscard]] rejects a plain drop, this also
                   rejects the `(void)` cast it accepts.
"""

import dataclasses
import json
import os
import re

from . import cxxlex

RELEASE_SIDE = {"release", "acq_rel", "seq_cst"}
ACQUIRE_SIDE = {"acquire", "acq_rel", "seq_cst", "consume"}
RMW_OPS = {"exchange", "fetch_add", "fetch_sub", "fetch_or", "fetch_and",
           "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
           "implicit-rmw"}
WRITE_OPS = {"store", "implicit-store"} | RMW_OPS
READ_OPS = {"load", "implicit-load", "wait"} | RMW_OPS

ALL_CHECKS = ("rank", "gate", "atomics", "coverage", "fault-points",
              "record-types", "raw-mutex", "dropped-status")

# Recovery-protocol check inputs (repo-relative).
MANIFEST_FILE = "tests/crash_matrix_points.h"
RECORD_ENUM_FILE = "src/wal/record.h"
PROTOCOL_FILES = (
    "src/recovery/redo_executor.cc",  # redo plan: what touches heap pages
    "src/recovery/recovery.cc",       # analysis/undo dispatch
    "src/wal/record.cc",              # encode/decode field masks + names
    "src/dtx/two_phase.cc",           # coordinator decision-log rescan
    "examples/log_inspector.cpp",     # human-readable dump
)
ANNOTATIONS_FILE = "src/common/thread_annotations.h"
SENTINEL_ENUMERATOR = "kMaxRecordType"
TEXT_CHECK_DIRS = ("src", "tests", "bench", "examples")
CXX_EXTS = (".h", ".hpp", ".cc", ".cpp")

FAULT_POINT_RE = re.compile(r'SHEAP_FAULT_POINT\s*\(\s*[^,]+,\s*"([^"]+)"')
POINT_NAME_RE = re.compile(r"^[a-z0-9_]+\.[a-z0-9_]+\.[a-z0-9_]+$")
MANIFEST_ARRAY_RE = re.compile(r"\[\]\s*=\s*\{(.*?)\};", re.DOTALL)
QUOTED_RE = re.compile(r'"([^"]+)"')
ENUM_RE = re.compile(r"enum\s+class\s+RecordType[^{]*\{(.*?)\};", re.DOTALL)
ENUMERATOR_RE = re.compile(r"^\s*(k\w+)\s*=", re.MULTILINE)
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|recursive_mutex|shared_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|shared_lock|scoped_lock|"
    r"condition_variable(?:_any)?)\b")
# Durability entry points returning Status. (Plain `Force` is absent on
# purpose: SimLogDevice::Force returns void; LogWriter::Force drops are
# already compile errors via [[nodiscard]].)
STATUS_METHODS = ("AppendAsync|WritePage|WritePageRun|WriteBackPages|"
                  "WriteBack|WriteBackRandomSubset|FlushTo|FlushAll|Flush|"
                  "ForceLog")
_STATUS_CALL = (r"[\w\.\[\]]+(?:(?:\.|->)[\w\[\]]+(?:\(\s*\))?)*(?:\.|->)"
                r"(?:" + STATUS_METHODS + r")\s*\(.*\)\s*;\s*$")
DROPPED_CALL_RE = re.compile(r"^\s*" + _STATUS_CALL)
VOIDED_CALL_RE = re.compile(
    r"^\s*(?:\(\s*void\s*\)|std::ignore\s*=)\s*" + _STATUS_CALL)


@dataclasses.dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.file, self.line, self.check,
                                   self.message)


class RankTable:
    """tools/lock_rank.json — the declared side of the reconciliation."""

    def __init__(self, data):
        self.data = data
        self.ranks = {e["key"]: e["rank"] for e in data.get("locks", [])}
        self.notes = {e["key"]: e.get("note", "")
                      for e in data.get("locks", [])}
        self.edges = {(e["from"], e["to"]): e
                      for e in data.get("edges", [])}
        # Pseudo entries (e.g. the MutatorGate epoch sections) order real
        # mutexes in the documented hierarchy without being sheap::Mutex
        # members themselves, so inventory reconciliation skips them.
        self.pseudo = {e["key"] for e in data.get("locks", [])
                       if e.get("pseudo")}
        gate = data.get("gate", {})
        self.gate_class = gate.get("class", "")
        self.gate_exempt = {e["name"]: e.get("reason", "")
                            for e in gate.get("exempt", [])}
        self.atomics_scope = data.get("atomics", {}).get("scope", [])
        self.coverage_scope = data.get("coverage", {}).get("scope", [])

    @staticmethod
    def load(path):
        with open(path, "r", encoding="utf-8") as fh:
            return RankTable(json.load(fh))


def key_str(cls, field):
    return (cls + "::" + field) if cls else field


def in_scope(path, prefixes):
    return any(path.startswith(p) for p in prefixes)


class Analysis:
    """Shared resolution machinery + the extracted acquisition graph."""

    def __init__(self, model, table, repo):
        self.model = model
        self.table = table
        self.repo = repo
        self.findings = []
        self._sources = {}
        self.func_idx = model.func_index()
        self.lock_by_field = {}
        for d in model.locks:
            self.lock_by_field.setdefault(d.field, []).append(d)
        self._acq = None
        self._edges = None

    # ---- resolution ----

    def resolve_lock(self, expr, cls, file, line, report=True):
        """Lock expression ('mu_', 'shard.mu', 'first.mu') -> key string."""
        expr = re.sub(r"\s+", "", expr)
        parts = re.split(r"\.|->", expr)
        field = re.sub(r"\[[^\]]*\]", "", parts[-1])
        cands = self.lock_by_field.get(field, [])
        if len(cands) == 1:
            return key_str(cands[0].class_path, field)
        if len(parts) > 1:
            recv = re.sub(r"\[[^\]]*\]", "", parts[0])
            t = self._member_type(cls, recv)
            if t:
                narrowed = [d for d in cands
                            if d.class_path == t or
                            d.class_path.startswith(t + "::") or
                            d.class_path.endswith("::" + t)]
                if len(narrowed) == 1:
                    return key_str(narrowed[0].class_path, field)
        scope = cls
        while scope:
            narrowed = [d for d in cands
                        if d.class_path == scope or
                        d.class_path.startswith(scope + "::")]
            if len(narrowed) == 1:
                return key_str(narrowed[0].class_path, field)
            scope = scope.rsplit("::", 1)[0] if "::" in scope else ""
        if report:
            self.findings.append(Finding(
                "rank", file, line,
                "cannot resolve lock expression '%s' (in class '%s') to a "
                "unique sheap::Mutex member" % (expr, cls)))
        return None

    def _member_type(self, cls, name):
        scope = cls
        while True:
            t = self.model.var_types.get(key_str(scope, name))
            if t:
                return t
            if "::" in scope:
                scope = scope.rsplit("::", 1)[0]
            elif scope:
                scope = ""
            else:
                return None

    def resolve_callees(self, fn, recv, method):
        idx = self.func_idx
        out = []
        if recv in ("", "this"):
            scope = fn.class_path
            while True:
                q = key_str(scope, method)
                if q in idx:
                    return idx[q]
                if "::" in scope:
                    scope = scope.rsplit("::", 1)[0]
                elif scope:
                    scope = ""
                else:
                    return idx.get(method, [])
        first = re.sub(r"\[[^\]]*\]", "", re.split(r"\.|->|::", recv)[0])
        t = self._member_type(fn.class_path, first)
        if t is None and first in self.model.classes:
            t = first  # static-style qualified call
        if t:
            q = t + "::" + method
            out = idx.get(q, [])
        return out

    def requires_of(self, fn):
        exprs = list(fn.requires)
        exprs += self.model.requires.get((fn.class_path, fn.name), [])
        keys = set()
        for e in exprs:
            e = e.strip()
            if not e or e.startswith("!"):
                continue
            k = self.resolve_lock(e, fn.class_path, fn.file, fn.line,
                                  report=False)
            if k:
                keys.add(k)
        return keys

    # ---- interprocedural may-acquire ----

    def acquires(self):
        """qname-keyed transitive may-acquire sets (minus REQUIRES)."""
        if self._acq is not None:
            return self._acq
        direct = {}
        calls = {}
        reqs = {}
        for fn in self.model.funcs:
            d = set()
            for ev in fn.events:
                if ev.kind in ("lock", "manual_lock"):
                    k = self.resolve_lock(ev.data, fn.class_path, fn.file,
                                          self._line(fn, ev), report=False)
                    if k:
                        d.add(k)
            direct.setdefault(fn.qname, set()).update(d)
            cl = calls.setdefault(fn.qname, set())
            for ev in fn.events:
                if ev.kind == "call":
                    for callee in self.resolve_callees(fn, *ev.data):
                        cl.add(callee.qname)
            reqs.setdefault(fn.qname, set()).update(self.requires_of(fn))
        acq = {q: set(s) for q, s in direct.items()}
        changed = True
        while changed:
            changed = False
            for q, cl in calls.items():
                for callee in cl:
                    add = acq.get(callee, set()) - reqs.get(callee, set())
                    if not add <= acq[q]:
                        acq[q] |= add
                        changed = True
        self._acq = acq
        return acq

    def _line(self, fn, ev):
        return self.model.lines[fn.file].line_of(ev.pos)

    # ---- extracted edge set ----

    def extract_edges(self):
        """{(from,to): (witness_file, witness_line, count)}."""
        if self._edges is not None:
            return self._edges
        acq = self.acquires()
        edges = {}

        def add(frm, to, file, line):
            cur = edges.get((frm, to))
            edges[(frm, to)] = (cur[0], cur[1], cur[2] + 1) if cur else (
                file, line, 1)

        for fn in self.model.funcs:
            held = []  # (key, start, end)
            for k in self.requires_of(fn):
                held.append((k, fn.body_start, fn.body_end))
            manual_open = []
            events = sorted(fn.events, key=lambda e: e.pos)
            for ev in events:
                line = self._line(fn, ev)
                if ev.kind == "lock":
                    k = self.resolve_lock(ev.data, fn.class_path, fn.file,
                                          line)
                    if not k:
                        continue
                    # h == k yields a self-edge: either an index/address-
                    # ordered two-shard acquisition (declare it with
                    # witness "ordered") or a genuine recursive-lock bug.
                    for h, s, e in held:
                        if s <= ev.pos < e:
                            add(h, k, fn.file, line)
                    for h, s in manual_open:
                        add(h, k, fn.file, line)
                    held.append((k, ev.pos, ev.end))
                elif ev.kind == "manual_lock":
                    k = self.resolve_lock(ev.data, fn.class_path, fn.file,
                                          line, report=False)
                    if not k:
                        continue
                    for h, s, e in held:
                        if s <= ev.pos < e and h != k:
                            add(h, k, fn.file, line)
                    manual_open.append((k, ev.pos))
                elif ev.kind == "manual_unlock":
                    k = self.resolve_lock(ev.data, fn.class_path, fn.file,
                                          line, report=False)
                    manual_open = [(h, s) for h, s in manual_open if h != k]
                elif ev.kind == "call":
                    callees = self.resolve_callees(fn, *ev.data)
                    if not callees:
                        continue
                    now = [h for h, s, e in held if s <= ev.pos < e]
                    now += [h for h, s in manual_open]
                    for callee in callees:
                        inner = (acq.get(callee.qname, set()) -
                                 self.requires_of(callee))
                        for h in now:
                            for k in inner - {h}:
                                add(h, k, fn.file, line)
        self._edges = edges
        return edges

    # ---- check 1: lock rank ----

    def check_rank(self):
        t = self.table
        extracted = self.extract_edges()
        inv = {key_str(d.class_path, d.field) for d in self.model.locks}
        for k in sorted(inv - set(t.ranks)):
            d = next(d for d in self.model.locks
                     if key_str(d.class_path, d.field) == k)
            self.findings.append(Finding(
                "rank", d.file, d.line,
                "mutex '%s' is not in tools/lock_rank.json" % k))
        for k in sorted(set(t.ranks) - inv - t.pseudo):
            self.findings.append(Finding(
                "rank", "tools/lock_rank.json", 0,
                "declared lock '%s' no longer exists in src/" % k))
        for (frm, to), (file, line, count) in sorted(extracted.items()):
            decl = t.edges.get((frm, to))
            if frm == to:
                if not decl or decl.get("witness") != "ordered":
                    self.findings.append(Finding(
                        "rank", file, line,
                        "same-rank double acquisition '%s' -> '%s' must be "
                        "declared with witness \"ordered\" (index/address-"
                        "ordered) in lock_rank.json" % (frm, to)))
                continue
            if decl is None:
                self.findings.append(Finding(
                    "rank", file, line,
                    "acquisition edge '%s' -> '%s' is not declared in "
                    "tools/lock_rank.json (%d site%s)" %
                    (frm, to, count, "s" if count > 1 else "")))
                continue
            rf, rt = t.ranks.get(frm), t.ranks.get(to)
            if rf is not None and rt is not None and rf >= rt:
                self.findings.append(Finding(
                    "rank", file, line,
                    "rank inversion: '%s' (rank %d) acquired while holding "
                    "'%s' (rank %d)" % (to, rt, frm, rf)))
        for (frm, to), decl in sorted(t.edges.items()):
            for end in (frm, to):
                if end not in t.ranks:
                    self.findings.append(Finding(
                        "rank", "tools/lock_rank.json", 0,
                        "edge endpoint '%s' is not a declared lock" % end))
            witness = decl.get("witness", "static")
            if witness == "static" and (frm, to) not in extracted:
                self.findings.append(Finding(
                    "rank", "tools/lock_rank.json", 0,
                    "declared static edge '%s' -> '%s' was not extracted "
                    "from src/ (stale table?)" % (frm, to)))
            if frm != to and frm in t.ranks and to in t.ranks and \
                    t.ranks[frm] >= t.ranks[to]:
                self.findings.append(Finding(
                    "rank", "tools/lock_rank.json", 0,
                    "declared edge '%s' -> '%s' contradicts its ranks "
                    "(%d >= %d)" % (frm, to, t.ranks[frm], t.ranks[to])))
        self._check_acquired_after()
        self._check_cycles(extracted)

    def _check_acquired_after(self):
        for d in self.model.locks:
            me = key_str(d.class_path, d.field)
            for expr in d.acquired_after:
                other = self.resolve_lock(expr, d.class_path, d.file, d.line,
                                          report=False)
                if not other:
                    continue
                rm, ro = self.table.ranks.get(me), self.table.ranks.get(other)
                if rm is not None and ro is not None and rm <= ro:
                    self.findings.append(Finding(
                        "rank", d.file, d.line,
                        "SHEAP_ACQUIRED_AFTER(%s) contradicts lock_rank.json"
                        " (%s rank %d <= %s rank %d)" %
                        (expr, me, rm, other, ro)))

    def _check_cycles(self, extracted):
        graph = {}
        for (frm, to) in list(extracted) + list(self.table.edges):
            if frm != to:
                graph.setdefault(frm, set()).add(to)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {}
        cycle = []

        def dfs(n, path):
            color[n] = GREY
            for m in sorted(graph.get(n, ())):
                if color.get(m, WHITE) == GREY:
                    cycle.append(path[path.index(m):] + [m])
                    return True
                if color.get(m, WHITE) == WHITE and dfs(m, path + [m]):
                    return True
            color[n] = BLACK
            return False

        for n in sorted(graph):
            if color.get(n, WHITE) == WHITE and dfs(n, [n]):
                break
        if cycle:
            self.findings.append(Finding(
                "rank", "tools/lock_rank.json", 0,
                "acquisition graph has a cycle: " +
                " -> ".join(cycle[0])))

    # ---- check 2: gate discipline ----

    def _gate_funcs(self):
        cls = self.table.gate_class
        return [fn for fn in self.model.funcs
                if fn.class_path == cls or
                fn.class_path.startswith(cls + "::") or
                fn.qname.startswith(cls + "::")]

    def _opens_gate(self):
        """qname -> True if the function (transitively) opens a section."""
        opens = {fn.qname: any(ev.kind == "gate" for ev in fn.events)
                 for fn in self.model.funcs}
        calls = {}
        for fn in self.model.funcs:
            cl = calls.setdefault(fn.qname, set())
            for ev in fn.events:
                if ev.kind == "call":
                    for callee in self.resolve_callees(fn, *ev.data):
                        cl.add(callee.qname)
        changed = True
        while changed:
            changed = False
            for q, cl in calls.items():
                if not opens.get(q) and any(opens.get(c) for c in cl):
                    opens[q] = True
                    changed = True
        return opens

    def check_gate(self):
        cls = self.table.gate_class
        if not cls:
            return
        idx = self.func_idx
        opens = self._opens_gate()
        seen = set()
        for md in self.model.method_decls:
            if md.class_path != cls or md.access != "public":
                continue
            base = cls.split("::")[-1]
            if md.name in (base, "operator") or md.name.startswith("~"):
                continue
            if md.name in seen:
                continue
            seen.add(md.name)
            if md.name in self.table.gate_exempt:
                continue
            q = cls + "::" + md.name
            defs = idx.get(q, [])
            if not defs:
                self.findings.append(Finding(
                    "gate", md.file, md.line,
                    "public entry point '%s' has no analyzable definition "
                    "(add it to gate.exempt with a reason if intentional)"
                    % q))
                continue
            for fn in defs:
                if not opens.get(fn.qname):
                    self.findings.append(Finding(
                        "gate", fn.file, fn.line,
                        "public entry point '%s' never opens a MutatorGate "
                        "Shared/ExclusiveSection (and reaches none); gate "
                        "it or add it to gate.exempt with a reason" % q))
        for name in self.table.gate_exempt:
            if name not in seen and not any(
                    md.class_path == cls and md.name == name
                    for md in self.model.method_decls):
                self.findings.append(Finding(
                    "gate", "tools/lock_rank.json", 0,
                    "gate.exempt entry '%s' is not a public method of %s"
                    % (name, cls)))
        self._check_gate_exclusive()

    def _gate_context(self, fn, pos):
        """'shared' / 'exclusive' / None for a position in fn's body."""
        best = None
        best_pos = -1
        for ev in fn.events:
            if ev.kind == "gate" and ev.pos <= pos < ev.end and \
                    ev.pos > best_pos:
                best, best_pos = ev.data, ev.pos
        return best

    def _lambda_spans(self, fn):
        return [(g.body_start, g.body_end) for g in self.model.funcs
                if g.file == fn.file and "<lambda" in g.qname
                and g.qname != fn.qname
                and fn.body_start < g.body_start and
                g.body_end <= fn.body_end]

    def _check_gate_exclusive(self):
        cls = self.table.gate_class
        fields = [m for m in self.model.members
                  if m.class_path == cls and
                  "SHEAP_GATE_EXCLUSIVE" in m.annotations]
        if not fields:
            return
        gate_funcs = self._gate_funcs()
        touches = {}
        for fn in gate_funcs:
            s = self.model.stripped[fn.file]
            spans = self._lambda_spans(fn)
            mine = {}
            for m in fields:
                for occ in re.finditer(r"\b%s\b" % re.escape(m.name), s,
                                       ):
                    p = occ.start()
                    if not (fn.body_start < p < fn.body_end):
                        continue
                    if any(a <= p < b for a, b in spans):
                        continue
                    mine.setdefault(m.name, []).append(p)
            touches[fn.qname] = mine
        trans = {q: set(v) for q, v in touches.items()}
        calls = {}
        for fn in gate_funcs:
            cl = calls.setdefault(fn.qname, set())
            for ev in fn.events:
                if ev.kind == "call":
                    for callee in self.resolve_callees(fn, *ev.data):
                        cl.add(callee.qname)
        changed = True
        while changed:
            changed = False
            for q, cl in calls.items():
                for c in cl:
                    add = trans.get(c, set())
                    if not add <= trans.get(q, set()):
                        trans.setdefault(q, set()).update(add)
                        changed = True
        for fn in gate_funcs:
            for name, positions in touches.get(fn.qname, {}).items():
                for p in positions:
                    if self._gate_context(fn, p) == "shared":
                        self.findings.append(Finding(
                            "gate", fn.file,
                            self.model.lines[fn.file].line_of(p),
                            "SHEAP_GATE_EXCLUSIVE field '%s::%s' touched "
                            "inside a SharedSection" % (cls, name)))
            for ev in fn.events:
                if ev.kind != "call":
                    continue
                if self._gate_context(fn, ev.pos) != "shared":
                    continue
                for callee in self.resolve_callees(fn, *ev.data):
                    hit = trans.get(callee.qname, set())
                    if hit:
                        self.findings.append(Finding(
                            "gate", fn.file, self._line(fn, ev),
                            "call to '%s' inside a SharedSection reaches "
                            "SHEAP_GATE_EXCLUSIVE field(s): %s" %
                            (callee.qname, ", ".join(sorted(hit)))))

    # ---- check 3: atomics audit ----

    def check_atomics(self):
        scope = self.table.atomics_scope
        scoped_names = set()
        for d in self.model.atomics:
            stem = d.file.rsplit(".", 1)[0]
            if in_scope(stem, scope) or in_scope(d.file, scope):
                scoped_names.add(d.name)
        writes = {}
        reads = {}
        sites = {}
        for op in self.model.atomic_ops:
            if op.name not in scoped_names:
                continue
            stem = op.file.rsplit(".", 1)[0]
            if not (in_scope(stem, scope) or in_scope(op.file, scope)):
                continue
            if op.op in ("notify_one", "notify_all"):
                continue
            if not op.orders:
                self.findings.append(Finding(
                    "atomics", op.file, op.line,
                    "atomic '%s': %s without an explicit std::memory_order "
                    "(implicit seq_cst)" % (op.name, op.op)))
                continue
            sites.setdefault(op.name, (op.file, op.line))
            if op.op in WRITE_OPS:
                w = op.orders[0]
                writes.setdefault(op.name, set()).add(w)
            if op.op in READ_OPS:
                r = op.orders[-1] if op.op.startswith("compare_exchange") \
                    else op.orders[0]
                reads.setdefault(op.name, set()).add(r)
                if op.op.startswith("compare_exchange"):
                    reads[op.name].add(op.orders[0])
        for name in sorted(scoped_names):
            w = writes.get(name, set())
            r = reads.get(name, set())
            file, line = sites.get(name, ("", 0))
            if not file:
                continue
            if w & RELEASE_SIDE and r and not (r & ACQUIRE_SIDE):
                self.findings.append(Finding(
                    "atomics", file, line,
                    "atomic '%s': release-side writes (%s) but no acquire-"
                    "side reads (%s) — one-sided fence" %
                    (name, ",".join(sorted(w)), ",".join(sorted(r)))))
            if r & ACQUIRE_SIDE and w and not (w & RELEASE_SIDE):
                self.findings.append(Finding(
                    "atomics", file, line,
                    "atomic '%s': acquire-side reads (%s) but no release-"
                    "side writes (%s) — one-sided fence" %
                    (name, ",".join(sorted(r)), ",".join(sorted(w)))))

    # ---- check 4: annotation coverage ----

    def check_coverage(self):
        scope = self.table.coverage_scope
        locked_classes = {d.class_path for d in self.model.locks}
        for m in self.model.members:
            if not in_scope(m.file, scope):
                continue
            if m.class_path not in locked_classes:
                continue
            if re.search(r"\b(const|constexpr)\b", m.type_text):
                continue
            bare = re.sub(r"\b(mutable|static|inline)\b", " ", m.type_text)
            core = bare.replace(" ", "")
            if core in ("Mutex", "sheap::Mutex", "CondVar",
                        "sheap::CondVar"):
                continue
            if re.match(r"^std::atomic<", core):
                continue
            if m.guarded_by:
                continue
            if self._justified(m):
                continue
            self.findings.append(Finding(
                "coverage", m.file, m.line,
                "member '%s::%s' of a mutex-owning class has no GUARDED_BY "
                "and no '// unguarded:' justification" %
                (m.class_path, m.name)))

    def _justified(self, m):
        raw = self.model.files[m.file].split("\n")
        # The comment must be on the declaration line or up to two lines
        # above it — never below, where it would belong to the next member.
        for ln in range(max(0, m.line - 3), min(len(raw), m.line)):
            if "unguarded:" in raw[ln]:
                return True
        return False

    # ---- recovery-protocol checks: shared source access ----

    def _source(self, rel):
        """(raw, comment/string-blanked) text of a repo file, or None."""
        if rel not in self._sources:
            path = os.path.join(self.repo, rel)
            if not os.path.isfile(path):
                return None
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
            self._sources[rel] = (raw, cxxlex.strip_comments(raw))
        return self._sources[rel]

    def _tree(self, subdirs):
        """Repo-relative paths of the C++ files under `subdirs`, sorted."""
        out = []
        for sub in subdirs:
            for dirpath, _, names in os.walk(os.path.join(self.repo, sub)):
                out += [os.path.relpath(os.path.join(dirpath, nm), self.repo)
                        for nm in names if nm.endswith(CXX_EXTS)]
        return sorted(out)

    def _error(self, check, file, line, message):
        self.findings.append(Finding(check, file, line, message))

    # ---- check 5: fault points ----

    def check_fault_points(self):
        sites = {}  # name -> [(file, line)]
        for rel in self._tree(("src",)):
            raw, text = self._source(rel)
            for m in FAULT_POINT_RE.finditer(text):
                # The blanked view hides the name; positions map 1:1, so
                # read it from the raw text.
                name = raw[m.start(1):m.end(1)]
                sites.setdefault(name, []).append(
                    (rel, text.count("\n", 0, m.start()) + 1))
        for name, where in sorted(sites.items()):
            if len(where) > 1:
                locs = ", ".join("%s:%d" % w for w in where)
                self._error("fault-points", *where[0],
                            'duplicate crash point "%s" (%s); (point, hit) '
                            "must name one site" % (name, locs))
            if not POINT_NAME_RE.match(name):
                self._error("fault-points", *where[0],
                            'crash point "%s" does not follow '
                            "subsystem.component.event (three dot-separated "
                            "lower_snake segments)" % name)
        src = self._source(MANIFEST_FILE)
        if src is None:
            self._error("fault-points", MANIFEST_FILE, 0, "missing manifest")
            return
        mtext = src[0]
        manifest = set()
        for arr in MANIFEST_ARRAY_RE.finditer(mtext):
            manifest.update(QUOTED_RE.findall(arr.group(1)))
        if not manifest:
            self._error("fault-points", MANIFEST_FILE, 0,
                        "manifest has no point arrays")
            return
        for name in sorted(set(sites) - manifest):
            self._error("fault-points", *sites[name][0],
                        'crash point "%s" is not listed in %s — the crash '
                        "matrix will never crash there" %
                        (name, MANIFEST_FILE))
        for name in sorted(manifest - set(sites)):
            line = mtext.count("\n", 0, mtext.index('"%s"' % name)) + 1
            self._error("fault-points", MANIFEST_FILE, line,
                        'manifest lists "%s" but src/ has no such '
                        "SHEAP_FAULT_POINT site" % name)

    # ---- check 6: record-type dispatch ----

    def check_record_types(self):
        src = self._source(RECORD_ENUM_FILE)
        m = ENUM_RE.search(src[1]) if src else None
        if not m:
            self._error("record-types", RECORD_ENUM_FILE, 0,
                        "could not find enum class RecordType")
            return
        enumerators = [e for e in ENUMERATOR_RE.findall(m.group(1))
                       if e != SENTINEL_ENUMERATOR]
        for rel in PROTOCOL_FILES:
            src = self._source(rel)
            if src is None:
                self._error("record-types", rel, 0, "protocol file missing")
                continue
            used = set(re.findall(r"RecordType::(k\w+)", src[1]))
            for e in enumerators:
                if e not in used:
                    self._error("record-types", rel, 0,
                                "RecordType::%s is never dispatched here; "
                                "the switch must stay exhaustive" % e)

    # ---- check 7: raw mutexes ----

    def check_raw_mutex(self):
        for rel in self._tree(TEXT_CHECK_DIRS):
            if rel == ANNOTATIONS_FILE:
                continue
            text = self._source(rel)[1]
            for m in RAW_MUTEX_RE.finditer(text):
                self._error("raw-mutex", rel,
                            text.count("\n", 0, m.start()) + 1,
                            "%s bypasses thread-safety analysis; use "
                            "sheap::Mutex / sheap::MutexLock (%s)" %
                            (m.group(0), ANNOTATIONS_FILE))

    # ---- check 8: dropped Status ----

    def check_dropped_status(self):
        for rel in self._tree(TEXT_CHECK_DIRS):
            for i, line in enumerate(self._source(rel)[1].splitlines(), 1):
                # Continuation lines of a wrapped checking macro have
                # unbalanced parens; whole-statement calls balance.
                if line.count("(") != line.count(")"):
                    continue
                if DROPPED_CALL_RE.match(line):
                    self._error("dropped-status", rel, i,
                                "Status discarded at statement position; "
                                "check it (SHEAP_RETURN_IF_ERROR, a named "
                                "local, or an assertion)")
                elif VOIDED_CALL_RE.match(line):
                    self._error("dropped-status", rel, i,
                                "Status explicitly voided; blanket voiding "
                                "defeats the audit — handle or propagate")

    # ---- driver ----

    def run(self, which=ALL_CHECKS):
        for name in ALL_CHECKS:
            if name in which:
                getattr(self, "check_" + name.replace("-", "_"))()
        return self.findings

    # ---- reporting ----

    def graph_json(self):
        extracted = self.extract_edges()
        return {
            "locks": [{"key": key_str(d.class_path, d.field),
                       "rank": self.table.ranks.get(
                           key_str(d.class_path, d.field)),
                       "declared_at": "%s:%d" % (d.file, d.line)}
                      for d in sorted(self.model.locks,
                                      key=lambda d: d.key)],
            "extracted_edges": [
                {"from": frm, "to": to, "sites": count,
                 "witness": "%s:%d" % (file, line)}
                for (frm, to), (file, line, count)
                in sorted(extracted.items())],
            "declared_edges": [
                dict(e) for _, e in sorted(self.table.edges.items())],
        }

    def report(self):
        lines = []
        lines.append("== locks ==")
        for d in sorted(self.model.locks, key=lambda d: d.key):
            k = key_str(d.class_path, d.field)
            lines.append("  %-40s rank=%-4s %s:%d" %
                         (k, self.table.ranks.get(k, "?"), d.file, d.line))
        lines.append("== extracted edges ==")
        for (frm, to), (file, line, count) in sorted(
                self.extract_edges().items()):
            mark = " " if (frm, to) in self.table.edges else "!"
            lines.append("%s %-38s -> %-38s %dx  %s:%d" %
                         (mark, frm, to, count, file, line))
        lines.append("== atomics ==")
        for op in self.model.atomic_ops:
            lines.append("  %-22s %-24s [%s]  %s:%d" %
                         (op.name, op.op, ",".join(op.orders),
                          op.file, op.line))
        lines.append("== gate entry points (%s) ==" % self.table.gate_class)
        opens = self._opens_gate()
        seen = set()
        for md in self.model.method_decls:
            if md.class_path != self.table.gate_class or \
                    md.access != "public" or md.name in seen:
                continue
            seen.add(md.name)
            q = md.class_path + "::" + md.name
            status = ("exempt" if md.name in self.table.gate_exempt else
                      "gated" if any(opens.get(f.qname)
                                     for f in self.func_idx.get(q, []))
                      else "UNGATED")
            lines.append("  %-44s %s" % (q, status))
        return "\n".join(lines)
