"""Discovery, parsing and orchestration for ``repro-lint``.

The engine turns a list of paths into :class:`ModuleInfo` records
(path, dotted module name, AST, inline suppressions), builds the
cross-file :class:`ProjectContext` (import graph, hot set reachable
from ``repro.sim.simulator``), runs every active rule and filters
findings through the suppression comments.

Suppression syntax (anywhere in a file)::

    x = time.time()  # repro-lint: disable=DET002
    y = foo()        # repro-lint: disable=DET001,DET003
    # repro-lint: disable-file=INV001
    # repro-lint: disable-file=all

``disable`` silences the listed codes on that physical line;
``disable-file`` silences them for the whole file; ``all`` matches
every code.
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import re
import time
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.lint.rules import Rule, Violation

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.lint.callgraph import CallGraph
    from repro.lint.cfg import CFG

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*|all)")

#: Modules whose wall-clock use is engine/telemetry bookkeeping by
#: design (DET002's allow-list; see docs/static-analysis.md).
WALLCLOCK_EXEMPT_PREFIXES: Tuple[str, ...] = (
    "repro.obs",
    "repro.experiments.engine",
    "repro.experiments.__main__",
)

#: Import-graph roots whose reachable set is the DET002 "hot set".
HOT_ROOTS: Tuple[str, ...] = ("repro.sim.simulator",)

#: Modules whose iteration order feeds cache keys, work-unit ordering
#: or manifest rows (DET003's scope).
ORDER_SENSITIVE_MODULES: Tuple[str, ...] = (
    "repro.sim.config",
    "repro.experiments.engine",
    "repro.experiments.common",
    "repro.experiments.resultcache",
    "repro.obs.manifest",
    "repro.obs.registry",
)

#: Directory names whose standalone scripts are measurement/demo
#: harnesses, not simulator-reachable code: wall-clock use there is
#: the product (throughput benchmarks) and nothing they order feeds a
#: cache key, so the conservative standalone-file scoping is lifted.
SCRIPT_DIR_EXEMPT: Tuple[str, ...] = ("benchmarks", "examples")


def _script_exempt(module: "ModuleInfo") -> bool:
    return any(part in SCRIPT_DIR_EXEMPT for part in module.path.parts)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    name: str                 #: dotted module name ("repro.sim.config")
    in_package: bool          #: False for standalone scripts/fixtures
    tree: ast.Module
    source: str
    #: line -> codes suppressed on that line ({"all"} matches any).
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: codes suppressed for the whole file.
    file_suppressions: Set[str] = field(default_factory=set)
    #: code -> line of the ``disable-file`` comment declaring it
    #: (anchors SUP001 findings about stale file-level suppressions).
    file_suppression_lines: Dict[str, int] = field(default_factory=dict)

    def suppressed(self, violation: Violation) -> bool:
        for pool in (self.file_suppressions,
                     self.line_suppressions.get(violation.line, set())):
            if "all" in pool or violation.code in pool:
                return True
        return False


@dataclass
class ProjectContext:
    """Everything rules may need beyond a single module."""

    modules: List[ModuleInfo]
    by_name: Dict[str, ModuleInfo]
    by_path: Dict[str, ModuleInfo]
    #: modules (dotted names) import-reachable from :data:`HOT_ROOTS`.
    hot_set: Set[str]
    wallclock_exempt: Tuple[str, ...] = WALLCLOCK_EXEMPT_PREFIXES
    order_sensitive: Tuple[str, ...] = ORDER_SENSITIVE_MODULES
    #: ``id(fn_node)`` -> built CFG, shared by every rule family in one
    #: run (SAT001 and LOCK001 both analyse function bodies; the first
    #: to ask pays for construction).
    cfg_cache: Dict[int, "CFG"] = field(default_factory=dict)
    #: construction/reuse counters, asserted by the perf unit test.
    cfg_stats: Dict[str, int] = field(
        default_factory=lambda: {"builds": 0, "hits": 0})
    #: the tier-4 project call graph, built once per run on first
    #: request (CKEY001/CKEY002/PAR002 all share it).
    _callgraph: Optional["CallGraph"] = field(default=None, repr=False)
    #: call-graph construction/reuse counters (same contract as
    #: :attr:`cfg_stats`).
    graph_stats: Dict[str, int] = field(
        default_factory=lambda: {"builds": 0, "hits": 0})
    #: scratch space for cross-rule analysis products keyed by a
    #: namespaced string (the tier-4 summary index and cache-key
    #: reports live here so sibling rules don't recompute them).
    analysis_cache: Dict[str, object] = field(default_factory=dict,
                                              repr=False)

    def callgraph(self) -> "CallGraph":
        """The (cached) project call graph; one build per lint run,
        shared by every interprocedural rule."""
        if self._callgraph is not None:
            self.graph_stats["hits"] += 1
            return self._callgraph
        from repro.lint.callgraph import build_callgraph
        self._callgraph = build_callgraph(self)
        self.graph_stats["builds"] += 1
        return self._callgraph

    def cfg(self, fn: ast.AST) -> "CFG":
        """The (cached) CFG of *fn*; keyed by node identity, which is
        stable for the project's lifetime because the module trees are
        owned by this context."""
        key = id(fn)
        cached = self.cfg_cache.get(key)
        if cached is not None:
            self.cfg_stats["hits"] += 1
            return cached
        from repro.lint.cfg import build_cfg
        built = build_cfg(fn)
        self.cfg_stats["builds"] += 1
        self.cfg_cache[key] = built
        return built

    def wallclock_in_scope(self, module: ModuleInfo) -> bool:
        """DET002 scope: hot-set members minus the allow-list; files
        outside any package are checked conservatively (no import
        information exists to prove them cold) unless they live in a
        benchmark/example script directory."""
        if not module.in_package:
            return not _script_exempt(module)
        if any(module.name == p or module.name.startswith(p + ".")
               for p in self.wallclock_exempt):
            return False
        return module.name in self.hot_set

    def order_in_scope(self, module: ModuleInfo) -> bool:
        """DET003 scope: the order-sensitive module list, plus
        standalone files (conservative, as above)."""
        if not module.in_package:
            return not _script_exempt(module)
        return module.name in self.order_sensitive


# ---------------------------------------------------------------------------
# Discovery
# ---------------------------------------------------------------------------

def discover_files(paths: Sequence[Path]) -> List[Path]:
    """Expand *paths* into a sorted, de-duplicated ``*.py`` list."""
    out: List[Path] = []
    seen: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        else:
            raise FileNotFoundError(f"not a python file or directory: "
                                    f"{path}")
        for cand in candidates:
            if "__pycache__" in cand.parts:
                continue
            resolved = cand.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(cand)
    return out


def module_name_for(path: Path) -> Tuple[str, bool]:
    """Dotted module name for *path*, by climbing ``__init__.py`` dirs.

    Returns ``(name, in_package)``; a file whose directory has no
    ``__init__.py`` is standalone and named by its stem.
    """
    resolved = path.resolve()
    parent = resolved.parent
    parts: List[str] = []
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    parts.reverse()
    stem = resolved.stem
    if not parts:
        return stem, False
    if stem != "__init__":
        parts.append(stem)
    return ".".join(parts), True


def _collect_suppressions(source: str) -> Tuple[Dict[int, Set[str]],
                                                Set[str],
                                                Dict[str, int]]:
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    file_lines: Dict[str, int] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            kind, codes_text = match.groups()
            codes = {c.strip() for c in codes_text.split(",") if c.strip()}
            if kind == "disable-file":
                per_file |= codes
                for code in codes:
                    file_lines.setdefault(code, tok.start[0])
            else:
                per_line.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass
    return per_line, per_file, file_lines


def load_module(path: Path) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    Raises ``SyntaxError`` on unparsable source; the caller reports it
    as a finding rather than crashing the run.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    name, in_package = module_name_for(path)
    line_supp, file_supp, file_lines = _collect_suppressions(source)
    return ModuleInfo(path=path, name=name, in_package=in_package,
                      tree=tree, source=source,
                      line_suppressions=line_supp,
                      file_suppressions=file_supp,
                      file_suppression_lines=file_lines)


# ---------------------------------------------------------------------------
# Import graph (DET002 reachability)
# ---------------------------------------------------------------------------

def _import_candidates(module: ModuleInfo) -> List[str]:
    """Every dotted name *module* references via imports (sorted,
    unfiltered — the hot-set builder intersects with the known module
    set, so the candidate list is file-set independent and cacheable
    by content hash)."""
    deps: Set[str] = set()

    def add(candidate: str) -> None:
        deps.add(candidate)
        # "import a.b.c" also marks packages a and a.b as imported.
        while "." in candidate:
            candidate = candidate.rsplit(".", 1)[0]
            deps.add(candidate)

    package_parts = module.name.split(".")
    if module.path.name != "__init__.py":
        package_parts = package_parts[:-1]

    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[:len(package_parts)
                                           - (node.level - 1)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or ""
            if not base:
                continue
            add(base)
            for alias in node.names:
                add(f"{base}.{alias.name}")
    return sorted(deps)


def compute_hot_set(modules: Sequence[ModuleInfo],
                    roots: Sequence[str] = HOT_ROOTS,
                    candidates: Optional[Dict[str, List[str]]] = None,
                    ) -> Set[str]:
    """Modules transitively imported by *roots* (roots included).

    *candidates* optionally maps module name -> pre-computed (possibly
    cached) import candidate list; missing entries are derived from
    the AST.
    """
    known = {m.name for m in modules if m.in_package}
    graph: Dict[str, Set[str]] = {}
    for module in modules:
        if not module.in_package:
            continue
        cand = (candidates or {}).get(module.name)
        if cand is None:
            cand = _import_candidates(module)
        graph[module.name] = set(cand) & known
    hot: Set[str] = set()
    frontier = [r for r in roots if r in graph]
    while frontier:
        name = frontier.pop()
        if name in hot:
            continue
        hot.add(name)
        frontier.extend(graph.get(name, ()))
    return hot


# ---------------------------------------------------------------------------
# Import-graph cache (CI jobs share it via actions/cache)
# ---------------------------------------------------------------------------

_GRAPH_CACHE_VERSION = 1


def _source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_graph_cache(path: Path) -> Dict[str, List[str]]:
    """sha256(source) -> import candidates; {} when absent/invalid."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict) or \
            payload.get("version") != _GRAPH_CACHE_VERSION:
        return {}
    entries = payload.get("entries")
    if not isinstance(entries, dict):
        return {}
    return {str(k): [str(x) for x in v]
            for k, v in entries.items() if isinstance(v, list)}


def save_graph_cache(path: Path,
                     entries: Dict[str, List[str]]) -> None:
    payload = {"version": _GRAPH_CACHE_VERSION,
               "entries": {k: entries[k] for k in sorted(entries)}}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True),
                    encoding="utf-8")


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

@dataclass
class LintResult:
    violations: List[Violation]
    files_checked: int
    #: rule code -> wall seconds spent in its check hooks this run
    #: (``--timings`` prints it; CI watches for analysis-cost creep).
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(v.severity == "error" for v in self.violations)


def build_project(paths: Sequence[Path],
                  graph_cache: Optional[Path] = None,
                  ) -> Tuple[ProjectContext, List[Violation]]:
    """Parse every file under *paths*; syntax errors become findings.

    *graph_cache* points at a JSON file of content-hashed import
    candidate lists; hits skip the per-module import walk and the file
    is rewritten with the current tree's entries (shared between CI
    jobs via ``actions/cache``).
    """
    parse_errors: List[Violation] = []
    modules: List[ModuleInfo] = []
    for path in discover_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            parse_errors.append(Violation(
                code="PARSE", message=f"syntax error: {exc.msg}",
                path=str(path), line=exc.lineno or 1,
                col=(exc.offset or 1) - 1))
    candidates: Optional[Dict[str, List[str]]] = None
    if graph_cache is not None:
        cached = load_graph_cache(graph_cache)
        fresh: Dict[str, List[str]] = {}
        candidates = {}
        for module in modules:
            if not module.in_package:
                continue
            digest = _source_digest(module.source)
            cand = cached.get(digest)
            if cand is None:
                cand = _import_candidates(module)
            candidates[module.name] = cand
            fresh[digest] = cand
        try:
            save_graph_cache(graph_cache, fresh)
        except OSError:
            pass  # read-only FS: the cache is an optimisation only
    project = ProjectContext(
        modules=modules,
        by_name={m.name: m for m in modules},
        by_path={str(m.path): m for m in modules},
        hot_set=compute_hot_set(modules, candidates=candidates))
    return project, parse_errors


def _audit_suppressions(project: ProjectContext,
                        findings: Sequence[Violation],
                        rules: Sequence[Rule]) -> List[Violation]:
    """SUP001: suppression comments that silenced nothing this run.

    A ``disable=CODE`` token is stale when no CODE finding landed on
    its line (``disable-file``: anywhere in its file).  Only codes of
    *active* rules are audited — a ``--select ASY`` run cannot judge a
    DET suppression — and the ``all`` wildcard and ``SUP001`` itself
    are never audited (the auditor cannot consistently audit its own
    escape hatch).
    """
    active = {rule.code for rule in rules}
    sup_rule = next((r for r in rules if r.code == "SUP001"), None)
    if sup_rule is None:
        return []
    used_line: Set[Tuple[str, int, str]] = set()
    used_file: Set[Tuple[str, str]] = set()
    for violation in findings:
        module = project.by_path.get(violation.path)
        if module is None:
            continue
        for token in ("all", violation.code):
            if token in module.file_suppressions:
                used_file.add((violation.path, token))
            if token in module.line_suppressions.get(violation.line,
                                                     set()):
                used_line.add((violation.path, violation.line, token))

    def auditable(token: str) -> bool:
        return token in active and token != "SUP001"

    out: List[Violation] = []
    for module in project.modules:
        path = str(module.path)
        for line in sorted(module.line_suppressions):
            for token in sorted(module.line_suppressions[line]):
                if auditable(token) and \
                        (path, line, token) not in used_line:
                    out.append(Violation(
                        code="SUP001",
                        message=(f"stale suppression: disable={token} "
                                 f"matches no {token} finding on this "
                                 f"line — remove the comment"),
                        path=path, line=line, col=0,
                        severity=sup_rule.severity))
        for token in sorted(module.file_suppressions):
            if auditable(token) and (path, token) not in used_file:
                out.append(Violation(
                    code="SUP001",
                    message=(f"stale suppression: disable-file={token} "
                             f"matches no {token} finding in this "
                             f"file — remove the comment"),
                    path=path,
                    line=module.file_suppression_lines.get(token, 1),
                    col=0, severity=sup_rule.severity))
    return out


def run_lint(paths: Sequence[Path], rules: Sequence[Rule],
             graph_cache: Optional[Path] = None) -> LintResult:
    """Lint *paths* with *rules*; returns suppression-filtered findings
    sorted by (path, line, col, code)."""
    project, findings = build_project(paths, graph_cache=graph_cache)
    timings: Dict[str, float] = {rule.code: 0.0 for rule in rules}
    for module in project.modules:
        for rule in rules:
            started = time.perf_counter()
            findings.extend(rule.check_module(module, project))
            timings[rule.code] += time.perf_counter() - started
    for rule in rules:
        started = time.perf_counter()
        findings.extend(rule.check_project(project))
        timings[rule.code] += time.perf_counter() - started

    started = time.perf_counter()
    findings.extend(_audit_suppressions(project, findings, rules))
    if "SUP001" in timings:
        timings["SUP001"] += time.perf_counter() - started

    kept: List[Violation] = []
    for violation in findings:
        module = project.by_path.get(violation.path)
        if module is not None and module.suppressed(violation):
            continue
        kept.append(violation)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return LintResult(violations=kept,
                      files_checked=len(project.modules),
                      timings=timings)
