"""Interprocedural effect summaries and the cache-key soundness rules.

The tier-4 engine computes one :class:`FunctionSummary` per function
in the :mod:`~repro.lint.callgraph` — the function's *local* behaviour
— then propagates attribute reads bottom-up over the call graph so a
caller's transitive summary includes everything its callees may do.

The summary domain is a join-semilattice: a summary is a set of
attribute leaf names read (``cfg.drishti.counter_bits`` contributes
``{"drishti", "counter_bits"}``) plus a set of external-effect sites
(env reads, module-global writes, event-bus publishes — the PAR001
effect vocabulary).  Join is set union, so the fixpoint over a cycle
is the union of the cycle's members; :func:`strongly_connected`
collapses cycles and yields components callees-first, which makes
propagation a single bottom-up pass.

Built on the summaries, three rules:

* **CKEY001** — a field that simulator-reachable code reads must
  appear in ``canonical_dict()``.  Dropping it makes two behaviourally
  different configs share a :class:`~repro.cache.resultcache.ResultCache`
  key: a *stale hit* that silently returns the wrong run's numbers.
* **CKEY002** — a field in ``canonical_dict()`` that no
  simulator-reachable code reads splits the key space for nothing:
  every sweep over that field pays a *spurious miss* per value.
* **PAR002** — the interprocedural upgrade of PAR001: impure effects
  (env reads, global writes, bus publishes) anywhere *reachable* from
  a pool-submitted work unit, including through methods, which the
  syntactic PAR001 walk cannot follow.

Deliberate exceptions live in :mod:`repro.lint.ckey_pin`, regenerated
with ``repro-lint --ckey-pin`` (same contract as ``events_pin``).

Field-read matching is by *leaf name*: a nested path ``l1.mshrs``
counts as read when any reachable function reads an attribute named
``mshrs``.  That over-matches (an unrelated ``mshrs`` attribute on
another object also counts), which is the safe direction for both
rules — CKEY001 only fires on fields that are excluded *and* read, so
over-matching can only add true-positive pressure there, and CKEY002
stays quiet rather than crying wolf about a field that is in fact
consumed.  Reading a sub-config object whole (``cfg.l1``) marks only
the ``l1`` path, not its children: passing a sub-config somewhere is
not evidence any given child field affects results.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterator, List, Optional, Set,
                    Tuple)

from repro.lint.callgraph import CallGraph, FunctionId
from repro.lint.cfg import iter_cfg_nodes
from repro.lint.ckey_pin import (PINNED_EXCLUDED_FIELDS,
                                 PINNED_UNREAD_FIELDS)
from repro.lint.dataflow import strongly_connected
from repro.lint.engine import ModuleInfo, ProjectContext
from repro.lint.purity import (dotted_ref, local_names,
                               pool_walk_visited, store_base,
                               submitted_functions, _module_scope,
                               _MUTATING_METHODS)
from repro.lint.rules import Rule, Violation, register_rule

__all__ = ["EffectSite", "FunctionSummary", "SummaryIndex",
           "KeyReport", "collect_ckey_pins", "collect_key_reports",
           "render_ckey_pin", "summary_index"]

#: Classes whose methods root the "simulator-reachable" set.
SIM_ROOT_CLASSES = frozenset({"Simulator"})


@dataclass(frozen=True)
class EffectSite:
    """One external effect a function performs, anchored to source."""

    kind: str       #: "global-write" | "env-read" | "bus-publish" | ...
    message: str
    path: str
    line: int
    col: int


@dataclass(frozen=True)
class FunctionSummary:
    """Local (intraprocedural) summary of one function."""

    #: leaf names of every attribute read (``x.a.b`` -> {"a", "b"}).
    attr_reads: FrozenSet[str]
    #: PAR001-vocabulary effect sites performed directly by this body.
    effects: Tuple[EffectSite, ...]


def _local_summary(module: ModuleInfo, fn: ast.AST,
                   project: ProjectContext,
                   bindings: Tuple[Dict[str, str],
                                   Dict[str, Tuple[str, str]]],
                   ) -> FunctionSummary:
    """Walk one function's CFG nodes and record reads + effects.

    Nested ``def``/``lambda`` bodies are part of the enclosing
    function's blocks (the CFG treats them as opaque statements), so
    their reads and effects fold into this summary — which matches how
    they execute: only when the enclosing function runs them.
    """
    aliases, from_names = bindings
    module_names, _functions = _module_scope(module)
    local = local_names(fn)
    fn_name = getattr(fn, "name", "<fn>")
    reads: Set[str] = set()
    effects: List[EffectSite] = []

    def effect(kind: str, node: ast.AST, message: str) -> None:
        effects.append(EffectSite(
            kind=kind, message=message, path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0)))

    for node in iter_cfg_nodes(project.cfg(fn)):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Global):
            effect("global-write", node,
                   f"'{fn_name}' declares global "
                   f"{', '.join(node.names)}: module-global writes "
                   f"diverge between serial and pooled runs")
        elif isinstance(node, ast.Nonlocal):
            effect("closure-write", node,
                   f"'{fn_name}' mutates closed-over state "
                   f"({', '.join(node.names)})")
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                base = store_base(target)
                if base is not None and base not in local and \
                        base in module_names:
                    effect("global-write", node,
                           f"'{fn_name}' writes module-level "
                           f"'{base}': lost when the worker exits, "
                           f"so pooled and serial runs diverge")
        elif isinstance(node, ast.Call):
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if isinstance(func.value, ast.Name):
                owner = func.value.id
                if func.attr in _MUTATING_METHODS and \
                        owner not in local and owner in module_names:
                    effect("global-mutate", node,
                           f"'{fn_name}' calls .{func.attr}() on "
                           f"module-level '{owner}'")
            dotted = dotted_ref(func, aliases, from_names)
            if dotted in ("os.environ.get", "os.getenv"):
                effect("env-read", node,
                       f"'{fn_name}' reads os.environ: workers may "
                       f"see a different environment than the parent")
            elif dotted is not None and (
                    dotted.startswith("repro.obs.events.")
                    or dotted == "repro.obs.events"):
                effect("bus-publish", node,
                       f"'{fn_name}' publishes to the process-global "
                       f"repro.obs.events bus: parent-registered "
                       f"subscribers never fire in a pool worker")
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.value, ast.Attribute):
            dotted = dotted_ref(node.value, aliases, from_names)
            if dotted == "os.environ":
                effect("env-read", node,
                       f"'{fn_name}' reads os.environ")
    return FunctionSummary(attr_reads=frozenset(reads),
                           effects=tuple(effects))


class SummaryIndex:
    """Per-function local summaries + transitive attribute reads.

    Transitive reads are the union of local reads over the call-graph
    reachable set; they are computed in one bottom-up pass over the
    condensation (SCCs callees-first), so cycles converge without
    iteration.  Effects are *not* transitively folded — PAR002 walks
    the reachable set and reports each local effect at its own source
    line, which gives better anchors than a root-level union would.
    """

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.graph: CallGraph = project.callgraph()
        self._local: Dict[FunctionId, FunctionSummary] = {}
        for fid, node in self.graph.functions.items():
            bindings = self.graph.bindings.get(node.module.name,
                                               ({}, {}))
            self._local[fid] = _local_summary(
                node.module, node.node, project, bindings)
        edges: Dict[FunctionId, FrozenSet[FunctionId]] = {
            fid: self.graph.callees(fid) for fid in self.graph.functions
        }
        self._transitive: Dict[FunctionId, FrozenSet[str]] = {}
        for component in strongly_connected(edges):
            reads: Set[str] = set()
            members = set(component)
            for fid in component:
                reads |= self._local[fid].attr_reads
                for callee in edges.get(fid, frozenset()):
                    if callee not in members:
                        reads |= self._transitive.get(callee,
                                                      frozenset())
            shared = frozenset(reads)
            for fid in component:
                self._transitive[fid] = shared

    def local(self, fid: FunctionId) -> FunctionSummary:
        return self._local.get(
            fid, FunctionSummary(frozenset(), ()))

    def transitive_reads(self, fid: FunctionId) -> FrozenSet[str]:
        return self._transitive.get(fid, frozenset())


def summary_index(project: ProjectContext) -> SummaryIndex:
    """The per-run :class:`SummaryIndex` (built once, shared by the
    CKEY and PAR002 rules through ``project.analysis_cache``)."""
    cached = project.analysis_cache.get("tier4.summaries")
    if isinstance(cached, SummaryIndex):
        return cached
    index = SummaryIndex(project)
    project.analysis_cache["tier4.summaries"] = index
    return index


# ---------------------------------------------------------------------------
# Cache-key analysis
# ---------------------------------------------------------------------------

@dataclass
class KeyReport:
    """Cache-key surface of one ``canonical_dict()``-bearing class."""

    module: ModuleInfo
    class_node: ast.ClassDef
    #: field path -> (leaf attr name, AnnAssign anchor) for fields the
    #: canonical dict keeps.
    included: Dict[str, Tuple[str, ast.AST]]
    #: field path -> pop/del/return anchor for fields it drops.
    excluded: Dict[str, ast.AST]
    #: leaf attr names transitively read from the simulator roots.
    reads: FrozenSet[str]
    #: functions reachable from the roots (for witness lookup).
    reachable: FrozenSet[FunctionId]
    #: False when the module group has no Simulator —
    #: reads are then vacuously empty and the CKEY rules stay silent.
    has_roots: bool


def _group_modules(module: ModuleInfo,
                   project: ProjectContext) -> List[ModuleInfo]:
    """Modules analysed together with *module*: its top-level package,
    or just itself for a standalone file (lint fixtures)."""
    if not module.in_package:
        return [module]
    top = module.name.split(".")[0]
    return [m for m in project.modules
            if m.in_package and m.name.split(".")[0] == top]


def _canonical_method(cls: ast.ClassDef) -> Optional[ast.FunctionDef]:
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and \
                stmt.name == "canonical_dict":
            return stmt
    return None


def _asdict_names(method: ast.FunctionDef) -> Set[str]:
    """Locals bound to ``asdict(self)`` inside *method*."""
    out: Set[str] = set()
    for node in ast.walk(method):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        func = node.value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else "")
        if name != "asdict":
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                out.add(target.id)
    return out


def _data_path(expr: ast.expr, data_names: Set[str]) -> Optional[str]:
    """``data["l1"]`` -> ``"l1"``; ``data`` -> ``""``; None when the
    chain does not root in an ``asdict(self)`` local or a key is not a
    string literal."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Subscript):
        if not (isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)):
            return None
        parts.append(node.slice.value)
        node = node.value
    if isinstance(node, ast.Name) and node.id in data_names:
        parts.reverse()
        return ".".join(parts)
    return None


def _method_exclusions(method: ast.FunctionDef,
                       data_names: Set[str]) -> Dict[str, ast.AST]:
    """Field paths ``canonical_dict`` drops: ``d.pop("x", ...)``,
    ``d["sub"].pop("x", ...)`` and ``del d["x"]`` where ``d`` roots in
    an ``asdict(self)`` local."""
    out: Dict[str, ast.AST] = {}
    for node in ast.walk(method):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "pop" and node.args:
            key = node.args[0]
            if not (isinstance(key, ast.Constant)
                    and isinstance(key.value, str)):
                continue
            prefix = _data_path(node.func.value, data_names)
            if prefix is not None:
                path = f"{prefix}.{key.value}" if prefix else key.value
                out[path] = node
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                if not (isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)):
                    continue
                prefix = _data_path(target.value, data_names)
                if prefix is not None:
                    key_str = target.slice.value
                    path = f"{prefix}.{key_str}" if prefix \
                        else key_str
                    out[path] = node
    return out


def _explicit_keys(method: ast.FunctionDef,
                   ) -> Optional[Tuple[Set[str], ast.AST]]:
    """Keys of a literal-dict ``return {...}`` body, if that is the
    canonical form (no ``asdict`` found)."""
    for node in ast.walk(method):
        if isinstance(node, ast.Return) and \
                isinstance(node.value, ast.Dict):
            keys: Set[str] = set()
            for key in node.value.keys:
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    return None
                keys.add(key.value)
            return keys, node
    return None


def _config_fields(cls: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    return [(stmt.target.id, stmt) for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


def collect_key_reports(project: ProjectContext) -> List[KeyReport]:
    """One :class:`KeyReport` per class defining ``canonical_dict``,
    cached on the project for the run's lifetime."""
    cached = project.analysis_cache.get("tier4.ckey")
    if isinstance(cached, list):
        return cached
    graph = project.callgraph()
    index = summary_index(project)
    reports: List[KeyReport] = []
    for module in project.modules:
        for stmt in module.tree.body:
            if not isinstance(stmt, ast.ClassDef):
                continue
            method = _canonical_method(stmt)
            if method is None:
                continue
            reports.append(_build_report(module, stmt, method,
                                         project, graph, index))
    project.analysis_cache["tier4.ckey"] = reports
    return reports


def _build_report(module: ModuleInfo, cls: ast.ClassDef,
                  method: ast.FunctionDef, project: ProjectContext,
                  graph: CallGraph,
                  index: SummaryIndex) -> KeyReport:
    group = _group_modules(module, project)
    group_names = {m.name for m in group}
    roots = [fid for fid in graph.functions
             if fid[0] in group_names
             and fid[1].split(".")[0] in SIM_ROOT_CLASSES]
    reachable = frozenset(graph.reachable(roots))
    reads: Set[str] = set()
    for fid in roots:
        reads |= index.transitive_reads(fid)

    included: Dict[str, Tuple[str, ast.AST]] = {}
    excluded: Dict[str, ast.AST] = {}
    data_names = _asdict_names(method)
    explicit = _explicit_keys(method) if not data_names else None
    method_drops = _method_exclusions(method, data_names)
    for name, ann in _config_fields(cls):
        sub_fields: List[Tuple[str, str]] = []  # (path, leaf)
        for sub_cid in graph.annotation_classes(module.name,
                                                ann.annotation):
            sub_info = graph.classes.get(sub_cid)
            if sub_info is None:
                continue
            for sub_name, _sub_ann in _config_fields(sub_info.node):
                sub_fields.append((f"{name}.{sub_name}", sub_name))
        field_paths = sub_fields or [(name, name)]
        if explicit is not None:
            keys, anchor = explicit
            if name not in keys:
                excluded[name] = anchor
                continue
        elif name in method_drops:
            excluded[name] = method_drops[name]
            continue
        for path, leaf in field_paths:
            if path in method_drops:
                excluded[path] = method_drops[path]
            else:
                included[path] = (leaf, ann)
    return KeyReport(module=module, class_node=cls,
                     included=included, excluded=excluded,
                     reads=frozenset(reads), reachable=reachable,
                     has_roots=bool(roots))


def _read_witness(report: KeyReport, index: SummaryIndex,
                  leaf: str) -> Optional[FunctionId]:
    """A reachable function whose *local* summary reads *leaf*."""
    for fid in sorted(report.reachable):
        if leaf in index.local(fid).attr_reads:
            return fid
    return None


# ---------------------------------------------------------------------------
# Pin regeneration
# ---------------------------------------------------------------------------

def collect_ckey_pins(project: ProjectContext,
                      ) -> Tuple[Set[str], Set[str]]:
    """``(excluded-but-read, included-but-unread)`` field paths the
    current tree would flag — the content of a fresh ckey pin."""
    excluded_read: Set[str] = set()
    unread: Set[str] = set()
    for report in collect_key_reports(project):
        if not report.has_roots:
            continue
        for path in report.excluded:
            if path.split(".")[-1] in report.reads:
                excluded_read.add(path)
        for path, (leaf, _ann) in report.included.items():
            if leaf not in report.reads:
                unread.add(path)
    return excluded_read, unread


_PIN_HEADER = '''\
"""Pinned cache-key field sets for the CKEY rules.

Two allowlists over :meth:`SystemConfig.canonical_dict` field paths:

* ``PINNED_EXCLUDED_FIELDS`` — fields the canonical dict *drops* even
  though simulator-reachable code reads them.  Each entry is a
  deliberate, reviewed exception to CKEY001: a field that selects
  between golden-pinned bit-identical implementations may be excluded
  so the result cache stays shared across them.
* ``PINNED_UNREAD_FIELDS`` — fields the canonical dict *keeps* that no
  simulator-reachable code reads.  Each entry is a deliberate
  exception to CKEY002 (a field kept for forward compatibility pays
  spurious cache misses knowingly).

To update after intentionally changing the key surface:

1. make the code change (field, read site, or canonical_dict), then
2. regenerate this module:
   ``repro-lint --ckey-pin src/repro > src/repro/lint/ckey_pin.py``
   and review the diff — a new entry means a new hole in cache-key
   soundness and should be argued for in review.

This file is generated by :func:`repro.lint.summaries.render_ckey_pin`
and must stay byte-identical to its output on a clean tree (CI
enforces the round-trip).
"""

from __future__ import annotations

from typing import FrozenSet

'''


def _render_field_set(name: str, values: Set[str]) -> str:
    if not values:
        return f"{name}: FrozenSet[str] = frozenset()\n"
    body = "\n".join(f'    "{value}",' for value in sorted(values))
    return (f"{name}: FrozenSet[str] = frozenset({{\n"
            f"{body}\n}})\n")


def render_ckey_pin(excluded_read: Set[str],
                    unread: Set[str]) -> str:
    """The full source of ``ckey_pin.py`` for the given field sets."""
    return (_PIN_HEADER
            + _render_field_set("PINNED_EXCLUDED_FIELDS",
                                excluded_read)
            + "\n"
            + _render_field_set("PINNED_UNREAD_FIELDS", unread))


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

_KEY_RECIPE = ("see the cache-key recipe in docs/performance.md; "
               "deliberate exceptions are pinned via "
               "'repro-lint --ckey-pin'")


@register_rule
class CacheKeyCompletenessRule(Rule):
    """CKEY001: every behaviour-affecting config field is in the key."""

    code = "CKEY001"
    title = "config field read by simulator-reachable code is " \
            "missing from canonical_dict()"
    severity = "error"
    tier = "interproc"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        index = summary_index(project)
        for report in collect_key_reports(project):
            if not report.has_roots:
                continue
            for path, anchor in sorted(report.excluded.items()):
                leaf = path.split(".")[-1]
                if leaf not in report.reads or \
                        path in PINNED_EXCLUDED_FIELDS:
                    continue
                witness = _read_witness(report, index, leaf)
                where = f"{witness[0]}:{witness[1]}" if witness \
                    else "simulator-reachable code"
                yield self.violation(
                    report.module, anchor,
                    f"'{path}' is dropped from canonical_dict() but "
                    f"'{where}' reads '.{leaf}': configs differing "
                    f"only in '{path}' share a result-cache key and "
                    f"stale-hit each other's numbers; {_KEY_RECIPE}")


@register_rule
class CacheKeyMinimalityRule(Rule):
    """CKEY002: every field in the key is actually consumed."""

    code = "CKEY002"
    title = "canonical_dict() field no simulator-reachable code " \
            "reads (spurious cache misses)"
    severity = "error"
    tier = "interproc"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        for report in collect_key_reports(project):
            if not report.has_roots:
                continue
            for path, (leaf, anchor) in sorted(
                    report.included.items()):
                if leaf in report.reads or \
                        path in PINNED_UNREAD_FIELDS:
                    continue
                yield self.violation(
                    report.module, anchor,
                    f"'{path}' is in canonical_dict() but nothing "
                    f"reachable from {'/'.join(sorted(SIM_ROOT_CLASSES))} "
                    f"reads '.{leaf}': sweeps over it pay a spurious "
                    f"cache miss per value — drop it from the key or "
                    f"pin it as a deliberate exception; {_KEY_RECIPE}")


@register_rule
class DeepPoolPurityRule(Rule):
    """PAR002: interprocedural purity of pool-submitted work units.

    PAR001 walks module-level calls syntactically and stops at method
    boundaries; this rule re-checks every function *reachable* in the
    call graph from a submitted root, so effects buried in methods
    (or behind bound-method hoists and registry dispatch) surface.
    Module-level functions PAR001 already visited are skipped — one
    finding per effect site, never two rules on one line.
    """

    code = "PAR002"
    title = "impure effect reachable from a pool-submitted work unit"
    severity = "error"
    tier = "interproc"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        roots: Set[FunctionId] = set()
        for module in project.modules:
            for mod, fname, _call in submitted_functions(module,
                                                         project):
                roots.add((mod, fname))
        if not roots:
            return
        graph = project.callgraph()
        index = summary_index(project)
        shallow = pool_walk_visited(project)
        seen: Set[Tuple[str, int, int, str]] = set()
        for fid in sorted(graph.reachable(roots)):
            if "." not in fid[1] and fid in shallow:
                continue
            for site in index.local(fid).effects:
                key = (site.path, site.line, site.col, site.kind)
                if key in seen:
                    continue
                seen.add(key)
                yield Violation(
                    code=self.code,
                    message=f"{site.message} (reachable from a "
                            f"pool-submitted work unit via "
                            f"{fid[0]}:{fid[1]})",
                    path=site.path, line=site.line, col=site.col,
                    severity=self.severity)
