"""Invariant rules: INV001 (stats-method pairing), INV002 (policy
registry coverage), INV003 (``SystemConfig`` structural pin), INV004
(access-pattern registry coverage).

These enforce the repo's cross-file contracts:

* the PR 2 observability contract — a component that can zero its
  counters (``reset_stats``) must also expose them (``publish_stats``)
  and vice versa, or telemetry silently diverges from results;
* every replacement-policy module must be wired into
  ``replacement/registry.py`` (which is what the smoke matrix, the
  sweep engine and the CLI enumerate);
* the ``SystemConfig`` field set is pinned per
  ``CACHE_SCHEMA_VERSION`` — adding a config-affecting field without
  bumping the version would make stale cache entries collide with new
  semantics;
* every concrete ``*Pattern`` generator must be ``@register_pattern``-
  decorated, so ``create_pattern``, declarative workload specs and the
  registry-wide simulation test can enumerate it.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.engine import ModuleInfo, ProjectContext
from repro.lint.rules import Rule, Violation, register_rule

# -- INV001 -----------------------------------------------------------------

_STATS_PAIR = ("reset_stats", "publish_stats")


@register_rule
class StatsPairRule(Rule):
    """INV001: ``reset_stats`` and ``publish_stats`` come in pairs.

    A class that defines exactly one of the two can either zero
    counters nobody can observe, or publish counters that survive the
    post-warmup reset — both split the telemetry view from the result
    view.  Define the missing method (or suppress for classes that
    genuinely own only half the contract).
    """

    code = "INV001"
    title = "reset_stats/publish_stats defined without its pair"

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            defined = {stmt.name for stmt in node.body
                       if isinstance(stmt, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))}
            has = [name for name in _STATS_PAIR if name in defined]
            if len(has) == 1:
                missing = [n for n in _STATS_PAIR if n != has[0]][0]
                yield self.violation(
                    module, node,
                    f"class {node.name} defines {has[0]} but not "
                    f"{missing}; stats components must implement both "
                    f"(PR 2 observability contract)")


# -- INV002 -----------------------------------------------------------------

#: Module basenames under replacement/ that legitimately hold no
#: registered policy (infrastructure, the registry itself).
_REPLACEMENT_EXEMPT_BASENAMES = {"__init__", "base", "registry",
                                 "sampled_cache"}


def _replacement_prefix(name: str) -> Optional[str]:
    """Dotted prefix up to and including the ``replacement`` package,
    or None when *name* is not inside one."""
    parts = name.split(".")
    if "replacement" not in parts:
        return None
    idx = parts.index("replacement")
    if idx == len(parts) - 1:  # the package __init__ itself
        return None
    return ".".join(parts[:idx + 1])


def _policy_classes(tree: ast.Module) -> List[ast.ClassDef]:
    """Classes that look like concrete policies: ``*Policy`` with a
    class-level string ``name`` attribute."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) \
                or not node.name.endswith("Policy"):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.Assign) \
                    and any(isinstance(t, ast.Name) and t.id == "name"
                            for t in stmt.targets) \
                    and isinstance(stmt.value, ast.Constant) \
                    and isinstance(stmt.value.value, str):
                out.append(node)
                break
    return out


@register_rule
class PolicyRegistryRule(Rule):
    """INV002: every policy module is registered and smoke-covered.

    The policy registry is the single enumeration point: the smoke
    matrix (`tests/test_policy_smoke_matrix.py`), the sweep engine and
    the experiment CLIs all iterate ``POLICY_REGISTRY``.  A policy
    class sitting in ``replacement/`` but absent from ``registry.py``
    silently drops out of every sweep and every CI smoke run.
    """

    code = "INV002"
    title = "replacement policy missing from registry / smoke matrix"

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        prefix = _replacement_prefix(module.name)
        if prefix is None or not module.in_package:
            return
        basename = module.name.rsplit(".", 1)[-1]
        if basename in _REPLACEMENT_EXEMPT_BASENAMES:
            return
        registry = project.by_name.get(f"{prefix}.registry")
        if registry is None:
            return  # linting a partial tree; nothing to check against
        registry_names = {n.id for n in ast.walk(registry.tree)
                          if isinstance(n, ast.Name)}
        for cls in _policy_classes(module.tree):
            if cls.name not in registry_names:
                yield self.violation(
                    module, cls,
                    f"policy class {cls.name} is not referenced by "
                    f"{registry.path.name}; register it in "
                    f"POLICY_REGISTRY so sweeps and the smoke matrix "
                    f"cover it")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        # Smoke-matrix coverage: the matrix must keep enumerating the
        # registry (policy_names / POLICY_REGISTRY) rather than a
        # hand-written list that new policies would silently miss.
        for module in project.modules:
            if module.name.endswith(".replacement.registry"):
                repo_root = _repo_root_for(module)
                if repo_root is None:
                    continue
                smoke = repo_root / "tests" / "test_policy_smoke_matrix.py"
                if not smoke.exists():
                    continue
                text = smoke.read_text(encoding="utf-8")
                if "policy_names" not in text \
                        and "POLICY_REGISTRY" not in text:
                    yield Violation(
                        code=self.code, severity=self.severity,
                        message=("tests/test_policy_smoke_matrix.py no "
                                 "longer enumerates the policy registry "
                                 "(policy_names/POLICY_REGISTRY); new "
                                 "policies would escape the smoke "
                                 "matrix"),
                        path=str(smoke), line=1)


def _repo_root_for(module: ModuleInfo) -> Optional[object]:
    """Repository root for an in-package module: the directory holding
    the package root's parent (``src/..``)."""
    if not module.in_package:
        return None
    depth = len(module.name.split("."))
    path = module.path.resolve()
    for _ in range(depth):
        path = path.parent
    return path.parent


# -- INV004 -----------------------------------------------------------------

def _pattern_kind(node: ast.ClassDef) -> Optional[str]:
    """The class-level string ``kind`` constant of *node*, if any.

    Handles both plain assignments (``kind = "uniform"``) and annotated
    ones (``kind: ClassVar[str] = ""``).
    """
    for stmt in node.body:
        if isinstance(stmt, ast.Assign):
            targets: Tuple[ast.expr, ...] = tuple(stmt.targets)
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = (stmt.target,)
            value = stmt.value
        else:
            continue
        if any(isinstance(t, ast.Name) and t.id == "kind"
               for t in targets) \
                and isinstance(value, ast.Constant) \
                and isinstance(value.value, str):
            return value.value
    return None


def _has_register_pattern_decorator(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        if isinstance(dec, ast.Name) and dec.id == "register_pattern":
            return True
        if isinstance(dec, ast.Attribute) \
                and dec.attr == "register_pattern":
            return True
    return False


@register_rule
class PatternRegistryRule(Rule):
    """INV004: every concrete access pattern is registered.

    The pattern registry is the single enumeration point for workload
    generators: ``create_pattern`` resolves declarative
    ``WorkloadSpec`` kinds through it, and the registry-wide simulation
    test (``tests/test_patterns.py``) iterates ``pattern_names()`` to
    prove every kind simulates at one and two cores and repeats
    bit-identically.  A ``*Pattern`` class that names a ``kind`` but
    skips ``@register_pattern`` is invisible to all three — specs
    naming it fail, and no simulation coverage ever runs.  Abstract
    bases stay exempt by leaving ``kind`` unset or empty.
    """

    code = "INV004"
    title = "access pattern missing from registry / registry-wide test"

    def check_module(self, module: ModuleInfo,
                     project: ProjectContext) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) \
                    or not node.name.endswith("Pattern"):
                continue
            kind = _pattern_kind(node)
            if not kind:  # abstract base / helper: no concrete kind
                continue
            if not _has_register_pattern_decorator(node):
                yield self.violation(
                    module, node,
                    f"pattern class {node.name} names kind {kind!r} "
                    f"but is not decorated with @register_pattern; "
                    f"unregistered patterns are invisible to "
                    f"create_pattern, declarative workload specs and "
                    f"the registry-wide simulation test")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        # Registry-wide test coverage: the pattern test suite must
        # keep enumerating the registry (pattern_names /
        # PATTERN_REGISTRY) rather than a hand-written kind list that
        # newly registered patterns would silently miss.
        for module in project.modules:
            if module.name.endswith("traces.patterns"):
                repo_root = _repo_root_for(module)
                if repo_root is None:
                    continue
                diff = repo_root / "tests" / "test_patterns.py"
                if not diff.exists():
                    continue
                text = diff.read_text(encoding="utf-8")
                if "pattern_names" not in text \
                        and "PATTERN_REGISTRY" not in text:
                    yield Violation(
                        code=self.code, severity=self.severity,
                        message=("tests/test_patterns.py no longer "
                                 "enumerates the pattern registry "
                                 "(pattern_names/PATTERN_REGISTRY); "
                                 "new patterns would escape the "
                                 "registry-wide simulation test"),
                        path=str(diff), line=1)


# -- INV003 -----------------------------------------------------------------

#: Dataclasses whose field sets the structural hash covers.  These are
#: exactly the classes ``SystemConfig.canonical_dict()`` serialises
#: into sweep-cache keys.
PINNED_CONFIG_CLASSES = ("SystemConfig", "CacheConfig", "CoreConfig",
                         "NOCConfig", "DRAMConfig", "DrishtiConfig")


def _class_fields(node: ast.ClassDef) -> List[List[str]]:
    fields = []
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            fields.append([
                stmt.target.id,
                ast.unparse(stmt.annotation),
                ast.unparse(stmt.value) if stmt.value is not None else "",
            ])
    return fields


def struct_descriptor(trees: Dict[str, ast.Module]) -> Dict[str, list]:
    """``{class: [[field, annotation, default], ...]}`` over every
    pinned class found in *trees* (a mapping of label -> parsed AST)."""
    descriptor: Dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) \
                    and node.name in PINNED_CONFIG_CLASSES:
                descriptor[node.name] = _class_fields(node)
    return descriptor


def struct_hash(trees: Dict[str, ast.Module]) -> str:
    """Hex SHA-256 of the structural descriptor (field names, order,
    annotations and defaults of every pinned config class)."""
    payload = json.dumps(struct_descriptor(trees), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def struct_hash_of_sources(sources: Dict[str, str]) -> str:
    """As :func:`struct_hash`, from raw source text (test helper)."""
    return struct_hash({label: ast.parse(text)
                        for label, text in sources.items()})


def _find_schema_version(tree: ast.Module) -> Optional[int]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name)
                        and t.id == "CACHE_SCHEMA_VERSION"
                        for t in node.targets) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, int):
            return node.value.value
    return None


def check_config_pin(config_trees: Dict[str, ast.Module],
                     schema_version: Optional[int],
                     pins: Dict[int, str]) -> List[str]:
    """Core INV003 check, returning human-readable problem strings.

    Exposed separately so tests can feed synthetic sources (e.g. a
    simulated field addition) without touching files on disk.
    """
    problems = []
    if schema_version is None:
        problems.append("could not find an integer CACHE_SCHEMA_VERSION "
                        "assignment to pin against")
        return problems
    computed = struct_hash(config_trees)
    pinned = pins.get(schema_version)
    if pinned is None:
        problems.append(
            f"CACHE_SCHEMA_VERSION={schema_version} has no pinned "
            f"structural hash; add {{{schema_version}: \"{computed}\"}} "
            f"to repro/lint/config_pin.py after reviewing the cache "
            f"impact")
    elif pinned != computed:
        problems.append(
            f"SystemConfig structure changed (hash {computed[:16]}… != "
            f"pinned {pinned[:16]}… for CACHE_SCHEMA_VERSION="
            f"{schema_version}); bump CACHE_SCHEMA_VERSION in "
            f"resultcache.py and re-pin via `repro-lint --config-pin`")
    return problems


@register_rule
class ConfigSchemaPinRule(Rule):
    """INV003: config fields can't change without a schema bump.

    The sweep result cache keys every entry by
    ``SystemConfig.canonical_dict()`` + ``CACHE_SCHEMA_VERSION``.  A
    field added with a default changes simulation semantics but leaves
    old cache keys colliding with new runs.  This rule hashes the field
    structure of every config dataclass and compares it against the
    hash pinned for the current schema version in
    ``repro/lint/config_pin.py``; any drift fails the lint until the
    version is bumped and the pin regenerated.
    """

    code = "INV003"
    title = "SystemConfig structure drifted without schema bump"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        from repro.lint.config_pin import PINNED_STRUCT_HASHES

        config_modules = [m for m in project.modules
                          if _defines_class(m, "SystemConfig")]
        schema_modules = [m for m in project.modules
                          if _find_schema_version(m.tree) is not None
                          and "resultcache" in m.path.name]
        if not config_modules or not schema_modules:
            return
        for config_module in config_modules:
            schema_module = _closest(config_module, schema_modules)
            trees = {str(config_module.path): config_module.tree}
            drishti_modules = [m for m in project.modules
                               if _defines_class(m, "DrishtiConfig")
                               and m is not config_module]
            if drishti_modules:
                drishti = _closest(config_module, drishti_modules)
                trees[str(drishti.path)] = drishti.tree
            version = _find_schema_version(schema_module.tree)
            for problem in check_config_pin(trees, version,
                                            PINNED_STRUCT_HASHES):
                anchor = _class_line(config_module, "SystemConfig")
                yield Violation(code=self.code, severity=self.severity,
                                message=problem,
                                path=str(config_module.path),
                                line=anchor)


def _defines_class(module: ModuleInfo, name: str) -> bool:
    return any(isinstance(n, ast.ClassDef) and n.name == name
               for n in ast.walk(module.tree))


def _class_line(module: ModuleInfo, name: str) -> int:
    for node in ast.walk(module.tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node.lineno
    return 1


def _closest(anchor: ModuleInfo,
             candidates: List[ModuleInfo]) -> ModuleInfo:
    """Candidate sharing the longest path prefix with *anchor* — pairs
    fixture trees with fixture trees when several are linted at once."""
    anchor_parts = anchor.path.resolve().parts

    def score(candidate: ModuleInfo) -> Tuple[int, str]:
        parts = candidate.path.resolve().parts
        common = 0
        for a, b in zip(anchor_parts, parts):
            if a != b:
                break
            common += 1
        return (-common, str(candidate.path))

    return sorted(candidates, key=score)[0]
