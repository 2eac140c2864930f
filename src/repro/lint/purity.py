"""PAR001: purity/race detection for process-pool work units.

The parallel sweep (`repro.experiments.engine.SweepEngine`) promises
serial and pooled runs are byte-identical.  That holds only if every
callable submitted to the ``ProcessPoolExecutor`` — and everything it
transitively calls — is *pure enough*: no module-global writes (lost
when the worker process exits, so serial and pooled runs diverge), no
closed-over mutation, no ``os.environ`` reads (workers may see a
different environment), and no process-global ``repro.obs.events``
publishing (subscribers registered in the parent never fire in a
worker, so pooled telemetry silently drops events a serial run
emits).

The rule finds every ``pool.submit(fn, ...)`` call, resolves ``fn`` to
a project-local function, and walks the project call graph from there
(same-module calls, from-imported functions, and ``module.func``
attribute calls through import aliases).  Method calls on objects are
out of reach for a syntactic analysis and are deliberately skipped —
the contract this rule encodes is about *module-level* state, which is
exactly the state multiprocessing does not share.  The interprocedural
tier closes the method gap: PAR002 (:mod:`repro.lint.summaries`) walks
the tier-4 call graph, so helpers reached only through method dispatch
are held to the same contract.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import import_bindings as _import_bindings
from repro.lint.engine import ModuleInfo, ProjectContext
from repro.lint.rules import Rule, Violation, register_rule

__all__ = ["PoolPurityRule", "dotted_ref", "local_names",
           "pool_walk_visited", "store_base", "submitted_functions"]

#: Method names that mutate their receiver in place.
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "appendleft", "sort",
    "reverse", "write",
})

def _module_scope(module: ModuleInfo) -> Tuple[Set[str], Dict[str, ast.AST]]:
    """(module-level assigned names, module-level function defs)."""
    assigned: Set[str] = set()
    functions: Dict[str, ast.AST] = {}
    for stmt in module.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = stmt
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name):
                        assigned.add(node.id)
        elif isinstance(stmt, ast.AnnAssign) and \
                isinstance(stmt.target, ast.Name):
            assigned.add(stmt.target.id)
    return assigned, functions


def local_names(fn: ast.AST) -> Set[str]:
    """Names bound locally inside *fn* (params, stores, loop targets)."""
    local: Set[str] = set()
    args = getattr(fn, "args", None)
    if args is not None:
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            local.add(arg.arg)
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                local.add(extra.arg)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and \
                isinstance(node.ctx, ast.Store):
            local.add(node.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for sub in ast.walk(node.target):
                if isinstance(sub, ast.Name):
                    local.add(sub.id)
    return local


def store_base(target: ast.expr) -> Optional[str]:
    """Base name of a subscript/attribute store (``X[k] = v`` /
    ``X.attr = v``); None for plain name binds (those are local)."""
    node = target
    seen_container = False
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        seen_container = True
        node = node.value
    if seen_container and isinstance(node, ast.Name):
        return node.id
    return None


def dotted_ref(func: ast.expr, aliases: Dict[str, str],
               from_names: Dict[str, Tuple[str, str]],
               ) -> Optional[str]:
    """Fully-qualified dotted name of an attribute chain whose root is
    an import binding; None when the root is not imported."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None and node.id in from_names:
        root = ".".join(from_names[node.id])
    if root is None:
        return None
    parts.append(root)
    parts.reverse()
    return ".".join(parts)


def submitted_functions(module: ModuleInfo,
                        project: ProjectContext,
                        ) -> List[Tuple[str, str, ast.Call]]:
    """``(module_name, function_name, call)`` per ``*.submit(fn, …)``."""
    aliases, names = _import_bindings(module, project)
    _, functions = _module_scope(module)
    out: List[Tuple[str, str, ast.Call]] = []
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "submit" and node.args):
            continue
        fn = node.args[0]
        if not isinstance(fn, ast.Name):
            continue
        if fn.id in functions:
            out.append((module.name, fn.id, node))
        elif fn.id in names:
            mod, attr = names[fn.id]
            if mod in project.by_name:
                out.append((mod, attr, node))
    return out


class _PurityWalker:
    """Transitive purity check from a submitted root function."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.visited: Set[Tuple[str, str]] = set()
        #: (violating module, node, message, root chain)
        self.findings: List[Tuple[ModuleInfo, ast.AST, str]] = []
        self._scope_cache: Dict[str, Tuple[Set[str],
                                           Dict[str, ast.AST]]] = {}
        self._import_cache: Dict[str, Tuple[Dict[str, str],
                                            Dict[str, Tuple[str,
                                                            str]]]] = {}

    def _scopes(self, module: ModuleInfo) -> Tuple[Set[str],
                                                   Dict[str, ast.AST]]:
        if module.name not in self._scope_cache:
            self._scope_cache[module.name] = _module_scope(module)
        return self._scope_cache[module.name]

    def _imports(self, module: ModuleInfo) -> Tuple[
            Dict[str, str], Dict[str, Tuple[str, str]]]:
        if module.name not in self._import_cache:
            self._import_cache[module.name] = \
                _import_bindings(module, self.project)
        return self._import_cache[module.name]

    # ------------------------------------------------------------------
    def walk(self, module_name: str, func_name: str) -> None:
        if (module_name, func_name) in self.visited:
            return
        self.visited.add((module_name, func_name))
        module = self.project.by_name.get(module_name)
        if module is None:
            return
        _, functions = self._scopes(module)
        fn = functions.get(func_name)
        if fn is None:
            return
        self._check_function(module, fn)

    def _check_function(self, module: ModuleInfo, fn: ast.AST) -> None:
        module_names, functions = self._scopes(module)
        aliases, from_names = self._imports(module)
        local = self._local_names(fn)
        fn_name = getattr(fn, "name", "<fn>")

        for node in ast.walk(fn):
            if isinstance(node, ast.Global):
                self.findings.append((module, node,
                                      f"'{fn_name}' declares "
                                      f"global {', '.join(node.names)}: "
                                      f"module-global writes diverge "
                                      f"between serial and pooled runs"))
            elif isinstance(node, ast.Nonlocal):
                self.findings.append((module, node,
                                      f"'{fn_name}' mutates closed-over "
                                      f"state ({', '.join(node.names)})"))
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    base = self._store_base(target)
                    if base is not None and base not in local and \
                            base in module_names:
                        self.findings.append(
                            (module, node,
                             f"'{fn_name}' writes module-level "
                             f"'{base}': lost when the worker exits, "
                             f"so pooled and serial runs diverge"))
            elif isinstance(node, ast.Call):
                self._check_call(module, fn_name, node, local,
                                 module_names, functions, aliases,
                                 from_names)

    # Delegates to the shared module-level helpers (also used by the
    # tier-4 summary engine in :mod:`repro.lint.summaries`).
    _local_names = staticmethod(local_names)
    _store_base = staticmethod(store_base)

    def _check_call(self, module: ModuleInfo, fn_name: str,
                    node: ast.Call, local: Set[str],
                    module_names: Set[str],
                    functions: Dict[str, ast.AST],
                    aliases: Dict[str, str],
                    from_names: Dict[str, Tuple[str, str]]) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            # Mutating method on a module-level object.
            if isinstance(func.value, ast.Name):
                owner = func.value.id
                if func.attr in _MUTATING_METHODS and owner not in local \
                        and owner in module_names:
                    self.findings.append(
                        (module, node,
                         f"'{fn_name}' calls .{func.attr}() on "
                         f"module-level '{owner}'"))
            dotted = self._dotted(func, aliases, from_names)
            if dotted is not None:
                if dotted in ("os.environ.get", "os.getenv"):
                    self.findings.append(
                        (module, node,
                         f"'{fn_name}' reads os.environ: workers may "
                         f"see a different environment than the parent"))
                elif dotted.startswith("repro.obs.events.") or \
                        dotted == "repro.obs.events":
                    self.findings.append(
                        (module, node,
                         f"'{fn_name}' publishes to the process-global "
                         f"repro.obs.events bus: parent-registered "
                         f"subscribers never fire in a pool worker"))
                else:
                    self._recurse_dotted(dotted)
        elif isinstance(func, ast.Name):
            if func.id in functions:
                self.walk(module.name, func.id)
            elif func.id in from_names:
                mod, attr = from_names[func.id]
                if mod in self.project.by_name:
                    self.walk(mod, attr)
        # os.environ[...] subscript reads.
        for sub in ast.walk(node):
            if isinstance(sub, ast.Subscript):
                dotted = self._dotted(sub.value, aliases, from_names) \
                    if isinstance(sub.value, ast.Attribute) else None
                if dotted == "os.environ":
                    self.findings.append(
                        (module, sub,
                         f"'{fn_name}' reads os.environ"))

    _dotted = staticmethod(dotted_ref)

    def _recurse_dotted(self, dotted: str) -> None:
        """``engine_alias.helper(...)`` -> walk helper in that module."""
        if "." not in dotted:
            return
        mod, attr = dotted.rsplit(".", 1)
        if mod in self.project.by_name:
            self.walk(mod, attr)


def pool_walk_visited(project: ProjectContext) -> Set[Tuple[str, str]]:
    """``(module, function)`` pairs PAR001's module-level walk covers.

    PAR002 (:mod:`repro.lint.summaries`) reports only effect sites
    *outside* this set — methods and helpers reachable solely through
    dispatch the syntactic walk cannot see — so the two rules never
    double-report one site.
    """
    walker = _PurityWalker(project)
    roots: Set[Tuple[str, str]] = set()
    for module in project.modules:
        for mod, fname, _call in submitted_functions(module, project):
            roots.add((mod, fname))
    for mod, fname in sorted(roots):
        walker.walk(mod, fname)
    return set(walker.visited)


@register_rule
class PoolPurityRule(Rule):
    """PAR001: pool-submitted callables must be pure.

    Module-level reachability only; the interprocedural tier's PAR002
    extends the same contract through method dispatch via the tier-4
    call graph (:mod:`repro.lint.summaries`).
    """

    code = "PAR001"
    title = "impure process-pool work unit"
    severity = "error"
    tier = "dataflow"

    def check_project(self,
                      project: ProjectContext) -> Iterator[Violation]:
        walker = _PurityWalker(project)
        roots: List[Tuple[str, str]] = []
        for module in project.modules:
            for mod, fname, _call in submitted_functions(module,
                                                         project):
                roots.append((mod, fname))
        for mod, fname in sorted(set(roots)):
            walker.walk(mod, fname)
        seen: Set[Tuple[str, int, str]] = set()
        for module, node, message in walker.findings:
            line = getattr(node, "lineno", 1)
            dedup = (str(module.path), line, message)
            if dedup in seen:
                continue
            seen.add(dedup)
            yield Violation(code=self.code, message=message,
                            path=str(module.path), line=line,
                            col=getattr(node, "col_offset", 0),
                            severity=self.severity)
