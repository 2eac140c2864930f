"""Project-wide call graph for the interprocedural rule tier.

:func:`build_callgraph` turns a parsed :class:`ProjectContext` into a
:class:`CallGraph`: one node per function/method, one edge per call
site the resolver can bind to a project-local callee.  Resolution
layers, from cheapest to deepest:

* **names** — same-module functions, ``from mod import fn`` bindings
  and ``alias.fn(...)`` attribute calls through the import-alias
  machinery (shared with PAR001, which imports it from here);
* **constructors** — a call that binds to a project class edges into
  its ``__init__`` (resolved through base classes);
* **method dispatch via class layout** — receiver types are inferred
  from ``self``, annotated parameters/fields, ``self.attr = Cls(...)``
  assignments and local aliases; ``x.meth()`` then resolves through
  the receiver's MRO *plus every transitive subclass override*, so
  polymorphic call sites over-approximate instead of going dark;
* **bound references** — ``f = obj.meth`` / ``f = helper`` record the
  callables a local can hold, so the hoisted-local idiom in
  ``Simulator.run`` (``demand_access = self.hierarchy.demand_access``)
  keeps its edge.  A hoisted local passed on as a call argument may be
  called by the callee, so the function that hoisted it edges into the
  bound callables too;
* **registry dispatch** — calls through ``entry.policy_class(...)`` /
  ``entry.predictor_factory(...)`` fan out to every callable named in
  a module-level ``*REGISTRY`` literal (the INV002 surface), which is
  how the policy constructors stay reachable from the simulator;
* **decorator unwrapping** — a decorated function edges into its
  project-local decorators, so ``functools.wraps``-style wrappers are
  walked rather than hiding the wrapped body.

The graph is deliberately an over-approximation: an edge that might
exist is added, an unresolvable call is dropped.  Consumers
(:mod:`repro.lint.summaries`) union effects over reachable sets, so
extra edges can only make the analysis more conservative, never
unsound.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.engine import ModuleInfo, ProjectContext

__all__ = ["CallGraph", "ClassInfo", "FunctionId", "FunctionNode",
           "build_callgraph", "import_bindings"]

#: (dotted module name, qualified function name — ``"fn"`` for
#: module-level functions, ``"Cls.meth"`` for methods).
FunctionId = Tuple[str, str]

#: (dotted module name, class name).
ClassId = Tuple[str, str]

#: Attribute names that hold registry-dispatched callables (the
#: ``PolicyEntry`` surface INV002 pins): ``entry.policy_class(...)``
#: constructs whichever class the registry row names.
_REGISTRY_CALLABLE_ATTRS = frozenset({"policy_class",
                                      "predictor_factory"})

#: Typing wrappers whose subscript argument carries the payload type.
_TRANSPARENT_GENERICS = frozenset({
    "Optional", "List", "Sequence", "Iterable", "Iterator", "Set",
    "FrozenSet", "Tuple", "ClassVar", "Final",
})


def _dotted_parts(expr: ast.expr,
                  ) -> Optional[Tuple[str, List[str]]]:
    """``alias.a.b`` -> (root name, [a, b]); None otherwise."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or not parts:
        return None
    parts.reverse()
    return node.id, parts


def import_bindings(module: ModuleInfo,
                    project: ProjectContext,
                    ) -> Tuple[Dict[str, str],
                               Dict[str, Tuple[str, str]]]:
    """Project-aware import resolution (handles relative imports).

    Returns ``(module_aliases, from_imports)`` where
    ``module_aliases[name]`` is the dotted project/stdlib module bound
    to *name* and ``from_imports[name]`` is ``(module, attr)`` for
    ``from mod import attr`` bindings.  Canonical home of the logic
    PAR001 historically owned; :mod:`repro.lint.purity` imports it
    from here.
    """
    aliases: Dict[str, str] = {}
    names: Dict[str, Tuple[str, str]] = {}
    package_parts = module.name.split(".")
    if module.path.name != "__init__.py":
        package_parts = package_parts[:-1]
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else \
                    alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[:len(package_parts)
                                           - (node.level - 1)]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base \
                        else node.module
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                full = f"{base}.{alias.name}"
                if full in project.by_name:
                    aliases[bound] = full  # submodule import
                else:
                    names[bound] = (base, alias.name)
    return aliases, names


@dataclass
class FunctionNode:
    """One function or method in the graph."""

    id: FunctionId
    module: ModuleInfo
    node: ast.AST                   #: FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None  #: owning class, None for free fns


@dataclass
class ClassInfo:
    """Class layout: methods, resolved bases, inferred field types."""

    id: ClassId
    module: ModuleInfo
    node: ast.ClassDef
    bases: List[ClassId] = field(default_factory=list)
    methods: Dict[str, FunctionId] = field(default_factory=dict)
    #: instance attribute -> classes it may hold (from annotations and
    #: ``self.attr = Cls(...)`` assignments; containers-of-T count T).
    attr_types: Dict[str, Set[ClassId]] = field(default_factory=dict)


class CallGraph:
    """Resolved project call graph (see module docstring)."""

    def __init__(self) -> None:
        self.functions: Dict[FunctionId, FunctionNode] = {}
        self.classes: Dict[ClassId, ClassInfo] = {}
        self.edges: Dict[FunctionId, Set[FunctionId]] = {}
        #: class -> direct project-local subclasses.
        self.subclasses: Dict[ClassId, Set[ClassId]] = {}
        #: callables named inside module-level ``*REGISTRY`` literals
        #: (dispatch pool for ``entry.policy_class(...)`` calls).
        self.registry_pool: Set[FunctionId] = set()
        #: per-module import bindings (module name -> the
        #: :func:`import_bindings` pair), kept for annotation queries.
        self.bindings: Dict[str, Tuple[Dict[str, str],
                                       Dict[str, Tuple[str, str]]]] = {}
        #: dotted names of every linted module (resolution universe).
        self.module_names: Set[str] = set()

    # -- name resolution ------------------------------------------------
    def class_for_name(self, module: str,
                       name: str) -> Optional[ClassId]:
        """Project class bound to *name* inside *module* (top-level
        definition or ``from mod import Cls``)."""
        cid = (module, name)
        if cid in self.classes:
            return cid
        _aliases, from_names = self.bindings.get(module, ({}, {}))
        ref = from_names.get(name)
        if ref is not None and ref in self.classes:
            return ref
        return None

    def function_for_name(self, module: str,
                          name: str) -> Optional[FunctionId]:
        """Project function bound to *name* inside *module*."""
        fid = (module, name)
        if fid in self.functions:
            return fid
        _aliases, from_names = self.bindings.get(module, ({}, {}))
        ref = from_names.get(name)
        if ref is not None and ref in self.functions:
            return ref
        return None

    def dotted_target(self, module: str, expr: ast.expr,
                      ) -> Tuple[Optional[FunctionId],
                                 Optional[ClassId]]:
        """Resolve ``alias.fn`` / ``alias.Cls`` attribute references
        through the module-alias table."""
        ref = _dotted_parts(expr)
        if ref is None:
            return None, None
        root, parts = ref
        aliases, _from_names = self.bindings.get(module, ({}, {}))
        base = aliases.get(root)
        if base is None:
            return None, None
        # "import a.b as m; m.c.fn()" -> try every split point.
        for cut in range(len(parts) - 1, -1, -1):
            mod = ".".join([base] + parts[:cut])
            leaf = parts[cut]
            if mod not in self.module_names:
                continue
            fid = (mod, leaf)
            if fid in self.functions:
                return fid, None
            cid = (mod, leaf)
            if cid in self.classes:
                return None, cid
        return None, None

    def annotation_classes(self, module: str,
                           expr: Optional[ast.expr]) -> Set[ClassId]:
        """Project classes an annotation may denote (unwraps Optional/
        container generics and string annotations)."""
        if expr is None:
            return set()
        if isinstance(expr, ast.Constant) and isinstance(expr.value,
                                                         str):
            try:
                expr = ast.parse(expr.value, mode="eval").body
            except SyntaxError:
                return set()
        if isinstance(expr, ast.Name):
            cid = self.class_for_name(module, expr.id)
            return {cid} if cid is not None else set()
        if isinstance(expr, ast.Attribute):
            _fid, cid = self.dotted_target(module, expr)
            return {cid} if cid is not None else set()
        if isinstance(expr, ast.Subscript):
            head = expr.value
            head_name = head.id if isinstance(head, ast.Name) else (
                head.attr if isinstance(head, ast.Attribute) else "")
            out: Set[ClassId] = set()
            if head_name in _TRANSPARENT_GENERICS:
                inner = expr.slice
                pool = inner.elts if isinstance(inner,
                                                ast.Tuple) else [inner]
                for element in pool:
                    out |= self.annotation_classes(module, element)
            elif head_name == "Dict" and isinstance(expr.slice,
                                                    ast.Tuple) and \
                    len(expr.slice.elts) == 2:
                out |= self.annotation_classes(module,
                                               expr.slice.elts[1])
            return out
        if isinstance(expr, ast.BinOp) and isinstance(expr.op,
                                                      ast.BitOr):
            return (self.annotation_classes(module, expr.left)
                    | self.annotation_classes(module, expr.right))
        return set()

    # -- queries --------------------------------------------------------
    def callees(self, fid: FunctionId) -> FrozenSet[FunctionId]:
        return frozenset(self.edges.get(fid, set()))

    def reachable(self,
                  roots: Iterable[FunctionId]) -> Set[FunctionId]:
        """Every function reachable from *roots* (roots included when
        they exist in the graph)."""
        seen: Set[FunctionId] = set()
        frontier = [r for r in roots if r in self.functions]
        while frontier:
            fid = frontier.pop()
            if fid in seen:
                continue
            seen.add(fid)
            frontier.extend(self.edges.get(fid, ()))
        return seen

    def mro(self, cls: ClassId) -> List[ClassId]:
        """*cls* followed by its project-local ancestors (DFS order;
        good enough for single-inheritance layouts and conservative
        for diamonds)."""
        out: List[ClassId] = []
        stack = [cls]
        while stack:
            cur = stack.pop(0)
            if cur in out or cur not in self.classes:
                continue
            out.append(cur)
            stack = self.classes[cur].bases + stack
        return out

    def transitive_subclasses(self, cls: ClassId) -> Set[ClassId]:
        out: Set[ClassId] = set()
        frontier = list(self.subclasses.get(cls, ()))
        while frontier:
            cur = frontier.pop()
            if cur in out:
                continue
            out.add(cur)
            frontier.extend(self.subclasses.get(cur, ()))
        return out

    def resolve_method(self, cls: ClassId, name: str,
                       include_overrides: bool = True,
                       ) -> Set[FunctionId]:
        """Implementations ``<cls instance>.name(...)`` may dispatch
        to: the MRO resolution, plus (by default) every override in a
        transitive subclass — the receiver may be a subclass instance.
        """
        targets: Set[FunctionId] = set()
        for candidate in self.mro(cls):
            info = self.classes.get(candidate)
            if info is not None and name in info.methods:
                targets.add(info.methods[name])
                break
        if include_overrides:
            for sub in self.transitive_subclasses(cls):
                info = self.classes.get(sub)
                if info is not None and name in info.methods:
                    targets.add(info.methods[name])
        return targets

    def attr_classes(self, cls: ClassId, attr: str) -> Set[ClassId]:
        """Possible classes of ``<cls instance>.attr`` (own layout
        first, then inherited layouts)."""
        for candidate in self.mro(cls):
            info = self.classes.get(candidate)
            if info is not None and attr in info.attr_types:
                return set(info.attr_types[attr])
        return set()


@dataclass
class _TypeEnv:
    """Flow-insensitive local binding environment of one function."""

    types: Dict[str, Set[ClassId]] = field(default_factory=dict)
    callables: Dict[str, Set[FunctionId]] = field(default_factory=dict)
    self_name: Optional[str] = None
    self_class: Optional[ClassId] = None


class _Builder:
    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.graph = CallGraph()

    # -- pass 1: index --------------------------------------------------
    def index(self) -> None:
        self.graph.module_names = set(self.project.by_name)
        for module in self.project.modules:
            self.graph.bindings[module.name] = \
                import_bindings(module, self.project)
            for stmt in module.tree.body:
                if isinstance(stmt, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    fid = (module.name, stmt.name)
                    self.graph.functions[fid] = FunctionNode(
                        fid, module, stmt)
                elif isinstance(stmt, ast.ClassDef):
                    cid = (module.name, stmt.name)
                    info = ClassInfo(cid, module, stmt)
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                            mid = (module.name,
                                   f"{stmt.name}.{sub.name}")
                            self.graph.functions[mid] = FunctionNode(
                                mid, module, sub,
                                class_name=stmt.name)
                            info.methods[sub.name] = mid
                    self.graph.classes[cid] = info

    # -- name resolution (delegated to the graph) ----------------------
    # Top-level definitions in module M are indexed as (M, name), so
    # the graph's own resolvers see exactly the local-scope bindings
    # the builder would; methods carry a "Cls.meth" qualname and never
    # collide with plain names.
    def _class_for_name(self, module: str,
                        name: str) -> Optional[ClassId]:
        return self.graph.class_for_name(module, name)

    def _function_for_name(self, module: str,
                           name: str) -> Optional[FunctionId]:
        return self.graph.function_for_name(module, name)

    def _dotted_target(self, module: str, expr: ast.expr,
                       ) -> Tuple[Optional[FunctionId],
                                  Optional[ClassId]]:
        return self.graph.dotted_target(module, expr)

    def _annotation_classes(self, module: str,
                            expr: Optional[ast.expr]) -> Set[ClassId]:
        return self.graph.annotation_classes(module, expr)

    # -- pass 2: class layout ------------------------------------------
    def link_classes(self) -> None:
        for cid, info in self.graph.classes.items():
            module = cid[0]
            for base in info.node.bases:
                resolved: Optional[ClassId] = None
                if isinstance(base, ast.Name):
                    resolved = self._class_for_name(module, base.id)
                elif isinstance(base, ast.Attribute):
                    _fid, resolved = self._dotted_target(module, base)
                if resolved is not None:
                    info.bases.append(resolved)
                    self.graph.subclasses.setdefault(resolved,
                                                     set()).add(cid)
            # Declared field annotations (dataclass layouts).
            for stmt in info.node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    hinted = self._annotation_classes(module,
                                                      stmt.annotation)
                    if hinted:
                        info.attr_types.setdefault(
                            stmt.target.id, set()).update(hinted)

    def infer_attr_types(self) -> None:
        """Fixpoint over ``self.attr = <expr>`` assignments: inferred
        attribute types may feed later inferences (``self.a = self.b``
        chains), so iterate until stable (bounded)."""
        sites: List[Tuple[ClassInfo, str, ast.expr, _TypeEnv]] = []
        for info in self.graph.classes.values():
            for name, mid in info.methods.items():
                fn = self.graph.functions[mid].node
                env = self._param_env(self.graph.functions[mid])
                for node in ast.walk(fn):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and node.targets:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign):
                        target = node.target
                        hinted = self._annotation_classes(
                            info.id[0], node.annotation)
                        if isinstance(target, ast.Attribute) and \
                                isinstance(target.value, ast.Name) and \
                                target.value.id == env.self_name and \
                                hinted:
                            info.attr_types.setdefault(
                                target.attr, set()).update(hinted)
                        value = node.value
                    if target is None or value is None:
                        continue
                    if isinstance(target, ast.Attribute) and \
                            isinstance(target.value, ast.Name) and \
                            target.value.id == env.self_name:
                        sites.append((info, target.attr, value, env))
        for _ in range(3):
            changed = False
            for info, attr, value, env in sites:
                inferred = self._expr_types(info.id[0], value, env)
                pool = info.attr_types.setdefault(attr, set())
                if not inferred <= pool:
                    pool.update(inferred)
                    changed = True
            if not changed:
                break

    # -- type environments ---------------------------------------------
    def _param_env(self, fn: FunctionNode) -> _TypeEnv:
        env = _TypeEnv()
        node = fn.node
        args = getattr(node, "args", None)
        module = fn.id[0]
        params: List[ast.arg] = []
        if args is not None:
            params = (list(args.posonlyargs) + list(args.args)
                      + list(args.kwonlyargs))
        if fn.class_name is not None and params:
            env.self_name = params[0].arg
            env.self_class = (module, fn.class_name)
            env.types[params[0].arg] = {env.self_class}
            params = params[1:]
        for param in params:
            hinted = self._annotation_classes(module, param.annotation)
            if hinted:
                env.types[param.arg] = hinted
        return env

    def _local_env(self, fn: FunctionNode) -> _TypeEnv:
        """Parameter annotations plus flow-insensitive assignment
        inference (two passes resolve simple ``a = C(); b = a``
        chains)."""
        env = self._param_env(fn)
        module = fn.id[0]
        for _ in range(2):
            for node in ast.walk(fn.node):
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(node, ast.Assign):
                    targets, value = list(node.targets), node.value
                elif isinstance(node, ast.AnnAssign):
                    targets = [node.target]
                    if isinstance(node.target, ast.Name):
                        hinted = self._annotation_classes(
                            module, node.annotation)
                        if hinted:
                            env.types.setdefault(
                                node.target.id, set()).update(hinted)
                    value = node.value
                elif isinstance(node, (ast.With, ast.AsyncWith)):
                    for item in node.items:
                        if isinstance(item.optional_vars, ast.Name):
                            hinted = self._expr_types(
                                module, item.context_expr, env)
                            if hinted:
                                env.types.setdefault(
                                    item.optional_vars.id,
                                    set()).update(hinted)
                    continue
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    hinted = self._expr_types(module, value, env)
                    if hinted:
                        env.types.setdefault(target.id,
                                             set()).update(hinted)
                    bound = self._expr_callables(module, value, env)
                    if bound:
                        env.callables.setdefault(target.id,
                                                 set()).update(bound)
        return env

    def _expr_types(self, module: str, expr: ast.expr,
                    env: _TypeEnv) -> Set[ClassId]:
        """Classes *expr* may evaluate to (containers-of-T yield T)."""
        if isinstance(expr, ast.Name):
            return set(env.types.get(expr.id, set()))
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                cid = self._class_for_name(module, func.id)
                return {cid} if cid is not None else set()
            if isinstance(func, ast.Attribute):
                _fid, cid = self._dotted_target(module, func)
                return {cid} if cid is not None else set()
            return set()
        if isinstance(expr, ast.Attribute):
            out: Set[ClassId] = set()
            for receiver in self._expr_types(module, expr.value, env):
                out |= self.graph.attr_classes(receiver, expr.attr)
            return out
        if isinstance(expr, ast.Subscript):
            return self._expr_types(module, expr.value, env)
        if isinstance(expr, (ast.ListComp, ast.SetComp,
                             ast.GeneratorExp)):
            return self._expr_types(module, expr.elt, env)
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            out = set()
            for element in expr.elts:
                out |= self._expr_types(module, element, env)
            return out
        if isinstance(expr, ast.IfExp):
            return (self._expr_types(module, expr.body, env)
                    | self._expr_types(module, expr.orelse, env))
        if isinstance(expr, ast.BoolOp):
            out = set()
            for element in expr.values:
                out |= self._expr_types(module, element, env)
            return out
        if isinstance(expr, ast.Await):
            return self._expr_types(module, expr.value, env)
        if isinstance(expr, ast.Starred):
            return self._expr_types(module, expr.value, env)
        return set()

    def _expr_callables(self, module: str, expr: ast.expr,
                        env: _TypeEnv) -> Set[FunctionId]:
        """Project functions a *reference* (not a call) may denote —
        ``f = helper`` / ``f = obj.meth`` bound-method hoists."""
        if isinstance(expr, ast.Name):
            out: Set[FunctionId] = set(env.callables.get(expr.id,
                                                         set()))
            fid = self._function_for_name(module, expr.id)
            if fid is not None:
                out.add(fid)
            return out
        if isinstance(expr, ast.Attribute):
            out = set()
            fid, _cid = self._dotted_target(module, expr)
            if fid is not None:
                out.add(fid)
            for receiver in self._expr_types(module, expr.value, env):
                out |= self.graph.resolve_method(receiver, expr.attr)
            return out
        return set()

    # -- pass 3: registry dispatch pool --------------------------------
    def collect_registry_pool(self) -> None:
        """Callables named inside module-level ``*REGISTRY`` dict/list
        literals; classes contribute their resolved ``__init__``."""
        for module in self.project.modules:
            for stmt in module.tree.body:
                targets: List[ast.expr] = []
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    targets, value = list(stmt.targets), stmt.value
                elif isinstance(stmt, ast.AnnAssign):
                    targets, value = [stmt.target], stmt.value
                if value is None or not any(
                        isinstance(t, ast.Name)
                        and t.id.endswith("REGISTRY")
                        for t in targets):
                    continue
                for node in ast.walk(value):
                    if not isinstance(node, ast.Name):
                        continue
                    fid = self._function_for_name(module.name, node.id)
                    if fid is not None:
                        self.graph.registry_pool.add(fid)
                    cid = self._class_for_name(module.name, node.id)
                    if cid is not None:
                        self.graph.registry_pool.update(
                            self.graph.resolve_method(
                                cid, "__init__",
                                include_overrides=False))
        # No registry in the linted set (standalone fixture): dispatch
        # through the attrs resolves to nothing, which is the honest
        # answer.

    # -- pass 4: edges --------------------------------------------------
    def add_edges(self) -> None:
        for fid, fn in self.graph.functions.items():
            targets = self.graph.edges.setdefault(fid, set())
            env = self._local_env(fn)
            module = fid[0]
            for deco in getattr(fn.node, "decorator_list", []):
                expr = deco.func if isinstance(deco,
                                               ast.Call) else deco
                targets |= self._expr_callables(module, expr, env)
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                targets |= self._call_targets(module, node, env)
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    if isinstance(arg, ast.Name):
                        targets |= env.callables.get(arg.id, set())
            targets.discard(fid)

    def _call_targets(self, module: str, call: ast.Call,
                      env: _TypeEnv) -> Set[FunctionId]:
        func = call.func
        out: Set[FunctionId] = set()
        if isinstance(func, ast.Name):
            out |= set(env.callables.get(func.id, set()))
            fid = self._function_for_name(module, func.id)
            if fid is not None:
                out.add(fid)
            cid = self._class_for_name(module, func.id)
            if cid is not None:
                out |= self.graph.resolve_method(
                    cid, "__init__", include_overrides=False)
            return out
        if not isinstance(func, ast.Attribute):
            return out
        if func.attr in _REGISTRY_CALLABLE_ATTRS:
            out |= self.graph.registry_pool
        # super().meth(...)
        if isinstance(func.value, ast.Call) and \
                isinstance(func.value.func, ast.Name) and \
                func.value.func.id == "super" and \
                env.self_class is not None:
            own = self.graph.classes.get(env.self_class)
            for base in (own.bases if own is not None else []):
                out |= self.graph.resolve_method(
                    base, func.attr, include_overrides=False)
            return out
        fid2, cid2 = self._dotted_target(module, func)
        if fid2 is not None:
            out.add(fid2)
        if cid2 is not None:
            out |= self.graph.resolve_method(
                cid2, "__init__", include_overrides=False)
        for receiver in self._expr_types(module, func.value, env):
            out |= self.graph.resolve_method(receiver, func.attr)
        return out


def build_callgraph(project: ProjectContext) -> CallGraph:
    """Build the project call graph (four passes: index, class layout,
    registry pool, edges)."""
    builder = _Builder(project)
    builder.index()
    builder.link_classes()
    builder.infer_attr_types()
    builder.collect_registry_pool()
    builder.add_edges()
    return builder.graph
