"""Per-module fact extraction: the cacheable IR of the program layer.

One facts dict is extracted per source file, from the same parsed
:class:`~repro.lint.engine.ModuleUnit` the module-local rules check, and
it is the *only* thing the whole-program rules ever look at — never the
AST itself.  Facts are plain JSON-serializable dicts and depend on
nothing but the file's text (no config, no other modules), so they can
be cached keyed on the content hash alone and shipped across process
boundaries by the ``--jobs`` parallel parser.  Every call evaluated in
a scope is recorded, wherever it sits (lambda bodies, class bodies,
decorators, defaults), so a direct site is never invisible to a rule.

The function IR is a coarse dataflow graph over named nodes:

``p:<name>``
    a parameter (``self`` included),
``v:<name>``
    a local or module-level variable (field-insensitive: storing into
    ``obj.attr`` taints ``obj``),
``c:<i>``
    the result of the *i*-th call in the function,
``d:<i>``
    the *i*-th set display / set comprehension (an iteration-order
    taint source),
``ret``
    the return-value accumulator.

Edges mean "taint flows from src to dst".  Calls are kept as structured
:data:`CallFact` records with an *unresolved* callee reference — local
names and alias-expanded dotted names; resolution against the project
happens in :mod:`repro.lint.program.graph` so facts stay per-file pure.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.engine import ModuleUnit
from repro.lint.rules._helpers import EVENT_METHODS, METRIC_METHODS

#: bump to invalidate every cached facts entry
ANALYZER_VERSION = 2

#: methods of repro.obs handles that take a metric/event name first
_EMIT_METHODS = METRIC_METHODS | EVENT_METHODS

_Def = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]

#: names whose assignment in a ``*/lint/catalog.py`` module declares the
#: registered-name catalog RPL106 checks liveness of
_CATALOG_DECLS = ("METRIC_NAMES", "EVENT_NAMES")

MODULE_BODY = "<module>"

#: top-level keys of every facts dict (a cached entry missing one is a miss)
FACT_KEYS = frozenset(
    {
        "version", "module", "display_path", "content_hash", "imports",
        "import_modules", "functions", "classes", "constants", "catalog",
        "suppressed", "file_suppressed", "parse_error",
    }
)


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def _ann_str(node: Optional[ast.AST]) -> Optional[str]:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pragma: no cover
        return None


def _scope_calls(body: Sequence[ast.stmt]) -> List[ast.Call]:
    """Every call evaluated in the scope whose statements are *body*.

    Nested function bodies are scopes of their own; their decorators and
    defaults, lambda bodies and class-body statements run here.
    """
    calls: List[ast.Call] = []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Call):
            calls.append(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
        else:
            stack.extend(ast.iter_child_nodes(node))
    calls.sort(key=lambda c: (c.lineno, c.col_offset))
    return calls


def _scope_defs(nodes: Iterable[ast.AST]) -> Iterator[_Def]:
    """Function and class definitions of a scope, conditional ones included."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node
        elif not isinstance(node, ast.expr):
            yield from _scope_defs(ast.iter_child_nodes(node))


def _is_dataclass_def(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = (
            target.attr
            if isinstance(target, ast.Attribute)
            else getattr(target, "id", "")
        )
        if name == "dataclass":
            return True
    return False


class _FunctionScan:
    """Extract one function's dataflow IR."""

    def __init__(
        self,
        scan: ModuleUnit,
        qualname: str,
        node: Optional[ast.AST],
        class_name: Optional[str],
        body: Sequence[ast.stmt] = (),
    ):
        self.scan = scan
        self.qualname = qualname
        self.class_name = class_name
        self.params: List[str] = []
        self.param_annotations: Dict[str, str] = {}
        self.var_annotations: Dict[str, str] = {}
        self.returns_annotation: Optional[str] = None
        self.edges: Set[Tuple[str, str]] = set()
        self.calls: List[Dict[str, Any]] = []
        self.sources: List[List[Any]] = []
        self.return_nodes: Set[str] = set()
        self.raw_writes: List[List[Any]] = []
        self.handlers: List[Dict[str, Any]] = []
        self.emit_names: List[str] = []
        self._displays = 0
        #: id(ast.Call) -> call index, so no call is recorded twice
        self._call_index: Dict[int, int] = {}
        self.line = getattr(node, "lineno", 1) if node is not None else 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._scan_signature(node)
            body = node.body
        for stmt in body:
            self._stmt(stmt)
        # calls the flow walk does not reach (lambda bodies, class-body
        # statements, decorators, defaults, subscript keys) still run in
        # this scope: record them so every call site has facts
        for call in _scope_calls(body):
            if id(call) not in self._call_index:
                self._call(call)

    # -- signature ----------------------------------------------------
    def _scan_signature(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        for group in (args.posonlyargs, args.args, args.kwonlyargs):
            for arg in group:
                self.params.append(arg.arg)
                ann = _ann_str(arg.annotation)
                if ann:
                    self.param_annotations[arg.arg] = ann
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                self.params.append(extra.arg)
        self.returns_annotation = _ann_str(
            node.returns  # type: ignore[attr-defined]
        )

    # -- nodes --------------------------------------------------------
    def _var_node(self, name: str) -> str:
        return f"p:{name}" if name in self.params else f"v:{name}"

    def _target_nodes(self, target: ast.AST) -> List[str]:
        if isinstance(target, ast.Name):
            return [self._var_node(target.id)]
        if isinstance(target, (ast.Tuple, ast.List)):
            out: List[str] = []
            for elt in target.elts:
                out.extend(self._target_nodes(elt))
            return out
        if isinstance(target, ast.Starred):
            return self._target_nodes(target.value)
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            # field-insensitive: a store into obj.attr / obj[k] taints obj
            return self.deps(target.value)
        return []

    # -- expressions --------------------------------------------------
    def deps(self, expr: Optional[ast.AST]) -> List[str]:
        if expr is None:
            return []
        if isinstance(expr, ast.Name):
            return [self._var_node(expr.id)]
        if isinstance(expr, ast.Constant):
            return []
        if isinstance(expr, ast.Call):
            index = self._call_index.get(id(expr))
            return [self._call(expr) if index is None else f"c:{index}"]
        if isinstance(expr, ast.Attribute):
            return self.deps(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.deps(expr.value) + self.deps(expr.slice)
        if isinstance(expr, (ast.Set,)):
            node = f"d:{self._displays}"
            self._displays += 1
            self.sources.append(
                ["iterorder", node, expr.lineno, expr.col_offset, "set display"]
            )
            for elt in expr.elts:
                for dep in self.deps(elt):
                    self.edges.add((dep, node))
            return [node]
        if isinstance(expr, ast.SetComp):
            node = f"d:{self._displays}"
            self._displays += 1
            self.sources.append(
                [
                    "iterorder",
                    node,
                    expr.lineno,
                    expr.col_offset,
                    "set comprehension",
                ]
            )
            for dep in self._comprehension_deps(expr, [expr.elt]):
                self.edges.add((dep, node))
            return [node]
        if isinstance(expr, (ast.ListComp, ast.GeneratorExp)):
            return self._comprehension_deps(expr, [expr.elt])
        if isinstance(expr, ast.DictComp):
            return self._comprehension_deps(expr, [expr.key, expr.value])
        if isinstance(expr, ast.Lambda):
            return []
        if isinstance(expr, ast.NamedExpr):
            val = self.deps(expr.value)
            targets = self._target_nodes(expr.target)
            for dep in val:
                for tgt in targets:
                    self.edges.add((dep, tgt))
            return targets or val
        out: List[str] = []
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, (ast.expr, ast.keyword)):
                value = child.value if isinstance(child, ast.keyword) else child
                out.extend(self.deps(value))
        return out

    def _comprehension_deps(
        self, comp: ast.AST, elements: Sequence[Optional[ast.AST]]
    ) -> List[str]:
        for gen in comp.generators:  # type: ignore[attr-defined]
            iter_deps = self.deps(gen.iter)
            for tgt in self._target_nodes(gen.target):
                for dep in iter_deps:
                    self.edges.add((dep, tgt))
            for cond in gen.ifs:
                self.deps(cond)
        out: List[str] = []
        for element in elements:
            out.extend(self.deps(element))
        return out

    # -- calls --------------------------------------------------------
    def _callee_ref(self, func: ast.AST) -> Dict[str, Any]:
        if isinstance(func, ast.Name):
            name = func.id
            dotted = self.scan.imports.get(name)
            if dotted:
                return {"kind": "dotted", "name": dotted}
            return {"kind": "name", "name": name}
        if isinstance(func, ast.Attribute):
            root: ast.AST = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                if root.id == "self":
                    if isinstance(func.value, ast.Name):
                        return {"kind": "self_method", "attr": func.attr}
                    return {
                        "kind": "method",
                        "attr": func.attr,
                        "receiver": self.deps(func.value),
                        "recv_name": None,
                    }
                if root.id in self.scan.imports:
                    dotted = self.scan.dotted_name(func)
                    if dotted:
                        return {"kind": "dotted", "name": dotted}
            # a call through a local/param/global object: keep the
            # receiver nodes so its taint and inferred type survive
            recv = self.deps(func.value)
            recv_name = None
            if isinstance(func.value, ast.Name):
                recv_name = func.value.id
            elif isinstance(func.value, ast.Attribute):
                recv_name = func.value.attr
            return {
                "kind": "method",
                "attr": func.attr,
                "receiver": recv,
                "recv_name": recv_name,
            }
        return {"kind": "opaque", "deps": self.deps(func)}

    def _call(self, call: ast.Call) -> str:
        index = len(self.calls)
        self._call_index[id(call)] = index
        node = f"c:{index}"
        # reserve the slot first so nested calls get higher indices but
        # the outer call keeps evaluation order in the window ranges
        fact: Dict[str, Any] = {"index": index}
        self.calls.append(fact)
        callee = self._callee_ref(call.func)
        args = [self.deps(arg) for arg in call.args]
        kwargs = {
            kw.arg: self.deps(kw.value)
            for kw in call.keywords
            if kw.arg is not None
        }
        for kw in call.keywords:
            if kw.arg is None:  # **kwargs splat
                for dep in self.deps(kw.value):
                    kwargs.setdefault("**", []).append(dep)
        arg_texts = [_ann_str(arg) or "" for arg in call.args]
        fact.update(
            {
                "line": call.lineno,
                "col": call.col_offset,
                "callee": callee,
                "args": args,
                "kwargs": kwargs,
                "arg_texts": arg_texts,
                "assigns": [],
            }
        )
        self._detect_raw_write(call, callee)
        self._detect_emit(call, callee)
        return node

    def _detect_raw_write(
        self, call: ast.Call, callee: Dict[str, Any]
    ) -> None:
        """Non-atomic write sites (RPL102 applies the module scope)."""
        name = callee.get("name") or callee.get("attr") or ""
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("write_text", "write_bytes"):
            self.raw_writes.append(
                [call.lineno, call.col_offset, f"{leaf}()"]
            )
            return
        if leaf == "open":
            mode = self._mode_literal(call)
            if mode and any(ch in mode for ch in "wax+"):
                self.raw_writes.append(
                    [call.lineno, call.col_offset, f"open(mode={mode!r})"]
                )

    @staticmethod
    def _mode_literal(call: ast.Call) -> Optional[str]:
        if len(call.args) >= 2:
            arg = call.args[1]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                return arg.value
            return None
        for kw in call.keywords:
            if kw.arg == "mode":
                if isinstance(kw.value, ast.Constant) and isinstance(
                    kw.value.value, str
                ):
                    return kw.value.value
                return None
        return "r"

    def _detect_emit(self, call: ast.Call, callee: Dict[str, Any]) -> None:
        attr = callee.get("attr") or (callee.get("name") or "").rsplit(
            ".", 1
        )[-1]
        if attr not in _EMIT_METHODS or not call.args:
            return
        arg = call.args[0]
        name: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.Name):
            name = self.scan.constants.get(arg.id)
            if name is None and arg.id in self.scan.imports:
                # imported constant: record its dotted name for the
                # RPL106 rule to resolve against the defining module
                name = "@" + self.scan.imports[arg.id]
        elif isinstance(arg, ast.Attribute):
            dotted = self.scan.dotted_name(arg)
            if dotted:
                name = "@" + dotted
        if name:
            self.emit_names.append(name)

    # -- statements ---------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are extracted as their own functions
        if isinstance(stmt, ast.Assign):
            deps = self.deps(stmt.value)
            assigned = self._assigned_names(stmt.targets)
            self._record_assigns(deps, assigned)
            for target in stmt.targets:
                for tgt in self._target_nodes(target):
                    for dep in deps:
                        self.edges.add((dep, tgt))
        elif isinstance(stmt, ast.AnnAssign):
            ann = _ann_str(stmt.annotation)
            if isinstance(stmt.target, ast.Name) and ann:
                self.var_annotations[stmt.target.id] = ann
            if stmt.value is not None:
                deps = self.deps(stmt.value)
                assigned = self._assigned_names([stmt.target])
                self._record_assigns(deps, assigned)
                for tgt in self._target_nodes(stmt.target):
                    for dep in deps:
                        self.edges.add((dep, tgt))
        elif isinstance(stmt, ast.AugAssign):
            deps = self.deps(stmt.value)
            for tgt in self._target_nodes(stmt.target):
                for dep in deps:
                    self.edges.add((dep, tgt))
        elif isinstance(stmt, ast.Return):
            for dep in self.deps(stmt.value):
                self.edges.add((dep, "ret"))
                self.return_nodes.add(dep)
        elif isinstance(stmt, ast.Expr):
            self.deps(stmt.value)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_deps = self.deps(stmt.iter)
            for tgt in self._target_nodes(stmt.target):
                for dep in iter_deps:
                    self.edges.add((dep, tgt))
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.deps(stmt.test)
            for child in stmt.body + stmt.orelse:
                self._stmt(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                deps = self.deps(item.context_expr)
                if item.optional_vars is not None:
                    for tgt in self._target_nodes(item.optional_vars):
                        for dep in deps:
                            self.edges.add((dep, tgt))
            for child in stmt.body:
                self._stmt(child)
        elif isinstance(stmt, ast.Try):
            self._try(stmt)
        elif isinstance(stmt, ast.Raise):
            self.deps(stmt.exc)
            self.deps(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self.deps(stmt.test)
            self.deps(stmt.msg)
        elif isinstance(stmt, (ast.Delete, ast.Global, ast.Nonlocal, ast.Pass)):
            pass
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            pass
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, ast.expr):
                    self.deps(child)

    def _assigned_names(self, targets: Sequence[ast.AST]) -> List[str]:
        names: List[str] = []
        for target in targets:
            if isinstance(target, ast.Name):
                names.append(target.id)
            elif isinstance(target, (ast.Tuple, ast.List)):
                names.extend(self._assigned_names(target.elts))
        return names

    def _record_assigns(self, deps: List[str], names: List[str]) -> None:
        """Bind call-result nodes to the vars they land in (for typing)."""
        if not names:
            return
        for dep in deps:
            if dep.startswith("c:"):
                self.calls[int(dep[2:])]["assigns"] = list(names)

    def _try(self, stmt: ast.Try) -> None:
        call_start = len(self.calls)
        for child in stmt.body:
            self._stmt(child)
        call_end = len(self.calls)
        for handler in stmt.handlers:
            broad = self._is_broad(handler.type)
            h_start = len(self.calls)
            raises = False
            for child in handler.body:
                self._stmt(child)
            for inner in handler.body:
                for node in ast.walk(inner):
                    if isinstance(node, ast.Raise):
                        raises = True
            h_end = len(self.calls)
            emits = any(
                self._call_is_emit(i) for i in range(h_start, h_end)
            )
            if broad:
                self.handlers.append(
                    {
                        "line": handler.lineno,
                        "col": handler.col_offset,
                        "raises": raises,
                        "emits": emits,
                        "try_calls": [call_start, call_end],
                        "handler_calls": h_end - h_start,
                    }
                )
        for child in stmt.orelse + stmt.finalbody:
            self._stmt(child)

    def _call_is_emit(self, index: int) -> bool:
        callee = self.calls[index]["callee"]
        attr = callee.get("attr") or (callee.get("name") or "").rsplit(
            ".", 1
        )[-1]
        return attr in _EMIT_METHODS

    def _is_broad(self, type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(self._is_broad(elt) for elt in type_node.elts)
        dotted = self.scan.dotted_name(type_node)
        return dotted in ("Exception", "BaseException", "builtins.Exception")

    # -- output -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "line": self.line,
            "class_name": self.class_name,
            "params": self.params,
            "param_annotations": self.param_annotations,
            "var_annotations": self.var_annotations,
            "returns_annotation": self.returns_annotation,
            "edges": sorted(self.edges),
            "calls": self.calls,
            "sources": self.sources,
            "return_nodes": sorted(self.return_nodes),
            "raw_writes": self.raw_writes,
            "handlers": self.handlers,
            "emit_names": self.emit_names,
        }


def _catalog_decl(tree: ast.Module) -> Optional[Dict[str, Dict[str, int]]]:
    """Parse METRIC_NAMES/EVENT_NAMES frozenset declarations, if any."""
    decls: Dict[str, Dict[str, int]] = {}
    for stmt in tree.body:
        if not (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id in _CATALOG_DECLS
        ):
            continue
        value = stmt.value
        names: Dict[str, int] = {}
        for node in ast.walk(value):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names[node.value] = node.lineno
        decls[stmt.targets[0].id] = names
    return decls or None


def extract_module_facts(unit: ModuleUnit) -> Dict[str, Any]:
    """Extract one parsed module's facts dict (see module docstring).

    On a syntax error the dict carries ``parse_error`` and empty tables
    — the module-local pass reports RPL000; the whole-program rules
    just skip the module.
    """
    base: Dict[str, Any] = {
        "version": ANALYZER_VERSION,
        "module": unit.module_name,
        "display_path": unit.display_path,
        "content_hash": content_hash(unit.text.encode()),
        "imports": {},
        "import_modules": [],
        "functions": {},
        "classes": {},
        "constants": {},
        "catalog": None,
        "suppressed": unit.suppressed,
        "file_suppressed": unit.file_suppressed,
        "parse_error": None,
    }
    tree = unit.tree
    if tree is None:
        exc = unit.parse_error
        base["parse_error"] = {
            "line": getattr(exc, "lineno", None) or 1,
            "col": getattr(exc, "offset", None) or 0,
            "msg": getattr(exc, "msg", None) or "syntax error",
        }
        return base
    base["imports"] = dict(unit.imports)
    base["import_modules"] = sorted(unit.import_modules)
    base["constants"] = dict(unit.constants)
    base["catalog"] = _catalog_decl(tree)

    functions: Dict[str, Dict[str, Any]] = {}
    classes: Dict[str, Dict[str, Any]] = {}

    def visit(
        body: Sequence[ast.stmt], prefix: str, class_name: Optional[str]
    ) -> None:
        for stmt in _scope_defs(body):
            qual = f"{prefix}{stmt.name}"
            if not isinstance(stmt, ast.ClassDef):
                fn = _FunctionScan(unit, qual, stmt, class_name)
                functions[qual] = fn.to_dict()
                visit(stmt.body, f"{qual}.", None)
                continue
            fields: Dict[str, Any] = {}
            methods: List[str] = []
            for item in stmt.body:
                if isinstance(item, ast.AnnAssign) and isinstance(
                    item.target, ast.Name
                ):
                    ann = _ann_str(item.annotation)
                    if ann:
                        fields[item.target.id] = {
                            "ann": ann,
                            "line": item.lineno,
                            "col": item.col_offset,
                        }
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(f"{qual}.{item.name}")
            classes[stmt.name if not prefix else qual] = {
                "qualname": qual,
                "line": stmt.lineno,
                "bases": [
                    b for b in (unit.dotted_name(base_) for base_ in stmt.bases)
                    if b
                ],
                "is_dataclass": _is_dataclass_def(stmt),
                "fields": fields,
                "methods": methods,
            }
            visit(stmt.body, f"{qual}.", stmt.name)

    visit(tree.body, "", None)

    # module-level statements form a pseudo-function so module-scope
    # flows (common in scripts and fixtures) are analyzed too
    module_fn = _FunctionScan(unit, MODULE_BODY, None, None, tree.body)
    functions[MODULE_BODY] = module_fn.to_dict()

    base["functions"] = functions
    base["classes"] = classes
    return base
