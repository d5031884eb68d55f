"""Project graph: module table, import edges, call resolution.

Built from the per-module facts dicts, never from ASTs.  Call
resolution is deliberately *conservative* and only ever follows import
edges — a call either resolves to a project function we have facts
for, stays an external dotted name (``time.time``), or is unknown.
That discipline is what makes per-module caching sound: everything the
analysis can learn about a module is a function of its import closure,
so a cache entry keyed on the closure's content hashes can never go
stale through an unseen edge.

Method calls resolve through the annotated types the strict-mypy wave
put on every signature: a receiver's class comes from its parameter /
``AnnAssign`` annotation, from ``ClassName(...)`` construction, or from
the return annotation of a resolved call (covering the
``RunLedger.load(...)`` classmethod-constructor idiom).
"""

from __future__ import annotations

import hashlib
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.program.facts import MODULE_BODY

#: unwrap one layer of Optional[...] / quoted forward refs
_OPTIONAL = re.compile(r"^Optional\[(.+)\]$")


def _base_type_name(annotation: Optional[str]) -> Optional[str]:
    """``Optional['RunLedger']`` -> ``RunLedger`` (best effort)."""
    if not annotation:
        return None
    ann = annotation.strip().strip("'\"")
    match = _OPTIONAL.match(ann)
    if match:
        ann = match.group(1).strip().strip("'\"")
    if "[" in ann or " " in ann:
        return None
    return ann or None


class FunctionRef:
    """A resolved project function: ``(module, qualname)``."""

    __slots__ = ("module", "qual")

    def __init__(self, module: str, qual: str):
        self.module = module
        self.qual = qual

    @property
    def key(self) -> Tuple[str, str]:
        return (self.module, self.qual)

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qual}" if self.qual else self.module

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionRef({self.dotted})"


class Resolution:
    """Outcome of resolving one call: project / external / unknown."""

    __slots__ = ("kind", "ref", "name", "result_type")

    def __init__(
        self,
        kind: str,
        ref: Optional[FunctionRef] = None,
        name: Optional[str] = None,
        result_type: Optional[Tuple[str, str]] = None,
    ):
        self.kind = kind  # 'project' | 'external' | 'unknown'
        self.ref = ref
        self.name = name  # dotted external name, or project dotted
        self.result_type = result_type  # (module, ClassName) if known


class Project:
    """All module facts plus the derived graphs."""

    def __init__(self, modules: Dict[str, Dict[str, Any]]):
        #: display path -> facts
        self.by_path = modules
        #: dotted module name -> display path (collisions dropped)
        self.by_name: Dict[str, str] = {}
        collided = set()
        for display, facts in modules.items():
            name = facts["module"]
            if name in self.by_name:
                collided.add(name)
            else:
                self.by_name[name] = display
        for name in collided:
            del self.by_name[name]
        #: module display -> display paths it imports (project-internal)
        self.import_edges: Dict[str, List[str]] = {}
        for display, facts in modules.items():
            targets = set()
            candidates = list(facts["import_modules"])
            candidates.extend(facts["imports"].values())
            for dotted in candidates:
                hit = self._module_prefix(dotted)
                if hit is not None and hit != display:
                    targets.add(hit)
            self.import_edges[display] = sorted(targets)
        self._closure_cache: Dict[str, Tuple[str, ...]] = {}
        self._text_cache: Dict[str, List[str]] = {}

    # -- lookup -------------------------------------------------------
    def _module_prefix(self, dotted: str) -> Optional[str]:
        """Longest module-table prefix of a dotted name, as a display path."""
        parts = dotted.split(".")
        for end in range(len(parts), 0, -1):
            name = ".".join(parts[:end])
            display = self.by_name.get(name)
            if display is not None:
                return display
        return None

    def function(self, ref: FunctionRef) -> Optional[Dict[str, Any]]:
        facts = self.by_path.get(ref.module)
        if facts is None:
            return None
        return facts["functions"].get(ref.qual)

    def iter_functions(self):
        for display, facts in sorted(self.by_path.items()):
            for qual, fn in sorted(facts["functions"].items()):
                yield display, qual, fn

    # -- import closure ----------------------------------------------
    def closure(self, display: str) -> Tuple[str, ...]:
        """Transitive import closure of one module (display paths)."""
        cached = self._closure_cache.get(display)
        if cached is not None:
            return cached
        seen = {display}
        stack = [display]
        while stack:
            for dep in self.import_edges.get(stack.pop(), ()):
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        out = tuple(sorted(seen))
        self._closure_cache[display] = out
        return out

    def closure_hash(self, display: str) -> str:
        """Hash over the content hashes of the import closure.

        This is the reverse-dependency invalidation mechanism: editing
        any module changes the closure hash of every importer, so their
        cached program findings drop out without a dependency walk.
        """
        # the module's own display leads the blob: modules in an import
        # cycle share one closure *set*, and must not share a cache key
        blob = "\x1f".join(
            [display]
            + [
                f"{dep}={self.by_path[dep]['content_hash']}"
                for dep in self.closure(display)
            ]
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def global_hash(self) -> str:
        blob = "\x1f".join(
            f"{display}={facts['content_hash']}"
            for display, facts in sorted(self.by_path.items())
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    # -- source lines (for finding text; lazy, content is hash-pinned) --
    def line_text(self, display: str, line: int) -> str:
        lines = self._text_cache.get(display)
        if lines is None:
            try:
                with open(self.by_path[display]["_fs_path"]) as handle:
                    lines = handle.read().splitlines()
            except (OSError, KeyError):
                lines = []
            self._text_cache[display] = lines
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    # -- class / type resolution --------------------------------------
    def resolve_class(
        self, display: str, type_name: Optional[str]
    ) -> Optional[Tuple[str, str]]:
        """Resolve a class *name* seen in *display* to (module, Class)."""
        name = _base_type_name(type_name)
        if not name:
            return None
        facts = self.by_path.get(display)
        if facts is None:
            return None
        leaf = name.rsplit(".", 1)[-1]
        if name in facts["classes"] or leaf in facts["classes"]:
            return (display, leaf if leaf in facts["classes"] else name)
        dotted = facts["imports"].get(name.split(".")[0])
        if dotted:
            full = ".".join([dotted] + name.split(".")[1:])
        else:
            full = name
        target = self._module_prefix(full)
        if target is None:
            return None
        remainder = full[len(self.by_path[target]["module"]) :].lstrip(".")
        cls = remainder.split(".")[0] if remainder else ""
        if cls and cls in self.by_path[target]["classes"]:
            return (target, cls)
        return None

    def class_method(
        self, cls: Tuple[str, str], attr: str
    ) -> Optional[FunctionRef]:
        """Find ``Class.attr`` on the class or its (project) bases."""
        seen = set()
        stack = [cls]
        while stack:
            module, name = stack.pop()
            if (module, name) in seen:
                continue
            seen.add((module, name))
            facts = self.by_path.get(module)
            if facts is None:
                continue
            info = facts["classes"].get(name)
            if info is None:
                continue
            qual = f"{info['qualname']}.{attr}"
            if qual in facts["functions"]:
                return FunctionRef(module, qual)
            for base in info["bases"]:
                resolved = self.resolve_class(module, base)
                if resolved:
                    stack.append(resolved)
        return None

    # -- call resolution ----------------------------------------------
    def resolve_dotted(
        self, display: str, dotted: str
    ) -> Resolution:
        """Resolve an alias-expanded dotted name from *display*."""
        target = self._module_prefix(dotted)
        if target is None:
            return Resolution("external", name=dotted)
        target_facts = self.by_path[target]
        remainder = dotted[len(target_facts["module"]) :].lstrip(".")
        if not remainder:
            return Resolution("unknown", name=dotted)
        if remainder in target_facts["functions"]:
            return Resolution(
                "project",
                ref=FunctionRef(target, remainder),
                name=f"{target_facts['module']}.{remainder}",
            )
        parts = remainder.split(".")
        if parts[0] in target_facts["classes"]:
            cls = (target, parts[0])
            if len(parts) == 1:
                # constructor: resolves to __init__ when present
                ref = self.class_method(cls, "__init__")
                return Resolution(
                    "project" if ref else "unknown",
                    ref=ref,
                    name=dotted,
                    result_type=cls,
                )
            method = self.class_method(cls, parts[1])
            if method is not None:
                res = Resolution(
                    "project",
                    ref=method,
                    name=f"{target_facts['module']}.{'.'.join(parts[:2])}",
                )
                fn = self.function(method)
                if fn is not None:
                    res.result_type = self.resolve_class(
                        method.module, fn.get("returns_annotation")
                    )
                return res
        return Resolution("unknown", name=dotted)

    def resolve_call(
        self,
        display: str,
        fn: Dict[str, Any],
        call: Dict[str, Any],
        var_types: Dict[str, Tuple[str, str]],
    ) -> Resolution:
        """Resolve one CallFact from function *fn* in module *display*."""
        callee = call["callee"]
        kind = callee["kind"]
        facts = self.by_path[display]
        if kind == "name":
            name = callee["name"]
            if name in facts["functions"]:
                res = Resolution(
                    "project",
                    ref=FunctionRef(display, name),
                    name=f"{facts['module']}.{name}",
                )
                target = facts["functions"][name]
                res.result_type = self.resolve_class(
                    display, target.get("returns_annotation")
                )
                return res
            if name in facts["classes"]:
                cls = (display, name)
                ref = self.class_method(cls, "__init__")
                return Resolution(
                    "project" if ref else "unknown",
                    ref=ref,
                    name=name,
                    result_type=cls,
                )
            return Resolution("external", name=name)
        if kind == "dotted":
            return self.resolve_dotted(display, callee["name"])
        if kind == "self_method":
            class_name = fn.get("class_name")
            if class_name:
                method = self.class_method((display, class_name), callee["attr"])
                if method is not None:
                    res = Resolution(
                        "project",
                        ref=method,
                        name=f"{facts['module']}.{class_name}.{callee['attr']}",
                    )
                    target = self.function(method)
                    if target is not None:
                        res.result_type = self.resolve_class(
                            method.module, target.get("returns_annotation")
                        )
                    return res
            return Resolution("unknown", name=f"self.{callee['attr']}")
        if kind == "method":
            recv = callee.get("recv_name")
            recv_type = var_types.get(recv) if recv else None
            if recv_type is None and recv:
                # ``RunLedger.load(...)``: the receiver is a class name
                # (same module or imported), not a typed variable
                recv_type = self.resolve_class(display, recv)
                if recv_type is not None and self.class_method(
                    recv_type, callee["attr"]
                ) is None:
                    recv_type = None
            if recv_type is not None:
                method = self.class_method(recv_type, callee["attr"])
                if method is not None:
                    res = Resolution(
                        "project",
                        ref=method,
                        name=(
                            f"{self.by_path[recv_type[0]]['module']}."
                            f"{recv_type[1]}.{callee['attr']}"
                        ),
                    )
                    target = self.function(method)
                    if target is not None:
                        res.result_type = self.resolve_class(
                            method.module, target.get("returns_annotation")
                        )
                    return res
            return Resolution("unknown", name=callee["attr"])
        return Resolution("unknown")

    def infer_var_types(
        self, display: str, fn: Dict[str, Any]
    ) -> Dict[str, Tuple[str, str]]:
        """Local type environment: annotations + constructor results.

        Two passes so a ``ledger = RunLedger.load(...)`` result type is
        available when the later ``ledger.save()`` call resolves.
        """
        types: Dict[str, Tuple[str, str]] = {}
        for var, ann in fn.get("param_annotations", {}).items():
            resolved = self.resolve_class(display, ann)
            if resolved:
                types[var] = resolved
        for var, ann in fn.get("var_annotations", {}).items():
            resolved = self.resolve_class(display, ann)
            if resolved:
                types[var] = resolved
        class_name = fn.get("class_name")
        if class_name and fn.get("params") and fn["params"][0] == "self":
            if class_name in self.by_path[display]["classes"]:
                types["self"] = (display, class_name)
        for _ in range(2):
            for call in fn["calls"]:
                if not call.get("assigns"):
                    continue
                res = self.resolve_call(display, fn, call, types)
                if res.result_type is not None:
                    for var in call["assigns"]:
                        types.setdefault(var, res.result_type)
        return types


def module_name_for(display_path: str, root: str) -> str:
    """Dotted module name for *display_path* under scan root *root*.

    ``src/repro/camodel/io.py`` under root ``src`` -> ``repro.camodel.io``;
    a leading ``src`` segment inside the relative part is stripped too so
    linting ``.`` and linting ``src`` agree.  ``__init__.py`` maps to its
    package.
    """
    rel = display_path
    root = root.rstrip("/")
    if root and root != "." and rel.startswith(root + "/"):
        rel = rel[len(root) + 1 :]
    if rel.startswith("./"):
        rel = rel[2:]
    if rel.startswith("src/"):
        rel = rel[4:]
    if rel.endswith(".py"):
        rel = rel[: -3]
    parts = [p for p in rel.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or MODULE_BODY
