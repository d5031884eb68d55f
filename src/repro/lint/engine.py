"""The parsed-module view, the rule base class and the one rule registry.

One :class:`ModuleUnit` is built per file: it parses the source once,
tokenizes it once for suppression comments and scans the module-level
tables (imports, string constants, nested functions).  The driver
(:mod:`repro.lint.driver`) hands that one unit to the module-local
rules and to fact extraction for the whole-program rules.

Suppressions are handled uniformly for every rule: a
``# reprolint: disable=RPL001`` (comma-separated ids, or ``all``)
comment suppresses findings of those rules on its physical line,
``# reprolint: disable-next-line=...`` on the following line, and
``# reprolint: disable-file=...`` anywhere in the file suppresses the
whole file.  For multi-line statements, a suppression on the line where
the violating *node* starts also applies.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.lint.config import LintConfig
from repro.lint.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.program.dataflow import Analysis

#: ``# reprolint: disable=RPL001,RPL102`` (also disable-next-line / disable-file)
_SUPPRESS = re.compile(
    r"#\s*reprolint:\s*(disable(?:-next-line|-file)?)\s*=\s*"
    r"([A-Za-z0-9_,\s]+)"
)

PARSE_ERROR_ID = "RPL000"


def scan_suppressions(text: str) -> Tuple[Dict[str, List[str]], List[str]]:
    """Suppression tables from the comment tokens of *text*.

    Returns ``(line -> rule ids, file-level rule ids)`` with stringified
    line keys, so the tables survive a JSON cache round-trip unchanged.
    Tokenizing (rather than regex-scanning raw lines) is what keeps a
    directive *inside a string literal or docstring* from acting as a
    suppression.  Tokenization can fail where parsing would too (the
    file then only gets RPL000) — comments seen before the error still
    count.
    """
    suppressed: Dict[str, List[str]] = {}
    file_suppressed: Set[str] = set()
    try:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS.search(tok.string)
            if not match:
                continue
            kind = match.group(1)
            ids = {p.strip() for p in match.group(2).split(",") if p.strip()}
            if kind == "disable-file":
                file_suppressed |= ids
                continue
            line = tok.start[0] + (1 if kind == "disable-next-line" else 0)
            bucket = suppressed.setdefault(str(line), [])
            bucket.extend(sorted(ids - set(bucket)))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return suppressed, sorted(file_suppressed)


def is_suppressed(
    suppressed: Mapping[str, Sequence[str]],
    file_suppressed: Sequence[str],
    rule_id: str,
    line: int,
) -> bool:
    """True when a directive silences *rule_id* on *line*."""
    if "all" in file_suppressed or rule_id in file_suppressed:
        return True
    ids = suppressed.get(str(line)) or ()
    return "all" in ids or rule_id in ids


class ModuleUnit:
    """One parsed source file plus the module tables rules share."""

    def __init__(self, display_path: str, text: str, module_name: str = ""):
        #: path as reported in findings (posix, as given on the CLI)
        self.display_path = display_path
        #: dotted module name (resolves relative imports)
        self.module_name = module_name
        self.text = text
        self.lines: List[str] = text.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text)
        except SyntaxError as exc:
            self.parse_error = exc
        self.suppressed, self.file_suppressed = scan_suppressions(text)
        #: local name -> dotted target, for both import styles
        #: ("np" -> "numpy", "datetime" -> "datetime.datetime")
        self.imports: Dict[str, str] = {}
        #: local names bound by a plain ``import`` (to a module)
        self.module_aliases: Set[str] = set()
        #: dotted modules this module imports (project-graph edges)
        self.import_modules: Set[str] = set()
        #: module-level NAME = "string constant" assignments
        self.constants: Dict[str, str] = {}
        #: names of functions defined *inside* another function (unpicklable
        #: as pool entry points), plus names bound to lambdas at any level
        self.nested_functions: Set[str] = set()
        self.lambda_names: Set[str] = set()
        if self.tree is not None:
            self._scan_module(self.tree)

    def _scan_module(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.import_modules.add(alias.name)
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds a.b
                    local = alias.asname or alias.name.split(".")[0]
                    self.imports[local] = alias.name if alias.asname else local
                    self.module_aliases.add(local)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:
                    # relative import: resolve against our package
                    base = self.module_name.split(".")
                    prefix = ".".join(base[: len(base) - node.level])
                    module = f"{prefix}.{module}" if module else prefix
                if not module:
                    continue
                self.import_modules.add(module)
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        f"{module}.{alias.name}"
                    )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is not node and isinstance(
                        inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        self.nested_functions.add(inner.name)
        self.import_modules.discard(self.module_name)
        for stmt in tree.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
            ):
                if isinstance(stmt.value, ast.Constant) and isinstance(
                    stmt.value.value, str
                ):
                    self.constants[stmt.targets[0].id] = stmt.value.value
                elif isinstance(stmt.value, ast.Lambda):
                    self.lambda_names.add(stmt.targets[0].id)

    # ------------------------------------------------------------------
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``np.random.rand`` -> ``numpy.random.rand`` (or None).

        The root name expands through :attr:`imports`; an unbound root
        stays as written.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(self.imports.get(node.id, node.id))
        return ".".join(reversed(parts))

    def resolve_str_arg(self, node: ast.AST) -> Optional[str]:
        """A string literal, or a module-level string constant by name."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.constants.get(node.id)
        return None

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


class Rule:
    """Base class of every rule: set the metadata, implement one check.

    A module-local rule implements :meth:`check` over one
    :class:`ModuleUnit`.  A whole-program rule sets ``program = True``
    and implements :meth:`check_program` over the dataflow
    :class:`~repro.lint.program.dataflow.Analysis`; the driver builds
    that analysis only when a selected rule needs it.
    """

    id: str = ""
    name: str = ""
    summary: str = ""
    #: longer rationale rendered by ``--explain`` and docs
    rationale: str = ""
    #: True when the rule consumes the whole-program analysis
    program: bool = False

    def check(self, unit: ModuleUnit, config: LintConfig) -> Iterator[Finding]:
        return iter(())

    def check_program(self, analysis: "Analysis") -> Iterator[Finding]:
        return iter(())

    # ------------------------------------------------------------------
    def finding(
        self,
        unit: ModuleUnit,
        node: ast.AST,
        message: str,
        extra: Optional[Dict[str, object]] = None,
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        return self.finding_at(
            unit.display_path,
            line,
            getattr(node, "col_offset", 0) + 1,
            message,
            unit.line_text(line),
            extra,
        )

    def finding_at(
        self,
        path: str,
        line: int,
        col: int,
        message: str,
        line_text: str,
        extra: Optional[Dict[str, object]] = None,
    ) -> Finding:
        return Finding(
            rule_id=self.id,
            rule_name=self.name,
            path=path,
            line=line,
            col=col,
            message=message,
            line_text=line_text.strip(),
            extra=extra,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    """Class decorator: instantiate and add to the global registry."""
    rule = rule_cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {rule_cls.__name__} lacks an id/name")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Registered rules, ordered by id (imports the rule packs lazily)."""
    from repro.lint import rules  # noqa: F401  (registration side effect)
    from repro.lint.program import rules as program_rules  # noqa: F401

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Optional[Rule]:
    return next((r for r in all_rules() if r.id == rule_id), None)


def select_rules(
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    chosen = all_rules()
    known = {r.id for r in chosen}
    unknown = (set(select or ()) | set(ignore or ())) - known
    if unknown:
        raise ValueError(f"unknown rule ids: {', '.join(sorted(unknown))}")
    if select is not None:
        chosen = [r for r in chosen if r.id in set(select)]
    if ignore:
        chosen = [r for r in chosen if r.id not in set(ignore)]
    return chosen


def iter_python_files(paths: Iterable[Path]) -> Iterator[Tuple[Path, str]]:
    """Yield ``(path, display_path)`` for every .py file under *paths*."""
    for root in paths:
        root = Path(root)
        if root.is_file():
            if root.suffix == ".py":
                yield root, root.as_posix()
            continue
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            yield path, path.as_posix()


def check_unit(
    unit: ModuleUnit, rules: Sequence[Rule], config: LintConfig
) -> List[Finding]:
    """Run the module-local *rules* over one unit, applying suppressions."""
    if unit.parse_error is not None:
        exc = unit.parse_error
        line = exc.lineno or 1
        return [
            Finding(
                rule_id=PARSE_ERROR_ID,
                rule_name="parse-error",
                path=unit.display_path,
                line=line,
                col=(exc.offset or 0) + 1,
                message=f"file does not parse: {exc.msg}",
                line_text=unit.line_text(line).strip(),
            )
        ]
    findings = [
        finding
        for rule in rules
        for finding in rule.check(unit, config)
        if not is_suppressed(
            unit.suppressed, unit.file_suppressed, finding.rule_id, finding.line
        )
    ]
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings
