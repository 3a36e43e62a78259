#!/usr/bin/env python
"""Offline fallback linter: a stdlib-only subset of the ruff gate.

``make lint`` prefers ruff (configured in ``pyproject.toml``); this
script keeps the gate meaningful on machines without it.  It implements
the highest-signal subset of the configured E/F/W/I rules:

* E401  multiple imports on one line
* E501  line longer than 88 characters
* E711/E712  comparison to ``None`` / ``True`` / ``False``
* E722  bare ``except:``
* E731  lambda assignment
* F401  imported name never used (module scope, AST-based; names that
  only appear inside string annotations count as used)
* F822  name in ``__all__`` that the module neither defines, imports,
  nor serves from its lazy export table (a package's submodules count
  as defined); for a lazy table (``repro._lazy.lazy_exports``), each
  entry's submodule must exist and define or import the name
* W291/W293  trailing whitespace
* I001  first-party/stdlib import blocks out of sorted order (approximate)

Exit status 1 when any finding is reported, 0 otherwise — the same
contract CI's lint job relies on.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

MAX_LINE = 88
ROOTS = ("src", "tests", "benchmarks", "tools")

#: Allowed to go unused: re-export surfaces keep imports for their API.
REEXPORT_FILES = re.compile(r"__init__\.py$")


class Finding:
    def __init__(self, path: Path, line: int, code: str, msg: str) -> None:
        self.path = path
        self.line = line
        self.code = code
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.code} {self.msg}"


def _string_annotation_names(tree: ast.AST) -> set[str]:
    """Identifier-ish tokens inside string annotations ("Foo | None")."""
    names: set[str] = set()
    for node in ast.walk(tree):
        annotation = getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) \
                and isinstance(annotation.value, str):
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                    annotation.value))
        if isinstance(node, ast.arg) and isinstance(
                node.annotation, ast.Constant) and isinstance(
                node.annotation.value, str):
            names.update(re.findall(r"[A-Za-z_][A-Za-z0-9_]*",
                                    node.annotation.value))
    return names


def check_unused_imports(path: Path, tree: ast.AST) -> list[Finding]:
    if REEXPORT_FILES.search(str(path)):
        return []
    imported: dict[str, tuple[int, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = (node.lineno, alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                name = alias.asname or alias.name
                imported[name] = (node.lineno, alias.name)
    if not imported:
        return []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name):
                used.add(base.id)
    used |= _string_annotation_names(tree)
    # __all__ entries count as usage (re-export by name).
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "__all__" in targets and isinstance(
                    node.value, (ast.List, ast.Tuple)):
                for elt in node.value.elts:
                    if isinstance(elt, ast.Constant) \
                            and isinstance(elt.value, str):
                        used.add(elt.value)
    return [Finding(path, lineno, "F401",
                    f"'{source}' imported but unused")
            for name, (lineno, source) in sorted(imported.items())
            if name not in used]


def _bound_names(tree: ast.Module) -> set[str]:
    """Names a module binds at module scope, inside if/try/for/with too."""
    names: set[str] = set()
    stack: list[ast.AST] = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.stmt, ast.excepthandler)):
                    stack.append(child)
                else:
                    names.update(
                        sub.id for sub in ast.walk(child)
                        if isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Store))
    return names


def _lazy_table(tree: ast.Module) -> dict[str, str] | None:
    """The name -> submodule dict a module hands ``lazy_exports``."""
    dicts = {target.id: node.value for node in tree.body
             if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Dict)
             for target in node.targets if isinstance(target, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "lazy_exports" and len(node.args) == 2 \
                and isinstance(node.args[1], ast.Name) \
                and node.args[1].id in dicts:
            table = dicts[node.args[1].id]
            return {key.value: value.value
                    for key, value in zip(table.keys, table.values)
                    if isinstance(key, ast.Constant)
                    and isinstance(value, ast.Constant)}
    return None


def check_exports(path: Path, tree: ast.Module) -> list[Finding]:
    """F822: every exported name must resolve to something."""
    findings: list[Finding] = []
    bound = _bound_names(tree)
    if path.name == "__init__.py":
        bound |= {child.stem for child in path.parent.iterdir()
                  if child.suffix == ".py" or (child / "__init__.py").exists()}
    table = _lazy_table(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) and isinstance(
                node.value, (ast.List, ast.Tuple)):
            for elt in node.value.elts:
                if isinstance(elt, ast.Constant) and elt.value not in bound \
                        and elt.value not in (table or {}):
                    findings.append(Finding(
                        path, elt.lineno, "F822",
                        f"undefined name {elt.value!r} in __all__"))
    for name, module in (table or {}).items():
        source = path.parent / f"{module}.py"
        if not source.exists():
            source = path.parent / module / "__init__.py"
        if not source.exists():
            findings.append(Finding(
                path, 1, "F822",
                f"lazy export {name!r}: no submodule {module!r}"))
        elif name not in _bound_names(ast.parse(
                source.read_text(encoding="utf-8"))):
            findings.append(Finding(
                path, 1, "F822",
                f"lazy export {name!r} is not defined in {module!r}"))
    return findings


def check_ast(path: Path, tree: ast.AST) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for op, comparator in zip(node.ops, node.comparators):
                if not isinstance(comparator, ast.Constant):
                    continue
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if comparator.value is None:
                    findings.append(Finding(
                        path, node.lineno, "E711",
                        "comparison to None (use 'is'/'is not')"))
                elif isinstance(comparator.value, bool):
                    findings.append(Finding(
                        path, node.lineno, "E712",
                        f"comparison to {comparator.value}"))
        elif isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(Finding(path, node.lineno, "E722",
                                    "bare 'except:'"))
        elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Lambda):
            findings.append(Finding(
                path, node.lineno, "E731",
                "lambda assignment (use 'def')"))
        elif isinstance(node, ast.Import) and len(node.names) > 1:
            findings.append(Finding(path, node.lineno, "E401",
                                    "multiple imports on one line"))
    return findings


def check_lines(path: Path, text: str) -> list[Finding]:
    findings: list[Finding] = []
    for i, line in enumerate(text.splitlines(), start=1):
        # URLs in docstrings/comments get the same pass ruff's noqa
        # discipline would demand; everything else obeys the limit.
        if len(line) > MAX_LINE and "http" not in line:
            findings.append(Finding(
                path, i, "E501",
                f"line too long ({len(line)} > {MAX_LINE})"))
        if line != line.rstrip():
            code = "W293" if not line.strip() else "W291"
            findings.append(Finding(path, i, code, "trailing whitespace"))
    return findings


def _import_sort_key(line: str) -> tuple:
    stripped = line.strip()
    # isort style: straight imports precede from-imports in a block,
    # each group sorted by module (case-insensitive).
    if stripped.startswith("import "):
        return (0, stripped[len("import "):].split(" as ")[0].lower())
    return (1, stripped[len("from "):].split(" import ")[0].lower())


def check_import_order(path: Path, text: str) -> list[Finding]:
    """Approximate I001: within a contiguous import block, plain import
    lines must be sorted (case-insensitive by module).  Re-export
    modules (``__init__.py``) are exempt — their order is API surface
    and initialisation order, matching the per-file-ignores in
    ``pyproject.toml``."""
    if REEXPORT_FILES.search(str(path)):
        return []
    findings: list[Finding] = []
    block: list[tuple[int, str]] = []

    def flush() -> None:
        nonlocal block
        keys = [_import_sort_key(line) for _, line in block]
        if keys != sorted(keys):
            findings.append(Finding(
                path, block[0][0], "I001",
                "import block is not sorted"))
        block = []

    for i, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        is_import = (stripped.startswith(("import ", "from "))
                     and " import" in stripped + " import"
                     and "(" not in stripped)
        if is_import and not line.startswith((" ", "\t")):
            block.append((i, line))
        elif block:
            flush()
    if block:
        flush()
    return findings


def lint_file(path: Path) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 0, "E999",
                        f"syntax error: {exc.msg}")]
    return (check_lines(path, text)
            + check_import_order(path, text)
            + check_unused_imports(path, tree)
            + check_exports(path, tree)
            + check_ast(path, tree))


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    targets = [Path(arg) for arg in argv] or [
        root / part for part in ROOTS]
    files: list[Path] = []
    for target in targets:
        if target.is_dir():
            files.extend(sorted(target.rglob("*.py")))
        elif target.suffix == ".py":
            files.append(target)
    findings: list[Finding] = []
    for path in files:
        findings.extend(lint_file(path))
    for finding in findings:
        print(finding)
    if findings:
        print(f"{len(findings)} finding(s) in {len(files)} files")
        return 1
    print(f"lint clean: {len(files)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
