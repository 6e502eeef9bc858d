"""RL001 — lock discipline of the Repository primitives.

Every ``Repository`` method that changes repository state — assigns
``self._*`` attributes, mutates one of their containers, or calls a
mutating :class:`MetadataDatabase` method — must run under the write
lock, which in this codebase means carrying the ``@_exclusive``
decorator (DESIGN.md §12).  An undecorated mutator is a primitive the
image server's concurrent worker threads can tear.

Escape hatch: ``# reprolint: unlocked`` in the method's decorator/def
header, for helpers that are only ever called from already-locked
primitives or that tolerate benign races by design.
"""

from __future__ import annotations

import ast

from repro.devtools._astutil import (
    MUTATING_CONTAINER_METHODS,
    is_self_attr,
    iter_methods,
)
from repro.devtools.findings import Finding
from repro.devtools.project import Project, SourceFile

RULE_ID = "RL001"
TITLE = "Repository mutators must be @_exclusive"

#: the file the rule anchors on
REPO_SUFFIX = "repository/repo.py"
#: the decorator that takes the write lock
LOCK_DECORATOR = "_exclusive"
#: the class whose methods are checked
REPO_CLASS = "Repository"
#: MetadataDatabase method prefixes that write the index
DB_MUTATOR_PREFIXES = ("insert_", "delete_", "update_", "replace_")
#: pragma tag that waives the rule for one method
PRAGMA = "unlocked"


def check(project: Project) -> list[Finding]:
    source = project.find(REPO_SUFFIX)
    if source is None:
        return []
    findings: list[Finding] = []
    for node in source.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == REPO_CLASS:
            findings.extend(_check_class(source, node))
    return findings


def _check_class(
    source: SourceFile, cls: ast.ClassDef
) -> list[Finding]:
    findings: list[Finding] = []
    for method in iter_methods(cls):
        if method.name.startswith("__") and method.name.endswith("__"):
            continue
        if _has_lock_decorator(method):
            continue
        mutation = _first_mutation(method)
        if mutation is None:
            continue
        if source.has_pragma_in_header(PRAGMA, method):
            continue
        findings.append(
            Finding(
                rule=RULE_ID,
                path=source.path,
                line=method.lineno,
                message=(
                    f"{cls.name}.{method.name} mutates repository "
                    f"state (line {mutation}) without @{LOCK_DECORATOR}"
                ),
                hint=(
                    f"decorate the method with @{LOCK_DECORATOR}, or "
                    f"waive it with '# reprolint: {PRAGMA} — <reason>' "
                    "in its def header if callers always hold the lock"
                ),
            )
        )
    return findings


def _has_lock_decorator(
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> bool:
    for deco in method.decorator_list:
        name = None
        if isinstance(deco, ast.Name):
            name = deco.id
        elif isinstance(deco, ast.Attribute):
            name = deco.attr
        elif isinstance(deco, ast.Call):
            func = deco.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
        if name == LOCK_DECORATOR:
            return True
    return False


def _first_mutation(
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> int | None:
    """Line of the first state mutation in the method body, or None."""
    for node in ast.walk(method):
        # self._x = ..., self._x += ..., self._x: T = ...
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = list(node.targets)
        for target in targets:
            if is_self_attr(target):
                return node.lineno
            # self._x[...] = ... / del self._x[...]
            if isinstance(target, ast.Subscript) and is_self_attr(
                target.value
            ):
                return node.lineno
        if isinstance(node, ast.Call) and isinstance(
            node.func, ast.Attribute
        ):
            recv = node.func.value
            # self.db.insert_*/delete_*/update_*/replace_*(...)
            if (
                isinstance(recv, ast.Attribute)
                and isinstance(recv.value, ast.Name)
                and recv.value.id == "self"
                and recv.attr == "db"
                and node.func.attr.startswith(DB_MUTATOR_PREFIXES)
            ):
                return node.lineno
            # self._x.add/pop/update/...(...)
            if (
                is_self_attr(recv)
                and node.func.attr in MUTATING_CONTAINER_METHODS
            ):
                return node.lineno
    return None
