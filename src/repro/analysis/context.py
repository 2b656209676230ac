"""Parsed-module context and shared AST helpers for checkers.

A :class:`ModuleContext` bundles everything a checker needs about one
file: the parsed AST, raw source, the repo-relative path used in
findings, and the *dotted module name* used for rule scoping (so e.g.
``no-unseeded-randomness`` can exempt ``repro.sim.rng`` and nothing
else).

The module name is normally derived from the path (the part after a
``src/`` component).  Test fixtures that plant violations outside the
source tree can claim a scope explicitly with a magic comment in their
first few lines::

    # detlint-module: repro.energy.fixture

This also documents *which* scope a fixture exercises.

The second half of this module is the **known-set inference** shared by
the ``ordered-iteration`` and ``no-float-accumulation-order`` checkers:
a conservative, purely syntactic answer to "is this expression certainly
a ``set``?"  It recognises set displays, set comprehensions,
``set(...)``/``frozenset(...)`` calls, set-algebra methods on known sets,
and local names whose every assignment in the enclosing scope is one of
those.  It never claims a set on partial evidence — a name with any
non-set (re)assignment is dropped — so the checkers err toward silence,
not noise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

_MODULE_OVERRIDE = re.compile(r"#\s*detlint-module\s*:\s*([\w.]+)")


@dataclass
class ModuleContext:
    """One parsed source file, ready for checkers."""

    path: Path
    relpath: str
    module: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(
            path=path,
            relpath=relpath,
            module=_module_name(path, source),
            source=source,
            tree=ast.parse(source, filename=str(path)),
            lines=source.splitlines(),
        )

    def in_module(self, *prefixes: str) -> bool:
        """Whether this module is one of ``prefixes`` or inside one of them."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


def _module_name(path: Path, source: str) -> str:
    head = "\n".join(source.splitlines()[:5])
    override = _MODULE_OVERRIDE.search(head)
    if override:
        return override.group(1)
    parts = list(path.resolve().parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    else:
        parts = [path.stem]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or path.stem


# --------------------------------------------------------------------- scopes
def walk_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    """Yield the module and every (async) function definition in it.

    Each yielded node is one binding scope for :func:`set_bindings`;
    nested functions are yielded separately so their locals do not leak
    into the enclosing scope's inference.
    """
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def scope_statements(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope's nodes without descending into nested functions."""
    body = scope.body if hasattr(scope, "body") else []
    stack: List[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ------------------------------------------------------------- set inference
_SET_CONSTRUCTORS = {"set", "frozenset"}
_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference", "copy"}
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def is_known_set(node: ast.AST, bound: Set[str]) -> bool:
    """Whether ``node`` is certainly a set-valued expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _SET_CONSTRUCTORS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and is_known_set(func.value, bound)
        ):
            return True
        return False
    if isinstance(node, ast.Name):
        return node.id in bound
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return is_known_set(node.left, bound) or is_known_set(node.right, bound)
    return False


def set_bindings(scope: ast.AST) -> Set[str]:
    """Names bound to sets throughout one scope (conservative).

    A name qualifies only if *every* assignment to it in the scope is a
    known-set expression and it is never rebound by a loop target, a
    ``with`` alias, or a non-set assignment.  Augmented set-algebra
    assignments (``s |= other``) keep the binding; any other augmented
    assignment taints it.
    """
    candidates: Set[str] = set()
    tainted: Set[str] = set()
    for _ in range(2):  # second pass resolves name-to-name chains
        for node in scope_statements(scope):
            if isinstance(node, ast.Assign):
                value_is_set = is_known_set(node.value, candidates)
                for target in node.targets:
                    _bind(target, value_is_set, candidates, tainted)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                _bind(node.target, is_known_set(node.value, candidates), candidates, tainted)
            elif isinstance(node, ast.AugAssign):
                if not isinstance(node.op, _SET_OPS):
                    _bind(node.target, False, candidates, tainted)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                _bind(node.target, False, candidates, tainted)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                _bind(node.optional_vars, False, candidates, tainted)
    return candidates - tainted


def _bind(target: ast.AST, value_is_set: bool, candidates: Set[str], tainted: Set[str]) -> None:
    if isinstance(target, ast.Name):
        if value_is_set:
            candidates.add(target.id)
        else:
            tainted.add(target.id)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            _bind(element, False, candidates, tainted)


# ----------------------------------------------------------- class utilities
def base_names(cls: ast.ClassDef) -> Tuple[str, ...]:
    """Base-class names of ``cls`` (attribute bases collapse to their attr)."""
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def has_decorator(cls: ast.ClassDef, name: str) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == name:
            return True
        if isinstance(target, ast.Attribute) and target.attr == name:
            return True
    return False


def dataclass_fields(cls: ast.ClassDef) -> List[Tuple[str, ast.AnnAssign]]:
    """(name, node) for every non-ClassVar annotated field of ``cls``."""
    fields: List[Tuple[str, ast.AnnAssign]] = []
    for node in cls.body:
        if not isinstance(node, ast.AnnAssign) or not isinstance(node.target, ast.Name):
            continue
        annotation = ast.dump(node.annotation)
        if "ClassVar" in annotation:
            continue
        fields.append((node.target.id, node))
    return fields


class ProjectIndex:
    """A cross-module class index for project-scope checkers.

    Resolves classes *by name* across every analyzed module — the
    analyzer never imports the code it checks, so this is nominal, not
    semantic: two same-named classes in different modules merge.  The
    repo's registries (fault atoms, workload engines) use globally unique
    class names, which is itself part of the contract being checked.
    """

    def __init__(self, contexts: List[ModuleContext]) -> None:
        self.contexts = contexts
        self.classes: Dict[str, Tuple[ModuleContext, ast.ClassDef]] = {}
        self.subclasses: Dict[str, Set[str]] = {}
        for ctx in contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, (ctx, node))
                    for base in base_names(node):
                        self.subclasses.setdefault(base, set()).add(node.name)

    def transitive_subclasses(self, root: str) -> Set[str]:
        seen: Set[str] = set()
        frontier = [root]
        while frontier:
            name = frontier.pop()
            for child in self.subclasses.get(name, ()):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return seen

    def leaf_subclasses(self, root: str) -> Set[str]:
        """Subclasses of ``root`` that nothing else inherits from."""
        return {
            name
            for name in self.transitive_subclasses(root)
            if not self.subclasses.get(name)
        }

    def assignment(self, name: str) -> Optional[Tuple[ModuleContext, ast.Assign]]:
        """The first module-level ``name = ...`` assignment, if any."""
        for ctx in self.contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name) and target.id == name:
                            return ctx, node
        return None

    def function(self, name: str) -> Optional[Tuple[ModuleContext, ast.FunctionDef]]:
        for ctx in self.contexts:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.FunctionDef) and node.name == name:
                    return ctx, node
        return None


def names_in(node: ast.AST) -> Set[str]:
    """Every ``ast.Name`` identifier appearing under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
