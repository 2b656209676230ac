"""Parsed-module context and shared AST helpers for checkers.

A :class:`ModuleContext` bundles everything a checker needs about one
file: the parsed AST, raw source, the repo-relative path used in
findings, and the *dotted module name* used for rule scoping (so e.g.
``no-unseeded-randomness`` can exempt ``repro.sim.rng`` and nothing
else).  The module name is the path after its last ``src/`` component.

The second half of this module is the **known-set inference** behind
the ``ordered-iteration`` checker: a conservative, purely syntactic
answer to "is this expression certainly a ``set``?"  It recognises set
displays, set comprehensions, ``set(...)``/``frozenset(...)`` calls,
set-algebra methods on known sets, and local names whose every
assignment in the enclosing scope is one of those.  It never claims a
set on partial evidence — a name with any non-set (re)assignment is
dropped — so the checker errs toward silence, not noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Set


class ParseError(Exception):
    """A file the analyzer cannot read as Python: ``<path>:<line>: <reason>``."""


@dataclass
class ModuleContext:
    """One parsed source file, ready for checkers."""

    path: Path
    relpath: str
    module: str
    source: str
    tree: ast.Module

    @classmethod
    def load(cls, path: Path, root: Path) -> "ModuleContext":
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except UnicodeDecodeError as error:
            line = path.read_bytes().count(b"\n", 0, error.start) + 1
            raise ParseError(f"{path}:{line}: not UTF-8 ({error.reason})") from error
        except SyntaxError as error:
            raise ParseError(f"{path}:{error.lineno}: {error.msg}") from error
        try:
            relpath = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            relpath = path.as_posix()
        return cls(
            path=path,
            relpath=relpath,
            module=_module_name(path),
            source=source,
            tree=tree,
        )

    def in_module(self, *prefixes: str) -> bool:
        """Whether this module is one of ``prefixes`` or inside one of them."""
        return any(
            self.module == prefix or self.module.startswith(prefix + ".")
            for prefix in prefixes
        )


def _module_name(path: Path) -> str:
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
