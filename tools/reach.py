"""Reachability audit: the ``src/repro`` functions that only a test calls.

``docs/performance.md``'s checklist says a test written for a function is
not a caller.  This script checks that rule.  It runs the program's entry
points under a call-only ``sys.settrace`` hook and compares the functions
they execute with every ``def`` in ``src/repro``.  There are two passes,
each in a fresh child process so neither sees the other's imports or
caches:

* the **callers pass** runs ``benchmarks/``, every ``examples/*.py``,
  ``python3 -m bench`` on each workload for 1 s, and ``repro`` over its
  registries: each protocol x ``--leader-fault``, each ``--impair``
  clause, each workload form, ``matrix`` over every fault / medium /
  topology / workload / impairment name, each ``experiment``,
  ``feasibility``, ``fuzz --out``, ``analyze`` (on the tree and on the
  planted detlint fixtures), ``python -m repro.analysis``, and the
  malformed inputs ``repro`` must refuse;
* the **tests pass** runs tier-1 and ``make test-matrix``.

Everything runs in-process: a child process would escape the hook.
pytest-benchmark pauses tracing while it times, so ``--benchmark-disable``
is passed, and ``--hypothesis-seed=0`` makes the report a function of the
tree alone.  A function counts as reached when a traced code object's
``(file, co_firstlineno, co_name)`` matches its ``def`` (on 3.8+ the first
line is the first decorator's).

The report has five lists:

1. functions no pass reaches;
2. functions only the tests pass reaches;
3. ``__all__`` names that no module outside the package reads, counting
   ``src/``, ``bench/``, ``benchmarks/`` and ``examples/`` (test
   directories excluded);
4. measured options: a defaulted parameter of a function the callers pass
   runs that only ever received its default (a constant in disguise), or
   that never received it (the argument is required in practice).  The
   hook compares each call's argument with the default by identity, then
   by type and ``==``;
5. write-only state: an attribute a ``src/repro`` class writes
   (``self.x = ...``, ``self.x += ...``, a dataclass field, a class
   attribute) that nothing in those four roots loads.  A discarded
   mutating call (``self.x.append(...)``) and a subscript store
   (``self.x[k] = v``) are writes, not reads.

Lists 4 and 5 skip ``eval/`` and the Section-4 analytic modules
(``OPTION_SCOPE_EXCLUDED``): their parameters are the paper's figure
grids and closed-form inputs.  Interface stubs (a body that is only a
docstring, ``pass``, ``...`` or ``raise NotImplementedError``) are not
reported.  An entry is accepted when ``tools/reach_allow.txt`` has a line
``path::qualname  reason`` for it (``path::__all__.Name`` for list 3,
``path::qualname(param)`` for list 4, ``path::Class.attr`` for list 5).

    python tools/reach.py        (make reach; the two passes run side by
                                  side, about a minute on two cores)

Exits 1 on an entry the allowlist does not accept, or on an allowlist
line that matches no entry; 2 when a pass itself fails.
"""

from __future__ import annotations

import argparse
import ast
import gc
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from types import FunctionType
from typing import Any, Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = ROOT / "tools" / "reach_allow.txt"
#: Where list 3 looks for a reader of an exported name.
REFERENCE_ROOTS = ("src", "bench", "benchmarks", "examples")
#: Lists 4 and 5 leave out the paper's figure grids and closed-form inputs.
OPTION_SCOPE_EXCLUDED = (
    "src/repro/eval/",
    "src/repro/energy/model.py",
    "src/repro/energy/feasibility.py",
    "src/repro/energy/protocol_costs.py",
    "src/repro/energy/analysis.py",
    "src/repro/crypto/energy_costs.py",
)
#: Container methods whose discarded call writes the receiver (list 5).
MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend", "extendleft", "insert",
    "pop", "popitem", "popleft", "remove", "setdefault", "update",
})
PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "--benchmark-disable", "--hypothesis-seed=0"]

#: (path relative to ROOT, first line, name) of one function.
Key = Tuple[str, int, str]


class Function(NamedTuple):
    path: str
    qualname: str
    first: int
    last: int
    stub: bool
    #: Names of the parameters that have a default.
    defaulted: Tuple[str, ...]

    @property
    def key(self) -> Key:
        return self.path, self.first, self.qualname.rpartition(".")[2]

    @property
    def allow_key(self) -> str:
        return f"{self.path}::{self.qualname}"


# ------------------------------------------------------------------ inventory
def _is_stub(node: ast.AST) -> bool:
    body = node.body
    first = body[0]
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(
        first.value.value, str
    ):
        body = body[1:]
    if not body:
        return True
    if len(body) > 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return stmt.value.value is Ellipsis
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


def _defaulted(args: ast.arguments) -> Tuple[str, ...]:
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return tuple(names)


def _defs(node: ast.AST, path: str, prefix: str) -> Iterator[Function]:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = prefix + child.name
            first = min([d.lineno for d in child.decorator_list] + [child.lineno])
            yield Function(
                path, qualname, first, child.end_lineno, _is_stub(child), _defaulted(child.args)
            )
            yield from _defs(child, path, qualname + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _defs(child, path, prefix + child.name + ".")
        else:
            yield from _defs(child, path, prefix)


def inventory() -> List[Function]:
    """Every ``def`` under ``src/repro``, in file and line order."""
    functions: List[Function] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        functions.extend(_defs(ast.parse(path.read_text(), str(path)), relative, ""))
    return sorted(functions, key=lambda f: (f.path, f.first))


def unreferenced_exports() -> List[str]:
    """List 3 as ``path::__all__.Name`` keys, sorted.

    A module reads a name when it loads it (``ast.Name``), reads it as an
    attribute, or imports it by name outside an ``__init__.py`` (so an
    ``import x as y`` counts, and a parent package's re-export does not).
    """
    readers: Dict[Path, Set[str]] = {}
    for root in REFERENCE_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            names: Set[str] = set()
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
                    names.update(alias.name for alias in node.names)
            readers[path] = names
    found = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        exported = _literal_all(init)
        package = init.parent
        outside: Set[str] = set()
        for path, names in readers.items():
            if package not in path.parents:
                outside |= names
        relative = init.relative_to(ROOT).as_posix()
        found.extend(f"{relative}::__all__.{name}" for name in exported if name not in outside)
    return sorted(found)


def _literal_all(path: Path) -> List[str]:
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def in_option_scope(path: str) -> bool:
    """Whether lists 4 and 5 look at the file ``path`` (relative to ROOT)."""
    return not path.startswith(OPTION_SCOPE_EXCLUDED)


def _parents(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    return {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}


def _written_through(node: ast.Attribute, parents: Dict[ast.AST, ast.AST]) -> bool:
    """Whether a loaded ``node`` is only written through: ``node[k] = v``,
    ``del node[k]`` or a discarded ``node.append(...)``."""
    parent = parents.get(node)
    if isinstance(parent, ast.Subscript):
        return parent.value is node and not isinstance(parent.ctx, ast.Load)
    if isinstance(parent, ast.Attribute) and parent.attr in MUTATORS:
        call = parents.get(parent)
        return isinstance(call, ast.Call) and isinstance(parents.get(call), ast.Expr)
    return False


def loaded_attributes(tree: ast.AST) -> Set[str]:
    """The attribute names a module reads: loads that are not only written
    through, and ``getattr``/``hasattr`` with a literal name."""
    parents = _parents(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if not _written_through(node, parents):
                names.add(node.attr)
        elif (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr") and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)
        ):
            names.add(node.args[1].value)
    return names


def written_attributes(tree: ast.AST) -> Iterator[Tuple[str, str, int]]:
    """``(class qualname, attribute, line)`` for every write a class makes:
    a class-body assignment or annotation, and in its methods a store to
    ``self.x``, a write through it, or ``object.__setattr__(self, "x", v)``."""
    parents = _parents(tree)

    def visit(node: ast.AST, prefix: str) -> Iterator[Tuple[str, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from _class_writes(child, prefix + child.name, parents)
                yield from visit(child, prefix + child.name + ".")
            elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, prefix)

    return visit(tree, "")


def _class_writes(
    cls: ast.ClassDef, qualname: str, parents: Dict[ast.AST, ast.AST]
) -> Iterator[Tuple[str, str, int]]:
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and "InitVar" in ast.unparse(stmt.annotation):
            continue  # an __init__ argument, not state
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign)
            else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
        )
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield qualname, target.id, stmt.lineno
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.args.args:
            this = stmt.args.args[0].arg
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                    and sub.value.id == this
                    and (isinstance(sub.ctx, ast.Store) or _written_through(sub, parents))
                ):
                    yield qualname, sub.attr, sub.lineno
                elif (
                    isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr == "__setattr__" and len(sub.args) == 3
                    and isinstance(sub.args[1], ast.Constant)
                ):
                    yield qualname, sub.args[1].value, sub.lineno


def write_only_state() -> List[Tuple[str, int]]:
    """List 5 as ``(path::Class.attr, line)``, sorted by key: attributes a
    class in scope writes that no module in ``REFERENCE_ROOTS`` loads."""
    loaded: Set[str] = set()
    for root in REFERENCE_ROOTS:
        for path in sorted((ROOT / root).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT).parts:
                loaded |= loaded_attributes(ast.parse(path.read_text(), str(path)))
    found: Dict[str, int] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = path.relative_to(ROOT).as_posix()
        if not in_option_scope(relative):
            continue
        for cls, attr, line in written_attributes(ast.parse(path.read_text(), str(path))):
            if attr not in loaded:
                key = f"{relative}::{cls}.{attr}"
                found[key] = min(line, found.get(key, line))
    return sorted(found.items())


def option_findings(observed: Dict[str, Tuple[bool, bool]]) -> List[Tuple[str, str]]:
    """List 4 from the callers pass's table ``path::qualname(param) ->
    (received its default, received another value)``, sorted by key."""
    verdicts = []
    for key in sorted(observed):
        received_default, received_other = observed[key]
        if not received_other:
            verdicts.append((key, "only ever received its default"))
        elif not received_default:
            verdicts.append((key, "never received its default"))
    return verdicts


# --------------------------------------------------------------------- passes
def _cli_runs(scratch: Path) -> List[Tuple[List[str], int]]:
    """Every ``repro`` invocation of the callers pass, with its exit status."""
    from repro.cli import EXPERIMENTS, build_parser
    from repro.session.spec import MEDIA, PROTOCOLS, TOPOLOGIES
    from repro.net.impairment import IMPAIRMENT_KINDS
    from repro.testkit.scenarios import FAULT_LIBRARY, IMPAIRMENT_LIBRARY, WORKLOAD_LIBRARY

    run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
    leader_faults = run_parser._option_string_actions["--leader-fault"].choices
    trace = scratch / "trace.json"
    trace.write_text(json.dumps([{"time": 0.5 * i} for i in range(6)]))
    # A spec file that sets every nested record: fault schedule, workload
    # and impairment.
    full_spec = scratch / "full.json"
    full_spec.write_text(json.dumps({
        "protocol": "eesmr", "n": 7, "f": 2, "k": 2, "target_height": 4, "block_interval": 1.0,
        "fault_schedule": [
            {"kind": "CrashAt", "node": 6, "time": 0.0},
            {"kind": "PartitionWindow", "node": 5, "start": 1.0, "heal": 4.0},
        ],
        "workload": {"kind": "open-loop", "rate": 2.0, "clients": 2, "duration": 6.0},
        "impairment": {"loss": 0.1},
    }))
    bad_spec = scratch / "bad.json"
    bad_spec.write_text('{"n": "7"}')
    bad_nested = scratch / "bad_nested.json"
    bad_nested.write_text('{"fault_schedule": [{"kind": "PartitionWindow", "node": 5, "start": "x"}]}')
    under_provisioned = scratch / "under_provisioned.json"
    under_provisioned.write_text(json.dumps({
        "n": 7, "f": 1, "block_interval": 2.0,
        "fault_schedule": [{"kind": "LeaderFollowingCrash", "budget": 2}],
    }))

    runs: List[Tuple[List[str], int]] = []
    for protocol in PROTOCOLS:
        for fault in leader_faults:
            runs.append((["run", "--protocol", protocol, "--leader-fault", fault], 0))
    lossy = ["run", "-k", "2", "--blocks", "4"]
    for kind in IMPAIRMENT_KINDS:
        runs.append((lossy + ["--impair", f"{kind}:0.2"], 0))
        runs.append((lossy + ["--impair", f"{kind}:0.2:1:20", "--impair", "retries:2"], 0))
    runs.append((lossy + ["--impair", "ble"], 0))
    runs.append((lossy + ["--impair", "ble:1:20", "--impair", "retries:0"], 0))
    paced = ["run", "--block-interval", "1.0", "--txpool-limit", "4"]
    runs.append((paced + ["--workload", "closed-loop"], 0))
    runs.append((paced + ["--workload", "open-loop:2.0:2:6"], 0))
    runs.append((paced + ["--workload", f"trace:{trace}"], 0))
    runs.append((["run", "--spec", str(ROOT / "examples" / "windowed_faults_spec.json")], 0))
    runs.append((["run", "--spec", str(full_spec)], 0))
    # A few sweeps cover every name on every axis.  The full product is
    # 7,200 cells, 6,228 runnable, and takes 6.5 minutes untraced.
    runs.append((["matrix", "--faults", *FAULT_LIBRARY,
                  "--dump-specs", str(scratch / "specs.json")], 0))
    runs.append((["matrix", "--media", *MEDIA, "--topologies", *TOPOLOGIES], 0))
    runs.append((["matrix", "--workloads", *WORKLOAD_LIBRARY, "--block-interval", "2.0"], 0))
    runs.append((["matrix", "--impairments", *IMPAIRMENT_LIBRARY], 0))
    # A cell that forks mid-run is a failed cell in the report, not a traceback.
    runs.append((["matrix", "--protocols", "eesmr", "--faults", "equivocate+drop-window",
                  "--workloads", "open-loop", "--media", "wifi",
                  "--impairments", "ble-calibrated"], 1))
    for name in sorted(EXPERIMENTS):
        runs.append((["experiment", name], 0))
    runs.append((["feasibility"], 0))
    # Seed 0 over every kind finds nothing; the campaign pin's partition
    # sweep finds two live defects, so --out writes their reproducers.
    runs.append((["fuzz", "--seed", "0", "--iterations", "20"], 0))
    runs.append((["fuzz", "--seed", "2", "--iterations", "8",
                  "--protocols", "sync-hotstuff", "optsync",
                  "--kinds", "PartitionWindow", "CrashRecoverWindow",
                  "--out", str(scratch / "corpus"), "--report", str(scratch / "report.json")], 1))
    runs.append((["analyze", str(PACKAGE)], 0))
    runs.append((["analyze", "--list-rules"], 0))
    # The planted detlint fixtures, so findings are rendered.
    fixtures = str(ROOT / "tests" / "analysis" / "fixtures")
    runs.append((["analyze", fixtures], 1))
    runs.append((["analyze", "--format", "json", fixtures], 1))
    # Malformed input is refused in one line: the cases CI checks, a bad
    # field nested inside a spec, and an adaptive budget f cannot cover.
    runs.append((["run", "--spec", str(bad_spec)], 2))
    runs.append((["run", "--spec", str(bad_nested)], 2))
    runs.append((["run", "--spec", str(under_provisioned)], 2))
    runs.append((["run", "-n", "4", "-f", "2", "-k", "2"], 2))
    runs.append((["matrix", "--faults", "bogus"], 2))
    runs.append((["fuzz", "--kinds", "Bogus", "--iterations", "1"], 2))
    runs.append((["run", "--workload", "open-loop"], 2))
    runs.append((["feasibility", "--max-nodes", "3"], 2))
    runs.append((["feasibility", "--payloads", "-5"], 2))
    return runs


def _callers_pass(scratch: Path) -> List[str]:
    import runpy

    import pytest

    failures = []
    if pytest.main(PYTEST_ARGS + ["benchmarks"]) != 0:
        failures.append("pytest benchmarks")
    for example in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(example), run_name="__main__")
    from bench.__main__ import main as bench_main
    from bench.calibrate import CalibrationError
    from bench.workloads import WORKLOADS

    for workload in WORKLOADS:
        argv = ["--workload", workload.name, "--seed", "0", "--seconds", "1", "--trace", "0"]
        try:
            status = bench_main(argv)
        except CalibrationError:
            # A timer verdict on a traced, busy host; every round has run.
            status = 0
        if status != 0:
            failures.append("python3 -m bench " + " ".join(argv))
    from repro.cli import main as repro_main

    for argv, expected in _cli_runs(scratch):
        status = repro_main(argv)
        if status != expected:
            failures.append(f"repro {' '.join(argv)} exited {status}, expected {expected}")
    from repro.analysis.engine import main as analysis_main

    if analysis_main([str(PACKAGE)]) != 0:
        failures.append("python -m repro.analysis src/repro")
    return failures


def _tests_pass(scratch: Path) -> List[str]:
    import pytest
    from hypothesis import settings

    # Tracing slows every example; a deadline would make the pass flaky.
    settings.register_profile("reach", deadline=None)
    settings.load_profile("reach")
    failures = []
    if pytest.main(PYTEST_ARGS) != 0:
        failures.append("tier-1")
    if pytest.main(PYTEST_ARGS + ["-m", "matrix or slow", "tests/testkit"]) != 0:
        failures.append("make test-matrix")
    return failures


PASSES = {"callers": _callers_pass, "tests": _tests_pass}


def _function_of(code, frame) -> Optional[FunctionType]:
    """The function object that runs ``code``: looked up by qualified name
    from the frame's globals, else found among the code's referrers."""
    parts = code.co_qualname.split(".")
    if "<locals>" not in parts:
        obj: Any = frame.f_globals.get(parts[0])
        for part in parts[1:]:
            obj = vars(obj).get(part) if hasattr(obj, "__dict__") else None
        for _ in range(4):
            if getattr(obj, "__code__", None) is code:
                return obj
            obj = getattr(obj, "__func__", None) or getattr(obj, "__wrapped__", None)
    for ref in gc.get_referrers(code):
        if isinstance(ref, FunctionType) and ref.__code__ is code:
            return ref
    return None


def _same(value: Any, default: Any) -> bool:
    if value is default:
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except Exception:
        return False


class OptionRecorder:
    """List 4's half of the callers-pass hook.

    For each watched function it resolves the defaults once, then marks per
    defaulted parameter whether a call passed the default and whether one
    passed anything else; a parameter that has seen both stops being looked
    at.  A generator's code is checked only on its first ``call`` event, not
    on each resume.
    """

    def __init__(self, functions: List[Function]):
        self.watch = {
            f.key: f for f in functions if f.defaulted and in_option_scope(f.path)
        }
        self.plans: Dict[Any, Any] = {}
        self.observed: Dict[str, List[bool]] = {}

    def _plan(self, code, frame) -> Optional[list]:
        path = os.path.relpath(os.path.abspath(code.co_filename), ROOT)
        function = self.watch.get((path, code.co_firstlineno, code.co_name))
        if function is None:
            return None
        live = _function_of(code, frame)
        if live is None:
            return None
        defaults = dict(live.__kwdefaults__ or {})
        positional = code.co_varnames[: code.co_argcount]
        defaults.update(zip(positional[len(positional) - len(live.__defaults__ or ()):],
                            live.__defaults__ or ()))
        entries = []
        for name in function.defaulted:
            flags = self.observed.setdefault(f"{function.allow_key}({name})", [False, False])
            entries.append((name, defaults[name], flags))
        return [frame.f_lasti, entries]

    def __call__(self, frame) -> None:
        code = frame.f_code
        try:
            plan = self.plans[code]
        except KeyError:
            plan = self.plans[code] = self._plan(code, frame)
        if not plan or not plan[1] or frame.f_lasti != plan[0]:
            return
        values = frame.f_locals
        pending = []
        for entry in plan[1]:
            name, default, flags = entry
            flags[0 if _same(values[name], default) else 1] = True
            if not (flags[0] and flags[1]):
                pending.append(entry)
        plan[1] = pending


def run_pass(name: str, out: Path) -> int:
    """Child side: run one pass under the hook, write the keys it reached
    and, for the callers pass, list 4's table of observed arguments."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.chdir(ROOT)
    seen: Set = set()
    add = seen.add
    options = OptionRecorder(inventory()) if name == "callers" else None

    if options is None:
        def hook(frame, event, arg):
            add(frame.f_code)
    else:
        def hook(frame, event, arg):
            add(frame.f_code)
            options(frame)

    with tempfile.TemporaryDirectory() as scratch:
        threading.settrace(hook)
        sys.settrace(hook)
        try:
            failures = PASSES[name](Path(scratch))
        finally:
            sys.settrace(None)
            threading.settrace(None)
    prefix = str(PACKAGE) + os.sep
    reached = sorted(
        {
            (os.path.relpath(path, ROOT), code.co_firstlineno, code.co_name)
            for code in seen
            for path in (os.path.abspath(code.co_filename),)
            if path.startswith(prefix)
        }
    )
    for failure in failures:
        print(f"reach: {name} pass: {failure}", file=sys.stderr)
    observed = options.observed if options is not None else {}
    out.write_text(json.dumps({"reached": reached, "failures": failures, "options": observed}))
    return 0


def traced(passes: Tuple[str, ...]) -> Tuple[Dict[str, Set[Key]], Dict[str, Tuple[bool, bool]]]:
    """Parent side: run each pass in its own child process, concurrently.

    Returns each pass's reached keys and the callers pass's list-4 table.
    A pass's output goes to a log that is shown only if the pass fails;
    then there is no report and the audit exits 2.
    """
    with tempfile.TemporaryDirectory() as work:
        started = time.perf_counter()
        children = {}
        for name in passes:
            with open(Path(work) / f"{name}.log", "w") as log:
                children[name] = subprocess.Popen(
                    [sys.executable, __file__, "--pass", name, str(Path(work) / f"{name}.json")],
                    cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                )
        results: Dict[str, Set[Key]] = {}
        options: Dict[str, Tuple[bool, bool]] = {}
        failed = []
        for name, child in children.items():
            status = child.wait()
            print(f"reach: {name} pass took {time.perf_counter() - started:.0f} s", file=sys.stderr)
            result = {"failures": [f"exited {status}"]}
            if status == 0:
                result = json.loads((Path(work) / f"{name}.json").read_text())
            if result["failures"]:
                tail = (Path(work) / f"{name}.log").read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                failed.extend(f"{name}: {failure}" for failure in result["failures"])
            else:
                results[name] = {tuple(key) for key in result["reached"]}
                options.update((key, tuple(flags)) for key, flags in result["options"].items())
        if failed:
            print("reach: a pass failed, no report:\n  " + "\n  ".join(failed), file=sys.stderr)
            raise SystemExit(2)
        return results, options


# --------------------------------------------------------------------- report
def read_allowlist(path: Path = ALLOWLIST) -> Dict[str, str]:
    allowed: Dict[str, str] = {}
    for number, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        key, _, reason = line.partition(" ")
        if not reason.strip():
            raise SystemExit(f"{path}:{number}: an allowlist line needs a reason")
        allowed[key] = reason.strip()
    return allowed


def report(
    reached: Dict[str, Set[Key]], options: Dict[str, Tuple[bool, bool]], allowed: Dict[str, str]
) -> Tuple[List[str], int]:
    """The report's lines and its number of findings."""
    functions = inventory()
    by_key = {f.allow_key: f for f in functions}
    live = [f for f in functions if not f.stub]
    callers, tests = reached["callers"], reached["tests"]
    sections = []
    for title, entries in (
        ("reached by no pass", [f for f in live if f.key not in callers and f.key not in tests]),
        ("reached only by the tests pass", [f for f in live if f.key in tests and f.key not in callers]),
    ):
        size = sum(f.last - f.first + 1 for f in entries)
        rows = [
            (f.allow_key, f"{f.path}:{f.first}  {f.qualname}  ({f.last - f.first + 1} lines)")
            for f in entries
        ]
        sections.append((f"{title}: {len(entries)} functions, {size} lines", rows))
    exports = unreferenced_exports()
    sections.append((
        f"__all__ names no module outside their package reads: {len(exports)}",
        [(key, key) for key in exports],
    ))
    verdicts = option_findings(options)
    rows = []
    for key, verdict in verdicts:
        function = by_key[key.partition("(")[0]]
        rows.append((key, f"{function.path}:{function.first}  {key.partition('::')[2]}  {verdict}"))
    sections.append((
        f"defaulted parameters with one kind of value in use: {len(verdicts)} "
        f"of {len(options)} the callers pass ran",
        rows,
    ))
    state = write_only_state()
    sections.append((
        f"attributes written and never read: {len(state)}",
        [(key, f"{key.partition('::')[0]}:{line}  {key.partition('::')[2]}") for key, line in state],
    ))
    lines = [
        f"reach: {len(functions)} functions in src/repro, "
        f"{len(functions) - len(live)} interface stubs not reported",
    ]
    matched: Set[str] = set()
    for number, (title, rows) in enumerate(sections, 1):
        lines.append(f"\n{number}. {title}")
        for key, text in rows:
            matched.add(key)
            lines.append(f"  {'allowed' if key in allowed else 'FINDING'}  {text}")
    stale = sorted(set(allowed) - matched)
    lines.append(f"\nallowlist lines that match nothing: {len(stale)}")
    lines.extend(f"  STALE  {key}" for key in stale)
    findings = len(matched - set(allowed)) + len(stale)
    lines.append(f"\nfindings: {findings}")
    return lines, findings


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python tools/reach.py", description=__doc__.split("\n")[0])
    parser.add_argument("--pass", dest="child", nargs=2, metavar=("NAME", "OUT"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return run_pass(args.child[0], Path(args.child[1]))
    lines, findings = report(*traced(tuple(PASSES)), read_allowlist())
    print("\n".join(lines))
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
