"""The reachability audit's option and state lists, checked without a trace.

``tools/reach.py`` runs its passes as traced child processes (``make
reach``, about two minutes); these tests feed lists 4 and 5 synthetic
input instead, so a broken classifier or scanner fails tier-1 quickly.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)


# ------------------------------------------------------------ list 4: options
def test_option_classifier_reports_one_kind_of_value():
    observed = {
        "src/repro/m.py::f(constant)": (True, False),
        "src/repro/m.py::f(required)": (False, True),
        "src/repro/m.py::f(option)": (True, True),
    }
    assert reach.option_findings(observed) == [
        ("src/repro/m.py::f(constant)", "only ever received its default"),
        ("src/repro/m.py::f(required)", "never received its default"),
    ]


def probe(recorder, a, b=None, c=(), d=1.0):
    recorder(sys._getframe())


def test_option_recorder_compares_by_identity_then_type_and_equality():
    code = probe.__code__
    function = reach.Function(
        Path(__file__).relative_to(ROOT).as_posix(), "probe",
        code.co_firstlineno, code.co_firstlineno + 1, False, ("b", "c", "d"),
    )
    recorder = reach.OptionRecorder([function])
    probe(recorder, 0)
    probe(recorder, 0, b=None, c=())  # the defaults themselves, passed explicitly
    probe(recorder, 0, d=1)  # equal, but an int is not the float default
    assert {key.partition("::")[2]: flags for key, flags in recorder.observed.items()} == {
        "probe(b)": [True, False],
        "probe(c)": [True, False],
        "probe(d)": [True, True],
    }


def test_defaulted_parameters_come_from_the_signature():
    tree = ast.parse("def f(a, b=1, *args, c, d=None, **kw): pass")
    assert reach._defaulted(tree.body[0].args) == ("b", "d")


# ---------------------------------------------------------- list 5: state
MODULE = textwrap.dedent(
    '''
    from dataclasses import dataclass

    @dataclass
    class Record:
        kept: int
        unread: int

    class Log:
        limit = 8

        def __init__(self):
            self.entries = []
            self.index = {}
            self.cache = {}
            self.count = 0

        def add(self, entry):
            self.entries.append(entry)
            self.index[entry] = entry
            self.count += 1
            bucket = self.cache.setdefault(entry, [])
            return bucket

    def reader(record, log):
        return record.kept, log.limit
    '''
)


def test_write_only_scanner_reports_fields_nothing_reads():
    tree = ast.parse(MODULE)
    loaded = reach.loaded_attributes(tree)
    written = {(cls, attr) for cls, attr, _ in reach.written_attributes(tree)}
    assert written == {
        ("Record", "kept"), ("Record", "unread"), ("Log", "limit"),
        ("Log", "entries"), ("Log", "index"), ("Log", "cache"), ("Log", "count"),
    }
    unread = sorted(f"{cls}.{attr}" for cls, attr in written if attr not in loaded)
    # A discarded .append and a subscript store write; ``+=`` writes; a
    # setdefault whose result is used reads.
    assert unread == ["Log.count", "Log.entries", "Log.index", "Record.unread"]


def test_getattr_with_a_literal_name_is_a_read():
    tree = ast.parse("def f(x):\n    return getattr(x, 'hidden'), hasattr(x, 'flag')\n")
    assert {"hidden", "flag"} <= reach.loaded_attributes(tree)


def test_an_init_var_is_not_state():
    tree = ast.parse(
        "from dataclasses import InitVar, dataclass\n"
        "@dataclass\nclass S:\n    plan: InitVar[int] = None\n    kept: int = 0\n"
    )
    assert [attr for _, attr, _ in reach.written_attributes(tree)] == ["kept"]
