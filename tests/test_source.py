"""Checks on the library source itself."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ringforge"


# python -O strips assert statements, so an invariant that guards a result
# must raise a real exception instead
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


# a name dropped from a module must not stay behind in its __all__
def test_all_names_exist():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"ringforge.{path.stem}"
                                         if path.stem != "__init__" else "ringforge")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{path.name} exports missing names {missing}"


# a limit's error names the module attribute that changes it
# ("change it with ringforge.gl.ENUM_LIMIT"); that attribute must exist
def test_knobs_named_in_errors_exist():
    named = set()
    for path in sorted(SRC.glob("*.py")):
        named.update(re.findall(r"change it with ringforge\.(\w+)\.(\w+)",
                                path.read_text()))
    # one limit per resource; adding or dropping one is a declared change
    assert named == {("classify", "_GROUND_BYTES"), ("gl", "ENUM_LIMIT"),
                     ("rings", "_TABLE_LIMIT"), ("rings", "_EXHAUSTIVE_TRIPLES")}
    for module, attr in sorted(named):
        assert hasattr(importlib.import_module(f"ringforge.{module}"), attr), \
            f"ringforge.{module}.{attr}"
    # and no limit is read from the environment
    readers = [p.name for p in sorted(SRC.glob("*.py"))
               if re.search(r"\benviron\b|\bgetenv\b", p.read_text())]
    assert readers == []


# numpy is the only dependency; importing scipy cost most of the set-up
# time of every run
def test_import_loads_no_scipy():
    code = ("import sys, ringforge; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


# under python -O the invariants that guard results still raise; pytest's
# own asserts are stripped there, so the check runs in a subprocess
def test_invariants_raise_under_O():
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from ringforge import GF, classify, matspace, rings
        print(sys.flags.optimize)

        def uncertified_witness():
            rings.verify_witness = lambda *args, **kwargs: False
            a = rings.RingSpec(GF(3), 1, 1, 0, np.ones((1, 1, 1), dtype=np.int64),
                               (0,), (0,))
            rings.iso_test(a, a)

        calls = [
            lambda: classify._canon_rows(GF(3), np.zeros((1, 2, 4), dtype=np.int64), 2),
            lambda: classify._ground_index(np.array([1, 3, 5]), np.array([3, 4])),
            lambda: matspace._check_rep_count([0, 1], 3),
            lambda: rings._f_dim(GF(2, 2), np.eye(3, dtype=np.int64), "M^2"),
            uncertified_witness,
        ]
        for call in calls:
            try:
                call()
            except Exception as exc:
                print(f"{type(exc).__name__}: {exc}")
            else:
                print("no exception")
    """)
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == [
        "1",
        "RuntimeError: orbit image lost rank: expected 2, got 0",
        "RuntimeError: orbit image left the ground set",
        "RuntimeError: built 2 representatives, expected 3",
        "RuntimeError: Z_2-rank 3 of M^2 is not a multiple of r=2",
        "RuntimeError: the orbit transporter gives no certified witness",
    ]
