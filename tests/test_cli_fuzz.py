"""Hypothesis fuzzing of scenario documents and argv through the command line.

Each example takes one of the bundled scenarios, shrunk to a small grid
and total time, replaces some of its fields or inserts new ones with
hostile values -- NaN, an infinity, a boolean, a string, an empty or ragged
list, a zero or negative number, an unknown key -- and runs a subcommand
in-process under a wall-clock budget.  Up to two edits of the argv ahead of
its ``--out`` and ``--jobs`` flags -- a token dropped, replaced or inserted:
a bad number, an unknown or dangling flag -- ride along.  Whatever the
input, the command must exit 0, 2 or 3, leave one JSON object on stderr
and raise no warning when it fails, and finish within the budget.
"""

import contextlib
import copy
import io
import json
import math
import signal
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from adiakit.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scripts" / "scenarios"
BUDGET_S = 5.0
VERBS = ("spectrum", "evolve", "check", "wu", "jordan", "consistency",
         "sweep")


def small(doc):
    """A bundled scenario cut to at most 41 grid points and T <= 50."""
    doc = dict(doc, grid_points=min(doc.get("grid_points", 201), 41),
               total_time=min(doc["total_time"], 50.0))
    if "T_grid" in doc:
        doc["T_grid"] = [T for T in doc["T_grid"] if T <= 50.0]
    return doc


BASES = [small(json.loads(path.read_text()))
         for path in sorted(SCENARIOS.glob("*.json"))]

HOSTILE = st.sampled_from([
    math.nan, math.inf, -math.inf, True, False, "", "x", [], [[]],
    [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], [1.0, [2.0]], {}, None,
    0, 0.0, -1, -2.5,
])
KEYS = st.sampled_from([
    "kind", "pipeline", "model", "name", "params", "dimension",
    "hamiltonian_terms", "lindblad_terms", "initial_state", "total_time",
    "T_grid", "grid_points", "tolerances", "rtol", "atol", "output",
    "format", "a", "delta", "b", "theta", "omega", "gamma", "h0",
    "omega_envelope", "gamma_envelope", "unknown",
])
# argv tokens: malformed and out-of-range values, unknown and dangling flags
TOKENS = st.sampled_from([
    "abc", "nan", "inf", "-1", "0", "1.5", "1001", "", "--bogus", "--T",
    "--grid", "--format", "--points", "--T-min",
])
EDITS = st.lists(st.tuples(st.sampled_from(("drop", "replace", "insert")),
                           st.integers(0, 15), TOKENS), max_size=2)


def paths(node, prefix=()):
    """Every location in a JSON document, the root excluded."""
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,), child
        yield from paths(child, prefix + (key,))


@st.composite
def documents(draw):
    """A bundled scenario with one to three fields replaced or inserted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):         # replace an existing field
            path, _ = draw(st.sampled_from(list(paths(doc))))
        else:                           # insert a field into an object
            parents = [()] + [p for p, node in paths(doc)
                              if isinstance(node, dict)]
            path = draw(st.sampled_from(parents)) + (draw(KEYS),)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = copy.deepcopy(draw(HOSTILE))
    return doc


def edited(argv, edits):
    """``argv`` after each (kind, position, token) edit in turn."""
    argv = list(argv)
    for kind, pos, token in edits:
        if kind == "insert":
            argv.insert(pos % (len(argv) + 1), token)
        elif argv and kind == "drop":
            del argv[pos % len(argv)]
        elif argv:
            argv[pos % len(argv)] = token
    return argv


class BudgetExceeded(BaseException):
    """Raised from the interval timer; not an Exception, so no handler in
    the command line can swallow it."""


def _expire(signum, frame):
    raise BudgetExceeded


@settings(max_examples=400, deadline=None, derandomize=True)
@given(doc=documents(), verb=st.sampled_from(VERBS), edits=EDITS)
def test_cli_contract_holds_for_mutated_scenarios(doc, verb, edits):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc))
        argv = [verb, str(path)]
        if verb == "sweep":
            argv += ["--T-min", "1", "--T-max", "20", "--points", "2"]
        # the edits never reach --out or --jobs, so the output stays in
        # tmp and --jobs stays valid
        argv = edited(argv, edits) + ["--out", str(Path(tmp) / "out")]
        if verb == "sweep":
            argv += ["--jobs", "1"]
        stderr = io.StringIO()
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
        try:
            with contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(argv)
        except BudgetExceeded:
            raise AssertionError(f"{verb} ran past {BUDGET_S} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3)
    if code:
        # a warning would reach stderr ahead of the error object
        assert not caught, [str(w.message) for w in caught]
        assert isinstance(json.loads(stderr.getvalue()), dict)
