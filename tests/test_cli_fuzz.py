"""Fuzzed exit-code contract of the JSON and CSV readers.

Valid JSON and CSV systems, a small verify config and ``gen-ons`` specs are
corrupted by hypothesis (huge integers and indices, NaN tokens, oversized
CSV fields, wrong nesting, booleans and strings, missing keys, ragged rows,
100,000 nested lists) and read by ``majorant``, ``verify`` and ``gen-ons`` through
``cli.main`` in-process.  Whatever the file holds, the command exits 0, 1 or
2 and raises nothing; exit 2 writes one ``error:`` line and no output file,
exits 0 and 1 write strict JSON.  The hypothesis profile in conftest.py
derandomizes them.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoseries.cli import main

SYSTEMS = [
    {"schema_version": 1, "field": "real", "weights": [0.5, 0.5], "dims": [1, 2],
     "elements": [[[1.0], [0.0, 0.0]], [[0.0], [1.0, 0.5]]]},
    {"schema_version": 1, "field": "complex", "weights": [1.0, 0.25], "dims": [1, 1],
     "elements": [[[[1.0, 0.0]], [[0.0, 0.0]]], [[[0.0, 0.0]], [[0.0, 2.0]]]]},
]
# Haar n=8 and one trial, every key given, so that no deletion makes much work
CONFIG = {"systems": [{"kind": "haar", "n": 8, "resolution": 8, "fiber_dim": 1, "seed": 3,
                       "field": "real"}],
          "n_trials": 1, "seed": 1, "checks": ["mr-inequality", "tandori-block", "orlicz-chain"],
          "coefficients": {"form": "explicit", "values": [1.0, -0.5, 0.25]},
          "weights": {"form": "log-power", "gamma": 1.5, "shift": 0.0},
          "truncation": 64, "exhaustive_n": 4, "shuffle_plans": 1, "riesz_condition": 4.0}
SPECS = [{"kind": "haar", "n": 4, "resolution": 4, "fiber_dim": 1, "seed": 7, "field": "real"},
         {"kind": "random-qr", "n": 3, "resolution": 4, "fiber_dim": 2, "seed": 7,
          "field": "complex"}]
# nothing refuses a huge trial or plan count before the work starts, so
# these keys take no substitute above this
SMALL_COUNT = {"n_trials": 3, "shuffle_plans": 3}
CSV_SYSTEMS = [
    "element,atom,weight,v0,v1\n0,0,0.5,1.0,\n0,1,0.5,0.0,0.0\n1,0,0.5,0.0,\n1,1,0.5,1.0,0.5\n",
    "element,atom,weight,re0,im0\n0,0,1.0,1.0,0.0\n0,1,0.25,0.0,0.0\n"
    "1,0,1.0,0.0,0.0\n1,1,0.25,0.0,2.0\n",
]

# what a JSON value may become: integers past float64 and int64, indices
# past any affordable size, NaN and infinities, booleans, strings, null and
# nesting of the wrong depth
JSON_SUBSTITUTES = [10 ** 400, -10 ** 400, 10 ** 12, 2 ** 63, 2 ** 64, -1, 0, 1.5, float("nan"),
                    float("inf"), True, False, "1.0", "", None, [], {}, [[1.0]], [1.0, 0.0]]
# a field over csv.reader's 131,072-character limit among them
CSV_SUBSTITUTES = ["1000000000000", str(10 ** 400), "-1", "0", "1", "1.5", "nan", "NaN", "inf",
                   "-inf", "1e400", "", "true", "x", "1,0", "1" * 200_000]


MAJORANT = ["majorant", "--coeffs", "1,-1", "--system"]
# the command that reads each kind of JSON document, its path last
READERS = [(system, MAJORANT) for system in SYSTEMS] + [(CONFIG, ["verify", "--config"])] + [
    (spec, ["gen-ons", "--spec"]) for spec in SPECS]
DEEP = "[" * 100_000 + "]" * 100_000


def _run(name: str, text: str, argv=MAJORANT) -> None:
    """``argv`` on the file ``name`` holding ``text``, held to the contract."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, name), os.path.join(tmp, "out.json")
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv + [path, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not os.path.exists(out)
        else:
            with open(out) as fh:
                json.loads(fh.read(), parse_constant=_refuse)


def _refuse(token):
    raise ValueError(f"non-strict JSON token {token}")


def _paths(value, path=()):
    """The path of every node of a JSON value, the root first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield from _paths(child, path + (key,))


def _corrupt(value, path, how, substitute):
    """A copy of ``value`` whose node at ``path`` is replaced by ``substitute``,
    deleted, wrapped in a list, unwrapped from its list or repeated."""
    value = copy.deepcopy(value)
    if not path:
        return [value] if how == "wrap" else substitute
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if how == "delete":
        del parent[key]
    elif how == "wrap":
        parent[key] = [node]
    elif how == "unwrap" and isinstance(node, list) and node:
        parent[key] = node[0]
    elif how == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(node))
    else:
        parent[key] = substitute
    return value


edits = st.lists(st.tuples(st.integers(0, 1 << 16),
                           st.sampled_from(["replace", "delete", "wrap", "unwrap", "repeat"]),
                           st.sampled_from(JSON_SUBSTITUTES)), min_size=1, max_size=3)


def _corrupted(value, changes):
    for pick, how, substitute in changes:
        paths = list(_paths(value))
        path = paths[pick % len(paths)]
        if path and path[-1] in SMALL_COUNT and type(substitute) is int:
            substitute = min(substitute, SMALL_COUNT[path[-1]])
        value = _corrupt(value, path, how, substitute)
    return value


@settings(max_examples=150)
@given(st.sampled_from(SYSTEMS), edits)
def test_corrupted_json_system_keeps_the_exit_contract(system, changes):
    _run("system.json", json.dumps(_corrupted(system, changes)))


@settings(max_examples=150)
@given(edits)
def test_corrupted_verify_config_keeps_the_exit_contract(changes):
    _run("config.json", json.dumps(_corrupted(CONFIG, changes)), ["verify", "--config"])


@settings(max_examples=100)
@given(st.sampled_from(SPECS), edits)
def test_corrupted_gen_ons_spec_keeps_the_exit_contract(spec, changes):
    _run("spec.json", json.dumps(_corrupted(spec, changes)), ["gen-ons", "--spec"])


@pytest.mark.parametrize("document,argv", READERS,
                         ids=["system", "complex-system", "config", "spec", "complex-spec"])
def test_deeply_nested_json_keeps_the_exit_contract(document, argv):
    # the whole file, then each value in turn, as 100,000 nested lists: built
    # as text, since json.dumps of such a list recurses as deep
    mark = "deeply nested"
    for path in _paths(document):
        text = json.dumps(_corrupt(document, path, "replace", mark))
        _run("deep.json", text.replace(json.dumps(mark), DEEP), argv)


cell_edits = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 1 << 16),
                                st.sampled_from(["replace", "delete", "add", "drop-row",
                                                 "repeat-row"]),
                                st.sampled_from(CSV_SUBSTITUTES)), min_size=1, max_size=3)


@settings(max_examples=150)
@given(st.sampled_from(CSV_SYSTEMS), cell_edits)
def test_corrupted_csv_system_keeps_the_exit_contract(text, changes):
    rows = [line.split(",") for line in text.splitlines()]
    for r, c, how, substitute in changes:
        row = rows[r % len(rows)]
        if how == "drop-row":
            rows.remove(row)
        elif how == "repeat-row":
            rows.insert(r % len(rows), list(row))
        elif how == "add":
            row.insert(c % (len(row) + 1), substitute)
        elif row and how == "delete":
            del row[c % len(row)]
        elif row:
            row[c % len(row)] = substitute
        if not rows:
            break
    _run("system.csv", "".join(",".join(row) + "\n" for row in rows))
