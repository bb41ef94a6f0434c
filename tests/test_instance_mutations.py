"""Every command on odd instance files ends in an exit code.

Two sources of documents.  The shipped fixtures, and a builder-written
graph (the one kind no fixture holds), are mutated the ways hand-written
files go wrong: a key dropped, a value of another type, an index written
as a float, a number written as a string, a nested list reshaped.  And
documents are built from the instance table itself: every payload key with
entries of its type and shape, small indices and sizes, which the
constructors' range and topology checks must sort out.  Each document runs
in process through `validate` and every command that reads its kind.  No
exception may escape `cli.main`, every exit code is 0, 1 or 2, and a
command exits 2 (malformed input) exactly when `validate` flags the
document.  Derandomized, the two runs take about 4 s and 3 s on a 2-core
machine.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from catmin.cli import main
from catmin.instances import _INT, _KINDS, fixture_path, graph_instance, instance_to_json
from catmin.saddle import hexagon_graph

FIXTURES = ["hexagon", "cone_5pi2", "cone_3pi2", "cone_five_equilateral", "saddle_patch"]
BASES = [json.loads(fixture_path(f"{name}.json").read_text(encoding="utf-8")) for name in FIXTURES]
BASES.append(json.loads(instance_to_json(graph_instance(hexagon_graph()))))

# the commands that read each kind, with flags that keep each run short
COMMANDS = {
    "mapped_disc": [["metrics"], ["key-lemma", "--sample", "0", "2", "4", "6"],
                    ["check-saddle", "--planes", "10"], ["shorten"]],
    "graph": [["minimize-graph"], ["build-disc"]],
    "polyhedral_disc": [["check-cat0", "--nets"]],
    "patch": [["solve-fields"], ["perturb", "--trials", "3"]],
}

OTHER_VALUES = ["abc", None, True, {}, [], 0.5, -1, 10**30]


def _mutated(data, node):
    """``node`` changed one way, or None when the way drawn drops it."""
    way = data.draw(st.sampled_from(["drop", "retype", "float", "string", "wrap", "unwrap", "truncate", "flatten"]))
    if way == "drop":
        return None
    if way == "retype":
        return data.draw(st.sampled_from(OTHER_VALUES))
    if way == "float" and type(node) is int:
        return node + data.draw(st.sampled_from([0.0, 0.5]))
    if way == "string" and type(node) in (int, float):
        return str(node)
    if way == "wrap":
        return [node]
    if type(node) is list and node:
        if way == "unwrap":
            return node[0]
        if way == "truncate":
            return node[:-1]
        if way == "flatten" and all(type(v) is list for v in node):
            return [x for v in node for x in v]
    return node


def _mutate(data, doc):
    """``doc`` with one node, found by walking down from the root, mutated."""
    parent, key, node = None, None, doc
    while type(node) in (dict, list) and node and data.draw(st.booleans()):
        keys = sorted(node) if type(node) is dict else range(len(node))
        parent, key = node, data.draw(st.sampled_from(keys))
        node = node[key]
    new = _mutated(data, node)
    if parent is None:
        return doc if new is None else new
    if new is None:
        del parent[key]
    else:
        parent[key] = new
    return doc


def _entries(data, elem, sizes):
    """A nested list of the given sizes (None: 0 to 4) with small entries of type ``elem``."""
    if not sizes:
        return data.draw(st.integers(-1, 6) if elem == _INT else st.floats(-2, 2))
    if isinstance(elem, tuple):
        return [_entries(data, e, ()) for e in elem]
    n = data.draw(st.integers(0, 4)) if sizes[0] is None else sizes[0]
    return [_entries(data, elem, sizes[1:]) for _ in range(n)]


def _exit_codes_agree(doc, kind):
    """Run validate and the kind's commands on ``doc``; check their exit codes."""
    with tempfile.TemporaryDirectory() as tmp:
        path, checked, out = (Path(tmp) / name for name in ("doc.json", "validate.json", "out.json"))
        path.write_text(json.dumps(doc), encoding="utf-8")
        flagged = main(["validate", "--in", str(path), "--out", str(checked)])
        assert flagged in (0, 1)
        for command, *flags in COMMANDS[kind]:
            code = main([command, "--in", str(path), "--out", str(out), *flags])
            assert code in (0, 1, 2), command
            assert (code == 2) == bool(flagged), (command, json.loads(checked.read_text(encoding="utf-8")))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_every_command_ends_in_an_exit_code_on_mutated_instances(data):
    base = data.draw(st.sampled_from(BASES))
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    _exit_codes_agree(doc, base["kind"])


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_every_command_ends_in_an_exit_code_on_documents_built_from_the_table(data):
    kind = data.draw(st.sampled_from(sorted(_KINDS)))
    _, has_target, fields, _ = _KINDS[kind]
    payload = {}
    for key, field in fields.items():
        # rows of one length, unless ragged
        rows = tuple(data.draw(st.integers(1, 4)) if size is None and not field.ragged else size
                     for size in field.shape[1:])
        payload[key] = (data.draw(st.integers(0, 8)) if not field.shape else
                        [_entries(data, field.elem, rows) for _ in range(data.draw(st.integers(0, 7)))])
    doc = {"format_version": 1, "kind": kind, "payload": payload}
    if has_target:
        doc["target"] = {"type": "euclidean", "dimension": data.draw(st.integers(1, 3))}
    _exit_codes_agree(doc, kind)
