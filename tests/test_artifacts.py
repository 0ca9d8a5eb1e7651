import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.artifacts import _ROWS, finite, json_text, write_csv, write_json

from helpers import reference_csv, reference_json


def _tagged(node):
    """``node`` with each value tagged by its type and each float by its bits,
    so that -0.0, NaN, True and 1 all compare as themselves."""
    if isinstance(node, float):
        return ("float", type(node).__name__, float(node).hex())
    if isinstance(node, dict):
        return ("dict", [(k, _tagged(v)) for k, v in node.items()])
    if isinstance(node, list):
        return ("list", [_tagged(v) for v in node])
    return (type(node).__name__, node)


def _reference(node):
    """A new document with each non-finite float as None."""
    if isinstance(node, float):
        return node if math.isfinite(node) else None
    if isinstance(node, dict):
        return {k: _reference(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_reference(v) for v in node]
    return node


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=3),
                     st.floats(), st.floats().map(np.float64),
                     st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0]))


def _containers(inner):
    return st.one_of(st.lists(inner, max_size=4),
                     st.dictionaries(st.text(max_size=3), inner, max_size=4))


# Named functions, not lambdas over several lines: hypothesis reads a lambda's
# source to check that it recurses, and sometimes warns when it cannot.
DOCUMENTS = st.recursive(_SCALARS, _containers, max_leaves=30)


class TestFinite:
    @given(DOCUMENTS)
    @settings(max_examples=500)
    def test_nonfinite_floats_become_none_and_nothing_else_changes(self, doc):
        before = _tagged(doc)
        out = finite(doc)
        assert _tagged(out) == _tagged(_reference(doc))
        assert _tagged(doc) == before  # the input is not altered
        json.dumps(out, allow_nan=False)
        if _tagged(_reference(doc)) == before:
            assert out is doc  # a finite document is returned as it is

    def test_unchanged_containers_are_shared(self):
        probes = [[1.0], [-0.0]]
        doc = {"probes": probes, "gap": math.nan, "weights": [math.inf, 2.0]}
        out = finite(doc)
        assert out == {"probes": [[1.0], [-0.0]], "gap": None, "weights": [None, 2.0]}
        assert out["probes"] is probes and doc["gap"] is not None

    def test_write_json_refuses_a_nonfinite_float(self, tmp_path):
        write_json(tmp_path / "ok.json", finite({"b": [math.inf], "a": -0.0}))
        assert (tmp_path / "ok.json").read_text() == '{\n  "a": -0.0,\n  "b": [\n    null\n  ]\n}\n'
        with pytest.raises(ValueError):
            write_json(tmp_path / "bad.json", {"a": [1.0, 1.0, 1.0], "b": math.nan})
        assert not (tmp_path / "bad.json").exists()  # the text is made before the open
        before = (tmp_path / "ok.json").read_bytes()
        with pytest.raises(ValueError):
            write_json(tmp_path / "ok.json", {"a": [1.0, 1.0, 1.0], "b": math.nan})
        assert (tmp_path / "ok.json").read_bytes() == before


_CSV_VALUES = st.one_of(
    st.floats(), st.integers(-2 ** 70, 2 ** 70).map(float),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0 ** 53 + 2.0, 1e16]))
# Row counts on both sides of one and two blocks.
_CSV_ROWS = st.sampled_from([0, 1, 2, _ROWS - 1, _ROWS, _ROWS + 1, 2 * _ROWS - 1, 2 * _ROWS,
                             2 * _ROWS + 1])


class TestWriteCsv:
    @given(_CSV_ROWS, st.integers(1, 4), st.lists(_CSV_VALUES, min_size=1, max_size=12),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_bytes_are_those_of_savetxt(self, rows, cols, values, seed):
        # The table's entries are drawn from ``values``, so every one is met
        # on every side of a block boundary.
        data = np.random.default_rng(seed).choice(np.array(values), size=(rows, cols))
        columns = [f"c{k}" for k in range(data.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
            write_csv(ours, columns, data)
            reference_csv(theirs, columns, data)
            assert ours.read_bytes() == theirs.read_bytes()

    def test_special_values(self, tmp_path):
        data = np.array([[math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.0 ** 60, 0.1]])
        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d", "e", "f", "g"], data)
        assert (tmp_path / "t.csv").read_bytes() == (
            b"a,b,c,d,e,f,g\r\nnan,inf,-inf,-0,4.9406564584124654e-324,"
            b"1.152921504606847e+18,0.10000000000000001\r\n")


_STRINGS = st.one_of(st.text(max_size=4),
                     st.text(st.characters(exclude_categories=()), max_size=4),  # lone surrogates
                     st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\n\t", "\u00e9\u20ac\U0001f600",
                                      "\ud800", "a\udfffb"]))
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2 ** 64, 2 ** 80),
    st.integers(-2 ** 80, -2 ** 64), st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([-0.0, 0.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308]), _STRINGS)


def _json_containers(inner):
    return st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                     st.dictionaries(_STRINGS, inner, max_size=4))


JSON_DOCUMENTS = st.recursive(_JSON_SCALARS, _json_containers, max_leaves=40)
# Where a value is put into a document: a dict key (beside the document) or a list.
_PATHS = st.lists(st.tuples(st.booleans(), _STRINGS), max_size=4)


def _nest(doc, value, path):
    """``value`` at the end of ``path`` inside containers that also hold ``doc``."""
    for in_dict, key in path:
        value = {key: value, key + "~": doc} if in_dict else [doc, value]
    return value


class TestJsonText:
    @given(JSON_DOCUMENTS)
    @settings(max_examples=500, deadline=None)
    def test_text_is_that_of_json_dump(self, doc):
        assert "".join(json_text(doc)) == reference_json(doc)

    def test_a_long_document_is_joined_in_chunks(self, tmp_path):
        doc = {"cells": [{"cell": [k, -k], "mass": k / 7} for k in range(3000)], "e": {}}
        text = json_text(doc)
        assert len(text) > 1 and "".join(text) == reference_json(doc)
        write_json(tmp_path / "long.json", doc)
        assert (tmp_path / "long.json").read_bytes() == reference_json(doc).encode()

    @given(JSON_DOCUMENTS, st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
           _PATHS)
    @settings(max_examples=200, deadline=None)
    def test_a_nested_nonfinite_float_raises_value_error(self, doc, bad, path):
        nested = _nest(doc, bad, path)
        with pytest.raises(ValueError):
            reference_json(nested)
        with pytest.raises(ValueError):
            json_text(nested)

    @given(JSON_DOCUMENTS, st.sampled_from([np.int64(1), np.float32(1.0), np.bool_(True),
                                            {1: 2.0}, {("a",): None}, {1.5}, b"x"]), _PATHS)
    @settings(max_examples=200, deadline=None)
    def test_other_types_and_keys_raise_type_error(self, doc, bad, path):
        with pytest.raises(TypeError):
            json_text(_nest(doc, bad, path))
