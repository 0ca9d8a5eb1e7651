import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svsa.artifacts import finite, write_json


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
DOCUMENTS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=30)


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
            write_json(tmp_path / "bad.json", {"a": math.nan})
