import hashlib
import math

import numpy as np
import pytest

from symbidisk import NumericsError, ValidationError
from symbidisk.serialize import (
    canonical_json,
    decode_complex,
    decode_matrix,
    decode_nodes,
    encode_complex,
    encode_matrix,
    encode_nodes,
    encode_report,
    report_hash,
)


def per_entry_matrix(m):
    """encode_matrix as one encode_complex per entry."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    entries = [encode_complex(z) for z in m.ravel()]
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}


@pytest.mark.parametrize(
    "case", ["strided", "transposed", "colligation-views", "signed-zeros", "subnormals", "1x1"]
)
def test_encode_matrix_text_equals_per_entry_encoding(case, rng):
    m = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    tiny = 5e-324
    mats = {
        "strided": [m[::2, 1::3]],
        "transposed": [m.T, m.conj().T],
        "colligation-views": [m[0:2, 0:2], m[0:2, 2:], m[2:, 0:2], m[2:, 2:]],
        "signed-zeros": [
            np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.0]])
        ],
        "subnormals": [np.array([[tiny, -tiny * 1j], [2.2e-308 * 0.5, complex(-tiny, tiny)]])],
        "1x1": [np.array([[1.5 - 0.0j]]), np.array([0.25j]), complex(-0.0, 3.0)],
    }[case]
    for a in mats:
        assert canonical_json(encode_matrix(a)) == canonical_json(per_entry_matrix(a))
    if case == "signed-zeros":
        assert canonical_json(encode_matrix(mats[0])).count("-0.0") == 4


def test_complex_round_trip():
    z = 0.123456789012345 - 2.5j
    assert decode_complex(encode_complex(z)) == z
    with pytest.raises(ValidationError):
        decode_complex([1.0])


def test_matrix_round_trip(rng):
    m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    back = decode_matrix(encode_matrix(m))
    assert np.array_equal(back, m)
    with pytest.raises(ValidationError):
        decode_matrix({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def test_nodes_round_trip(diagonal_pair):
    back = decode_nodes(encode_nodes(diagonal_pair))
    assert back == diagonal_pair


def test_report_hash_ignores_volatile_fields():
    a = {"status": "Feasible", "wall_time": 0.5, "timings": {"total": 1.0}, "x": 1}
    b = {"status": "Feasible", "wall_time": 9.9, "timings": {"total": 7.0}, "x": 1}
    c = {"status": "Feasible", "wall_time": 0.5, "timings": {"total": 1.0}, "x": 2}
    assert report_hash(a) == report_hash(b)
    assert report_hash(a) != report_hash(c)


def test_report_hash_strips_only_top_level_keys():
    a = {"status": "Feasible", "solve": {"timings": 0.5, "x": 1}}
    b = {"status": "Feasible", "solve": {"timings": 9.9, "x": 1}}
    assert report_hash(a) != report_hash(b)
    assert report_hash({**a, "report_hash": "0" * 64}) == report_hash(a)


def test_canonical_json_is_sorted_and_compact():
    text = canonical_json({"b": 1, "a": [1.5, 2.25]})
    assert text == '{"a":[1.5,2.25],"b":1}'


def test_encode_report_joins_the_canonical_text():
    report = {
        "status": "Feasible",
        "problem": {"b": [0.1, 2.5e-300], "a": "\u00e9"},
        "timings": {"total": 0.25},
        "wall_time": 1.0,
        "report_hash": "0" * 64,
    }
    # the hash and the text as one canonical_json of the whole object each
    kept = {"status": report["status"], "problem": report["problem"]}
    digest, text = encode_report(report)
    assert digest == hashlib.sha256(canonical_json(kept).encode()).hexdigest()
    assert text == canonical_json({**report, "report_hash": digest})
    digest, text = encode_report({})
    assert digest == hashlib.sha256(b"{}").hexdigest()
    assert text == canonical_json({"report_hash": digest})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_canonical_json_rejects_non_finite_numbers(value):
    with pytest.raises(NumericsError, match="cannot encode"):
        canonical_json({"solve": {"residual": value}})
