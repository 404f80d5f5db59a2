"""JSON encoding of problems, reports, and numerical artifacts.

Complex numbers serialize as [re, im] pairs in every external format;
matrices are row-major entry lists with explicit shape; kernels follow the
``{nodes, block, entries}`` layout, with ``block`` always 1: a kernel is n x n
on its n nodes.  Reports are plain dicts so they can be
hashed canonically: ``canonical_json`` sorts keys and keeps the default
shortest round-trip float text, and ``report_hash`` drops the top-level
wall-clock fields (the one part of a report that legitimately differs between
identical runs).  Report files hold the same compact text, written by the C
encoder.  ``encode_report`` encodes each top-level member once and joins
those texts into both the hashed text and the written one, which are the
bytes ``canonical_json`` gives for the kept members and for the whole report.
A report holding a non-finite number cannot be written as JSON:
``canonical_json`` raises NumericsError for it.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np

from .errors import NumericsError, ValidationError
from .feasibility import CPBlocks, SolveReport
from .geometry import MembershipReport
from .kernels import AlphaGrid, KernelMatrix, NodeSet
from .realization import Colligation

FORMAT_VERSION = 1
VOLATILE_KEYS = ("wall_time", "timings", "report_hash")
# json.dumps with options builds an encoder per call; this one is built once.
# encode keeps no state between calls, so threads may share it.  Reports are
# trees of fresh dicts and lists, so no circular-reference check is needed.
_CANONICAL = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), allow_nan=False, check_circular=False
)


def encode_complex(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def read_number(value, field: str, integral: bool = False):
    """``value`` of the numeric input field ``field``: a float, or an int when ``integral``.

    Only JSON numbers are numbers: a string or a bool is an input error, and
    an integer field takes only integral values.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"field '{field}' must be a number, got {value!r}")
    if not integral:
        return float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValidationError(f"field '{field}' must be an integer, got {value!r}")
    return int(value)


def decode_complex(v, field: str) -> complex:
    """A complex value ``[re, im]`` of the input field ``field``."""
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        raise ValidationError(f"field '{field}' takes complex values as [re, im], got {v!r}")
    return complex(read_number(v[0], field), read_number(v[1], field))


def encode_matrix(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": _entries(m)}


def _entries(m: np.ndarray) -> list[list[float]]:
    """[re, im] of every entry of the complex array ``m``, row-major: encode_complex's pairs."""
    return np.ascontiguousarray(m, dtype=complex).reshape(-1).view(float).reshape(-1, 2).tolist()


def encode_nodes(nodes: NodeSet) -> list[list[float]]:
    return [[q.s.real, q.s.imag, q.p.real, q.p.imag] for q in nodes.points]


def decode_point_rows(obj, field: str) -> list[tuple[complex, complex]]:
    """(s, p) pairs of the input field ``field``, rows [s_re, s_im, p_re, p_im] (nodes, atoms)."""
    layout = "[s_re, s_im, p_re, p_im]"
    if not isinstance(obj, (list, tuple)):
        got = type(obj).__name__
        raise ValidationError(f"field '{field}' must be a list of {layout} rows, got {got}")
    pairs = []
    for row in obj:
        if not isinstance(row, (list, tuple)) or len(row) != 4:
            raise ValidationError(f"each row of field '{field}' must be {layout}")
        pairs.append((decode_complex(row[0:2], field), decode_complex(row[2:4], field)))
    return pairs


def decode_nodes(obj, field: str) -> NodeSet:
    return NodeSet.from_pairs(decode_point_rows(obj, field))


def encode_grid(grid: AlphaGrid) -> dict:
    return {"kind": "explicit", "alphas": _entries(grid.alphas)}


def encode_kernel(kernel: KernelMatrix) -> dict:
    return {
        "nodes": encode_nodes(kernel.nodes),
        "block": 1,  # kept so that every certificate report keeps its bytes
        "entries": _entries(kernel.matrix),
    }


def encode_blocks(blocks: CPBlocks) -> dict:
    return {
        "grid": encode_grid(blocks.grid),
        "blocks": [encode_matrix(b) for b in blocks.blocks],
    }


def encode_colligation(col: Colligation) -> dict:
    return {
        "a": encode_matrix(col.a),
        "b": encode_matrix(col.b),
        "c": encode_matrix(col.c),
        "d": encode_matrix(col.d),
        "alphas": _entries(col.alphas),
        "multiplicities": list(col.multiplicities),
        "out_dim": col.out_dim,
        "in_dim": col.in_dim,
    }


def encode_solve_report(report: SolveReport) -> dict:
    out: dict[str, Any] = {
        "status": report.status.value,
        "residual": report.residual,
        "iterations": report.iterations,
        "notes": list(report.notes),
    }
    if report.blocks is not None:
        out["blocks"] = encode_blocks(report.blocks)
    if report.certificate is not None:
        out["certificate"] = encode_kernel(report.certificate)
        out["certificate_min_eig"] = report.certificate_min_eig
    return out


def encode_membership(report: MembershipReport) -> dict:
    """Membership report as JSON; an unbounded sup is written as ``null``."""
    return {
        "is_member": report.is_member,
        "sup_modulus": report.sup_modulus if math.isfinite(report.sup_modulus) else None,
        "argmax_alpha": encode_complex(report.argmax_alpha),
        "tolerance": report.tolerance,
        "is_boundary": report.is_boundary,
        "reason": report.reason,
    }


def canonical_json(obj) -> str:
    """Sorted, compact JSON text; NumericsError when ``obj`` holds a non-finite number."""
    try:
        return _CANONICAL.encode(obj)
    except ValueError as exc:
        raise NumericsError(f"report holds a number JSON cannot encode: {exc}") from None


def _joined(members: dict[str, str]) -> str:
    """canonical_json of an object, from the canonical texts of its members."""
    return "{" + ",".join(f"{_CANONICAL.encode(k)}:{members[k]}" for k in sorted(members)) + "}"


def report_hash(report: dict) -> str:
    """sha256 of the canonical report text without its top-level volatile keys."""
    return encode_report(report)[0]


def encode_report(report: dict) -> tuple[str, str]:
    """(report_hash, text): the hash of ``report``, and the canonical text of it with that hash.

    Each top-level member is encoded once; a ``report_hash`` member already
    in ``report`` is replaced.
    """
    members = {k: canonical_json(v) for k, v in report.items() if k != "report_hash"}
    kept = {k: v for k, v in members.items() if k not in VOLATILE_KEYS}
    digest = hashlib.sha256(_joined(kept).encode()).hexdigest()
    members["report_hash"] = _CANONICAL.encode(digest)
    return digest, _joined(members)
