import hashlib
import os
import re
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools"))

import block_scan  # noqa: E402

ROW = re.compile(r"(\d+) (diagonal|random|planted|vectors) n=([234]) d=([23]) (\w+) (\d+)")


def test_scan_of_eight_targets(monkeypatch, capsys):
    assert block_scan.main(["--targets", "8"]) == 0
    out = capsys.readouterr().out.splitlines()
    rows = [ROW.fullmatch(line) for line in out[:8]]
    assert all(rows)
    assert [int(m[1]) for m in rows] == list(range(8))
    assert [m[2] for m in rows] == list(block_scan.GENERATORS) * 2
    # planted targets are infeasible by construction
    assert all(m[5] == "INFEASIBLE_CERTIFIED" for m in rows if m[2] in ("planted", "vectors"))
    verdicts = sorted({m[5] for m in rows})
    counts = " ".join(f"{v}={sum(m[5] == v for m in rows)}" for v in verdicts)
    later = sum(m[5] == "INFEASIBLE_CERTIFIED" and int(m[6]) > 0 for m in rows)
    # the first 16 hex digits of the sha256 of the per-target lines
    digest = hashlib.sha256("".join(f"{line}\n" for line in out[:8]).encode()).hexdigest()[:16]
    assert out[8:] == [
        "targets: 8",
        f"verdicts: {counts}",
        f"certified after iteration 0: {later}",
        f"iterations: {sum(int(m[6]) for m in rows)}",
        "certificates failing certificate_holds: 0",
        f"digest {digest}",
    ]

    # a certificate that fails its check fails the scan
    monkeypatch.setattr(block_scan.conftest, "certificate_holds", lambda *args: False)
    assert block_scan.main(["--targets", "4"]) == 1
    assert capsys.readouterr().out.splitlines()[-2] != "certificates failing certificate_holds: 0"
