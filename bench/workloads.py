"""Seeded inputs, timed items and output checks for the two workloads.

Each workload is built from ``--seed`` and its item count alone and hands
the program only the generated inputs: problem objects for ``sandwich``,
problem files for ``corpus``.  ``digest`` hashes the raw generated numbers
(or file bytes), so two commits can be shown to have run identical work.

An item's check runs outside the timed region and returns one of ``"ok"``,
``"failed"`` (raised, or ended Unknown where a verdict was planted) or
``"wrong"`` (an output that contradicts the plant or fails
re-verification).  Both of the last two count in ``failed_share``; only
``"wrong"`` makes the run incorrect.

``cpu_s_per_item`` is the nominal CPU time of one item on a 2-core Xeon VM;
the runner sizes a run from it, so the number of items, and with it every
count the run reports, depends on ``--seconds`` and not on the host's speed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

import symbidisk as sb
import symbidisk.cli  # binds sb.cli
import verify
from symbidisk import AlphaGrid, NodeSet, PickProblem, SolveOptions
from symbidisk.sequences import phase_pattern_family

# Program functions are called as attributes of the package (``sb.solve_pick``)
# so that the traced run, which rebinds those attributes, sees every call.

GRID = AlphaGrid.solver_default()
NORM_SLACK = 1e-8
NODE_TOL = 1e-7

# Iteration budget of the loop in the loop-bound corpus files.  Near the
# boundary the loop needs anywhere from tens to tens of thousands of
# iterations; at the default budget of 20000 one such problem costs as much
# as a hundred closed-form ones, and a run's throughput would follow how many
# of them its seed drew.  A problem that runs out of the
# budget ends Unknown and counts as failed.
LOOP_BUDGET = 2000


def _warmup_pick() -> PickProblem:
    """The fixed two-node problem every warm-up solves (minimal norm 1)."""
    return PickProblem(
        nodes=NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)]),
        targets=(np.array([[-0.5]]), np.array([[0.5]])),
    )


def _sample_disk(rng, count, rmax=0.99):
    r = rmax * np.sqrt(rng.random(count))
    th = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * th)


def _distinct_pairs(rng, n, rmax=0.85, min_sep=5e-2):
    """Node coordinates as in the acceptance criteria (symmetrized disk pairs)."""
    pts = []
    while len(pts) < n:
        z = _sample_disk(rng, 2, rmax)
        q = (z[0] + z[1], z[0] * z[1])
        if all(abs(q[0] - o[0]) + abs(q[1] - o[1]) > min_sep for o in pts):
            pts.append(q)
    return pts


def _grid_colligation(rng, state_dim, out_dim=1):
    """Random unitary colligation whose state sits on solver-grid atoms."""
    size = out_dim + state_dim
    w = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    q = np.linalg.qr(w)[0]
    assign = np.sort(rng.integers(0, len(GRID), size=state_dim))
    atoms, mults = np.unique(assign, return_counts=True)
    o = out_dim
    return dict(
        a=q[:o, :o], b=q[:o, o:], c=q[o:, :o], d=q[o:, o:],
        alphas=verify.SOLVER_GRID[atoms], mults=mults,
    )


def _digest(raw) -> str:
    """sha256 of every generated number, exactly (nested lists and tuples)."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (list, tuple)):
            for y in x:
                feed(y)
        elif isinstance(x, str):
            h.update(x.encode())
        else:
            h.update(np.asarray(x, dtype=complex).tobytes())

    feed(raw)
    return h.hexdigest()[:16]


def _coords(pairs):
    return np.array([q[0] for q in pairs]), np.array([q[1] for q in pairs])


class Sandwich:
    """One ``pick.minimal_norm`` per item on a criterion-10 truncation.

    The loop budget is 1000 iterations, not criterion 10's 6000.  Item cost
    varies about 3x between truncations, so a steady run needs many items:
    the solves that end Unknown at 6000 iterations end Unknown at 1000 too,
    an item then costs about 1.2 s instead of 6 s, and a 40 s run holds
    35 items.  The returned minimal norms stay within a few percent.
    """

    opts = SolveOptions(max_iter=1000)
    width = 1e-4
    units = 1
    items_per_round = 1
    cpu_s_per_item = 1.15

    def __init__(self, seed: int, count: int):
        rng = np.random.default_rng(seed)
        family = phase_pattern_family(3, 64)
        varying = [p for p in family if not np.allclose(p, p[0])]
        self.items = []
        raw = []
        for _ in range(count):
            pairs = _distinct_pairs(rng, 3, rmax=0.75, min_sep=0.15)
            pattern = varying[int(rng.integers(len(varying)))]
            raw.append((pairs, pattern))
            self.items.append(
                PickProblem(
                    nodes=NodeSet.from_pairs(pairs),
                    targets=tuple(np.array([[w]]) for w in pattern),
                )
            )
        self.digest = _digest(raw)
        self.values: list[float] = []

    def run(self, problem):
        return sb.minimal_norm(problem, GRID, self.opts, width=self.width)

    def run_item(self, k: int):
        return self.run(self.items[k])

    def run_warmup(self):
        return self.run(_warmup_pick())

    def after_item(self, k: int, value: float) -> list[str]:
        return [self._check(k, value)]

    def _check(self, k: int, value: float) -> str:
        """value >= max|W_i|, and a re-solve just above it certifies feasible."""
        self.values.append(value)
        problem = self.items[k]
        top = max(float(np.linalg.norm(t, 2)) for t in problem.targets)
        if not value >= top:
            return "wrong"
        above = PickProblem(
            nodes=problem.nodes,
            targets=problem.targets,
            norm_bound=value + self.width * max(1.0, value),
        )
        sol = sb.solve_pick(above, GRID, self.opts)
        if sol.status.value == "Unknown":
            return "failed"
        if sol.status.value != "Feasible" or sol.node_residual > NODE_TOL:
            return "wrong"
        sup = sb.verify_contractivity(sol.interpolant, sample_count=10000, seed=k)
        return "ok" if sup <= 1.0 + NORM_SLACK else "wrong"


def planted_corona(rng):
    """A corona problem with a planted contractive solution (criterion 8)."""
    pairs = _distinct_pairs(rng, int(rng.integers(2, 4)))
    s, p = _coords(pairs)
    k_extra = int(rng.integers(1, 3))
    c0 = 0.5 + 0.4 * rng.random()
    betas = 0.5 * _sample_disk(rng, k_extra, rmax=1.0)
    alphas = verify.SOLVER_GRID[rng.integers(0, len(GRID), size=k_extra)]
    vals = verify.phi(alphas, s, p)  # (k_extra, N)
    phis = tuple(
        np.array([list(betas * vals[:, i]) + [c0]]) for i in range(len(pairs))
    )
    # the planted factor (0, ..., sqrt(delta) / c0) is contractive
    delta = 0.8 * c0 * c0
    return pairs, phis, delta


def _cx(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _mat(m) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": [_cx(z) for z in m.ravel()]}


def _node_rows(pairs) -> list[list[float]]:
    return [_cx(s) + _cx(p) for s, p in pairs]


def _single_atom_margin(j, s, p) -> float:
    """Largest over grid alphas of lambda_min(J / C_m).

    A nonnegative value means the single-atom closed form decides the
    problem; a negative one means only the iterative loop can.
    """
    d = j.shape[0] // len(s)
    best = -np.inf
    for c in verify.masks(verify.SOLVER_GRID, s, p):
        q = j / np.kron(c, np.ones((d, d)))
        best = max(best, float(np.linalg.eigvalsh((q + q.conj().T) / 2)[0]))
    return best


def _carleson_delta(pairs) -> float:
    """Best Carleson product over the solver grid (criterion 9)."""
    s, p = _coords(pairs)
    best = 0.0
    for z in verify.phi(verify.SOLVER_GRID, s, p):
        rho = np.abs(z[:, None] - z[None, :]) / np.abs(1.0 - z[None, :].conj() * z[:, None])
        np.fill_diagonal(rho, 1.0)
        best = max(best, float(rho.prod(axis=1).min()))
    return best


class CorpusFiles:
    """Seeded problem files of every kind, each with a planted-status sidecar.

    ``loop`` adds the files no closed form decides: one 2x2 planted Pick file
    and two near-boundary scalar 3-node Pick files.  Whether a file needs the
    loop is read from the input (no J / C_m is PSD), not from a solve.
    """

    def __init__(self, seed: int, loop: bool = True):
        self.rng = np.random.default_rng(seed)
        self.files: dict[str, tuple[dict, dict]] = {}
        for k in range(3):
            self._membership(f"member_in_{k}", inside=True)
            self._membership(f"member_out_{k}", inside=False)
        for k in range(2):
            self._gamma(f"gamma_ok_{k}", violate=None)
        self._gamma("gamma_norm", violate="norm")
        self._gamma("gamma_isometry", violate="isometry")
        for k in range(2):
            self._measure(f"measure_{k}")
        for k in range(2):
            self._sequence(f"sequence_{k}")
        for feasible in (True, False):
            for k in range(3):
                self._diagonal_pick(f"pick_cf_{'feas' if feasible else 'infeas'}_{k}", feasible)
        for k in range(3):
            self._matrix_pick(f"pick_2x2_{k}", loop=False)
        for k in range(4):
            self._corona(f"corona_{k}")
        if loop:
            # named to sort last, so the pool meets them after the cheap files
            self._matrix_pick("z_loop_pick_2x2", loop=True)
            for k in range(2):
                self._loop_pick(f"z_loop_pick_{k}")

    def _add(self, name, kind, payload, equals, opts=None):
        problem = {"format": 1, "kind": kind, "payload": payload}
        if opts is not None:
            problem["opts"] = opts
        self.files[name] = (problem, {"equals": equals})

    def _membership(self, name, inside):
        rng = self.rng
        if inside:
            z1, z2 = _sample_disk(rng, 2, rmax=0.95)
        else:
            z1 = (1.05 + 0.45 * rng.random()) * np.exp(2j * np.pi * rng.random())
            z2 = _sample_disk(rng, 1, rmax=0.95)[0]
        self._add(name, "membership", {"s": _cx(z1 + z2), "p": _cx(z1 * z2)},
                  {"is_member": bool(inside)})

    def _gamma(self, name, violate):
        rng = self.rng
        dim = int(rng.integers(1, 5))
        u1 = np.exp(2j * np.pi * rng.random(dim))
        u2 = np.exp(2j * np.pi * rng.random(dim))
        first, second = u1 + u2, u1 * u2
        if violate == "norm":
            first[0] = (2.2 + rng.random()) * np.sqrt(second[0])
        elif violate == "isometry":
            second = 0.8 * second
        payload = {"first": _mat(np.diag(first)), "second": _mat(np.diag(second)),
                   "mode": "unitary", "tol": 1e-8}
        self._add(name, "gamma-check", payload, {"passed": violate is None})

    def _measure(self, name):
        rng = self.rng
        count = int(rng.integers(1, 5))
        atoms = []
        while len(atoms) < count:
            z1, z2 = np.exp(2j * np.pi * rng.random(2))
            cand = (z1 + z2, z1 * z2)
            if all(abs(cand[0] - a[0]) + abs(cand[1] - a[1]) > 1e-6 for a in atoms):
                atoms.append(cand)
        payload = {"atoms": _node_rows(atoms),
                   "weights": list(0.5 + rng.random(len(atoms)))}
        self._add(name, "measure-model", payload, {"isometry_passed": True})

    def _sequence(self, name):
        while True:
            pairs = _distinct_pairs(self.rng, int(self.rng.integers(2, 4)), rmax=0.7)
            delta = _carleson_delta(pairs)
            if delta >= 0.25:
                break
        # the Carleson implication: separated with constant (1 + d) / d^2
        payload = {"nodes": _node_rows(pairs), "kernels": 4,
                   "bound": (1.0 + delta) / (delta * delta)}
        self._add(name, "sequence", payload, {"n": len(pairs)},
                  opts={"seed": int(self.rng.integers(1000))})

    def _diagonal_pick(self, name, feasible):
        """Two diagonal nodes, where the problem is the classical disk one."""
        rng = self.rng
        while True:
            z = _sample_disk(rng, 2, rmax=0.9)
            w = 1.15 * _sample_disk(rng, 2, rmax=1.0)
            pick = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))
            lam = np.linalg.eigvalsh((pick + pick.conj().T) / 2)[0]
            if abs(z[0] - z[1]) > 0.05 and (lam > 0.02 if feasible else lam < -0.02):
                break
        payload = {"nodes": _node_rows([(2 * x, x * x) for x in z]),
                   "targets": [_cx(x) for x in w]}
        status = "Feasible" if feasible else "InfeasibleCertified"
        self._add(name, "pick", payload, {"status": status},
                  opts={"seed": int(rng.integers(1000))})

    def _planted_pick(self, name, col, pairs, scale, opts=None):
        s, p = _coords(pairs)
        vals = scale * verify.transfer(**col, s=s, p=p)
        targets = [_mat(v) if v.size > 1 else _cx(v[0, 0]) for v in vals]
        opts = {"seed": int(self.rng.integers(1000)), **(opts or {})}
        self._add(name, "pick", {"nodes": _node_rows(pairs), "targets": targets},
                  {"status": "Feasible"}, opts=opts)

    def _matrix_pick(self, name, loop):
        rng = self.rng
        while True:
            col = _grid_colligation(rng, int(rng.integers(2, 5)), out_dim=2)
            pairs = _distinct_pairs(rng, int(rng.integers(2, 4)))
            s, p = _coords(pairs)
            j = verify.pick_target(list(0.95 * verify.transfer(**col, s=s, p=p)))
            margin = _single_atom_margin(j, s, p)
            if (margin < -1e-6) if loop else (margin > 1e-6):
                break
        self._planted_pick(name, col, pairs, 0.95, {"max_iter": LOOP_BUDGET} if loop else None)

    def _loop_pick(self, name):
        """Extremal scalar data from a multi-atom grid colligation on 3 nodes."""
        rng = self.rng
        while True:
            col = _grid_colligation(rng, int(rng.integers(3, 6)))
            if len(col["mults"]) < 2:
                continue
            pairs = _distinct_pairs(rng, 3)
            s, p = _coords(pairs)
            j = verify.pick_target(list(verify.transfer(**col, s=s, p=p)))
            if _single_atom_margin(j, s, p) < -1e-6:
                break
        self._planted_pick(name, col, pairs, 1.0, {"max_iter": LOOP_BUDGET})

    def _corona(self, name):
        pairs, phis, delta = planted_corona(self.rng)
        payload = {"nodes": _node_rows(pairs), "phi_samples": [_mat(f) for f in phis],
                   "delta": delta}
        self._add(name, "corona", payload, {"status": "Feasible"},
                  opts={"seed": int(self.rng.integers(1000))})

    def write(self, directory: str) -> str:
        """Write problems and sidecars; return the digest of their bytes."""
        os.makedirs(directory, exist_ok=True)
        h = hashlib.sha256()
        for name in sorted(self.files):
            problem, expected = self.files[name]
            for suffix, obj in ((".json", problem), (".expected.json", expected)):
                text = json.dumps(obj, sort_keys=True)
                h.update(name.encode() + suffix.encode() + text.encode())
                with open(os.path.join(directory, name + suffix), "w", encoding="utf-8") as fh:
                    fh.write(text)
        return h.hexdigest()[:16]


class Corpus:
    """``symbidisk corpus --jobs 2`` passes over seeded problem directories.

    Passes come in pairs over the same directory, into two output
    directories, so every report's hash is compared across two runs
    (criterion 12); each pair has a directory of its own, which spreads a
    run over many independently drawn loop-bound files.  An item is one
    pass; its units are the files.
    """

    jobs = 2
    items_per_round = 2
    cpu_s_per_item = 1.2

    def __init__(self, seed: int, count: int, workdir: str):
        rng = np.random.default_rng(seed)
        self.dirs = []
        digests = []
        for d in range(count // self.items_per_round):
            files = CorpusFiles(int(rng.integers(2**31)))
            path = os.path.join(workdir, f"in{d:02d}")
            digests.append(files.write(path))
            self.dirs.append((path, files))
        self.digest = _digest(digests)
        self.out = [os.path.join(workdir, "out_a"), os.path.join(workdir, "out_b")]
        self.warm = os.path.join(workdir, "warm")
        CorpusFiles(0, loop=False).write(self.warm)
        self.units = len(self.dirs[0][1].files)

    def _pass(self, in_dir: str, out_dir: str):
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = ["corpus", "--in", in_dir, "--out", out_dir, "--jobs", str(self.jobs)]
        with contextlib.redirect_stdout(io.StringIO()):
            return sb.cli.run(argv)

    def run_item(self, k: int):
        return self._pass(self.dirs[k // 2][0], self.out[k % 2])

    def run_warmup(self):
        return self._pass(self.warm, self.out[0])

    def _reports(self, out_dir: str, names) -> dict:
        reports = {}
        for name in names:
            path = os.path.join(out_dir, name + ".report.json")
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    reports[name] = json.load(fh)
        return reports

    def after_item(self, k: int, output) -> list[str]:
        """Per-file verdicts of pass ``k``, read back from its reports."""
        files = self.dirs[k // 2][1].files
        reports = self._reports(self.out[k % 2], files)
        verdicts = []
        for name, (problem, expected) in sorted(files.items()):
            report = reports.get(name)
            try:
                verdict = "failed" if report is None else check_report(report, expected)
            except (KeyError, TypeError, ValueError, IndexError):
                verdict = "wrong"  # a report that cannot be read back
            if verdict == "ok" and k % 2 == 1:
                other = self._reports(self.out[0], [name]).get(name)
                if other is None or other["report_hash"] != report["report_hash"]:
                    verdict = "wrong"
            verdicts.append(verdict)
        return verdicts


def _decode_nodes(rows):
    rows = np.asarray(rows, dtype=float)
    return rows[:, 0] + 1j * rows[:, 1], rows[:, 2] + 1j * rows[:, 3]


def _decode_matrix(obj) -> np.ndarray:
    entries = np.asarray(obj["entries"], dtype=float)
    return (entries[:, 0] + 1j * entries[:, 1]).reshape(obj["rows"], obj["cols"])


def _decode_target(t) -> np.ndarray:
    return _decode_matrix(t) if isinstance(t, dict) else np.array([[complex(*t)]])


def check_report(report: dict, expected: dict) -> str:
    """Planted fields, then the witness or certificate re-verified from JSON.

    A witness may exceed the solve tolerance by the factor 2 that the
    acceptance suite's re-verification allows for roundoff.
    """
    for key, want in expected["equals"].items():
        got = report.get(key)
        if got != want:
            return "failed" if got == "Unknown" else "wrong"
    kind = report["kind"]
    if kind == "sequence":
        statuses = report["strong_separation"]["statuses"]
        if any(st != "Feasible" for st in statuses):
            return "failed" if "InfeasibleCertified" not in statuses else "wrong"
        return "ok"
    if kind not in ("pick", "corona"):
        return "ok"
    problem = report["problem"]
    payload = problem["payload"]
    tol = float((problem.get("opts") or {}).get("tol", 1e-8))
    s, p = _decode_nodes(payload["nodes"])
    if kind == "pick":
        targets = [_decode_target(t) for t in payload["targets"]]
        j = verify.pick_target(targets, float(payload.get("norm_bound", 1.0)))
    else:
        phis = [_decode_matrix(m) for m in payload["phi_samples"]]
        d2 = phis[0].shape[0]
        thetas = [np.sqrt(payload["delta"]) * np.eye(d2) for _ in phis]
        j = verify.corona_target(phis, thetas)
    solve = report["solve"]
    if solve["status"] == "Feasible":
        alphas = [complex(*a) for a in solve["blocks"]["grid"]["alphas"]]
        blocks = [_decode_matrix(b) for b in solve["blocks"]["blocks"]]
        if verify.witness_residual(j, alphas, blocks, s, p) > 2 * tol:
            return "wrong"
        if report["node_residual"] > NODE_TOL:
            return "wrong"
        if kind == "corona" and (
            report["sampled_norm"] > 1.0 + NORM_SLACK
            or report["left_inverse_node_residual"] > NODE_TOL
        ):
            return "wrong"
    elif solve["status"] == "InfeasibleCertified":
        cert = solve["certificate"]
        kernel = _decode_matrix(
            {"rows": len(s), "cols": len(s), "entries": cert["entries"]}
        )
        if not verify.certificate_ok(j, verify.SOLVER_GRID, kernel, s, p, tol):
            return "wrong"
    return "ok"
