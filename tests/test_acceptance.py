"""Acceptance gate: every criterion at its stated tolerance and budget.

Each test prints one line ``criterion NN: PASS/FAIL (elapsed)`` and the
mutual-exclusion audit re-verifies witnesses and certificates collected from
every solve performed by the suite.
"""

import json
import time

import numpy as np
from symbidisk import (
    AlphaGrid,
    AtomicMeasure,
    BGammaPoint,
    CoronaProblem,
    NodeSet,
    OperatorPair,
    PickProblem,
    SolveOptions,
    SolveStatus,
    admissibility_check,
    atomic_h2_model,
    gamma_isometry_check,
    gamma_unitary_check,
    membership,
    minimal_norm,
    phi,
    schur_oslash,
    solve_corona,
    solve_pick,
    symmetrize,
    symmetrized_pair,
    toeplitz_positivity,
    verify_contractivity,
)
from symbidisk.cli import run as cli_run
from symbidisk.feasibility import FeasibilityTarget, residual, solve
from symbidisk.geometry import phi_values
from symbidisk.hermitian import min_eigenvalue
from symbidisk.kernels import coefficient_masks, expand_masks
from symbidisk.realization import Colligation, transfer_eval_batch
from symbidisk.sequences import (
    SequenceTruncation,
    best_carleson_alpha,
    grammian_bounds,
    interpolation_constant,
    sample_kernel_census,
)
from symbidisk.serialize import report_hash

GRID = AlphaGrid.solver_default()

# audit trail for the mutual-exclusion criterion: (label, target, report)
SOLVE_LOG: list = []


def _log_solve(label, target, report):
    SOLVE_LOG.append((label, target, report))
    return report


def _verdict(num, ok, elapsed, budget, detail=""):
    flag = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d}: {flag} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"criterion {num:02d} failed: {detail}"
    assert elapsed < budget, f"criterion {num:02d} over budget: {elapsed:.1f}s"


def _sample_disk(rng, count, rmax=0.99):
    r = rmax * np.sqrt(rng.random(count))
    th = rng.random(count) * 2.0 * np.pi
    return r * np.exp(1j * th)


def _random_grid_colligation(rng, state_dim):
    w = rng.standard_normal((1 + state_dim, 1 + state_dim)) + 1j * rng.standard_normal(
        (1 + state_dim, 1 + state_dim)
    )
    q = np.linalg.qr(w)[0]
    assign = np.sort(rng.integers(0, len(GRID), size=state_dim))
    alphas, mults = np.unique(assign, return_counts=True)
    order = np.argsort(assign, kind="stable")
    qp = np.eye(1 + state_dim, dtype=complex)
    qp[1:, 1:] = np.eye(state_dim)[:, order]
    q = qp.T @ q @ qp  # group state rows by grid atom
    return Colligation(
        a=q[0:1, 0:1],
        b=q[0:1, 1:],
        c=q[1:, 0:1],
        d=q[1:, 1:],
        alphas=GRID.alphas[alphas],
        multiplicities=tuple(int(m) for m in mults),
        out_dim=1,
        in_dim=1,
    )


def _distinct_nodes(rng, n, rmax=0.85, min_sep=5e-2):
    pts = []
    while len(pts) < n:
        z = _sample_disk(rng, 2, rmax)
        q = symmetrize(z[0], z[1])
        if all(abs(q.s - o.s) + abs(q.p - o.p) > min_sep for o in pts):
            pts.append(q)
    return NodeSet(tuple(pts))


def test_criterion_01_coordinate_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    z = _sample_disk(rng, 1000, rmax=0.99)
    alphas = np.concatenate(
        [_sample_disk(rng, 50, rmax=1.0), np.exp(2j * np.pi * rng.random(50))]
    )
    s, p = 2.0 * z, z * z
    table = phi_values(alphas, s, p)  # (100, 1000)
    err = np.abs(table + z[None, :]).max()
    _verdict(1, err <= 1e-12, time.perf_counter() - t0, 1.0, f"max |phi + z| = {err:.2e}")


def test_criterion_02_membership_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    inside_bad = 0
    for _ in range(10000):
        z = _sample_disk(rng, 2, rmax=0.99)
        q = symmetrize(z[0], z[1])
        if not membership(q.s, q.p).is_member:
            inside_bad += 1
    outside_bad = 0
    for _ in range(1000):
        r1 = 1.01 + 0.49 * rng.random()
        z1 = r1 * np.exp(2j * np.pi * rng.random())
        z2 = _sample_disk(rng, 1, rmax=0.99)[0]
        s, p = z1 + z2, z1 * z2
        if membership(s, p).is_member:
            outside_bad += 1
    ok = inside_bad == 0 and outside_bad == 0
    _verdict(
        2, ok, time.perf_counter() - t0, 10.0,
        f"false negatives {inside_bad}, false positives {outside_bad}",
    )


def test_criterion_03_two_point_oracle_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    unknowns = disagreements = decided = 0
    for _ in range(200):
        while True:
            z = _sample_disk(rng, 2, rmax=0.9)
            if abs(z[0] - z[1]) > 0.05:
                break
        w = 1.15 * _sample_disk(rng, 2, rmax=1.0)
        nodes = NodeSet((symmetrize(z[0], z[0]), symmetrize(z[1], z[1])))
        problem = PickProblem(
            nodes=nodes, targets=tuple(np.array([[wi]]) for wi in w)
        )
        sol = solve_pick(problem, GRID)
        from symbidisk import assemble_pick_target

        _log_solve("c3", assemble_pick_target(problem), sol.report)
        pick_matrix = (1.0 - np.outer(w, w.conj())) / (1.0 - np.outer(z, z.conj()))
        lam = np.linalg.eigvalsh((pick_matrix + pick_matrix.conj().T) / 2).min()
        if sol.status is SolveStatus.FEASIBLE:
            decided += 1
            if lam < -1e-7:
                disagreements += 1
        elif sol.status is SolveStatus.INFEASIBLE_CERTIFIED:
            decided += 1
            if lam > 1e-7:
                disagreements += 1
        else:
            unknowns += 1
    ok = disagreements == 0 and unknowns <= 10
    _verdict(
        3, ok, time.perf_counter() - t0, 300.0,
        f"decided {decided}, unknown {unknowns}, disagreements {disagreements}",
    )


def test_criterion_04_minimal_norm_closed_form():
    t0 = time.perf_counter()
    nodes = NodeSet.from_pairs([(1.0, 0.25), (-1.0, 0.25)])
    problem = PickProblem(
        nodes=nodes, targets=(np.array([[-0.5]]), np.array([[0.5]]))
    )
    value = minimal_norm(problem, GRID)
    ok = abs(value - 1.0) <= 1e-3
    _verdict(4, ok, time.perf_counter() - t0, 30.0, f"minimal norm {value:.6f}")


def test_criterion_05_realization_round_trip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst_node = 0.0
    worst_sup = 0.0
    solved = 0
    for k in range(100):
        col = _random_grid_colligation(rng, state_dim=int(rng.integers(2, 6)))
        n = int(rng.integers(2, 4))
        nodes = _distinct_nodes(rng, n)
        vals = transfer_eval_batch(col, nodes.s, nodes.p)[:, 0, 0]
        targets = tuple(np.array([[0.95 * v]]) for v in vals)
        problem = PickProblem(nodes=nodes, targets=targets)
        sol = solve_pick(problem, GRID)
        _log_solve("c5", None, sol.report)
        if sol.status is not SolveStatus.FEASIBLE:
            continue
        solved += 1
        worst_node = max(worst_node, sol.node_residual)
        sup = verify_contractivity(sol.interpolant, sample_count=10000, seed=k)
        worst_sup = max(worst_sup, sup)
    ok = solved == 100 and worst_node <= 1e-7 and worst_sup <= 1.0 + 1e-8
    _verdict(
        5, ok, time.perf_counter() - t0, 600.0,
        f"solved {solved}/100, node residual {worst_node:.2e}, sup {worst_sup:.9f}",
    )


def test_criterion_06_planted_cp_instances():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    feasible = 0
    for _ in range(100):
        n = int(rng.integers(2, 5))
        nodes = _distinct_nodes(rng, n)
        masks = coefficient_masks(GRID, nodes)
        cexp = expand_masks(masks, 1)
        stack = []
        for _ in range(len(GRID)):
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            stack.append(w @ w.conj().T / n)
        stack = np.stack(stack)
        j = np.einsum("mij,mij->ij", cexp, stack)
        j /= max(1.0, np.linalg.norm(j))
        target = FeasibilityTarget(nodes=nodes, matrix=j)
        report = solve(target, GRID)
        _log_solve("c6", target, report)
        if report.status is SolveStatus.FEASIBLE:
            feasible += 1
            worst = max(worst, report.residual)
    ok = feasible == 100 and worst <= 1e-8
    _verdict(
        6, ok, time.perf_counter() - t0, 300.0,
        f"feasible {feasible}/100, worst residual {worst:.2e}",
    )


def test_criterion_07_mutual_exclusion():
    t0 = time.perf_counter()
    assert SOLVE_LOG, "no solves were logged by earlier criteria"
    both = 0
    verified_certs = 0
    for label, target, report in SOLVE_LOG:
        has_witness = (
            report.status is SolveStatus.FEASIBLE
            and report.blocks is not None
            and report.residual <= 1e-8
        )
        has_cert = report.certificate is not None and (
            report.certificate_min_eig is not None
            and report.certificate_min_eig <= -1e-8
        )
        if has_witness and has_cert:
            both += 1
        # independently re-verify certificates against their targets
        if has_cert and target is not None:
            rep = admissibility_check(report.certificate, GRID, tol=1e-8)
            prod = schur_oslash(
                target.matrix, report.certificate.matrix, target.block, 1
            )
            if rep.is_admissible_on_grid and min_eigenvalue(prod) <= -1e-8:
                verified_certs += 1
            else:
                both += 1  # an unverifiable certificate is a corpus failure
        if has_witness and target is not None:
            assert residual(target, report.blocks) <= 2e-8
    iterated = sum(report.iterations >= 1 for _, _, report in SOLVE_LOG)
    _verdict(
        7, both == 0, time.perf_counter() - t0, 60.0,
        f"{len(SOLVE_LOG)} runs audited, {iterated} took interior-point iterations, "
        f"{verified_certs} certificates re-verified, overlaps {both}",
    )


def test_criterion_08_corona_echo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    feasible = 0
    worst_node = 0.0
    worst_norm = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        nodes = _distinct_nodes(rng, n)
        k_extra = int(rng.integers(1, 3))
        c0 = 0.5 + 0.4 * rng.random()
        betas = 0.5 * _sample_disk(rng, k_extra, rmax=1.0)
        alphas = GRID.alphas[rng.integers(0, len(GRID), size=k_extra)]
        phis = []
        for q in nodes.points:
            row = [b * phi(a, q) for b, a in zip(betas, alphas)] + [c0]
            phis.append(np.array([row]))
        delta = 0.8 * c0 * c0  # planted factor (0, ..., sqrt(delta)/c0) is contractive
        problem = CoronaProblem(
            nodes=nodes, phi_samples=tuple(phis), delta=delta
        )
        sol = solve_corona(problem, GRID, contractivity_samples=2000)
        _log_solve("c8", None, sol.report)
        if sol.status is not SolveStatus.FEASIBLE:
            continue
        feasible += 1
        worst_node = max(worst_node, sol.node_residual)
        worst_norm = max(worst_norm, sol.sampled_norm)
    ok = feasible == 50 and worst_node <= 1e-7 and worst_norm <= 1.0 + 1e-8
    _verdict(
        8, ok, time.perf_counter() - t0, 600.0,
        f"feasible {feasible}/50, node residual {worst_node:.2e}, norm {worst_norm:.9f}",
    )


def test_criterion_09_carleson_implication():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    confirmed = 0
    attempts = 0
    while confirmed < 50 and attempts < 500:
        attempts += 1
        n = int(rng.integers(2, 4))
        trunc = SequenceTruncation(nodes=_distinct_nodes(rng, n, rmax=0.7))
        alpha_star, delta_hat = best_carleson_alpha(trunc, GRID)
        if delta_hat < 0.25:
            continue
        bound = (1.0 + delta_hat) / (delta_hat * delta_hat)
        sols = solve_strong(trunc, bound)
        if not all(s.status is SolveStatus.FEASIBLE for s in sols):
            _verdict(
                9, False, time.perf_counter() - t0, 600.0,
                f"separation failed at delta-hat {delta_hat:.3f}",
            )
        confirmed += 1
    ok = confirmed == 50
    _verdict(
        9, ok, time.perf_counter() - t0, 600.0,
        f"{confirmed}/50 truncations confirmed in {attempts} draws",
    )


def solve_strong(trunc, bound):
    from symbidisk.sequences import strong_separation

    sols = strong_separation(trunc, bound, GRID)
    for s in sols:
        _log_solve("c9", None, s.report)
    return sols


def test_criterion_10_grammian_sandwich():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    opts = SolveOptions(max_iter=6000)
    checked = 0
    for k in range(20):
        n = 2 if k < 14 else 3
        trunc = SequenceTruncation(nodes=_distinct_nodes(rng, n, rmax=0.75, min_sep=0.15))
        m_hat = interpolation_constant(trunc, GRID, opts)
        census = sample_kernel_census(trunc, GRID, seed=1000 + k, count=32, tol=1e-10)
        rep = grammian_bounds(trunc, census, GRID)
        lo_bound = 1.0 / (m_hat * m_hat) - 1e-6
        hi_bound = m_hat * m_hat + 1e-6
        if rep.worst_lower < lo_bound or rep.worst_upper > hi_bound:
            _verdict(
                10, False, time.perf_counter() - t0, 900.0,
                f"sandwich broken: [{rep.worst_lower:.6f}, {rep.worst_upper:.6f}] "
                f"vs [{lo_bound:.6f}, {hi_bound:.6f}] with M-hat {m_hat:.4f}",
            )
        checked += 1
    _verdict(
        10, checked == 20, time.perf_counter() - t0, 900.0,
        f"{checked}/20 truncations inside the sandwich",
    )


def test_criterion_11_gamma_characterizations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(111)
    good = 0
    for _ in range(1000):
        dim = int(rng.integers(1, 5))
        th = rng.random(dim) * 2 * np.pi
        ps = rng.random(dim) * 2 * np.pi
        u1 = np.diag(np.exp(1j * th))
        u2 = np.diag(np.exp(1j * ps))
        if gamma_unitary_check(symmetrized_pair(u1, u2)).passed:
            good += 1
    bad_detected = 0
    for k in range(1000):
        dim = int(rng.integers(1, 5))
        th = rng.random(dim) * 2 * np.pi
        u = np.exp(1j * th)
        r = (2.0 * rng.random(dim)) * np.exp(1j * th / 2.0)  # valid pair entrywise
        mode = k % 3
        if mode == 0:
            # norm violation: push one entry past 2 along its valid phase
            r[0] = (2.2 + rng.random()) * np.exp(1j * th[0] / 2.0)
        elif mode == 1:
            u = 0.8 * u  # isometry violation
        else:
            # twist violation: an off-phase component breaks R = R* U by >= 0.6
            r[0] = r[0] + (0.3 + rng.random()) * 1j * np.exp(1j * th[0] / 2.0)
        pair = OperatorPair(first=np.diag(r), second=np.diag(u))
        if not gamma_unitary_check(pair, tol=1e-8).passed:
            bad_detected += 1
    atomic_pass = 0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        atoms = []
        while len(atoms) < m:
            t1, t2 = rng.random(2) * 2 * np.pi
            z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
            cand = BGammaPoint(z1 + z2, z1 * z2)
            if all(abs(cand.s - a.s) + abs(cand.p - a.p) > 1e-6 for a in atoms):
                atoms.append(cand)
        mu = AtomicMeasure(atoms=tuple(atoms), weights=tuple(0.5 + rng.random(m)))
        if gamma_isometry_check(atomic_h2_model(mu)).passed:
            atomic_pass += 1
    monotone = 0
    for _ in range(100):
        m = int(rng.integers(1, 4))
        atoms = []
        while len(atoms) < m:
            t1, t2 = rng.random(2) * 2 * np.pi
            z1, z2 = np.exp(1j * t1), np.exp(1j * t2)
            cand = BGammaPoint(z1 + z2, z1 * z2)
            if all(abs(cand.s - a.s) + abs(cand.p - a.p) > 1e-6 for a in atoms):
                atoms.append(cand)
        mu = AtomicMeasure(atoms=tuple(atoms), weights=tuple(1.0 for _ in range(m)))
        samples = [
            np.array([[0.3 + 0.5 * rng.random(), 0.2 * rng.random()]]) for _ in range(m)
        ]
        lams = [
            toeplitz_positivity(samples, mu, delta=d, r=0.9)[1]
            for d in (0.05, 0.25, 0.6)
        ]
        if lams[0] > lams[1] > lams[2]:
            monotone += 1
    ok = good == 1000 and bad_detected == 1000 and atomic_pass == 100 and monotone == 100
    _verdict(
        11, ok, time.perf_counter() - t0, 60.0,
        f"pairs {good}/1000, refuted {bad_detected}/1000, atomic {atomic_pass}/100, "
        f"monotone {monotone}/100",
    )


def test_criterion_12_determinism(tmp_path):
    t0 = time.perf_counter()
    corpus = tmp_path / "corpus"
    corpus.mkdir()

    def write(name, obj):
        (corpus / name).write_text(json.dumps(obj))

    write(
        "pick_feasible.json",
        {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "targets": [[-0.5, 0], [0.5, 0]],
            },
            "grid": {"kind": "solver_default"},
            "opts": {"seed": 7},
        },
    )
    write(
        "pick_infeasible.json",
        {
            "format": 1,
            "kind": "pick",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "targets": [[0.0, 0], [0.9, 0]],
            },
            "opts": {"seed": 7},
        },
    )
    write(
        "membership.json",
        {"format": 1, "kind": "membership", "payload": {"s": [0.8, 0], "p": [0.15, 0]}},
    )
    write(
        "sequence.json",
        {
            "format": 1,
            "kind": "sequence",
            "payload": {
                "nodes": [[1.0, 0, 0.25, 0], [-1.0, 0, 0.25, 0]],
                "kernels": 4,
                "bound": 1.5,
            },
            "opts": {"seed": 3},
        },
    )
    write(
        "corona.json",
        {
            "format": 1,
            "kind": "corona",
            "payload": {
                "nodes": [[0.3, 0.1, 0.05, 0.0], [-0.2, 0.0, 0.0, 0.1]],
                "phi_samples": [
                    {"rows": 1, "cols": 2, "entries": [[0.2, 0.0], [0.7, 0.0]]},
                    {"rows": 1, "cols": 2, "entries": [[-0.1, 0.05], [0.7, 0.0]]},
                ],
                "delta": 0.3,
            },
            "opts": {"seed": 5},
        },
    )
    write(
        "gamma.json",
        {
            "format": 1,
            "kind": "gamma-check",
            "payload": {
                "first": {"rows": 1, "cols": 1, "entries": [[1.2, 0.0]]},
                "second": {"rows": 1, "cols": 1, "entries": [[0.36, 0.9327379053]]},
                "mode": "unitary",
                "tol": 1e-6,
            },
        },
    )

    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    code1 = cli_run(["corpus", "--in", str(corpus), "--out", str(out1), "--jobs", "2"])
    code2 = cli_run(["corpus", "--in", str(corpus), "--out", str(out2), "--jobs", "2"])
    assert code1 == 0 and code2 == 0
    mismatched = []
    for name in sorted(p.name for p in out1.iterdir()):
        a = json.loads((out1 / name).read_text())
        b = json.loads((out2 / name).read_text())
        if report_hash(a) != report_hash(b):
            mismatched.append(name)
    _verdict(
        12, not mismatched, time.perf_counter() - t0, 120.0,
        f"{len(list(out1.iterdir()))} reports, mismatched {mismatched}",
    )
