"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Run with -v to get one pass/fail line per criterion.  The tolerances and
runtime budgets below are contractual; they must not be loosened to make
a failing build pass.
"""

import cmath
import math
import os
import random
import time

import numpy as np
import pytest

from eisenzeros.cli import _run_tasks
from eisenzeros.cli import main as cli_main
from eisenzeros.delta import (
    WeightPair,
    arc_real_batch,
    corner_derivatives,
    m_main,
    p_main,
)
from eisenzeros.eisenstein import (
    ThetaArgs,
    eval_ek_fourier,
    eval_ek_lattice,
    gk,
    jacobi_theta,
    phi0,
    phi1,
    theta_eisenstein_transformed,
)
from eisenzeros.zeros import (
    arc_sample_points,
    count_arc_zeros,
    side_sample_points,
    stabilization_point,
)

PI = math.pi

# Frozen zero-count tables for l in {20, 22, 24}, k = 56..84 even.  These
# duplicate the copies shipped inside the package on purpose: the gate
# must not share its oracle with the code under test.
EXPECTED_ARC = {
    20: (3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 5, 4, 5, 5, 5),
    22: (2, 3, 2, 3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 4, 4),
    24: (2, 2, 3, 2, 3, 3, 3, 3, 4, 3, 4, 4, 4, 4, 5),
}
EXPECTED_SIDE = {
    20: (2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2),
    22: (3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 2, 3, 3, 3, 3),
    24: (3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3),
}
EXPECTED_SURPLUS = {
    20: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    22: (0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0),
    24: (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
}
TABLE_KS = tuple(range(56, 86, 2))

GRID_PAIRS = [(k, l) for l in range(14, 101, 2) for k in range(l, 101, 2)]


@pytest.fixture(scope="module")
def grid(request):
    """Certified audit of every pair on the full triangle, with the
    interior check; shared by criteria 2, 3, and 10."""
    assert len(GRID_PAIRS) == 990
    jobs = min(4, os.cpu_count() or 1)
    start = time.monotonic()
    rows = _run_tasks(GRID_PAIRS, jobs)
    elapsed = time.monotonic() - start
    return {"rows": {(r["k"], r["l"]): r for r in rows}, "elapsed": elapsed}


def test_criterion_01_table_reproduction(capsys):
    start = time.monotonic()
    expected = {1: EXPECTED_ARC, 2: EXPECTED_SIDE, 3: EXPECTED_SURPLUS}
    for which in (1, 2, 3):
        rc = cli_main(["table", "--which", str(which), "--format", "json"])
        out = capsys.readouterr().out
        assert rc == 0, f"table {which} reported a diff"
        rows = {}
        for line in out.strip().splitlines():
            import json
            row = json.loads(line)
            rows[row["l"]] = row["counts"]
        for l, want in expected[which].items():
            got = tuple(rows[l][str(k)] for k in TABLE_KS)
            assert got == want, f"table {which}, l={l}: {got} != {want}"
    assert time.monotonic() - start < 300.0


def test_criterion_02_valence_identity(grid):
    bad = []
    for (k, l), row in grid["rows"].items():
        if row.get("error"):
            bad.append((k, l, row["error"]))
            continue
        lhs = 12 * (row["A"] + row["B"]) + 6 * row["v_i"] + 4 * row["v_rho"] + 12
        if lhs != k + l:
            bad.append((k, l, f"valence {lhs} != {k + l}"))
    assert not bad, f"{len(bad)} valence failures, first: {bad[:3]}"
    assert grid["elapsed"] < 1800.0


def test_criterion_03_stabilization(grid):
    rows = grid["rows"]
    assert math.ceil(stabilization_point(42, 2)) == 57
    assert rows[(56, 42)]["B"] == 5
    assert rows[(68, 42)]["B"] == 6
    assert math.ceil(stabilization_point(22, 0)) == 81
    assert rows[(80, 22)]["B"] == 3
    assert rows[(82, 22)]["B"] == 3
    assert rows[(82, 22)]["A"] == 4
    assert rows[(70, 22)]["A"] == 4


def test_criterion_04_sample_point_bounds():
    arc_floor = {0: 1.5, 2: 0.8, 4: 0.31}
    violations = []
    for k, l in GRID_PAIRS:
        wp = WeightPair(k, l)
        m_first = (12 * wp.n + wp.j) // 6 + 1
        for i, theta in enumerate(arc_sample_points(wp)):
            sign = -1.0 if (m_first + i) % 2 else 1.0
            if sign * m_main(wp, theta) < arc_floor[l % 6]:
                violations.append(("arc", k, l, theta))
        d_first = 2 if l % 6 == 4 else 1
        for i, theta in enumerate(side_sample_points(l)):
            sign = -1.0 if (d_first + i) % 2 else 1.0
            if sign * p_main(wp, theta) < 0.17:
                violations.append(("side", k, l, theta))
    assert not violations, f"{len(violations)} bound violations: {violations[:3]}"


def test_criterion_05_approximation_sandwiches():
    thetas = np.linspace(PI / 3, PI / 2, 500)
    rng = random.Random(2026)
    for k, l in rng.sample(GRID_PAIRS, 30):
        wp = WeightPair(k, l)
        vals, errs = arc_real_batch(wp, thetas)
        main = np.array([m_main(wp, t) for t in thetas])
        worst = np.max(np.abs(vals - main) - errs)
        assert worst <= 0.091, f"arc sandwich fails at ({k},{l}): {worst}"

    for k in (200, 300, 400):
        small_env = 10.0 * math.exp(-k ** (1.0 / 6.0))
        for _ in range(50):
            z = complex(rng.uniform(-0.5, 0.5), rng.uniform(1.5, k ** 0.4))
            truth = gk(k, z)
            approx = 1.0 + (z / (z - 1.0)) ** k + (z / (z + 1.0)) ** k
            assert abs(approx - truth) <= small_env
        for _ in range(50):
            z = complex(rng.uniform(-0.5, 0.5),
                        rng.uniform(k ** 0.4, k ** (2.0 / 3.0)))
            truth = gk(k, z)
            approx = theta_eisenstein_transformed(k, z)
            assert abs(approx - truth) <= 10.0 * z.imag / k ** (2.0 / 3.0)


def test_criterion_06_cross_evaluator_agreement():
    rng = random.Random(516)
    worst = 0.0
    for _ in range(200):
        k = 2 * rng.randrange(2, 31)
        z = complex(rng.uniform(-0.5, 0.5),
                    math.exp(rng.uniform(0.0, math.log(6.0))))
        lattice, _ = eval_ek_lattice(k, z, eps=1e-12)
        fourier = eval_ek_fourier(k, z)
        worst = max(worst, abs(lattice - fourier) / abs(lattice))
    assert worst <= 1e-8, f"worst relative disagreement {worst}"


def test_criterion_07_theta_identities():
    rng = random.Random(714)
    for _ in range(100):
        w = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.1, 10.0))
        lhs = jacobi_theta(ThetaArgs(w / tau, -1.0 / tau))
        rhs = (cmath.sqrt(-1j * tau)
               * cmath.exp(1j * math.pi * w * w / tau)
               * jacobi_theta(ThetaArgs(w, tau)))
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), abs(rhs), 1.0)

    def solve(fn, target, lo, hi):
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if fn(mid) < target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # phi0 increases, phi1 decreases; their certification windows must
    # overlap in an interval containing r = 2
    r_hi = solve(phi0, 2.0, 2.0, 64.0)
    r_lo = solve(lambda r: -phi1(r), -1.0, 1e-3, 2.0)
    assert r_lo < 2.0 < r_hi
    assert phi0(2.0) < 2.0 and phi1(2.0) < 1.0


def test_criterion_08_corner_derivatives():
    h1, h2 = 1e-6, 1e-4
    checked = 0
    for k, l in GRID_PAIRS:
        wp = WeightPair(k, l)
        try:
            cd = corner_derivatives(wp)
        except ValueError:
            continue
        for closed, fn, order in (
                (cd.m_prime, lambda t: m_main(wp, t), 1),
                (cd.m_double_prime, lambda t: m_main(wp, t), 2),
                (cd.p_prime, lambda t: p_main(wp, t), 1),
                (cd.p_double_prime, lambda t: p_main(wp, t), 2)):
            if closed is None:
                continue
            t0 = PI / 3.0
            if order == 1:
                fd = (fn(t0 + h1) - fn(t0 - h1)) / (2.0 * h1)
            else:
                fd = (fn(t0 + h2) - 2.0 * fn(t0) + fn(t0 - h2)) / (h2 * h2)
            assert abs(fd - closed) <= 1e-4 * max(1.0, abs(closed)), \
                f"({k},{l}) order-{order} derivative: closed {closed}, fd {fd}"
        checked += 1
        if checked == 30:
            break
    assert checked == 30


def test_criterion_09_first_arc_zero_off_diagonal():
    for l in range(40, 101, 2):
        for gap in (0, 2, 4, 6, 8, 10):
            count, _ = count_arc_zeros(WeightPair(l + gap, l))
            expected = 1 if gap == 8 else 0
            assert count == expected, \
                f"A({l + gap},{l}) = {count}, expected {expected}"


def test_criterion_10_interior_zero_hunt(grid):
    found = {pair: row["interior"] for pair, row in grid["rows"].items()
             if row.get("interior")}
    assert not found, f"interior zero reports: {found}"
