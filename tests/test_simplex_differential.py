"""The dense simplex against HiGHS, on small random and degenerate LPs.

``LinearProgram`` and ``scipy.optimize.linprog(method="highs")`` solve the
same program.  HiGHS decides feasibility with a zero objective first and
boundedness after, so its "unbounded or infeasible" verdict is never needed.
An OPTIMAL answer must be HiGHS's optimum to 1e-7 of the program's scale and
meet its own rows; an INFEASIBLE one must be infeasible for HiGHS and carry a
Farkas ray that ``oracles.farkas_checks`` accepts on a standard form built
here, apart from the package; an UNBOUNDED one must be feasible and unbounded
for HiGHS.  ITERATION_LIMIT is an honest "undecided" and passes; any other
status is wrong.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit.simplex import LinearProgram, SolveStatus

import oracles

linprog = pytest.importorskip("scipy.optimize").linprog

SCALES = (1.0, 1e-8, 1e8)


def random_lp(seed: int):
    """(c, A, senses, b, nonneg): a few rows over a few variables.  The right-
    hand side comes from a point of the domain (with slack on inequality
    rows) or is drawn at random, which leaves some programs empty; the cost is
    random, which leaves some unbounded.  Entries are small integers half the
    time, for ties and degenerate vertices."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    A = rng.integers(-3, 4, size=(m, n)).astype(float) if rng.random() < 0.5 else rng.normal(size=(m, n))
    senses = rng.choice(["=", "<=", ">="], size=m).tolist()
    nonneg = rng.random(n) < 0.7
    if rng.random() < 0.6:
        v = np.where(nonneg, rng.uniform(0.0, 2.0, n), rng.normal(size=n))
        slack = rng.uniform(0.0, 1.0, m) * (rng.random(m) < 0.5)
        b = A @ v + np.select([np.array(senses) == "<=", np.array(senses) == ">="], [slack, -slack])
    else:
        b = rng.normal(size=m)
    c = rng.normal(size=n) if rng.random() < 0.8 else np.zeros(n)
    return c, A, senses, b, nonneg


def degenerate(seed: int, how: str):
    """random_lp with a rank-deficient matrix (a row that is a combination of
    two others), a zero column or a repeated column."""
    c, A, senses, b, nonneg = random_lp(seed)
    rng = np.random.default_rng(seed + 1)
    if how == "rank":  # a row repeated as a combination of two others
        i, j = rng.integers(0, A.shape[0], size=2)
        A = np.vstack([A, A[i] - 2.0 * A[j]])
        b = np.append(b, b[i] - 2.0 * b[j])
        senses.append("=" if senses[i] == senses[j] == "=" else "<=")
        if senses[-1] == "<=":
            b[-1] += 1.0
    elif how == "zero":  # a generator that maps to nothing
        A[:, rng.integers(0, A.shape[1])] = 0.0
    elif how == "twin":  # the same generator twice
        k = rng.integers(0, A.shape[1])
        A, c = np.hstack([A, A[:, [k]]]), np.append(c, c[k])
        nonneg = np.append(nonneg, nonneg[k])
    return c, A, senses, b, nonneg


def signs(senses) -> np.ndarray:
    """-1 on the >= rows, which enter ``LinearProgram`` negated as <= rows."""
    return np.where(np.array(senses) == ">=", -1.0, 1.0)


def build(c, A, senses, nonneg) -> LinearProgram:
    return LinearProgram(c, signs(senses)[:, None] * A, np.array(senses) == "=", ~nonneg)


def solve_ours(c, A, senses, b, nonneg, lp=None):
    """(status, z, value, Farkas ray) of a fresh LP, or of lp re-solved at b;
    the ray is mapped back to the rows as given."""
    if lp is None:
        lp = build(c, A, senses, nonneg)
    status, z, value, _ = lp.solve(signs(senses) * b)
    return status, z, value, None if lp.ray is None else signs(senses) * lp.ray


def highs(c, A, senses, b, nonneg):
    """HiGHS's status, "optimal", "infeasible" or "unbounded", and value."""
    s = np.array(senses)
    ub = np.vstack([A[s == "<="], -A[s == ">="]])
    bub = np.concatenate([b[s == "<="], -b[s == ">="]])
    args = dict(A_ub=ub if ub.size else None, b_ub=bub if ub.size else None,
                A_eq=A[s == "="] if (s == "=").any() else None,
                b_eq=b[s == "="] if (s == "=").any() else None,
                bounds=[(0, None) if nn else (None, None) for nn in nonneg], method="highs")
    feas = linprog(np.zeros(len(c)), **args)
    assert feas.status in (0, 2), feas.message
    if feas.status == 2:
        return "infeasible", None
    res = linprog(c, **args)
    if res.status == 2:  # presolve can call a feasible, unbounded program infeasible
        res = linprog(c, **args, options={"presolve": False})
    assert res.status in (0, 3, 4), res.message
    return ("optimal", res.fun) if res.status == 0 else ("unbounded", None)


def standard_form(A, senses, nonneg):
    """[A_nonneg | A_free | -A_free | slacks]: the program as {T v = b, v >= 0}."""
    slack = np.zeros((A.shape[0], sum(s != "=" for s in senses)))
    for k, i in enumerate(i for i, s in enumerate(senses) if s != "="):
        slack[i, k] = 1.0 if senses[i] == "<=" else -1.0
    free = A[:, ~nonneg]
    return np.hstack([A[:, nonneg], free, -free, slack])


def agree(lp, reference=None, factor: float = 1.0, built=None):
    """lp's verdict against HiGHS's on reference (lp itself by default),
    whose optimal value times factor is lp's; ``built`` re-solves a
    ``LinearProgram`` of the same rows at lp's right-hand side."""
    c, A, senses, b, nonneg = lp
    status, z, value, ray = solve_ours(*lp, lp=built)
    if status is SolveStatus.ITERATION_LIMIT:
        return
    want, fun = highs(*(reference or lp))
    assert status.value == want, (status, want)
    bscale = float(np.abs(b).max())
    if status is SolveStatus.OPTIMAL:
        fun *= factor
        assert abs(value - fun) <= 1e-7 * max(abs(fun), factor), (value, fun)
        assert abs(c @ z - value) <= 1e-9 * max(abs(value), factor)
        assert (z[nonneg] >= -1e-9 * bscale).all()
        gap = A @ z - b
        s = np.array(senses)
        worst = np.concatenate([np.abs(gap[s == "="]), gap[s == "<="], -gap[s == ">="], [0.0]])
        assert worst.max() <= 1e-8 * bscale
    elif status is SolveStatus.INFEASIBLE:
        assert ray is not None and ray.shape == b.shape
        pairing, defect = oracles.farkas_checks(standard_form(A, senses, nonneg), b, ray)
        assert pairing > 0.0 and defect <= 1e-8 * max(1.0, np.abs(A).max()), (pairing, defect)
    else:
        assert ray is None


@settings(max_examples=150)
@given(st.integers(0, 100_000))
def test_random_lps_agree_with_highs(seed):
    agree(random_lp(seed))


@settings(max_examples=150)
@given(st.integers(0, 100_000), st.sampled_from(["rank", "zero", "twin"]))
def test_degenerate_lps_agree_with_highs(seed, how):
    agree(degenerate(seed, how))


@settings(max_examples=150)
@given(st.integers(0, 100_000), st.sampled_from(SCALES), st.sampled_from(SCALES))
def test_scaled_lps_agree_with_highs_at_unit_scale(seed, b_scale, c_scale):
    # {A v = s b} is s times {A v = b}, and t c has the optimal face of c:
    # every verdict stays and the value scales by s t.  HiGHS judges
    # feasibility to an absolute 1e-7, so it sees the unit-scale program
    c, A, senses, b, nonneg = lp = random_lp(seed)
    agree((c_scale * c, A, senses, b_scale * b, nonneg), lp, b_scale * c_scale)


@given(st.integers(0, 100_000))
def test_right_hand_side_sweeps_agree_with_highs(seed):
    # one LP re-solved at several right-hand sides: cached bases, dual
    # simplex repairs and their Farkas rays, and cold solves in between
    rng = np.random.default_rng(seed)
    c, A, senses, b, nonneg = random_lp(seed)
    built = build(c, A, senses, nonneg)
    for k in range(6):
        if k:
            b = b + rng.normal(scale=0.5, size=b.shape) if k % 2 else A @ np.where(
                nonneg, rng.uniform(0.0, 2.0, A.shape[1]), rng.normal(size=A.shape[1]))
        agree((c, A, senses, b, nonneg), built=built)


def test_small_lps_are_all_decided():
    # ITERATION_LIMIT is honest but should stay rare: a ray or basis that
    # fails its check turns a verdict into one, so count them on fixed seeds
    undecided = [(seed, how) for seed in range(150) for how in (None, "rank", "zero", "twin")
                 if solve_ours(*(degenerate(seed, how) if how else random_lp(seed)))[0]
                 is SolveStatus.ITERATION_LIMIT]
    assert undecided == []


def test_standard_form_matches_a_row_by_row_build():
    # each free variable's two columns stay adjacent, z+ then -z-, and the
    # slacks follow the <= rows in order
    for seed in range(40):
        c, A, senses, _, nonneg = random_lp(seed)
        lp = build(c, A, senses, nonneg)
        rows = [(row, "=" if s == "=" else "<=")
                for row, s in zip(signs(senses)[:, None] * A, senses)]
        want_A, want_c = oracles.standard_form_by_rows(c, ~nonneg, rows)
        assert np.array_equal(lp.A, want_A) and np.array_equal(lp.c, want_c), seed
