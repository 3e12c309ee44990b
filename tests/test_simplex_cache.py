"""The optimal-basis cache of ``simplex._WarmStart``.

A basis is keyed by its kept rows and its column set, so one met twice is
kept once; the 17th distinct basis evicts the oldest.  The cached inverses
live in one stack, oldest first, which every record and eviction keeps up to
date: it must always equal the entries' inverses stacked afresh.
"""
import numpy as np
import pytest

from conekit import parse_instance, random_polyhedral_instance, simplex
from conekit.simplex import _BASIS_CACHE_SIZE, LinearProgram, _WarmStart
from conekit.solver import MinNormSweep


class Restacking(_WarmStart):
    """The cache as a scan of every entry, with its inverses kept apart and
    stacked afresh before every solve."""

    def __init__(self, A, c):
        super().__init__(A, c)
        self.inverses = []

    def _record(self, rows, cols, M):
        if cols.size == 0 or any(np.array_equal(r, rows) and set(c.tolist()) == set(cols.tolist())
                                 for r, c in self.entries):
            return
        if len(self.entries) == _BASIS_CACHE_SIZE:
            del self.entries[0], self.inverses[0]
        self.entries.append((rows, cols))
        self.inverses.append(M)

    def solve(self, b):
        if self.entries:
            self._stack = np.vstack(self.inverses)
            self._starts = np.cumsum([0] + [c.size for _, c in self.entries[:-1]])
        return super().solve(b)


def assert_cache(warm, model):
    """warm holds the entries of model, a ``Restacking``, and its stack and
    starts are model's inverses stacked afresh."""
    assert len(warm.entries) == len(model.entries) <= _BASIS_CACHE_SIZE
    for (r, c), (r2, c2) in zip(warm.entries, model.entries):
        assert np.array_equal(r, r2) and np.array_equal(c, c2)
    if model.entries:
        assert np.array_equal(warm._stack, np.vstack(model.inverses))
        sizes = [c.size for _, c in model.entries]
        assert warm._starts.tolist() == np.cumsum([0] + sizes[:-1]).tolist()
    else:
        assert warm._stack.shape == (0, warm.A.shape[0]) and warm._starts.size == 0
    for k, M in enumerate(model.inverses):
        assert np.array_equal(warm._entry(k)[2], M)
    assert len(warm._keys) == len(warm.entries)


def basis(k, m=6, size=3):
    """The k-th synthetic basis of an m-row program: rows, columns, inverse."""
    rng = np.random.default_rng(k)
    size = 1 + k % size
    rows = np.sort(rng.choice(m, size, replace=False))
    return rows, np.arange(k, k + size), rng.standard_normal((size, m))


def caches(n):
    A, c = np.ones((6, n)), np.ones(n)
    return _WarmStart(A, c), Restacking(A, c)


def test_a_basis_met_twice_is_recorded_once():
    warm, model = caches(40)
    rows, cols, M = basis(1)
    # the same kept rows and column set, columns in another order; then other kept rows
    for args in ((rows, cols, M), (rows.copy(), cols[::-1].copy(), M + 1.0),
                 (np.setdiff1d(np.arange(6), rows)[: rows.size], cols, M)):
        warm._record(*args)
        model._record(*args)
        assert_cache(warm, model)
    assert len(warm.entries) == 2
    assert np.array_equal(warm._entry(0)[2], M)


def test_the_17th_basis_evicts_the_oldest():
    warm, model = caches(80)
    made = [basis(k) for k in range(3 * _BASIS_CACHE_SIZE)]
    for k, args in enumerate(made + made[:1]):  # an evicted basis is new again
        warm._record(*args)
        model._record(*args)
        assert_cache(warm, model)
        assert len(warm.entries) == min(k + 1, _BASIS_CACHE_SIZE)
    assert np.array_equal(warm.entries[-1][1], made[0][1])
    assert np.array_equal(warm.entries[0][1], made[2 * _BASIS_CACHE_SIZE + 1][1])


@pytest.mark.parametrize("seed", [0, 4, 6])  # 91, 111 and 36 distinct bases
def test_a_sweep_matches_one_that_restacks_before_every_solve(seed, monkeypatch, spy):
    T = parse_instance(random_polyhedral_instance(seed)).map
    xs = np.random.default_rng(7).standard_normal((200, T.matrix.shape[0]))
    models, seen = {}, set()
    record = _WarmStart._record

    def checked(self, rows, cols, M):  # the cache against the reference after every record
        model = models.setdefault(id(self), Restacking(self.A, self.c))
        record(self, rows, cols, M)
        model._record(rows, cols, M)
        assert_cache(self, model)
        seen.update(self._keys)

    def sweep():
        answers = []
        spy(LinearProgram, "solve", answers)
        s = MinNormSweep(T.matrix, T.cone, T.domain_norm)
        for x in xs:
            s.value(x)
        monkeypatch.undo()
        return answers

    monkeypatch.setattr(_WarmStart, "_record", checked)
    answers = sweep()
    assert len(seen) > _BASIS_CACHE_SIZE  # the sweep evicts
    monkeypatch.setattr(simplex, "_WarmStart", Restacking)
    reference = sweep()
    assert len(answers) == len(reference) == len(xs)
    for (st, z, value, its), (st2, z2, value2, its2) in zip(answers, reference):
        assert st is st2 and its == its2
        assert value == value2 and (z is z2 is None or np.array_equal(z, z2))
