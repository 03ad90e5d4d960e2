"""Gram growth against an independent reference, and its sharing per state.

The reference below is the direct algorithm: after every admission each
remaining candidate is scored by a full solve against the pivot Gram.  The
growth in classify keeps an incremental LDL* factor instead, and in exact
arithmetic it must reproduce the reference exactly -- the same pivots in the
same order, the same Gram, the same level ranks.
"""

from fractions import Fraction

import pytest

import cuntzlab.classify as classify
from cuntzlab import gram_growth, state_from_spec
from cuntzlab.cli import run
from cuntzlab.linalg import solve
from cuntzlab.moments import MomentFunctional
from cuntzlab.scalars import DEFAULT_RANK_TOL, conj

from conftest import fr, q


def _real(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if hasattr(x, "re"):
        return x.re
    return complex(x).real


def reference_growth(omega, L_max):
    """(pivots, gram, level_ranks, stabilized, last_level) by a full solve per candidate."""
    pivots = [()]
    gram = [[omega.moment((), ())]]
    level_ranks = [1]
    frontier = [()]
    stabilized = False
    level = 0
    for level in range(1, L_max + 1):
        cands = [p + (i,) for p in frontier for i in range(1, omega.n + 1)]
        added = []
        while cands:
            scored = []
            for c in cands:
                r = [omega.moment(p, c) for p in pivots]
                coords = solve(gram, r)
                proj = sum((conj(x) * v for x, v in zip(coords, r)), 0)
                diag = _real(omega.moment(c, c))
                res2 = diag - _real(proj)
                if isinstance(res2, Fraction):
                    ok = res2 > 0
                else:
                    ok = max(res2, 0.0) > DEFAULT_RANK_TOL * max(1.0, diag)
                if ok:
                    scored.append((res2, tuple(-a for a in c), c))
            if not scored:
                break
            best = max(scored)[2]
            for i, p in enumerate(pivots):
                gram[i].append(omega.moment(p, best))
            gram.append([omega.moment(best, p) for p in pivots] + [omega.moment(best, best)])
            pivots.append(best)
            added.append(best)
            cands.remove(best)
        level_ranks.append(len(pivots))
        if not added:
            stabilized = True
            break
        frontier = added
    return tuple(pivots), tuple(map(tuple, gram)), tuple(level_ranks), stabilized, level


def _s(x):
    """A spec scalar [re, im] from a Gaussian rational."""
    x = q(x) if not hasattr(x, "re") else x
    return [str(x.re), str(x.im)]


def _vec(xs):
    return [_s(x) for x in xs]


C2, C2B = _vec([fr(3, 5), fr(4, 5)]), _vec([fr(4, 5), q(0, fr(3, 5))])
C3, C3B = _vec([fr(1, 3), fr(2, 3), q(0, fr(2, 3))]), _vec([fr(2, 3), fr(-1, 3), fr(2, 3)])
U2 = [_vec([fr(3, 5), q(0, fr(4, 5))]), _vec([q(0, fr(4, 5)), fr(3, 5)])]
U3 = [
    _vec([fr(1, 3), fr(2, 3), fr(2, 3)]),
    _vec([fr(2, 3), fr(1, 3), fr(-2, 3)]),
    _vec([q(0, fr(2, 3)), q(0, fr(-2, 3)), q(0, fr(1, 3))]),
]


def _creation(n, word):
    return {"n": n, "terms": [{"J": list(word), "K": [], "re": 1, "im": 0}]}


# one state per family and alphabet; the series state never stabilizes, so
# its cap stays at 5 to keep the reference fast
STATES = {
    "n2_cuntz": ({"family": "cuntz", "z": C2}, 8),
    "n2_sub_cuntz": ({"family": "sub_cuntz", "n": 2, "m": 2, "z": _vec([fr(1, 2), fr(1, 2), q(0, fr(1, 2)), fr(-1, 2)])}, 8),
    "n2_progression": ({"family": "geometric_progression", "n": 2, "k": 2, "z": _vec([fr(2, 3), fr(2, 3), fr(1, 3)])}, 8),
    "n2_prefix_code": ({"family": "prefix_code", "n": 2, "code": [[1, 1], [1, 2], [2]],
                        "z": _vec([fr(2, 3), fr(1, 3), q(0, fr(2, 3))])}, 8),
    "n2_induced_product": ({"family": "induced_product", "n": 2, "pre": [C2],
                            "rep": [_vec([fr(5, 13), q(0, fr(12, 13))])]}, 8),
    "n2_sandwich": ({"family": "sandwich", "base": {"family": "cuntz", "z": [1, 0]},
                     "terms": [[[1, 0], _creation(2, (2,))]]}, 8),
    "n2_gauge": ({"family": "gauge", "base": {"family": "prefix_code", "n": 2, "code": [[1, 1], [1, 2], [2]],
                                              "z": _vec([fr(2, 3), fr(1, 3), q(0, fr(2, 3))])},
                  "g": U2}, 8),
    "n2_mixture": ({"family": "mixture", "components": [{"family": "cuntz", "z": C2}, {"family": "cuntz", "z": C2B}],
                    "weights": _vec([fr(1, 3), fr(2, 3)])}, 8),
    "n2_sandwich_series": ({"family": "sandwich_series"}, 5),
    "n2_shift": ({"family": "shift", "n": 2, "word": {"pre": [1], "per": [1, 2]}}, 8),
    "n2_grid": ({"family": "vector", "rep": {"kind": "grid", "n": 2}, "key": [1, 0]}, 8),
    "n2_lazy": ({"family": "vector", "rep": {"kind": "lazy", "preset": "thue_morse", "horizon": 256},
                 "key": [[], 0]}, 8),
    "n3_cuntz": ({"family": "cuntz", "z": C3}, 8),
    "n3_sub_cuntz": ({"family": "sub_cuntz", "n": 3, "m": 2,
                      "z": _vec([fr(1, 3) if k else q(0, fr(1, 3)) for k in (1, 1, 0, 1, -1, 1, 1, 0, -1)])}, 8),
    "n3_progression": ({"family": "geometric_progression", "n": 3, "k": 2,
                        "z": _vec([fr(2, 5), fr(2, 5), fr(2, 5), fr(2, 5), fr(3, 5)])}, 8),
    "n3_prefix_code": ({"family": "prefix_code", "n": 3, "code": [[1], [2, 1], [2, 2], [2, 3], [3]],
                        "z": _vec([fr(2, 5), fr(2, 5), q(0, fr(3, 5)), fr(2, 5), fr(2, 5)])}, 8),
    "n3_induced_product": ({"family": "induced_product", "n": 3, "pre": [], "rep": [C3, C3B]}, 8),
    "n3_sandwich": ({"family": "sandwich", "base": {"family": "cuntz", "z": [1, 0, 0]},
                     "terms": [[[1, 0], _creation(3, (2,))]]}, 8),
    "n3_gauge": ({"family": "gauge", "base": {"family": "cuntz", "z": C3B}, "g": U3}, 8),
    "n3_mixture": ({"family": "mixture", "components": [{"family": "cuntz", "z": C3}, {"family": "cuntz", "z": C3B}],
                    "weights": _vec([fr(1, 4), fr(3, 4)])}, 8),
    "n3_shift": ({"family": "shift", "n": 3, "word": {"pre": [3], "per": [1, 2]}}, 8),
    "n3_grid": ({"family": "vector", "rep": {"kind": "grid", "n": 3}, "key": [1, 0]}, 8),
}


@pytest.mark.parametrize("name", sorted(STATES))
def test_exact_growth_matches_full_solve_reference(name):
    spec, L_max = STATES[name]
    omega = state_from_spec(spec)
    g = gram_growth(omega, L_max)
    want = reference_growth(state_from_spec(spec), L_max)
    gram = tuple(map(tuple, omega.model.gram(g.pivots)))
    assert (g.pivots, gram, g.level_ranks, g.stabilized, g.last_level) == want


@pytest.mark.parametrize("name", sorted(STATES))
def test_float_level_ranks_match_exact_twin(name):
    spec, L_max = STATES[name]
    exact = gram_growth(state_from_spec(spec), L_max)
    floating = gram_growth(state_from_spec(spec, "float"), L_max)
    assert floating.level_ranks == exact.level_ranks
    assert floating.stabilized == exact.stabilized


def test_float_residuals_within_the_rank_tolerance_tie_in_word_order():
    # a raw float functional whose level-1 residuals differ by 1e-15 in
    # favour of (2,): within the rank tolerance, so (1,) is admitted first
    moments = {((), ()): 1.0, ((1,), (1,)): 0.5, ((2,), (2,)): 0.5 + 1e-15}
    omega = MomentFunctional(2, "raw", lambda J, K: moments.get((J, K), 0.0), exact=False)
    assert moments[(2,), (2,)] > moments[(1,), (1,)]
    g = gram_growth(omega, 1)
    assert g.pivots == ((), (1,), (2,))
    assert g.level_ranks == (1, 3)


@pytest.mark.parametrize("name", sorted(STATES))
def test_exact_factor_multiplies_back_to_the_gram(name):
    spec, L_max = STATES[name]
    omega = state_from_spec(spec)
    g = gram_growth(omega, L_max)
    gram = omega.model.gram(g.pivots)
    d = len(g.pivots)
    unit_lower = [list(row) + [1] + [0] * (d - k - 1) for k, row in enumerate(g.lower)]
    for i in range(d):
        for j in range(d):
            entry = sum((unit_lower[i][k] * g.dvals[k] * conj(unit_lower[j][k]) for k in range(d)), 0)
            assert entry == gram[i][j], (i, j)
    assert all(dk > 0 for dk in g.dvals)


@pytest.mark.parametrize("name", sorted(STATES))
def test_exact_growth_records_each_scored_child(name):
    spec, L_max = STATES[name]
    omega = state_from_spec(spec)
    g = gram_growth(omega, L_max)
    d = len(g.pivots)
    words = [child for child, _ in g.children]
    assert len(set(words)) == len(words)
    if g.stabilized:
        assert set(words) == {p + (i,) for p in g.pivots for i in range(1, omega.n + 1)}
    for child, y in g.children:
        # y is the forward solve L y = r along the first len(y) pivots
        for k, yk in enumerate(y):
            r = omega.moment(g.pivots[k], child)
            assert r == yk + sum((g.lower[k][j] * y[j] for j in range(k)), 0), (child, k)
        res2 = _real(omega.moment(child, child)) - sum((_real(conj(yk) * yk) / dk for yk, dk in zip(y, g.dvals)), 0)
        if child in g.pivots:
            # an admitted child ran along the pivots before it, and its residual is its D
            k = g.pivots.index(child)
            assert len(y) == k and res2 == g.dvals[k] > 0
        else:
            # a dropped child lies in the span of the pivots it met
            assert len(y) <= d and res2 == 0, child


def test_growth_is_shared_and_immutable():
    omega = state_from_spec(STATES["n2_prefix_code"][0])
    g = gram_growth(omega, 8)
    assert gram_growth(omega, 8) is g
    assert gram_growth(omega, 5) is not g
    assert isinstance(g.pivots, tuple) and isinstance(g.level_ranks, tuple)
    assert not hasattr(g, "gram")  # the metric is read off the model when a presentation needs it
    assert isinstance(g.dvals, tuple) and all(isinstance(row, tuple) for row in g.lower)
    assert isinstance(g.children, tuple) and all(isinstance(y, tuple) for _, y in g.children)
    with pytest.raises(AttributeError):
        g.pivots = ()


def test_report_grows_each_state_once_per_key(spec_file, monkeypatch, capsys):
    calls = []
    grow = classify._grow

    def counting(omega, L_max, tol):
        calls.append((omega, L_max, tol))
        return grow(omega, L_max, tol)

    monkeypatch.setattr(classify, "_grow", counting)
    specs = [spec_file(STATES[name][0]) for name in ("n2_prefix_code", "n2_sandwich", "n2_mixture")]
    assert run(["report", *specs]) == 0
    capsys.readouterr()
    # cdim, kappa and the pairwise verdicts of three states share one growth each
    assert len(calls) == 3
    assert len(set(calls)) == 3
