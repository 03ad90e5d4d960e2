"""Acceptance gate: every advertised capability, end to end.

These are the same checks `cuntzlab selftest` runs.  Each criterion covers
one headline behavior on desk-scale instances (n in {2, 3}, word lengths
at most 8) and must finish in under ten seconds:

 1. cuntz_states_cdim_one ............ random exact Cuntz states have
    cdim 1, stabilized, exactly (no tolerance).
 2. sandwich_interval_then_user_equivalence ... the compressed state over
    z=(1,0) has cdim 2 exactly; kappa stays an honest [1,2] interval until
    the user supplies the closing equivalence, which certifies kappa=1.
 3. conjugate_word_states_equivalent ... the two length-2 word states get
    minimality certificates, cdim 2 each, are equivalent, and the cross
    moment vanishes exactly.
 4. exact_vs_float_pair_separated .... the basis word state (exact) and
    the balanced superposition (float) both certify kappa=2 yet are
    inequivalent.
 5. phase_marked_states_separate ..... depth-d marked states, d in 2..5,
    have cdim d exactly and all phase pairs per depth separate.
 6. progression_minimality_and_closing_parameter ... progression states
    have cdim <= k with verified minimality; the closing parameter map
    produces cdim 1.
 7. delta_tables_prove_properly_infinite ... the grid base state passes
    the delta-table identity to cutoff 12 and random induced products to
    cutoff 6; both certify kappa = infinity as proved.
 8. series_state_kappa_one_rank_grows ... the summed compression state
    certifies kappa=1 while its exact level-L Gram rank is L+1, L=1..6.
 9. shift_word_dictionary ............ exhaustively over eventually
    periodic words (preperiod <= 2, period <= 4, n=2): cdim counts tails,
    kappa equals the period, minimality iff purely periodic.
10. structural_identities_and_gauge_invariance ... Hermitian symmetry,
    row consistency, level-2 positivity, gauge invariance of level ranks
    and kappa, word-state vs shift-state agreement, and the solution-space
    dimension of tensor powers.
"""

import importlib.util
import random
import sys
import time
from pathlib import Path

import pytest

from cuntzlab.selftest import CRITERIA, GATE_SEED, run_all

TIME_LIMIT_SECONDS = 10.0
BENCH_CORPUS = Path(__file__).resolve().parent.parent / "bench" / "corpus.py"


@pytest.mark.parametrize(
    "offset,name,fn",
    [(i, name, fn) for i, (name, fn) in enumerate(CRITERIA)],
    ids=[name for name, _ in CRITERIA],
)
def test_criterion(offset, name, fn):
    rng = random.Random(GATE_SEED + offset)
    start = time.perf_counter()
    ok, detail = fn(rng)
    elapsed = time.perf_counter() - start
    assert ok, f"{name}: {detail}"
    assert elapsed < TIME_LIMIT_SECONDS, f"{name} took {elapsed:.1f}s"


def test_run_all_matches_parametrized_runs():
    results = run_all(GATE_SEED)
    assert len(results) == len(CRITERIA)
    failed = [r.name for r in results if not r.ok]
    assert not failed, f"failing criteria: {failed}"


def test_benchmark_runs_the_gate_seed(monkeypatch):
    # the benchmark's selftest workload writes the seed out again; it is
    # loaded by path because bench/ is not a package, and registered while it
    # runs because its dataclasses look their module up
    spec = importlib.util.spec_from_file_location("bench_corpus", BENCH_CORPUS)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)
    spec.loader.exec_module(corpus)
    assert corpus.GATE_SEED == GATE_SEED
