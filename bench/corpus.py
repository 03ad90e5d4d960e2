"""Spec corpus and command sequence of each workload, generated from a seed.

The program only ever sees the spec files written here.  Every spec is
built from Gaussian rationals (pairs of Fractions); ``render`` writes a
scalar either exactly (``"p/q"`` strings and integers) or as a float twin,
so the exact and float workloads share one set of builders.

Members come in two kinds:

* fixed members, the same for every seed: one hand-written spec per family
  and alphabet (n = 2 and n = 3) plus the heavy members named in the notes;
* seeded members, drawn from ``random.Random(seed)``: rational unit vectors,
  exact unitaries, canonical eventually periodic words and primitive words.
  Each carries the answers that follow from its construction (``expect``),
  which the oracle checks on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("report_exact", "selftest", "report_float")

# the seed of the acceptance gate (tests/test_acceptance.py, `cuntzlab selftest`)
GATE_SEED = 20260814

Q = Fraction
ONE = (Q(1), Q(0))
ZERO = (Q(0), Q(0))


def g(re, im=0):
    return (Q(re), Q(im))


def gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def render(x, exact: bool):
    """A Gaussian rational as a spec scalar ``[re, im]``."""

    def part(p: Fraction):
        if not exact:
            return float(p)
        return p.numerator if p.denominator == 1 else f"{p.numerator}/{p.denominator}"

    return [part(x[0]), part(x[1])]


def vec(xs, exact):
    return [render(x, exact) for x in xs]


# ---------------------------------------------------------------------------
# Seeded exact parameters
# ---------------------------------------------------------------------------


def rational_unit(rng: random.Random, n: int) -> list:
    """A unit vector in Q(i)^n by inverse stereographic projection of small rationals."""
    p = [Q(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(2 * n - 1)]
    s = sum(q * q for q in p)
    coords = [2 * q / (s + 1) for q in p] + [(s - 1) / (s + 1)]
    return [(coords[2 * j], coords[2 * j + 1]) for j in range(n)]


_PHASES = (g(1), g(0, 1), g(-1), g(0, -1), g(Q(3, 5), Q(4, 5)), g(Q(-4, 5), Q(3, 5)), g(Q(5, 13), Q(-12, 13)))
_ROTATIONS = ((Q(3, 5), Q(4, 5)), (Q(5, 13), Q(12, 13)), (Q(8, 17), Q(15, 17)))


def _matmul(a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for k in range(n):
                t = gmul(a[i][k], b[k][j])
                acc = (acc[0] + t[0], acc[1] + t[1])
            row.append(acc)
        out.append(row)
    return out


def exact_unitary(rng: random.Random, n: int) -> list:
    """A product of a phase diagonal and two Pythagorean plane rotations."""
    out = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    diag = [[rng.choice(_PHASES) if i == j else ZERO for j in range(n)] for i in range(n)]
    out = _matmul(out, diag)
    for _ in range(2):
        c, s = rng.choice(_ROTATIONS)
        i = rng.randrange(n - 1)
        m = [[ONE if a == b else ZERO for b in range(n)] for a in range(n)]
        m[i][i], m[i][i + 1], m[i + 1][i], m[i + 1][i + 1] = g(c), g(s), g(-s), g(c)
        out = _matmul(out, m)
    return out


def is_primitive(w: tuple) -> bool:
    """True when w is not a proper power of a shorter word."""
    n = len(w)
    return all(n % p or w != w[:p] * (n // p) for p in range(1, n))


def primitive_word(rng: random.Random, n: int, lo: int, hi: int) -> tuple:
    while True:
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(lo, hi)))
        if is_primitive(w):
            return w


def canonical_epword(rng: random.Random, n: int) -> tuple[tuple, tuple]:
    """(pre, per) with per primitive and pre not ending in per's last letter.

    In that form no shorter preperiod or period describes the same word, so
    the number of distinct tails is exactly len(pre) + len(per).
    """
    per = primitive_word(rng, n, 1, 3)
    while True:
        pre = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        if not pre or pre[-1] != per[-1]:
            return pre, per


def rotation_of(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and any(a == b[i:] + b[:i] for i in range(len(b)))


# ---------------------------------------------------------------------------
# Spec builders (exact or float rendering of the same parameters)
# ---------------------------------------------------------------------------


def cuntz(z, exact=True):
    return {"family": "cuntz", "z": vec(z, exact)}


def sub_cuntz(n, m, z, exact=True):
    return {"family": "sub_cuntz", "n": n, "m": m, "z": vec(z, exact)}


def progression(n, k, z, exact=True):
    return {"family": "geometric_progression", "n": n, "k": k, "z": vec(z, exact)}


def prefix_code(n, code, z, exact=True):
    return {"family": "prefix_code", "n": n, "code": [list(w) for w in code], "z": vec(z, exact)}


def induced(n, pre, rep, exact=True):
    return {"family": "induced_product", "n": n, "pre": [vec(b, exact) for b in pre], "rep": [vec(b, exact) for b in rep]}


def gauge(base, u, exact=True):
    return {"family": "gauge", "base": base, "g": [vec(row, exact) for row in u]}


def mixture(components, weights, exact=True):
    return {"family": "mixture", "components": components, "weights": vec(weights, exact)}


def creation(n, word):
    """The element s_word of O_n."""
    return {"n": n, "terms": [{"J": list(word), "K": [], "re": 1, "im": 0}]}


def sandwich(base, terms, exact=True):
    return {"family": "sandwich", "base": base, "terms": [[render(c, exact), el] for c, el in terms]}


def shift(n, pre, per):
    return {"family": "shift", "n": n, "word": {"pre": list(pre), "per": list(per)}}


def _dense(rng: random.Random, n: int, m: int, moduli, denom: int) -> list:
    """n^m entries c/denom with every |c|^2 equal, so the vector is a unit."""
    units = (g(1), g(0, 1), g(-1), g(0, -1))
    z = []
    for _ in range(n**m):
        c = gmul(rng.choice(units), g(*rng.choice(moduli)))
        z.append((c[0] / denom, c[1] / denom))
    assert sum(a * a + b * b for a, b in z) == 1
    return z


U2 = [[g(Q(3, 5)), g(Q(4, 5))], [g(Q(-4, 5)), g(Q(3, 5))]]
U3 = [
    [g(Q(1, 3)), g(Q(2, 3)), g(Q(2, 3))],
    [g(Q(2, 3)), g(Q(1, 3)), g(Q(-2, 3))],
    [g(0, Q(2, 3)), g(0, Q(-2, 3)), g(0, Q(1, 3))],
]


C2, C2B = [g(Q(3, 5)), g(Q(4, 5))], [g(Q(4, 5)), g(0, Q(3, 5))]
C3, C3B = [g(Q(1, 3)), g(Q(2, 3)), g(0, Q(2, 3))], [g(Q(2, 3)), g(Q(-1, 3)), g(Q(2, 3))]
CUNTZ_VECTORS = {"n2_cuntz": C2, "n3_cuntz": C3}
SHIFT_PERIODS = {"n2_shift": (1, 2), "n3_shift": (1, 2)}


def light_fixed(exact: bool) -> dict[str, dict]:
    """One hand-written spec per parameterized family and alphabet."""
    e = exact
    return {
        "n2_cuntz": cuntz(C2, e),
        "n2_sub_cuntz": sub_cuntz(2, 2, [g(Q(1, 2)), g(Q(1, 2)), g(0, Q(1, 2)), g(Q(-1, 2))], e),
        "n2_progression": progression(2, 2, [g(Q(2, 3)), g(Q(2, 3)), g(Q(1, 3))], e),
        "n2_prefix_code": prefix_code(2, [(1, 1), (1, 2), (2,)], [g(Q(2, 3)), g(Q(1, 3)), g(0, Q(2, 3))], e),
        "n2_induced_product": induced(2, [C2], [[g(Q(5, 13)), g(0, Q(12, 13))]], e),
        "n2_sandwich": sandwich(cuntz([g(1), g(0)], e), [(ONE, creation(2, (2,)))], e),
        "n2_gauge": gauge(prefix_code(2, [(1, 2)], [ONE], e), U2, e),
        "n2_mixture": mixture([cuntz(C2, e), cuntz(C2B, e)], [g(Q(1, 3)), g(Q(2, 3))], e),
        "n3_cuntz": cuntz(C3, e),
        "n3_sub_cuntz": sub_cuntz(3, 2, [g(Q(k, 3)) if k else g(0, Q(1, 3)) for k in (1, 1, 0, 1, -1, 1, 1, 0, -1)], e),
        "n3_progression": progression(3, 2, [g(Q(2, 5)), g(Q(2, 5)), g(Q(2, 5)), g(Q(2, 5)), g(Q(3, 5))], e),
        "n3_prefix_code": prefix_code(3, [(1,), (2, 1), (2, 2), (2, 3), (3,)],
                                      [g(Q(2, 5)), g(Q(2, 5)), g(0, Q(3, 5)), g(Q(2, 5)), g(Q(2, 5))], e),
        "n3_induced_product": induced(3, [], [C3, C3B], e),
        "n3_sandwich": sandwich(cuntz([g(1), g(0), g(0)], e), [(ONE, creation(3, (2,)))], e),
        "n3_gauge": gauge(cuntz(C3B, e), U3, e),
        "n3_mixture": mixture([cuntz(C3, e), cuntz(C3B, e)], [g(Q(1, 4)), g(Q(3, 4))], e),
    }


def parameterless_fixed() -> dict[str, dict]:
    """Families without scalar parameters; they are exact in either mode."""
    return {
        "n2_shift": shift(2, (1,), (1, 2)),
        "n2_grid_vector": {"family": "vector", "rep": {"kind": "grid", "n": 2}, "key": [1, 0]},
        "n2_shift_vector": {"family": "vector", "rep": {"kind": "shift", "n": 2, "word": {"pre": [], "per": [1, 2]}},
                            "key": {"pre": [2], "per": [1, 2]}},
        "n2_lazy_vector": {"family": "vector", "rep": {"kind": "lazy", "preset": "thue_morse", "horizon": 256},
                           "key": [[], 0]},
        "n3_shift": shift(3, (3,), (1, 2)),
        "n3_grid_vector": {"family": "vector", "rep": {"kind": "grid", "n": 3}, "key": [1, 0]},
    }


def heavy_exact() -> dict[str, dict]:
    """The members that carry most of the exact work (timings in NOTES.md)."""
    word5 = [ZERO] * 32
    word5[0b01101] = ONE  # the primitive word 1 2 2 1 2
    return {
        "n2_heavy_sandwich_series": {"family": "sandwich_series"},
        "n2_heavy_gauge_word5": gauge(sub_cuntz(2, 5, word5), U2),
        "n2_heavy_progression_k5": progression(
            2, 5, [g(Q(1, 2)), g(Q(1, 2)), g(Q(1, 2)), g(Q(1, 4)), g(Q(1, 4)), g(Q(1, 4), Q(1, 4))]),
        "n2_heavy_sub_cuntz_m4": sub_cuntz(2, 4, _dense(random.Random(4), 2, 4, [(1, 0)], 4)),
    }


def heavy_float() -> dict[str, dict]:
    """Dense states of order 6 and 7 over n = 2 and of order 4 over n = 3.

    The entries are Gaussian rationals whose binary renderings are inexact
    (3/40, 7/80, ...), so the float run reads inexact parameters while the
    recorded exact answers are for the same numbers.
    """
    return {
        "n2_heavy_dense_m6": (2, 6, _dense(random.Random(6), 2, 6, [(3, 4), (4, 3)], 40)),
        "n2_heavy_dense_m7": (2, 7, _dense(random.Random(7), 2, 7, [(7, 1), (1, 7), (5, 5)], 80)),
        "n3_heavy_dense_m4": (3, 4, _dense(random.Random(34), 3, 4, [(3, 4), (4, 3), (5, 0)], 45)),
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Command:
    label: str
    argv: list
    specs: list  # spec names the command reads
    kind: str  # "report", "fcs" or "pairwise"


@dataclass
class Corpus:
    workload: str
    seed: int
    specs: dict = field(default_factory=dict)  # name -> spec document
    expect: dict = field(default_factory=dict)  # seeded spec name -> construction facts
    # spec name -> ("cuntz", z) or ("shift", period): two Cuntz states are
    # equivalent iff their vectors agree, two shift states iff their
    # primitive periods are rotations of each other
    pair_facts: dict = field(default_factory=dict)
    commands: list = field(default_factory=list)
    selftest_seeds: list = field(default_factory=list)

    def seeded(self, name: str) -> bool:
        return name in self.expect


def _seeded_members(rng: random.Random, exact: bool) -> tuple[dict, dict]:
    """Seeded specs with the facts their construction fixes."""
    specs, expect = {}, {}
    for n in (2, 3):
        z = rational_unit(rng, n)
        specs[f"n{n}_seed_cuntz"] = cuntz(z, exact)
        expect[f"n{n}_seed_cuntz"] = {"kind": "cuntz", "cdim": 1, "kappa": 1, "z": z}
        w = primitive_word(rng, n, 3, 3)
        word_spec = prefix_code(n, [w], [ONE], exact)
        specs[f"n{n}_seed_word"] = word_spec
        expect[f"n{n}_seed_word"] = {"kind": "word", "cdim": len(w), "kappa": len(w)}
        if n == 2:
            # the gauge evaluator sums n^(|J|+|K|) base moments: over n = 3 a
            # twisted word state costs seconds, so the seeded twist stays on n = 2
            specs["n2_seed_gauge_word"] = gauge(word_spec, exact_unitary(rng, n), exact)
            expect["n2_seed_gauge_word"] = {"kind": "gauge", "base": "n2_seed_word", "cdim": len(w), "kappa": len(w)}
        if exact:
            pre, per = canonical_epword(rng, n)
            specs[f"n{n}_seed_shift"] = shift(n, pre, per)
            expect[f"n{n}_seed_shift"] = {"kind": "shift", "cdim": len(pre) + len(per), "kappa": len(per),
                                          "per": per}
    pre = [rational_unit(rng, 2) for _ in range(rng.randint(0, 1))]
    rep = [rational_unit(rng, 2) for _ in range(rng.randint(1, 2))]
    specs["n2_seed_induced_product"] = induced(2, pre, rep, exact)
    expect["n2_seed_induced_product"] = {"kind": "induced"}
    return specs, expect


def report_commands(corpus: Corpus, groups: dict, extra: list, report_only=()) -> None:
    for name in corpus.specs:
        for kind in ("report",) if name in report_only else ("report", "fcs"):
            corpus.commands.append(Command(f"{kind}:{name}", [kind, f"{name}.json", "--format", "json", *extra],
                                           [name], kind))
    for alphabet, names in groups.items():
        corpus.commands.append(Command(f"pairwise:{alphabet}", ["report", *(f"{m}.json" for m in names),
                                                                "--format", "json", *extra], list(names), "pairwise"))


def pairwise_groups(names) -> dict:
    """One group per alphabet.  Gauge twists stay out: a pairwise report
    reports every state again, and a twist's report costs as much as the
    rest of its group."""
    return {f"n{n}": [s for s in names if s.startswith(f"n{n}_") and "gauge" not in s] for n in (2, 3)}


def build(workload: str, seed: int) -> Corpus:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    corpus = Corpus(workload, seed)
    rng = random.Random(seed)
    if workload == "selftest":
        # The gate's own seed, whatever the workload seed: the delta-table
        # criterion alone varies 6.4-15 s across seeds (NOTES.md), more than
        # the bounds allow between two runs of the same code.
        corpus.selftest_seeds = [GATE_SEED]
        return corpus
    exact = workload == "report_exact"
    light = {**light_fixed(exact), **(parameterless_fixed() if exact else {})}
    seeded, corpus.expect = _seeded_members(rng, exact)
    light.update(seeded)
    corpus.specs.update(light)
    if exact:
        corpus.specs.update(heavy_exact())
    else:
        for name, (n, m, z) in heavy_float().items():
            corpus.specs[name] = sub_cuntz(n, m, z, exact=False)
    # The heavy exact members run `report` only. Their `fcs` commands took
    # 4.4 of a 12.5 s pass; without them a pass is short enough for five
    # passes a run, and the fastest of five is what keeps the times steady
    # (NOTES.md, "Steadiness").
    report_commands(corpus, pairwise_groups(light), [] if exact else ["--mode", "float"],
                    report_only=heavy_exact() if exact else ())
    corpus.pair_facts = {name: ("cuntz", tuple(CUNTZ_VECTORS[name])) for name in CUNTZ_VECTORS}
    if exact:
        corpus.pair_facts.update({name: ("shift", per) for name, per in SHIFT_PERIODS.items()})
    for name, facts in corpus.expect.items():
        if facts["kind"] == "cuntz":
            corpus.pair_facts[name] = ("cuntz", tuple(facts["z"]))
        elif facts["kind"] == "shift":
            corpus.pair_facts[name] = ("shift", facts["per"])
    return corpus


def exact_twin(name: str, corpus: Corpus) -> dict | None:
    """The exact spec a float member renders, for fixed members only."""
    if name in corpus.expect:
        return None
    light = light_fixed(True)
    if name in light:
        return light[name]
    heavy = heavy_float()
    if name in heavy:
        n, m, z = heavy[name]
        return sub_cuntz(n, m, z)
    return None
