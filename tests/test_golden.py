"""Differential gates: classify and in_A output on fixed corpora.

The digest covers ``classify(f).to_json_dict()`` (or the name of the
exception it raises) for every signature of

* the test_09 sweep: 1000 ``random_ev`` draws at seed 90909, in test_09's
  draw order;
* 300 signatures with Gaussian-rational entries p/q + (r/s)i, a quarter
  of them zero, so that denominators other than 1 reach every layer.

A further digest covers the 500 signatures of ``benchmark/gen.py``'s
``planted_pool()``, planted in the tractable zones.  Their certificates
use the ``half_diag``, ``z`` and ``outer_rewrite`` steps that the two
corpora above barely reach, so a change to how steps are applied shows
there.  ``PLANTED`` was recorded when B6 began computing its
certificate in closed form: the 46 B6 signatures whose search used to
raise AssertionError now get tractable verdicts, and the other 454
outcomes are those recorded before the step matrices became constants.

``A_CERTS`` covers ``in_A`` alone: the certificate's lam, offset, basis,
linear and cross terms (or None) for 1000 ``random_affine_signature``
draws of arity 1-5, each times an entry of ``NONZERO_POOL``, a one-entry
mutant of each, and the test_09 sweep as arity-4 signatures.  It was
recorded before ``in_A`` read its walk tables from ``AffineSpace``.

``EVAL`` covers Holant values: ``str()`` of ``brute_force`` on random
grids over signatures with non-unit denominators, of ``affine_eval`` and
``brute_force`` on class-A grids, of the channel sums and values of
``interpolation_demo`` for several t, and of ``tutte33`` on K4.  It was
recorded before ``Scalar`` became a name for ``Cyclo8``.

Over the same two corpora and the planted pool, one more test pins the
one signature type: each eight-vertex signature is an arity-4
``Signature`` that is 0 at the odd-weight positions, survives
``parse(str(f))``, is its own readoff, and gives the same
``brute_force`` and ``affine_eval`` outcome whether a grid file writes
it as ``{"eightvertex": ...}`` or as its 16 values.

``GOLDEN`` was recorded with the Fraction-backed ``Cyclo8`` that the
integer representation replaced.  A refactor that changes any verdict,
branch, certificate or reason changes the digest.
"""

import hashlib
import importlib.util
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from eightvertex.classes import in_A
from eightvertex.classify import classify
from eightvertex.evaluate import (
    Graph, Grid, NotAffineSignature, affine_eval, brute_force,
    interpolation_demo, slot_signature, tutte33,
)
from eightvertex.numeric import Cyclo8, I
from eightvertex.signatures import (
    EightVertexSig, Signature, eight_vertex_readoff,
)

from util import (
    ENTRY_POOL, NONZERO_POOL, quadratic_signature, random_affine_signature,
    random_ev, random_grid,
)

GOLDEN = "5432e06ea835abbd1a0604d8ce78e6f4bf52bdd64d4979f04eb97ca524aeaffa"
PLANTED = "eda3605efe77ad9692053f7082238fd0901eebe36e3e0d83532eaf0e4b632f74"
A_CERTS = "f2a0c10621e9d2699f75162f286cb43fffd79be2e4f360f019dcc77e64011210"
EVAL = "cb736bed61197cd3c9fb7bddbd1a64f48dc4dfc58bc18acaf1561cc509db6dd6"


def sweep_corpus():
    rng = random.Random(90909)
    for _ in range(1000):
        yield random_ev(rng)
        rng.choice(NONZERO_POOL)   # test_09's rescaling draw


def gaussian_corpus():
    rng = random.Random(4242)

    def entry():
        if rng.random() < 0.25:
            return Cyclo8(0)
        re = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        im = Fraction(rng.randint(-5, 5), rng.randint(1, 6))
        return Cyclo8(re, 0, im, 0)

    for _ in range(300):
        yield EightVertexSig(*(entry() for _ in range(8)))


def outcome(f) -> str:
    try:
        return json.dumps(classify(f).to_json_dict(), sort_keys=True)
    except Exception as exc:   # the exception type is part of the behaviour
        return type(exc).__name__


def planted_corpus():
    path = Path(__file__).resolve().parent.parent / "benchmark" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for item in gen.planted_pool():
        yield EightVertexSig.parse(item["sig"])


def corpus_digest(*corpora) -> str:
    h = hashlib.sha256()
    for corpus in corpora:
        for f in corpus:
            h.update(outcome(f).encode())
            h.update(b"\n")
    return h.hexdigest()


def test_classify_golden_digest():
    assert corpus_digest(sweep_corpus(), gaussian_corpus()) == GOLDEN


def test_planted_certificate_digest():
    assert corpus_digest(planted_corpus()) == PLANTED


# the eight odd-weight positions, where an eight-vertex signature is 0
OFF_PAIR = [m for m in range(16) if m.bit_count() % 2]


def grid_outcomes(spec: dict) -> list:
    """brute_force and affine_eval (or "not in A") on two vertices of
    the signature spec, port p of one joined to port 5 - p of the
    other, read from a grid file."""
    text = json.dumps({"signatures": {"F": spec},
                       "vertices": [{"sig": "F"}] * 2,
                       "edges": [[[0, p], [1, 5 - p]] for p in range(1, 5)]})
    out = []
    for evaluate in (brute_force, affine_eval):
        try:
            out.append(str(evaluate(Grid.from_json(text))))
        except NotAffineSignature:
            out.append("not in A")
    return out


def test_eight_vertex_signature_is_one_signature():
    # an eight-vertex signature is an arity-4 Signature, 0 off the pair
    # positions, and a grid file may write it either way; the planted
    # corpus puts 112 of its signatures in class A, so affine_eval also
    # evaluates, where on the other two it mostly refuses
    in_a = 0
    corpora = sweep_corpus(), gaussian_corpus(), planted_corpus()
    for k, f in enumerate(itertools.chain(*corpora)):
        assert isinstance(f, Signature) and f.arity == 4
        assert all(f.values[m].is_zero() for m in OFF_PAIR)
        assert EightVertexSig.parse(str(f)) == f
        assert eight_vertex_readoff(f) is f
        assert eight_vertex_readoff(Signature(4, f.values)) == f
        vals = list(f.values)
        vals[OFF_PAIR[k % 8]] = Cyclo8(1)
        assert eight_vertex_readoff(Signature(4, vals)) is None
        as_eight = grid_outcomes({"eightvertex": str(f)})
        assert as_eight == grid_outcomes(
            {"arity": 4, "values": [str(v) for v in f.values]})
        in_a += as_eight[1] != "not in A"
    assert in_a > 100


def affine_corpus():
    rng = random.Random(5151)
    for _ in range(1000):
        f = random_affine_signature(rng, rng.randint(1, 5))
        c = rng.choice(NONZERO_POOL)
        f = Signature(f.arity, [v * c for v in f.values])
        yield f
        vals = list(f.values)
        vals[rng.randrange(len(vals))] = rng.choice(ENTRY_POOL)
        yield Signature(f.arity, vals)
    yield from sweep_corpus()


def a_outcome(f) -> str:
    cert = in_A(f)
    if cert is None:
        return "None"
    space = cert.space
    return repr((str(cert.lam), space.offset, space.basis,
                 sorted(cert.lin.items()), sorted(cert.quad.items())))


def test_in_A_certificate_digest():
    h = hashlib.sha256()
    for f in affine_corpus():
        h.update(a_outcome(f).encode())
        h.update(b"\n")
    assert h.hexdigest() == A_CERTS


def eval_corpus():
    rng = random.Random(7171)

    def entry():
        if rng.random() < 0.3:
            return Cyclo8(0)
        return Cyclo8(*(Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                        for _ in range(4)))

    for _ in range(60):
        pool = {f"s{k}": Signature(ar, [entry() for _ in range(1 << ar)])
                for k, ar in enumerate((1, 2, 3, 4))}
        yield brute_force(random_grid(rng, pool, rng.randint(3, 9)))
    for _ in range(60):
        pool = {"q0": quadratic_signature(rng, 3),
                "q1": quadratic_signature(rng, 2),
                "r": random_affine_signature(rng, rng.randint(1, 3))}
        grid = random_grid(rng, pool, rng.randint(3, 12))
        yield affine_eval(grid)
        yield brute_force(grid)
    slots = Grid({"SLOT": slot_signature(0)}, ["SLOT", "SLOT"],
                 [((0, p), (1, p)) for p in range(1, 5)])
    for t in (2, Fraction(1, 3), Cyclo8(1, 0, 1, 0), Cyclo8(0, 1, 0, 2)):
        out = interpolation_demo(slots, t, [0, 3, Fraction(-1, 2), I])
        yield from out["channel_sums"]
        yield from out["values"].values()
    yield tutte33(Graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
                        {0: [0, 1, 2], 1: [0, 4, 3], 2: [1, 3, 5],
                         3: [2, 5, 4]}))


def test_eval_value_digest():
    h = hashlib.sha256()
    for value in eval_corpus():
        h.update(str(value).encode())
        h.update(b"\n")
    assert h.hexdigest() == EVAL
