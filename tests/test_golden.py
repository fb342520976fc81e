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

``GOLDEN`` was recorded with the Fraction-backed ``Cyclo8`` that the
integer representation replaced.  A refactor that changes any verdict,
branch, certificate or reason changes the digest.
"""

import hashlib
import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from eightvertex.classes import in_A
from eightvertex.classify import classify
from eightvertex.numeric import Cyclo8
from eightvertex.signatures import EightVertexSig, Signature

from util import ENTRY_POOL, NONZERO_POOL, random_affine_signature, random_ev

GOLDEN = "5432e06ea835abbd1a0604d8ce78e6f4bf52bdd64d4979f04eb97ca524aeaffa"
PLANTED = "eda3605efe77ad9692053f7082238fd0901eebe36e3e0d83532eaf0e4b632f74"
A_CERTS = "f2a0c10621e9d2699f75162f286cb43fffd79be2e4f360f019dcc77e64011210"


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
        yield EightVertexSig.make(*(entry() for _ in range(8)))


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
    for f in sweep_corpus():
        yield f.to_signature()


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
