"""Differential gate: classify output on two fixed corpora.

The digest covers ``classify(f).to_json_dict()`` (or the name of the
exception it raises) for every signature of

* the test_09 sweep: 1000 ``random_ev`` draws at seed 90909, in test_09's
  draw order;
* 300 signatures with Gaussian-rational entries p/q + (r/s)i, a quarter
  of them zero, so that denominators other than 1 reach every layer.

A second digest covers the 500 signatures of ``benchmark/gen.py``'s
``planted_pool()``, planted in the tractable zones.  Their certificates
use the ``half_diag``, ``z`` and ``outer_rewrite`` steps that the two
corpora above barely reach, so a change to how steps are applied shows
there.  ``PLANTED`` was recorded when B6 began computing its
certificate in closed form: the 46 B6 signatures whose search used to
raise AssertionError now get tractable verdicts, and the other 454
outcomes are those recorded before the step matrices became constants.

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

from eightvertex.classify import classify
from eightvertex.numeric import Cyclo8
from eightvertex.signatures import EightVertexSig

from util import NONZERO_POOL, random_ev

GOLDEN = "5432e06ea835abbd1a0604d8ce78e6f4bf52bdd64d4979f04eb97ca524aeaffa"
PLANTED = "eda3605efe77ad9692053f7082238fd0901eebe36e3e0d83532eaf0e4b632f74"


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
