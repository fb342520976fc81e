"""Exact tools for eight-vertex Holant signatures: classification with
checkable certificates, exact partition-function evaluation, and the
gadget / Moebius machinery behind both.  Every value, from a signature
entry to a Holant sum, is an exact element of Q(zeta8), a ``Cyclo8``;
``scalar`` converts ints and Fractions to one and ``parse_cyclo8`` reads
the text syntax."""

from .numeric import Cyclo8, Rational, scalar, parse_cyclo8  # noqa: F401
from .signatures import Signature, EightVertexSig  # noqa: F401
