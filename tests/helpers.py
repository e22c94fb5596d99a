"""Helpers shared by the test modules."""

from xyzspectra.exactpoly import IntPoly
from xyzspectra.transform import XyzCase


def case(s):
    return XyzCase.parse(s)


def from_roots(*roots):
    out = IntPoly.one()
    for c in roots:
        out = out * IntPoly.linear_root(c)
    return out
