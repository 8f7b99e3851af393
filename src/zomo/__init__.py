"""Verification toolkit for extremal curve automorphism 3-groups:
presentation enumeration and structure analysis, exact Riemann-Hurwitz
arithmetic, and explicit Kummer-cover constructions over small prime fields.
"""

__version__ = "0.1.0"


class ZomoError(Exception):
    """Base of the errors zomo raises on input it cannot work with: a bad
    field size, presentation, curve, profile or setting.  The command line
    prints them as ``error: ...`` and exits with code 2."""
