"""Computational toolkit for unipotent classes of classical groups.

The package enumerates the partition combinatorics behind cuspidal
series for spin and special linear groups, constructs split unipotent
and nilpotent elements together with their component groups, verifies
the defining relations by exact finite-field linear algebra, and emits
the characteristic-function tables that form the computable basis for
generalized Green functions.

All arithmetic is exact: small finite fields are handled by table-based
integer encodings and character values live in explicit cyclotomic
rings.  Every constructor is a pure function of its arguments, so
outputs are bit-reproducible.
"""

__version__ = "0.1.0"
