"""Cyclic 2-class group construction toolkit.

Certified search for imaginary quadratic fields whose 2-class group is
cyclic of a prescribed 2-power order, backed by an independent binary
quadratic form oracle, plus the residue-restricted Goldbach arithmetic
used to compare representation counts against their predicted main term.
Importing the package loads none of its modules, so each command of
`cyclic2.cli` loads only the ones it runs.
"""

__version__ = "0.1.0"
