"""The size bounds on user input, each stated once, and `UsageError`.

The modules that enforce them import them from here, and so does the
command-line parser for its help text, which therefore loads none of
the arithmetic behind them.  This module imports nothing.  Only a check
of user input raises `UsageError`: the command line exits 2 on it, and
1 on any other exception, a bare ValueError too, as a bug in this code.
"""


class UsageError(ValueError):
    """User input refused by one of this package's checks."""


# The oracle's input bound (`forms`).  No oracle route keeps a form list,
# and a non-cyclic verdict counts its principal genus in the same walk,
# with no composition; h reaches about 2.3 * sqrt(d) when -d is a square
# modulo many small primes.  Near the bound, `verify --d 2898422567039`
# (h = 3,836,444, 4 ambiguous classes) takes about 0.9 s at 21 MB VmHWM
# on a 2-core machine (Python 3.11).  The k = 6 discriminant
# 2,250,562,845,943 (cyclic, h = 570,304) takes about 0.4 s at 19 MB
# VmHWM, by `verify --d` and by its certificate alike, on the same machine.
MAX_D = 3 * 10**12

# `verify --forms` bound: the one route that keeps a form list, and sorts
# it; h reaches about 2.3 * sqrt(d), so its memory grows like sqrt(d).
# `verify --d 9999010199 --forms` (h = 230,556) takes about 0.6 s at 75 MB
# VmHWM on a 2-core machine (Python 3.11), about 260 bytes per form; at
# that rate h = 3,836,444, reached near MAX_D, would need about 1 GB.
MAX_FORMS_D = 10**10

# The default d budget of `search` and `verify` (`factory`).
DEFAULT_D_BUDGET = 10**9

# Largest series truncation Q (`circle`).  The series time grows with Q,
# its memory does not: it sieves one chunk of 2**16 values of q at a
# time and holds no array of size Q.  `singular --m 213396` takes about
# 0.55 s at this cap and 0.16 s at Q = 10**6, interpreter start
# included, and peaks at 30.4 MB VmHWM at both, on a 2-core machine
# (Python 3.11, numpy 2.4).
MAX_TRUNCATION_Q = 10**7

# Largest compare window, as rows * n_hi (`circle`): the window sum pays
# each row about pi(n/2)/4 primes p and at most a few times as many
# prime pairs, so a window of 33 million rows near the sieve cap would
# run for hours.  Two windows of width 5000 at step 8 near 3e5 come to
# about 2e8.  `compare` holds about 1.5 bytes per sieved integer: the
# sieve's byte, about 0.45 for its primes 3 and 5 mod 8 and their logs,
# and 1/16 for the bit indexes of the two classes.  `compare --n-lo
# 200000000 --n-hi 200000000` takes about 2 s, interpreter start
# included, and peaks at 324 MB VmHWM on a 2-core machine, Python 3.11,
# numpy 2.4.
MAX_WINDOW_WORK = 10**11

# `singular --m` bound: every column factorises m, which
# `arith.factorize` bounds.
MAX_SINGULAR_M = 1 << 64
