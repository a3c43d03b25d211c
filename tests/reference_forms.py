"""Pure-Python reference enumerator of reduced forms, for tests only.

This is the plain double loop that `forms.enumerate_reduced` replaced
with a numpy version.  It is kept here, outside the package, so that the
differential tests compare the oracle against an implementation that
shares no code with it.
"""

import math

from cyclic2.forms import Form


def reference_enumerate(d: int) -> list[Form]:
    """All primitive reduced forms of discriminant -d, sorted by (a, b, c)."""
    out = []
    b = d & 1
    while 3 * b * b <= d:
        m = (b * b + d) // 4
        for a in range(max(b, 1), math.isqrt(m) + 1):
            if m % a:
                continue
            c = m // a
            if math.gcd(math.gcd(a, b), c) != 1:
                continue
            out.append(Form(a, b, c))
            if b and b != a and a != c:
                out.append(Form(a, -b, c))
        b += 2
    out.sort(key=lambda f: (f.a, f.b, f.c))
    return out
