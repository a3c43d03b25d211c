"""Slow reference routes of the class-group oracle, for tests only.

`reference_enumerate` is the plain double loop that
`forms.enumerate_reduced` replaced with a numpy version; it shares no
code with the oracle.  `reference_witness_cyclic` is the full witness
scan that `forms.class_number` ran on every d before it checked a
non-cyclic verdict by counting squares; it costs about h*log2(h)
compositions when no witness exists.
"""

import math

from cyclic2 import forms
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


def reference_witness_cyclic(group: list[Form], h: int) -> bool:
    """Whether the 2-Sylow subgroup of the class group `group` of order h
    is cyclic: some g has a non-principal g**(h/2), or h is odd."""
    if h % 2:
        return True
    ident = forms.principal_form(forms.discriminant(group[0]))
    return any(forms.form_pow(f, h // 2) != ident for f in group)
