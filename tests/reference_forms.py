"""Slow reference routes of the class-group oracle, for tests only.

`reference_enumerate` is the plain double loop over b and every
candidate a, O(d) work, that `forms.enumerate_reduced` replaced with
its O(sqrt(d)) walk over the square roots of -d mod 4a; it shares no
code with the oracle.  `reference_witness_cyclic` is the full witness
scan that `forms.class_number` ran on every d before it checked a
non-cyclic verdict by counting squares; it costs about h*log2(h)
compositions when no witness exists.  `is_ambiguous` is the per-form
test that `forms.class_number` counts inline.
"""

import math

from cyclic2 import forms


def reference_enumerate(d: int) -> list[tuple[int, int, int]]:
    """All primitive reduced forms (a, b, c) of discriminant -d, sorted."""
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
            out.append((a, b, c))
            if b and b != a and a != c:
                out.append((a, -b, c))
        b += 2
    out.sort()
    return out


def is_ambiguous(a: int, b: int, c: int) -> bool:
    """Whether the reduced form (a, b, c) is its own inverse (class order <= 2).

    That holds exactly when (a, -b, c) reduces back to (a, b, c), which
    for a reduced form means b = 0, b = a or a = c.
    """
    return b == 0 or b == a or a == c


def reference_witness_cyclic(group: list[tuple[int, int, int]], h: int) -> bool:
    """Whether the 2-Sylow subgroup of the class group `group` of order h
    is cyclic: some g has a non-principal g**(h/2), or h is odd."""
    if h % 2:
        return True
    a, b, c = group[0]
    ident = forms.principal_form(b * b - 4 * a * c)
    return any(forms.form_pow(f, h // 2) != ident for f in group)
