"""Frozen closed-form 3x3 symmetric eigenvalues, kept as a reference oracle.

``coefficients.symmetric_eigenvalues`` formed its 3x3 branch out of place,
about 70 fresh node-size planes per call; it now writes the same operations,
in the same order, into a few preallocated planes, and the equivalence test
compares it with the code below.
"""

from __future__ import annotations

import numpy as np


def eigenvalues_3x3(mats: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (3, *S) of the (3, 3, *S) planes ``mats``
    (entries k <= l read), trigonometric form of Cardano's solution."""
    a11, a22, a33 = mats[0, 0], mats[1, 1], mats[2, 2]
    a12, a13, a23 = mats[0, 1], mats[0, 2], mats[1, 2]
    p1 = a12**2 + a13**2 + a23**2
    q = (a11 + a22 + a33) / 3.0
    p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe_p = np.where(p > 0, p, 1.0)
    b11, b22, b33 = (a11 - q) / safe_p, (a22 - q) / safe_p, (a33 - q) / safe_p
    b12, b13, b23 = a12 / safe_p, a13 / safe_p, a23 / safe_p
    detb = (
        b11 * (b22 * b33 - b23**2)
        - b12 * (b12 * b33 - b23 * b13)
        + b13 * (b12 * b23 - b22 * b13)
    )
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    lo = np.where(p > 0, e3, q)
    mid = np.where(p > 0, e2, q)
    hi = np.where(p > 0, e1, q)
    return np.stack([lo, mid, hi])
