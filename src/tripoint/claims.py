"""The closed-form dimension claims, listed once.

A claim is a divisor D supported on P1, P2 and P3 together with the value
of ell(D) that one of the closed-form families gives.  Each family runs
over the widest parameter range any check uses.  Nothing here calls the
oracle: `tripoint dims --check`, the `verify` dimension suite and the
acceptance sweep each compare these claims against `dim_L_oracle`.
M_d, N_d and S_d + e are the corners of the pure-gap boxes, over the
parameters weierstrass.pure_gap_params walks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .riemann_roch import (SHIFT_VARIANTS, Sd_divisor, ThreePointDivisor,
                           dim_mP_formula, dim_Sd, dim_shifted_formula,
                           shifted_divisor)
from .series import POINT_IDS
from .weierstrass import pure_gap_box, pure_gap_dimension, pure_gap_params

__all__ = ["FAMILIES", "Claim", "dimension_claims"]

FAMILIES = ("mP", "shifted", "MdNd", "Sd", "Sd+e")


@dataclass(frozen=True)
class Claim:
    family: str
    label: str
    divisor: ThreePointDivisor
    dimension: int
    params: tuple


def dimension_claims(n: int, families=FAMILIES) -> list:
    """The claims of the chosen families at n, in FAMILIES order.

    m*P and shifted: 1 <= m <= 2g-2.  Md/Nd: the hi and lo - 1 corners
    of the box of each pair (i, j) of pure_gap_params.  S_d: i, j, k in
    [-2, n+2] with -2 <= d = i+j+k <= n, in (d, i, j) order.  S_d + e: the
    hi corner of the box of each triple of pure_gap_params, in (d, i, j)
    order, with d + e = n - 2.
    """
    g = n * (n - 1) // 2
    out = []
    if "mP" in families:
        for m in range(1, 2 * g - 1):
            dim = dim_mP_formula(n, m)
            for axis, point in enumerate(POINT_IDS):
                v = [0, 0, 0]
                v[axis] = m
                out.append(Claim("mP", f"{m}{point}", ThreePointDivisor(*v),
                                 dim, (m, point)))
    if "shifted" in families:
        for m in range(1, 2 * g - 1):
            dim = dim_shifted_formula(n, m)
            for var in SHIFT_VARIANTS:
                out.append(Claim("shifted", f"m={m} {var}",
                                 shifted_divisor(n, m, var), dim, (m, var)))
    if "MdNd" in families:
        for i, j in pure_gap_params(n, 2):
            box = pure_gap_box(n, (i, j))
            dim = pure_gap_dimension(n, (i, j))
            for name, corner in (("M", [hi for _, hi in box]),
                                 ("N", [lo - 1 for lo, _ in box])):
                out.append(Claim("MdNd", f"{name}({i},{j})",
                                 ThreePointDivisor(*corner), dim,
                                 (name, i, j)))
    if "Sd" in families:
        span = range(-2, n + 3)
        for d in range(-2, n + 1):
            for i in span:
                for j in span:
                    k = d - i - j
                    if k in span:
                        out.append(Claim("Sd", f"S({i},{j},{k})",
                                         Sd_divisor(n, i, j, k),
                                         dim_Sd(n, i, j, k), (i, j, k)))
    if "Sd+e" in families:
        for i, j, k in sorted(pure_gap_params(n, 3),
                              key=lambda p: (sum(p), p)):
            box = pure_gap_box(n, (i, j, k))
            e = n - 2 - (i + j + k)
            out.append(Claim("Sd+e", f"S({i},{j},{k})+{e}",
                             ThreePointDivisor(*(hi for _, hi in box)),
                             pure_gap_dimension(n, (i, j, k)), (i, j, k, e)))
    return out
