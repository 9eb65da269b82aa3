"""The closed-form dimension claims, listed once.

A claim is a divisor D supported on P1, P2 and P3 together with the value
of ell(D) that one of the closed-form families gives.  Each family runs
over the widest parameter range any check uses.  Nothing here calls the
oracle: `tripoint dims --check`, the `verify` dimension suite and the
acceptance sweep each compare these claims against `dim_L_oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .riemann_roch import (SHIFT_VARIANTS, Md_divisor, Nd_divisor, Sd_divisor,
                           ThreePointDivisor, dim_Md_Nd, dim_mP_formula,
                           dim_Sd, dim_Sd_plus_e, dim_shifted_formula,
                           shifted_divisor)
from .series import POINT_IDS

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

    m*P and shifted: 1 <= m <= 2g-2.  Md/Nd: i, j >= 1, i+j <= n-1.
    S_d: i, j, k in [-2, n+2] with -2 <= d = i+j+k <= n, in (d, i, j)
    order.  S_d + e: i, j, k >= 0 with d + e = n - 2.
    """
    g = n * (n - 1) // 2
    out = []
    if "mP" in families:
        for m in range(1, 2 * g - 1):
            for axis, point in enumerate(POINT_IDS):
                v = [0, 0, 0]
                v[axis] = m
                out.append(Claim("mP", f"{m}{point}", ThreePointDivisor(*v),
                                 dim_mP_formula(n, m, axis + 1), (m, point)))
    if "shifted" in families:
        for m in range(1, 2 * g - 1):
            for var in SHIFT_VARIANTS:
                out.append(Claim("shifted", f"m={m} {var}",
                                 shifted_divisor(n, m, var),
                                 dim_shifted_formula(n, m, var), (m, var)))
    if "MdNd" in families:
        for i in range(1, n):
            for j in range(1, n - i):
                for name, divisor in (("M", Md_divisor), ("N", Nd_divisor)):
                    out.append(Claim("MdNd", f"{name}({i},{j})",
                                     divisor(n, i, j), dim_Md_Nd(n, i, j),
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
        for d in range(0, n - 1):
            e = n - 2 - d
            for i in range(0, d + 1):
                for j in range(0, d - i + 1):
                    k = d - i - j
                    out.append(Claim(
                        "Sd+e", f"S({i},{j},{k})+{e}",
                        Sd_divisor(n, i, j, k) + ThreePointDivisor(e, e, e),
                        dim_Sd_plus_e(n, i, j, k, e), (i, j, k, e)))
    return out
