"""Reference oracle for moduli of continuity: the point-by-point scan.

The package groups the points by each prefix length once and reads every
modulus of a table off those groups (``rules._least_moduli``).  The scan
here answers one ``(alpha, k)`` at a time, the way the package once did,
by comparing every point's image with alpha's at every prefix length.
"""
from sheafbench.points import Point


def modulus_at(points, images, alpha: Point, k: int, depth: int) -> int | None:
    """Least m with the k-prefix of the image constant on the m-neighbourhood."""
    want = images[alpha].prefix_of(k)
    for m in range(depth + 2):
        anchor = alpha.prefix_of(m)
        if all(
            images[beta].prefix_of(k) == want
            for beta in points
            if beta.prefix_of(m) == anchor
        ):
            return m
    return None


def scan_moduli(points, images, depth: int) -> dict:
    """:func:`modulus_at` of every ``(alpha, k)``, ``k <= depth``, in table order."""
    return {(alpha, k): modulus_at(points, images, alpha, k, depth)
            for alpha in points for k in range(depth + 1)}
