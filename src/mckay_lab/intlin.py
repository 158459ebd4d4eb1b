"""Small exact linear algebra over Z and Q for rank-3 lattices.

Everything here works on plain tuples/lists of ints or Fractions; matrices
are lists of row tuples.  Sizes never exceed a handful of rows, so the
implementations favour clarity over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


Vec3 = tuple  # length-3 tuple of ints or Fractions


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def vec_gcd(v) -> int:
    return gcd(*v)


def primitive(v: Vec3) -> Vec3:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(v)
    return tuple(a // g for a in v)


def primitive_signed(v: Vec3) -> Vec3:
    """Primitive vector with the first nonzero entry positive."""
    w = primitive(v)
    for a in w:
        if a:
            return w if a > 0 else tuple(-b for b in w)
    return w


def dot3(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(rows) -> Fraction | int:
    a, b, c = rows
    return dot3(a, cross3(b, c))


def mat3_inverse(rows):
    """Inverse of a 3x3 matrix given as row tuples, entries int or Fraction."""
    d = det3(rows)
    if d == 0:
        raise ZeroDivisionError("singular matrix")
    a, b, c = rows
    # adjugate columns are cross products of the rows
    cols = (cross3(b, c), cross3(c, a), cross3(a, b))
    return tuple(
        tuple(Fraction(cols[j][i], 1) / d for j in range(3)) for i in range(3)
    )


def hnf_rows(rows) -> list:
    """Row-style Hermite normal form of an integer matrix (full row reduce).

    Returns the nonzero rows of the unique upper-echelon basis of the row
    lattice: positive pivots, entries above each pivot reduced into [0, pivot).
    """
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        # clear the column below pivot_row with gcd row operations
        for i in range(pivot_row + 1, len(mat)):
            a, b = mat[pivot_row][col], mat[i][col]
            if b == 0:
                continue
            if a == 0:
                mat[pivot_row], mat[i] = mat[i], mat[pivot_row]
                a, b = mat[pivot_row][col], 0
                continue
            x, y, g = xgcd(a, b)
            new_p = [x * p + y * q for p, q in zip(mat[pivot_row], mat[i])]
            new_i = [
                (-b // g) * p + (a // g) * q for p, q in zip(mat[pivot_row], mat[i])
            ]
            mat[pivot_row], mat[i] = new_p, new_i
        if mat[pivot_row][col] == 0:
            continue
        if mat[pivot_row][col] < 0:
            mat[pivot_row] = [-v for v in mat[pivot_row]]
        # reduce the entries above the pivot
        p = mat[pivot_row][col]
        for i in range(pivot_row):
            q = mat[i][col] // p
            if q:
                mat[i] = [v - q * w for v, w in zip(mat[i], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return [tuple(r) for r in mat[:pivot_row]]


def hnf_rows_rational(rows) -> list:
    """HNF for rational rows: scale to Z, reduce, scale back."""
    denom = 1
    for r in rows:
        for v in r:
            denom = denom * Fraction(v).denominator // gcd(denom, Fraction(v).denominator)
    int_rows = [tuple(int(Fraction(v) * denom) for v in r) for r in rows]
    return [tuple(Fraction(v, denom) for v in r) for r in hnf_rows(int_rows)]


def smith_diagonal(mat) -> list[int]:
    """Diagonal of the Smith normal form of an integer matrix.

    Returns the nonnegative invariant factors d1 | d2 | ... (zeros trimmed).
    """
    a = [list(r) for r in mat]
    m, n = len(a), len(a[0]) if a else 0

    def clear(s) -> bool:
        # diagonalize position s against its row and column
        while True:
            piv = None
            for i in range(s, m):
                for j in range(s, n):
                    if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                return False
            i0, j0 = piv
            if i0 != s:
                a[s], a[i0] = a[i0], a[s]
            if j0 != s:
                for row in a:
                    row[s], row[j0] = row[j0], row[s]
            done = True
            for i in range(s + 1, m):
                if a[i][s]:
                    q = a[i][s] // a[s][s]
                    a[i] = [x - q * y for x, y in zip(a[i], a[s])]
                    if a[i][s]:
                        done = False
            for j in range(s + 1, n):
                if a[s][j]:
                    q = a[s][j] // a[s][s]
                    for row in a:
                        row[j] -= q * row[s]
                    if a[s][j]:
                        done = False
            if done:
                return True

    rank = 0
    while rank < min(m, n) and clear(rank):
        rank += 1
    # enforce the divisibility chain d_k | d_{k+1}
    while True:
        for s in range(rank - 1):
            if a[s + 1][s + 1] % a[s][s]:
                a[s] = [x + y for x, y in zip(a[s], a[s + 1])]
                for t in range(s, rank):
                    clear(t)
                break
        else:
            break
    return [abs(a[s][s]) for s in range(rank)]

