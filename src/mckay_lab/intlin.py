"""Small exact integer linear algebra for rank-3 lattices.

Everything here works on plain tuples/lists of ints (dot3 also pairs
Fractions); matrices are lists of row tuples.  Sizes never exceed a handful
of rows, so the implementations favour clarity over asymptotics.
"""

from __future__ import annotations


Vec3 = tuple  # length-3 tuple of ints


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


def dot3(u: Vec3, v: Vec3):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(rows) -> int:
    a, b, c = rows
    return dot3(a, cross3(b, c))


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
