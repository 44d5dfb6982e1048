import numpy as np
import pytest

from herglotz.expr import Const, Expr, StatePoint, add, intpow, mul, parse, q, sub, v, z
from herglotz.lagrangian import ContactLagrangianSystem


def pt(qv, vv, zv) -> StatePoint:
    return StatePoint(np.atleast_1d(qv), np.atleast_1d(vv), zv)


def random_points(rng, n, count, lo=-1.0, hi=1.0):
    return [StatePoint(rng.uniform(lo, hi, n), rng.uniform(lo, hi, n),
                       rng.uniform(lo, hi))
            for _ in range(count)]


def random_regular_lagrangian(rng, n) -> ContactLagrangianSystem:
    """Polynomial Lagrangian with a diagonal-dominant velocity Hessian.

    Kinetic coefficients sit in [0.8, 1.6]; perturbation monomials of total
    degree <= 4 carry coefficients <= 0.05 and velocity degree <= 2, which
    keeps |det W| bounded away from zero on the unit box.
    """
    L: Expr = Const(0.0)
    for i in range(1, n + 1):
        L = L + mul(Const(float(rng.uniform(0.8, 1.6)) / 2.0), intpow(v(i), 2))
    monomials = []
    for i in range(1, n + 1):
        monomials += [q(i), intpow(q(i), 2), intpow(q(i), 3),
                      mul(q(i), z()), mul(intpow(q(i), 2), z()),
                      mul(q(i), v(i)), mul(v(i), z()),
                      mul(intpow(q(i), 2), intpow(v(i), 2))]
    monomials += [z(), intpow(z(), 2), mul(intpow(z(), 2), intpow(q(1), 2))]
    if n >= 2:
        monomials += [mul(v(1), v(2)), mul(q(1), q(2)), mul(mul(q(1), v(2)), z())]
    count = int(rng.integers(2, 6))
    picks = rng.choice(len(monomials), size=count, replace=False)
    for idx in picks:
        L = L + mul(Const(float(rng.uniform(-0.05, 0.05))), monomials[int(idx)])
    return ContactLagrangianSystem(n, L, {})


def dense_lagrangian(n) -> ContactLagrangianSystem:
    """Dense velocity-Hessian family of perfbench/README.md:
    L_n = 1/2 sum (1 + 0.1 q_i^2) v_i^2 + 0.1 sum_{i<j} cos(q_i - q_j) v_i v_j
    - 1/2 sum q_i^2 - gam z, with gam = 0.2."""
    terms = [f"0.5*(1 + 0.1*q{i}^2)*v{i}^2" for i in range(1, n + 1)]
    terms += [f"0.1*cos(q{i} - q{j})*v{i}*v{j}"
              for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    terms += [f"(-0.5)*q{i}^2" for i in range(1, n + 1)] + ["(-gam)*z"]
    return ContactLagrangianSystem(n, parse(" + ".join(terms), n), {"gam": 0.2})


def cofactor_det(matrix):
    """Reference determinant: top-row cofactor expansion that rebuilds every
    minor from scratch."""
    m = len(matrix)
    if m == 0:
        return Const(1.0)
    if m == 1:
        return matrix[0][0]
    if m == 2:
        (a, b), (c, d) = matrix
        return sub(mul(a, d), mul(b, c))
    total = Const(0.0)
    for j in range(m):
        minor = [[row[k] for k in range(m) if k != j] for row in matrix[1:]]
        term = mul(matrix[0][j], cofactor_det(minor))
        total = add(total, term) if j % 2 == 0 else sub(total, term)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def per_point(values):
    """``point_values`` for ``run_check`` from a function of one point."""
    return lambda points: map(values, points)
