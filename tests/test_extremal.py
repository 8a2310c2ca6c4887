import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from radstar.core import (CLASSES, ClassId, EvaluationError, ParameterError,
                          make_class)
from radstar.extremal import ExtremalId, log_deriv
from extremal_oracle import eval_extremal, schwarz_eval
from series_oracle import series_quotient, taylor_coefficients


def _disk_samples(n, seed=42, radius=0.999):
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * math.pi, n)
    return r * np.exp(1j * th)


def test_normalization():
    # f(z)/z -> 1 as z -> 0, across each witness's range of b
    z = 1e-8
    for eid in ExtremalId:
        bs = ((-1.0, -0.5, 0.0, 0.2, 1.0 / 3.0) if eid is ExtremalId.F3
              else (-1.0, -0.5, -0.1, 0.0))
        for b in bs:
            f = eval_extremal(eid, b, z)
            assert abs(f / z - 1.0) < 1e-6, (eid, b)


def test_b_range_guard():
    with pytest.raises(ParameterError):
        eval_extremal(ExtremalId.F1, 0.1, 0.5)
    with pytest.raises(ParameterError):
        eval_extremal(ExtremalId.F3, 0.4, 0.5)
    eval_extremal(ExtremalId.F3, 1.0 / 3.0, 0.5)


@pytest.mark.parametrize("eid, class_id, bad", [
    (ExtremalId.F1, ClassId.G1, 4e-13),
    (ExtremalId.F2, ClassId.G1, 4e-13),
    (ExtremalId.F3, ClassId.G2, math.nextafter(1.0 / 3.0, 1.0)),
    (ExtremalId.F3, ClassId.G2, math.nextafter(-1.0, -2.0)),
])
def test_witnesses_take_the_class_interval(eid, class_id, bad):
    # the witnesses refuse exactly the b that make_class refuses
    index = int(eid.value[1])
    with pytest.raises(ParameterError):
        make_class(class_id, bad)
    for fn in (eval_extremal, log_deriv):
        with pytest.raises(ParameterError, match="admissible interval"):
            fn(eid, bad, 0.5)
    with pytest.raises(ParameterError, match="admissible interval"):
        schwarz_eval(index, bad, 0.5)
    cd = CLASSES[class_id]
    for b in (cd.b_lo, cd.b_hi):
        make_class(class_id, b)
        eval_extremal(eid, b, 0.5)
        log_deriv(eid, b, 0.5)
        schwarz_eval(index, b, 0.5)


def test_pole_raises():
    with pytest.raises(EvaluationError):
        eval_extremal(ExtremalId.F1, -1.0, -1.0)
    with pytest.raises(EvaluationError):
        eval_extremal(ExtremalId.F3, -1.0, 1.0)


@pytest.mark.parametrize("eid, z", [
    (ExtremalId.F1, -1.0), (ExtremalId.F2, -1.0), (ExtremalId.F3, 1.0)])
def test_log_deriv_pole_raises(eid, z):
    # z f'/f has a pole where the factor 1 + z (F1, F2) or 1 - z (F3)
    # vanishes; log_deriv takes z from its caller, so it refuses it
    with pytest.raises(EvaluationError, match="pole"):
        log_deriv(eid, -1.0, z)


def test_extreme_b_closed_forms():
    # b = -1 gives B = -1: f1 = z(1-z)/((1+z)(1+2z+z^2)) = z(1-z)/(1+z)^3
    for z in (0.3 + 0.2j, -0.4 + 0.5j, 0.1 - 0.6j):
        f = eval_extremal(ExtremalId.F1, -1.0, z)
        assert f == pytest.approx(z * (1 - z) / (1 + z) ** 3, abs=1e-14)
        f = eval_extremal(ExtremalId.F2, -1.0, z)
        assert f == pytest.approx(z * (1 - z) / (1 + z) ** 3, abs=1e-14)
    # b = -1/2 gives B = 0: the Schwarz function degenerates to z^2
    for z in (0.3 + 0.2j, -0.4 + 0.5j):
        assert schwarz_eval(1, -0.5, z) == pytest.approx(z * z, abs=1e-15)
        assert schwarz_eval(2, -0.5, z) == pytest.approx(z * z, abs=1e-15)


def test_schwarz_normalization_and_bound():
    zs = _disk_samples(10000)
    for idx, bs in ((1, (-1.0, -0.7, -0.5)), (2, (-1.0, -0.6)),
                    (3, (-1.0, -0.2, 1.0 / 3.0))):
        for b in bs:
            assert schwarz_eval(idx, b, 0.0) == 0.0
            for z in zs[:2000]:
                z = complex(z)
                w = schwarz_eval(idx, b, z)
                assert abs(w) <= abs(z) + 1e-12, (idx, b, z)
    with pytest.raises(ParameterError):
        schwarz_eval(4, -1.0, 0.5)


def test_mobius_identity():
    # (1+z)^2 f1/z = (1-w1)/(1+w1), (1+z)^2 f2/z = (1+w2)/(1-w2),
    # (1+z) f3/z = (1+w3)/(1-w3); tolerance scales with the value, which is
    # unbounded near z = -1
    zs = _disk_samples(3000, seed=5)
    for b in (-1.0, -0.7, -0.5):
        for z in zs:
            z = complex(z)
            lhs = (1.0 + z) ** 2 * eval_extremal(ExtremalId.F1, b, z) / z
            w = schwarz_eval(1, b, z)
            rhs = (1.0 - w) / (1.0 + w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (b, z)
            lhs = (1.0 + z) ** 2 * eval_extremal(ExtremalId.F2, b, z) / z
            w = schwarz_eval(2, b, z)
            rhs = (1.0 + w) / (1.0 - w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (b, z)
    for b in (-1.0, 0.0, 1.0 / 3.0):
        for z in zs:
            z = complex(z)
            lhs = (1.0 + z) * eval_extremal(ExtremalId.F3, b, z) / z
            w = schwarz_eval(3, b, z)
            rhs = (1.0 + w) / (1.0 - w)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (b, z)


def test_positive_real_part():
    zs = _disk_samples(3000, seed=6)
    for b in (-1.0, -0.75, -0.7, -0.5):
        for z in zs:
            z = complex(z)
            v = (1.0 + z) ** 2 * eval_extremal(ExtremalId.F1, b, z) / z
            assert v.real > -1e-12
            v = (1.0 + z) ** 2 * eval_extremal(ExtremalId.F2, b, z) / z
            assert v.real > -1e-12
    for b in (-1.0, 0.0):
        for z in zs:
            z = complex(z)
            v = (1.0 + z) * eval_extremal(ExtremalId.F3, b, z) / z
            assert v.real > -1e-12


def test_log_deriv_at_origin():
    for eid in ExtremalId:
        assert log_deriv(eid, -1.0, 0.0) == 1.0


def test_log_deriv_matches_finite_difference():
    h = 1e-6
    for eid, bs in ((ExtremalId.F1, (-1.0, -0.6)), (ExtremalId.F2, (-1.0, -0.8)),
                    (ExtremalId.F3, (-1.0, 0.2))):
        for b in bs:
            for z in (0.3 + 0.2j, -0.2 + 0.4j, 0.5 - 0.1j):
                fd = (cmath.log(eval_extremal(eid, b, z + h))
                      - cmath.log(eval_extremal(eid, b, z - h))) / (2.0 * h)
                assert log_deriv(eid, b, z) == pytest.approx(z * fd, abs=1e-7)


def test_series_quotient_geometric():
    # 1/(1 - z) = 1 + z + z^2 + ...
    assert series_quotient([1], [1, -1], 5) == [1, 1, 1, 1, 1]
    with pytest.raises(ParameterError):
        series_quotient([1], [0, 1], 3)


def test_second_taylor_coefficient():
    for b in (Fraction(-1), Fraction(-3, 4), Fraction(-1, 2)):
        assert taylor_coefficients(ExtremalId.F1, b)[0] == 1
        assert taylor_coefficients(ExtremalId.F1, b)[1] == 4 * b
        assert taylor_coefficients(ExtremalId.F2, b)[1] == 4 * b
    for b in (Fraction(-1), Fraction(0), Fraction(1, 3)):
        assert taylor_coefficients(ExtremalId.F3, b)[1] == 3 * b


def test_taylor_matches_numeric_series():
    # exact series oracle against a contour-integral coefficient extraction
    n = 256
    r = 0.5
    th = 2.0 * math.pi * np.arange(n) / n
    zs = r * np.exp(1j * th)
    for eid, b in ((ExtremalId.F1, Fraction(-4, 5)),
                   (ExtremalId.F2, Fraction(-2, 3)),
                   (ExtremalId.F3, Fraction(-1, 4))):
        fv = np.array([eval_extremal(eid, float(b), complex(z)) for z in zs])
        exact = taylor_coefficients(eid, b, nterms=6)
        for k in range(1, 7):
            ck = np.mean(fv * np.exp(-1j * k * th)) / r**k
            assert abs(ck - float(exact[k - 1])) < 1e-10, (eid, k)
