import math
import struct
from fractions import Fraction

import numpy as np
import pytest

from herglotz_oracle import herglotz_logderiv_bound
from radstar import regions, solver
from radstar.bounds import disk, disk_map, quartic
from radstar.core import (CLASSES, ClassId, DomainError, ParameterError,
                          class_from_coeff_mag, coefficient, make_class)


def test_herglotz_bound_zero_at_origin():
    assert herglotz_logderiv_bound(0.7, 0.0, alpha=0.2) == 0.0


def test_herglotz_bound_exact_rational_value():
    # b=1, alpha=0, r=1/2: 2*(1/2)/(3/4) * (1/4+1+1)/(1/4+1+1) = 4/3
    val = herglotz_logderiv_bound(1.0, 0.5)
    assert val == pytest.approx(4.0 / 3.0, abs=1e-15)
    # b=0, alpha=0, r=1/2: (4/3) * (1)/(5/4) = 16/15
    val = herglotz_logderiv_bound(0.0, 0.5)
    want = Fraction(4, 3) * Fraction(1, 1) / Fraction(5, 4)
    assert val == pytest.approx(float(want), abs=1e-15)


def test_herglotz_bound_monotone_in_abs_b():
    for a in (0.0, 0.3):
        for r in (0.1, 0.5, 0.9):
            vals = [herglotz_logderiv_bound(b, r, alpha=a)
                    for b in np.linspace(0.0, 1.0, 21)]
            assert all(x <= y + 1e-14 for x, y in zip(vals, vals[1:]))


def test_herglotz_bound_sign_of_b_irrelevant():
    for r in (0.2, 0.7):
        assert herglotz_logderiv_bound(0.6, r) == herglotz_logderiv_bound(-0.6, r)


def test_r_domain_rejected():
    spec = make_class(ClassId.G1, -1.0)
    for r in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            disk(spec, r)
        with pytest.raises(DomainError):
            herglotz_logderiv_bound(0.5, r)


def test_g1_disk_exact_rational_values():
    # b=-1 (mag 1), r=1/2: center = (5/4)/(3/4) = 5/3,
    # radius = 2*2*(1/2)*(3/2)^2 / ((3/4)*(1/4+1+1)) = 9/2 / (27/16) = 8/3
    d = disk(make_class(ClassId.G1, -1.0), 0.5)
    assert d.center == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert d.radius == pytest.approx(8.0 / 3.0, abs=1e-14)
    # b=-1/2 (mag 0), r=1/2: radius = 2*(1/2)*(9/4) / ((3/4)*(5/4)) = 12/5
    d = disk(make_class(ClassId.G1, -0.5), 0.5)
    assert d.radius == pytest.approx(12.0 / 5.0, abs=1e-14)


def test_g2_disk_exact_rational_values():
    # b=-1 (mag 2), r=1/2: center = 4/3,
    # radius = (3/8 + 6/4 + 3/2) / ((3/4)*(1/4+1+1)) = (27/8)/(27/16) = 2
    d = disk(make_class(ClassId.G2, -1.0), 0.5)
    assert d.center == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert d.radius == pytest.approx(2.0, abs=1e-14)


def test_disk_is_moebius_part_plus_herglotz_bound():
    # zf'/f = (Moebius part) + zp'/p, so the disk radius is the radius of the
    # Moebius part plus the log-derivative bound of the Herglotz factor
    rng = np.random.default_rng(7)
    for _ in range(2000):
        r = float(rng.uniform(0.0, 0.999))
        s1 = class_from_coeff_mag(ClassId.G1, float(rng.uniform(0.0, 1.0)))
        s2 = class_from_coeff_mag(ClassId.G2, float(rng.uniform(0.0, 2.0)))
        h1 = herglotz_logderiv_bound(s1.coeff_mag, r)
        h2 = herglotz_logderiv_bound(s2.coeff_mag / 2.0, r)
        assert disk(s1, r).radius == pytest.approx(
            2.0 * r / (1.0 - r * r) + h1, rel=1e-14, abs=1e-300)
        assert disk(s2, r).radius == pytest.approx(
            r / (1.0 - r * r) + h2, rel=1e-14, abs=1e-300)


def test_disk_radius_vanishes_at_origin():
    for spec in (make_class(ClassId.G1, -0.75), make_class(ClassId.G2, -0.5)):
        d = disk(spec, 0.0)
        assert d.radius == 0.0 and d.center == 1.0


def test_disk_radius_small_r_asymptotics():
    # radius ~ 2(1+mag) r for G1 and (1+mag) r for G2 as r -> 0
    r = 1e-7
    s1 = make_class(ClassId.G1, -1.0)
    assert disk(s1, r).radius == pytest.approx(2.0 * (1.0 + s1.coeff_mag) * r,
                                               rel=1e-5)
    s2 = make_class(ClassId.G2, -1.0)
    assert disk(s2, r).radius == pytest.approx((1.0 + s2.coeff_mag) * r,
                                               rel=1e-5)


def test_disk_radius_monotone_in_r():
    for spec in (make_class(ClassId.G1, -1.0), make_class(ClassId.G1, -0.5),
                 make_class(ClassId.G2, -1.0), make_class(ClassId.G2, 0.0)):
        rs = np.linspace(0.0, 0.95, 40)
        rad = [disk(spec, float(r)).radius for r in rs]
        assert all(x < y for x, y in zip(rad, rad[1:]))


# The per-class expansions that bounds writes once in the power e of the
# class, kept literally as the reference for its floats.
def _disk_g1(m, r):
    a = 1.0 + m
    a2, m2 = 2.0 * a, 2.0 * m
    s = r * r
    w = 1.0 - s
    den = w * (s + m2 * r + 1.0)
    num = 2.0 * (a * r ** 3 + a2 * r ** 2 + a * r)
    return (1.0 + s) / w, num / den, den


def _disk_g2(m, r):
    a, b = 1.0 + m, 4.0 + m
    s = r * r
    w = 1.0 - s
    den = w * (s + m * r + 1.0)
    return 1.0 / w, (a * r ** 3 + b * r ** 2 + a * r) / den, den


def _quartic_g1(m, p, q):
    n, m2 = 2.0 * (1.0 + m), 2.0 * m
    return (-p - q, n - p * m2 - q * m2, 4.0 * (1.0 + m) - q * 2.0,
            n + p * m2 - q * m2, p - q)


def _quartic_g2(m, p, q):
    return (-p - q, 1.0 + m - p * m - q * m, 4.0 + m - q, 1.0 + m + p * m,
            0.0 + p)


_EXPANSIONS = {ClassId.G1: (_disk_g1, _quartic_g1),
               ClassId.G2: (_disk_g2, _quartic_g2)}


def _bits(values):
    # packed doubles, so that -0.0 and +0.0 differ
    return [struct.pack("<d", v) for v in values]


def _magnitudes(class_id):
    mx = CLASSES[class_id].max_mag
    rng = np.random.default_rng(11)
    return [0.0, 5e-324, 1e-17 * mx, mx] + rng.uniform(0.0, mx, 60).tolist()


@pytest.mark.parametrize("class_id", list(ClassId))
def test_disk_map_bits_match_the_class_expansion(class_id):
    # one formula in e against each class's own, subnormal r included
    ref = _EXPANSIONS[class_id][0]
    rs = ([0.0, 5e-324, 1e-320, 1e-310, 1e-300, 1e-110, 1e-16]
          + np.linspace(0.0, 0.999999, 101).tolist())
    for m in _magnitudes(class_id):
        spec = class_from_coeff_mag(class_id, m)
        f = disk_map(spec)
        for r in rs:
            want = _bits(ref(m, r))
            assert _bits(f(r)) == want, (m, r)
            assert _bits(disk(spec, r)) == want, (m, r)


@pytest.mark.parametrize("class_id", list(ClassId))
def test_quartic_bits_match_the_class_expansion(class_id):
    # a grid of (p, q), p = -0.0 (starlike of order 0) included, and every
    # family's affine threshold, compared with the sign of every zero
    ref = _EXPANSIONS[class_id][1]
    ps = [-0.0, 0.0, -0.3, 1.0 - math.sqrt(2.0), math.sqrt(2.0), 5.0 / 3.0]
    qs = [1.0, -1.0] + [math.sin(0.5 * math.pi * g) for g in (0.3, 0.5, 1.0)]
    pairs = [(p, q) for p in ps for q in qs]
    for t in solver.supported_targets(ClassId.G1, alpha=0.3):
        threshold = regions.FAMILIES[t.family].threshold
        if threshold is not None:
            pairs.append(threshold(t))
    for m in _magnitudes(class_id):
        for p, q in pairs:
            assert _bits(quartic(class_id, m, p, q)) == _bits(ref(m, p, q)), (
                m, p, q)


def test_power_times_max_mag_is_two():
    # the first coefficient of (1 + z)^e f/z is e + a2 = e (1 + slope * b),
    # at most 2 in magnitude (Caratheodory); that fixes the interval of b,
    # and a2 = e slope b is 4b for g1 and 3b for g2
    for class_id, cd in CLASSES.items():
        assert cd.power * cd.max_mag == 2.0, class_id
        assert cd.power * cd.slope == {ClassId.G1: 4, ClassId.G2: 3}[class_id]
    # the derived ends and magnitude, bit for bit; coefficient takes both
    # ends and refuses the next float past each
    for class_id, (b_lo, b_hi, max_mag), text in (
            (ClassId.G1, (-1.0, 0.0, 1.0), "[-1.0, 0.0]"),
            (ClassId.G2, (-1.0, 0.3333333333333333, 2.0),
             "[-1.0, 0.3333333333333333]")):
        cd = CLASSES[class_id]
        got = (cd.b_lo, cd.b_hi, cd.max_mag)
        assert got == (b_lo, b_hi, max_mag)
        assert repr(got) == repr((b_lo, b_hi, max_mag))
        assert abs(coefficient(class_id, b_lo)) == max_mag
        assert coefficient(class_id, b_hi) == 1 + cd.slope * b_hi
        for b in (math.nextafter(b_lo, -math.inf),
                  math.nextafter(b_hi, math.inf)):
            message = (f"b={b!r} outside admissible interval {text} "
                       f"for {class_id.value}")
            with pytest.raises(ParameterError) as err:
                coefficient(class_id, b)
            assert str(err.value) == message
