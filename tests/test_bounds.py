from fractions import Fraction

import numpy as np
import pytest

from herglotz_oracle import herglotz_logderiv_bound
from radstar.bounds import disk
from radstar.core import ClassId, DomainError, class_from_coeff_mag, make_class


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
