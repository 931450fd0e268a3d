import pytest

from sl2ext.charmod import TorusCharacter, nu_character
from sl2ext.coeff import CyclotomicField
from sl2_helpers import field_power, tower_element


def test_trivial_character(tower32, cyc8):
    tr = TorusCharacter(tower32, cyc8, 0)
    for t in tower32.units(2):
        assert tr.eval(t) == cyc8.one


def test_generator_value(tower32, cyc8):
    th = TorusCharacter(tower32, cyc8, 1)
    assert th.eval(tower32.generator(2)) == cyc8.root_of_unity(8, 1)


def test_value_at_minus_one(tower32, cyc8):
    # dlog(-1) = 4 in F_9*, so the exponent-1 character sends -1 to zeta_8^4 = -1
    th = TorusCharacter(tower32, cyc8, 1)
    assert th.eval(tower32._neg(1)) == cyc8.scalar(-1)


def test_multiplicativity_exhaustive(tower32, cyc8):
    th = TorusCharacter(tower32, cyc8, 3)
    elems = [tower_element(tower32, t) for t in tower32.units(2)]
    for a in elems:
        for b in elems:
            assert th.eval((a * b).val) == cyc8._mul(th.eval(a.val), th.eval(b.val))


def test_restriction_coherence(tower33):
    # same scalar whether the element is evaluated via its own level or the top
    F = CyclotomicField(728)
    th = TorusCharacter(tower33, F, 5)
    n1 = tower33.level_size(1) - 1
    zeta1 = F.root_of_unity(n1, 1)
    cofactor = (tower33.size - 1) // n1
    for t in tower33.units(1):
        e1 = tower33.dlog(t) // cofactor
        assert th.eval(t) == field_power(F, zeta1, th.restriction_exp(1) * e1)


def test_weyl_twist_involution(tower32, cyc8):
    for e in range(8):
        th = TorusCharacter(tower32, cyc8, e)
        assert th.weyl_twist().weyl_twist().exp == th.exp
        assert th.weyl_twist().exp == (-e) % 8
    # characters of order dividing 2 are twist-fixed
    assert TorusCharacter(tower32, cyc8, 4).weyl_twist().exp == 4


def test_twist_matches_conjugation(tower32, cyc8):
    # h(t) conjugated by the Weyl element is h(1/t)
    th = TorusCharacter(tower32, cyc8, 3)
    tw = tower32
    for t in tw.units(2):
        assert th.weyl_twist().eval(t) == th.eval(tower_element(tw, t).inverse().val)


def test_center_triviality(tower32, tower23, cyc8, cyc63):
    for e in range(8):
        th = TorusCharacter(tower32, cyc8, e)
        assert th.is_trivial_on_center() == (e % 2 == 0)
    for e in (0, 1, 5):
        assert TorusCharacter(tower23, cyc63, e).is_trivial_on_center()


def test_center_characters_factor_through_squares(tower32, cyc8):
    tw = tower32
    squares = {}
    for e in (0, 2, 4, 6):
        th = TorusCharacter(tw, cyc8, e)
        vals = {}
        for t in tw.units(2):
            key = tw._mul(t, t)
            if key in vals:
                assert vals[key] == th.eval(t)
            else:
                vals[key] = th.eval(t)


def test_nu_character(tower32, cyc8):
    tr = TorusCharacter(tower32, cyc8, 0)
    assert nu_character(tr, tr).is_trivial()
    lam = TorusCharacter(tower32, cyc8, 3)
    mu = TorusCharacter(tower32, cyc8, 5)
    assert nu_character(lam, mu).exp == 0  # 3 + 5 = 8 = 0
    # matching center restrictions make the derived character central-trivial
    lam, mu = TorusCharacter(tower32, cyc8, 1), TorusCharacter(tower32, cyc8, 3)
    assert nu_character(lam, mu).is_trivial_on_center()


def test_eval_at_zero_rejected(tower32, cyc8):
    th = TorusCharacter(tower32, cyc8, 1)
    with pytest.raises(ZeroDivisionError):
        th.eval(0)


@pytest.mark.parametrize("bad", [-1, "size"])
def test_eval_out_of_range_rejected(tower32, cyc8, bad):
    # -1 would read the log table from its end; the range is checked on a
    # cache miss, and a rejected value is never cached
    th = TorusCharacter(tower32, cyc8, 1)
    val = tower32.size if bad == "size" else bad
    for _ in range(2):
        with pytest.raises(ValueError, match="out of range"):
            th.eval(val)
    assert val not in th._cache
