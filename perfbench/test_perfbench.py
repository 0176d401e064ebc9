"""Tests of the benchmark's own tracer and oracles on known cases."""

import os
import sys
import types
from fractions import Fraction

import pb_oracles as orc
from pb_tracer import Tracer, summarize

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                    "src", "symmetroid", "data")


def _pencil(name):
    return orc.read_pencil(os.path.join(DATA, name + ".pencil"))


# ---------------------------------------------------------------------------
# tracer


def _fake_package():
    core = types.ModuleType("pbfake.core")
    user = types.ModuleType("pbfake.user")

    def inner(x):
        return x + 1

    def outer(x):
        return core.inner(x) * 2

    core.inner, core.outer = inner, outer
    user.inner_alias = inner          # as ``from .core import inner``
    pkg = types.ModuleType("pbfake")
    for name, mod in (("pbfake", pkg), ("pbfake.core", core),
                      ("pbfake.user", user)):
        sys.modules[name] = mod
    return core, user, inner, outer


def test_wrap_covers_aliases_and_unwrap_restores():
    core, user, inner, outer = _fake_package()
    try:
        ticks = iter(range(100))
        tr = Tracer("pbfake", clock=lambda: next(ticks))
        tr.wrap(core, "inner", cells=lambda x: 10 * x)
        tr.wrap(core, "outer")
        assert core.outer(3) == 8
        assert user.inner_alias(4) == 5
        names = [s[0] for s in tr.spans]
        assert names == ["core.outer", "core.inner", "core.inner"]
        assert tr.spans[1][3] == 0 and tr.spans[2][3] == -1
        summary = tr.summary()
        assert summary["core.inner"]["calls"] == 2
        assert summary["core.inner"]["cells"] == 70
        tr.unwrap()
        assert core.inner is inner and core.outer is outer
        assert user.inner_alias is inner
    finally:
        for name in ("pbfake", "pbfake.core", "pbfake.user"):
            sys.modules.pop(name, None)


def test_wrap_method_and_span():
    class Thing:
        def value(self):
            return 7

    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tr = Tracer("pbfake", clock=lambda: next(ticks))
    tr.wrap_method(Thing, "value", "Thing.value")
    with tr.span("op"):
        assert Thing().value() == 7
    tr.unwrap()
    assert "value" in Thing.__dict__ and Thing().value() == 7
    s = tr.summary()
    assert s["op"]["s"] == 10.0 and s["op"]["self_s"] == 8.0
    assert s["Thing.value"]["s"] == 2.0 and s["Thing.value"]["self_s"] == 2.0


def test_self_time_subtracts_union_of_children():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 3.0, 0],
             ["c", 2.0, 4.0, 0],       # overlaps b: union [1, 4]
             ["b", 5.0, 6.0, 0],
             ["d", 5.5, 5.8, 3]]       # grandchild: not a's direct child
    s = summarize(spans)
    assert s["a"]["self_s"] == 6.0
    assert abs(s["b"]["self_s"] - 2.7) < 1e-12
    assert s["b"]["s"] == 3.0 and s["b"]["calls"] == 2


def test_recursion_counted_once_inclusive():
    spans = [["f", 0.0, 10.0, -1], ["f", 2.0, 5.0, 0]]
    s = summarize(spans)
    assert s["f"]["s"] == 10.0
    assert s["f"]["self_s"] == 10.0


# ---------------------------------------------------------------------------
# oracles


def test_counts_and_bounds():
    assert orc.pointless_quadric_count(2) == 186
    assert orc.pointless_quadric_count(3) == 121 + 1210 * 3 == 3751
    assert orc.b_of_p(2) == Fraction(372, 2114)
    assert orc.primes_upto(20) == [2, 3, 5, 7, 11, 13, 17, 19]


def test_exact_linear_algebra():
    M = [[2, 1, 0], [1, 3, 1], [0, 1, 4]]
    assert orc.bareiss_det(M) == 18
    assert orc.bareiss_det([[0, 1], [1, 0]]) == -1
    assert orc.rank_mod_p([[1, 2, 3], [2, 4, 6], [1, 0, 1]], 5) == 2
    assert orc.signature([[2, 0, 0, 0, 0], [0, 2, 0, 0, 0],
                          [0, 0, -2, 0, 0], [0] * 5, [0] * 5]) == (2, 1)
    # a hyperbolic plane with zero diagonal
    assert orc.signature([[0, 1], [1, 0]]) == (1, 1)


def test_qp_isotropy_known_forms():
    # -1 is a sum of two squares mod 3, so the sum of four squares is
    # isotropic; (-1, 3)_3 = -1 makes the two forms below anisotropic
    assert orc.diagonal_isotropic_qp([1, 1, 1, 1], 3)
    assert not orc.diagonal_isotropic_qp([1, 1, -3, -3], 3)
    assert not orc.diagonal_isotropic_qp([1, 1, -3], 3)
    assert orc.diagonal_isotropic_qp([Fraction(1, 4), 1, -2], 3)


def test_prop_q3_members_at_3():
    Q = _pencil("prop_q3")
    assert not orc.has_smooth_qp_point(orc.gram_at(Q, (1, 0, 0, 0, 0)), 3)
    assert orc.has_smooth_qp_point(orc.gram_at(Q, (0, 1, 0, 0, 0)), 3)
    assert (1, 0, 0, 0, 0) in orc.rank_le2_points(Q, 3)
    assert orc.rank_le2_points(_pencil("thm_example"), 3) == []


def test_finite_field_scans():
    # x0^2 + x1^2 over F_3 vanishes only where its gradient does
    c = [0] * 15
    c[0] = c[5] = 1
    xy = [0] * 15
    xy[1] = 1
    assert list(orc.pointless_members([c, xy], 3)) == [True, False]
    degenerate, bad = orc.sp_bruteforce([xy] * 5, 3)
    assert degenerate and bad == []
    assert orc.macaulay_rank(_pencil("thm_example"), 6, 7) == (350, 210, 210)


def test_parse_and_paper_minors():
    assert orc.parse_poly("-t0^2 - 2*t0*t1 + 7*t1^2") == {
        (2, 0, 0, 0, 0): -1, (1, 1, 0, 0, 0): -2, (0, 2, 0, 0, 0): 7}
    m1_sq = orc.parse_poly(orc.PRINTED_M1_SQ)
    m1 = orc.parse_poly("2*t1 + 2*t2 + 8*t3 + 2*t4")
    assert orc.poly_mul(m1, m1) == m1_sq


def test_check_functions_flag_bad_outputs():
    cor = _pencil("cor_easy")
    # the first member of cor_easy is singular but definite: invariant 1/2
    bad_point = {"seed": 0, "kind": "rational", "t": [1, 0, 0, 0, 0],
                 "signature": [2, 2]}
    assert orc._check_real_point(bad_point, cor)
    good_mc = {"passes": 9, "per_prime_failures": {"2": 1, "3": 0},
               "samples": 10}
    mc = {"samples": 10, "cutoff": 3}
    assert orc._check_monte_carlo(good_mc, mc) == []
    short = dict(good_mc, passes=8)
    assert orc._check_monte_carlo(short, mc)
    census = [{"group": "census", "ok": True, "output": {"p": 2,
                                                          "count": 185}}]
    assert orc.check_sieve(census, {}, {"frames": [], "frame_primes": [2]},
                           [])
