"""The one-variable identity sums on ``coupling.lattice_sum``.

Every builder that sums J values or recoupling weights at labels affine in
the summation index gives, bit for bit, what its hand-written term closure
gave (``tests/lattice_oracles.py``); ``lattice_sum`` reads a spec's
factors, power and sign at d = 0, 1 and 2; and on the sublattice of item 12
the hexagon's two transcribed forms both equal a pentagon product of two J
values.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import lattice_oracles as old
from qcoupling import QContext, TruncationPolicy, coupling, verifier
from qcoupling.coupling import (Factor, SumSpec, _J, _hexagon_j_display, _hexagon_side,
                                _minus_q_power, lattice_sum, variables)
from qcoupling.errors import DomainError
from qcoupling.qcore import bilateral_sum, exact_product, mantissa, qpower, rounded

CTXS = {q: QContext(q) for q in ("0.3", "0.5", "0.8")}


def _at_case_precision(fn):
    # eval_single's precision for the verifier's evaluators
    def run(*args, ctx, policy):
        with ctx.workdps(10):
            return fn(*args, ctx, policy)
    return run


_BUILDERS = {  # name -> (new, oracle, label count)
    "hankel": (_at_case_precision(verifier._eval_hankel), _at_case_precision(old.hankel), 3),
    "sixj-orthogonality": (_at_case_precision(verifier._eval_sixj_orthogonality),
                           _at_case_precision(old.sixj_orthogonality), 3),
    "backcoupling": (coupling.verify_backcoupling, old.backcoupling, 6),
    "backcoupling-forms-gap": (coupling.backcoupling_forms_gap, old.backcoupling_forms_gap, 6),
    "biedenharn-elliott": (coupling.verify_biedenharn_elliott, old.biedenharn_elliott, 6),
    "hexagon": (coupling.verify_hexagon, old.hexagon, 9),
    "hexagon-j-form": (coupling.hexagon_j_form_residual, old.hexagon_j_form, 9),
}


def _grid(size, count=12):
    # every 3-label point of [-1, 1]^3; a seeded draw of `count` points otherwise
    rng = random.Random(size)
    if size == 3:
        return [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    return [tuple(rng.randint(-1, 1) for _ in range(size)) for _ in range(count)]


@pytest.mark.parametrize("q", sorted(CTXS))
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_lattice_sum_builders_match_their_term_closures_bit_for_bit(name, q):
    # value, est_error, terms_used and converged compare with ==, on the
    # default policy and on a tighter one that widens the window
    new, ref, size = _BUILDERS[name]
    ctx = CTXS[q]
    for policy in (TruncationPolicy(), TruncationPolicy(tail_tol=1e-28)):
        for labels in _grid(size):
            assert new(*labels, ctx=ctx, policy=policy) == ref(*labels, ctx=ctx, policy=policy), \
                labels


def test_lattice_sum_reads_sign_power_and_affine_labels(ctx05):
    # on a one-point fixed window the sum is the engine's sum of one term, the
    # exact signed product, at d = 1 and d = 2; at d = 0 it is rounded once
    ctx = ctx05
    x, y = variables(2)
    fixed = TruncationPolicy(bilateral_window=(2, 2), adaptive=False)
    m, e = exact_product(qpower(5, ctx), _J(5, -1, ctx.base_squared()),
                         coupling.weight_pair(2, 2, ctx))
    factors = (Factor("J", 2 * x + 1, x - 3, 2), Factor("weight", 4 - y, 2 * y - x))
    got = lattice_sum(SumSpec(2, factors, half=x + y + 1, sign=y + 3), ctx, fixed)
    assert got == coupling._nested_vector_sum(lambda *t: (-m, e), 2, fixed, ctx)
    assert got.terms_used == 2 and got.value != 0
    line = SumSpec(1, (Factor("J", 2 * x + 1, x - 3, 2), Factor("weight", 2, 4 - x)),
                   half=2 * x + 1, sign=x + 3)
    assert lattice_sum(line, ctx, fixed) == bilateral_sum(lambda r: (-m, e), fixed, ctx)
    product = SumSpec(0, (Factor("J", 5, -1, 2), Factor("weight", 2, 2)), half=5, sign=5)
    assert lattice_sum(product, ctx) == rounded((-m, e), ctx)
    forms = SumSpec(0, (Factor("J", x - x + 5, y - y - 1, 2), Factor("weight", 2, 2)),
                    half=x * 0 + 5, sign=5)
    assert lattice_sum(forms, ctx) == rounded((-m, e), ctx)
    # a table or base that does not exist, and a form on a coordinate outside Z^dim
    for bad in (SumSpec(0, (Factor("J", 0, 0, 3),)), SumSpec(0, (Factor("weigth", 0, 0),)),
                SumSpec(0, (Factor("J", 0, x),)), SumSpec(0, (), sign=y),
                SumSpec(1, (Factor("J", 0, x + y),)), SumSpec(1, (), half=y)):
        with pytest.raises(DomainError):
            lattice_sum(bad, ctx, fixed)


def test_lattice_sum_product_is_the_term_closure_at_the_one_point():
    # a d = 0 product is read straight from its factors, not compiled: it is
    # the compiled term at the point (), rounded once, bit for bit
    rng = random.Random(3)
    for ctx in CTXS.values():
        for _ in range(40):
            factors = tuple(Factor(rng.choice(("J", "weight")), rng.randint(-4, 4),
                                   rng.randint(-4, 4), rng.choice((1, 2)))
                            for _ in range(rng.randint(0, 4)))
            spec = SumSpec(0, factors, half=rng.randint(-5, 5), sign=rng.randint(0, 3))
            want = rounded(coupling._spec_term(spec, ctx)(), ctx)
            assert lattice_sum(spec, ctx)._mpf_ == want._mpf_, spec


def _pentagon_product(x, n1, n2, n3, n4, p1, p2, p4, ctx):
    # item 12: with a, b, c, t1, t2 the J display's labels, on b + c = s the
    # left side is (-1)^{p2+p4} q^{p2+p4-2n4} (-1)^{t1+t2} Q^{-(t1+t2)/2}
    # J_{a-t1}(Q^{b-t1+t2}) J_{a-t2}(Q^{c-t2+t1}) in base Q = q^2
    p3 = x + n2 + n3 - n4 - p1
    a = n1 - n2 - n3
    b, t1 = x - p1 + n3 - n4, p2 - p1 - n4
    c, t2 = x - p3 + n2 - n4, p4 - p3 - n4
    m, e = exact_product(qpower(2 * (p2 + p4 - 2 * n4 - t1 - t2), ctx),
                         _J(a - t1, b - t1 + t2, ctx.base_squared()),
                         _J(a - t2, c - t2 + t1, ctx.base_squared()))
    return p3, rounded((-m if (p2 + p4 + t1 + t2) & 1 else m, e), ctx)


@settings(max_examples=15, deadline=None)
@given(labels=st.tuples(st.integers(0, 2), *[st.integers(-1, 1)] * 7),
       q=st.sampled_from(sorted(CTXS)))
def test_hexagon_sides_are_pentagon_products_on_the_sublattice(labels, q):
    # on x + n2 + n3 - n4 - p1 - p3 = 0 the stated J side, and the weight
    # side times the (-q)^{n2+n3} the J display drops, each equal the
    # pentagon product; a changed label map in either form breaks this
    ctx = CTXS[q]
    x, n1, n2, n3, n4, p1, p2, p4 = labels
    p3, target = _pentagon_product(x, n1, n2, n3, n4, p1, p2, p4, ctx)
    full = (x, n1, n2, n3, n4, p1, p2, p3, p4)
    j_side = lattice_sum(_hexagon_j_display(*full), ctx, None)
    weights = lattice_sum(_hexagon_side(*full), ctx, None)
    restored = rounded(exact_product(_minus_q_power(n2 + n3, ctx), mantissa(weights.value)), ctx)
    assert j_side.converged and weights.converged
    assert abs(j_side.value - target) < 1e-24
    assert abs(restored - target) < 1e-24
