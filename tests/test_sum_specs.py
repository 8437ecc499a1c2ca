"""The chain walks and the nested sums on ``coupling.SumSpec``.

Every nested builder gives, bit for bit, what its hand-written term closure
gave (``tests/nested_oracles.py``); each walk evaluated at a point is the
exact product the old label walks gave; and a planted change of one
coefficient in a spec makes a closing identity fail.
"""

import pytest
from hypothesis import given, settings, strategies as st

import nested_oracles as old
from qcoupling import QContext, TruncationPolicy, multivariate
from qcoupling.coupling import Affine
from qcoupling.multivariate import (MultiBesselParams, ThreeNJParams, cg_expansion_residual,
                                    multi_be_stated_form_residual, multi_orthogonality_residual,
                                    multi_qbessel, s_lemma_residual, threenj_R, threenj_S,
                                    threenj_corollary_gap, verify_multivariate_BE,
                                    verify_S_composition)

CTXS = {q: QContext(q) for q in ("0.3", "0.5", "0.7")}
FIXED = TruncationPolicy(bilateral_window=(-6, 7), adaptive=False)
DEFAULT = TruncationPolicy()


def _chain(build):
    # a builder on ThreeNJParams, called with its labels
    return lambda x, n, r, s, ctx, policy: build(ThreeNJParams(x, n, r, s), ctx, policy)


_BE2 = (0, (0, 1, 0, -1), (0, 1), (1, 0))
_BE3 = (1, (0, 1, 0, -1, 0), (0, 1, 0), (1, 0, 0))
# name -> (new, oracle, label sets, policies); S-composition sums a 2-d level per
# term of its outer 2-d level (25.8M terms adaptive at q = 0.3), and cg-expansion
# reads a float CG chain per term, so they run on fixed windows, cg-expansion at
# k = 1 on the adaptive default too
_BUILDERS = {
    "multi-orthogonality": (multi_orthogonality_residual, old.multi_orthogonality,
                            [((0, 1, 0, 1), (1, -1), (1, -1)), ((0, 1, 0, 1), (1, -1), (0, 1))],
                            (FIXED, DEFAULT)),
    "s-lemma": (s_lemma_residual, old.s_lemma,
                [(1, (0, 1, 0, -1), (1, 0), (1, 0)), (1, (0, 1, 0, -1), (1, 0), (0, 1))],
                (FIXED, DEFAULT)),
    "multi-be": (_chain(verify_multivariate_BE), _chain(old.multi_be), [_BE2, _BE3],
                 (FIXED, DEFAULT)),
    "multi-be-stated": (_chain(multi_be_stated_form_residual), _chain(old.multi_be_stated_form),
                        [_BE2, _BE3], (FIXED, DEFAULT)),
    "s-composition": (verify_S_composition, old.s_composition,
                      [(1, (0, 1, -1, 0), (1, 0), (0, 1))],
                      (TruncationPolicy(bilateral_window=(-5, 5), adaptive=False), FIXED)),
    "cg-expansion": (cg_expansion_residual, old.cg_expansion, [(1, (0, 1), (0, 1, 0, 1))], (FIXED,)),
    "cg-expansion-k1": (cg_expansion_residual, old.cg_expansion,
                        [(0, (1,), (0, 1, 0)), (2, (0,), (1, -1, 1))], (FIXED, DEFAULT)),
}


@pytest.mark.parametrize("q", sorted(CTXS))
@pytest.mark.parametrize("name", list(_BUILDERS))
def test_nested_builders_match_their_term_closures_bit_for_bit(name, q, monkeypatch):
    # value, est_error, terms_used and converged compare with ==, at the
    # precision eval_single gives, the orthogonality's level table emptied
    new, ref, label_sets, policies = _BUILDERS[name]
    ctx = CTXS[q]
    monkeypatch.setattr(multivariate, "_ORTHOGONALITY_LEVELS", {})
    for policy in policies:
        for labels in label_sets:
            with ctx.workdps(10):
                got = new(*labels, ctx=ctx, policy=policy)
                want = ref(*labels, ctx=ctx, policy=policy)
            assert got == want, (labels, policy)


def _vec(size, lo=-3, hi=3):
    return st.lists(st.integers(lo, hi), min_size=size, max_size=size).map(tuple)


@st.composite
def _chain_labels(draw):
    k = draw(st.integers(1, 4))
    return draw(st.integers(-2, 2)), draw(_vec(k + 2)), draw(_vec(k)), draw(_vec(k))


@settings(max_examples=80, deadline=None)
@given(labels=_chain_labels(), q=st.sampled_from(sorted(CTXS)))
def test_walks_at_a_point_are_the_old_products(labels, q):
    # each walk at fixed labels is a product (dim = 0), rounded once: the
    # same mpf as the old label walk's exact product
    x, n, r, s = labels
    ctx = CTXS[q]
    p = ThreeNJParams(x, n, r, s)
    mb = MultiBesselParams(n, r, s)
    assert threenj_R(p, ctx)._mpf_ == old.threenj_R(p, ctx)._mpf_
    assert threenj_S(p, ctx)._mpf_ == old.threenj_S(p, ctx)._mpf_
    assert multi_qbessel(mb, ctx)._mpf_ == old.multi_qbessel(mb, ctx)._mpf_
    assert threenj_corollary_gap(p, ctx)._mpf_ == old.threenj_corollary_gap(p, ctx)._mpf_


def _plant(spec):
    # one more unit on the first coefficient of the last factor whose label has one
    j = max(j for j, f in enumerate(spec.factors) if isinstance(f.label, Affine) and f.label.coeffs)
    f = spec.factors[j]
    (i, a), *rest = f.label.coeffs
    planted = f._replace(label=Affine(f.label.const, ((i, a + 1), *rest)))
    return spec._replace(factors=spec.factors[:j] + (planted,) + spec.factors[j + 1:])


@pytest.mark.parametrize("name", ["s-lemma", "multi-be"])
def test_a_planted_coefficient_breaks_a_closing_sum(name, ctx05, monkeypatch):
    policy = TruncationPolicy(tail_tol=1e-16)
    if name == "s-lemma":
        def run():
            return s_lemma_residual(1, (0, 1, 0, -1), (1, 0), (1, 0), ctx05, policy).value
    else:
        def run():
            return verify_multivariate_BE(ThreeNJParams(*_BE2), ctx05, policy).value
    assert run() < 1e-8
    lattice_sum = multivariate.lattice_sum
    monkeypatch.setattr(multivariate, "lattice_sum",
                        lambda spec, ctx, policy=None: lattice_sum(
                            _plant(spec) if spec.dim else spec, ctx, policy))
    assert run() > 1e-3
