"""Metamorphic checks: a relabelled or re-weighted copy of a matrix gets
the same answer, moved along with it.

Relabelling by a permutation pi moves point x to pi(x), so the copy is
d∘pi⁻¹ and its PQ-tree is the original's with every leaf moved by pi.
Two weight maps are strictly increasing on the weights, which are
nonnegative, and keep 0 at 0: w -> w² + 3w, which spreads them, and each
weight's dense rank among the matrix's distinct weights, which packs them
into 0, 1, 2, ...  Either keeps every comparison between distances: the
verdict, the PQ-tree and the mmodule tree stay, apart from each special
weight, which moves by the same map.  Both translations, PQ-tree to
mmodule tree and back, move and keep their trees the same way, and the
single-linkage dendrogram keeps its clusters, each at its mapped weight,
and moves them by pi.  A refusal stays a refusal under either change,
and the triple it reports violates the changed matrix.  The tree of a
point set equals the tree of its submatrix with the points mapped back,
since the submatrix keeps the set's order.  These hold at every n, so
they reach sizes the brute oracles cannot.  Trees are compared only through
``pqtree.equivalent`` and ``core.first_difference``, which walk without
recursion; the dataclass ``==`` recurses once per level.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from hypothesis import given, settings, strategies as st

import reference
from conftest import SHAPES, profile_subsets, robinson_matrices, shape_matrix, shape_subsets
from conftest import spine_with_block, symmetric_matrices
from robinspace import copoints, core, dendrogram as dg, generator, mmodtree as mm, pqtree as pq
from robinspace import translate
from robinspace.core import DissimilarityMatrix, Leaf


def _monotone(w: int) -> int:
    return w * w + 3 * w


def _dense_ranks(m: DissimilarityMatrix) -> Callable[[int], int]:
    """Each weight of ``m`` to its place among the distinct weights: 0 stays 0."""
    ranks = {w: r for r, w in enumerate(sorted({w for row in m.rows for w in row}))}
    return ranks.__getitem__


def _weight_maps(m: DissimilarityMatrix) -> list[Callable[[int], int]]:
    """The strictly increasing maps, 0 to 0, for the weights of ``m``."""
    return [_monotone, _dense_ranks(m)]


def _relabelled(m: DissimilarityMatrix, pi: list[int]) -> DissimilarityMatrix:
    """d∘pi⁻¹: point x of ``m`` is point pi[x] of the copy."""
    inv = [0] * len(pi)
    for x, y in enumerate(pi):
        inv[y] = x
    return DissimilarityMatrix([[m.rows[a][b] for b in inv] for a in inv], m.scale)


def _reweighted(m: DissimilarityMatrix, weight: Callable[[int], int]) -> DissimilarityMatrix:
    return DissimilarityMatrix([[weight(w) for w in row] for row in m.rows], m.scale)


def _mapped(tree, point=lambda x: x, weight=lambda w: w):
    """The tree with every leaf point and every special weight mapped."""

    def node(n, kids):
        if isinstance(n, Leaf):
            return Leaf(point(n.point))
        if isinstance(n, mm.Cap) and n.special is not None:
            return replace(n, children=tuple(kids), special=weight(n.special))
        return replace(n, children=tuple(kids))

    return core.fold(tree, node)


def _same_mmodule_tree(t1, t2) -> bool:
    return core.first_difference(mm.normal_form(t1), mm.normal_form(t2)) is None


def _clusters(m: DissimilarityMatrix, pts, point=lambda x: x, weight=lambda w: w) -> set:
    """The dendrogram's clusters on ``pts``, each point and weight mapped."""
    return {
        (tuple(sorted(map(point, leaves))), weight(w))
        for leaves, w in reference.clusters(dg.build_dendrogram(m, pts))
    }


# Robinson spaces and point sets: the profiles and shapes up to n=64, random
# small spaces, and a spine with a block in its slot.  The profiles and the
# first five shapes have no special node; the conical shapes have them at
# every level, and a spine with a block has one.  The conical shapes are
# also drawn whole past n=12, where hypothesis seldom goes by itself.
SPACES = st.one_of(
    profile_subsets(max_n=64),
    shape_subsets(max_n=64),
    st.builds(
        lambda name, n: (shape_matrix(name, n), range(n)),
        st.sampled_from(["conical-3", "conical-4"]),
        st.integers(13, 128),
    ),
    robinson_matrices(max_n=12).map(lambda m: (m, range(m.n))),
    spine_with_block(),
)


@st.composite
def relabelled_spaces(draw):
    """A Robinson space, a point set of it and a relabelling."""
    m, pts = draw(SPACES)
    return m, pts, draw(st.permutations(range(m.n)))


@settings(max_examples=200, deadline=None)
@given(relabelled_spaces())
def test_relabelling_moves_the_trees_along(case):
    m, pts, pi = case
    copy = _relabelled(m, pi)
    moved = [pi[x] for x in pts]
    assert pq.equivalent(
        copoints.pq_tree2(copy, moved), _mapped(copoints.pq_tree2(m, pts), pi.__getitem__)
    )
    assert _same_mmodule_tree(
        mm.mmodule_tree(copy, moved), _mapped(mm.mmodule_tree(m, pts), pi.__getitem__)
    )
    assert _clusters(copy, moved) == _clusters(m, pts, point=pi.__getitem__)
    assert copoints.recognize_robinson(copy).accepted


@settings(max_examples=200, deadline=None)
@given(SPACES)
def test_reweighting_keeps_the_trees(case):
    m, pts = case
    t, mt = copoints.pq_tree2(m, pts), mm.mmodule_tree(m, pts)
    for weight in _weight_maps(m):
        heavy = _reweighted(m, weight)
        assert copoints.recognize_robinson(heavy).accepted
        assert pq.equivalent(copoints.pq_tree2(heavy, pts), t)
        assert _same_mmodule_tree(mm.mmodule_tree(heavy, pts), _mapped(mt, weight=weight))
        assert _clusters(heavy, pts) == _clusters(m, pts, weight=weight)


@settings(max_examples=150, deadline=None)
@given(relabelled_spaces())
def test_relabelling_moves_both_translations_along(case):
    m, pts, pi = case
    copy, move = _relabelled(m, pi), pi.__getitem__
    t = copoints.pq_tree2(m, pts)
    mt = translate.pq_to_mmodule_tree(m, t)
    moved = translate.pq_to_mmodule_tree(copy, _mapped(t, move))
    assert _same_mmodule_tree(moved, _mapped(mt, move))
    assert pq.equivalent(
        translate.mmodule_to_pq_tree(copy, _mapped(mt, move)),
        _mapped(translate.mmodule_to_pq_tree(m, mt), move),
    )


@settings(max_examples=150, deadline=None)
@given(SPACES)
def test_reweighting_keeps_both_translations(case):
    m, pts = case
    t = copoints.pq_tree2(m, pts)
    mt = translate.pq_to_mmodule_tree(m, t)
    back = translate.mmodule_to_pq_tree(m, mt)
    for weight in _weight_maps(m):
        heavy = _reweighted(m, weight)
        heavy_mt = _mapped(mt, weight=weight)
        assert _same_mmodule_tree(translate.pq_to_mmodule_tree(heavy, t), heavy_mt)
        assert pq.equivalent(translate.mmodule_to_pq_tree(heavy, heavy_mt), back)


@settings(max_examples=100, deadline=None)
@given(symmetric_matrices(max_n=8), st.randoms(use_true_random=False))
def test_verdict_survives_relabelling_and_reweighting(m, rnd):
    pi = list(range(m.n))
    rnd.shuffle(pi)
    verdict = copoints.recognize_robinson(m).accepted
    assert copoints.recognize_robinson(_relabelled(m, pi)).accepted == verdict
    for weight in _weight_maps(m):
        assert copoints.recognize_robinson(_reweighted(m, weight)).accepted == verdict


@st.composite
def sources(draw, min_n: int = 1, max_n: int = 200):
    """The n-point matrix of a generator profile or of one of ``SHAPES``."""
    n = draw(st.integers(min_n, max_n))
    name = draw(st.sampled_from([*generator.PROFILES, *sorted(SHAPES)]))
    if name in generator.PROFILES:
        return generator.generate_matrix(n, draw(st.integers(0, 10**6)), name)
    return shape_matrix(name, n)


def _planted(m: DissimilarityMatrix) -> DissimilarityMatrix:
    """``m`` with points 0, 1, 3, 2 made a 4-cycle of short sides and long
    diagonals, as ``test_cli``'s refused inputs: no order of the four is
    compatible, so no order of the whole matrix is."""
    rows = [list(row) for row in m.rows]
    short, long = 1, 2 + max(map(max, rows))
    for x, y in ((0, 1), (1, 3), (3, 2), (2, 0)):
        rows[x][y] = rows[y][x] = short
    for x, y in ((0, 3), (1, 2)):
        rows[x][y] = rows[y][x] = long
    return DissimilarityMatrix(rows, m.scale)


def _refused_with_a_violation(m: DissimilarityMatrix) -> bool:
    result = copoints.recognize_robinson(m)
    if result.accepted:
        return False
    x, y, z = result.violation
    return m.rows[x][z] < max(m.rows[x][y], m.rows[y][z])


@settings(max_examples=60, deadline=None)
@given(sources(min_n=4, max_n=120).map(_planted), st.randoms(use_true_random=False))
def test_a_planted_refusal_survives_relabelling_and_reweighting(m, rnd):
    pi = list(range(m.n))
    rnd.shuffle(pi)
    assert _refused_with_a_violation(m)
    assert _refused_with_a_violation(_relabelled(m, pi))
    for weight in _weight_maps(m):
        assert _refused_with_a_violation(_reweighted(m, weight))


@settings(max_examples=60, deadline=None)
@given(sources(min_n=3), st.randoms(use_true_random=False))
def test_a_subset_has_the_tree_of_its_submatrix(m, rnd):
    # a third of the points; the submatrix's point i is the set's i-th smallest
    pts = sorted(rnd.sample(range(m.n), m.n // 3))
    sub = DissimilarityMatrix([[m.rows[a][b] for b in pts] for a in pts], m.scale)
    back = pts.__getitem__
    mapped = _mapped(copoints.pq_tree2(sub, range(len(pts))), back)
    assert repr(copoints.pq_tree2(m, pts)) == repr(mapped)
    assert _clusters(m, pts) == _clusters(sub, range(len(pts)), point=back)
