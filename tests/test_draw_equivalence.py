"""What a traffic client draws is what the reference forms give.

* :meth:`TemplateMix.sample` picks its entry with ``bisect_right`` over a
  CDF built once.  From twin generators it must pick the entry
  ``rng.choice(n, p=probs)`` picks, return the same instance, and leave
  both generators in the same state, for weights spanning 1e-300..1e300.
* ``instance_at(tree, i)`` builds one instance in closed form.  Its nodes
  must equal row ``i`` of ``instance_matrix(tree)`` element by element
  (order included: ``submit`` enqueues in node order) and its ``anchor``
  must be the row's first node.  S and P are checked at every height 1-12,
  every admissible size and every index; L the same up to height 8, and
  by drawn height, size and index up to height 12 (its full enumeration
  there holds over a billion node ids).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import MixEntry, TemplateMix
from repro.templates import LTemplate, PTemplate, STemplate
from repro.trees import CompleteBinaryTree

HEIGHTS = range(1, 13)


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=8
    ),
    seed=st.integers(0, 2**63 - 1),
)
def test_cdf_draw_equals_numpy_choice(weights, seed):
    tree = CompleteBinaryTree(8)
    # entry i draws paths of i + 1 nodes, so the instance names the entry
    mix = TemplateMix(tree, [MixEntry("path", i + 1, w) for i, w in enumerate(weights)])
    families = [PTemplate(i + 1) for i in range(len(weights))]
    w = np.array(weights, dtype=np.float64)
    probs = w / w.sum()
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(8):
        idx = int(twin.choice(len(weights), p=probs))
        expected = families[idx].sample(tree, twin)
        got = mix.sample(rng)
        assert got.size == idx + 1
        assert got.nodes.tolist() == expected.nodes.tolist()
        assert got.anchor == expected.anchor
    assert rng.bit_generator.state == twin.bit_generator.state


def _admissible(kind: str, height: int) -> list:
    if kind == "subtree":
        return [STemplate((1 << k) - 1) for k in range(1, height + 1)]
    if kind == "path":
        return [PTemplate(n) for n in range(1, height + 1)]
    return [LTemplate(k) for k in range(1, (1 << (height - 1)) + 1)]


def _check_rows(family, tree, indices=None) -> None:
    matrix = family.instance_matrix(tree)
    assert matrix.shape == (family.count(tree), family.size)
    for i in range(len(matrix)) if indices is None else indices:
        instance = family.instance_at(tree, i)
        row = matrix[i].tolist()
        assert instance.nodes.tolist() == row
        assert instance.anchor == row[0]


@pytest.mark.parametrize("kind, heights", [
    ("subtree", HEIGHTS),
    ("path", HEIGHTS),
    ("level", range(1, 9)),
])
def test_instance_at_is_the_matrix_row(kind, heights):
    for height in heights:
        tree = CompleteBinaryTree(height)
        for family in _admissible(kind, height):
            _check_rows(family, tree)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_level_instance_at_is_the_matrix_row_up_to_height_12(data):
    height = data.draw(st.integers(1, 12), label="height")
    size = data.draw(st.integers(1, 1 << (height - 1)), label="size")
    family, tree = LTemplate(size), CompleteBinaryTree(height)
    count = family.count(tree)
    indices = data.draw(
        st.lists(st.integers(0, count - 1), min_size=1, max_size=16), label="indices"
    )
    _check_rows(family, tree, [0, count - 1, *indices])
