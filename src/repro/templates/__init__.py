"""Template families (paper Section 2): S, L, P, TP and composite C.

* :class:`STemplate` — complete subtrees of size ``K = 2**k - 1``;
* :class:`LTemplate` — runs of ``K`` consecutive nodes in one level;
* :class:`PTemplate` — ascending paths of ``N`` nodes;
* :class:`TPTemplate` — root-path + subtree instances (proof machinery for
  Lemma 1 / Theorem 2);
* :class:`CompositeInstance` / :class:`CompositeSampler` — the composite
  ``C(D, c)`` template.
"""

from repro.templates.base import ELEMENTARY_KINDS, TemplateFamily, TemplateInstance
from repro.templates.composite import (
    CompositeInstance,
    CompositeSampler,
    elementary_family,
    make_composite,
)
from repro.templates.level import LTemplate
from repro.templates.path import PTemplate
from repro.templates.subtree import STemplate
from repro.templates.tp import TPTemplate

__all__ = [
    "ELEMENTARY_KINDS",
    "CompositeInstance",
    "CompositeSampler",
    "LTemplate",
    "PTemplate",
    "STemplate",
    "TPTemplate",
    "TemplateFamily",
    "TemplateInstance",
    "elementary_family",
    "make_composite",
]
