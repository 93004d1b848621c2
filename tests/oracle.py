"""The executable oracle for S_F, S_P and S_C.

:func:`oracle` is a plain double loop over the reference pair
predicates of :class:`~repro.core.space.ObservationSpace`
(``is_full_containment``, ``is_partial_containment``,
``containment_degree``, ``partial_dimensions``, ``is_complementary``).
It shares no code with any compute path — no occurrence matrix, no
lattice, no kernel — so every path, the baseline included, can be held
to it on small spaces.  It is quadratic in the observation count and
meant for property tests only.
"""

from __future__ import annotations

from repro.core.results import RelationshipSet
from repro.core.space import ObservationSpace

__all__ = ["oracle"]


def oracle(space: ObservationSpace) -> RelationshipSet:
    """S_F, S_P with degree and ``map_P``, and S_C of ``space``."""
    result = RelationshipSet()
    uris = [record.uri for record in space.observations]
    for a, container in enumerate(uris):
        for b, contained in enumerate(uris):
            if space.is_full_containment(a, b):
                result.add_full(container, contained)
            elif space.is_partial_containment(a, b):
                result.add_partial(
                    container,
                    contained,
                    space.partial_dimensions(a, b),
                    space.containment_degree(a, b),
                )
            if a < b and space.is_complementary(a, b):
                result.add_complementary(container, contained)
    return result
