"""The cube lattice (Section 3.3, Figure 4).

Each observation maps to a *cube*: the tuple of hierarchy levels of its
dimension values (node ``"210"`` = level 2 on refArea, 1 on refPeriod,
0 on sex).  The lattice orders cubes by pointwise level dominance:
cube A *may* contain cube B only if ``level_A[i] <= level_B[i]`` for
every dimension — a necessary condition for instance-level containment
that Algorithm 4 uses to prune observation comparisons.  The
admissible cube pairs themselves are enumerated once, vectorised, by
the cubeMasking planner (:func:`repro.core.cubemask._enumerate_pairs`).
"""

from __future__ import annotations

from typing import Iterator

from repro.core.space import ObservationSpace

__all__ = ["CubeLattice"]

Signature = tuple[int, ...]


def dominates(a: Signature, b: Signature) -> bool:
    """True when cube ``a`` may contain cube ``b`` (pointwise ``<=``)."""
    return all(la <= lb for la, lb in zip(a, b))


class CubeLattice:
    """Observations grouped by their level signatures.

    A view of :meth:`ObservationSpace.cubes`: the space encodes each
    observation's level signature once, as it arrives (Algorithm 4
    steps i–ii), and groups its ``levels`` rows into cubes.
    """

    def __init__(self, space: ObservationSpace):
        self.space = space
        signatures, members, offsets, _ = space.cubes()
        self.nodes: dict[Signature, list[int]] = {
            tuple(signature): members[offsets[c] : offsets[c + 1]].tolist()
            for c, signature in enumerate(signatures.tolist())
        }

    @property
    def signatures(self) -> list[Signature]:
        """Each observation's level signature, by row."""
        return list(map(tuple, self.space.levels.tolist()))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.nodes)

    def members(self, signature: Signature) -> list[int]:
        return self.nodes.get(signature, [])

    @property
    def cube_ratio(self) -> float:
        """Cubes per observation — the decreasing curve of Figure 5(f)."""
        if not len(self.space):
            return 0.0
        return len(self.nodes) / len(self.space)

    # ------------------------------------------------------------------
    # Figure 4 structure: the *full* lattice of level combinations.
    # ------------------------------------------------------------------
    def possible_signatures(self) -> Iterator[Signature]:
        """Every level combination of the hierarchies — the complete
        lattice of Figure 4, whether populated or not."""
        from itertools import product

        ranges = [
            range(self.space.hierarchies[d].max_level + 1) for d in self.space.dimensions
        ]
        yield from product(*ranges)

    def coverage(self) -> float:
        """Fraction of the possible lattice nodes actually populated."""
        total = 1
        for dimension in self.space.dimensions:
            total *= self.space.hierarchies[dimension].max_level + 1
        return len(self.nodes) / total if total else 0.0

    def render_ascii(self, max_nodes: int = 50) -> str:
        """Human-readable lattice dump, one populated node per line.

        Nodes print as Figure 4's labels (concatenated levels) with
        their member counts and direct-parent links.
        """
        lines = [f"cube lattice: {len(self.nodes)} populated nodes, coverage {self.coverage():.0%}"]
        shown = sorted(self.nodes)[:max_nodes]

        def label(signature: Signature) -> str:
            return "".join(str(level) for level in signature)

        populated = set(self.nodes)
        for signature in shown:
            parents = [
                other
                for other in populated
                if other != signature
                and dominates(other, signature)
                and sum(signature) - sum(other) == 1
            ]
            parent_text = (
                " <- " + ", ".join(label(p) for p in sorted(parents)) if parents else ""
            )
            lines.append(
                f"  {label(signature)}: {len(self.nodes[signature])} observation(s){parent_text}"
            )
        if len(self.nodes) > max_nodes:
            lines.append(f"  ... {len(self.nodes) - max_nodes} more")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"CubeLattice(cubes={len(self.nodes)}, observations={len(self.space)})"
