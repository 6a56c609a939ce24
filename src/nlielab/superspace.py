"""Z/2-graded vector spaces with named, parity-tagged bases.

A SuperSpace fixes an ordered basis and a parity for each basis vector.
Vectors are sparse coordinate dicts keyed by basis position, as
everywhere in the package; ``parity_of`` reads their parity, even for
the zero vector by convention, and ``show`` renders them.
"""

from __future__ import annotations

from .fields import Field

EVEN = 0
ODD = 1

__all__ = ["EVEN", "ODD", "SuperSpace"]


class SuperSpace:
    def __init__(self, field: Field, labels, parities):
        labels = tuple(labels)
        parities = tuple(parities)
        if len(labels) != len(parities):
            raise ValueError("labels/parities length mismatch")
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate basis labels")
        for p in parities:
            if p not in (EVEN, ODD):
                raise ValueError("parity must be 0 or 1, got %r" % (p,))
        self.field = field
        self.labels = labels
        self.parities = parities

    @property
    def dim(self) -> int:
        return len(self.labels)

    def dims(self) -> tuple[int, int]:
        """(even dimension, odd dimension)."""
        odd = sum(self.parities)
        return len(self.parities) - odd, odd

    def parity_of(self, coords: dict):
        """EVEN, ODD, or None for coordinates that mix parities.  Zero
        counts as even."""
        ps = {self.parities[i] for i in coords}
        return ps.pop() if len(ps) == 1 else None if ps else EVEN

    def show(self, coords: dict) -> str:
        """``c*label`` terms joined by `` + `` in basis order; ``0`` if none."""
        return " + ".join("%s*%s" % (c, self.labels[i]) for i, c in sorted(coords.items())) or "0"

    def reversed(self) -> "SuperSpace":
        """Parity reversal: same labels, parities flipped."""
        return SuperSpace(self.field, self.labels, tuple(1 - p for p in self.parities))

    def __eq__(self, other):
        return (
            isinstance(other, SuperSpace)
            and self.field == other.field
            and self.labels == other.labels
            and self.parities == other.parities
        )

    def __hash__(self):
        return hash((self.field, self.labels, self.parities))

    def __repr__(self):
        e, o = self.dims()
        return "SuperSpace(%d|%d over %r)" % (e, o, self.field)
