"""Hand construction of blocks and approximations for the tests."""

from __future__ import annotations

from trspace import Approx, Block, EllentuckModel, FinModel, TreeModel


def atom_block(a: int) -> Block:
    return Block((a + 1, a + 2), (a,))


def ea(*atoms: int) -> Approx:
    """Ellentuck approximation from atom ids."""
    return Approx(tuple(atom_block(a) for a in atoms))


def fblk(*indices: int) -> Block:
    """FIN block over singleton ground levels: the union of x_i for the
    given ground indices."""
    return Block((indices[0] + 1, indices[-1] + 2), tuple(indices))


def fa(*groups) -> Approx:
    """FIN approximation from index tuples, e.g. fa((0,), (1, 2))."""
    return Approx(tuple(fblk(*g) for g in groups))


def atoms_of(s: Approx) -> tuple[tuple[int, ...], ...]:
    """Readable shape of an approximation: the atom tuple per block."""
    return tuple(b.atoms for b in s.blocks)


def flip_bits(model, flips, a, up, line):
    """a's row (up) or column, line, with the pairs (s, t) of flips
    negated: t's bit in the row of s and s's bit in the column of t. The
    injected relation defects pass their lines through this."""
    for s, t in flips:
        if (s if up else t) == a:
            line ^= 1 << model._bit(t if up else s)
    return line


def refuse_pairwise_hook(monkeypatch):
    """Make every space's pairwise _leq_fin raise for the rest of the
    test, so that any engine path still asking it fails."""

    def refuse(self, s, t):
        raise AssertionError("the engine asked the pairwise _leq_fin")

    for cls in (EllentuckModel, FinModel, TreeModel):
        monkeypatch.setattr(cls, "_leq_fin", refuse)
