"""Sorts, objects and permutation symbols.

Objects are finite words over a set of abstract sorts; the empty word is
the unit object.  A permutation symbol is a word of objects (its blocks)
together with a permutation of the blocks.  Flattening a symbol yields the
induced bijection on letter positions, which is all that algebra instances
ever consume.  Two symbols with equal domain, codomain and flattening are
interchangeable everywhere, so ``PermSymbol.__eq__`` is exactly that
coarser equality; the block structure stays observable for composability
checks and for building the two readings of a grouped symbol.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .errors import ImaError, NotComposable


@dataclass(frozen=True, order=True)
class Sort:
    """An abstract sort, named by one letter, digit or ``_``, so that a
    word prints as its sorts' names one after another and no word but the
    unit prints as ``()``."""

    name: str

    def __post_init__(self):
        if len(self.name) != 1 or not (self.name.isalnum() or self.name == "_"):
            raise ValueError(f"sort name {self.name!r} is not one letter, digit or '_'")

    def __repr__(self):
        return f"Sort({self.name!r})"


# the canonical sort of single-sorted graphs (machines, solitons)
DEFAULT_SORT = Sort("1")


@dataclass(frozen=True)
class Obj:
    """A word of sorts; the unit object is the empty word."""

    word: tuple[Sort, ...] = ()

    @staticmethod
    def of(*sorts: Sort) -> "Obj":
        return Obj(tuple(sorts))

    @staticmethod
    def parse(text: str) -> "Obj":
        """One sort per character; ``()`` or the empty string is the unit."""
        if text in ("()", ""):
            return Obj()
        return Obj(tuple(Sort(c) for c in text))

    @staticmethod
    def read(text: str, what: str) -> "Obj":
        """``Obj.parse(text)`` of a word read from a file, with the
        ``ValueError`` of a character that is no sort raised as an
        ``ImaError`` starting with ``what``."""
        try:
            return Obj.parse(text)
        except ValueError:
            raise ImaError(f"{what} holds a character other than a letter, digit or '_'") from None

    def __len__(self) -> int:
        return len(self.word)

    def __iter__(self) -> Iterator[Sort]:
        return iter(self.word)

    def __getitem__(self, i):
        got = self.word[i]
        return Obj(got) if isinstance(i, slice) else got

    def __add__(self, other: "Obj") -> "Obj":
        return Obj(self.word + other.word)

    def __bool__(self) -> bool:
        return bool(self.word)

    def __str__(self) -> str:
        return "".join(s.name for s in self.word) or "()"

    def __repr__(self):
        return f"Obj.parse({str(self)!r})"


UNIT = Obj()


def concat(objs: Sequence[Obj]) -> Obj:
    """The words one after another, built as one tuple."""
    return Obj(tuple(s for o in objs for s in o.word))


@dataclass(frozen=True, eq=False)
class PermSymbol:
    """Blocks ``b_1 .. b_n`` plus a block permutation.

    ``pi[j]`` is the index of the block placed at target slot ``j``, so the
    codomain word is ``blocks[pi[0]] .. blocks[pi[n-1]]``.  ``dom``,
    ``cod`` and ``flatten()`` are computed on first use and kept; ``==``
    and ``hash`` read the kept values.
    """

    blocks: tuple[Obj, ...]
    pi: tuple[int, ...]

    def __post_init__(self):
        n = len(self.blocks)
        if sorted(self.pi) != list(range(n)):
            raise ValueError(f"pi must be a permutation of 0..{n - 1}")

    @classmethod
    def _assemble(cls, blocks: tuple[Obj, ...], pi: tuple[int, ...]) -> "PermSymbol":
        """A symbol whose ``pi`` is a permutation of the blocks by
        construction, unchecked: the operations below build only such."""
        rho = object.__new__(cls)
        rho.__dict__.update(blocks=blocks, pi=pi)
        return rho

    @cached_property
    def dom(self) -> Obj:
        return concat(self.blocks)

    @cached_property
    def cod(self) -> Obj:
        return concat([self.blocks[i] for i in self.pi])

    def cod_blocks(self) -> tuple[Obj, ...]:
        return tuple(map(self.blocks.__getitem__, self.pi))

    def flatten(self) -> tuple[int, ...]:
        """The induced position bijection: source letter ``i`` lands at
        target position ``flatten()[i]`` (0-based)."""
        return self._flat

    @cached_property
    def _flat(self) -> tuple[int, ...]:
        # the blocks' source start offsets; one pass over the target slots
        # then hands out target positions in order
        start = [0]
        for block in self.blocks:
            start.append(start[-1] + len(block))
        out = [0] * start[-1]
        target = 0
        for i in self.pi:
            for k in range(start[i], start[i + 1]):
                out[k] = target
                target += 1
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, PermSymbol):
            return NotImplemented
        return (
            self.dom == other.dom
            and self.cod == other.cod
            and self._flat == other._flat
        )

    def __hash__(self):
        return hash((self.dom, self.cod, self._flat))

    def __repr__(self):
        body = ")(".join(str(b) for b in self.blocks)
        one_based = tuple(i + 1 for i in self.pi)
        return f"PermSymbol[({body}) # {one_based}]"


def identity(w: Obj) -> PermSymbol:
    """The identity symbol on ``w``; blocks are the single letters of ``w``."""
    return PermSymbol._assemble(tuple(Obj.of(s) for s in w), tuple(range(len(w))))


def block_transposition(v: Obj, w: Obj) -> PermSymbol:
    """The symbol ``vw => wv`` moving the first ``|v|`` positions past the
    last ``|w|``; stored as the two blocks ``(v)(w)`` swapped."""
    return PermSymbol._assemble((v, w), (1, 0))


def from_positions(word: Obj, sends: Sequence[int]) -> PermSymbol:
    """The singleton-block symbol on ``word`` whose flattening sends source
    position ``i`` to ``sends[i]`` (0-based)."""
    n = len(word)
    if sorted(sends) != list(range(n)):
        raise ValueError("sends must be a permutation of positions")
    pi = [0] * n
    for i, j in enumerate(sends):
        pi[j] = i
    return PermSymbol._assemble(tuple(Obj.of(s) for s in word), tuple(pi))


def compose(r1: PermSymbol, r2: PermSymbol) -> PermSymbol:
    """Diagrammatic composition: ``r1`` then ``r2``.

    The two symbols must be composable as block strings: the codomain
    blocks of ``r1`` must equal the blocks of ``r2`` verbatim.
    """
    if r1.cod_blocks() != r2.blocks:
        raise NotComposable(f"cannot compose {r1!r} with {r2!r}")
    pi = tuple(map(r1.pi.__getitem__, r2.pi))
    return PermSymbol._assemble(r1.blocks, pi)


def tensor(r1: PermSymbol, r2: PermSymbol) -> PermSymbol:
    """Side-by-side juxtaposition; the second symbol's blocks are shifted."""
    return tensor_all((r1, r2))


def tensor_all(symbols: Sequence[PermSymbol]) -> PermSymbol:
    """``tensor`` folded over ``symbols``, built as one symbol: the blocks
    concatenated and each ``pi`` shifted past the blocks before it."""
    blocks: list[Obj] = []
    pi: list[int] = []
    for rho in symbols:
        shift = len(blocks)
        pi += [shift + i for i in rho.pi]
        blocks += rho.blocks
    return PermSymbol._assemble(tuple(blocks), tuple(pi))


def from_groups_fine(groups: Sequence[Sequence[Obj]], alpha: Sequence[int]) -> PermSymbol:
    """Read a grouped symbol at the letter level: one block per inner
    object, the group permutation ``alpha`` lifted blockwise."""
    if sorted(alpha) != list(range(len(groups))):
        raise ValueError("alpha must be a permutation of the groups")
    blocks: list[Obj] = []
    offsets = []
    for g in groups:
        offsets.append(len(blocks))
        blocks.extend(g)
    pi: list[int] = []
    for src in alpha:
        pi.extend(range(offsets[src], offsets[src] + len(groups[src])))
    return PermSymbol._assemble(tuple(blocks), tuple(pi))


def from_groups_coarse(groups: Sequence[Sequence[Obj]], alpha: Sequence[int]) -> PermSymbol:
    """Read a grouped symbol with each group collapsed to a single block."""
    blocks = tuple(concat(list(g)) for g in groups)
    return PermSymbol(blocks, tuple(alpha))
