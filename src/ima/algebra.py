"""Derived operations shared by every indexed monoidal algebra.

An algebra instance exposes ``identity``, ``sum``, ``trace``, ``reindex``,
``rank_of`` and ``equivalent``.  ``sum`` takes the summands of one ``Sum``
spine as a sequence, two or more, left to right, so that an algebra can
build their sum in one pass; its value is the left fold of the binary
sum.  Composition and tensor are then derived:
plugging ``f : A -> B`` into ``g : B -> C`` is a sum followed by a block
rearrangement and a trace over the shared middle object, and juxtaposition
is a sum followed by a block rearrangement.  The caller supplies the
domain/codomain splits because a rank word alone does not determine them.
"""

from __future__ import annotations

from .errors import SplitMismatch
from .perm import Obj, block_transposition, identity, tensor, tensor_all


def compose_in(alg, f, g, a: Obj, b: Obj, c: Obj):
    """``f : a -> b`` then ``g : b -> c``."""
    if alg.rank_of(f) != a + b:
        raise SplitMismatch(f"left factor has rank {alg.rank_of(f)}, expected {a + b}")
    if alg.rank_of(g) != b + c:
        raise SplitMismatch(f"right factor has rank {alg.rank_of(g)}, expected {b + c}")
    rho = tensor(block_transposition(a, b + b), identity(c))
    return alg.trace(b, alg.reindex(alg.sum((f, g)), rho))


def tensor_in(alg, f, g, a: Obj, b: Obj, c: Obj, d: Obj):
    """``f : a -> b`` beside ``g : c -> d``."""
    if alg.rank_of(f) != a + b:
        raise SplitMismatch(f"left factor has rank {alg.rank_of(f)}, expected {a + b}")
    if alg.rank_of(g) != c + d:
        raise SplitMismatch(f"right factor has rank {alg.rank_of(g)}, expected {c + d}")
    rho = tensor_all([identity(a), block_transposition(b, c), identity(d)])
    return alg.reindex(alg.sum((f, g)), rho)

