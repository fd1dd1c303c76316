"""Dyck-path encodings of trees and the linear-time equivalence test.

A tree with N leaves corresponds to a lattice path of N-1 up-runs and
N-1 down-steps, recorded as the tuple (d1, .., d_{N-1}) where d_i is the
length of the up-run immediately before the i-th down-step.  Every d_i
is a multiple of the step s = m-1, the entries sum to the length, and
the first i entries sum to at least i (the path never dips below the
axis; the trailing down-run brings it back exactly to the axis).

The encoding sends a node to s up-steps followed by the child paths
separated by single down-steps.  Read another way, the tuple is the
tree's preorder: walking depth-first, left to right, each internal node
adds s to the current up-run and each leaf but the last ends the run,
so d_i/s counts the nodes that open after leaf i-1 and before leaf i.
to_dyck is one loop over that order and from_dyck one loop over it
backwards, so neither has a depth limit.

Under the encoding a right k-rotation becomes a two-entry rewrite: one
entry drops by K = k(m-1) and a later one grows by K.  Hence the
residues mod K of d2..d_L classify trees up to k-rotations, and each
class has exactly one tuple whose entries after the first are all < K.
"""

from __future__ import annotations

from typing import Iterator, Union

from .errors import (ArityError, FormatError, InternalInvariantError,
                     SizeError)
from .params import Params, _Record
from .tree import Site, Tree, _arity_error, leaf, rotate_left, rotate_right


class DyckTuple(_Record):
    """A valid path tuple; step is the up-run granularity m-1."""

    __slots__ = ("entries", "step")

    def __init__(self, entries: tuple[int, ...], step: int):
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "step", step)
        if not (isinstance(step, int) and step >= 1):
            raise FormatError("step must be a positive integer, got %r"
                              % (step,))
        length = len(entries)
        partial = 0
        for i, e in enumerate(entries, start=1):
            if not isinstance(e, int) or e < 0:
                raise FormatError("entry %d is %r, need a non-negative integer"
                                  % (i, e))
            if e % step != 0:
                raise FormatError("entry %d is %d, not a multiple of %d"
                                  % (i, e, step))
            partial += e
            if partial < i:
                raise FormatError("path dips below the axis after %d down-steps"
                                  % i)
        if partial != length:
            raise FormatError("path ends %d above the axis"
                              % (partial - length))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _check_step(d: DyckTuple, params: Params) -> None:
    if d.step != params.step:
        raise FormatError("tuple has step %d but params require %d"
                          % (d.step, params.step))


def enumerate_tuples(params: Params, length: int) -> Iterator[DyckTuple]:
    """Yield every valid tuple of the given length in ascending
    lexicographic order."""
    s = params.step
    if length < 0 or length % s != 0:
        raise ArityError("length %d is not a multiple of the step %d"
                         % (length, s))
    return _tuples_from(length, s)


def _tuples_from(length: int, s: int) -> Iterator[DyckTuple]:
    entries: list[int] = []
    total = 0
    while True:
        # Complete the tuple with the smallest entries that keep the path
        # on or above the axis; the last one closes it.
        for i in range(len(entries), length):
            e = max(0, -(-(i + 1 - total) // s) * s)
            entries.append(e)
            total += e
        yield DyckTuple(tuple(entries), s)
        # Drop the entries that cannot grow by s and still leave the path
        # closable, then grow the last one left.
        while entries and total + s > length:
            total -= entries.pop()
        if not entries:
            return
        entries[-1] += s
        total += s


def to_dyck(t: Tree, params: Params) -> DyckTuple:
    """Encode a tree as its path tuple: walking it in preorder, each
    internal node adds m-1 to the current up-run and each leaf but the
    last ends the run with a down-step."""
    m, s = params.m, params.step
    entries: list[int] = []
    run = 0
    todo = [t]
    while todo:
        node = todo.pop()
        if not node.children:
            entries.append(run)
            run = 0
        elif len(node.children) != m:
            raise _arity_error(node, params)
        else:
            run += s
            todo.extend(node.children[::-1])
    entries.pop()  # the last leaf closes no run
    return DyckTuple(tuple(entries), s)


def from_dyck(d: DyckTuple, params: Params) -> Tree:
    """Rebuild the tree encoded by a valid tuple; inverse of to_dyck.

    Reads the preorder backwards: each leaf is pushed, and each internal
    node takes the m subtrees on top of the stack as its children."""
    _check_step(d, params)
    m, s = params.m, params.step
    tip = leaf()
    stack = [tip]  # the last leaf: no node opens between it and the one before
    for up in reversed(d.entries):
        stack.append(tip)
        for _ in range(up // s):  # the nodes that open just before this leaf
            if len(stack) < m:
                raise InternalInvariantError("path not fully consumed")
            children = tuple(stack[:-m - 1:-1])
            del stack[-m:]
            stack.append(Tree(children))
    if len(stack) != 1:
        raise InternalInvariantError("path not fully consumed")
    return stack[0]


def depth_to_tuple(dm, params: Params) -> DyckTuple:
    """Recover the path tuple straight from a depth matrix.

    With w_j the (m-i)-weighted sum of column j over labels i, the first
    entry is (m-1) * rows[0][0] and entry j is w_j - w_{j-1} + 1.
    """
    if dm.arity != params.m:
        raise FormatError("depth matrix has %d rows but arity is %d"
                          % (dm.arity, params.m))
    m = params.m
    n = dm.leaf_count
    weights = [sum((m - i) * dm.rows[i - 1][j] for i in range(1, m + 1))
               for j in range(n)]
    if n == 1:
        if weights[0] != 0:
            raise FormatError("single-leaf depth matrix must be all zero")
        return DyckTuple((), params.step)
    entries = [(m - 1) * dm.rows[0][0]]
    entries.extend(weights[j] - weights[j - 1] + 1 for j in range(1, n - 1))
    try:
        return DyckTuple(tuple(entries), params.step)
    except FormatError as exc:
        raise FormatError("matrix is not the depth matrix of any tree: %s"
                          % exc) from exc


def parse_dyck(text: str, params: Params) -> DyckTuple:
    """Read a tuple from either textual form.

    Run form: a word over {N, S} such as "NNSSNNSS".  Numeric form:
    comma-separated entries, optionally parenthesized, such as
    "(2,0,2,0)".  Whitespace is ignored.
    """
    stripped = "".join(text.split())
    if stripped in ("", "()"):
        return DyckTuple((), params.step)
    if set(stripped) <= {"N", "S"}:
        entries = []
        run = 0
        for ch in stripped:
            if ch == "N":
                run += 1
            else:
                entries.append(run)
                run = 0
        if run:
            raise FormatError("path ends with %d unmatched up-steps" % run)
        return DyckTuple(tuple(entries), params.step)
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    try:
        entries = tuple(int(piece) for piece in stripped.split(","))
    except ValueError:
        raise FormatError("cannot read %r as N/S runs or as comma-separated "
                          "entries" % (text,)) from None
    return DyckTuple(entries, params.step)


def print_dyck(d: DyckTuple, fmt: str = "tuple") -> str:
    """Render a tuple in "tuple" or "ns" form; inverse of parse_dyck."""
    if fmt == "ns":
        return "".join("N" * e + "S" for e in d.entries)
    if fmt == "tuple":
        return "(" + ",".join(str(e) for e in d.entries) + ")"
    raise ValueError("fmt must be 'tuple' or 'ns', got %r" % (fmt,))


def compress(d: DyckTuple, site: Site, params: Params,
             direction: str = "right") -> DyckTuple:
    """Image of a k-rotation under the path encoding.

    Conjugates through the tree: decode, rotate at (address, position),
    re-encode.  The result differs from d in exactly two entries, by
    -K at the earlier one and +K at the later one for direction
    "right" (the reverse for "left").
    """
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left', got %r"
                         % (direction,))
    address, position = site
    t = from_dyck(d, params)
    rotate = rotate_right if direction == "right" else rotate_left
    return to_dyck(rotate(t, address, position, params), params)


def is_minimal(d: DyckTuple, params: Params) -> bool:
    """True when every entry after the first is < K; each class holds
    exactly one such tuple and it serves as the representative."""
    _check_step(d, params)
    modulus = params.modulus
    return all(e < modulus for e in d.entries[1:])


def signature(d: DyckTuple, params: Params) -> tuple[int, ...]:
    """Residues mod K of the entries after the first; a complete
    invariant of the k-equivalence class."""
    _check_step(d, params)
    modulus = params.modulus
    return tuple(e % modulus for e in d.entries[1:])


def canonicalize(d: DyckTuple, params: Params) -> DyckTuple:
    """The unique minimal tuple equivalent to d, in closed form: reduce
    every entry after the first mod K and give the first entry whatever
    is left of the total."""
    _check_step(d, params)
    length = len(d.entries)
    if length == 0:
        return d
    tail = [e % params.modulus for e in d.entries[1:]]
    first = length - sum(tail)
    try:
        return DyckTuple((first, *tail), d.step)
    except FormatError as exc:
        raise InternalInvariantError(
            "canonical form of %r is not a valid tuple: %s"
            % (d.entries, exc)) from exc


def equivalent(a: Union[DyckTuple, Tree], b: Union[DyckTuple, Tree],
               params: Params) -> bool:
    """Whether two tuples or trees lie in the same k-equivalence class.

    Accepts any mix of trees and tuples; sizes must match."""
    da = a if isinstance(a, DyckTuple) else to_dyck(a, params)
    db = b if isinstance(b, DyckTuple) else to_dyck(b, params)
    if len(da) != len(db):
        raise SizeError("cannot compare sizes %d and %d (leaf counts %d and %d)"
                        % (len(da), len(db), len(da) + 1, len(db) + 1))
    return signature(da, params) == signature(db, params)
