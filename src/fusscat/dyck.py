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
to_dyck is one loop over that order, and decoding is tree._rebuild's one
loop over its child counts backwards, so neither has a depth limit.
Decoding is lazy: from_dyck's root keeps its tuple, which to_dyck and
unparse read in O(1), and builds its children when they are first read.

_coded_trees, enumerate_classes' builder, makes each size of trees over
the smaller ones and keeps the sizes it has made per arity, up to
_CODED_CAP trees in all, so that a sweep over k and L builds each tree
once per process; the lists it returns are shared and never edited.

Under the encoding a right k-rotation becomes a two-entry rewrite: one
entry drops by K = k(m-1) and a later one grows by K, which the rotation
module reads off the tuple.  Hence the residues mod K of d2..d_L classify
trees up to k-rotations, and each class has exactly one tuple whose
entries after the first are all < K, which canonicalize computes in
closed form and enumerate_classes reads off the class's seed code.
Only the functions that build or refuse a tree load the tree module,
through _tree, when they first run.
"""

from itertools import accumulate

from .errors import FormatError, InternalInvariantError, SizeError
from .params import Params, _Record, _check_option


class _TreeLayer:
    """The tree module's stand-in: the first read from it imports the
    module and binds it to _tree in its place."""

    def __getattr__(self, name):
        global _tree
        from . import tree as _tree
        return getattr(_tree, name)


_tree = _TreeLayer()


class DyckTuple(_Record):
    """A valid path tuple; step is the up-run granularity m-1."""

    __slots__ = ("entries", "step")

    def __init__(self, entries: tuple[int, ...], step: int):
        entries = tuple(entries)  # the same object when given a tuple
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "step", step)
        if not (type(step) is int and step >= 1):
            raise FormatError("step must be a positive integer, got %r"
                              % (step,))
        rest = 0  # the path's height after each down-step
        walk = iter(entries)
        for e in walk:
            if (type(e) is not int or e < 0 or e % step
                    or (rest := rest + e - 1) < 0):
                break
        else:
            if rest:
                raise FormatError("path ends %d above the axis" % rest)
            return
        i = len(entries) - walk.__length_hint__()  # e is entry i, from 1
        if type(e) is not int or e < 0:
            raise FormatError("entry %d is %r, need a non-negative integer"
                              % (i, e))
        if e % step:
            raise FormatError("entry %d is %d, not a multiple of %d"
                              % (i, e, step))
        raise FormatError("path dips below the axis after %d down-steps" % i)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def _check_step(d: DyckTuple, params: Params) -> None:
    if d.step != params.step:
        raise FormatError("tuple has step %d but params require %d"
                          % (d.step, params.step))


def enumerate_tuples(params: Params, length: int) -> "Iterator[DyckTuple]":
    """Yield every valid tuple of the given length in ascending
    lexicographic order."""
    params.check_length(length)
    s = params.step
    return (DyckTuple(entries, s) for entries in _entry_lists(length, s))


def _entry_lists(length: int, s: int) -> "Iterator[list[int]]":
    """Every list of length multiples of s that sum to the length and
    whose first i+1 entries reach floors[i], i+1 rounded up to a multiple
    of s (the path condition), in ascending order; one list, edited in
    place between yields.  The caller checks the length."""
    floors = [(i // s + 1) * s for i in range(length)]
    entries: list[int] = []
    done = 0
    while True:
        # Complete the list with the least entries that meet the floors.
        for i in range(len(entries), len(floors)):
            e = floors[i] - done if floors[i] > done else 0
            entries.append(e)
            done += e
        yield entries
        # Drop the entries that cannot grow by s, then grow the last one
        # left; the floors leave the later entries room for the rest.
        while entries and done + s > length:
            done -= entries.pop()
        if not entries:
            return
        entries[-1] += s
        done += s


def to_dyck(t: "Tree", params: Params) -> DyckTuple:
    """Encode a tree as its path tuple: walking it in preorder, each
    internal node adds m-1 to the current up-run and each leaf but the
    last ends the run with a down-step.  A tree that from_dyck decoded
    gives back the tuple it keeps, in O(1), when the step matches."""
    m, s = params.m, params.step
    if t._dyck is not None and t._dyck.step == s:
        return t._dyck
    entries: list[int] = []
    run = 0
    todo = [t]
    while todo:
        node = todo.pop()
        if not node.children:
            entries.append(run)
            run = 0
        elif len(node.children) != m:
            raise _tree._arity_error(node, params)
        else:
            run += s
            todo.extend(node.children[::-1])
    entries.pop()  # the last leaf closes no run
    return DyckTuple(entries, s)


def from_dyck(d: DyckTuple, params: Params) -> "Tree":
    """The tree encoded by a valid tuple; inverse of to_dyck.

    Decoding is lazy: the root keeps d and builds its children on first
    read, so to_dyck and unparse of it build nothing.  The call checks at
    once that d is a path, through DyckTuple's own check, so that
    _rebuild will consume the whole path; the one-leaf tree is shared and
    keeps nothing."""
    _check_step(d, params)
    try:
        DyckTuple(d.entries, d.step)
    except FormatError:
        raise InternalInvariantError("path not fully consumed") from None
    return _decode(d)


def _decode(d: DyckTuple) -> "Tree":
    """from_dyck of a tuple this package has just built, and so checked:
    parse's and enumerate_trees'."""
    return _tree._Decoded(d) if d.entries else _tree.leaf()


def enumerate_trees(params: Params, leaves: int) -> "Iterator[Tree]":
    """Every tree with the given number of leaves, in the order of their
    tuples from enumerate_tuples, which checks the size at the call."""
    return map(_decode, enumerate_tuples(params, leaves - 1))


_CODED_CAP = 2**15  # the trees that _coded_trees keeps, over all arities
# m: the (codes, trees) of each size from 0 nodes up; rebound to a longer
# copy, never edited, so a thread may lose a growth but reads no part size.
_coded: "dict[int, list[tuple[list[str], list[Tree]]]]" = {}


def _coded_trees(params: Params, length: int) -> "tuple[list[str], list[Tree]]":
    """(codes, trees) of every tree of the given length, at one index
    each; the caller checks the size.  A code holds one character per
    leaf, the nodes that open just before it in preorder (its entry over
    s, which at a large m could pass chr's range), then the last leaf's
    closing "\\0".  Codes of one size have one length, so sorting them is
    the order of enumerate_tuples; strings sort in C, untracked by the
    collector.  Builds size by size: a tree with i internal nodes is a
    node over m trees with i-1 in all, so each tree is made once and
    shared by every larger tree that holds it; a node's code is its
    children's joined, with one more node before the first leaf.

    The sizes built are kept per m in _coded while it holds at most
    _CODED_CAP trees in all (at m = 2, the sizes up to 10 nodes), so a
    later call builds only the sizes past the ones kept, and a larger size
    is built per call.  The lists returned are shared: never edit them."""
    global _coded
    m, n, store = params.m, length // params.step, _coded
    stored = store.get(m) or [(["\0"], [_tree.leaf()])]
    if n < len(stored):
        return stored[n]
    sized, Tree = list(stored), _tree.Tree
    for i in range(len(sized), n + 1):
        heads = [("", (), 0)]  # the first m-1 children: (code, trees, nodes)
        for _ in range(m - 1):
            heads = [(code + c, kids + (t,), used + j)
                     for code, kids, used in heads
                     for j in range(i - used) for c, t in zip(*sized[j])]
        # The last child takes the nodes that are left.
        sized.append((
            [chr(ord(code[0]) + 1) + code[1:] + c
             for code, _, used in heads for c in sized[i - 1 - used][0]],
            [Tree(kids + (t,))
             for _, kids, used in heads for t in sized[i - 1 - used][1]]))
    others = sum(len(trees) for key, sizes in store.items() if key != m
                 for _, trees in sizes)
    kept = sum(others + total <= _CODED_CAP
               for total in accumulate(len(trees) for _, trees in sized))
    if kept > len(stored):
        _coded = {**store, m: sized[:kept]}
    return sized[n]


def depth_to_tuple(dm, params: Params) -> DyckTuple:
    """Recover the path tuple straight from a depth matrix.

    With w_j the (m-i)-weighted sum of column j over labels i, the first
    entry is (m-1) * rows[0][0] and entry j is w_j - w_{j-1} + 1.
    """
    weights = dm._weights(params)
    n = len(weights)
    if n == 1:
        if weights[0] != 0:
            raise FormatError("single-leaf depth matrix must be all zero")
        return DyckTuple((), params.step)
    entries = [params.step * dm.rows[0][0]]
    entries.extend(weights[j] - weights[j - 1] + 1 for j in range(1, n - 1))
    try:
        return DyckTuple(entries, params.step)
    except FormatError as exc:
        raise FormatError("matrix is not the depth matrix of any tree: %s"
                          % exc) from exc


def parse_dyck(text: str, params: Params) -> DyckTuple:
    """Read a tuple from either textual form.

    Run form: a word over {N, S} such as "NNSSNNSS".  Numeric form:
    comma-separated entries, optionally parenthesized, such as
    "(2,0,2,0)", each ASCII digits with an optional leading "-" (which
    then fails as a negative entry) and, past its leading zeros, no more
    digits than the tuple's length has.  Whitespace is ignored.
    """
    stripped = "".join(text.split())
    if stripped in ("", "()"):
        return DyckTuple((), params.step)
    if set(stripped) <= {"N", "S"}:
        *runs, rest = stripped.split("S")
        if rest:
            raise FormatError("path ends with %d unmatched up-steps"
                              % len(rest))
        return DyckTuple([len(run) for run in runs], params.step)
    if stripped.startswith("(") and stripped.endswith(")"):
        stripped = stripped[1:-1]
    pieces = stripped.split(",")
    # int() alone would also read "+2", "0_2" and digits of other scripts
    if not all(p.isascii() and p.removeprefix("-").isdigit() for p in pieces):
        raise FormatError("cannot read %r as N/S runs or as comma-separated "
                          "entries" % (text,))
    digits = [p.lstrip("-0") or "0" for p in pieces]  # no leading zeros
    if max(map(len, digits)) > len(str(len(pieces))):  # before int() fails
        raise FormatError("an entry of %d digits passes the tuple's "
                          "length %d" % (max(map(len, digits)), len(pieces)))
    return DyckTuple(tuple(-int(d) if p[0] == "-" else int(d)
                           for p, d in zip(pieces, digits)), params.step)


def print_dyck(d: DyckTuple, fmt: str = "tuple") -> str:
    """Render a tuple in "tuple" or "ns" form; inverse of parse_dyck."""
    _check_option("fmt", fmt, ("tuple", "ns"))
    if fmt == "ns":
        return "".join("N" * e + "S" for e in d.entries)
    return "(" + ",".join(str(e) for e in d.entries) + ")"


def is_minimal(d: DyckTuple, params: Params) -> bool:
    """True when every entry after the first is < K; each class holds
    exactly one such tuple and it serves as the representative."""
    _check_step(d, params)
    return max(d.entries[1:], default=0) < params.modulus


def signature(d: DyckTuple, params: Params) -> tuple[int, ...]:
    """Residues mod K of the entries after the first; a complete
    invariant of the k-equivalence class."""
    _check_step(d, params)
    modulus = params.modulus
    return tuple([e % modulus for e in d.entries[1:]])


def canonicalize(d: DyckTuple, params: Params) -> DyckTuple:
    """The unique minimal tuple equivalent to d, in closed form: reduce
    every entry after the first mod K and give the first entry whatever
    is left of the total: signature's residues, with modulus read once."""
    tail, length = signature(d, params), len(d.entries)
    try:
        return DyckTuple((length - sum(tail), *tail) if length else (), d.step)
    except FormatError as exc:
        raise InternalInvariantError(
            "minimal tuple of signature %r is not a valid tuple: %s"
            % (tail, exc)) from exc


def equivalent(a: "DyckTuple | Tree", b: "DyckTuple | Tree",
               params: Params) -> bool:
    """Whether two tuples or trees lie in the same k-equivalence class.

    Accepts any mix of trees and tuples; sizes must match."""
    da = a if isinstance(a, DyckTuple) else to_dyck(a, params)
    db = b if isinstance(b, DyckTuple) else to_dyck(b, params)
    if len(da) != len(db):
        raise SizeError("cannot compare sizes %d and %d (leaf counts %d and %d)"
                        % (len(da), len(db), len(da) + 1, len(db) + 1))
    return signature(da, params) == signature(db, params)
