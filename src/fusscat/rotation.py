"""k-rotations read off the path tuple, with no tree built.

A right k-rotation drops one entry by K = k(m-1) and raises a later one
by K.  _move_table lists every move of a tree in one pass over its node
counts, both directions at once: rotation_sites reads the sites off it,
compress applies one, and _traces closes a class under them.  Only these
need the moves, so the tuple and text layers never load this module.
"""

from bisect import bisect

from .counting import _budget
from .dyck import DyckTuple, _check_step, to_dyck
from .errors import BudgetError, InternalInvariantError, SiteError
from .params import Params, _check_option


def _move_table(counts: "Iterable[int]", params: Params) -> tuple:
    """Every k-rotation of the tree whose leaves have these node counts
    (path entries over s; a closing 0 for the last leaf adds no move),
    both directions in one pass: (right, left, runs).  A move is (node,
    position, lo, hi): the right move takes k from counts[lo] and adds it
    to counts[hi], the left move the reverse.  Nodes are numbered in
    preorder, which is address order, so each list is sorted as
    rotation_sites.  runs lists the up-runs as (top node, parent, child
    index of the top); a run's nodes are a chain of first children.

    The pass keeps a frame per open run, the top one in locals: its first
    leaf, top node, deepest open node v, the child v reads and the leaf
    where that child began.  Where leaf j begins child c >= 2 of v, the
    left move at (v, c-1) applies if counts[j] >= k, as child c then
    heads a chain of k nodes; for c = 2, the right move at (u, p) applies
    if v is the k-th node of the chain that child p < m of u heads: u is
    v's k-th ancestor in its run, or the deepest node of the run below,
    which reads a child >= 2."""
    m, k = params.m, params.k
    runs, right, left, frames = [], [], [], []
    first = top = start = nodes = 0  # nodes: the nodes numbered so far
    v, c = -1, m  # below the root's run, a frame with no child left to read
    for j, e in enumerate(counts):
        if j:
            while c == m:  # v has read its last child: close it
                if v == top:
                    first, top, v, c, start = frames.pop()
                else:  # its parent, above it in the run, reads child 1
                    v, c, start = v - 1, 1, first
            c += 1
            if e >= k:
                left.append((v, c - 1, start, j))
            if c == 2 and v - top >= k:
                right.append((v - k, 1, first, j))
            elif c == 2 and v - top == k - 1 and frames[-1][3] < m:
                right.append((frames[-1][2], frames[-1][3], first, j))
            start = j
        if e:
            runs.append((nodes, v, c))
            frames.append((first, top, v, c, start))
            first, top, v, c, start = j, nodes, nodes + e - 1, 1, j
            nodes += e
    right.sort()  # the pass meets a node's moves after its children's
    left.sort()
    return right, left, runs


def _address(runs: list[tuple[int, int, int]], node: int) -> tuple[int, ...]:
    """The address of a node numbered by _move_table, read off its run."""
    address: list[int] = []  # backwards, up to the root's run
    i = bisect(runs, (node + 1,)) - 1  # the node's run
    while i:
        top, parent, index = runs[i]
        address += (1,) * (node - top) + (index,)
        node = parent
        if runs[i - 1][0] > node:  # the parent's run is further back
            i = bisect(runs, (node + 1,), 0, i)
        i -= 1
    return (1,) * node + tuple(address[::-1])


def _traces(seed: str, members: list[str], params: Params) -> tuple:
    """For each member, a rotation sequence taking it to the seed, all
    codes as _coded_trees makes them.  A breadth-first closure of {seed}
    under both directions records each tree's trace when it first
    reaches it: the step back along that move, then the trace of the tree
    the move started from.  A move rewrites two counts by k.  The closure
    must be exactly the members."""
    k = params.k
    traces = {seed: ()}
    reached = [seed]
    for d in reached:  # the list grows while it is read: breadth-first
        right, left, runs = _move_table(map(ord, d), params)
        for moves, back, shift in ((right, "left", k), (left, "right", -k)):
            for node, position, lo, hi in moves:
                u = (d[:lo] + chr(ord(d[lo]) - shift) + d[lo + 1:hi]
                     + chr(ord(d[hi]) + shift) + d[hi + 1:])
                if u not in traces:
                    traces[u] = ((back, _address(runs, node), position),
                                 *traces[d])
                    reached.append(u)
    if traces.keys() != set(members):
        raise InternalInvariantError(
            "rotation closure of the representative disagrees with the "
            "signature class (%d reached, %d expected)"
            % (len(traces), len(members)))
    return tuple(map(traces.__getitem__, members))


def rotation_sites(t: "Tree", params: Params, direction: str = "right") -> "list[Site]":
    """All (address, j) pairs where a k-rotation in the given direction
    applies, ordered by address (lexicographic) then j.

    Right rotation needs child j to head a first-child chain of at least
    k internal nodes; left rotation needs the same of child j+1.  Before
    building any address, refuses with BudgetError when the addresses
    would hold more entries, their sites' summed depth, than the budget
    (FUSSCAT_BUDGET, else one million)."""
    _check_option("direction", direction, ("right", "left"))
    entries = to_dyck(t, params).entries
    counts = [e // params.step for e in entries]
    right, left, runs = _move_table(counts, params)
    moves = right if direction == "right" else left
    depths: list[int] = []  # by node; a run's top lies one below its parent
    for (top, parent, _), (end, *_) in zip(runs, runs[1:] + [(sum(counts),)]):
        first = depths[parent] + 1 if top else 0
        depths += range(first, first + end - top)
    size = sum(depths[node] for node, *_ in moves)
    budget = _budget(params, len(entries))
    if size > budget:
        raise BudgetError("addresses of %d entries exceed the budget of %d"
                          % (size, budget))
    return [(_address(runs, node), position) for node, position, _, _
            in moves]


def compress(d: DyckTuple, site: "Site", params: Params,
             direction: str = "right") -> DyckTuple:
    """Image of a k-rotation under the path encoding: the move's two-entry
    edit from _move_table, -K at the earlier entry and +K at the later one
    for direction "right" (the reverse for "left").  Builds no tree; a
    site where the tree rotation fails raises the same SiteError."""
    _check_option("direction", direction, ("right", "left"))
    address, position = site
    _check_step(d, params)
    m = params.m
    right, left, runs = _move_table([e // d.step for e in d.entries], params)
    # Child 1 of a node is node + 1, or a leaf where the node ends its run
    nodes = {(parent, index): top for top, parent, index in runs}
    tops = {top for top, _, _ in runs} | {len(d.entries) // d.step}
    node = 0 if d.entries else None  # None: a leaf
    for index in address:
        if node is None or not 1 <= index <= m:
            raise SiteError("address %r does not resolve" % (address,))
        node = (node + 1 if index == 1 and node + 1 not in tops
                else nodes.get((node, index)))
    if node is None:
        raise SiteError("no %d-ary node at address %r" % (m, address))
    if not 1 <= position <= m - 1:
        raise SiteError("child position must be in [1, %d], got %d"
                        % (m - 1, position))
    shift = params.modulus if direction == "right" else -params.modulus
    for v, j, lo, hi in (right if direction == "right" else left):
        if v == node and j == position:
            entries = list(d.entries)
            entries[lo] -= shift
            entries[hi] += shift
            return DyckTuple(tuple(entries), d.step)
    raise SiteError("child %d at %r has no chain of %d internal nodes"
                    % (position + (direction == "left"), address, params.k))
