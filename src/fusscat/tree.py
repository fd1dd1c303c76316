"""Full m-ary trees and the k-rotation rewrite move.

A tree is either a leaf or an internal node with exactly m ordered
children.  Trees model the parenthesizations of x1 * ... * xN: a node is
one application of the m-ary operation, and the left-associative reading
of an unparenthesized run folds the first m operands, then each further
group of m-1.

The right k-rotation at a node v and child position j (1 <= j <= m-1)
applies the degree-k associativity law once: it requires child j of v to
start with a left-first chain of at least k internal nodes, flattens that
chain into k(m-1)+1 operands u1..u_{K+1}, and regroups

    c1 .. c_{j-1} (u1 .. u_{K+1}) c_{j+1} .. cm
 -> c1 .. c_{j-1} u1 (u2 .. u_{K+1} c_{j+1}) c_{j+2} .. cm

so the whole subtree still covers m + k(m-1) operands.  The left
k-rotation is the exact inverse, keyed on child position j+1.
"""

from __future__ import annotations

from .errors import ArityError, FormatError, SiteError
from .params import Params, _Record

Address = tuple[int, ...]  # child indices from the root, 1-based
Site = tuple[Address, int]  # (address of node, child position j)


class Tree:
    """Immutable ordered tree; a leaf has no children.

    Instances are hashable and compare structurally.  Construct through
    leaf() / meet() so the arity invariant is enforced.
    """

    __slots__ = ("children", "leaf_count", "_hash")

    def __init__(self, children: tuple["Tree", ...] = ()):
        self.children = children
        self.leaf_count = sum(c.leaf_count for c in children) if children else 1
        self._hash = hash(children)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tree):
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a._hash != b._hash or len(a.children) != len(b.children):
                return False
            for x, y in zip(a.children, b.children):
                if x is not y:
                    pairs.append((x, y))
        return True

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        out = []
        todo: list = [self]
        while todo:
            node = todo.pop()
            if isinstance(node, str):
                out.append(node)
            elif node.is_leaf:
                out.append(".")
            else:
                out.append("(")
                todo.append(")")
                todo.extend(reversed(node.children))
        return "Tree[%s]" % "".join(out)


_LEAF = Tree()


def leaf() -> Tree:
    """The one-leaf tree (a bare operand)."""
    return _LEAF


def meet(children, params: Params) -> Tree:
    """One application of the m-ary operation to the given subtrees."""
    children = tuple(children)
    if len(children) != params.m:
        raise ArityError("meet needs exactly %d children, got %d"
                         % (params.m, len(children)))
    return Tree(children)


def left_assoc_meet(operands, params: Params) -> Tree:
    """Fold a run of operands by the left-associative convention.

    A run of P > 1 operands is valid when P >= m and P == 1 (mod m-1):
    the first m operands form a node, then every further m-1 wrap it.
    """
    operands = list(operands)
    m = params.m
    p = len(operands)
    if p == 1:
        return operands[0]
    if p < m or (p - 1) % (m - 1) != 0:
        raise ArityError(
            "a run of %d operands cannot fold at arity %d "
            "(need 1 or m + g(m-1) operands)" % (p, m))
    acc = meet(operands[:m], params)
    for start in range(m, p, m - 1):
        acc = meet([acc] + operands[start:start + m - 1], params)
    return acc


def _has_chain(t: Tree, k: int) -> bool:
    """Whether t heads a first-child chain of at least k internal nodes."""
    for _ in range(k):
        if not t.children:
            return False
        t = t.children[0]
    return True


def _flatten_spine(t: Tree, levels: int) -> list[Tree]:
    """Expand exactly `levels` first-child links of t into an operand run.

    Returns the 1 + levels*(m-1) operands whose left-associative fold
    rebuilds t.  Caller guarantees the chain is long enough.
    """
    ladder = [t]
    for _ in range(levels):
        ladder.append(ladder[-1].children[0])
    operands = [ladder[levels]]
    for node in reversed(ladder[:levels]):
        operands.extend(node.children[1:])
    return operands


def _arity_error(node: Tree, params: Params) -> ArityError:
    return ArityError("tree contains a node with %d children, expected %d"
                      % (len(node.children), params.m))


def rotation_sites(t: Tree, params: Params, direction: str = "right") -> list[Site]:
    """All (address, j) pairs where a k-rotation in the given direction
    applies, ordered by address (lexicographic) then j.

    Right rotation needs child j to head a first-child chain of at least
    k internal nodes; left rotation needs the same of child j+1.
    """
    if direction not in ("right", "left"):
        raise ValueError("direction must be 'right' or 'left', got %r" % (direction,))
    m, k = params.m, params.k
    shift = 0 if direction == "right" else 1
    sites: list[Site] = []
    path: list[int] = []  # address of the node being visited
    # (internal node, length of its parent's address, its last step)
    todo = [] if t.is_leaf else [(t, 0, ())]
    while todo:
        node, depth, step = todo.pop()
        path[depth:] = step
        children = node.children
        if len(children) != m:
            raise _arity_error(node, params)
        address = None
        for j in range(1, m):
            if _has_chain(children[j - 1 + shift], k):
                if address is None:
                    address = tuple(path)
                sites.append((address, j))
        for i in range(m, 0, -1):
            if children[i - 1].children:
                todo.append((children[i - 1], len(path), (i,)))
    return sites


def _rotate(t: Tree, address: Address, position: int, params: Params,
            direction: str) -> Tree:
    m, k = params.m, params.k
    ancestors = []
    node = t
    for index in address:
        if node.is_leaf or not 1 <= index <= len(node.children):
            raise SiteError("address %r does not resolve" % (address,))
        ancestors.append(node)
        node = node.children[index - 1]
    if node.is_leaf or len(node.children) != m:
        raise SiteError("no %d-ary node at address %r" % (m, address))
    if not 1 <= position <= m - 1:
        raise SiteError("child position must be in [1, %d], got %d"
                        % (m - 1, position))
    width = k * (m - 1)  # operands shifted by one move
    cj = node.children[position - 1]
    cnext = node.children[position]
    if direction == "right":
        if not _has_chain(cj, k):
            raise SiteError("child %d at %r has no chain of %d internal nodes"
                            % (position, address, k))
        ops = _flatten_spine(cj, k)
        new_j = ops[0]
        new_next = left_assoc_meet(ops[1:] + [cnext], params)
    else:
        if not _has_chain(cnext, k):
            raise SiteError("child %d at %r has no chain of %d internal nodes"
                            % (position + 1, address, k))
        ops = _flatten_spine(cnext, k)
        new_j = left_assoc_meet([cj] + ops[:width], params)
        new_next = ops[width]
    rebuilt = Tree(node.children[:position - 1] + (new_j, new_next)
                   + node.children[position + 1:])
    for parent, index in zip(reversed(ancestors), reversed(address)):
        rebuilt = Tree(parent.children[:index - 1] + (rebuilt,)
                       + parent.children[index:])
    return rebuilt


def rotate_right(t: Tree, address: Address, position: int, params: Params) -> Tree:
    """Apply one right k-rotation at (address, position)."""
    return _rotate(t, address, position, params, "right")


def rotate_left(t: Tree, address: Address, position: int, params: Params) -> Tree:
    """Apply one left k-rotation at (address, position); inverse of
    rotate_right at the same site."""
    return _rotate(t, address, position, params, "left")


class DepthMatrix(_Record):
    """Edge-label counts per leaf: rows[i][j] is how many times the path
    from the root to leaf j+1 descends into child i+1."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise FormatError("depth matrix needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width or any(not isinstance(e, int) or e < 0 for e in row):
                raise FormatError("depth matrix rows must be equal-length "
                                  "tuples of non-negative integers")
        if width < 1:
            raise FormatError("depth matrix needs at least one column")

    @property
    def arity(self) -> int:
        return len(self.rows)

    @property
    def leaf_count(self) -> int:
        return len(self.rows[0])


def depth_matrix(t: Tree, params: Params) -> DepthMatrix:
    """Compute the m x N matrix of per-label edge depths of t."""
    m = params.m
    columns: list[tuple[int, ...]] = []
    todo = [(t, (0,) * m)]  # (node, label counts on its root path), preorder
    while todo:
        node, counts = todo.pop()
        if node.is_leaf:
            columns.append(counts)
            continue
        if len(node.children) != m:
            raise _arity_error(node, params)
        for i in range(m - 1, -1, -1):
            todo.append((node.children[i],
                         counts[:i] + (counts[i] + 1,) + counts[i + 1:]))
    return DepthMatrix(tuple(zip(*columns)))


def enumerate_trees(params: Params, leaves: int):
    """Yield every tree with the given number of leaves, ordered by the
    Dyck tuple of its path encoding (lexicographic, ascending)."""
    from .dyck import enumerate_tuples, from_dyck

    if leaves < 1 or (leaves - 1) % (params.m - 1) != 0:
        raise ArityError("no %d-ary tree has %d leaves" % (params.m, leaves))
    for d in enumerate_tuples(params, leaves - 1):
        yield from_dyck(d, params)
