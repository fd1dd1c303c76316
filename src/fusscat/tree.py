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

from .errors import ArityError, FormatError, SiteError
from .params import Params, _Record

Address = tuple[int, ...]  # child indices from the root, 1-based
Site = tuple[Address, int]  # (address of node, child position j)


class Tree:
    """Immutable ordered tree; a leaf has no children.

    Instances are hashable and compare structurally; a tree is hashed
    when its hash is first asked for, and _hash is None until then.  A
    root that from_dyck decoded keeps its tuple in _dyck, which to_dyck
    and unparse read in O(1), and builds its children on first read;
    every other tree reads None there.
    Construct through leaf() / meet() so the arity invariant is enforced.
    """

    __slots__ = ("children", "_hash")
    _dyck = None  # no storage: only a _Decoded root holds a tuple

    def __init__(self, children: tuple["Tree", ...] = ()):
        self.children = children
        self._hash = None

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def leaf_count(self) -> int:
        """Number of leaves: the zeros among the child counts."""
        return self._child_counts().count(0)

    def _child_counts(self) -> list[int]:
        """The child count of every node in preorder, by one walk."""
        child_counts = []
        todo = [self]
        while todo:
            children = todo.pop().children
            child_counts.append(len(children))
            todo.extend(reversed(children))
        return child_counts

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return self is other or self._child_counts() == other._child_counts()

    def __hash__(self) -> int:
        if self._hash is None:
            # Every unhashed inner node, listed after its parent: hashed in
            # reverse, each finds the hashes of the nodes below it kept, so
            # no call recurses deeper than into a leaf.
            order = [self]
            for node in order:  # the list grows while it is read
                for child in node.children:
                    if child.children and child._hash is None:
                        order.append(child)
            for node in reversed(order):
                node._hash = hash(node.children)
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

    def __reduce__(self):
        """Copy and pickle as the child counts in preorder, which _rebuild
        reads back in one loop; the default protocol would recurse once
        per level."""
        return _rebuild, (self._child_counts(),)


class _Decoded(Tree):
    """A root that from_dyck decoded.  Its children slot starts unset, so
    the first read falls to __getattr__, which builds them from the
    tuple's preorder child counts through _rebuild.
    Only these roots hold a _dyck slot, so other trees stay small."""

    __slots__ = ("_dyck",)

    def __init__(self, d):
        self._dyck, self._hash = d, None

    def __getattr__(self, name):
        if name != "children":  # such as the hooks that copy looks up
            raise AttributeError(name)
        # The preorder child counts: m for each of the up/s nodes that open
        # before a leaf, 0 for the leaf, and 0 for the last leaf.
        s = self._dyck.step
        child_counts = []
        for up in self._dyck.entries:
            if up:  # no empty list for the many entries of 0
                child_counts += [s + 1] * (up // s)
            child_counts.append(0)
        child_counts.append(0)
        self.children = _rebuild(child_counts).children
        return self.children

    @property
    def leaf_count(self) -> int:
        """Number of leaves, one more than the tuple's length: no walk."""
        return len(self._dyck) + 1

    def __reduce__(self):
        """Copy and pickle as the tuple, so the children stay unbuilt."""
        return _Decoded, (self._dyck,)


_LEAF = Tree()


def _rebuild(child_counts: list[int]) -> Tree:
    """The tree whose preorder child counts are given, built backwards in
    the one loop that decoding and copying share; leaves are shared."""
    stack: list[Tree] = []
    for count in reversed(child_counts):
        if count:
            children = tuple(stack[:-count - 1:-1])
            del stack[-count:]
            stack.append(Tree(children))
        else:
            stack.append(_LEAF)
    return stack[0]


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

    A run of P operands folds when some m-ary tree has P leaves: the
    first m operands form a node, then every further m-1 wrap it.
    """
    operands = tuple(operands)
    m = params.m
    p = len(operands)
    if not params.fits(p - 1):
        raise ArityError(
            "a run of %d operands cannot fold at arity %d "
            "(need 1 or m + g(m-1) operands)" % (p, m))
    if p == 1:
        return operands[0]
    acc = Tree(operands[:m])
    for start in range(m, p, m - 1):
        acc = Tree((acc,) + operands[start:start + m - 1])
    return acc


def _flatten_spine(t: Tree, levels: int) -> list[Tree] | None:
    """Expand exactly `levels` first-child links of t into an operand run.

    Returns the 1 + levels*(m-1) operands whose left-associative fold
    rebuilds t, or None where t's first-child chain is shorter.
    """
    ladder = [t]
    for _ in range(levels):
        if not ladder[-1].children:
            return None
        ladder.append(ladder[-1].children[0])
    operands = [ladder[levels]]
    for node in reversed(ladder[:levels]):
        operands.extend(node.children[1:])
    return operands


def _arity_error(node: Tree, params: Params) -> ArityError:
    return ArityError("tree contains a node with %d children, expected %d"
                      % (len(node.children), params.m))


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
    ops = _flatten_spine(cj if direction == "right" else cnext, k)
    if ops is None:
        raise SiteError("child %d at %r has no chain of %d internal nodes"
                        % (position + (direction == "left"), address, k))
    if direction == "right":
        new_j = ops[0]
        new_next = left_assoc_meet(ops[1:] + [cnext], params)
    else:
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
        rows = tuple(map(tuple, rows))
        object.__setattr__(self, "rows", rows)
        if not rows:
            raise FormatError("depth matrix needs at least one row")
        width = len(rows[0])
        for row in rows:
            if len(row) != width or any(type(e) is not int or e < 0 for e in row):
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

    def _weights(self, params: Params) -> list[int]:
        """Per leaf j, the sum over labels i of (m-i) * rows[i-1][j]."""
        if self.arity != params.m:
            raise FormatError("depth matrix has %d rows but arity is %d"
                              % (self.arity, params.m))
        return [sum(i * depth for i, depth in enumerate(column[::-1]))
                for column in zip(*self.rows)]


def depth_matrix(t: Tree, params: Params) -> DepthMatrix:
    """Compute the m x N matrix of per-label edge depths of t."""
    m = params.m
    columns: list[tuple[int, ...]] = []
    todo = [(t, (0,) * m)]  # (node, label depths on its root path), preorder
    while todo:
        node, depths = todo.pop()
        if node.is_leaf:
            columns.append(depths)
            continue
        if len(node.children) != m:
            raise _arity_error(node, params)
        for i in range(m - 1, -1, -1):
            todo.append((node.children[i],
                         depths[:i] + (depths[i] + 1,) + depths[i + 1:]))
    return DepthMatrix(tuple(zip(*columns)))
