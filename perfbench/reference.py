"""Reference answers and input generation that do not use fusscat.

Everything the benchmark checks fusscat against is computed here, from
the definitions alone:

- a ballot-style dynamic program that counts minimal tuples (one per
  k-equivalence class) in polynomial time,
- the Fuss-Catalan tree count,
- a codec between path tuples, trees and expression text, with trees
  as nested Python tuples (a leaf is the empty tuple),
- signatures, canonical tuples and the k-rotation itself,
- the seeded generator of expression pairs.

All walks over trees and text are iterative, so no input size hits the
interpreter's recursion limit here.
"""

from __future__ import annotations

import re
from math import comb

LEAF = ()
_DOWN = object()  # marker for a separating down-step in the encoder


def fuss_catalan(m: int, leaves: int) -> int:
    """Number of full m-ary trees with the given leaf count."""
    n = (leaves - 1) // (m - 1)
    return comb(m * n, n) // ((m - 1) * n + 1)


def count_minimal(m: int, k: int, length: int) -> int:
    """Number of minimal tuples of the given length, hence of classes.

    A minimal tuple has entries that are multiples of s = m-1, sum to
    `length`, have every prefix sum d1 + .. + di at least i, and every
    entry after the first below K = k(m-1).  The state is (index,
    prefix sum); the first entry is free, the rest range over the
    multiples of s below K.
    """
    s, top = m - 1, k * (m - 1)
    if length == 0:
        return 1
    ways = [0] * (length + 1)
    for first in range(s, length + 1, s):
        ways[first] = 1
    for index in range(2, length + 1):
        nxt = [0] * (length + 1)
        for total in range(index - 1, length + 1):
            w = ways[total]
            if not w:
                continue
            for entry in range(0, min(top, length - total + 1), s):
                if total + entry >= index:
                    nxt[total + entry] += w
        ways = nxt
    return ways[length]


def is_valid_tuple(entries, s: int) -> bool:
    """Whether `entries` is the path tuple of some m-ary tree."""
    partial = 0
    for i, e in enumerate(entries, start=1):
        if e < 0 or e % s:
            return False
        partial += e
        if partial < i:
            return False
    return partial == len(entries)


def signature(entries, modulus: int) -> tuple[int, ...]:
    """Residues mod K of the entries after the first."""
    return tuple(e % modulus for e in entries[1:])


def canonical(entries, modulus: int) -> tuple[int, ...]:
    """The minimal tuple with the same signature."""
    if not entries:
        return ()
    tail = signature(entries, modulus)
    return (len(entries) - sum(tail),) + tail


def tuple_to_tree(entries, m: int):
    """Decode a path tuple: a node is s up-steps, then its m child
    paths separated by single down-steps."""
    s = m - 1
    length = len(entries)
    pos = 0
    carry = entries[0] if length else 0
    root_holder: list = []
    # Each frame: (children built so far, list to append the node to).
    stack: list = []
    target = root_holder
    while True:
        if carry == 0:
            target.append(LEAF)
        else:
            carry -= s
            kids: list = []
            stack.append((kids, target))
            target = kids
            continue
        # A subtree just finished: close every node whose last child it was.
        while stack and len(stack[-1][0]) == m:
            kids, outer = stack.pop()
            outer.append(tuple(kids))
            target = outer
        if not stack:
            break
        target = stack[-1][0]
        if carry:
            raise ValueError("up-run not exhausted before a down-step")
        pos += 1
        carry = entries[pos] if pos < length else 0
    if pos != length or carry:
        raise ValueError("path not fully consumed")
    return root_holder[0]


def tree_to_tuple(tree, m: int, kids=lambda node: node) -> tuple[int, ...]:
    """Encode a tree as its path tuple; `kids` reads a node's children
    (the identity for nested tuples, `.children` for other trees)."""
    s = m - 1
    entries: list[int] = []
    run = 0
    stack = [tree]
    while stack:
        item = stack.pop()
        if item is _DOWN:
            entries.append(run)
            run = 0
            continue
        children = kids(item)
        if not children:
            continue
        if len(children) != m:
            raise ValueError("node with %d children at arity %d"
                             % (len(children), m))
        run += s
        for i in range(m - 1, -1, -1):
            stack.append(children[i])
            if i:
                stack.append(_DOWN)
    return tuple(entries)


def _fold(operands: list, m: int):
    """Left-associative reading of a run of operands."""
    p = len(operands)
    if p == 1:
        return operands[0]
    if p < m or (p - 1) % (m - 1):
        raise ValueError("a run of %d operands cannot fold at arity %d"
                         % (p, m))
    acc = tuple(operands[:m])
    for start in range(m, p, m - 1):
        acc = (acc,) + tuple(operands[start:start + m - 1])
    return acc


_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z0-9_]*)|([*()]))")


def parse_text(text: str, m: int):
    """Read an expression into a nested-tuple tree; '*' is optional
    between operands but may not stand anywhere else."""
    runs: list[list] = [[]]
    pos = 0
    end = len(text.rstrip())
    after_star = False
    while pos < end:
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError("unexpected character at %d" % pos)
        pos = match.end()
        name, sym = match.groups()
        if name is not None:
            runs[-1].append(LEAF)
        elif sym == "(":
            runs.append([])
        elif sym == "*":
            if after_star or not runs[-1]:
                raise ValueError("misplaced '*' at %d" % (pos - 1))
            after_star = True
            continue
        else:
            if after_star or len(runs) == 1 or len(runs[-1]) < 2:
                raise ValueError("bad ')' at %d" % (pos - 1))
            group = runs.pop()
            runs[-1].append(_fold(group, m))
        after_star = False
    if after_star or len(runs) != 1 or not runs[0]:
        raise ValueError("unbalanced or empty expression")
    return _fold(runs[0], m)


def text_to_tuple(text: str, m: int) -> tuple[int, ...]:
    return tree_to_tuple(parse_text(text, m), m)


def _spine_operands(node) -> list:
    """Operands of a node's run with its whole first-child chain
    flattened: they fold back to the node left-associatively."""
    ladder = [node]
    while ladder[-1][0]:
        ladder.append(ladder[-1][0])
    operands = [LEAF]
    for n in reversed(ladder):
        operands.extend(n[1:])
    return operands


def write_text(tree) -> str:
    """Render a nested-tuple tree as text with leaves x1..xN, writing
    each first-child chain as one unparenthesised run."""
    out: list[str] = []
    counter = 0
    stack: list = [tree]  # strings to emit, leaves, nodes to write as runs
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item:
            counter += 1
            out.append("x%d" % counter)
        else:
            operands = _spine_operands(item)
            for i in range(len(operands) - 1, -1, -1):
                if operands[i]:
                    stack.extend((")", operands[i], "("))
                else:
                    stack.append(LEAF)
                if i:
                    stack.append("*")
    return "".join(out)


def _node_at(tree, address):
    node = tree
    for index in address:
        node = node[index - 1]
    return node


def _replace_at(tree, address, replacement):
    path = [tree]
    for index in address:
        path.append(path[-1][index - 1])
    node = replacement
    for depth in range(len(address) - 1, -1, -1):
        parent = path[depth]
        index = address[depth]
        node = parent[:index - 1] + (node,) + parent[index:]
    return node


def _flatten(node, levels: int) -> list:
    ladder = [node]
    for _ in range(levels):
        if not ladder[-1]:
            raise ValueError("first-child chain shorter than %d" % levels)
        ladder.append(ladder[-1][0])
    operands = [ladder[levels]]
    for n in reversed(ladder[:levels]):
        operands.extend(n[1:])
    return operands


def rotate(tree, direction: str, address, position: int, m: int, k: int):
    """One k-rotation at (address, position).

    Right: child j's first k chain levels flatten into K+1 operands
    u1..u_{K+1}; u1 becomes child j and u2..u_{K+1} fold with child
    j+1.  Left is the inverse, keyed on child j+1.
    """
    node = _node_at(tree, address)
    if len(node) != m or not 1 <= position <= m - 1:
        raise ValueError("no rotation site at %r/%d" % (address, position))
    width = k * (m - 1)
    cj, cnext = node[position - 1], node[position]
    if direction == "right":
        ops = _flatten(cj, k)
        new_j, new_next = ops[0], _fold(ops[1:] + [cnext], m)
    elif direction == "left":
        ops = _flatten(cnext, k)
        new_j, new_next = _fold([cj] + ops[:width], m), ops[width]
    else:
        raise ValueError("direction %r" % (direction,))
    rebuilt = node[:position - 1] + (new_j, new_next) + node[position + 1:]
    return _replace_at(tree, address, rebuilt)


def random_tuple(rng, m: int, leaves: int) -> tuple[int, ...]:
    """A uniformly random path tuple with the given leaf count, by the
    cycle lemma on the preorder arity word."""
    n = (leaves - 1) // (m - 1)
    word = [m] * n + [0] * leaves
    rng.shuffle(word)
    # The unique valid rotation starts after the first minimum of the
    # running count (+m-1 per node, -1 per leaf).
    level, low, cut = 0, 1, 0
    for i, a in enumerate(word):
        level += a - 1
        if level < low:
            low, cut = level, i + 1
    word = word[cut:] + word[:cut]
    # Preorder word -> tree, then encode.
    root_holder: list = []
    stack: list = []
    for a in word:
        node_kids: list = []
        if a:
            stack.append((node_kids, a))
            continue
        done = LEAF
        while True:
            if not stack:
                root_holder.append(done)
                break
            stack[-1][0].append(done)
            if len(stack[-1][0]) < stack[-1][1]:
                break
            done = tuple(stack.pop()[0])
    return tree_to_tuple(root_holder[0], m)


def _shift(rng, entries: list, delta: int, s: int) -> bool:
    """Move `delta` from one entry to a later one (or back), keeping the
    tuple valid; returns whether a valid move was found."""
    length = len(entries)
    for _ in range(64):
        i, j = sorted(rng.sample(range(length), 2))
        sign = rng.choice((1, -1))  # +1: earlier entry gives delta away
        a, b = (i, j) if sign > 0 else (j, i)
        if entries[a] < delta:
            continue
        entries[a] -= delta
        entries[b] += delta
        if is_valid_tuple(entries, s):
            return True
        entries[a] += delta
        entries[b] -= delta
    return False


def partner(rng, entries, m: int, k: int, equivalent: bool):
    """A second tuple of the same length: a few valid +-K entry shifts,
    plus one +-(m-1) shift that changes the signature when
    `equivalent` is false."""
    s, modulus = m - 1, k * (m - 1)
    out = list(entries)
    for _ in range(rng.randint(1, 8)):
        _shift(rng, out, modulus, s)
    if not equivalent:
        before = signature(out, modulus)
        for _ in range(1000):
            trial = list(out)
            if _shift(rng, trial, s, s) and signature(trial, modulus) != before:
                return tuple(trial)
        raise ValueError("no signature-changing shift found")
    return tuple(out)
