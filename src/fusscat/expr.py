"""Concrete syntax for parenthesized operand runs.

An expression is a run of operands joined by optional '*' (whitespace
alone also separates); an operand is a variable name or a parenthesized
run of at least two operands.  Every run folds by the left-associative
convention, so its operand count must be 1 or m + g(m-1).

The text lists the leaves in preorder, as the path tuple does, so text
and tuple convert in one pass each with no tree in between; the command
line uses these passes alone.  A run of P operands folds into
(P-1)/(m-1) nodes that all open just before its first leaf, so the
reader adds P-1 to that leaf's up-run when the run closes.

The reader first turns every name into one character with one regex
substitution, then loops once over the characters of that skeleton, in
which each character but whitespace is one token.  A character that no
expression may hold is reported before any other error, but the text is
searched for one only when the read fails, as is the error's offset.

unparse() names the leaves x1..xN from the left.  The "full" style
parenthesizes every internal node below the root; the "minimal" style
also inlines a first child whose subtree is a plain chain of leaves,
the paren omission the left-associative reading recovers by itself.
"""

import re
from itertools import islice
from typing import TYPE_CHECKING

from .dyck import DyckTuple, from_dyck, to_dyck
from .errors import ArityError, ParseError
from .params import Params

if TYPE_CHECKING:
    from .tree import Tree

# A name is a non-digit word character, then word characters (Unicode
# included); the reader sees each one as the single character "a".  Any
# other visible character is an error, and wins over every other error.
# _TOKEN finds where an error's token starts; its empty match at \Z (not
# $, which also matches before a final "\n") stands for the end.
_NAME = re.compile(r"[^\W\d]\w*")
_TOKEN = re.compile(_NAME.pattern + r"|[*()]|\Z")
_BAD = re.compile(r"(?<!\w)\d|[^\w\s*()]")


def _error(text: str, skeleton: str, at: int, kind: type,
           message: str) -> Exception:
    """The error to raise where the read stopped: the first character of
    text that no expression may hold, if there is one, else kind(message)
    at the token that the at-th character of the skeleton stands for
    (at -1 is the whole text)."""
    if bad := _BAD.search(text):
        return ParseError("unexpected character %r" % bad.group(), bad.start())
    if at < 0:
        return kind(message, 0)
    index = at - sum(map(str.isspace, skeleton[:at]))  # tokens before it
    return kind(message, next(islice(_TOKEN.finditer(text), index,
                                     None)).start())


def _read(text: str, params: Params) -> DyckTuple:
    """The path tuple of an expression, read in one scan of its skeleton:
    the text with each name turned into the one character "a", so every
    character but whitespace is one token.  The first character that no
    expression may hold wins over any other error; the text is searched
    for one, and an error's offset looked up, only when the read fails."""
    skeleton = _NAME.sub("a", text)
    end = len(skeleton)
    ups: list[int] = []  # per leaf read: m-1 times the groups opening before it
    groups: list[tuple[int, int, int]] = []  # the enclosing runs, as below
    start, count, first = -1, 0, 0  # '(' position, operands, first leaf of the run
    need = True  # an operand must come next
    for i, c in enumerate(skeleton + ")"):  # the last ')' stands for the end
        if c == "a":
            ups.append(0)
            count += 1
            need = False
        elif c == "*" and not need:
            need = True
        elif c == "(":
            groups.append((start, count, first))
            start, count, first = i, 0, len(ups)
            need = True
        elif c not in "*)":
            if not c.isspace():
                raise _error(text, skeleton, i, ParseError,
                             "unexpected character %r" % c)
        elif need:
            raise _error(text, skeleton, i, ParseError, "expected an operand")
        else:  # the run ends
            if groups and count == 1:
                raise _error(text, skeleton, start, ArityError,
                             "parenthesized group needs at least two operands")
            if not params.fits(count - 1):
                raise _error(text, skeleton, start, ArityError,
                             "run of %d operands cannot fold at arity %d"
                             % (count, params.m))
            ups[first] += count - 1
            if not groups:
                if i < end:
                    raise _error(text, skeleton, i, ParseError,
                                 "unexpected ')'")
                ups.pop()  # the last leaf closes no run
                return DyckTuple(ups, params.step)
            if i == end:
                raise _error(text, skeleton, start, ParseError,
                             "unbalanced '('")
            start, count, first = groups.pop()
            count += 1


def _write(entries: tuple[int, ...], m: int, style: str) -> str:
    """The text of a path tuple, in one pass over its leaves: the
    entries[j]/(m-1) nodes opening before leaf j form a first-child chain
    whose top is wrapped unless it is the root.  A node below the top is
    wrapped in the full style, and in the minimal style when the next
    nonzero entry falls among the operands of it and the chain below it."""
    s = m - 1
    n = len(entries)  # the last leaf has no entry
    out: list[str] = []  # the text of each leaf with its parens
    stack: list[list] = []  # [children left, wrapped] per open node
    for j in range(n + 1):
        c = entries[j] // s if j < n else 0
        text = "x%d" % (j + 1)
        if c:
            below = c - 1  # wrapped nodes below the chain's top
            if style == "minimal":
                z = j + 1  # the next nonzero entry, or n
                while z < n and not entries[z]:
                    z += 1
                below = max(0, c + (j - z) // s)  # c - ceil((z-j)/s)
            stack.append([m, j > 0])
            for i in range(1, c):
                stack.append([m, i <= below])
            text = "(" * (below + (j > 0)) + text
        while stack:  # the leaf ends a child; close the nodes it completes
            node = stack[-1]
            node[0] -= 1
            if node[0]:
                break
            text += ")" * stack.pop()[1]
        out.append(text)
    return "*".join(out)


def parse(text: str, params: Params) -> "Tree":
    """Parse an expression into its tree; variable names are discarded
    (only the shape matters)."""
    return from_dyck(_read(text, params), params)


def unparse(t: "Tree", style: str = "minimal") -> str:
    """Render a tree with leaves named x1..xN left to right.

    Both styles parse back to the same tree; the minimal style is
    injective on trees of a fixed leaf count.  A tree that from_dyck
    decoded is printed from the tuple it keeps, with no walk."""
    if style not in ("minimal", "full"):
        raise ValueError("style must be 'minimal' or 'full', got %r" % (style,))
    m = max(2, len(t.children)) if t._dyck is None else t._dyck.step + 1
    return _write(to_dyck(t, Params(m, 1)).entries, m, style)
