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

The reader turns the text into tokens with string calls alone: one
str.translate to character classes, then the digits deleted, each run
of name characters joined into one "a" and whitespace dropped.  A few
searches tell whether an operand is missing; one loop over the
parentheses alone counts the names between them.  A character that no
expression may hold wins over any other error, and the other errors
come in the order a scan from the left meets them; the text is searched
for the error and its offset, with patterns compiled, only on failure.

unparse() names the leaves x1..xN from the left.  The names come from
one module-level list, x1 on, which the writer slices per call and
grows on demand up to 4,096 names (_NAMES_CAP); names past the cap are
formatted per call, so a huge text leaves no more than that behind.
The list is rebound to a longer copy, never edited, so writers in
several threads may lose a growth but never read a wrong name.

The "full" style parenthesizes every internal node below the root; the
"minimal" style also inlines a first child whose subtree is a plain
chain of leaves, the paren omission the left-associative reading
recovers by itself.
"""

from itertools import accumulate, compress

from .dyck import DyckTuple, _decode, to_dyck
from .errors import ArityError, ParseError
from .params import Params

TYPE_CHECKING = False  # typing's flag, without loading typing (and re)
if TYPE_CHECKING:
    from .tree import Tree


def _class(c: str) -> str:
    r"""The skeleton character of c, by the classes of re's \w, \d and
    \s: "d" for a decimal digit, "a" for any other word character, " "
    for whitespace, c itself for '*', '(' and ')', and "?" for anything
    else.  A name, [^\W\d]\w*, is an "a" then any "a"s and "d"s."""
    return ("d" if c.isdecimal() else "a" if c.isalnum() or c == "_"
            else " " if c.isspace() else c if c in "*()" else "?")


class _Classes(dict):
    """One read's str.translate table: the ASCII classes, and the class
    of any other code point added on first sight, so the table ends with
    the read and text cannot grow the module's."""

    __slots__ = ()

    def __missing__(self, point: int) -> str:
        self[point] = c = _class(chr(point))
        return c


_ASCII = {point: _class(chr(point)) for point in range(128)}
_STARTS = str.maketrans(" *)", "(((")  # what a token may start after, as '('
_NO_DIGITS = str.maketrans("", "", "d")
_PARENS = str.maketrans("", "", "a*")  # tokens to their parentheses
_CUTS = bytes.maketrans(b")", b"(")  # '(' for either parenthesis
_GAPS = ("**", "(*", "*)", "()")  # an operand missing at the second token
_NAMES_CAP = 4096  # leaf names that _write keeps
_names: list[str] = []  # x1, x2, ..: rebound to a longer copy, never edited


def _fault(text: str, tokens: str, gap: int, stop: int, start: int,
           count: int, params: Params) -> Exception:
    """The error that a scan of the tokens from the left meets first, when
    the run of count operands opened by the start-th parenthesis (-1 for
    the whole text) fails at the stop-th one or at the end (parentheses
    count from 0), and an operand is missing at the gap-th token, if
    there is one.  The first character of text that no expression may
    hold wins over any other error.  The patterns compile here, so a
    read that succeeds compiles none."""
    import re
    from itertools import islice

    # A character other than a word character, whitespace and '*()' is
    # an error, as is a digit that starts a token.
    if bad := re.search(r"(?<!\w)\d|[^\w\s*()]", text):
        return ParseError("unexpected character %r" % bad.group(), bad.start())
    # Each parenthesis's place among the tokens; -1 stands for the text.
    cuts = list(accumulate(map(len, tokens.replace(")", "(").split("("))))
    inner = start >= 0  # the run is a group
    at, kind = (start + cuts[start] if inner else -1), ArityError
    stop += cuts[stop]
    if gap <= stop:
        at, kind, message = gap, ParseError, "expected an operand"
    elif inner and count == 1:
        message = "parenthesized group needs at least two operands"
    elif not params.fits(count - 1):
        message = ("run of %d operands cannot fold at arity %d"
                   % (count, params.m))
    elif inner:
        kind, message = ParseError, "unbalanced '('"
    else:
        at, kind, message = stop, ParseError, "unexpected ')'"
    # A token is a name, [^\W\d]\w*, or one of '*()'; the empty match at
    # \Z (not $, which also matches before a final "\n") is the end.
    return kind(message, 0 if at < 0 else next(islice(re.finditer(
        r"[^\W\d]\w*|[*()]|\Z", text), at, None)).start())


def _read(text: str, params: Params) -> DyckTuple:
    """The path tuple of an expression, read from its tokens: the text
    with each name turned into the one character "a" and whitespace
    dropped.  A few searches find the first missing operand; one loop
    over the parentheses then counts the names between them.  An error
    is found where a scan from the left would first meet it, but a
    character that no expression may hold wins over any other; the
    text is searched for the error and its offset only when the read
    fails, by _fault."""
    # A digit that starts a token is an error, as is a "?"; every other
    # digit continues a name, so the digits go, and each run of "a"s
    # left is one name.
    classes = text.translate(_Classes(_ASCII))
    if ("?" in classes or classes[:1] == "d"
            or "(d" in classes.translate(_STARTS)):
        raise _fault(text, "", 0, 0, -1, 0, params)  # which reports it
    skeleton = classes.translate(_NO_DIGITS)
    while "aa" in skeleton:
        skeleton = skeleton.replace("aa", "a")
    tokens = skeleton.replace(" ", "")
    # An operand must come first and after each '*' and '(': the first
    # '*', ')' or end where none does is where one is missing.
    gaps = [i + 1 for i in map(tokens.find, _GAPS) if i >= 0]
    gaps += [0] * (tokens[:1] in "*)") + [len(tokens)] * (tokens[-1:] in "*(")
    gap = min(gaps, default=len(tokens) + 1)
    s = params.m - 1
    parens = tokens.translate(_PARENS)
    # The names before, between and after the parentheses, counted in the
    # tokens with '*' deleted and each parenthesis made a "(".
    cut = tokens.encode().translate(_CUTS, b"*")
    names = map(len, cut.split(b"("))
    ups = [0] * (len(cut) - len(parens))  # per leaf: m-1 per node before it
    groups: list[tuple[int, int, int]] = []  # the enclosing runs, as below
    count = leaves = next(names)  # the run's operands, and the names read
    start, first = -1, 0  # the run's '(' among the parentheses, its first leaf
    i = 0  # the parenthesis read, counted from 0
    for paren, after in zip(parens, names):
        if paren == "(":
            groups.append((start, count, first))
            start, count, first = i, after, leaves
        else:  # the run ends; _fault names what refuses it
            if count < 2 and groups or (count - 1) % s or not groups:
                raise _fault(text, tokens, gap, i, start, count, params)
            ups[first] += count - 1
            start, count, first = groups.pop()
            count += 1 + after
        leaves += after
        i += 1
    if gaps or groups or (count - 1) % s:
        raise _fault(text, tokens, gap, i, start, count, params)
    ups[0] += count - 1
    ups.pop()  # the last leaf closes no run
    return DyckTuple(ups, params.step)


def _write(entries: tuple[int, ...], m: int, style: str) -> str:
    """The text of a path tuple, in one pass over its nonzero entries:
    the entries[j]/(m-1) nodes opening before leaf j form a first-child
    chain whose top is wrapped unless it is the root.  A node below the
    top is wrapped in the full style, and in the minimal style when the
    next nonzero entry falls among the operands of it and the chain below
    it.  The leaves between two nonzero entries open no node, so the
    pass steps over them from one node they complete to the next."""
    global _names
    s = m - 1
    n = len(entries)  # the last leaf has no entry
    out = _names[:n + 1]  # each leaf with its parens
    if len(out) <= n:  # format the names past the cache, and cache a copy
        out += [f"x{i}" for i in range(len(out) + 1, n + 2)]
        _names = out[:_NAMES_CAP]
    heads = list(compress(range(n), entries))  # the leaves nodes open before
    # Per open node, the children it waits for and the ')' that ends it
    # (or ""), over a bottom entry that no run of leaves reaches.
    lefts, closes = [n + 2], [""]
    j = 0  # the leaves before j are counted in lefts
    # Each leaf z that nodes open before, with the next such leaf (n after
    # the last one); z = n + 1 closes every node left.
    for z, after in zip(heads + [n + 1], heads[1:] + [n, n]):
        # The leaves j..z-1 open no node; each node they end closes at its
        # last leaf j, which then stands for it in its parent.
        while lefts[-1] <= z - j:
            j += lefts.pop() - 1
            out[j] += closes.pop()
        if z > n:
            return "*".join(out)
        lefts[-1] -= z - j
        c = entries[z] // s
        below = c - 1  # wrapped nodes below the chain's top
        if style == "minimal":
            below = max(0, c + (z - after) // s)  # c - ceil((after-z)/s)
        out[z] = "(" * (below + (z > 0)) + out[z]
        lefts += [m] * (below + 1)
        closes += [")" if z else ""] + [")"] * below
        if c > below + 1:  # the unwrapped rest waits for one run of leaves
            lefts.append((c - 1 - below) * s + 1)
            closes.append("")
        j = z


def parse(text: str, params: Params) -> "Tree":
    """Parse an expression into its tree; variable names are discarded
    (only the shape matters).  _read's tuple is checked once, as it is
    built, and decoded as it is."""
    return _decode(_read(text, params))


def unparse(t: "Tree", style: str = "minimal") -> str:
    """Render a tree with leaves named x1..xN left to right.

    Both styles parse back to the same tree; the minimal style is
    injective on trees of a fixed leaf count.  A tree that from_dyck
    decoded is printed from the tuple it keeps, with no walk."""
    if style not in ("minimal", "full"):
        raise ValueError("style must be 'minimal' or 'full', got %r" % (style,))
    m = max(2, len(t.children)) if t._dyck is None else t._dyck.step + 1
    return _write(to_dyck(t, Params(m, 1)).entries, m, style)
