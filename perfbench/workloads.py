"""The four benchmark workloads.

Each workload turns a seed into one pass of inputs, runs one op per
input through fusscat's public functions, and checks every output
against answers from `reference`, which does not use fusscat.  fusscat
functions are looked up on their modules at call time, so the tracer's
wrappers see every call.

- count_table: one op is `modular_fuss_catalan` on one (m, k, L) cell,
  for every valid cell with m in 2..4, k in 1..8 and L <= 40.  Nearly
  all time is the class-count formula; no tree or text code runs.
- expr_stream: one op is the equiv-plus-canon path on a pair of
  expression texts of 50..600 operands: parse both, encode both, take
  both signatures, canonicalize the left one and write it back as text.
  Few large, deep trees through the text and codec layers.
- class_verify: one op is the `verify --classes` job for one cell, with
  m in 2..4, k in 1..3 and up to 11 leaves: the formula, the brute-force
  count and `enumerate_classes` (with rotation traces where the tree
  count is at most 5,000).  Thousands of tiny trees through tuple
  enumeration, the codec and rotation.
- cli_oneshot: one op is one CLI invocation in a fresh interpreter
  (count, equiv, canon, a small table, a small verify --classes).
  Interpreter start, imports and argument parsing dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys

import fusscat
from fusscat import cli, counting, dyck, expr

import reference as ref

HERE = os.path.dirname(os.path.abspath(__file__))
LAUNCHER = os.path.join(HERE, "cli_launcher.py")
TRACE_LIMIT = 5000  # trees per cell up to which class_verify asks for traces


class Workload:
    name = ""
    import_target = "fusscat"  # what a fresh interpreter imports to be ready
    ops_in_children = False  # whether ops run in child processes

    def make(self, seed: int) -> list:
        """The pass's inputs, as JSON-serialisable values."""
        raise NotImplementedError

    def run(self, inp):
        """One op; its return value is what `check` inspects."""
        raise NotImplementedError

    def run_traced(self, inp):
        """The op as run under the tracer."""
        return self.run(inp)

    def check(self, index: int, inp, out) -> str | None:
        """None when `out` is right, else what is wrong with it."""
        raise NotImplementedError


def _cells(ms, ks, max_length):
    return [(m, k, length) for m in ms for k in ks
            for length in range(m - 1, max_length + 1, m - 1)]


class CountTable(Workload):
    name = "count_table"

    def make(self, seed):
        cells = [list(c) for c in _cells((2, 3, 4), range(1, 9), 40)]
        random.Random("count_table:%d" % seed).shuffle(cells)
        self.expected = [ref.count_minimal(*c) for c in cells]
        return cells

    def run(self, inp):
        m, k, length = inp
        return counting.modular_fuss_catalan(fusscat.Params(m, k), length)

    def check(self, index, inp, out):
        if out != self.expected[index]:
            return "count %r, expected %d" % (out, self.expected[index])
        return None


def _operands(m, low, high, stratum, strata):
    """The valid operand count nearest the middle of the given stratum
    of [low, high]."""
    s = m - 1
    x = low + (high - low) * (stratum + 0.5) / strata
    steps = min(max(round((x - 1) / s), -(-(low - 1) // s)), (high - 1) // s)
    return 1 + s * steps


class ExprStream(Workload):
    name = "expr_stream"
    per_params = 28  # pairs for each (m, k); 4 of them flat
    flat = 4

    def make(self, seed):
        # Every seed gets the same mix of sizes and verdicts; the seed
        # picks the shapes, the partners and the order.  For each (m, k),
        # operand counts spread evenly over 50..600 (flat runs over
        # 50..300), and for k >= 2 a quarter of the pairs are equivalent
        # (for k = 1 all pairs are).
        rng = random.Random("expr_stream:%d" % seed)
        pairs = []
        for m in (2, 3, 4):
            for k in (1, 2, 3):
                for j in range(self.per_params):
                    same = k == 1 or j % 4 == 1
                    if j < self.flat:
                        length = _operands(m, 50, 300, j, self.flat) - 1
                        left = (length,) + (0,) * (length - 1)
                    else:
                        left = ref.random_tuple(rng, m, _operands(
                            m, 50, 600, j - self.flat,
                            self.per_params - self.flat))
                    pairs.append((m, k, left,
                                  ref.partner(rng, left, m, k, same), same))
        rng.shuffle(pairs)
        inputs, self.expected = [], []
        for m, k, left, right, same in pairs:
            modulus = k * (m - 1)
            inputs.append({"m": m, "k": k,
                           "left": ref.write_text(ref.tuple_to_tree(left, m)),
                           "right": ref.write_text(ref.tuple_to_tree(right, m))})
            self.expected.append((left, right, ref.signature(left, modulus),
                                  ref.signature(right, modulus), same,
                                  ref.canonical(left, modulus)))
        self.verified_text: dict[int, str] = {}
        return inputs

    def run(self, inp):
        params = fusscat.Params(inp["m"], inp["k"])
        ta = expr.parse(inp["left"], params)
        tb = expr.parse(inp["right"], params)
        da = dyck.to_dyck(ta, params)
        db = dyck.to_dyck(tb, params)
        sa = dyck.signature(da, params)
        sb = dyck.signature(db, params)
        canon = dyck.canonicalize(da, params)
        text = expr.unparse(dyck.from_dyck(canon, params))
        return da.entries, db.entries, sa, sb, sa == sb, canon.entries, text

    def check(self, index, inp, out):
        left, right, sig_l, sig_r, same, canon = self.expected[index]
        da, db, sa, sb, verdict, got_canon, text = out
        if tuple(da) != left or tuple(db) != right:
            return "wrong path tuple"
        if tuple(sa) != sig_l or tuple(sb) != sig_r:
            return "wrong signature"
        if verdict != same:
            return "verdict %r, expected %r" % (verdict, same)
        if tuple(got_canon) != canon:
            return "wrong canonical tuple"
        if self.verified_text.get(index) != text:
            if ref.text_to_tuple(text, inp["m"]) != canon:
                return "canonical text does not read back as the canonical tuple"
            self.verified_text[index] = text
        return None


class ClassVerify(Workload):
    name = "class_verify"

    def make(self, seed):
        cells = [list(c) for c in _cells((2, 3, 4), (1, 2, 3), 10)]
        random.Random("class_verify:%d" % seed).shuffle(cells)
        self.expected = [ref.count_minimal(*c) for c in cells]
        return cells

    def run(self, inp):
        m, k, length = inp
        params = fusscat.Params(m, k)
        traces = ref.fuss_catalan(m, length + 1) <= TRACE_LIMIT
        return (counting.modular_fuss_catalan(params, length),
                counting.count_minimal_brute(params, length),
                counting.enumerate_classes(params, length + 1,
                                           with_traces=traces))

    def check(self, index, inp, out):
        m, k, length = inp
        want = self.expected[index]
        formula, brute, reports = out
        if formula != want or brute != want or len(reports) != want:
            return ("counts formula=%r brute=%r classes=%d, expected %d"
                    % (formula, brute, len(reports), want))
        modulus = k * (m - 1)
        traced = ref.fuss_catalan(m, length + 1) <= TRACE_LIMIT
        seen = set()
        previous = None
        for report in reports:
            rep = tuple(report.representative.entries)
            if (not ref.is_valid_tuple(rep, m - 1)
                    or ref.canonical(rep, modulus) != rep
                    or (previous is not None and rep <= previous)):
                return "representative %r is not minimal or out of order" % (rep,)
            previous = rep
            if report.size != len(report.members):
                return "class size disagrees with its members"
            members = [ref.tree_to_tuple(t, m, _children)
                       for t in report.members]
            if any(ref.signature(e, modulus) != rep[1:] for e in members):
                return "a member is not in the class of %r" % (rep,)
            seen.update(members)
            if traced != (report.traces is not None):
                return "traces missing or unasked for"
            if traced:
                if len(report.traces) != len(members):
                    return "not one trace per member"
                for entries, steps in zip(members, report.traces):
                    node = ref.tuple_to_tree(entries, m)
                    for direction, address, position in steps:
                        node = ref.rotate(node, direction, address, position, m, k)
                    if ref.tree_to_tuple(node, m) != rep:
                        return "a trace does not reach the representative"
        if len(seen) != ref.fuss_catalan(m, length + 1):
            return "classes hold %d distinct trees, expected %d" % (
                len(seen), ref.fuss_catalan(m, length + 1))
        return None


def _children(tree):
    return tree.children


_VERIFY_CELL = re.compile(r"m=(\d+) k=(\d+) length=(\d+)")
_VERIFY_VALUE = re.compile(r"\b(formula|brute|classes)=(\d+)\b")


class CliOneshot(Workload):
    name = "cli_oneshot"
    import_target = "fusscat.cli"
    ops_in_children = True
    per_kind = 20
    kinds = ("count", "equiv", "canon", "table", "verify")

    def make(self, seed):
        # The j-th invocation of each kind gets the same parameters for
        # every seed; the seed picks the expressions and the order.
        rng = random.Random("cli_oneshot:%d" % seed)
        made = [(kind, getattr(self, "_make_" + kind)(rng, j))
                for kind in self.kinds for j in range(self.per_kind)]
        rng.shuffle(made)
        inputs, self.expected = [], []
        for kind, (argv, want) in made:
            inputs.append({"kind": kind, "argv": [str(a) for a in argv]})
            self.expected.append(want)
        return inputs

    def _make_count(self, rng, j):
        m, k = (2, 3, 4)[j % 3], 1 + j % 4
        length = (m - 1) * (1 + j % (24 // (m - 1)))
        size = ["--length", length] if j % 2 else ["--leaves", length + 1]
        return (["count", "--m", m, "--k", k] + size,
                ref.count_minimal(m, k, length))

    def _expression(self, rng, m, j):
        return ref.random_tuple(rng, m, _operands(m, 20, 80, j, self.per_kind))

    def _make_equiv(self, rng, j):
        m, k = (2, 3, 4)[j % 3], 1 + j // 3 % 3
        modulus = k * (m - 1)
        left = self._expression(rng, m, j)
        same = k == 1 or j % 2 == 0
        right = ref.partner(rng, left, m, k, same)
        texts = [ref.write_text(ref.tuple_to_tree(t, m)) for t in (left, right)]
        return (["equiv", "--m", m, "--k", k] + texts,
                (same, [list(ref.signature(t, modulus)) for t in (left, right)],
                 ref.canonical(left, modulus)))

    def _make_canon(self, rng, j):
        m, k = (2, 3, 4)[j % 3], 1 + j // 3 % 3
        modulus = k * (m - 1)
        entries = self._expression(rng, m, j)
        return (["canon", "--m", m, "--k", k,
                 ref.write_text(ref.tuple_to_tree(entries, m))],
                (list(ref.signature(entries, modulus)),
                 ref.canonical(entries, modulus)))

    def _make_table(self, rng, j):
        m_hi, k_hi, top = 2 + j % 3, 1 + j // 3 % 3, 8 + j % 9
        want = {c: ref.count_minimal(*c) for c in _cells(
            range(2, m_hi + 1), range(1, k_hi + 1), top)}
        return (["table", "--m-range", "2..%d" % m_hi, "--k-range",
                 "1..%d" % k_hi, "--length-range", "1..%d" % top], want)

    def _make_verify(self, rng, j):
        m_hi, k_hi, top = 2 + j % 2, 1 + j // 2 % 2, 4 + j % 3
        want = {c: ref.count_minimal(*c) for c in _cells(
            range(2, m_hi + 1), range(1, k_hi + 1), top)}
        return (["verify", "--m-range", "2..%d" % m_hi, "--k-range",
                 "1..%d" % k_hi, "--max-length", top, "--classes"], want)

    def run(self, inp):
        proc = subprocess.run([sys.executable, LAUNCHER, *inp["argv"]],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def run_traced(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(inp["argv"])
        return code, out.getvalue()

    def check(self, index, inp, out):
        code, stdout = out
        return getattr(self, "_check_" + inp["kind"])(
            self.expected[index], code, stdout, inp)

    def _check_count(self, want, code, stdout, inp):
        if code != 0 or stdout.strip() != str(want):
            return "exit %r, printed %r, expected %d" % (code, stdout[:80], want)
        return None

    def _check_equiv(self, want, code, stdout, inp):
        same, signatures, canon = want
        record = json.loads(stdout)
        if code != (0 if same else 1) or record["equivalent"] != same:
            return "verdict %r (exit %r), expected %r" % (
                record.get("equivalent"), code, same)
        if record["signatures"] != signatures:
            return "wrong signatures"
        m = int(inp["argv"][2])
        if same and ref.text_to_tuple(record["canonical"], m) != canon:
            return "wrong canonical form"
        return None

    def _check_canon(self, want, code, stdout, inp):
        signature, canon = want
        record = json.loads(stdout)
        m = int(inp["argv"][2])
        if (code != 0 or record["signature"] != signature
                or ref.text_to_tuple(record["canonical"], m) != canon):
            return "wrong canonical form or signature"
        return None

    def _check_table(self, want, code, stdout, inp):
        lines = stdout.split()
        got = {}
        for line in lines[1:]:
            m, k, length, count = (int(x) for x in line.split(","))
            got[(m, k, length)] = count
        if code != 0 or lines[:1] != ["m,k,length,count"] or got != want:
            return "table differs from the reference counts"
        return None

    def _check_verify(self, want, code, stdout, inp):
        got = {}
        for line in stdout.splitlines():
            cell = _VERIFY_CELL.search(line)
            if cell is None:
                continue
            values = dict(_VERIFY_VALUE.findall(line))
            cell = tuple(int(x) for x in cell.groups())
            got[cell] = {int(v) for v in values.values()}
            if len(values) != 3:
                return "cell %r lacks a route" % (cell,)
        if code != 0 or got != {c: {n} for c, n in want.items()}:
            return "verify output differs from the reference counts"
        return None


WORKLOADS = {w.name: w for w in (CountTable, ExprStream, ClassVerify,
                                 CliOneshot)}
