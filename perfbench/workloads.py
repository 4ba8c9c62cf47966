"""The three benchmark workloads: inputs, items and the oracle for each item.

An item is one unit of timed work.  `run(tracer)` drives liecert from
outside, through `liecert.cli.main` or public module functions, and
returns what it observed; `check(result)` returns None when the result
is right and a one-line reason otherwise.  Expected values live in each
item's `expect` dict, so a test can plant a wrong one.

A workload hands out whole passes of items.  The timed phase runs passes
until its time is used up, so every run covers complete passes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from liecert import algebra, anosov, cartan, cli
from liecert.builders import CATALOG
from liecert.documents import action_to_document, serialize_document

import inputs


@dataclass
class Item:
    key: str
    run: Callable
    check: Callable
    expect: dict


class Workload:
    name = ""
    trace_passes = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def digest(self) -> str:
        raise NotImplementedError

    def passes(self):
        """Endless iterator of item lists."""
        raise NotImplementedError

    def trace_items(self) -> list[Item]:
        """The fixed item list the traced run measures."""
        return [it for p in itertools.islice(self.passes(), self.trace_passes) for it in p]


# -- catalog-cli --------------------------------------------------------------------

COMMANDS = ("validate", "analyze", "csa", "roots", "anosov", "classify")


def _cli_item(name: str, text: str, cmd: str, seed: int, expected: dict) -> Item:
    argv = [cmd, "--seed", str(seed)]
    if cmd == "roots":
        rc = 3 if expected["case"] == "solvable" else 0
    elif cmd in ("anosov", "classify"):
        rc = 0 if expected["anosov"] else 2
    else:
        rc = 0
    expect = {"rc": rc, **expected}
    first: list[str] = []

    def run(tr):
        out, err = io.StringIO(), io.StringIO()
        stdin, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tr.call("cli", "main", cli.main, argv)
        finally:
            sys.stdin = stdin
        return code, out.getvalue()

    def check(res):
        code, report = res
        if code != expect["rc"]:
            return f"exit code {code}, expected {expect['rc']}"
        if not first:
            first.append(report)
        elif report != first[0]:
            return "report differs from the first pass"
        if code != 0:
            return None
        result = json.loads(report)["result"]
        if cmd == "classify" and result["case"] != expect["case"]:
            return f"case {result['case']}, expected {expect['case']}"
        if cmd == "anosov" and bool(result["found"]) != expect["anosov"]:
            return f"anosov found={bool(result['found'])}, expected {expect['anosov']}"
        return None

    return Item(f"{name}/{cmd}", run, check, expect)


class CatalogCli(Workload):
    """Every catalog document through six CLI commands, in a fixed order."""

    name = "catalog-cli"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.docs = [
            (d.name, serialize_document(action_to_document(d.build())), d.expected)
            for d in CATALOG
        ]
        self.items = [
            _cli_item(name, text, cmd, seed, expected)
            for name, text, expected in self.docs
            for cmd in COMMANDS
        ]

    def digest(self) -> str:
        return inputs.digest({"seed": self.seed, "docs": [t for _, t, _ in self.docs]})

    def passes(self):
        return itertools.repeat(self.items)


# -- solvable-batch -----------------------------------------------------------------

# One group of items, in order: closure dimensions and suspension kinds.
# The fixed mix keeps the median inside the suspension cluster and the
# 90th percentile well inside the dimension-6 cluster for every seed, and
# the group starts with a cheap item, which set-up uses as its warm-up.
# Dimension 5 is left out: its cost varies most between draws, and next
# to the dimension-6 items it moved the 90th percentile from seed to seed.
GROUP = ("heis", 6, "ab3", 6, "heis", 6, "ab2", 6, "heis", "ab3", 4, "heis", "ab3")
POOL_GROUPS = 40


def _solvable_item(k: str, inp: inputs.SolvableInput, seed: int) -> Item:
    dim = len(inp.mats)
    expect = {"dim": dim, "derived": inp.derived_dim}

    def run(tr):
        g = tr.call("algebra", "lie_algebra_from_matrices", algebra.lie_algebra_from_matrices, inp.mats)
        rep = tr.call("algebra", "validate", g.validate)
        rad = tr.call("algebra", "radical", algebra.radical, g)
        nil = tr.call("algebra", "nilradical", algebra.nilradical, g)
        csa = tr.call("cartan", "find_csa", cartan.find_csa, g, seed=seed)
        ok = tr.call("cartan", "is_csa", cartan.is_csa, g, csa)
        return {"valid": rep.ok, "dim": g.dim, "radical": rad.dim, "nilradical": nil.dim,
                "csa": csa.dim, "is_csa": ok}

    def check(res):
        if not res["valid"]:
            return "structure constants fail validation"
        if res["dim"] != expect["dim"] or res["radical"] != expect["dim"]:
            return f"dim {res['dim']}, radical {res['radical']}; expected both {expect['dim']}"
        if not expect["derived"] <= res["nilradical"] <= expect["dim"]:
            return f"nilradical dim {res['nilradical']} outside [{expect['derived']}, {expect['dim']}]"
        if not res["is_csa"] or res["csa"] == 0:
            return f"find_csa returned a non-CSA of dim {res['csa']}"
        return None

    return Item(f"solvable-{k}-dim{dim}", run, check, expect)


def _suspension_item(k: str, inp: inputs.SuspensionInput) -> Item:
    expect = {"stable": inp.stable, "unstable": inp.unstable}

    def run(tr):
        g = tr.call("algebra", "LieAlgebra", algebra.LieAlgebra, inp.table)
        flow = tr.call("algebra", "Subspace", algebra.Subspace, g, inp.flow)
        action = tr.call("anosov", "ActionSpec", anosov.ActionSpec, g, flow)
        return tr.call("anosov", "check_anosov", anosov.check_anosov, action, inp.flow[0])

    def check(res):
        if not isinstance(res, anosov.AnosovCertificate):
            return f"refused: {res.reason}"
        if (res.dim_stable, res.dim_unstable) != (expect["stable"], expect["unstable"]):
            return (f"dims {res.dim_stable}/{res.dim_unstable}, "
                    f"expected {expect['stable']}/{expect['unstable']}")
        return None

    return Item(f"suspension-{k}", run, check, expect)


class SolvableBatch(Workload):
    """Random solvable closures interleaved with hyperbolic suspensions."""

    name = "solvable-batch"
    trace_passes = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.inputs = [
            [inputs.random_solvable(self.rng, kind) if isinstance(kind, int)
             else inputs.random_suspension(self.rng, kind) for kind in GROUP]
            for _ in range(POOL_GROUPS)
        ]
        self.groups = [
            [_solvable_item(f"{g}.{j}", inp, seed) if isinstance(inp, inputs.SolvableInput)
             else _suspension_item(f"{g}.{j}", inp) for j, inp in enumerate(group)]
            for g, group in enumerate(self.inputs)
        ]

    def digest(self) -> str:
        return inputs.digest({"seed": self.seed, "groups": self.inputs})

    def passes(self):
        return itertools.cycle(self.groups)


# -- semisimple-ladder --------------------------------------------------------------


def _split_form_item(name: str, mats, weyl: int, positive: int, elements) -> Item:
    """Roots, chambers, and Anosov checks at a regular and a singular element."""
    expect = {"chambers": weyl, "positive": positive}
    regular, singular = elements

    def run(tr):
        g = tr.call("algebra", "lie_algebra_from_matrices", algebra.lie_algebra_from_matrices, mats)
        a = tr.call("cartan", "cartan_subspace", cartan.cartan_subspace, g)
        rs = tr.call("cartan", "restricted_roots", cartan.restricted_roots, g, a)
        cs = tr.call("cartan", "weyl_chambers", cartan.weyl_chambers, rs)
        action = tr.call("anosov", "ActionSpec", anosov.ActionSpec, g, a)
        accepted = tr.call("anosov", "check_anosov", anosov.check_anosov, action, regular)
        refused = tr.call("anosov", "check_anosov", anosov.check_anosov, action, singular)
        return {"exact": rs.exact, "chambers": cs.count, "accepted": accepted, "refused": refused}

    def check(res):
        if not res["exact"] or res["chambers"] != expect["chambers"]:
            return f"{res['chambers']} chambers, expected {expect['chambers']}"
        acc = res["accepted"]
        if not isinstance(acc, anosov.AnosovCertificate):
            return "regular element refused"
        if (acc.dim_stable, acc.dim_unstable) != (expect["positive"], expect["positive"]):
            return f"dims {acc.dim_stable}/{acc.dim_unstable}, expected {expect['positive']} each"
        if not isinstance(res["refused"], anosov.AnosovRefusal):
            return "singular element accepted"
        return None

    return Item(name, run, check, expect)


def _search_item(name: str, mats, weyl: int, positive: int) -> Item:
    """One certificate per chamber from find_anosov_elements."""
    expect = {"found": weyl, "positive": positive}

    def run(tr):
        g = tr.call("algebra", "lie_algebra_from_matrices", algebra.lie_algebra_from_matrices, mats)
        a = tr.call("cartan", "cartan_subspace", cartan.cartan_subspace, g)
        action = tr.call("anosov", "ActionSpec", anosov.ActionSpec, g, a)
        return tr.call("anosov", "find_anosov_elements", anosov.find_anosov_elements, action)

    def check(found):
        if len(found) != expect["found"]:
            return f"{len(found)} certificates, expected {expect['found']}"
        for _, c in found:
            if (c.dim_stable, c.dim_unstable) != (expect["positive"], expect["positive"]):
                return f"certificate dims {c.dim_stable}/{c.dim_unstable}"
        return None

    return Item(name, run, check, expect)


def _root_system(values) -> cartan.RootSystem:
    k = len(values[0])
    roots = []
    for v in values:
        for s in (1, -1):
            w = tuple(s * x for x in v)
            roots.append(cartan.RootInfo(1, (), w, None, tuple((float(x), 0.0) for x in w), True))
    base = tuple(tuple(Fraction(int(i == j)) for j in range(k)) for i in range(k))
    return cartan.RootSystem(base, tuple(roots), True, ())


def _chambers_item(name: str, arrangements) -> Item:
    """Chamber counts of synthetic root systems, given as (roots, |W|) pairs."""
    expect = {"chambers": [weyl for _, weyl in arrangements]}
    systems = [_root_system(values) for values, _ in arrangements]

    def run(tr):
        return [tr.call("cartan", "weyl_chambers", cartan.weyl_chambers, rs) for rs in systems]

    def check(found):
        counts = [cs.count for cs in found]
        if counts != expect["chambers"]:
            return f"{counts} chambers, expected {expect['chambers']}"
        return None

    return Item(name, run, check, expect)


class SemisimpleLadder(Workload):
    """Split real forms from matrices, one search, two synthetic arrangements."""

    name = "semisimple-ladder"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.forms = {
            "sl3": (inputs.sl_basis(3), 6, 3, inputs.sl_elements(self.rng, 3)),
            "sp4": (inputs.sp_basis(2), 8, 4, inputs.sp_elements(self.rng, 2)),
            "sl4": (inputs.sl_basis(4), 24, 6, inputs.sl_elements(self.rng, 4)),
        }
        self.a4 = inputs.shuffled_roots(self.rng, inputs.positive_roots_a(4))
        self.b3 = inputs.shuffled_roots(self.rng, inputs.positive_roots_b3())
        # Five items, two of them well below sp4 in cost and two well above,
        # so the median of whole passes is an sp4 item, whose cost barely
        # moves with the seed, and never the mean of two items of different
        # kinds.  The first item is the cheapest: set-up uses it as its
        # warm-up.
        self.items = [
            _chambers_item("a4-b3-chambers", [(self.a4, 120), (self.b3, 48)]),
            _split_form_item("sl3", *self.forms["sl3"]),
            _split_form_item("sp4", *self.forms["sp4"]),
            _search_item("sp4-search", *self.forms["sp4"][:3]),
            _split_form_item("sl4", *self.forms["sl4"]),
        ]

    def digest(self) -> str:
        return inputs.digest({"seed": self.seed, "forms": self.forms,
                              "a4": self.a4, "b3": self.b3})

    def passes(self):
        return itertools.repeat(self.items)


WORKLOADS = {w.name: w for w in (CatalogCli, SolvableBatch, SemisimpleLadder)}
