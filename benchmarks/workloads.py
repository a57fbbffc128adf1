"""Inputs and expected outputs of the three benchmark workloads.

Every workload is a list of CLI calls (argv for ``curveindex.cli.main``) and,
for each call, the exit code and JSON output it must produce.  The expected
results are derived here from the construction parameters and the paper's
closed-form law; nothing is taken from the classifier or the oracle, so a
wrong verdict counts as a failed operation.

* ``grid``: one ``verify --genus-max 24 --json`` sweep over every admissible
  ``(g, I)`` cell.  Many small models: per-cell fixed costs (construct,
  validate, exact order, report JSON) and the blowup oracle dominate.
* ``large``: ``splitting --m-invariant``, ``index`` and ``check`` on four big
  constructed models written during set-up.  The oracle is never called;
  ``map_power`` (through ``splits``, ``m_invariant`` and ``validate``) and
  ``load_model`` dominate.  ``(1001, 2000)`` is left out: one ``splitting``
  call on it alone takes about 15 s at the seed commit.
* ``circulant``: ``verify --model`` at ramification depth 12 on cubic
  circulants ``Cay(Z/I, {+-s, I/2})`` acting through translation by ``k``.
  These lie outside the constructed family: for ``I = 2 mod 4`` an even jump
  ``s`` gives the prism ``C_{I/2} x K_2``, and any other jump relabels the
  Moebius ladder.  The seed picks only the jumps, so it changes the graphs
  but not the amount of work.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# genus_max of the grid sweep, which keeps its default e_max of 6.
GRID = {"full": 24, "smoke": 4}
# (g, I) of the large models, and the residue cardinality of their ``check`` call.
LARGE = {"full": [(101, 200), (201, 400), (1001, 50), (1001, 1)], "smoke": [(11, 20), (31, 15), (21, 1)]}
LARGE_Q = 2
# (I, k): a cubic circulant on Z/I acted on by translation by k (order I/k).
# Orders of both parities, so Case 1 and Case 2 both occur.  A call costs
# about I times the number of divisors of I/k, so large I come with an order
# of few divisors: every call stays near 0.2 s or below, short enough that
# its best over a run's passes often falls in a quiet moment of a shared machine.
CIRCULANT = {
    "full": [
        (24, 1), (30, 2), (36, 4), (42, 2), (44, 2), (48, 3), (52, 2), (54, 2), (60, 4), (78, 6), (84, 6),
        (98, 2), (102, 6), (110, 10), (114, 6), (120, 24), (126, 14), (140, 70), (150, 30), (160, 40),
        (168, 56), (180, 36),
    ],
    "smoke": [(24, 2), (30, 1)],
}
CIRCULANT_E_MAX = 12
CIRCULANT_QS = ("inf", "3")


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of its result.

    ``check(exit_code, stdout)`` returns an empty string when the result is
    the expected one, else a short description of the first mismatch.
    """

    argv: list[str]
    check: Callable[[int, str], str]


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def predicted_law(order: int, d: int, e: int) -> bool:
    """The paper's law: split iff ``d = I``, or ``d = I/2`` with even ``e`` and ``I`` even."""
    return d == order or (order % 2 == 0 and 2 * d == order and e % 2 == 0)


def case_of(order: int, genus: int) -> str:
    return "Case1" if order % 2 == 1 or genus == 1 else "Case2"


def grid_cells(genus_max: int) -> list[tuple[int, int]]:
    """The admissible cells ``I | 2g - 2``, genus 1 capped at ``2 * genus_max + 2``."""
    cells = []
    for g in range(genus_max + 1):
        orders = range(1, 2 * genus_max + 3) if g == 1 else divisors(abs(2 * g - 2))
        cells += [(g, i) for i in orders]
    return cells


def _json_check(want_code: int, expect: Callable[[object], str]) -> Callable[[int, str], str]:
    def check(code: int, out: str) -> str:
        if code != want_code:
            return f"exit code {code}, expected {want_code}"
        try:
            obj = json.loads(out)
        except json.JSONDecodeError as err:
            return f"output is not JSON: {err}"
        return expect(obj)

    return check


def grid_ops(ci, workdir: Path, seed: int, size: str) -> list[Op]:
    genus_max = GRID[size]
    cells = grid_cells(genus_max)

    def expect(obj) -> str:
        got = [(c["genus"], c["order"]) for c in obj["cells"]]
        if got != cells:
            return f"{len(got)} cells, expected {len(cells)}"
        if obj["passed"] is not True or not all(c["passed"] for c in obj["cells"]):
            return "report did not pass"
        bad = [(c["genus"], c["order"]) for c in obj["cells"] if c["index"] != c["order"]]
        return f"index differs from I at {bad[:3]}" if bad else ""

    return [Op(["verify", "--genus-max", str(genus_max), "--json"], _json_check(0, expect))]


def large_ops(ci, workdir: Path, seed: int, size: str) -> list[Op]:
    ops = []
    for g, order in LARGE[size]:
        path = str(workdir / f"large_{g}_{order}.json")
        ci.serialize.save_model(ci.constructions.construct(g, order), path)
        splitting = {
            "index": order,
            "case": case_of(order, g),
            "table": [
                {"d": d, "e": e, "splits": predicted_law(order, d, e)}
                for d in divisors(order)
                for e in (1, 2)
            ],
            "m_invariant": order,
        }
        # Every constructed model has maximum degree 3 and vertex orbits of size I.
        realizable = 3 <= LARGE_Q**order
        ops += [
            Op(["splitting", path, "--m-invariant", "--json"],
               _json_check(0, lambda obj, want=splitting: "" if obj == want else "splitting report differs")),
            Op(["index", path, "--json"],
               _json_check(0, lambda obj, want=order: "" if obj == {"index": want} else f"index {obj}")),
            Op(["check", path, "--residue-q", str(LARGE_Q), "--json"],
               _json_check(0 if realizable else 1,
                           lambda obj, want=realizable: "" if obj["passed"] is want else "realizability differs")),
        ]
    return ops


def circulant_jumps(seed: int, size: str) -> list[int]:
    """One jump ``s`` per circulant: ``1 <= s < I/2`` with ``gcd(s, I/2) = 1``."""
    rng = random.Random(seed)
    return [
        rng.choice([s for s in range(1, order // 2) if math.gcd(s, order // 2) == 1])
        for order, _ in CIRCULANT[size]
    ]


def circulant_model(ci, order: int, k: int, s: int):
    """``Cay(Z/order, {+-s, order/2})`` with translation by ``k``, claiming ``(order/2 + 1, order/k)``."""
    half = order // 2
    gens = ci.constructions.GeneratingSet(order, frozenset({s, -s, half}))
    graph, action = ci.constructions.cayley_graph(gens)
    powered = ci.action.CyclicAction(
        order // k, ci.action.map_power(action.vertex_map, k), ci.action.map_power(action.edge_map, k)
    )
    return ci.constructions.as_model(graph, powered, claimed=(half + 1, order // k))


def circulant_ops(ci, workdir: Path, seed: int, size: str) -> list[Op]:
    ops = []
    for (order, k), s in zip(CIRCULANT[size], circulant_jumps(seed, size)):
        path = str(workdir / f"circulant_{order}_{k}.json")
        ci.serialize.save_model(circulant_model(ci, order, k, s), path)
        acting = order // k
        # Translation by I/2 flips the edges {x, x + I/2} and fixes nothing; it
        # lies in the acting group iff I/k is even, which is then Case 2.
        want = {
            "genus": order // 2 + 1,
            "order": acting,
            "index": acting,
            "case": case_of(acting, order // 2 + 1),
            "passed": True,
        }
        n_oracle = len(divisors(acting)) * CIRCULANT_E_MAX

        def expect(obj, want=want, n_oracle=n_oracle) -> str:
            if obj["passed"] is not True or len(obj["cells"]) != 1:
                return "report did not pass"
            cell = obj["cells"][0]
            got = {key: cell[key] for key in want}
            if got != want:
                return f"cell {got}, expected {want}"
            if len(cell["oracle_table"]) != n_oracle:
                return f"{len(cell['oracle_table'])} oracle cells, expected {n_oracle}"
            return ""

        argv = ["verify", "--model", path, "--e-max", str(CIRCULANT_E_MAX)]
        for q in CIRCULANT_QS:
            argv += ["--residue-q", q]
        ops.append(Op(argv + ["--json"], _json_check(0, expect)))
    return ops


WORKLOADS = {"grid": grid_ops, "large": large_ops, "circulant": circulant_ops}
