"""The reversal-free theory: adjacency graphs, free sets, deletion,
reducibility, and the decision by reduction.

A formula without reversal is UNAVOIDABLE iff it reduces to the empty
formula, and iff it divides the Zimin word Z_n = Z(0, n) on its variable
count n (Bean, Ehrenfeucht and McNulty 1979; Zimin 1984).  The decision is
the reduction chain: it is found by a search over free sets, which is far
cheaper than the division search into Z(0, n) and serves as the certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .formulas import FormulaR, delete_vars, factors_of, formula_vars
from .morphisms import divides  # unused here; perfbench/tracing.py hooks zimrev.classic.divides
from .zimin import _fragment_length

UNAVOIDABLE = "unavoidable"
AVOIDABLE = "avoidable"


def _require_mirror_free(phi: FormulaR):
    for frag in phi:
        for s in frag:
            if s.mirrored:
                raise ValueError(f"operation needs a formula without mirror marks, found {s}")


@dataclass(frozen=True)
class AdjacencyGraph:
    """Bipartite graph on left/right copies of the variables; there is an
    edge {x_left, y_right} exactly when xy is a factor of the formula."""

    variables: Tuple[str, ...]
    edges: FrozenSet[Tuple[str, str]]
    component: Dict[Tuple[str, str], int]

    def left(self, var: str) -> int:
        return self.component[("l", var)]

    def right(self, var: str) -> int:
        return self.component[("r", var)]

    def frees(self, names: Iterable[str]) -> bool:
        """No left copy of a name shares a component with a right copy."""
        return not {self.left(v) for v in names} & {self.right(v) for v in names}


def adjacency_graph(phi: FormulaR) -> AdjacencyGraph:
    _require_mirror_free(phi)
    variables = tuple(sorted(formula_vars(phi)))
    edges = {(pair[0].var, pair[1].var) for pair in factors_of(phi, 2)}
    vertices = [("l", v) for v in variables] + [("r", v) for v in variables]
    adjacency: Dict[Tuple[str, str], List[Tuple[str, str]]] = {v: [] for v in vertices}
    for x, y in edges:
        adjacency[("l", x)].append(("r", y))
        adjacency[("r", y)].append(("l", x))
    component: Dict[Tuple[str, str], int] = {}
    comp_id = 0
    for v in vertices:
        if v in component:
            continue
        stack = [v]
        component[v] = comp_id
        while stack:
            u = stack.pop()
            for nb in adjacency[u]:
                if nb not in component:
                    component[nb] = comp_id
                    stack.append(nb)
        comp_id += 1
    return AdjacencyGraph(variables, frozenset(edges), component)


def free_sets(phi: FormulaR) -> List[FrozenSet[str]]:
    """All nonempty free sets, ordered by size then name (the reduction
    search explores them in this order)."""
    graph = adjacency_graph(phi)
    variables = graph.variables
    out: List[FrozenSet[str]] = []
    for size in range(1, len(variables) + 1):
        for subset in combinations(variables, size):
            if graph.frees(subset):
                out.append(frozenset(subset))
    return out


def is_free(phi: FormulaR, names: FrozenSet[str]) -> bool:
    graph = adjacency_graph(phi)
    if not names or not set(names) <= set(graph.variables):
        return False
    return graph.frees(names)


def delete(phi: FormulaR, names: FrozenSet[str]) -> FormulaR:
    """One reduction step: delete a free set (fragments are not split;
    empty fragments are discarded)."""
    if not is_free(phi, frozenset(names)):
        raise ValueError(f"{sorted(names)} is not a free set of {phi}")
    return delete_vars(phi, names)


@dataclass(frozen=True)
class ReductionStep:
    formula: FormulaR
    deleted: FrozenSet[str]

    def to_json(self) -> dict:
        return {"formula": str(self.formula), "deleted": sorted(self.deleted)}


@dataclass(frozen=True)
class ReductionChain:
    """Deletion steps from the starting formula down to the empty formula."""

    steps: Tuple[ReductionStep, ...]

    def to_json(self) -> list:
        return [step.to_json() for step in self.steps]


def is_reducible(phi: FormulaR) -> Optional[ReductionChain]:
    """Exhaustive memoized search for a reduction chain to the empty formula.

    Greedy deletion can dead-end (deleting the last variable of Z3 first
    leaves an irreducible residue), so the search backtracks over free sets
    in increasing-size order.
    """
    _require_mirror_free(phi)
    memo: Dict[FormulaR, Optional[Tuple[ReductionStep, ...]]] = {}

    def solve(current: FormulaR) -> Optional[Tuple[ReductionStep, ...]]:
        if not current:
            return ()
        if current in memo:
            return memo[current]
        memo[current] = None  # cut cycles (deletion shrinks, but be safe)
        for names in free_sets(current):
            rest = solve(delete_vars(current, names))
            if rest is not None:
                memo[current] = (ReductionStep(current, names),) + rest
                break
        return memo[current]

    steps = solve(phi)
    return None if steps is None else ReductionChain(steps)


@dataclass(frozen=True)
class ClassicDecision:
    """A classic verdict: the reduction chain to the empty formula, or None
    when there is none."""

    reduction: Optional[ReductionChain]

    @property
    def unavoidable(self) -> bool:
        return self.reduction is not None

    @property
    def status(self) -> str:
        return UNAVOIDABLE if self.unavoidable else AVOIDABLE


def decide_classic(phi: FormulaR) -> ClassicDecision:
    """Decide a formula without reversal: unavoidable iff it reduces to the
    empty formula.  With n variables it raises ValueError when Z(0, n) is
    over the template guard, which also bounds the free-set enumeration,
    exponential in n."""
    _require_mirror_free(phi)
    _fragment_length(0, len(formula_vars(phi)))
    return ClassicDecision(is_reducible(phi))
