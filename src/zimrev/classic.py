"""The reversal-free theory: adjacency graphs, free sets, deletion,
reducibility, Zimin words, and the division-based decision.

The implementation follows the standard orientation of the reducibility
characterization: a formula (without reversal) is UNAVOIDABLE iff it reduces
to the empty formula, and iff it divides the Zimin word on its variable
count.  The division search is the decision; reducibility is computed as an
independent cross-check certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .formulas import (
    EMPTY_FORMULA,
    FormulaR,
    PatternR,
    Sym,
    delete_vars,
    factors_of,
    formula_vars,
)
from .morphisms import DEFAULT_MAX_STEPS, SearchBudget, SymbolicMorphism, divides

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


def zimin_word(n: int) -> PatternR:
    """Z_n over x1..xn (n >= 1); |Z_n| = 2^n - 1."""
    if n < 1:
        raise ValueError("zimin_word needs n >= 1; Z_0 is the empty formula, see zimin_formula")
    syms: Tuple[Sym, ...] = (Sym("x1"),)
    for i in range(2, n + 1):
        syms = syms + (Sym(f"x{i}"),) + syms
    return PatternR(syms)


def zimin_formula(n: int) -> FormulaR:
    """The Zimin word as a one-fragment formula; Z_0 is the empty formula."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return EMPTY_FORMULA
    return FormulaR([zimin_word(n)])


def _divide_into_zimin(
    phi: FormulaR, max_steps: int, fixed: Optional[Dict[str, PatternR]] = None
) -> Optional[SymbolicMorphism]:
    """Divide phi into Z_n, n its variable count, at the sound image bound
    2^n - 1 with at most max_steps steps."""
    n = len(formula_vars(phi))
    sound = SearchBudget(max_image_len=max(1, 2**n - 1), max_steps=max_steps)
    return divides(phi, zimin_formula(n), sound, fixed=fixed)


@dataclass
class ClassicDecision:
    status: str
    division: Optional[SymbolicMorphism]
    reduction: Optional[ReductionChain]

    @property
    def unavoidable(self) -> bool:
        return self.status == UNAVOIDABLE


def decide_classic(
    phi: FormulaR, max_steps: int = DEFAULT_MAX_STEPS, with_reduction: bool = True
) -> ClassicDecision:
    """Decide a formula without reversal: unavoidable iff it divides the
    Zimin word on its variable count."""
    _require_mirror_free(phi)
    division = _divide_into_zimin(phi, max_steps)
    reduction = is_reducible(phi) if with_reduction else None
    status = UNAVOIDABLE if division is not None else AVOIDABLE
    return ClassicDecision(status, division, reduction)


def divide_into_zimin_constrained(
    phi: FormulaR, names: FrozenSet[str], max_steps: int = DEFAULT_MAX_STEPS
) -> Optional[SymbolicMorphism]:
    """Search a division of phi into Z_n mapping every variable of the free
    set to x1.

    The intended use has the deletion of the free set unavoidable, where
    such a division is expected to exist; the search runs for any free set
    and simply reports its outcome (it may come up empty).
    """
    names = frozenset(names)
    if not is_free(phi, names):
        raise ValueError(f"{sorted(names)} is not a free set of {phi}")
    return _divide_into_zimin(phi, max_steps, {name: PatternR((Sym("x1"),)) for name in names})
