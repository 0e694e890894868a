"""Avoidability of patterns and formulas with reversal.

Verdicts come with machine-checkable certificates: divisions into Zimin
formulas with reversal for unavoidability, lemma-based omega-word witnesses
or the contrapositive of the two-one-way-variable characterization for
avoidability, cross-validated by a brute-force oracle.
"""

from .classic import (
    AdjacencyGraph,
    ClassicDecision,
    ReductionChain,
    ReductionStep,
    adjacency_graph,
    decide_classic,
    delete,
    free_sets,
    is_reducible,
)
from .decide import (
    AVOIDABLE,
    UNAVOIDABLE,
    UNKNOWN,
    Certificate,
    Conjecture2Report,
    ContrapositiveCert,
    EvidenceCert,
    LemmaCert,
    Verdict,
    ZiminDivisionCert,
    check_doubled_pattern,
    check_length_bound,
    conjecture2_probe,
    decide,
    lemma_all_two_way,
    lemma_flat,
    lemma_one_way_twice,
    lemma_two_way_middle,
)
from .formulas import (
    EMPTY_FORMULA,
    FormulaR,
    FormulaSyntaxError,
    PatternR,
    Sym,
    classify_vars,
    d_reverse,
    delete_vars,
    factors_of,
    flatten,
    formula,
    normalize,
    parse,
    pattern,
)
from .morphisms import (
    ConcreteMorphism,
    SearchBudget,
    SearchBudgetExceeded,
    SymbolicMorphism,
    apply_concrete,
    apply_symbolic,
    compose,
    divides,
    equivalent,
    occurs,
    occurs_common_image,
)
from .oracle import (
    OracleReport,
    all_words_encounter,
    generate_power_free,
    search_avoiding_word,
    verify_witness_prefix,
)
from .words import (
    GeneratedSpec,
    OmegaWordSpec,
    PeriodicSpec,
    ProductSpec,
    Word,
    direct_product,
    is_factor,
    materialize,
    max_exponent,
    periodic_prefix,
    reverse,
    reversible_factors,
    word,
)
from .zimin import (
    ZiminStats,
    ZiminTemplate,
    divides_zimin,
    enumerate_fragments,
    is_zimin_factor,
    stats,
    sufficient_length,
    template,
)

__version__ = "0.1.0"
