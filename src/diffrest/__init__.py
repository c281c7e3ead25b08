"""Finite difference-restriction algebras: laws, filters, representations,
and brute-force oracles."""

from .algebra import (
    SIZE_CAP,
    AlgebraError,
    AxiomFailure,
    AxiomReport,
    BooleanDownset,
    BooleanLawError,
    DerivedRelations,
    DomainQuotient,
    FiniteAlgebra,
    InconsistencyError,
    LawVerdict,
    SizeCapError,
    TableError,
    boolean_downset,
    check_axioms,
    check_derived_laws,
    derived_relations,
    domain_quotient,
)
from .filters import (
    Filter,
    FilterFamily,
    enumerate_filters,
    maximal_filters,
    principal_filter,
    ultrafilter_bijection,
)
from .formats import (
    ParseError,
    abstract_of,
    load_path,
    parse_algebras,
    parse_pf_literal,
    serialize_algebra,
    serialize_concrete,
)
from .oracle import (
    BudgetExceededError,
    DifferentialReport,
    EmbeddingResult,
    ModelCatalog,
    SearchBudget,
    brute_force_embedding,
    differential_check,
    enumerate_axiom_models,
    generating_set,
)
from .pfun import (
    BaseMismatchError,
    ConcreteAlgebra,
    DictionaryError,
    FunctionalityError,
    NotClosedError,
    PartialFunction,
    PfunError,
    boolean_as_diffrest,
    close_generators,
    format_pf_literal,
    is_injective_pf,
    pf_minus,
    pf_restrict,
    random_generators,
)
from .represent import (
    CompletenessReport,
    Representation,
    VerificationReport,
    atomic_eta,
    atomic_theta,
    atoms,
    canonical_theta,
    completeness_report,
    injective_eta,
    verify_representation,
)

__version__ = "0.1.0"
