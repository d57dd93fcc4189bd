"""Exception hierarchy shared by all weightlab modules."""


class WeightlabError(Exception):
    """Base class for all library-specific errors."""


class NonFinite(WeightlabError):
    """An evaluation overflowed or produced NaN; never silently saturated."""


class NotMonotone(WeightlabError):
    """Operation requires a nondecreasing weight."""


class HorizonTooSmall(WeightlabError):
    """A finite scan hit its boundary before the quantity of interest settled."""


class YHorizonTooSmall(HorizonTooSmall):
    """Supremum argmax landed on the search boundary in the conjugate sweep."""


class JHorizonTooSmall(HorizonTooSmall):
    """No violation witness exists below the constructed block count J.

    Carries the offending ladder constant and an estimate of the block
    count that would be required.
    """

    def __init__(self, A, required_j, certified=None):
        self.A = A
        self.required_j = required_j
        self.certified = certified if certified is not None else []
        super().__init__(
            f"no witness below available blocks for A={A}; "
            f"estimated required block index ~{required_j}"
        )


class Om3Violated(WeightlabError):
    """Conjugate is infinite because log t is not dominated by the weight."""


class NotMatrixAdmissible(WeightlabError):
    """Weight fails the admissibility needed for an associated matrix."""


class EmptyInput(WeightlabError):
    pass


class QuadratureFailure(WeightlabError):
    """Adaptive quadrature could not reach the requested tolerance."""


class IndexSearchExhausted(WeightlabError):
    """Quantifier search over matrix indices ran out of candidates."""

    def __init__(self, binding_index, message=""):
        self.binding_index = binding_index
        super().__init__(message or f"index search exhausted at {binding_index}")


class ChainViolation(WeightlabError):
    """Two condition verdicts contradict a proven implication chain."""


class BridgeViolation(ChainViolation):
    """Relation verdicts contradict the omega_1 / omega_6 bridge lemmas."""


class OverflowAtJ(WeightlabError):
    """Profile recursion would leave double range at block j."""

    def __init__(self, j, max_safe_j):
        self.j = j
        self.max_safe_j = max_safe_j
        super().__init__(f"abscissa overflows double range at block {j}; largest safe J = {max_safe_j}")


class GammaTooLarge(WeightlabError):
    def __init__(self, gamma, j0):
        self.gamma = gamma
        self.j0 = j0
        super().__init__(f"shift {gamma} exceeds the block gaps available from j0={j0}")


class ValidationFailed(WeightlabError):
    pass


class UnknownCondition(WeightlabError, ValueError):
    """A condition id outside ``conditions.CONDITION_IDS``."""


class WitnessConstructionFailed(WeightlabError):
    def __init__(self, binding_n, message=""):
        self.binding_n = binding_n
        super().__init__(message or f"witness construction failed at block n={binding_n}")
