"""Exception hierarchy shared by all magrep modules."""


class MagrepError(Exception):
    """Base class for all library errors."""


# -- group structure ---------------------------------------------------------

class NotAGroup(MagrepError):
    """Cayley table fails closure, cancellation (a row or column that is no
    permutation) or associativity."""


class FlagInconsistent(MagrepError):
    """Anti-unitary flags are not a homomorphism onto {0, 1}."""


class NoT0(MagrepError):
    """Operation needs an anti-unitary element but the group is purely unitary."""


class DimensionMismatch(MagrepError):
    """Array shapes do not match the group order or representation dimension."""


class NotASubgroupEmbedding(MagrepError):
    """Element map does not embed a magnetic group (products, flags or cocycle)."""


# -- representations ---------------------------------------------------------

class InvalidCoRep(MagrepError):
    """Matrices violate unitarity or the projective multiplication rule."""


class NotIrreducible(MagrepError):
    pass


class IndicatorNotQuantized(MagrepError):
    """Coset indicator is not close to any of its allowed quantized values."""


class ReductionFailed(MagrepError):
    """No seed produced irreducible blocks within the retry budget."""


# -- linear algebra kernels --------------------------------------------------

class NotHermitian(MagrepError):
    pass


class NotCommuting(MagrepError):
    pass


class NotSymmetricUnitary(MagrepError):
    """Input fails M @ conj(M) == I, so it has no symmetric unitary square root."""


# -- k.p construction --------------------------------------------------------

class InvalidAction(MagrepError):
    """Probe matrices are not a real linear representation of the group."""


class SingularAction(MagrepError):
    pass


class NonIntegerMultiplicity(MagrepError):
    pass


class EmptyChannel(MagrepError):
    """Channel has multiplicity zero, no coupling matrices exist at this order."""


# -- catalog / CLI -----------------------------------------------------------

class UnknownName(MagrepError):
    pass


class ParseError(MagrepError):
    """Input file is syntactically or structurally malformed."""


class EigenvalueAtBranchCutWarning(UserWarning):
    """A unitary eigenvalue sat within tolerance of -1; its phase was pinned to pi."""
