"""Error types raised by the library.

Each class names the precondition it reports, so callers (and the CLI) can
surface failures by name.  All inherit from GraphInvError, itself a ValueError.
"""


class GraphInvError(ValueError):
    pass


class LoopEdge(GraphInvError):
    """An edge has tail equal to head."""


class VertexCountMismatch(GraphInvError):
    """Two graphs live on different vertex counts."""


class OddDegreeSum(GraphInvError):
    """A multidegree with odd total cannot be realized by a graph."""


class SharedEndpoint(GraphInvError):
    """The two edges of an exchange must have four distinct endpoints."""


class NonContiguousClump(GraphInvError):
    """Clumps must be nonempty consecutive intervals covering 1..n in order."""


class LengthMismatch(GraphInvError):
    """A configuration or weight vector has the wrong length."""


class NoStableConfiguration(GraphInvError):
    """No stable configuration exists for this weight vector."""


class NotNeutralRegular(GraphInvError):
    """Expected a regular graph whose edges all cross the bipartition."""


class NotRegular(GraphInvError):
    """Expected a graph with all vertex valences equal."""


class OddVertexCount(GraphInvError):
    """Expected an even number of vertices."""


class NotMultipleOfWeight(GraphInvError):
    """Multidegree is not an integer multiple of the weight vector."""


class VertexCountTooSmall(GraphInvError):
    """Not enough vertices for this construction."""


class VertexOutOfRange(GraphInvError):
    """An edge endpoint lies outside the vertices 1..n."""


class MalformedInput(GraphInvError):
    """A JSON document or a point token does not have the expected shape."""


class BadExponent(GraphInvError):
    """Exponent must be odd and within range."""


class NotAMatching(GraphInvError):
    """Expected a perfect matching (every valence exactly one)."""


class DegreeMismatch(GraphInvError):
    """Polynomial degrees are inconsistent with the requested operation."""


class OddTotalWeight(GraphInvError):
    """Total weight must be even (double the weights; invariants live in even total degree)."""


class EmptyModuli(GraphInvError):
    """Some weight exceeds half the total, so the space is empty."""


class DegenerateModuli(GraphInvError):
    """Fewer than three points remain, so the space is not positive-dimensional."""


class NotInChart(GraphInvError):
    """The configuration lies outside the chart's domain."""


class DimensionMismatch(GraphInvError):
    """Vector length does not match the matrix shape."""
