"""Exception hierarchy shared across the toolkit."""


class TreePolicyError(Exception):
    """Base class for all toolkit errors."""


class MalformedTrace(TreePolicyError):
    """A serialized trace cannot be reconstructed into a nested word
    (e.g. a return whose endpoint differs from the innermost open call)."""


class NotRooted(TreePolicyError):
    """A tree operation was applied to a word that is not rooted well-matched."""


class PolicySyntaxError(TreePolicyError):
    """Concrete-syntax error in a policy or regex source text."""


class UnknownEndpoint(TreePolicyError):
    """An endpoint name does not resolve into the declared alphabet."""


class EpsilonMatchRegex(TreePolicyError):
    """A ``match`` regex accepts the empty string, which is forbidden."""


class StackUnderflow(TreePolicyError):
    """A return symbol arrived while the automaton stack held only the
    bottom marker.  Impossible on rooted well-matched input."""


class MissingTransition(TreePolicyError):
    """A run reached a state, endpoint or popped stack symbol for which the
    automaton or filter set has no rule (a filter spec with a rule removed,
    say)."""


class VpaParseError(TreePolicyError):
    """Malformed serialized automaton or filter spec."""


class CompilerInternalError(TreePolicyError):
    """``compiler.build`` made rules that ``vpa.build_table`` or the
    well-formedness check refuses (a call pushing the bottom marker, say).
    Indicates a compiler bug: a construction's cells must form a
    well-formed automaton."""


class ConfigError(TreePolicyError):
    """Simulator configuration problem (cyclic topology, missing filter
    coverage, unknown entrypoint)."""
