"""Exact Hecke-bimodule model of the finite-field theta correspondence."""

__version__ = "0.1.0"


class VerificationError(Exception):
    """An exact check ran and failed: a relation, an identity or a cross-check."""
