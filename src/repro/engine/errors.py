"""Exceptions raised by the execution engine."""

from __future__ import annotations

__all__ = [
    "EngineError",
    "UnknownAlgorithmError",
    "ConfigurationDivergenceError",
]


class EngineError(RuntimeError):
    """Base class for engine-layer failures."""


class UnknownAlgorithmError(EngineError, KeyError):
    """Lookup of a name absent from the algorithm registry.

    Subclasses ``KeyError`` so callers that treat the registry as a
    mapping (``except KeyError``) keep working.
    """

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown algorithm {name!r}; known: {sorted(known)}"
        )

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0]


class ConfigurationDivergenceError(EngineError):
    """Two configurations of the same algorithm produced different
    matchings.

    LD-GPU's Lemma III.1 guarantees the mate array is independent of the
    device/batch configuration; a divergence means the implementation is
    broken, and must surface even under ``python -O`` (which is why this
    is an exception, not an ``assert``).
    """

    def __init__(self, algorithm: str, config_ref: str, config_bad: str):
        self.algorithm = algorithm
        self.config_ref = config_ref
        self.config_bad = config_bad
        super().__init__(
            f"{algorithm} result depends on configuration: "
            f"{config_bad} disagrees with {config_ref} — broken"
        )
