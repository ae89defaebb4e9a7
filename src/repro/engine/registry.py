"""The engine registry: named evaluation strategies behind one protocol.

Strategies are first-class :class:`Engine` objects: the built-in
strategies (``naive``, ``algebra``, ``auto``) register themselves
under their names, and callers may register their own engines or pass
an engine object directly to ``Query.evaluate`` /
``QueryEngine.evaluate``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.errors import EvaluationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.database import Database
    from repro.core.query import Query
    from repro.engine.session import QueryEngine


@runtime_checkable
class Engine(Protocol):
    """An evaluation strategy for alignment calculus queries.

    ``evaluate`` receives the session (:class:`QueryEngine`) that
    invoked it; strategies route all compilation, specialization,
    safety analysis and domain enumeration through the session's cached
    primitives so that repeated traffic shares work.
    """

    name: str

    def evaluate(
        self,
        query: "Query",
        db: "Database",
        session: "QueryEngine",
        *,
        length: int | None = None,
        domain: tuple[str, ...] | None = None,
    ) -> frozenset[tuple[str, ...]]:
        """Evaluate ``query`` on ``db``, returning the answer set."""
        ...  # pragma: no cover - protocol


_REGISTRY: dict[str, Engine] = {}


def register_engine(
    engine: Engine, *, name: str | None = None, replace: bool = False
) -> Engine:
    """Register ``engine`` under ``name`` (default: ``engine.name``).

    Raises :class:`EvaluationError` on a name collision unless
    ``replace=True``.  Returns the engine so the call can be used as a
    decorator-style one-liner on instances.
    """
    key = name if name is not None else getattr(engine, "name", None)
    if not key or not isinstance(key, str):
        raise EvaluationError(
            "an engine needs a non-empty string name to be registered"
        )
    if not callable(getattr(engine, "evaluate", None)):
        raise EvaluationError(
            f"engine {key!r} does not implement evaluate(query, db, session)"
        )
    if key in _REGISTRY and not replace:
        raise EvaluationError(
            f"engine {key!r} is already registered; pass replace=True "
            "to override it"
        )
    _REGISTRY[key] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove a registered engine (no-op for unknown names)."""
    _REGISTRY.pop(name, None)


def get_engine(spec: "str | Engine") -> Engine:
    """Resolve an engine name or pass an engine object through.

    Accepts the registered string names (``"naive"``, ``"algebra"``,
    ``"auto"``, plus anything added via :func:`register_engine`) or
    any object implementing the :class:`Engine` protocol.
    """
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY)) or "none registered"
            raise EvaluationError(
                f"unknown engine {spec!r} (available: {known})"
            ) from None
    if callable(getattr(spec, "evaluate", None)) and getattr(
        spec, "name", None
    ):
        return spec
    raise EvaluationError(
        f"{spec!r} is neither a registered engine name nor an Engine object"
    )


def available_engines() -> tuple[str, ...]:
    """The registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))
