"""Exception hierarchy for the :mod:`repro` package.

Every error raised deliberately by this library is a subclass of
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AlphabetError(ReproError):
    """A string or symbol does not belong to the fixed alphabet."""


class ArityError(ReproError):
    """A relation, tuple or automaton was used with the wrong arity."""


class AssignmentError(ReproError):
    """An assignment of variables to alignment rows is invalid.

    Assignments must be injections (paper, Section 2): two distinct
    variables may never denote the same row of an alignment.
    """


class ParseError(ReproError):
    """A concrete-syntax string could not be parsed into a formula."""


class TransitionError(ReproError):
    """An FSA transition violates the endmarker legality restriction.

    The paper requires that a head reading the left endmarker never
    moves left and a head reading the right endmarker never moves right
    (Section 3).
    """


class SafetyError(ReproError):
    """A query could not be certified safe / domain independent."""


class LimitationError(ReproError):
    """The limitation analysis could not be carried out.

    Raised for formula classes where the limitation problem is
    undecidable (Theorem 5.1) and no decision procedure applies.
    """


class StorageError(ReproError):
    """A relation storage backend could not be built or used."""


class ArtifactError(StorageError):
    """An on-disk index artifact is missing, corrupt or incompatible."""


class SLPError(ReproError):
    """A straight-line program is malformed or an operation on one
    exceeded its budget (e.g. expanding past the decompression cap)."""


class EvaluationError(ReproError):
    """A query or algebra expression could not be evaluated."""


class UnboundedQueryError(EvaluationError):
    """Evaluation would require materializing an infinite relation."""


class ParallelExecutionError(EvaluationError):
    """The worker pool could not run a sharded evaluation.

    Raised by :mod:`repro.parallel` for a malformed shard plan or
    worker count, and (as :class:`WorkerCrashError`) when workers keep
    dying.  An exception raised by a task itself is not wrapped: it
    reaches the caller unchanged.
    """


class WorkerCrashError(ParallelExecutionError):
    """A worker process died (rather than raised) in every rebuilt pool.

    The partial results of the other shards are discarded, so a
    parallel answer is never silently incomplete.
    """


class ServiceError(ReproError):
    """Base class for query-service (daemon/client) failures.

    Every error the :mod:`repro.service` layer raises deliberately —
    protocol violations, admission rejections, expired deadlines —
    subclasses this, and the wire protocol maps each subclass to a
    stable machine-readable error code (see
    :mod:`repro.service.protocol`).
    """


class ServiceProtocolError(ServiceError):
    """A wire frame violated the newline-delimited JSON protocol.

    Covers undecodable JSON, frames that are not objects, frames over
    the size limit, and requests with missing or malformed fields.
    """


class AdmissionError(ServiceError):
    """The admission controller refused to run a request.

    Carries a machine-readable ``reason`` (``"cost-exceeded"`` or
    ``"queue-full"``) plus the offending estimate/threshold, so
    clients can decide whether to retry, narrow the query, or back
    off.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "cost-exceeded",
        est_cost: float | None = None,
        max_cost: float | None = None,
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.est_cost = est_cost
        self.max_cost = max_cost


class DeadlineError(ServiceError):
    """A request missed its deadline (queue wait plus evaluation)."""
