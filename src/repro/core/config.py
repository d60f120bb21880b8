"""Configuration of a cSTF run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.validation import check_positive_int, check_rank, require

__all__ = ["CstfConfig"]

_FORMATS = ("coo", "csf", "alto", "blco")
_NORMS = ("2", "max")


@dataclass
class CstfConfig:
    """All knobs of the AO driver (paper defaults where applicable).

    Attributes
    ----------
    rank:
        Factorization rank R (the paper evaluates 16/32/64; default 32).
    max_iters:
        Outer AO iterations.
    tol:
        Stop when the fit improves by less than this between outer
        iterations (0 disables; analytic mode always runs ``max_iters``).
    update:
        Update-method name or instance (see :mod:`repro.updates`).
    device:
        Device preset name or :class:`~repro.machine.spec.DeviceSpec`.
    mttkrp_format:
        Sparse format for the MTTKRP phase: ``blco`` (GPU default),
        ``csf`` (SPLATT), ``alto`` (modified-PLANC CPU), or ``coo``.
    normalize:
        Column-norm convention, ``"max"`` (PLANC nonneg convention) or
        ``"2"``.
    compute_fit:
        Track the model fit each outer iteration (concrete mode only).
    seed:
        Factor initialization seed.
    resilience:
        Numerical-resilience policy: ``None`` (default policy, sentinel
        ``"repair"``), a :class:`~repro.resilience.ResiliencePolicy`, one of
        ``"raise"``/``"repair"``/``"warn"`` (default policy with that
        sentinel behavior), or ``"off"`` (historical fail-fast behavior).
    telemetry:
        Run telemetry (see :mod:`repro.obs`): ``"auto"`` (default — join an
        ambient :func:`~repro.obs.telemetry_session` if one is active, else
        fully off with zero overhead), ``"off"`` (force off), ``"on"``
        (record in memory, surfaced as ``CstfResult.telemetry``), or a
        :class:`~repro.obs.Telemetry` instance (e.g. with a JSONL sink).
        Telemetry never touches the numerics; ``"on"``/``"off"`` runs are
        bit-identical.
    checkpoint_every:
        Write an atomic checkpoint every K outer iterations (0 disables).
        Requires ``checkpoint_path``.
    checkpoint_path:
        Destination file for checkpoints (``.npz``).
    resume_from:
        Path of a checkpoint to continue from; the resumed run reproduces
        the uninterrupted run bit-identically. Concrete tensors only.
    fault_injector:
        A :class:`~repro.resilience.FaultInjector` corrupting intermediates
        at chosen phases (testing only).
    on_iteration:
        Optional ``(iteration:int) -> None`` callback invoked after every
        completed outer AO iteration — the cooperative interruption point.
        An exception it raises stops the run *at an iteration boundary*;
        when checkpointing is configured, the just-completed iterate is
        checkpointed before the exception propagates (used by the run
        supervisor's in-run deadline guard).
    engine:
        Host execution engine for the concrete hot paths (see
        :mod:`repro.engine`): ``"on"``/``"cached"`` (default — per-tensor
        plan cache + chunked execution), ``"sharded"`` (plan cache +
        threaded shards), ``"processes"`` (isolated worker processes), a
        dict of :class:`~repro.engine.EngineConfig` fields, an
        ``EngineConfig``, or ``None``/``"off"`` (the uncached seed kernels
        — the supervisor's bottom rung and the test oracle). Apart from the
        opt-in ``gram_rescale`` knob, engine runs are bit-identical to seed
        runs and charge identical simulated device costs; only host
        wall-clock changes. Ignored for analytic runs.
    """

    rank: int = 32
    max_iters: int = 10
    tol: float = 0.0
    update: object = "cuadmm"
    device: object = "a100"
    mttkrp_format: str = "blco"
    normalize: str = "max"
    compute_fit: bool = True
    seed: object = 0
    update_params: dict = field(default_factory=dict)
    init_factors: object = None
    """Optional warm start: a list of ``Iₙ×R`` arrays (or a
    :class:`~repro.core.kruskal.KruskalTensor`) used instead of random
    initialization. Weights of a KruskalTensor are folded into the factors."""

    resilience: object = None
    telemetry: object = "auto"
    checkpoint_every: int = 0
    checkpoint_path: object = None
    resume_from: object = None
    fault_injector: object = None
    engine: object = "on"
    on_iteration: object = None

    def __post_init__(self):
        from repro.engine.config import resolve_engine

        self.engine = resolve_engine(self.engine)
        require(
            self.on_iteration is None or callable(self.on_iteration),
            "on_iteration must be callable (or None)",
        )
        require(
            self.engine is None
            or not self.engine.gram_rescale
            or self.normalize == "2",
            'engine.gram_rescale requires normalize="2" (λ² is diag(G) only '
            "under the Euclidean column-norm convention)",
        )
        self.rank = check_rank(self.rank)
        self.max_iters = check_positive_int(self.max_iters, "max_iters")
        require(self.tol >= 0.0, "tol must be non-negative")
        self.checkpoint_every = int(self.checkpoint_every)
        require(self.checkpoint_every >= 0, "checkpoint_every must be >= 0")
        require(
            self.checkpoint_every == 0 or self.checkpoint_path is not None,
            "checkpoint_every > 0 requires checkpoint_path",
        )
        require(
            self.mttkrp_format in _FORMATS,
            f"mttkrp_format must be one of {_FORMATS}, got {self.mttkrp_format!r}",
        )
        require(
            self.normalize in _NORMS,
            f"normalize must be one of {_NORMS}, got {self.normalize!r}",
        )
        require(
            self.telemetry in ("auto", "off", "on", None, True, False)
            or hasattr(self.telemetry, "span"),
            f"telemetry must be 'auto', 'off', 'on', or a Telemetry instance, "
            f"got {self.telemetry!r}",
        )
