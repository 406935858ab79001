"""Fault plane: the injection surface of the register-transfer GPU model.

Every flip-flop (stage register, state register, control latch) in the GPU
model is *declared* on the fault plane when its owning module is built, and
every write to it is routed through :meth:`FaultPlane.latch`.  This mirrors
how the paper's ModelSim controller forces a transient value onto a chosen
``std_logic`` signal at a chosen simulation time.

The plane is generic over a pluggable **fault-model hierarchy**
(:class:`FaultModel`): the plane owns *where* (the armed flip-flop key)
and *when* (cycle bookkeeping and decay deadlines); the model owns *what*
a matching latch does to the value.  Three concrete models ship:

* :class:`TransientFault` — the paper's single-event transient: one XOR
  flip on the next latch inside the injection window, then spent.  The
  default everywhere; its semantics (and byte-level campaign output) are
  unchanged from the transient-only engine.
* :class:`StuckAtFault` — a permanent stuck-at-0/1 defect on a flip-flop
  bit range: *every* write from the activation cycle on is forced to the
  stuck value, for the whole run.  Permanent faults never decay and are
  never spent, so the plane stays on the slow (interposing) path for the
  entire simulation.
* :class:`TargetedBurst` — the adversarial case: a multi-bit contiguous
  or patterned XOR applied to every latch of the target register inside
  a chosen cycle window (per InjectV-style targeted multi-bit
  injection).

The declared flip-flop inventory doubles as the module size report used to
regenerate Table I and to build fault lists.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple, Type

__all__ = [
    "FlipFlop",
    "FaultModel",
    "TransientFault",
    "StuckAtFault",
    "TargetedBurst",
    "FaultPlane",
    "ModuleName",
    "FAULT_MODELS",
    "fault_from_dict",
    "fault_to_dict",
]


class ModuleName:
    """Canonical module identifiers (paper Table I).

    ``ALL`` stays exactly the paper's six characterised modules so default
    campaign grids (and the Table I report) are unchanged; the reduced-
    precision float datapaths are additional modules selected explicitly
    by precision-aware campaigns.
    """

    FP32 = "fp32"
    INT = "int"
    SFU = "sfu"
    SFU_CONTROLLER = "sfu_controller"
    SCHEDULER = "scheduler"
    PIPELINE = "pipeline"
    FP16 = "fp16"
    BF16 = "bf16"

    ALL = (FP32, INT, SFU, SFU_CONTROLLER, SCHEDULER, PIPELINE)

    #: The float datapath module implementing each precision.
    FLOAT_BY_PRECISION = {"fp32": FP32, "fp16": FP16, "bf16": BF16}


@dataclass(frozen=True)
class FlipFlop:
    """A named register (bank of flip-flops) inside a GPU module.

    ``lane`` is the SIMT lane the register belongs to, or ``-1`` for shared
    (control) registers.  ``kind`` distinguishes datapath registers from
    control registers; the paper reports ~84% of pipeline registers are
    data and ~16% control, and that the control ones drive DUEs and
    multi-thread SDCs.
    """

    module: str
    name: str
    width: int
    lane: int = -1
    kind: str = "data"

    @property
    def key(self) -> Tuple[str, str, int]:
        return (self.module, self.name, self.lane)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lane = f"[lane {self.lane}]" if self.lane >= 0 else "[shared]"
        return f"{self.module}.{self.name}{lane}:{self.width}b ({self.kind})"


def _check_span(flipflop: FlipFlop, bit: int, n_bits: int) -> None:
    """Validate a multi-bit span against the flip-flop width.

    Out-of-range spans used to be silently clamped at the register top by
    the mask computation; they are construction errors now, and fault-list
    generation clamps the sampled width before constructing the fault.
    """
    if not 0 <= bit < flipflop.width:
        raise ValueError(
            f"bit {bit} out of range for {flipflop.width}-bit "
            f"register {flipflop.name}")
    if n_bits < 1:
        raise ValueError("n_bits must be at least 1")
    if bit + n_bits > flipflop.width:
        raise ValueError(
            f"span [{bit}, {bit + n_bits}) exceeds the {flipflop.width}-bit "
            f"register {flipflop.name}")


class FaultModel:
    """Protocol every injectable fault implements (plane-side contract).

    A model is **armed** on the plane (:meth:`FaultPlane.arm`) and then
    consulted on every write to its target flip-flop:

    * :meth:`apply_on_latch` — the only value-mutating hook.  Receives
      the written value and the current cycle, updates the model's own
      firing/decay state, and returns the (possibly corrupted) value.
    * :attr:`spent` — True once no *future* latch can be corrupted any
      more (a fired transient, a closed burst window).  Lets the plane
      drop back to its passive fast path.  Permanent models are never
      spent.
    * :attr:`pending` — True while a future latch could still be
      corrupted; drives :meth:`FaultPlane.pending_for`, which modules
      consult before skipping semantically-invisible latches.
    * :attr:`decay_deadline` — last cycle (inclusive) at which an
      *unfired* model can still land, or ``None`` for models that never
      decay.  The plane expires the model past the deadline exactly as
      the transient-only engine did.
    * serde — :func:`fault_to_dict` / :func:`fault_from_dict` round-trip
      any registered model by its ``model`` name.

    Concrete models are dataclasses; shared runtime state is
    ``fired_cycle`` (first corrupting latch, ``None`` until then) and
    ``expired`` (decayed unconsumed).  :meth:`reset` clears runtime state
    so fault lists can be reused across runs.
    """

    model = ""  # overridden per concrete class; the serde registry key

    flipflop: FlipFlop
    fired_cycle: Optional[int]
    expired: bool

    # -- runtime state -----------------------------------------------------
    def reset(self) -> None:
        """Clear per-run state (fault lists are reused across runs)."""
        self.fired_cycle = None
        self.expired = False

    @property
    def fired(self) -> bool:
        return self.fired_cycle is not None

    # -- plane contract ----------------------------------------------------
    def apply_on_latch(self, value: int, cycle: int) -> int:
        """Route one write of the target register through the model."""
        raise NotImplementedError

    @property
    def spent(self) -> bool:
        """True once no future latch can be observed to change."""
        raise NotImplementedError

    @property
    def pending(self) -> bool:
        """True while a future latch of the target could be corrupted."""
        raise NotImplementedError

    @property
    def decay_deadline(self) -> Optional[int]:
        """Last cycle an unfired model can land; None = never decays."""
        return None

    def close(self) -> None:
        """Plane hook: the decay deadline passed after at least one fire."""

    # -- serde -------------------------------------------------------------
    def to_dict(self) -> dict:
        return fault_to_dict(self)


@dataclass
class TransientFault(FaultModel):
    """A single-event transient: flip one bit of one flip-flop once.

    ``cycle`` is the injection instant.  The flip lands on the target
    flip-flop's next latch *only if that latch occurs within ``window``
    cycles of the injection*; otherwise the transient decays unconsumed
    and the fault is masked.  This latching-window semantics reproduces
    the utilization scaling of ModelSim-style injection: a value forced
    onto a register at time *t* is only consumed if the register is
    actually live around *t* — most of the time it is simply overwritten
    before any downstream logic reads it, so most injections are masked
    (the dominant outcome in the paper's campaigns).

    ``fired_cycle`` records when the flip actually landed (``None`` if it
    never did).
    """

    model = "transient"

    flipflop: FlipFlop
    bit: int
    cycle: int
    window: int = 1
    #: bits flipped starting at ``bit``.  A single flip-flop upset has
    #: ``n_bits == 1``; a transient on a *signal* feeding the register
    #: (the paper's campaigns target "flip flops and signals") fans out
    #: into a contiguous burst of captured bits.
    n_bits: int = 1
    fired_cycle: Optional[int] = None
    expired: bool = False

    def __post_init__(self) -> None:
        _check_span(self.flipflop, self.bit, self.n_bits)

    @property
    def mask(self) -> int:
        """XOR mask applied on firing (span validated at construction)."""
        return (((1 << (self.bit + self.n_bits)) - 1)
                ^ ((1 << self.bit) - 1))

    def apply_on_latch(self, value: int, cycle: int) -> int:
        if self.fired_cycle is not None or cycle < self.cycle:
            return value
        if cycle > self.cycle + self.window:
            # the transient decayed before this register latched again
            self.expired = True
            return value
        self.fired_cycle = cycle
        return value ^ self.mask

    @property
    def spent(self) -> bool:
        # once fired the transient can never corrupt another latch
        return self.fired_cycle is not None

    @property
    def pending(self) -> bool:
        return self.fired_cycle is None

    @property
    def decay_deadline(self) -> Optional[int]:
        return self.cycle + self.window


@dataclass
class StuckAtFault(FaultModel):
    """A permanent stuck-at defect on a flip-flop bit range.

    ``stuck_at`` is the forced polarity (0 or 1) of the ``n_bits``-wide
    span starting at ``bit``.  From the activation ``cycle`` (default 0:
    present from power-on, the manufacturing-defect case) **every** write
    to the target register is forced — the plane re-applies the model on
    each latch, and reads never decay it.  ``fired_cycle`` records the
    first latch the defect actually distorted; a stuck-at whose forced
    value equals every written value is architecturally invisible and
    classifies Masked with ``fired=False``, mirroring the transient
    taxonomy.
    """

    model = "stuck-at"

    flipflop: FlipFlop
    bit: int
    stuck_at: int = 0
    n_bits: int = 1
    #: activation cycle; 0 models a defect present for the whole run.
    cycle: int = 0
    fired_cycle: Optional[int] = None
    expired: bool = False

    def __post_init__(self) -> None:
        _check_span(self.flipflop, self.bit, self.n_bits)
        if self.stuck_at not in (0, 1):
            raise ValueError("stuck_at must be 0 or 1")

    @property
    def mask(self) -> int:
        return (((1 << (self.bit + self.n_bits)) - 1)
                ^ ((1 << self.bit) - 1))

    def apply_on_latch(self, value: int, cycle: int) -> int:
        if cycle < self.cycle:
            return value
        forced = (value | self.mask) if self.stuck_at else \
            (value & ~self.mask)
        if forced != value and self.fired_cycle is None:
            self.fired_cycle = cycle
        return forced

    @property
    def spent(self) -> bool:
        return False  # permanent: every future latch is still forced

    @property
    def pending(self) -> bool:
        return True  # never decays, never spent

    @property
    def decay_deadline(self) -> Optional[int]:
        return None


@dataclass
class TargetedBurst(FaultModel):
    """Targeted multi-bit corruption over a cycle window (adversarial).

    Models an attacker-controlled (or multi-event) upset: every latch of
    the target register whose cycle falls inside ``[cycle, cycle +
    window]`` is XOR-ed with an ``n_bits``-wide pattern anchored at
    ``bit`` — contiguous all-ones by default, or an explicit ``pattern``
    (relative to ``bit``; must fit in the span and be non-zero).  Unlike
    a transient the burst is *not* spent by its first hit: it keeps
    corrupting until the window closes (``hits`` counts the landings).
    A burst that meets no latch inside its window decays unconsumed,
    exactly like a transient.
    """

    model = "burst"

    flipflop: FlipFlop
    bit: int
    cycle: int
    window: int = 4
    n_bits: int = 2
    #: XOR pattern relative to ``bit``; None = contiguous all-ones span.
    pattern: Optional[int] = None
    fired_cycle: Optional[int] = None
    expired: bool = False
    hits: int = 0
    closed: bool = False

    def __post_init__(self) -> None:
        _check_span(self.flipflop, self.bit, self.n_bits)
        if self.pattern is not None:
            if not 0 < self.pattern < (1 << self.n_bits):
                raise ValueError(
                    f"pattern {self.pattern:#x} does not fit a non-zero "
                    f"{self.n_bits}-bit span")

    def reset(self) -> None:
        super().reset()
        self.hits = 0
        self.closed = False

    @property
    def mask(self) -> int:
        if self.pattern is not None:
            return self.pattern << self.bit
        return (((1 << (self.bit + self.n_bits)) - 1)
                ^ ((1 << self.bit) - 1))

    def apply_on_latch(self, value: int, cycle: int) -> int:
        if cycle < self.cycle:
            return value
        if cycle > self.cycle + self.window:
            if self.fired_cycle is None:
                self.expired = True
            else:
                self.closed = True
            return value
        if self.fired_cycle is None:
            self.fired_cycle = cycle
        self.hits += 1
        return value ^ self.mask

    @property
    def spent(self) -> bool:
        return self.closed

    @property
    def pending(self) -> bool:
        # still corrupting (or still waiting) until the window closes
        return not self.closed

    @property
    def decay_deadline(self) -> Optional[int]:
        return self.cycle + self.window

    def close(self) -> None:
        self.closed = True


#: Registered fault models, keyed by their serde/CLI name.
FAULT_MODELS: Dict[str, Type[FaultModel]] = {
    TransientFault.model: TransientFault,
    StuckAtFault.model: StuckAtFault,
    TargetedBurst.model: TargetedBurst,
}

#: Per-model dataclass fields that are construction parameters (runtime
#: state is reset on load, not round-tripped).
_RUNTIME_FIELDS = ("fired_cycle", "expired", "hits", "closed")


def fault_to_dict(fault: FaultModel) -> dict:
    """Serialise any registered fault model (construction params only)."""
    if fault.model not in FAULT_MODELS:
        raise ValueError(f"unregistered fault model {fault.model!r}")
    payload = {"model": fault.model, "flipflop": asdict(fault.flipflop)}
    for name, value in asdict(fault).items():
        if name != "flipflop" and name not in _RUNTIME_FIELDS:
            payload[name] = value
    return payload


def fault_from_dict(data: dict,
                    plane: Optional["FaultPlane"] = None) -> FaultModel:
    """Rebuild a fault model serialised by :func:`fault_to_dict`.

    With *plane* given, the flip-flop is resolved against the plane's
    declared inventory (so ``plane.arm`` accepts the result); otherwise
    it is reconstructed from the payload.
    """
    data = dict(data)
    name = data.pop("model", "transient")
    try:
        cls = FAULT_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; "
            f"choose from {sorted(FAULT_MODELS)}") from None
    ff_data = data.pop("flipflop")
    flipflop = FlipFlop(**ff_data)
    if plane is not None:
        declared = plane._flipflops.get(flipflop.key)
        if declared is None:
            raise KeyError(f"unknown flip-flop {flipflop.key}")
        flipflop = declared
    return cls(flipflop=flipflop, **data)


class FaultPlane:
    """Registry of flip-flops plus the armed-fault latch interceptor."""

    def __init__(self) -> None:
        self.cycle = 0
        self._flipflops: Dict[Tuple[str, str, int], FlipFlop] = {}
        self._armed: Optional[FaultModel] = None
        self._armed_key: Optional[Tuple[str, str, int]] = None
        self._armed_deadline: Optional[int] = None
        self._expired_fault: Optional[FaultModel] = None
        self._recorder = None
        #: Fast-path flag consulted by every module's ``_latch`` wrapper:
        #: while True nothing (no armed fault, no recorder) can observe
        #: a latch, so modules skip the :meth:`latch` dispatch entirely.
        #: A plain attribute, not a property — the guard runs once per
        #: stage-register write in the model, and a bound-property call is
        #: measurably slower than an attribute load on that path.
        self.passive = True

    # -- inventory --------------------------------------------------------
    def declare(self, flipflop: FlipFlop) -> FlipFlop:
        """Register a flip-flop; idempotent for identical declarations."""
        existing = self._flipflops.get(flipflop.key)
        if existing is not None:
            if existing != flipflop:
                raise ValueError(f"conflicting declaration for {flipflop.key}")
            return existing
        self._flipflops[flipflop.key] = flipflop
        return flipflop

    def flipflops(self, module: Optional[str] = None) -> List[FlipFlop]:
        """All declared flip-flops, optionally restricted to one module."""
        ffs = self._flipflops.values()
        if module is not None:
            ffs = (ff for ff in ffs if ff.module == module)
        return sorted(ffs, key=lambda ff: (ff.module, ff.name, ff.lane))

    def module_size(self, module: str) -> int:
        """Total flip-flop (bit) count of a module — the Table I 'RTL size'."""
        return sum(ff.width for ff in self.flipflops(module))

    def module_sizes(self) -> Dict[str, int]:
        sizes: Dict[str, int] = {}
        for ff in self._flipflops.values():
            sizes[ff.module] = sizes.get(ff.module, 0) + ff.width
        return sizes

    #: Modules whose registers hold *persistent state* (SRAM cells): a
    #: transient there flips the stored value and survives until the cell
    #: is read or overwritten — no latching-window decay.
    PERSISTENT_STATE_MODULES = frozenset({"register_file"})

    # -- simulation time ---------------------------------------------------
    def tick(self, cycles: int = 1) -> None:
        self.cycle += cycles
        armed = self._armed
        if (armed is not None and self._armed_deadline is not None
                and self.cycle > self._armed_deadline):
            self._armed_deadline = None
            if armed.fired_cycle is None:
                # the model's latching window closed with no write to the
                # target register: it decayed unconsumed (masked)
                armed.expired = True
                self._armed = None
                self._expired_fault = armed
            else:
                # fired at least once and can fire no more (e.g. a burst
                # whose window closed): retire to the passive fast path
                armed.close()
            self.passive = self._recorder is None

    def reset_time(self) -> None:
        self.cycle = 0

    # -- injection ---------------------------------------------------------
    def arm(self, fault: FaultModel) -> None:
        """Arm a single fault model; the paper injects one per run."""
        if self._armed is not None:
            raise RuntimeError("a fault is already armed on this plane")
        if self._recorder is not None:
            raise RuntimeError(
                "cannot arm a fault while a golden-trace recorder is "
                "attached")
        if fault.flipflop.key not in self._flipflops:
            raise KeyError(f"unknown flip-flop {fault.flipflop.key}")
        self._armed = fault
        self._armed_key = fault.flipflop.key
        if fault.flipflop.module in self.PERSISTENT_STATE_MODULES:
            self._armed_deadline = None  # SRAM semantics: no decay
        else:
            self._armed_deadline = fault.decay_deadline
        self.passive = False

    def disarm(self) -> Optional[FaultModel]:
        fault = self._armed or self._expired_fault
        self._armed = None
        self._armed_key = None
        self._armed_deadline = None
        self._expired_fault = None
        self.passive = self._recorder is None
        return fault

    # -- golden-trace recording -------------------------------------------
    def attach_recorder(self, recorder) -> None:
        """Route every latch through *recorder* (golden-trace capture).

        While a recorder is attached the plane is no longer passive:
        modules dispatch every stage-register write through :meth:`latch`
        (which logs it and returns the value unchanged), and
        :meth:`pending_for` reports True so conditionally-skipped latches
        (pipeline bubbles, shadow banks) are captured too.  A pipeline
        bubble reaches the recorder as one event for the whole bank
        (:meth:`latch_bubble`), which stands for a latch of each of its
        flip-flops.  The recorded latch schedule is therefore a superset
        of what any single faulted run performs before its transient
        fires — the property the vectorized injector's fault-firing
        resolution relies on.
        """
        if self._armed is not None:
            raise RuntimeError(
                "cannot attach a recorder while a fault is armed")
        if self._recorder is not None:
            raise RuntimeError("a recorder is already attached")
        self._recorder = recorder
        self.passive = False

    def detach_recorder(self):
        recorder = self._recorder
        self._recorder = None
        self.passive = self._armed is None
        return recorder

    @property
    def recorder(self):
        return self._recorder

    @property
    def armed_fault(self) -> Optional[FaultModel]:
        return self._armed

    @property
    def injection_pending(self) -> bool:
        """True while the armed model could still corrupt a future latch.

        Modules use this to skip latches that can never change observable
        behaviour (shadow pipeline stages, bubble slots) once no flip can
        land any more — a pure optimisation with identical semantics.
        Permanent models are pending for the whole run.
        """
        armed = self._armed
        return armed is not None and armed.pending

    def pending_for(self, module: str) -> bool:
        """True while the armed model targeting *module* is still live.

        Also True while a golden-trace recorder is attached, so that
        latches normally skipped when no flip can land (bubble slots,
        shadow banks) are still captured in the trace.  A permanently-
        armed model (stuck-at) keeps its module pending for the whole
        run — its target register must be interposed on every write.
        """
        if self._recorder is not None:
            return True
        armed = self._armed
        return (armed is not None and armed.pending
                and armed.flipflop.module == module)

    @property
    def fault_decayed(self) -> bool:
        """True once the armed model decayed without ever landing.

        From this point the run is bit-identical to the golden one, so
        the campaign controller can classify it Masked without finishing.
        Permanent models have no decay deadline and never set this.
        """
        return self._expired_fault is not None

    def latch_bubble(self, module: str) -> None:
        """Latch 0 into every flip-flop of *module* (a pipeline bubble).

        A recorder logs the bubble as one event for the whole module.
        Otherwise only the armed register can observe a write, so while
        its model is pending on *module* that register alone is latched.
        """
        if self._recorder is not None:
            self._recorder.on_bubble(module, self.cycle)
        elif self.pending_for(module):
            _, name, lane = self._armed_key
            self.latch(module, name, 0, lane)

    # -- the hot path --------------------------------------------------------
    def latch(self, module: str, name: str, value: int, lane: int = -1) -> int:
        """Route one flip-flop write; apply the armed model if it matches.

        Called for every stage-register write in the model, so it stays as
        cheap as possible in the common (no matching fault) case.
        """
        if self._recorder is not None:
            self._recorder.on_latch(module, name, lane, self.cycle)
            return value
        armed = self._armed
        if armed is None:
            return value
        key = self._armed_key
        if key[0] != module or key[1] != name or key[2] != lane:
            return value
        out = armed.apply_on_latch(value, self.cycle)
        if armed.expired:
            # the model decayed before this register latched again
            self._armed = None
            self._armed_deadline = None
            self._expired_fault = armed
            self.passive = self._recorder is None
        elif armed.spent:
            # nothing downstream can observe another latch, so the plane
            # drops back to the passive fast path
            self.passive = self._recorder is None
        return out
