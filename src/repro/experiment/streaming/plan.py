"""Deterministic shard plans for the streaming experiment engine.

A shard plan splits the device index space ``[0, n_devices)`` into
fixed-size shards, each a contiguous run of whole *blocks*.  Blocks --
not shards -- are the RNG unit: every block draws from an independent
substream derived from ``(seed, block_index)`` via
``numpy.random.SeedSequence`` spawn keys, so the population is a pure
function of ``(seed, n_devices, block_devices)``.  Shard size and
worker count only group blocks; they can never change what any device
looks like, which is the invariance contract the bench asserts
(``shard_invariant`` / ``worker_invariant``).

The ``legacy`` scheme instead replays the original single-stream
:meth:`~repro.experiment.population.PopulationGenerator.iter_chips`
order as one shard, giving a small-scale equivalence oracle against the
object-materializing path.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The two supported RNG schemes.
SCHEMES = ("spawn", "legacy")

#: Default devices per RNG block (the vectorised generation batch).
DEFAULT_BLOCK_DEVICES = 4096

#: Default devices per shard (the unit of dispatch and checkpointing).
DEFAULT_SHARD_DEVICES = 65536


@dataclass(frozen=True)
class ShardUnit:
    """One contiguous device range dispatched as a work unit.

    Attributes:
        index: Position in the shard plan (the reduce happens in this
            order).
        start: First device index (inclusive).
        stop: Last device index (exclusive).
    """

    index: int
    start: int
    stop: int

    @property
    def unit_id(self) -> str:
        """Stable checkpoint/journal key for this shard."""
        return f"shard:{self.index:05d}:{self.start}-{self.stop}"

    @property
    def devices(self) -> int:
        """Number of devices in the shard."""
        return self.stop - self.start

    def __str__(self) -> str:
        return self.unit_id


@dataclass(frozen=True)
class ShardPlan:
    """The full sharding layout of one streaming experiment.

    Attributes:
        n_devices: Total population size.
        seed: Root RNG seed (block substreams spawn from it).
        shard_devices: Devices per shard; must be a whole number of
            blocks under the ``spawn`` scheme.  Ignored under
            ``legacy`` (which is inherently single-stream, hence
            single-shard).
        block_devices: Devices per RNG block.
        scheme: ``"spawn"`` (sharded substreams) or ``"legacy"``
            (original single-stream draw order).
    """

    n_devices: int
    seed: int = 1105
    shard_devices: int = DEFAULT_SHARD_DEVICES
    block_devices: int = DEFAULT_BLOCK_DEVICES
    scheme: str = "spawn"

    def __post_init__(self) -> None:
        # A float size slips past the range checks below (NaN compares
        # False to everything, 5000.5 reaches numpy's poisson, True is
        # a one-device lot), so sizes must be ints before anything else.
        for name in ("n_devices", "shard_devices", "block_devices"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(
                    f"{name} must be an int, got {value!r} "
                    f"({type(value).__name__})")
        if self.n_devices <= 0:
            raise ValueError("n_devices must be positive")
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.shard_devices <= 0:
            raise ValueError("shard_devices must be positive")
        if self.block_devices <= 0:
            raise ValueError("block_devices must be positive")
        if (self.scheme == "spawn"
                and self.shard_devices % self.block_devices != 0):
            raise ValueError(
                f"shard_devices ({self.shard_devices}) must be a "
                f"multiple of block_devices ({self.block_devices}) so "
                "shards group whole RNG blocks")

    def shards(self) -> list[ShardUnit]:
        """The ordered shard list (``legacy``: exactly one shard)."""
        if self.scheme == "legacy":
            return [ShardUnit(0, 0, self.n_devices)]
        out: list[ShardUnit] = []
        start = 0
        while start < self.n_devices:
            stop = min(start + self.shard_devices, self.n_devices)
            out.append(ShardUnit(len(out), start, stop))
            start = stop
        return out

    def blocks_of(self, shard: ShardUnit) -> list[tuple[int, int, int]]:
        """The ``(block_index, start, stop)`` runs covering ``shard``.

        Block indices are *global* (``start // block_devices``), so a
        block's substream is the same no matter which shard layout
        groups it.
        """
        out: list[tuple[int, int, int]] = []
        start = shard.start
        while start < shard.stop:
            index = start // self.block_devices
            stop = min((index + 1) * self.block_devices, shard.stop)
            out.append((index, start, stop))
            start = stop
        return out
