"""Deterministic fault injection for the sweep engine.

Large sweeps die in three characteristic ways: a worker process crashes
(OOM killer, segfaulting native code), a worker wedges forever (NFS stall,
scheduler pathologies), or an on-disk cache entry is corrupted (torn write,
bad disk). The :class:`FaultInjector` reproduces all three **on purpose and
deterministically**, so tests can prove the
:class:`~repro.analysis.runner.SweepRunner`'s recovery machinery works: a
sweep under fault rate *p* must produce byte-identical
:class:`~repro.sim.system.SimulationResult`s to a fault-free run.

Determinism
    Every decision is a pure function of ``(seed, fault kind, job key,
    attempt)`` hashed through SHA-256 — independent of scheduling, worker
    identity and wall-clock. The same chaos spec against the same job set
    injects the same faults, every run, on every machine.

Enablement
    * programmatically: pass a :class:`ChaosConfig` to ``SweepRunner``;
    * end to end: set the ``REPRO_CHAOS`` environment variable (or the
      ``--chaos`` test hook on ``python -m repro experiment``) to a spec
      like ``seed=7,crash=0.3,hang=0.3,corrupt=0.3,hang_seconds=20``.

Crash and hang injection happen *inside pool worker processes* (the config
travels with the job, so workers need no environment plumbing); they are
never applied to inline execution, where a crash would take down the
submitting process itself. Cache corruption is applied by the parent right
after an entry is written, modelling a torn write discovered on a later
resume.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass, fields
from typing import Dict, Optional, Sequence

#: Environment variable holding a chaos spec (empty/"off"/"0" disables).
CHAOS_ENV = "REPRO_CHAOS"

#: Environment variable holding a campaign-level chaos spec (see
#: :func:`parse_campaign_chaos_spec`).
CAMPAIGN_CHAOS_ENV = "REPRO_CAMPAIGN_CHAOS"

#: Exit code used for injected worker crashes (visible in pool diagnostics).
CRASH_EXIT_CODE = 13


@dataclass(frozen=True)
class ChaosConfig:
    """Picklable fault-injection knobs (travels to pool workers with jobs).

    Attributes:
        seed: decision-hash seed; same seed = same injected faults.
        crash: probability a worker attempt dies via ``os._exit``.
        hang: probability a worker attempt sleeps ``hang_seconds`` first.
        corrupt: probability a freshly written cache entry is garbled.
        hang_seconds: artificial hang length (must exceed the runner's
            per-job timeout to actually trigger hang recovery).
        crash_attempts: only attempts ``<= crash_attempts`` are eligible to
            crash (None = every attempt); lets tests force "first attempt
            crashes, retry succeeds" deterministically.
        hang_attempts: same, for hangs.
    """

    seed: int = 0xC4A05
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    hang_seconds: float = 30.0
    crash_attempts: Optional[int] = None
    hang_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "corrupt"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} probability must be in [0, 1], got {value}")

    @property
    def enabled(self) -> bool:
        return self.crash > 0 or self.hang > 0 or self.corrupt > 0


def _parse_spec_items(
    spec: Optional[str], known: Sequence[str], label: str
) -> Optional[Dict[str, str]]:
    """Split ``key=value,key=value`` into raw strings keyed by name.

    Returns None for empty/disabled specs (``""``, ``"off"``, ``"none"``,
    ``"0"``, ``"false"``); raises ValueError naming ``label`` on an item
    without ``=`` or with a key outside ``known``.
    """
    if spec is None:
        return None
    spec = spec.strip()
    if not spec or spec.lower() in ("off", "none", "0", "false"):
        return None
    items = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip()
        if not sep or name not in known:
            raise ValueError(
                f"bad {label} item {item!r}; known keys: {', '.join(known)}"
            )
        items[name] = value
    return items


def parse_chaos_spec(spec: Optional[str]) -> Optional[ChaosConfig]:
    """Parse ``key=value,key=value`` into a :class:`ChaosConfig`.

    Returns None for empty/disabled specs (``""``, ``"off"``, ``"0"``).

    Example:
        >>> parse_chaos_spec("crash=0.5,seed=7").crash
        0.5
    """
    items = _parse_spec_items(
        spec, sorted(f.name for f in fields(ChaosConfig)), "chaos spec"
    )
    if items is None:
        return None
    kwargs = {}
    for name, value in items.items():
        if name in ("seed", "crash_attempts", "hang_attempts"):
            kwargs[name] = int(value, 0)
        else:
            kwargs[name] = float(value)
    return ChaosConfig(**kwargs)


def chaos_from_env() -> Optional[ChaosConfig]:
    """The :data:`CHAOS_ENV` spec, or None when unset/disabled."""
    return parse_chaos_spec(os.environ.get(CHAOS_ENV))


class FaultInjector:
    """Applies a :class:`ChaosConfig`'s faults, deterministically per job.

    Example:
        >>> injector = FaultInjector(ChaosConfig(crash=1.0))
        >>> injector.should_crash("somejobkey", attempt=1)
        True
    """

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config

    # ------------------------------------------------------------ decisions

    def _roll(self, kind: str, key: str, attempt: int) -> float:
        """Uniform [0, 1) from (seed, kind, key, attempt) — schedule-free."""
        digest = hashlib.sha256(
            f"{self.config.seed}:{kind}:{key}:{attempt}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / float(1 << 64)

    def should_crash(self, key: str, attempt: int) -> bool:
        limit = self.config.crash_attempts
        if limit is not None and attempt > limit:
            return False
        return self._roll("crash", key, attempt) < self.config.crash

    def should_hang(self, key: str, attempt: int) -> bool:
        limit = self.config.hang_attempts
        if limit is not None and attempt > limit:
            return False
        return self._roll("hang", key, attempt) < self.config.hang

    def should_corrupt(self, key: str) -> bool:
        return self._roll("corrupt", key, 0) < self.config.corrupt

    # ---------------------------------------------------------- application

    def apply_in_worker(self, key: str, attempt: int) -> None:
        """Run one attempt's worth of chaos inside a pool worker.

        Crash wins over hang when both roll true. ``os._exit`` (not
        ``sys.exit``) so the process dies without unwinding — exactly what a
        segfault or OOM kill looks like to the parent's process pool.
        """
        if self.should_crash(key, attempt):
            os._exit(CRASH_EXIT_CODE)
        if self.should_hang(key, attempt):
            time.sleep(self.config.hang_seconds)

    def corrupt_file(self, path: str) -> bool:
        """Garble a cache entry in place (torn-write model).

        Keeps the first half of the file and appends junk, producing the
        unparseable-JSON shape a killed writer leaves behind. Returns False
        if the file does not exist.
        """
        try:
            with open(path, "rb") as handle:
                data = handle.read()
            with open(path, "wb") as handle:
                handle.write(data[: len(data) // 2])
                handle.write(b"\x00CHAOS-TORN-WRITE")
        except OSError:
            return False
        return True


# ----------------------------------------------------------- campaign level


@dataclass(frozen=True)
class CampaignChaosConfig:
    """Orchestrator-level fault schedule (kill-and-resume proofs).

    Unlike job-level chaos (probabilistic per attempt), campaign chaos is
    *scheduled*: faults fire at exact journal offsets or build ordinals, so
    the proof harness can place a SIGKILL mid-journal-append or
    mid-checkpoint-build deterministically.

    Attributes:
        kill_seq: journal sequence number at which to act (None = never).
        mode: what happens at ``kill_seq``:
            * ``"kill"`` — SIGKILL immediately *after* the record is
              durable (crash between a decision and the action it covers);
            * ``"torn"`` — write only the first half of the record, fsync
              the fragment, then SIGKILL: a crash *mid-append*, leaving the
              torn tail recovery must quarantine;
            * ``"term"`` — SIGTERM the orchestrator after the append; the
              signal-safe drain path runs instead of a hard death.
        warm_kill: 1-based ordinal of the warm-checkpoint build to die in
            (SIGKILL while the build lock is held, with partial temp-file
            litter left behind), independent of ``kill_seq``.
    """

    kill_seq: Optional[int] = None
    mode: str = "kill"
    warm_kill: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("kill", "torn", "term"):
            raise ValueError(
                f"campaign chaos mode must be kill/torn/term, got {self.mode!r}"
            )
        if self.warm_kill is not None and self.warm_kill < 1:
            raise ValueError(f"warm_kill must be >= 1, got {self.warm_kill}")

    @property
    def enabled(self) -> bool:
        return self.kill_seq is not None or self.warm_kill is not None


def parse_campaign_chaos_spec(
    spec: Optional[str],
) -> Optional[CampaignChaosConfig]:
    """Parse ``key=value,...`` into a :class:`CampaignChaosConfig`.

    Keys: ``kill`` (journal seq), ``mode`` (kill/torn/term), ``warm_kill``
    (build ordinal). Returns None for empty/disabled specs.

    Example:
        >>> parse_campaign_chaos_spec("kill=7,mode=torn").mode
        'torn'
    """
    items = _parse_spec_items(
        spec, ("kill", "mode", "warm_kill"), "campaign chaos"
    )
    if items is None:
        return None
    kwargs = {}
    for name, value in items.items():
        if name == "kill":
            kwargs["kill_seq"] = int(value, 0)
        elif name == "warm_kill":
            kwargs["warm_kill"] = int(value, 0)
        else:
            kwargs["mode"] = value.strip()
    return CampaignChaosConfig(**kwargs)


def campaign_chaos_from_env() -> Optional[CampaignChaosConfig]:
    """The :data:`CAMPAIGN_CHAOS_ENV` spec, or None when unset/disabled."""
    return parse_campaign_chaos_spec(os.environ.get(CAMPAIGN_CHAOS_ENV))


class CampaignFaultInjector:
    """Applies a :class:`CampaignChaosConfig` at its scheduled points.

    Wired by the orchestrator into :class:`~repro.campaign.journal.
    CampaignJournal` (``before``/``after`` each durable append) and into
    ``SweepRunner.warm_build_hook`` (called while the warm-image build lock
    is held). SIGKILL is delivered to the *own* process group leader — the
    orchestrator — so no cleanup handler runs, exactly like the OOM killer.
    """

    def __init__(self, config: CampaignChaosConfig) -> None:
        self.config = config
        self.warm_builds_seen = 0

    # ------------------------------------------------------------ journal

    def before_journal_append(self, handle, seq: int, data: bytes) -> None:
        """Possibly die *mid-append*, leaving a durable half record."""
        if self.config.mode != "torn" or seq != self.config.kill_seq:
            return
        fragment = data[: max(1, len(data) // 2)]
        handle.write(fragment)
        handle.flush()
        os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)

    def after_journal_append(self, seq: int) -> None:
        """Possibly die (or request drain) right after a durable append."""
        if seq != self.config.kill_seq:
            return
        if self.config.mode == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.config.mode == "term":
            os.kill(os.getpid(), signal.SIGTERM)

    # ------------------------------------------------------- warm builds

    def on_warm_build(self, image_path: str) -> None:
        """Possibly die mid-checkpoint-build (build lock held).

        Leaves the litter a real torn builder would: a partial temp file
        next to the image. The lock file survives the SIGKILL; the resumed
        campaign must reclaim it by pid death, rebuild, and converge.
        """
        self.warm_builds_seen += 1
        if self.config.warm_kill is None:
            return
        if self.warm_builds_seen != self.config.warm_kill:
            return
        with open(f"{image_path}.tmp.{os.getpid()}", "wb") as handle:
            handle.write(b"DBICKPT\x00partial-chaos-litter")
            handle.flush()
            os.fsync(handle.fileno())
        os.kill(os.getpid(), signal.SIGKILL)
