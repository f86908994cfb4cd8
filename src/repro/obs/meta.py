"""Run-metadata stamping for traces and benchmark artifacts.

Every exported artifact (Chrome trace, ``BENCH_*.json`` baseline,
bottleneck report) should be self-describing: which repro version,
topology, GPU count, RNG seed and configuration produced it.  Without
that, a committed baseline silently goes stale the moment a default
changes.  :func:`run_metadata` builds the canonical header dict and
:func:`config_hash` gives a short stable digest of any JSON-able
configuration mapping so two artifacts can be compared for
like-for-like provenance at a glance.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import platform

#: Environment variable carrying the active run ID.  It rides the
#: process environment (not a module global) so multiprocessing workers
#: — fork *or* spawn — stamp the same run ID as the parent that opened
#: the run (see :func:`run_scope` and the parallel bench runner).
RUN_ID_ENV = "REPRO_RUN_ID"


def repro_version() -> str:
    """The package version, looked up lazily.

    ``repro/__init__`` imports ``repro.obs`` (directly and through the
    simulator), so ``repro.obs.meta`` must not import ``repro`` at
    module import time — that would be a cycle.
    """
    import repro

    return repro.__version__


def config_hash(config: object) -> str:
    """Short stable digest of a configuration object.

    Accepts dataclasses, mappings, or anything JSON-serialisable once
    converted; key order never affects the digest.
    """
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def run_id_for(kind: str, config: object) -> str:
    """Deterministic run ID: ``<kind>-<config hash>``.

    Two runs of the same kind with the same configuration get the same
    ID, so repeat runs overwrite their ledger record instead of piling
    up near-duplicates — reproducibility is the identity.
    """
    if not kind or any(ch in kind for ch in "/\\ "):
        raise ValueError(f"bad run kind {kind!r}")
    return f"{kind}-{config_hash(config)}"


def current_run_id() -> str | None:
    """The run ID in scope for this process, if any."""
    return os.environ.get(RUN_ID_ENV) or None


@contextlib.contextmanager
def run_scope(run_id: str):
    """Make ``run_id`` the ambient run ID for the ``with`` body.

    Children forked/spawned inside the body inherit it through the
    environment, so every artifact a sweep point produces — including
    ones written by multiprocessing bench workers — carries the same
    ``run_id`` stamp.
    """
    previous = os.environ.get(RUN_ID_ENV)
    os.environ[RUN_ID_ENV] = run_id
    try:
        yield run_id
    finally:
        if previous is None:
            os.environ.pop(RUN_ID_ENV, None)
        else:
            os.environ[RUN_ID_ENV] = previous


def run_metadata(
    *,
    topology: str | None = None,
    num_gpus: int | None = None,
    seed: int | None = None,
    config: object = None,
    **extra,
) -> dict:
    """The canonical artifact header.

    Only the keys that apply to the run are emitted; ``extra`` keyword
    pairs ride along verbatim (e.g. ``policy="mg-join"``).
    """
    meta: dict = {
        "repro_version": repro_version(),
        "python": platform.python_version(),
    }
    run_id = current_run_id()
    if run_id is not None:
        meta["run_id"] = run_id
    if topology is not None:
        meta["topology"] = topology
    if num_gpus is not None:
        meta["num_gpus"] = num_gpus
    if seed is not None:
        meta["seed"] = seed
    if config is not None:
        meta["config_hash"] = config_hash(config)
    meta.update(extra)
    return meta
