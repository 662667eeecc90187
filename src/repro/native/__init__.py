"""Native fast-path tier: tier selection, loading and first-use build.

The compiled extension (``repro.native._native``, built from
:mod:`repro.native._builder`) provides C kernels for the two hottest inner
loops — the :class:`~repro.mesh.batch.LoadLedger` flip/resample grading
(driving SA and TABU) and the :class:`~repro.noc.engine.ArrayFlitSimulator`
cycle loop — each bit-identical to its Python tier.

Tier selection is explicit and observable through ``REPRO_NATIVE``:

* ``auto`` (default, also the empty string) — use the native kernels when
  the compiled module imports (building it on first use when cffi and a C
  compiler are available), else fall back silently to the Python tier with
  a one-time logged notice;
* ``1`` — require the native tier; :class:`NativeUnavailableError` if the
  module cannot be imported or built;
* ``0`` — force the Python tier even when the module is available.

Anything else raises :class:`~repro.utils.validation.
InvalidParameterError`.  The variable is re-read on every tier decision
so tests (and benches) can flip tiers per call; the expensive load/build
itself is memoised per process.

Even on the native tier the *random draws stay in Python*: the C stream
consumes raw PCG64 words refilled through a callback into
:func:`repro.utils.rng.raw_word_block`, preserving the generator
draw-order contract documented in :mod:`repro.utils.rng`.
"""

from __future__ import annotations

import importlib
import importlib.util
import logging
import os
import sys
import tempfile
from pathlib import Path
from typing import Optional, Tuple

from repro.utils.validation import InvalidParameterError, ReproError

__all__ = [
    "NativeUnavailableError",
    "active_tier",
    "build_native",
    "native_kernels",
    "native_mode",
    "native_module",
]

logger = logging.getLogger("repro.native")

_MODES = ("auto", "0", "1")


class NativeUnavailableError(ReproError):
    """``REPRO_NATIVE=1`` but the native module cannot be loaded/built."""


def native_mode() -> str:
    """The validated ``REPRO_NATIVE`` mode: ``"auto"``, ``"0"`` or ``"1"``."""
    raw = os.environ.get("REPRO_NATIVE", "")
    value = raw.strip().lower()
    if not value:
        return "auto"
    if value not in _MODES:
        raise InvalidParameterError(
            f"REPRO_NATIVE must be one of {', '.join(_MODES)}; got {raw!r}"
        )
    return value


# memoised load state: None = not attempted, (module,) = loaded,
# (None, reason) = attempted and unavailable
_LOAD: Optional[Tuple] = None
_FALLBACK_NOTICED = False


def _package_dir() -> Path:
    return Path(__file__).resolve().parent


#: ``.native-build-*`` dirs older than this are orphans of a killed
#: builder (seconds)
STALE_BUILD_AGE_S = 3600.0


def _sweep_stale_builds(
    target_dir: Path,
    *,
    max_age_s: float = STALE_BUILD_AGE_S,
    now: Optional[float] = None,
) -> int:
    """Remove ``.native-build-*`` residue in ``target_dir``; returns count.

    A builder killed mid-compile (SIGKILL, OOM) leaves its whole
    ``TemporaryDirectory`` behind — object files included, easily a few
    MB each.  Directories older than ``max_age_s`` cannot belong to a
    live build and are dropped before the next build starts; younger
    ones are left for the concurrent builder that owns them.
    """
    import shutil
    import time

    if now is None:
        now = time.time()
    removed = 0
    for p in target_dir.glob(".native-build-*"):
        try:
            if p.is_dir() and now - p.stat().st_mtime >= max_age_s:
                shutil.rmtree(p, ignore_errors=True)
                removed += 1
        except OSError:
            continue  # raced with another sweeper
    return removed


def build_native(target_dir: Optional[Path] = None, *, verbose: bool = False):
    """Compile the extension into ``target_dir`` (default: the package).

    Builds in a temporary directory on the same filesystem and moves the
    artefact into place with an atomic rename, so concurrent builders
    (parallel sweep workers importing simultaneously) cannot observe a
    half-written module.  Stale ``.native-build-*`` residue from killed
    builders is swept first.  Returns the path of the built extension.
    Raises on any failure — callers decide whether that is fatal
    (``REPRO_NATIVE=1``) or a fallback (``auto``).
    """
    from repro.native._builder import ffibuilder

    if target_dir is None:
        target_dir = _package_dir()
    target_dir = Path(target_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    _sweep_stale_builds(target_dir)
    with tempfile.TemporaryDirectory(
        prefix=".native-build-", dir=str(target_dir)
    ) as tmp:
        built = ffibuilder.compile(tmpdir=tmp, verbose=verbose)
        dest = target_dir / Path(built).name
        os.replace(built, dest)
    return dest


def _try_load():
    """Import the compiled module, building it on first use if possible."""
    try:
        return importlib.import_module("repro.native._native"), None
    except ImportError as exc:
        import_reason = str(exc)
    try:
        import cffi  # noqa: F401
    except ImportError:
        return None, (
            "compiled module not importable and cffi is not installed "
            f"(install the 'native' extra): {import_reason}"
        )
    try:
        dest = build_native()
    except Exception as exc:  # distutils/compiler failures are diverse
        return None, f"native build failed: {exc}"
    try:
        spec = importlib.util.spec_from_file_location(
            "repro.native._native", dest
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules["repro.native._native"] = module
        spec.loader.exec_module(module)
        return module, None
    except Exception as exc:  # pragma: no cover - freak load failure
        sys.modules.pop("repro.native._native", None)
        return None, f"built module failed to load: {exc}"


def native_module():
    """The loaded extension module, or ``None`` — ignores ``REPRO_NATIVE``.

    First call may build the extension (seconds, once per environment);
    the outcome is memoised for the process.
    """
    global _LOAD
    if _LOAD is None:
        module, reason = _try_load()
        if module is not None:
            from repro.native.stream import register_refill_callback

            register_refill_callback(module)
        _LOAD = (module, reason)
    return _LOAD[0]


def _unavailable_reason() -> str:
    native_module()
    return _LOAD[1] or "unknown"


def native_kernels():
    """The extension honouring ``REPRO_NATIVE``, or ``None`` (Python tier).

    ``auto``: module or ``None`` (one-time logged notice on fallback);
    ``1``: module or :class:`NativeUnavailableError`; ``0``: ``None``.
    """
    global _FALLBACK_NOTICED
    mode = native_mode()
    if mode == "0":
        return None
    module = native_module()
    if module is None:
        if mode == "1":
            raise NativeUnavailableError(
                "REPRO_NATIVE=1 but the native tier is unavailable: "
                + _unavailable_reason()
            )
        if not _FALLBACK_NOTICED:
            _FALLBACK_NOTICED = True
            logger.info(
                "native tier unavailable (%s); continuing on the Python "
                "tier",
                _LOAD[1],
            )
        return None
    return module


def active_tier() -> str:
    """``"native"`` or ``"python"`` — what the current mode resolves to."""
    return "python" if native_kernels() is None else "native"
