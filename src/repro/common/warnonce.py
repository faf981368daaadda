"""One shared warn-once: a keyed warning that also feeds `repro.obs`.

Four layers grew four private copies of the same idiom — a flag or a
seen-set guarding ``warnings.warn`` so a degradation is announced once
and then handled quietly.  This module is the single implementation:
every call increments ``repro_warnings_total{key=...}`` and records a
typed ``warning`` event on any attached flight recorder (so the full
history survives in the event stream), while the user-visible warning
still fires exactly once per key.

``registry`` scopes the once-ness: the default is a process-global
set, while a caller that wants per-instance semantics (one warning per
*pool*, as in :class:`repro.exec.pool.Pool`) passes its own set.
"""

from __future__ import annotations

import threading
import warnings
from typing import Optional, Set

__all__ = ["reset_warn_once", "warn_once", "warned"]

_GLOBAL_SEEN: Set[str] = set()
_LOCK = threading.Lock()


def warn_once(
    key: str,
    message: str,
    *,
    category: type = RuntimeWarning,
    stacklevel: int = 2,
    registry: Optional[Set[str]] = None,
) -> bool:
    """Warn with ``message`` the first time ``key`` is seen.

    Every call — first or repeat — increments the warnings counter and
    records an obs event; only the first call per key per ``registry``
    emits the :mod:`warnings` warning.  ``stacklevel`` counts from the
    *caller* of ``warn_once`` (2 = the caller's caller), matching what
    the call site would have passed to ``warnings.warn`` directly.
    Returns True when the warning was emitted.
    """
    from repro import obs

    obs.WARNINGS.inc(key=key)
    obs.record_event("warning", key=key, message=str(message))
    seen = _GLOBAL_SEEN if registry is None else registry
    with _LOCK:
        if key in seen:
            return False
        seen.add(key)
    warnings.warn(message, category, stacklevel=stacklevel + 1)
    return True


def warned(key: str, registry: Optional[Set[str]] = None) -> bool:
    """Whether ``key`` has already warned in ``registry``."""
    seen = _GLOBAL_SEEN if registry is None else registry
    with _LOCK:
        return key in seen


def reset_warn_once(
    key: Optional[str] = None,
    registry: Optional[Set[str]] = None,
) -> None:
    """Forget one key (or all of them) so the next call warns again.

    Test hook — mirrors what tests previously did by poking the
    per-module flags directly.
    """
    seen = _GLOBAL_SEEN if registry is None else registry
    with _LOCK:
        if key is None:
            seen.clear()
        else:
            seen.discard(key)
