"""Placeholder left behind by the deleted generated-kernel accelerator.

This module exists only because the frozen benchmark tracer
(``perfbench/spans.py``) runs ``import repro.accel`` and rebinds
:func:`compiled_run`.  Nothing in ``repro`` calls it.  The next
benchmark change drops that hook, and this module is deleted with it.
"""

from __future__ import annotations

from typing import Callable, Optional


def compiled_run(processor) -> Optional[Callable]:
    """Always None: there are no compiled kernels."""
    return None
