"""Garbage-collector pause accounting.

The packet pool (:class:`repro.netsim.packet.PacketPool`) exists to keep the
per-packet allocation rate — and with it the cyclic-GC trigger rate — flat on
the hot path.  This module measures the thing the pool is defending against:
how often the collector ran during a simulation stretch and how much wall
clock its pauses consumed.  CPython exposes exactly the right hook,
``gc.callbacks``, which fires with ``"start"``/``"stop"`` phases around every
collection; the monitor timestamps the pair.

Benchmarks surface the numbers through :class:`repro.obs.profile.RunProfiler`
(``gc_collections`` / ``gc_pause_seconds`` in ``to_dict``), next to the pool
counters they justify.  Note that benchmark workloads typically run under a
quiesced collector (``emit_bench.quiesced_gc``), where zero collections is
the *expected* reading — the monitor proves the invariant rather than
measuring noise.
"""

from __future__ import annotations

import gc
import time
from typing import Dict


class GcPauseMonitor:
    """Accumulates GC pause time while attached to ``gc.callbacks``.

    Usage::

        monitor = GcPauseMonitor()
        monitor.start()
        ...  # workload
        monitor.stop()
        print(monitor.collections, monitor.pause_seconds)

    Re-entrant ``start`` calls are idempotent; ``stop`` detaches the callback
    and keeps the accumulated totals readable.  One monitor can be started
    and stopped repeatedly — totals accumulate across windows.
    """

    def __init__(self) -> None:
        self.collections = 0
        self.pause_seconds = 0.0
        self._pause_started = None
        self._attached = False

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._pause_started = time.perf_counter()
        elif self._pause_started is not None:
            self.pause_seconds += time.perf_counter() - self._pause_started
            self._pause_started = None
            self.collections += 1

    def start(self) -> "GcPauseMonitor":
        if not self._attached:
            gc.callbacks.append(self._callback)
            self._attached = True
        return self

    def stop(self) -> "GcPauseMonitor":
        if self._attached:
            try:
                gc.callbacks.remove(self._callback)
            except ValueError:  # pragma: no cover - externally cleared
                pass
            self._attached = False
        self._pause_started = None
        return self

    def __repr__(self) -> str:
        return (
            f"GcPauseMonitor(collections={self.collections}, "
            f"pause_seconds={self.pause_seconds:.6f})"
        )
