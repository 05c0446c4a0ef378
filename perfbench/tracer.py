"""Spans recorded around calls into the vqtoeplitz package, from outside it.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends.  ``install`` wraps public functions by dotted name; every module of
the package that bound the same function object (``from .circuits import
exact_bracket`` in ``vqa``) gets the wrapper, so calls made inside the
package are seen too.  A name that no longer exists is reported as absent
and the run goes on without it.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import sys
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.absent: list[str] = []
        self.tallies: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._paused = False

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span (a plain call when tracing is off)."""
        if not self.enabled or self._paused:
            return fn(*args, **kwargs)
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    @contextlib.contextmanager
    def region(self, name: str):
        """Span around a block; records nothing when tracing is off."""
        if not self.enabled or self._paused:
            yield
            return
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def paused(self):
        """Calls inside the block go straight through the wrappers."""
        previous, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = previous

    # -- wrapping package functions ----------------------------------------

    def install(self, package: str, targets: dict[str, str], tallies=None) -> None:
        """Wrap ``package.<module>.<attr>`` for each span name -> 'module.attr'.

        ``tallies`` maps a span name to ``f(args, kwargs)``, a number summed
        over its calls into ``self.tallies`` (e.g. the shots a sampler draws).
        """
        tallies = tallies or {}
        if not self.enabled:
            return
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        for span_name, dotted in targets.items():
            module_name, attr = dotted.rsplit(".", 1)
            module = sys.modules.get(f"{package}.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(span_name)
                continue
            wrapper = self._wrap(span_name, original, tallies.get(span_name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patches.append((m, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def _wrap(self, name: str, fn, tally):
        if tally is not None:
            self.tallies[name] = 0.0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tally is not None and not self._paused:
                self.tallies[name] += tally(args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration of each span minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def nearest(self, names) -> list[int]:
        """Index of each span's nearest ancestor-or-self named in ``names``, else -1."""
        out: list[int] = []
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            out.append(i if n in names else (out[p] if p >= 0 else -1))
        return out

    def write_csv(self, path) -> None:
        """All spans as gzip-compressed CSV, times in seconds from the first span."""
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "parent", "start_s", "end_s"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, p, s, e) in enumerate(zip(self.names, self.parents, self.starts, self.ends)):
                writer.writerow([i, n, p, f"{s - t0:.9f}", f"{e - t0:.9f}"])
