"""In-memory span tracer that wraps module-level functions of the package.

`Tracer.install` replaces each named module attribute with a wrapper that
records one span (name, parent span, start, end) per call; count-only
targets just count calls. Because the package calls these functions through
module globals (`solver.jacobian_fd`, `varint.kkt_residuals_exact`, ...),
patching the attribute reaches every caller. Spans live in flat arrays
until `summary` turns them into per-name self times and call counts, and
`save` writes them out.
"""

import functools
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []  # span names, indexed by name id
        self.count_names = []
        self.missing = []  # targets the package no longer has
        self._counts = []
        self._ids = array("i")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._stack = []
        self._saved = []

    def install(self, spans, counts=()):
        """spans, counts: iterables of (name, module, attribute)."""
        for name, module, attr in spans:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._span_wrapper(fn, len(self.names)))
            self.names.append(name)
        for name, module, attr in counts:
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._count_wrapper(fn, len(self.count_names)))
            self.count_names.append(name)
            self._counts.append(0)

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _span_wrapper(self, fn, name_id):
        ids, parents = self._ids, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_wrapper(self, fn, count_id):
        counts = self._counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[count_id] += 1
            return fn(*args, **kwargs)

        return counted

    def _arrays(self):
        return (
            np.array(self._ids, dtype=np.int32),
            np.array(self._parents, dtype=np.int64),
            np.array(self._starts),
            np.array(self._ends),
        )

    def summary(self):
        """Per name: total self time (span time minus the time its child spans
        cover), call count, and the call count under each parent name."""
        ids, parents, starts, ends = self._arrays()
        n_names = len(self.names)
        dur = ends - starts
        nested = parents >= 0
        covered = np.bincount(
            parents[nested], weights=dur[nested], minlength=ids.size
        )
        self_time = np.bincount(ids, weights=dur - covered, minlength=n_names)
        calls = np.bincount(ids, minlength=n_names)
        parent_ids = np.full(ids.size, n_names)  # n_names stands for "no parent"
        parent_ids[nested] = ids[parents[nested]]
        pairs = np.bincount(
            ids * (n_names + 1) + parent_ids, minlength=n_names * (n_names + 1)
        ).reshape(n_names, n_names + 1)
        out = {
            name: {"self_s": float(self_time[i]), "calls": int(calls[i])}
            for i, name in enumerate(self.names)
        }
        for i, name in enumerate(self.names):
            out[name]["parents"] = {
                (self.names[j] if j < n_names else ""): int(pairs[i, j])
                for j in np.flatnonzero(pairs[i])
            }
        for name, count in zip(self.count_names, self._counts):
            out[name] = {"calls": int(count)}
        return out

    def save(self, path):
        """Write the raw spans as an .npz archive."""
        ids, parents, starts, ends = self._arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=ids,
            parent=parents,
            start=starts,
            end=ends,
            count_names=np.array(self.count_names, dtype=str),
            counts=np.array(self._counts, dtype=np.int64),
        )
