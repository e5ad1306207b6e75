"""Outside-in span tracer for the momenta layers.

The tracer wraps each layer's public functions from outside the package:
every module-level binding of a wrapped function is replaced (``campaign``,
``moments``, ``eigenbounds`` and ``cli`` import ``hermitian_eig``,
``is_psd`` and ``symmetrize`` by name), and for map application the
``apply`` method of each map class is replaced. Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original back.

A span holds a name, start, end, parent span and op id. Spans stay in memory
and are written out by :meth:`Tracer.dump` when the run ends. Besides time,
the wrappers keep exact work counters: eigensolve input sizes and repeated
inputs, PSD-test block rows and matrix-file bytes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time

import numpy as np

#: (module, function) pairs wrapped at every binding. Names are reported as
#: ``<module>.<function>``.
FUNCTIONS = (
    ("linalg", "hermitian_eig"),
    ("linalg", "is_psd"),
    ("linalg", "symmetrize"),
    ("moments", "moment_table"),
    ("moments", "build_block"),
    ("moments", "scalar_checks"),
    ("eigenbounds", "central_moments"),
    ("eigenbounds", "spectral_bounds"),
    ("campaign", "psd_suite"),
    ("campaign", "scalar_suite"),
    ("campaign", "oracle_suite"),
    ("campaign", "bounds_suite"),
    ("campaign", "normal_suite"),
    ("campaign", "single_matrix_records"),
    ("cli", "parse_matrix"),
    ("cli", "make_report"),
    ("cli", "report_to_json"),
)

#: Map classes whose ``apply`` method is wrapped, reported as ``maps.apply``.
MAP_CLASSES = ("Identity", "Compression", "Mixture", "Pinching",
               "VectorState", "NormalizedTrace")

LAYERS = tuple(f"{m}.{f}" for m, f in FUNCTIONS) + ("maps.apply",)

#: Extra per-layer statistics beyond calls, self_s and total_s, with units.
EXTRA_STATS = {
    "linalg.hermitian_eig": (("repeat_frac", "frac"), ("work_n3", "count")),
    "linalg.is_psd": (("rows_mean", "rows"), ("rows_max", "rows")),
    "cli.parse_matrix": (("bytes", "B"), ("bytes_per_s", "B/s")),
}


class _Counters:
    """Per-layer aggregates of one pass."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.total_s = dict.fromkeys(LAYERS, 0.0)
        self.eig_repeats = 0
        self.eig_work_n3 = 0
        self.psd_rows: list[int] = []
        self.parse_bytes = 0


class Tracer:
    """Installs the wrappers and records spans grouped by op id."""

    def __init__(self, package):
        self._package = package
        self._originals: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, float, float, int, int]] = []
        self._stack: list[list] = []  # [span index, start, child seconds]
        self._depth = dict.fromkeys(LAYERS, 0)
        self._op = -1
        self._seen: set[bytes] = set()
        self.counters = _Counters()

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self._package.__name__
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        pkg = self._package
        modules = self._modules()
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(getattr(pkg, mod_name), fn_name)
            wrapped = self._wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._originals.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for cls_name in MAP_CLASSES:
            cls = getattr(pkg.maps, cls_name)
            orig = cls.__dict__["apply"]
            self._originals.append((cls, "apply", orig))
            cls.apply = self._wrap("maps.apply", orig)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    # -- recording ----------------------------------------------------------

    def begin_pass(self) -> None:
        self.spans.clear()
        self.counters = _Counters()

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._seen.clear()

    def _count(self, name: str, args) -> None:
        c = self.counters
        if name == "linalg.hermitian_eig":
            a = np.ascontiguousarray(args[0], dtype=np.complex128)
            key = hashlib.blake2b(a.tobytes(), digest_size=16)
            key.update(repr(a.shape).encode())
            digest = key.digest()
            if digest in self._seen:
                c.eig_repeats += 1
            self._seen.add(digest)
            c.eig_work_n3 += a.shape[0] ** 3
        elif name == "linalg.is_psd":
            c.psd_rows.append(np.shape(args[0])[0])
        elif name == "cli.parse_matrix":
            c.parse_bytes += os.path.getsize(args[0])

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._count(name, args)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer._depth[name] += 1
            frame = [index, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                start = frame[1]
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer._op)
                c = tracer.counters
                c.calls[name] += 1
                c.self_s[name] += duration - frame[2]
                tracer._depth[name] -= 1
                if tracer._depth[name] == 0:
                    c.total_s[name] += duration
                if tracer._stack:
                    tracer._stack[-1][2] += duration

        return traced

    # -- results ------------------------------------------------------------

    def pass_stats(self) -> dict[str, float]:
        """Per-layer statistics of the pass recorded since :meth:`begin_pass`."""
        c = self.counters
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = c.calls[layer]
            out[f"{layer}.self_s"] = c.self_s[layer]
            out[f"{layer}.total_s"] = c.total_s[layer]
        eig_calls = c.calls["linalg.hermitian_eig"]
        out["linalg.hermitian_eig.repeat_frac"] = (
            c.eig_repeats / eig_calls if eig_calls else 0.0)
        out["linalg.hermitian_eig.work_n3"] = c.eig_work_n3
        rows = c.psd_rows
        out["linalg.is_psd.rows_mean"] = sum(rows) / len(rows) if rows else 0.0
        out["linalg.is_psd.rows_max"] = max(rows, default=0)
        out["cli.parse_matrix.bytes"] = c.parse_bytes
        parse_s = c.total_s["cli.parse_matrix"]
        out["cli.parse_matrix.bytes_per_s"] = (
            c.parse_bytes / parse_s if parse_s > 0 else 0.0)
        return out

    def dump(self, path: str) -> None:
        """Write the spans of the last traced pass, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
