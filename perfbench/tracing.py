"""In-memory spans around the public functions of each ``comic`` module.

Tracing patches wrappers into the package from outside: each wrapper
replaces the original function under every name a module looks it up by
(``comic.bnn.draw_standard_normal``, ``comic.codelength.adam_step`` and so
on), so calls made from inside the package are recorded too. Spans nest by
call order; the tracer is single-threaded, which is why traced passes run
in-process at parallelism 1.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) of every traced function; "Class.method" patches the class.
TRACED = (
    ("rng", "draw_standard_normal"),
    ("rng", "RngStream.generator"),
    ("bnn", "map_objective"),
    ("bnn", "elbo_objective"),
    ("bnn", "kl_model"),
    ("bnn", "model_forward"),
    ("bnn", "gaussian_nll"),
    ("bnn", "pack_grads"),
    ("bnn", "unpack_params"),
    ("optim", "adam_step"),
    ("codelength", "train_conditional"),
    ("codelength", "conditional_variational_codelength"),
    ("codelength", "score_pair"),
    ("data", "generate_pair"),
    ("data", "write_dataset"),
    ("data", "load_tuebingen"),
    ("data", "standardize"),
    ("evaluation", "run_benchmark"),
)

SPAN_NAMES = tuple(f"{module}.{attr}" for module, attr in TRACED)


class Tracer:
    """Records spans as [id, parent id, name, start, end] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1, name,
                    time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Patch every traced function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "comic" or name.startswith("comic."))]
        undo = []
        try:
            for module_name, attr in TRACED:
                owner = sys.modules[f"comic.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[method]
                    undo.append((cls, method, orig))
                    setattr(cls, method, self.wrap(f"{module_name}.{attr}", orig))
                    continue
                orig = getattr(owner, attr)
                wrapper = self.wrap(f"{module_name}.{attr}", orig)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is orig:
                            undo.append((module, key, orig))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, handle)


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls, busy_s and self_s per span name.

    Self time is a span's duration minus the durations of its direct
    children; children of one span never overlap because tracing is
    single-threaded.
    """
    child_time = {}
    for _, parent, _, start, end in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    for span_id, _, name, start, end in spans:
        entry = out[name]
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["self_s"] += end - start - child_time.get(span_id, 0.0)
    return out
