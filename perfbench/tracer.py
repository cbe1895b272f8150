"""Run the higherfano CLI in this process with every layer boundary traced.

Usage: python3 perfbench/tracer.py OUT_DIR CLI_ARG...

The package is instrumented from outside: every public function of each
module in ``higherfano`` and every method of its classes (dunders included,
plus ``_mul_labels``, the cache-miss path of ``mul_basis``) is replaced by a
wrapper that records a span (name, start, end, parent).  Names bound by
``from .x import y`` in other modules are rebound too, and aliases such as
``__rmul__ = __mul__`` record under the defining name.  Generator functions
only count their calls, since their work happens while the caller iterates.

Spans stay in memory until ``cli.main`` returns; then they are written to
OUT_DIR (see ``layers.load_trace``) and the process exits with the CLI's
exit code.  Standard output is the CLI's own, byte for byte.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time
import types
from pathlib import Path

MODULES = ("numeric", "rings", "schubert", "bundles", "minimalfamily", "catalog", "families", "cli")
# private methods traced anyway: the work behind a mul_basis cache miss
PRIVATE_TRACED = ("_mul_labels",)
SPAN_FIELDS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = {field: array.array(code) for field, code in SPAN_FIELDS}
        self.counts: dict[str, int] = {}
        self.grass_basis_sizes: list[list[int]] = []
        self._stack = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str):
        nid = self._id(name)
        stack = self._stack
        add_name = self.spans["name"].append
        add_parent = self.spans["parent"].append
        add_start = self.spans["start"].append
        ends = self.spans["end"]
        add_end = ends.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ends)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def counter(self, fn, name: str):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self.counter(fn, name)
        return self.span(fn, name)

    def install(self) -> None:
        """Instrument every module of the package; call before cli.main runs."""
        modules = {m: importlib.import_module(f"higherfano.{m}") for m in MODULES}
        functions: dict[types.FunctionType, object] = {}
        class_plans = []
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not attr.startswith("_"):
                    functions[obj] = self.wrap(obj, f"{short}.{attr}")
                elif isinstance(obj, type) and not issubclass(obj, BaseException):
                    class_plans.append((short, obj, _class_methods(obj)))
        # plan every class before patching any, so a subclass wraps the
        # original inherited function, not its base class's wrapper
        for short, cls, methods in class_plans:
            wrapped: dict[types.FunctionType, object] = {}
            for attr, fn in methods.items():
                if fn not in wrapped:
                    wrapped[fn] = self.wrap(fn, f"{short}.{cls.__name__}.{fn.__name__}")
                setattr(cls, attr, wrapped[fn])
        for mod in [importlib.import_module("higherfano"), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in functions:
                    setattr(mod, attr, functions[obj])
        self._record_grassmannian_bases(modules["schubert"].GrassmannianRing)

    def _record_grassmannian_bases(self, cls) -> None:
        traced_init = cls.__init__
        sizes = self.grass_basis_sizes

        @functools.wraps(traced_init)
        def init(ring, *args, **kwargs):
            traced_init(ring, *args, **kwargs)
            sizes.append([len(labels) for labels in ring._basis])

        cls.__init__ = init

    def write(self, out_dir: Path, wall_s: float, exit_code: int) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        for field, values in self.spans.items():
            with open(out_dir / f"spans.{field}", "wb") as fh:
                values.tofile(fh)
        meta = {
            "names": self.names,
            "counts": self.counts,
            "grass_basis_sizes": self.grass_basis_sizes,
            "wall_s": wall_s,
            "exit_code": exit_code,
        }
        (out_dir / "meta.json").write_text(json.dumps(meta), encoding="utf-8")


def _class_methods(cls: type) -> dict[str, types.FunctionType]:
    """Traced methods of a class, inherited ones from package base classes included."""
    methods: dict[str, types.FunctionType] = {}
    for klass in reversed(cls.__mro__):
        if not klass.__module__.startswith("higherfano."):
            continue
        for attr, obj in vars(klass).items():
            public = not attr.startswith("_") or (attr.startswith("__") and attr.endswith("__"))
            if isinstance(obj, types.FunctionType) and (public or attr in PRIVATE_TRACED):
                methods[attr] = obj
    return methods


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py OUT_DIR CLI_ARG...", file=sys.stderr)
        return 2
    out_dir, cli_args = Path(argv[0]), argv[1:]
    tracer = Tracer()
    tracer.install()
    from higherfano import cli

    t0 = time.perf_counter()
    exit_code = cli.main(cli_args)
    wall_s = time.perf_counter() - t0
    sys.stdout.flush()
    tracer.write(out_dir, wall_s, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
