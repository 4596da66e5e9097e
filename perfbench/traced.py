"""Run a knotcocycle entry point with timing wrappers on each layer.

Usage:  python3 perfbench/traced.py TRACE_OUT ALPHA_JSON {cli|fixturegen} [ARGS...]

The launcher imports the package, wraps the public functions listed in
TARGETS and then calls the same ``main`` that ``python -m knotcocycle``
(or ``python -m knotcocycle.fixturegen``) calls.  A wrapper replaces the
function on its defining module and on every module that imported it by
name, so calls between layers pass through it.  Nothing under ``src/``
is changed.

Every wrapped call is a span.  A stack gives each span its parent; the
self time of a span is its length minus the time its child spans cover.
Calls are aggregated per name and per (parent, name) edge, so the hot
functions cost no memory per call; spans of the coarse functions (the
targets not marked hot) are also kept one by one as
``[name, parent_span, start, end]``.  A generator is timed while it is
iterated, not when it is created, and a consumer's time excludes the
iterations of the generators it drives.  The trace is written as JSON
to TRACE_OUT when the entry point returns.

ALPHA_JSON is the alpha31 formula file; its keys give
``germs.alpha_hit_ratio``, the share of ``ti`` output keys that alpha31
actually reads.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
from pathlib import Path

# (module, attribute, kind).  kind: "fn" coarse function, "hot" function
# aggregated only, "gen" generator function.  "germs.Germ.canonical" is a
# method, wrapped on the class.
TARGETS = [
    ("strata", "enumerate_cube_meridians", "gen"),
    ("strata", "dedupe_meridians", "fn"),
    ("strata", "collect_rows", "fn"),
    ("strata", "ti_meridian", "fn"),
    ("strata", "variable_basis", "fn"),
    ("strata", "assemble_system", "fn"),
    ("strata", "classify_scenes", "fn"),
    ("strata", "row_of_meridian", "fn"),
    ("germs", "ti", "fn"),
    ("germs", "subgerms", "fn"),
    ("germs", "Germ.canonical", "hot"),
    ("germs", "make_germ", "hot"),
    ("germs", "monotonic_reduce", "fn"),
    ("coboundary", "coboundary", "fn"),
    ("coboundary", "stokes_sides", "fn"),
    ("cocycles", "trivial_cocycle_vectors", "fn"),
    ("cocycles", "system_dimensions", "fn"),
    ("cocycles", "verify_cocycle", "fn"),
    ("cocycles", "evaluate_loop", "fn"),
    ("cocycles", "rot_loop", "fn"),
    ("rational_linalg", "solve_in_span", "fn"),
    ("rational_linalg", "in_row_span", "fn"),
    ("rational_linalg", "kernel_basis", "fn"),
    ("rational_linalg", "rank", "fn"),
    ("rational_linalg", "rref", "fn"),
    ("fixturegen", "gen_strata", "fn"),
    ("fixturegen", "derive_alpha31", "fn"),
    ("fixturegen", "gen_alpha31", "fn"),
    ("moves", "apply_move", "hot"),
    ("moves", "enumerate_moves", "hot"),
    ("moves", "validate_r3", "hot"),
    ("diagrams", "pair", "hot"),
    ("quadruple", "quadruple_meridians", "fn"),
    ("morse", "rot_moves", "fn"),
    ("fixtures_io", "load_json", "fn"),
    ("fixtures_io", "formula_from_json", "fn"),
]

MODULES = ("diagrams", "moves", "germs", "coboundary", "strata",
           "rational_linalg", "morse", "quadruple", "fixtures_io",
           "cocycles", "fixturegen", "cli")


class Tracer:
    """Span stack with per-name, per-edge and per-span records."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stack = []       # frames: [name, start, child_s, gen_child_s, span_index]
        self.active = {}      # name -> open frames, so recursion is counted once
        self.names = {}       # name -> [calls, time_s, self_s]
        self.edges = {}       # (parent, name) -> [spans, time_s]
        self.spans = []       # [name, parent_span, start, end]
        self.counters = {}
        self.generators = set()
        self.paused = False
        self.hook_s = 0.0     # time in the counter hooks, outside every span

    def count(self, name: str, n=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name: str) -> None:
        self.names.setdefault(name, [0, 0.0, 0.0])[0] += 1

    def enter(self, name: str, record: bool) -> None:
        parent_span = self.stack[-1][4] if self.stack else -1
        index = parent_span
        if record:
            index = len(self.spans)
            self.spans.append([name, parent_span, 0.0, 0.0])
        self.active[name] = self.active.get(name, 0) + 1
        self.stack.append([name, self.clock(), 0.0, 0.0, index])

    def leave(self, record: bool) -> None:
        end = self.clock()
        name, start, child_s, gen_child_s, index = self.stack.pop()
        dur = end - start
        self.active[name] -= 1
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][2] += dur
            if name in self.generators:
                self.stack[-1][3] += dur
        stat = self.names.setdefault(name, [0, 0.0, 0.0])
        if not self.active[name]:
            stat[1] += dur - gen_child_s
        stat[2] += dur - child_s
        edge = self.edges.setdefault((parent, name), [0, 0.0])
        edge[0] += 1
        edge[1] += dur
        if record:
            self.spans[index][2] = start
            self.spans[index][3] = end

    def dump(self) -> dict:
        return {
            "names": {n: {"calls": c, "time_s": t, "self_s": s}
                      for n, (c, t, s) in sorted(self.names.items())},
            "edges": [{"parent": p, "name": n, "spans": c, "time_s": t}
                      for (p, n), (c, t) in sorted(self.edges.items(),
                                                   key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counters": dict(sorted(self.counters.items())),
            "hook_s": self.hook_s,
            "spans": self.spans,
        }


def _wrap_fn(tracer: Tracer, name: str, fn, record: bool, after=None):
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        tracer.call(name)
        tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(record)
        if after is not None:
            tracer.paused = True
            start = tracer.clock()
            try:
                after(result, *args, **kwargs)
            finally:
                tracer.hook_s += tracer.clock() - start
                tracer.paused = False
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_gen(tracer: Tracer, name: str, fn, on_item=None):
    tracer.generators.add(name)

    def wrapper(*args, **kwargs):
        tracer.call(name)
        it = fn(*args, **kwargs)
        while True:
            tracer.enter(name, True)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.leave(True)
            if on_item is not None:
                on_item(item)
            yield item

    wrapper.__wrapped__ = fn
    return wrapper


def _hooks(tracer: Tracer, alpha) -> dict:
    """Counters measured at the layer boundaries, keyed by target name."""

    def ti_keys(result, *_args, **_kwargs):
        tracer.count("germs.ti_keys", len(result))
        tracer.count("germs.ti_alpha_keys", sum(1 for k in result.keys() if alpha[k]))

    def subgerm_terms(_result, germ, *_args, **_kwargs):
        rest = len(germ.arrow_ids()) - len(germ.distinguished_ids())
        removable = 1 + len(germ.distinguished_ids()) if germ.kind == "R3" else 1
        terms = (2 ** rest) * removable
        tracer.count("germs.subgerm_terms", terms)
        if germ.kind == "R3":
            tracer.count("germs.subgerm_terms_r3", terms)
            tracer.count("germs.subgerms_r3_germs")

    def r3_germs(_result, _alpha, loop, *_args, **_kwargs):
        tracer.count("cocycles.r3_germs", sum(1 for m in loop.moves if m.kind == "R3"))

    def rref_nnz(result, m, *_args, **_kwargs):
        tracer.count("rational_linalg.rref_nnz_before", sum(len(r) for r in m.rows))
        tracer.count("rational_linalg.rref_nnz_after", sum(len(r) for r in result[0].rows))

    def pair_perms(_result, a, g, *_args, **_kwargs):
        if a.degree <= g.degree:
            tracer.count("diagrams.pair_permutations", math.perm(g.degree, a.degree))

    def kept(result, *_args, **_kwargs):
        tracer.count("strata.meridians_kept", len(result))

    def rows(result, *_args, **_kwargs):
        tracer.count("strata.rows", len(result))

    return {
        "germs.ti": ti_keys,
        "germs.subgerms": subgerm_terms,
        "cocycles.evaluate_loop": r3_germs,
        "rational_linalg.rref": rref_nnz,
        "diagrams.pair": pair_perms,
        "strata.dedupe_meridians": kept,
        "strata.collect_rows": rows,
    }


def install(tracer: Tracer, alpha) -> None:
    pkg = "knotcocycle"
    mods = {m: importlib.import_module(f"{pkg}.{m}") for m in MODULES}
    loaded = [mod for n, mod in sys.modules.items()
              if mod is not None and (n == pkg or n.startswith(pkg + "."))]
    hooks = _hooks(tracer, alpha)
    for module, attr, kind in TARGETS:
        name = f"{module}.{attr.split('.')[-1]}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mods[module], cls_name)
            setattr(cls, meth, _wrap_fn(tracer, name, getattr(cls, meth), kind != "hot"))
            continue
        orig = getattr(mods[module], attr)
        if kind == "gen":
            wrapped = _wrap_gen(tracer, name, orig,
                                lambda _m: tracer.count("strata.meridians_raw"))
        else:
            wrapped = _wrap_fn(tracer, name, orig, kind != "hot", hooks.get(name))
        for mod in loaded:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] not in ("cli", "fixturegen"):
        print("usage: traced.py TRACE_OUT ALPHA_JSON {cli|fixturegen} [ARGS...]",
              file=sys.stderr)
        return 2
    out, alpha_path, entry, args = Path(argv[0]), Path(argv[1]), argv[2], argv[3:]
    start = time.perf_counter()
    from knotcocycle import fixtures_io
    alpha = fixtures_io.formula_from_json(fixtures_io.load_json(alpha_path))
    tracer = Tracer()
    install(tracer, alpha)
    entry_main = importlib.import_module(f"knotcocycle.{entry}").main
    try:
        return entry_main(args)
    finally:
        sys.stdout.flush()
        trace = tracer.dump()
        trace["process_s"] = time.perf_counter() - start
        out.write_text(json.dumps(trace))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
