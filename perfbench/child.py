"""One timed call of the tiltlab CLI, run in a fresh interpreter by run.py.

    python child.py TIMINGS_JSON [--trace SPANS_JSON] -- CLI_ARGS...

Times ``import tiltlab.cli`` (set-up) and ``tiltlab.cli.main(CLI_ARGS)``
(run) with a monotonic clock, writes both to TIMINGS_JSON and exits with
the CLI's exit code.  With ``--trace`` it first wraps every public
function of the library modules, under every module name that refers to
it, keeps one span per call in memory and writes them all to SPANS_JSON
once the CLI returns.  Only modules that the interpreter loads at start-up
are imported before the set-up clock starts, so the import time is what a
CLI user pays.
"""

import functools
import math
import sys
import time

# Modules whose public functions are layers of the run; experiments and
# cli are the callers and stay unwrapped.
LAYER_MODULES = ("tilting", "simplex", "exact", "montecarlo", "scale_mixtures", "reports")


def _words(law) -> int:
    """Number of words a law ranges over: k^m for a block law, k otherwise."""
    return law.alphabet.size ** getattr(law, "m", 1)


def _count_conditional_weights(args, kwargs, result) -> dict:
    p = args[0] if args else kwargs["p"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    k = p.alphabet.size
    return {"types_enumerated": math.comb(n + k - 1, k - 1), "types_feasible": len(result.types)}


def _count_tv_distance(args, kwargs, result) -> dict:
    return {"block_words": sum(_words(law) for law in args[:2])}


# Counters read from a wrapped call's arguments and result, keyed by span name.
COUNTERS = {
    "exact.conditional_weights": _count_conditional_weights,
    "simplex.tv_distance": _count_tv_distance,
}


class Tracer:
    """Spans as [name, parent index, start, end]; counters summed by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.errors: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(name)

        # For a generator function (enumerate_types) the span covers only the
        # creation of the generator; iterating it is charged to the caller.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        return traced

    def _count(self, name, counter, args, kwargs, result) -> None:
        try:
            for key, value in counter(args, kwargs, result).items():
                self.counts[key] = self.counts.get(key, 0) + value
        except Exception as exc:  # a counter must never change the run
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def install(self) -> int:
        """Wrap each public function of LAYER_MODULES in every tiltlab module
        namespace that holds it; return the number of functions wrapped.

        A layer module that ``import tiltlab.cli`` did not load is left
        alone rather than imported here, so tracing never changes what the
        run imports; its time then shows as unattributed.
        """
        namespaces = [m for n, m in sys.modules.items() if n == "tiltlab" or n.startswith("tiltlab.")]
        wrapped = {}
        for short in LAYER_MODULES:
            module = sys.modules.get(f"tiltlab.{short}")
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == module.__name__:
                    wrapped[id(fn)] = (fn, self.wrap(f"{short}.{attr}", fn))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                if id(value) in wrapped:
                    setattr(namespace, attr, wrapped[id(value)][1])
        return len(wrapped)


def main() -> int:
    t0 = time.perf_counter()
    import tiltlab.cli

    t1 = time.perf_counter()
    import json

    argv = sys.argv[1:]
    split = argv.index("--")
    head, cli_args = argv[:split], argv[split + 1 :]
    timings_path = head[0]
    spans_path = head[head.index("--trace") + 1] if "--trace" in head else None

    tracer = Tracer() if spans_path else None
    wrapped = tracer.install() if tracer else 0
    t2 = time.perf_counter()
    rc = tiltlab.cli.main(cli_args)
    t3 = time.perf_counter()

    with open(timings_path, "w") as fh:
        json.dump({"setup_s": t1 - t0, "run_s": t3 - t2, "rc": rc, "tiltlab": tiltlab.__file__}, fh)
    if tracer:
        with open(spans_path, "w") as fh:
            json.dump(
                {"wrapped": wrapped, "spans": tracer.spans, "counts": tracer.counts, "errors": tracer.errors},
                fh,
            )
    return rc


if __name__ == "__main__":
    sys.exit(main())
