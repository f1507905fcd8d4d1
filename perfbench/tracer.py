"""In-memory span tracer that wraps venue2vec's public functions from outside.

Nothing under src/ changes. install() replaces every module attribute that
holds one of the layer modules' public functions with a wrapper, so a call
is traced whichever module its caller looks the function up in (train, for
example, is bound in embedding, harness, cli and the package itself).
uninstall() puts the originals back.

Each wrapper records one span: name, start, end and the index of the
enclosing span. The process is single-threaded (workers=1), so child spans
nest strictly inside their parent and a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
import types
from collections import defaultdict

LAYERS = ("corpus", "embedding", "recommend", "baselines", "metrics", "modelio", "harness", "cli")
PACKAGE = "venue2vec"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.epoch_seconds: list[float] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _wrap(self, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _wrap_main(self, fn):
        """cli.main gets one span per subcommand: cli.<argv[0]>."""
        inner = {}

        @functools.wraps(fn)
        def traced(argv=None):
            command = argv[0] if argv else "main"
            if command not in inner:
                inner[command] = self._wrap(f"cli.{command}", fn)
            return inner[command](argv)

        return traced

    def _count_only(self, fn, key: str, size_arg: int):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += args[size_arg] if len(args) > size_arg else kwargs["size"]
            return fn(*args, **kwargs)

        return counted

    # ------------------------------------------------------------ count hooks

    def _after_read(self, args, kwargs, result):
        records, skipped = result
        self.counts["corpus.lines"] += len(records) + skipped
        self.counts["corpus.malformed_lines"] += skipped

    def _after_train(self, args, kwargs, result):
        model, corpus = args[0], args[1]
        self.counts["embedding.tokens"] += corpus.total_tokens * model.config.epoch_count
        self.epoch_seconds.extend(row.seconds for row in result[1])

    def _after_save(self, args, kwargs, result):
        self.counts["modelio.model_bytes"] += os.path.getsize(args[1])

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        hooks = {
            "corpus.read_checkins": self._after_read,
            "embedding.train": self._after_train,
            "modelio.save_embedding_model": self._after_save,
        }
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    isinstance(value, types.FunctionType)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    name = f"{layer}.{attr}"
                    if name == "cli.main":
                        wrappers[id(value)] = self._wrap_main(value)
                    else:
                        wrappers[id(value)] = self._wrap(name, value, hooks.get(name))
        package = importlib.import_module(PACKAGE)
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

        table = modules["embedding"].NegativeSamplingTable
        for attr, key, size_arg in (
            ("sample", "embedding.negatives.made", 2),
            ("sample_excluding", "embedding.negatives.requested", 3),
        ):
            original = table.__dict__[attr]
            self._patched.append((table, attr, original))
            setattr(table, attr, self._count_only(original, key, size_arg))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------ analysis

    def durations(self) -> defaultdict[str, list[float]]:
        """Per-name list of span durations in seconds, in call order."""
        by_name: defaultdict[str, list[float]] = defaultdict(list)
        for name, start, end, _ in self.spans:
            by_name[name].append(end - start)
        return by_name

    def self_seconds(self) -> defaultdict[str, float]:
        """Per-name total of duration minus the time direct children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: defaultdict[str, float] = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
