"""Per-layer spans recorded from outside the program.

`install` wraps the layer functions of `gaussdeg` and rebinds every name
other `gaussdeg` modules imported them under (and function defaults that
captured them), so calls between layers are timed as well as calls from
the command line.  Spans live in flat arrays, one entry per call: layer,
start, end, parent span and command id.  `layer_metrics` turns them into
the `<module>.<function>.<metric>` numbers; self time is a span's duration
minus the time its direct child spans cover.
"""

import importlib
import inspect
import json
import re
import time
from array import array
from pathlib import Path

# Layer name -> functions recorded under it.  The suite runners share one
# layer so its numbers stay comparable when the CLI moves onto run_suite.
LAYERS = {
    "partitions.syt_count_hook": ("partitions", "syt_count_hook"),
    "partitions.enumerate_partitions": ("partitions", "enumerate_partitions"),
    "partitions.add_rectangle": ("partitions", "add_rectangle"),
    "partitions.canonical": ("partitions", "canonical"),
    "partitions.syt_count_bruteforce": ("partitions", "syt_count_bruteforce"),
    "grassmann.grassmann_degree": ("grassmann", "grassmann_degree"),
    "schur.veronese_integral_table": ("schur", "veronese_integral_table"),
    "schur.schur_delta_determinant": ("schur", "schur_delta_determinant"),
    "schur.SegreIntegralTable.from_json": ("schur", "SegreIntegralTable.from_json"),
    "degrees.degree_main": ("degrees", "degree_main"),
    "degrees.bounds": ("degrees", "bounds"),
    "degrees.degree_alternate": ("degrees", "degree_alternate"),
    "degrees.degree_generic": ("degrees", "degree_generic"),
    "degrees.degree_curve_closed": ("degrees", "degree_curve_closed"),
    "degrees.degree_surface_closed": ("degrees", "degree_surface_closed"),
    "degrees.degree_threefold_closed": ("degrees", "degree_threefold_closed"),
    "degrees.conjecture_scan": ("degrees", "conjecture_scan"),
    "verify.run_suite": (
        "verify",
        "run_suite",
        "run_identity_suite",
        "run_syt_suite",
        "run_schur_suite",
        "run_crossform_suite",
        "run_bounds_suite",
    ),
    "cli.main": ("cli", "main"),
}

# Metrics beyond calls and self_s, with their units.
EXTRA_METRICS = {
    "partitions.syt_count_hook": (
        ("pair_mults", "count"),
        ("out_bits_max", "bits"),
        ("distinct_ratio", "ratio"),
    ),
    "schur.SegreIntegralTable.from_json": (("bytes", "bytes"),),
    "degrees.degree_main": (("distinct_ratio", "ratio"),),
    "verify.run_suite": (("checks", "count"),),
    "cli.main": (("out_bytes", "bytes"), ("out_digits_max", "digits"), ("exit_nonzero", "count")),
}
RUN_METRICS = (("trace.overhead_s", "s"), ("trace.spans", "count"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        for metric, unit in EXTRA_METRICS.get(layer, ()):
            units[f"{layer}.{metric}"] = unit
    units.update(RUN_METRICS)
    return units


class Tracer:
    """Spans of one run, kept in memory until `write`."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.command = array("l")
        self.current = -1
        self.command_id = -1
        self.pair_mults = 0
        self.out_bits_max = 0
        self.shapes = set()
        self.degree_keys = set()
        self.json_bytes = 0
        self.checks = 0
        self.out_bytes = 0
        self.out_digits_max = 0
        self.exit_nonzero = 0

    def wrap(self, layer: str, fn, observe=None):
        layer_id = self.layers.index(layer)
        clock = time.process_time

        def traced(*args, **kwargs):
            parent = self.current
            index = len(self.start)
            self.layer.append(layer_id)
            self.parent.append(parent)
            self.command.append(self.command_id)
            self.end.append(0.0)
            self.current = index
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.current = parent
            if observe is not None:
                observe(self, index, args, result)
            return result

        return traced

    def note_command(self, stdout: str, exit_code) -> None:
        """Record what one `cli.main` call printed and how it ended."""
        self.out_bytes += len(stdout.encode("utf-8"))
        runs = re.findall(r"\d+", stdout)
        self.out_digits_max = max([self.out_digits_max, *map(len, runs)])
        if exit_code != 0:
            self.exit_nonzero += 1

    def layer_metrics(self) -> dict[str, float]:
        count = len(self.start)
        durations = [self.end[i] - self.start[i] for i in range(count)]
        covered = [0.0] * count
        for i in range(count):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += durations[i]
        calls = [0] * len(self.layers)
        self_s = [0.0] * len(self.layers)
        for i in range(count):
            layer = self.layer[i]
            self_s[layer] += durations[i] - covered[i]
            parent = self.parent[i]
            if parent < 0 or self.layer[parent] != layer:
                calls[layer] += 1
        metrics = {}
        for layer_id, layer in enumerate(self.layers):
            metrics[f"{layer}.calls"] = calls[layer_id]
            metrics[f"{layer}.self_s"] = self_s[layer_id]
        hook_calls = metrics["partitions.syt_count_hook.calls"]
        main_calls = metrics["degrees.degree_main.calls"]
        metrics.update(
            {
                "partitions.syt_count_hook.pair_mults": self.pair_mults,
                "partitions.syt_count_hook.out_bits_max": self.out_bits_max,
                "partitions.syt_count_hook.distinct_ratio": _ratio(len(self.shapes), hook_calls),
                "schur.SegreIntegralTable.from_json.bytes": self.json_bytes,
                "degrees.degree_main.distinct_ratio": _ratio(len(self.degree_keys), main_calls),
                "verify.run_suite.checks": self.checks,
                "cli.main.out_bytes": self.out_bytes,
                "cli.main.out_digits_max": self.out_digits_max,
                "cli.main.exit_nonzero": self.exit_nonzero,
                "trace.spans": count,
            }
        )
        return metrics

    def write(self, path: Path) -> None:
        """Dump the spans as raw arrays plus a JSON header beside them."""
        with open(path, "wb") as sink:
            for column in (self.layer, self.start, self.end, self.parent, self.command):
                column.tofile(sink)
        header = {
            "layers": self.layers,
            "count": len(self.start),
            "columns": [
                ["layer", self.layer.typecode],
                ["start", self.start.typecode],
                ["end", self.end.typecode],
                ["parent", self.parent.typecode],
                ["command", self.command.typecode],
            ],
        }
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _observe_hook(tracer: Tracer, index: int, args, result) -> None:
    shape = tuple(part for part in args[0] if part)
    e = len(shape)
    tracer.pair_mults += e * (e - 1) // 2
    tracer.out_bits_max = max(tracer.out_bits_max, result.bit_length())
    tracer.shapes.add(shape)


def _observe_main(tracer: Tracer, index: int, args, result) -> None:
    variety, m = args
    tracer.degree_keys.add((variety.n, variety.d, m))


def _observe_json(tracer: Tracer, index: int, args, result) -> None:
    tracer.json_bytes += len(args[-1].encode("utf-8"))


def _observe_suite(tracer: Tracer, index: int, args, result) -> None:
    parent = tracer.parent[index]
    if parent < 0 or tracer.layer[parent] != tracer.layer[index]:
        tracer.checks += result.passed + result.failed


OBSERVERS = {
    "partitions.syt_count_hook": _observe_hook,
    "degrees.degree_main": _observe_main,
    "schur.SegreIntegralTable.from_json": _observe_json,
    "verify.run_suite": _observe_suite,
}


def install(tracer: Tracer):
    """Wrap every layer function of `gaussdeg`; returns a callable that restores them."""
    homes = sorted({f"gaussdeg.{module_name}" for module_name, *_ in LAYERS.values()})
    modules = [importlib.import_module(name) for name in ["gaussdeg", *homes]]
    replaced = {}
    undo = []
    for layer, (module_name, *functions) in LAYERS.items():
        home = importlib.import_module(f"gaussdeg.{module_name}")
        for qualified in functions:
            if "." in qualified:
                class_name, method = qualified.split(".")
                owner = getattr(home, class_name)
                original = owner.__dict__[method]
                traced = tracer.wrap(layer, original.__func__, OBSERVERS.get(layer))
                setattr(owner, method, classmethod(traced))
                undo.append((owner, method, original))
            else:
                original = getattr(home, qualified)
                replaced[original] = tracer.wrap(layer, original, OBSERVERS.get(layer))
    for module in modules:
        for value in list(vars(module).values()):
            if inspect.isfunction(value) and value.__defaults__:
                defaults = value.__defaults__
                patched = tuple(replaced.get(item, item) if callable(item) else item
                                for item in defaults)
                if patched != defaults:
                    value.__defaults__ = patched
                    undo.append((value, "__defaults__", defaults))
        for name, value in list(vars(module).items()):
            if callable(value) and value in replaced:
                setattr(module, name, replaced[value])
                undo.append((module, name, value))

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore
