"""The benchmark's three workloads, their inputs and their output checks.

Each workload is built from the benchmark seed by :func:`build`, runs
one timed pass with :meth:`run_pass`, and reports on that pass with
:meth:`check` (operations attempted and the ones whose output was
wrong) and :meth:`observed` (the deterministic values pinned in
``expected.json`` for the default seed).  Only public entry points of
``repro`` are called: ``SweepSpec`` + ``CampaignRunner`` for the NoC
workloads, ``TaskCodec`` and ``repro.bits`` for the no-NoC one.

Why each workload exists, and what each layer should move on it, is in
``README.md`` next to this file.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.bits as bits
from repro.accelerator.config import AcceleratorConfig
from repro.accelerator.flitize import TaskCodec
from repro.accelerator.orderer import OrderingUnit
from repro.accelerator.tasks import extract_tasks, split_task
from repro.bits.formats import Float32Format
from repro.dnn.quantize import tensor_format
from repro.experiments import (
    CampaignRunner,
    ResultCache,
    ResultStore,
    SweepSpec,
    derive_seed,
)
from repro.ordering.strategies import OrderingMethod
from repro.workloads.figures import (
    figure_darknet_image,
    figure_darknet_model,
    figure_lenet_image,
)
from repro.workloads.streams import trained_lenet_model

__all__ = ["WORKLOADS", "DEFAULT_SEED", "LENET_TRAINING_SEED", "build"]

DEFAULT_SEED = 1
# The figures' trained LeNet; the benchmark seed never retrains it.
LENET_TRAINING_SEED = 3

FIG12_AXES = {
    "mesh": ["4x4:2", "8x8:4", "8x8:8"],
    "data_format": ["float32", "fixed8"],
    "ordering": ["O0", "O1", "O2"],
}
FIG12_TASKS = 32
MESH_SCALE_AXES = {
    "mesh": ["16x16:2", "24x24:2", "32x32:2", "48x48:2", "64x64:2", "80x80:2"],
}
MESH_SCALE_TASKS = 8
NO_NOC_SOURCES = (("lenet", "float32"), ("lenet", "fixed8"), ("darknet", "fixed8"))
NO_NOC_ORDERINGS = ("O0", "O1", "O2")
NO_NOC_TASKS = 192


class CheckLog:
    """Failed operations of one pass, each with what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: dict[str, list[str]] = {}

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.setdefault(label, []).extend(problems)

    def pin(self, expected: dict[str, Any], observed: dict[str, Any]) -> None:
        """Flag every operation whose pinned value changed, or that
        has no pin or no output.

        Operations are already counted by :meth:`op`; a pin mismatch
        only marks them failed.
        """
        for label in sorted(expected.keys() | observed.keys()):
            want, got = expected.get(label), observed.get(label)
            if got != want:
                self.problems.setdefault(label, []).append(
                    f"expected {want}, got {got}"
                )

    @property
    def failed(self) -> int:
        # A missing output can be flagged under two labels.
        return min(len(self.problems), self.attempted)


def _job_label(record: dict[str, Any]) -> str:
    config = record.get("config", {})
    return (
        f"{config.get('width')}x{config.get('height')}:"
        f"{config.get('n_mcs')} {config.get('data_format')} "
        f"{config.get('ordering')}"
    )


class CampaignWorkload:
    """A model sweep run through ``CampaignRunner`` with one worker.

    With ``warm`` set, each pass runs the sweep cold against an empty
    cache and store, then re-runs it warm so every job is a cache hit.
    """

    def __init__(
        self, spec: SweepSpec, warm: bool, workdir: pathlib.Path
    ) -> None:
        self.spec = spec
        self.warm = warm
        self.workdir = workdir
        self.n_jobs = spec.n_points

    def run_pass(self, spans: Any) -> tuple[Any, Any]:
        warm = None
        with spans.span("bench.pass"):
            if not self.warm:
                return CampaignRunner(workers=1).run(self.spec), warm
            with tempfile.TemporaryDirectory(dir=self.workdir) as tmp:
                runner = CampaignRunner(
                    cache=ResultCache(pathlib.Path(tmp, "cache")),
                    store=ResultStore(pathlib.Path(tmp, "store.jsonl")),
                    workers=1,
                )
                with spans.span("bench.cold"):
                    cold = runner.run(self.spec)
                with spans.span("bench.warm"):
                    warm = runner.run(self.spec)
        return cold, warm

    def flits(self, out: tuple[Any, Any]) -> int:
        """Flit-hops simulated in the pass (warm hits simulate none)."""
        return sum(
            r["result"]["flit_hops"]
            for r in out[0].records
            if r.get("status") == "ok"
        )

    def check(self, out: tuple[Any, Any]) -> CheckLog:
        cold, warm = out
        log = CheckLog()
        for index in range(len(cold.records), self.n_jobs):
            log.op(f"job {index}", ["no record"])
        for record in cold.records:
            log.op(_job_label(record), _record_problems(record))
        if warm is not None:
            for index in range(len(warm.records), self.n_jobs):
                log.op(f"warm job {index}", ["no record"])
            for c_rec, w_rec in zip(cold.records, warm.records):
                problems = []
                if not w_rec.get("cached"):
                    problems.append("warm re-run missed the cache")
                if w_rec.get("result") != c_rec.get("result"):
                    problems.append("warm record differs from the cold one")
                log.op("warm " + _job_label(w_rec), problems)
        return log

    def observed(self, out: tuple[Any, Any]) -> dict[str, Any]:
        """Per job: [cycles, flit-hops, BTs]."""
        return {
            _job_label(r): [
                r["result"]["total_cycles"],
                r["result"]["flit_hops"],
                r["result"]["total_bit_transitions"],
            ]
            for r in out[0].records
            if r.get("status") == "ok"
        }


def _record_problems(record: dict[str, Any]) -> list[str]:
    if record.get("status") != "ok":
        return [f"job failed: {record.get('error')}"]
    problems = []
    if record.get("cached"):
        problems.append("cold run was served from the cache")
    result = record["result"]
    if result["tasks_verified"] != result["tasks_total"]:
        problems.append(
            f"{result['tasks_verified']}/{result['tasks_total']} tasks verified"
        )
    if sum(result["per_link"].values()) != result["total_bit_transitions"]:
        problems.append("per-link BTs do not sum to the job total")
    return problems


@dataclass(frozen=True)
class ScoringGroup:
    """One ``encode_batch`` call: same-shaped chunks under one ordering."""

    label: str
    codec: TaskCodec
    inputs: np.ndarray
    weights: np.ndarray
    biases: list[int]
    method: OrderingMethod
    fill: Any
    word_bytes: int


class NoNocWorkload:
    """Task encode, decode and offline BT scoring with no network."""

    def __init__(self, groups: list[ScoringGroup]) -> None:
        self.groups = groups

    def run_pass(self, spans: Any) -> list[tuple[list, int, int]]:
        out = []
        with spans.span("bench.pass"):
            for g in self.groups:
                with spans.span("bench.group", job=g.label):
                    out.append(_score_group(g))
        return out

    def flits(self, out: list) -> int:
        """Flits encoded and scored in the pass."""
        return sum(n for _, _, n in out)

    def check(self, out: list) -> CheckLog:
        log = CheckLog()
        for g, (decoded, _, _) in zip(self.groups, out):
            problems = []
            if len(decoded) != len(g.biases):
                problems.append("decode lost tasks")
            elif not (
                np.array_equal([np.asarray(d[0]) for d in decoded], g.inputs)
                and np.array_equal(
                    [np.asarray(d[1]) for d in decoded], g.weights
                )
                and [int(d[2]) for d in decoded] == list(g.biases)
            ):
                problems.append("decode did not round-trip to the words")
            log.op(g.label, problems)
        return log

    def observed(self, out: list) -> dict[str, Any]:
        """Per scoring group: its BT score."""
        return {g.label: score for g, (_, score, _) in zip(self.groups, out)}


def _score_group(g: ScoringGroup) -> tuple[list, int, int]:
    """Encode, decode and BT-score one group: (decoded, BTs, flits).

    A function of its own so the group's intermediates are freed inside
    its span, not after the pass's root span has closed.
    """
    encoded = g.codec.encode_batch(
        g.inputs, g.weights, g.biases, g.method, g.fill
    )
    decoded = g.codec.decode_batch_words(encoded)
    payloads = [p for e in encoded for p in e.payloads]
    score = bits.stream_transitions_bytes(
        bits.payloads_to_bytes(payloads, g.word_bytes)
    )
    return decoded, score, len(payloads)


def campaign_spec(name: str, seed: int) -> SweepSpec:
    """The sweep of a campaign workload; ``seed`` is the campaign seed."""
    if name == "fig12_campaign":
        base: dict[str, Any] = {"max_tasks_per_layer": FIG12_TASKS}
        axes = FIG12_AXES
    else:
        base = {
            "max_tasks_per_layer": MESH_SCALE_TASKS,
            "data_format": "fixed8",
            "ordering": "O2",
        }
        axes = MESH_SCALE_AXES
    return SweepSpec(
        name=name,
        model="trained_lenet",
        model_seed=LENET_TRAINING_SEED,
        seed=seed,
        base=base,
        axes={k: list(v) for k, v in axes.items()},
    )


def _layer_formats(layer: Any, data_format: str) -> tuple[Any, Any]:
    """(input, weight) wire formats of a layer, as the simulator picks."""
    if data_format == "float32":
        return Float32Format(), Float32Format()
    inputs = np.concatenate([t.inputs for t in layer.tasks])
    weights = np.concatenate(
        [t.weights for t in layer.tasks]
        + [np.array([t.bias for t in layer.tasks])]
    )
    return tensor_format(inputs), tensor_format(weights)


def sample_tasks(model: Any, image: np.ndarray, model_name: str, seed: int):
    """The no-NoC workload's sampled tasks for one model and seed.

    Both LeNet formats sample the same tasks, so the formats are
    compared on the same data.
    """
    return extract_tasks(
        model,
        image,
        max_tasks_per_layer=NO_NOC_TASKS,
        seed=derive_seed(seed, model_name),
    )


def scoring_groups(
    layers: dict[str, list[Any]], sources: tuple = NO_NOC_SOURCES
) -> list[ScoringGroup]:
    """One scoring group per (source, layer, chunk size, ordering).

    Args:
        layers: sampled layer tasks per model name.
        sources: (model name, data format) pairs to encode.
    """
    groups = []
    for model_name, data_format in sources:
        config = AcceleratorConfig(data_format=data_format)
        codec = TaskCodec(
            values_per_flit=config.values_per_flit,
            word_width=config.word_width,
            include_index_payload=config.include_index_payload,
        )
        for layer in layers[model_name]:
            in_fmt, w_fmt = _layer_formats(layer, data_format)
            by_pairs: dict[int, list[tuple]] = {}
            for task in layer.tasks:
                for chunk in split_task(task, config.chunk_pairs):
                    by_pairs.setdefault(chunk.n_pairs, []).append(
                        (
                            in_fmt.encode(chunk.inputs),
                            w_fmt.encode(chunk.weights),
                            int(w_fmt.encode(np.array([chunk.bias]))[0]),
                        )
                    )
            for n_pairs, chunks in sorted(by_pairs.items()):
                for ordering in NO_NOC_ORDERINGS:
                    method = OrderingMethod.from_name(ordering)
                    unit = OrderingUnit(codec, method, config.fill_order)
                    groups.append(
                        ScoringGroup(
                            label=(
                                f"{model_name} {data_format} "
                                f"L{layer.layer_index} p{n_pairs} {ordering}"
                            ),
                            codec=codec,
                            inputs=np.stack([c[0] for c in chunks]),
                            weights=np.stack([c[1] for c in chunks]),
                            biases=[c[2] for c in chunks],
                            method=method,
                            fill=unit.fill,
                            word_bytes=config.link_width // 8,
                        )
                    )
    return groups


WORKLOADS = ("fig12_campaign", "mesh_scale", "no_noc_codec")


def build(name: str, seed: int, workdir: pathlib.Path) -> Any:
    """Construct a workload: the trained model and every input it runs.

    This is the benchmark's set-up: the trained LeNet (cached once per
    process by ``repro``), the models, images and sampled tasks, and
    the campaign spec expanded once so bad grids fail here.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; use one of {WORKLOADS}")
    trained_lenet_model(seed=LENET_TRAINING_SEED)
    if name == "no_noc_codec":
        models = {
            "lenet": (
                trained_lenet_model(seed=LENET_TRAINING_SEED),
                figure_lenet_image(),
            ),
            "darknet": (figure_darknet_model(), figure_darknet_image()),
        }
        layers = {
            model_name: sample_tasks(model, image, model_name, seed)
            for model_name, (model, image) in models.items()
        }
        return NoNocWorkload(scoring_groups(layers))
    spec = campaign_spec(name, seed)
    spec.expand()
    return CampaignWorkload(spec, warm=name == "fig12_campaign", workdir=workdir)
