"""The declarative Experiment API (StorRep-style uniform experiments).

Every paper-reproduction experiment registers one :class:`Experiment`
declaring its name, the paper artifact it reproduces (``paper_ref``),
its tunable ``params`` with their defaults and, optionally, its
``smoke`` sizes.  :meth:`Experiment.run` is the only way an experiment
runs: it merges overrides into the declared params, calls the module's
builder with them, and stamps ``name``, ``paper_ref`` and the merged
params into the typed :class:`ExperimentResult` — headline metrics,
the paper's expected values, relative errors, anchors, an optional
obs-registry snapshot and the raw result dict — which serialises to a
versioned JSON document (``repro run <name> --json``) or renders as
the text report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

__all__ = [
    "Experiment",
    "ExperimentRegistry",
    "ExperimentResult",
    "RESULT_SCHEMA_VERSION",
]

#: Bumped whenever the ExperimentResult JSON layout changes shape,
#: including its ``obs`` block (2: published counters, no spans;
#: 3: every count is published, so it is present from publication).
RESULT_SCHEMA_VERSION = 3


def _jsonify(value: Any) -> Any:
    """Best-effort conversion of experiment data to JSON-safe values."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return _jsonify(asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(_jsonify(v) for v in value)
    return str(value)


@dataclass
class ExperimentResult:
    """Uniform, versioned result document for one experiment run.

    Builders leave ``name``, ``paper_ref`` and ``params`` empty;
    :meth:`Experiment.run` stamps them.
    """

    name: str = ""
    paper_ref: str = ""
    params: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    paper_expected: Dict[str, Any] = field(default_factory=dict)
    relative_errors: Dict[str, float] = field(default_factory=dict)
    anchors: Dict[str, bool] = field(default_factory=dict)
    obs: Optional[Dict[str, Any]] = None
    raw: Dict[str, Any] = field(default_factory=dict)
    text: str = ""
    version: int = RESULT_SCHEMA_VERSION

    @property
    def anchors_ok(self) -> bool:
        return all(self.anchors.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "name": self.name,
            "paper_ref": self.paper_ref,
            "params": _jsonify(self.params),
            "metrics": _jsonify(self.metrics),
            "paper_expected": _jsonify(self.paper_expected),
            "relative_errors": _jsonify(self.relative_errors),
            "anchors": _jsonify(self.anchors),
            "obs": _jsonify(self.obs),
            "raw": _jsonify(self.raw),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def render(self) -> str:
        """The human report (the module's classic text output)."""
        if self.text:
            return self.text
        return self.to_json()


#: A builder takes the experiment's merged params as keyword arguments
#: and produces a result.
ResultBuilder = Callable[..., ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """One declared experiment: metadata plus its result builder."""

    name: str
    paper_ref: str
    description: str
    builder: ResultBuilder
    params: Dict[str, Any] = field(default_factory=dict)
    #: Overrides for the smoke run (``repro bench <name> --smoke`` and
    #: the CI gate): a size small enough for CI at which every anchor
    #: still holds.  Empty when the experiment has no smoke run.
    smoke: Dict[str, Any] = field(default_factory=dict)

    def seed_override(self, seed: Optional[int]) -> Dict[str, int]:
        """``{"seed": seed}`` when a seed is given and declared, else ``{}``."""
        if seed is not None and "seed" in self.params:
            return {"seed": seed}
        return {}

    def merged_params(self, overrides: Mapping[str, Any]) -> Dict[str, Any]:
        """The declared params with ``overrides`` applied.

        Unknown override keys are rejected so a CLI typo fails loudly
        instead of silently running the default configuration.
        """
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise TypeError(
                f"experiment {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; declared: {sorted(self.params)}"
            )
        return {**self.params, **overrides}

    def run(self, **overrides: Any) -> ExperimentResult:
        """Build the result with declared params merged with overrides."""
        params = self.merged_params(overrides)
        return replace(
            self.builder(**params),
            name=self.name,
            paper_ref=self.paper_ref,
            params=params,
        )


class ExperimentRegistry:
    """Name -> :class:`Experiment`, in registration order."""

    def __init__(self) -> None:
        self._experiments: Dict[str, Experiment] = {}

    def register(self, experiment: Experiment) -> Experiment:
        if experiment.name in self._experiments:
            raise ValueError(f"experiment {experiment.name!r} already registered")
        self._experiments[experiment.name] = experiment
        return experiment

    def get(self, name: str) -> Experiment:
        try:
            return self._experiments[name]
        except KeyError:
            raise KeyError(
                f"unknown experiment {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        return list(self._experiments)

    def __contains__(self, name: object) -> bool:
        return name in self._experiments

    def __iter__(self) -> Iterator[Experiment]:
        return iter(self._experiments.values())

    def __len__(self) -> int:
        return len(self._experiments)
