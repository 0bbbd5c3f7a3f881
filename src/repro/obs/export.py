"""Exporters for :class:`~repro.obs.metrics.MetricsRegistry` dumps.

Two formats:

* :func:`export_json` — canonical JSON (sorted keys, no whitespace
  variation), so two same-seed replays produce byte-identical output.
* :func:`export_text` — fixed-width text for terminals and logs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.obs.metrics import MetricsRegistry

__all__ = ["export_json", "export_text"]


def export_json(registry: MetricsRegistry, indent: int = 0) -> str:
    """Serialise ``registry.dump()`` as canonical JSON.

    ``indent=0`` gives the compact byte-stable form used by the
    determinism checks; a positive indent pretty-prints for humans
    (still key-sorted, so equally stable).
    """
    dump = registry.dump()
    if indent > 0:
        return json.dumps(dump, sort_keys=True, indent=indent)
    return json.dumps(dump, sort_keys=True, separators=(",", ":"))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def export_text(registry: MetricsRegistry) -> str:
    """Fixed-width text rendering of every instrument in the registry."""
    dump: Dict[str, Any] = registry.dump()
    lines: List[str] = [f"metrics dump (schema v{dump['version']})"]

    counters: Dict[str, float] = dump["counters"]
    if counters:
        lines.append("")
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {_format_value(counters[name])}")

    gauges: Dict[str, Dict[str, float]] = dump["gauges"]
    if gauges:
        lines.append("")
        lines.append("gauges:")
        width = max(len(name) for name in gauges)
        for name in sorted(gauges):
            entry = gauges[name]
            lines.append(
                f"  {name:<{width}}  {_format_value(entry['value'])}"
                f"  (at t={_format_value(entry['updated_at'])})"
            )

    histograms: Dict[str, Dict[str, Any]] = dump["histograms"]
    if histograms:
        lines.append("")
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        for name in sorted(histograms):
            entry = histograms[name]
            line = (
                f"  {name:<{width}}  n={entry['count']}"
                f" mean={_format_value(entry['mean'])}"
                f" p50={_format_value(entry['p50'])}"
                f" p95={_format_value(entry['p95'])}"
                f" p99={_format_value(entry['p99'])}"
                f" max={_format_value(entry['max'])}"
                f" sum={_format_value(entry['sum'])}"
            )
            if entry.get("overflow"):
                line += f" overflow={entry['overflow']}"
            lines.append(line)

    if len(lines) == 1:
        lines.append("  (no instruments registered)")
    return "\n".join(lines)
