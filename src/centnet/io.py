"""Edge-list ingestion, dataset statistics, and result emission."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

from .errors import GraphInputError
from .graph import Graph, build_graph
from .resilience import AttackPlan


@dataclass
class DatasetStats:
    nodes: int
    edges: int
    avg_degree: float          # m/n directed, 2m/n undirected
    max_degree: int
    directed: bool
    max_in: int | None = None
    max_out: int | None = None

    def lines(self) -> list[str]:
        out = [f"nodes: {self.nodes}",
               f"edges: {self.edges}",
               f"directed: {str(self.directed).lower()}",
               f"avg_degree: {self.avg_degree:.6g}"]
        if self.directed:
            out.append(f"max_in_degree: {self.max_in}")
            out.append(f"max_out_degree: {self.max_out}")
        else:
            out.append(f"max_degree: {self.max_degree}")
        return out


def parse_edge_list(path, directed: bool = False,
                    coords_path=None) -> Graph:
    """One edge per line: "u v [w]", whitespace or comma separated.

    Lines starting with '#' or '%' are comments (the public datasets use
    both conventions). The file streams line by line into `build_graph`,
    which holds no line or edge after reading it. Duplicate edges
    collapse, self-loops drop; both are counted on the returned graph.
    """
    def edges(lines):
        for lineno, line in enumerate(lines, start=1):
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("%"):
                continue
            parts = text.replace(",", " ").split()
            if len(parts) not in (2, 3):
                raise GraphInputError(
                    f"{path}:{lineno}: expected 'u v [w]', got {text!r}")
            if len(parts) == 2:
                yield parts
                continue
            try:
                w = float(parts[2])
            except ValueError as exc:
                raise GraphInputError(
                    f"{path}:{lineno}: bad weight {parts[2]!r}") from exc
            if not (w > 0.0) or not math.isfinite(w):
                raise GraphInputError(
                    f"{path}:{lineno}: weight must be positive, got {w}")
            yield parts[0], parts[1], w

    coords = None if coords_path is None else _parse_coords(coords_path)
    with _reading(path) as fh:
        g = build_graph(edges(fh), directed=directed, coordinates=coords)
    # each edge read is kept, dropped as a self-loop or collapsed as a
    # duplicate, so a file of self-loops alone is not empty
    if not g.m + g.self_loops_dropped + g.duplicates_collapsed:
        raise GraphInputError(f"{path}: no edges found")
    return g


@contextmanager
def _reading(path):
    """`path` opened as UTF-8 text; failing to open, read or decode it
    inside the block raises GraphInputError naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise GraphInputError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise GraphInputError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_coords(path) -> dict:
    coords = {}
    with _reading(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#") or text.startswith("%"):
                continue
            parts = text.replace(",", " ").split()
            if len(parts) != 3:
                raise GraphInputError(
                    f"{path}:{lineno}: expected 'node x y', got {text!r}")
            try:
                coords[parts[0]] = (float(parts[1]), float(parts[2]))
            except ValueError as exc:
                raise GraphInputError(
                    f"{path}:{lineno}: bad coordinates {text!r}") from exc
    return coords


def dataset_stats(g: Graph) -> DatasetStats:
    def top(degrees) -> int:
        return int(degrees.max(initial=0))
    arcs = g.out_csr.indices.size
    return DatasetStats(
        nodes=g.n, edges=g.m, avg_degree=arcs / g.n if g.n else 0.0,
        max_degree=top(g.degree_array), directed=g.directed,
        max_in=top(g.in_csr.degrees) if g.directed else None,
        max_out=top(g.out_csr.degrees) if g.directed else None)


# -- result emission -----------------------------------------------------------


CSV_HEADER = "metric,phi,run,giant_frac,infected_frac,elapsed_ms"


def _fmt_phi(phi: float) -> str:
    scaled = phi * 100.0
    if abs(scaled - round(scaled)) < 1e-9:
        return f"{phi:.2f}"
    return f"{phi:.6g}"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _row_cells(row) -> tuple:
    infected = row.infected_fraction
    return (row.metric, _fmt_phi(row.phi), str(row.run),
            _fmt(row.giant_fraction),
            "" if infected is None else _fmt(infected),
            str(int(round(row.elapsed_ms))))


def emit_results(rows, fmt: str = "csv", path=None) -> str:
    """Serialize attack rows; returns the payload, writes it when `path`
    is given. Row order: metric, then phi ascending, then run ascending;
    floats carry 6 significant digits, but `elapsed_ms` is whole
    milliseconds in CSV and milliseconds to 3 decimals in JSON, where a
    sub-millisecond step does not read 0."""
    ordered = sorted(rows, key=lambda r: (r.metric, r.phi, r.run))
    if fmt == "csv":
        lines = [CSV_HEADER]
        lines += [",".join(_row_cells(r)) for r in ordered]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        records = []
        for r in ordered:
            cells = _row_cells(r)
            records.append({
                "metric": cells[0],
                "phi": float(cells[1]),
                "run": int(cells[2]),
                "giant_frac": float(cells[3]),
                "infected_frac": None if cells[4] == "" else float(cells[4]),
                "elapsed_ms": round(float(r.elapsed_ms), 3),
            })
        payload = json.dumps(records, indent=2) + "\n"
    else:
        raise GraphInputError(f"unknown output format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise GraphInputError(f"cannot write {path}: {exc}") from exc
    return payload


# -- experiment configuration ---------------------------------------------------


@dataclass
class ExperimentConfig:
    input_path: str
    directed: bool
    attack: AttackPlan
    output_path: str | None = None
    output_format: str = "csv"


def load_config(path) -> ExperimentConfig:
    """JSON config with snake_case fields mirroring the plan layout."""
    try:
        with _reading(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise GraphInputError(f"bad JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise GraphInputError(f"config {path} must be a JSON object")
    if not isinstance(data.get("attack", {}), dict):
        raise GraphInputError(f"config {path}: attack must be an object")
    try:
        attack_raw = data["attack"]
        plan = AttackPlan(
            kind=attack_raw.get("kind", "non-infectious"),
            sources=data.get("metrics", attack_raw.get("sources", [])),
            phi_grid=attack_raw.get("phi_grid", [0.0]),
            beta=attack_raw.get("beta", 0.05),
            runs=attack_raw.get("runs", 1),
            rng_seed=attack_raw.get("rng_seed", 0),
        )
        return ExperimentConfig(
            input_path=data["input_path"],
            directed=bool(data.get("directed", False)),
            attack=plan,
            output_path=data.get("output_path"),
            output_format=data.get("output_format", "csv"),
        )
    except KeyError as exc:
        raise GraphInputError(f"config {path} missing field {exc}") from exc
