"""Edge-list ingestion, dataset statistics, and result emission.

`parse_edge_list` reads `_CHUNK_CHARS` characters and the rest of the
line at a time, checks all lines of a chunk with one match of a regular
expression, and interns its label tokens into one int32 id stream
(a chunk of short labels holds about 13 bytes per character). From the
first chunk refused, the line loop reads on into the same labels and
ids, so every graph and every error are its own; the file is read once.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from io import StringIO
from itertools import chain, count

import numpy as np

from .errors import GraphInputError
from .graph import Graph, _edge_ids, _labelled_graph, build_graph
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
    both conventions). `_parse_chunks` reads the file; from the first
    chunk it refuses, the line loop below reads on and names the first
    bad line. Duplicate edges collapse, self-loops drop; both are counted
    on the returned graph.
    """
    def edges(lines, start):
        for lineno, line in enumerate(lines, start=start):
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
        g = _parse_chunks(fh, directed, coords, edges)
    # each edge read is kept, dropped as a self-loop or collapsed as a
    # duplicate, so a file of self-loops alone is not empty
    if not g.m + g.self_loops_dropped + g.duplicates_collapsed:
        raise GraphInputError(f"{path}: no edges found")
    return g


_CHUNK_CHARS = 1 << 11

# Lines that the chunk path reads as the line loop would: each one blank,
# a comment (its first character but spaces is '#' or '%') or k tokens of
# printable ASCII split by spaces and commas. The possessive quantifiers
# (*+, ++, ?+) never backtrack.
_SPACE, _SEP, _TOKEN = r"[ \t\x0b\x0c]", r"[ \t\x0b\x0c,]", r"[!-+\--~]"
_CHUNK = {k: re.compile(
    rf"(?: {_SPACE}*+ (?: [#%][ -~\t\x0b\x0c]*+ | {_SEP}*+ {_TOKEN}++"
    rf" (?: {_SEP}++ {_TOKEN}++ ){{{k - 1}}} {_SEP}*+ )?+ \n )*+", re.X)
    for k in (2, 3)}
_COMMENT = re.compile(r"^[ \t\x0b\x0c]*[#%].*", re.M)


def _parse_chunks(fh, directed, coords, line_loop) -> Graph:
    """The Graph of `fh`'s edges, read a chunk at a time while each chunk
    matches `_CHUNK` for the width of the edge lines before it and has
    positive finite weights. `line_loop` reads the first chunk refused
    and the rest, numbered on from its first line."""
    label_to_id = defaultdict(count().__next__)
    weights, refused = array("d"), []

    def labels():
        """The label tokens of each chunk taken, in order."""
        cols, lineno = 0, 1
        while text := fh.read(_CHUNK_CHARS):
            text += fh.readline()
            lines = text if text.endswith("\n") else text + "\n"
            k = cols or (3 if _CHUNK[3].fullmatch(lines) else 2)
            if not _CHUNK[k].fullmatch(lines):
                break
            if "#" in lines or "%" in lines:
                lines = _COMMENT.sub("", lines)
            tokens = lines.replace(",", " ").split()
            cols = k if tokens else cols
            if cols == 3:
                try:
                    w = array("d", map(float, tokens[2::3]))
                except ValueError:      # a bad weight
                    break
                if not all(0.0 < x < math.inf for x in w):
                    break
                weights.extend(w)
                del tokens[2::3]
            yield tokens
            lineno += text.count("\n")
        if text:
            refused.append((text, lineno))

    try:
        ids = np.fromiter(map(label_to_id.__getitem__,
                              chain.from_iterable(labels())), np.int32)
    except UnicodeDecodeError:
        if not fh.seekable():
            raise
        fh.seek(0)      # the loop names a bad line before the bad bytes
        return build_graph(line_loop(fh, 1), directed, coordinates=coords)
    if refused:                         # the line loop reads on from it
        text, lineno = refused[0]
        weights = weights or array("d", [1.0]) * (ids.size // 2)
        rest = line_loop(chain(StringIO(text), fh), lineno)
        tail = np.fromiter(_edge_ids(rest, label_to_id, weights), np.int32)
        ids = np.concatenate((ids, tail))
    w = np.frombuffer(weights) if weights else \
        np.broadcast_to(1.0, ids.size // 2)
    label_to_id.default_factory = None
    return _labelled_graph(label_to_id, ids, w, directed, coordinates=coords)

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
    except ValueError as exc:   # JSONDecodeError; an over-long integer
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
