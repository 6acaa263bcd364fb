"""File formats: delimited event logs and JSON parameter documents.

Floats are written with `repr`, which round-trips IEEE doubles exactly.
The parameter file is compact JSON on one line: an indented document
goes through json's pure-Python encoder, about 2.5 times slower.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .data import EventLog
from .model import LinearMark, MarkModel, ModelParams, SoftMaxMark


class FileFormatError(ValueError):
    """Malformed event-log or parameter file."""


_HEADER = "time,user,product"
_ROW = np.dtype([("time", float), ("user", np.int64), ("product", np.int64)])


def write_event_log(log: EventLog, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(
            f"# n_users={log.n_users} n_products={log.n_products} horizon={log.horizon!r}\n"
        )
        fh.write(f"{_HEADER}\n")
        for t, u, p in zip(log.times, log.users, log.products):
            fh.write(f"{float(t)!r},{u},{p}\n")


def _parse_sidecar(line: str, meta: dict[str, str], where: str) -> None:
    """Add the `key=value` tokens of a `#` line to `meta`; a key may be set once."""
    for token in line[1:].split():
        if "=" in token:
            key, _, val = token.partition("=")
            if key in meta:
                raise FileFormatError(f"{where}: sidecar key '{key}' set a second time")
            meta[key] = val


def read_event_log(path) -> EventLog:
    """Read a log written by `write_event_log`.

    A file laid out as written (the `#` sidecar on line 1, the header
    `time,user,product` on line 2, one row per event after them) is parsed
    in one `np.loadtxt` call.  Any other file, and any file that call or
    `EventLog` rejects, goes through the line-by-line reader, which also
    takes blank and extra `#` lines and names the line of a malformed row
    in its FileFormatError.  A sidecar key set a second time, on any `#`
    line, is such an error.
    """
    path = Path(path)
    with path.open() as fh:
        sidecar, header = fh.readline(), fh.readline()
        has_rows = any(not line.isspace() for line in fh)  # stops at the first row
    # a log with no rows goes to the line reader, as loadtxt warns on it
    if sidecar.startswith("#") and header.rstrip("\n") == _HEADER and has_rows:
        meta: dict[str, str] = {}
        _parse_sidecar(sidecar, meta, f"{path}: line 1")
        try:
            rows = np.loadtxt(path, dtype=_ROW, delimiter=",", skiprows=2, comments=None, ndmin=1)
            return EventLog.from_arrays(
                rows["time"],
                rows["user"],
                rows["product"],
                horizon=float(meta["horizon"]),
                n_users=int(meta["n_users"]),
                n_products=int(meta["n_products"]),
            )
        except (KeyError, ValueError):
            pass
    return _read_event_log_lines(path)


def _read_event_log_lines(path: Path) -> EventLog:
    meta: dict[str, str] = {}
    rows = []
    with path.open() as fh:
        lineno = 0
        header_seen = False
        prev_time = -np.inf
        for line in fh:
            lineno += 1
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                _parse_sidecar(line, meta, f"{path}: line {lineno}")
                continue
            if not header_seen:
                if line != _HEADER:
                    raise FileFormatError(f"{path}: line {lineno}: expected header 'time,user,product'")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise FileFormatError(f"{path}: line {lineno}: expected 3 fields")
            try:
                t, u, p = float(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise FileFormatError(f"{path}: line {lineno}: {exc}") from None
            if t < prev_time:
                raise FileFormatError(f"{path}: line {lineno}: events not sorted by time")
            prev_time = t
            rows.append((t, u, p))
    for key in ("n_users", "n_products", "horizon"):
        if key not in meta:
            raise FileFormatError(f"{path}: missing '# {key}=...' sidecar header")
    try:
        return EventLog(
            rows,
            horizon=float(meta["horizon"]),
            n_users=int(meta["n_users"]),
            n_products=int(meta["n_products"]),
        )
    except (ValueError, OverflowError) as exc:  # an id beyond int64 overflows
        raise FileFormatError(f"{path}: {exc}") from None


def _mark_to_dict(mark: MarkModel) -> dict:
    if isinstance(mark, SoftMaxMark):
        return {"type": "softmax", "beta": mark.beta}
    return {"type": "linear"}


def _json_number(doc: dict, key: str, integer: bool = False):
    """doc[key] if it is a JSON number (an integer if asked), never a boolean."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise FileFormatError(f"{key} must be a JSON {'integer' if integer else 'number'}, not {value!r}")
    return value


def _mark_from_dict(doc) -> MarkModel:
    if not isinstance(doc, dict):
        raise FileFormatError(f"mark_model must be a JSON object, not {doc!r}")
    kind = doc.get("type")
    if kind == "softmax":
        return SoftMaxMark(beta=float(_json_number(doc, "beta")))
    if kind == "linear":
        return LinearMark()
    raise FileFormatError(f"unknown mark model type {kind!r}")


def _matrix(doc: dict, key: str, rows: int, cols: int) -> np.ndarray:
    """doc[key] as a rows x cols array, from the flat list `write_params`
    writes or from nested rows; any other shape, ragged rows or a
    non-number entry is refused."""
    try:
        value = np.asarray(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{key}: {exc}") from None
    if value.shape not in ((rows * cols,), (rows, cols)):
        raise FileFormatError(
            f"{key} must hold {rows * cols} numbers or {rows} rows of {cols}, not shape {value.shape}"
        )
    return value.reshape(rows, cols)


def write_params(params: ModelParams, path) -> None:
    doc = {
        "n_users": params.n_users,
        "n_products": params.n_products,
        "mark_model": _mark_to_dict(params.mark),
        "mu": params.mu.ravel().tolist(),
        "alpha": params.alpha.ravel().tolist(),
    }
    Path(path).write_text(json.dumps(doc) + "\n")


def read_params(path) -> ModelParams:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{path}: expected a JSON object at the top level")
    try:
        n = _json_number(doc, "n_users", integer=True)
        m = _json_number(doc, "n_products", integer=True)
        for key, count in (("n_users", n), ("n_products", m)):
            if count < 1:
                raise FileFormatError(f"{key} must be at least 1, not {count!r}")
        mu = _matrix(doc, "mu", n, m)
        alpha = _matrix(doc, "alpha", n, n)
        mark = _mark_from_dict(doc["mark_model"])
        return ModelParams(mu, alpha, mark)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}: {exc}") from None


def write_curves_csv(label: str, series_list: list, path) -> None:
    """Flat long-format CSV of one model's curves: series,time,value, the
    series named `label`/<curve label> (NaN emitted as empty)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("series,time,value\n")
        for series in series_list:
            for t, v in zip(series.grid, series.values):
                val = "" if np.isnan(v) else repr(float(v))
                fh.write(f"{label}/{series.label},{float(t)!r},{val}\n")
