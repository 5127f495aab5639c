"""File formats and deterministic report emission.

Input-space files are CSV with header ``id,x0,x1,...,weight[,label...]``
(any column after ``weight`` is read as a label attribute named by its
header) or a JSON mirror ``{"points": ..., "weights": ..., "labels":
{name: [...]}}``. Protocol files are CSV ``id,message`` where a message is
a symbol string over vocabulary ``0..V-1`` of length ``L`` (e.g. ``0371``),
or the JSON mirror ``{"messages": [...]}``. Receiver files are JSON data
with exact floats and one table row per line.

Reports are JSON with sorted keys and floats printed with 12 significant
digits, so identical configurations and seeds produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import operator
import re
from pathlib import Path

import numpy as np

from .core import InputSpace, LabelMap, MessageSpace, Protocol
from .errors import ParseError
from .games import ClassificationReceiver, ConstantDiscriminationReceiver, \
    GlobalReceiver, ReconstructionReceiver, TabularDiscriminationReceiver, \
    _integer

__all__ = [
    "load_input_space",
    "save_input_space",
    "load_labels",
    "load_protocol",
    "save_protocol",
    "default_message_space",
    "receiver_to_json",
    "receiver_from_json",
    "load_receiver",
    "save_receiver",
    "format_floats",
    "dumps_report",
    "write_report",
]


# ---------------------------------------------------------------------------
# Input spaces
# ---------------------------------------------------------------------------

def load_input_space(path: str | Path) -> tuple[InputSpace, list[LabelMap]]:
    path = Path(path)
    if path.suffix.lower() == ".json":
        return _input_space_from_json(path)
    rows = _read_csv(path)
    header = rows[0] if rows else []
    if not header or header[0] != "id":
        raise ParseError("expected header starting with 'id'", str(path),
                         line=1, column=1)
    try:
        w_col = header.index("weight")
    except ValueError:
        raise ParseError("missing 'weight' column", str(path), line=1)
    coord_cols = list(range(1, w_col))
    for j, name in enumerate(header[1:w_col], start=1):
        if name != f"x{j - 1}":
            raise ParseError(f"expected coordinate column 'x{j - 1}', got "
                             f"{name!r}", str(path), line=1, column=j + 1)
    label_cols = list(range(w_col + 1, len(header)))

    ordered = []
    for lineno, row in _rows_by_id(rows, path):
        coords = [_parse_float(row[j], path, lineno, j + 1) for j in coord_cols]
        weight = _parse_float(row[w_col], path, lineno, w_col + 1)
        ordered.append((coords, weight, [row[j] for j in label_cols]))
    try:
        space = InputSpace([r[0] for r in ordered],
                           [r[1] for r in ordered])
    except ValueError as exc:
        raise ParseError(str(exc), str(path), line=2)
    labels = [LabelMap([r[2][j] for r in ordered], name=header[w_col + 1 + j])
              for j in range(len(label_cols))]
    return space, labels


def _input_space_from_json(path: Path) -> tuple[InputSpace, list[LabelMap]]:
    data = _read_json(path)
    try:
        space = InputSpace(data["points"], data.get("weights"))
        if not isinstance(data.get("labels", {}), dict):
            raise TypeError("'labels' must map names to label lists")
        labels = [LabelMap(vals, name=name)
                  for name, vals in data.get("labels", {}).items()]
        if any(lab.size != space.size for lab in labels):
            raise ValueError("every label list needs one entry per point")
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"bad input-space JSON: {exc}", str(path), line=1)
    return space, labels


def load_labels(path: str | Path) -> list[LabelMap]:
    """Label attributes from a CSV file with header ``id,<attr>,...``."""
    path = Path(path)
    rows = _read_csv(path)
    if not rows or rows[0][:1] != ["id"]:
        raise ParseError("expected header 'id,<attr>,...'", str(path), line=1)
    ordered = [row[1:] for _, row in _rows_by_id(rows, path)]
    return [LabelMap([r[j] for r in ordered], name=name)
            for j, name in enumerate(rows[0][1:])]


def save_input_space(path: str | Path, space: InputSpace,
                     labels: list[LabelMap] | None = None) -> None:
    labels = labels or []
    path = Path(path)
    if path.suffix.lower() == ".json":
        payload = {"points": space.points.tolist(),
                   "weights": space.weights.tolist()}
        if labels:
            payload["labels"] = {lab.name: list(lab.labels) for lab in labels}
        _write_data(path, payload)
        return
    header = (["id"] + [f"x{j}" for j in range(space.dim)] + ["weight"]
              + [lab.name for lab in labels])
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(space.size):
            row = [i] + [repr(float(v)) for v in space.points[i]] \
                + [repr(float(space.weights[i]))] \
                + [lab.labels[i] for lab in labels]
            writer.writerow(row)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------

def default_message_space(k: int) -> MessageSpace:
    """Synthetic symbol-sequence space for K messages: zero-padded decimal
    strings of equal length."""
    length = max(1, len(str(k - 1)))
    msgs = [str(m).zfill(length) for m in range(k)]
    return MessageSpace.symbol_sequences(msgs, vocab_size=10, length=length)


def load_protocol(path: str | Path, vocab_size: int | None = None
                  ) -> tuple[Protocol, MessageSpace]:
    path = Path(path)
    if path.suffix.lower() == ".json":
        data = _read_json(path)
        if not isinstance(data.get("messages"), list):
            raise ParseError("protocol JSON needs a 'messages' list",
                             str(path), line=1)
        ordered = list(enumerate(map(str, data["messages"]), start=2))
    else:
        rows = _read_csv(path)
        if not rows or rows[0][:2] != ["id", "message"]:
            raise ParseError("expected header 'id,message'", str(path),
                             line=1, column=1)
        ordered = [(lineno, row[1].strip())
                   for lineno, row in _rows_by_id(rows, path)]

    seqs = []
    for lineno, s in ordered:
        try:
            seq = _parse_message_string(s)
        except ValueError as exc:
            raise ParseError(str(exc), str(path), line=lineno, column=2)
        if vocab_size is not None and max(seq) >= vocab_size:
            raise ParseError(f"symbol {max(seq)} is outside a vocabulary of "
                             f"{vocab_size} symbols", str(path), line=lineno,
                             column=2)
        seqs.append(seq)
    lengths = {len(s) for s in seqs}
    if len(lengths) != 1:
        raise ParseError("messages must share one length", str(path), line=2)

    atoms = sorted(set(seqs))
    if vocab_size is None:
        vocab_size = max(max(s) for s in seqs) + 1
    message_space = MessageSpace.symbol_sequences(
        atoms, vocab_size=vocab_size, length=lengths.pop())
    index = {a: i for i, a in enumerate(atoms)}
    return Protocol([index[s] for s in seqs], len(atoms)), message_space


def _parse_message_string(s: str) -> tuple:
    if not s:
        raise ValueError("empty message string")
    if "-" in s:
        parts = s.split("-")
    else:
        parts = list(s)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad message string {s!r}")


def save_protocol(path: str | Path, protocol: Protocol,
                  message_space: MessageSpace | None = None) -> None:
    if message_space is None:
        message_space = default_message_space(protocol.num_messages)
    path = Path(path)
    if path.suffix.lower() == ".json":
        write_report(path, {"messages": [
            message_space.atom_string(int(m)) for m in protocol.assignment]})
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "message"])
        for i, m in enumerate(protocol.assignment):
            writer.writerow([i, message_space.atom_string(int(m))])


# ---------------------------------------------------------------------------
# Receivers
# ---------------------------------------------------------------------------

# the per-message receiver kinds: kind -> (class, JSON key, attribute); a
# table row per message, ``null`` where the message is undefined
_PER_MESSAGE = {
    "reconstruction": (ReconstructionReceiver, "outputs", "points"),
    "global": (GlobalReceiver, "table", "table"),
    "classification": (ClassificationReceiver, "conditional", "conditional"),
}


def receiver_to_json(receiver) -> dict:
    for kind, (cls, key, attr) in _PER_MESSAGE.items():
        if isinstance(receiver, cls):
            table = getattr(receiver, attr)
            return {"kind": kind, key: [
                row if ok else None for row, ok in zip(
                    table.tolist(), receiver.defined.tolist())]}
    if isinstance(receiver, ConstantDiscriminationReceiver):
        return {"kind": "constant-discrimination",
                "vector": receiver.vector.tolist(),
                "num_messages": receiver.num_messages}
    if isinstance(receiver, TabularDiscriminationReceiver):
        # by message, then candidate by candidate
        order = np.lexsort((*receiver.candidates.T[::-1], receiver.messages))
        rows = [{"message": m, "candidates": c, "probs": p}
                for m, c, p in zip(receiver.messages[order].tolist(),
                                   receiver.candidates[order].tolist(),
                                   receiver.rows[order].tolist())]
        return {"kind": "discrimination", "d": receiver.num_candidates,
                "num_messages": receiver.num_messages, "rows": rows}
    raise TypeError(f"cannot serialize receiver of type {type(receiver)!r}")


def _rows_with_gaps(rows: list) -> tuple[np.ndarray, np.ndarray]:
    """A per-message table whose undefined rows are ``null``: the rows as a
    float array (NaN where undefined) and the mask of defined rows."""
    defined = np.array([r is not None for r in rows], dtype=bool)
    if not defined.any():
        raise ValueError("no receiver row is defined")
    width = len(next(r for r in rows if r is not None))
    values = np.array([r if r is not None else [math.nan] * width
                       for r in rows], dtype=float)
    if values.ndim != 2:
        raise ValueError("each receiver row must be a list of numbers")
    # a ``null`` or a string such as ``"nan"`` inside a row reads as NaN
    if not np.isfinite(values[defined]).all():
        raise ValueError("receiver values must be finite numbers")
    return values, defined


def receiver_from_json(data: dict):
    kind = data.get("kind")
    for name, (cls, key, _) in _PER_MESSAGE.items():
        if kind == name:  # ``kind`` may be any JSON value, unhashable too
            return cls(*_rows_with_gaps(data[key]))
    if kind == "constant-discrimination":
        return ConstantDiscriminationReceiver(
            np.asarray(data["vector"], dtype=float),
            num_messages=_integer(data.get("num_messages", 1),
                                  "num_messages"))
    if kind == "discrimination":
        rows = list(map(operator.itemgetter("message", "candidates",
                                            "probs"), data["rows"]))
        if not rows:
            raise ValueError("no receiver row is defined")
        return TabularDiscriminationReceiver.from_queries(
            _integer(data["d"], "d"),
            _integer(data["num_messages"], "num_messages"), *zip(*rows))
    raise ValueError(f"unknown receiver kind {kind!r}")


def load_receiver(path: str | Path):
    path = Path(path)
    data = _read_json(path)
    try:
        return receiver_from_json(data)
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise ParseError(f"bad receiver JSON: {exc}", str(path), line=1)


def save_receiver(path: str | Path, receiver) -> None:
    _write_data(path, receiver_to_json(receiver))


def _write_data(path: str | Path, data: dict) -> None:
    """Write ``data`` as data, not as a report: sorted keys, exact floats,
    one line per top-level key and per compactly encoded list element."""
    encode = json.JSONEncoder(sort_keys=True, allow_nan=False,
                              default=np.generic.item).encode
    entries = [f"{encode(key)}: " + (
        "[\n    " + ",\n    ".join(map(encode, value)) + "\n  ]"
        if isinstance(value, list) and value else encode(value))
        for key, value in sorted(data.items())]
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("{\n  " + ",\n  ".join(entries) + "\n}\n")


# ---------------------------------------------------------------------------
# Deterministic report emission
# ---------------------------------------------------------------------------

def format_floats(obj):
    """Round floats to 12 significant digits, mapping non-finite values to
    strings so the result is plain JSON."""
    if isinstance(obj, dict):
        return {k: format_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [format_floats(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return float(f"{v:.12g}")
    if isinstance(obj, np.ndarray):
        return format_floats(obj.tolist())
    return obj


def dumps_report(obj) -> str:
    return json.dumps(format_floats(obj), sort_keys=True, indent=2) + "\n"


def write_report(path: str | Path, obj) -> str:
    """Write ``dumps_report(obj)`` to ``path`` and return the text."""
    text = dumps_report(obj)
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)
    return text


# ---------------------------------------------------------------------------
# Low-level readers
# ---------------------------------------------------------------------------

def _read_csv(path: Path) -> list[list[str]]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.reader(fh)]
    except OSError as exc:
        raise ParseError(str(exc), str(path))


def _rows_by_id(rows: list[list[str]],
                path: Path) -> list[tuple[int, list[str]]]:
    """The data rows under a CSV header whose first column is an integer
    id, as (line number, fields) in id order. Blank rows are skipped, every
    other row has the header's width, and the ids run 0..N-1."""
    width = len(rows[0])
    records = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ParseError(f"expected {width} fields, got {len(row)}",
                             str(path), line=lineno, column=len(row))
        try:
            ident = int(row[0])
        except ValueError:
            raise ParseError(f"bad id {row[0]!r}", str(path), line=lineno,
                             column=1)
        if ident in records:
            raise ParseError(f"duplicate id {ident}", str(path), line=lineno,
                             column=1)
        records[ident] = (lineno, row)
    if not records:
        raise ParseError("no data rows", str(path), line=2)
    if sorted(records) != list(range(len(records))):
        raise ParseError("ids must be contiguous 0..N-1", str(path), line=2)
    return [records[i] for i in range(len(records))]


def _reject_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


# a JSON string, or a constant ``json`` reads as NaN or an infinity
_JSON_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|-?Infinity|NaN')


def _read_json(path: Path) -> dict:
    """The JSON object in ``path``; malformed JSON, ``NaN`` and
    ``Infinity`` raise ``ParseError`` at their line and column."""
    try:
        text = path.read_text()
        data = json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(str(exc), str(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, str(path), line=exc.lineno,
                         column=exc.colno)
    except ValueError as exc:  # a constant, or an integer of 4,301+ digits
        at = next((m.start() for m in _JSON_CONSTANT.finditer(text)
                   if m.group()[0] != '"'), 0)
        raise ParseError(str(exc), str(path),
                         line=text.count("\n", 0, at) + 1,
                         column=at - text.rfind("\n", 0, at))
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object at the top level", str(path),
                         line=1, column=1)
    return data


def _parse_float(cell: str, path: Path, line: int, column: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(f"bad number {cell!r}", str(path), line=line,
                         column=column)
