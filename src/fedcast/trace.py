"""Trace ingestion: heterogeneous throughput logs -> canonical per-client schema.

Canonical fields are the intersection available across the public 5G
datasets: timestamp, latitude, longitude, speed, rsrp, sinr, throughput
(Mbps), radio_type. Anything else rides along as an extra column.
"""

import csv
import math
from dataclasses import dataclass, field, replace
from itertools import compress
from operator import itemgetter
from pathlib import Path

import numpy as np

MANDATORY_FIELDS = ("timestamp", "latitude", "longitude", "speed",
                    "rsrp", "sinr", "throughput", "radio_type")
# the first rows of the model-input matrix (preprocess.model_inputs), whose
# last row is throughput
CONTINUOUS_FEATURES = ("latitude", "longitude", "speed", "rsrp", "sinr")

DEFAULT_SENTINELS = ("", "-", "NA", "NaN", "nan", "null")

_FIELD_DEFAULTS = {"latitude": 0.0, "longitude": 0.0, "speed": 0.0,
                   "rsrp": 0.0, "sinr": 0.0, "radio_type": "unknown"}


class TraceError(ValueError):
    pass


@dataclass(eq=False)
class ClientTrace:
    """One client's trace as columns of equal length, keyed by field name:
    a `radio_type` array of strings and a float64 array for each other
    field of MANDATORY_FIELDS and each extra."""
    client_id: str
    dataset_tag: str
    columns: dict
    sample_period: float = 1.0
    dropped_rows: int = 0

    def __len__(self):
        return len(self.columns["timestamp"])

    def extra_names(self):
        return sorted(self.columns.keys() - set(MANDATORY_FIELDS))

    def feature_names(self):
        return list(CONTINUOUS_FEATURES) + self.extra_names()

    def throughput(self):
        return self.columns["throughput"]


@dataclass
class ColumnMapping:
    """source-column names, constant fills, unit factors and sentinels."""
    columns: dict
    constants: dict = field(default_factory=dict)
    units: dict = field(default_factory=dict)
    sentinels: tuple = DEFAULT_SENTINELS
    extras: dict = field(default_factory=dict)  # canonical extra -> source col

    def __post_init__(self):
        for name in MANDATORY_FIELDS:
            in_cols = name in self.columns
            in_consts = name in self.constants
            if in_cols and in_consts:
                raise TraceError(f"field {name!r} mapped twice")
            if not in_cols and not in_consts:
                if name in _FIELD_DEFAULTS:
                    self.constants[name] = _FIELD_DEFAULTS[name]
                else:
                    raise TraceError(f"mandatory field {name!r} not mapped")

    @classmethod
    def identity(cls, fields=None, **kwargs):
        fields = MANDATORY_FIELDS if fields is None else fields
        return cls(columns={f: f for f in fields}, **kwargs)


def load_trace(path, mapping, client_id=None, dataset_tag=""):
    """Parse a delimited text table into a canonical ClientTrace.

    Blank rows are skipped. A row's mapped fields are checked in the order
    of MANDATORY_FIELDS, then the extras: a row is dropped and counted at
    its first sentinel or non-finite value, and so is a row of negative
    throughput. A row short of the mapped columns, or a non-numeric,
    non-sentinel value in a field a row reaches before it is dropped, is an
    error naming the first such row in file order.
    """
    path = Path(path)
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.strip():
            raise TraceError(f"{path}: empty file")
        delim = "\t" if "\t" in first else ","
        fh.seek(0)
        reader = csv.reader(fh, delimiter=delim)
        header = [h.strip() for h in next(reader)]
        col_index = {h: i for i, h in enumerate(header)}

        for canon, src in list(mapping.columns.items()) + list(mapping.extras.items()):
            if src not in col_index:
                raise TraceError(f"{path}: missing column {src!r} for field {canon!r}")

        # the fields read from the file, in the order a row is checked
        sources = [(canon, mapping.columns[canon]) for canon in MANDATORY_FIELDS
                   if canon not in mapping.constants]
        sources += list(mapping.extras.items())
        read = [(canon, src, col_index[src]) for canon, src in sources]
        # the fields a row needs to hold every column read
        n_need = max((i for _, _, i in read), default=-1) + 1
        sentinels = set(mapping.sentinels)
        try:
            values, n, dropped = _read_fields(list(reader), read, n_need,
                                              sentinels)
        except (csv.Error, ValueError):
            # some row is bad, and the column passes cannot tell which one
            # comes first in the file: read the rows again one at a time
            fh.seek(0)
            _raise_first_error(path, csv.reader(fh, delimiter=delim), read,
                               n_need, sentinels)
            raise

    columns = {}
    for canon in (*MANDATORY_FIELDS, *mapping.extras):
        if canon == "radio_type":
            columns[canon] = np.array(values[canon], dtype=str) \
                if canon in values else np.full(n, mapping.constants[canon])
        elif canon in values:
            columns[canon] = np.array(values[canon], dtype=float) \
                * mapping.units.get(canon, 1.0)
        else:
            columns[canon] = np.full(n, float(mapping.constants[canon]))
    usable = np.flatnonzero(columns["throughput"] >= 0)
    dropped += n - usable.size
    if not usable.size:
        raise TraceError(f"{path}: no usable rows")
    order = usable[np.argsort(columns["timestamp"][usable], kind="stable")]
    columns = {name: col[order] for name, col in columns.items()}
    columns["timestamp"] = columns["timestamp"] - columns["timestamp"][0]
    cid = client_id if client_id is not None else path.stem
    return ClientTrace(client_id=cid, dataset_tag=dataset_tag, columns=columns,
                       sample_period=_infer_period(columns["timestamp"]),
                       dropped_rows=dropped)


def _read_fields(rows, read, n_need, sentinels):
    """({canonical name: values}, rows kept, rows dropped) of the csv rows,
    one pass per field of `read`: its cells stripped, its sentinels dropped,
    then its numbers converted and its non-finite ones dropped, each drop
    taking the row out of every later pass. Raises ValueError when a
    non-blank row is short of `n_need` fields or a value to convert is not
    numeric."""
    # a row is blank when every cell is whitespace, and so their join is
    texts = list(map(str.strip, map("".join, rows)))
    if not all(texts):
        rows = list(compress(rows, texts))
    if min(map(len, rows), default=n_need) < n_need:
        raise ValueError("a row is short of the mapped columns")
    n_rows = len(rows)
    values = {}
    for canon, _, i in read:
        cells = list(map(str.strip, map(itemgetter(i), rows)))
        keep = None     # the rows that stay, when some do not
        if not sentinels.isdisjoint(cells):
            keep = [c not in sentinels for c in cells]
            cells = list(compress(cells, keep))
        if canon != "radio_type":
            cells = list(map(float, cells))
            # a sum is finite only if every term is
            if not math.isfinite(sum(cells)):
                finite = list(map(math.isfinite, cells))
                cells = list(compress(cells, finite))
                if keep is None:
                    keep = finite
                else:
                    left = iter(finite)
                    keep = [k and next(left) for k in keep]
        if keep is not None:
            rows = list(compress(rows, keep))
            values = {name: list(compress(vals, keep))
                      for name, vals in values.items()}
        values[canon] = cells
    return values, len(rows), n_rows - len(rows)


def _raise_first_error(path, reader, read, n_need, sentinels):
    """Check the csv rows one at a time, in file order and in load_trace's
    check order, and raise the error of the first bad one."""
    next(reader)    # the header
    for row in reader:
        if not "".join(row).strip():
            continue
        if len(row) < n_need:
            raise TraceError(f"{path}: line {reader.line_num} has "
                             f"{len(row)} fields, the mapped columns "
                             f"need {n_need}") from None
        for canon, src, i in read:
            raw = row[i].strip()
            if raw in sentinels:
                break
            if canon == "radio_type":
                continue
            try:
                v = float(raw)
            except ValueError:
                raise TraceError(f"{path}: non-numeric value {raw!r} in "
                                 f"column {src!r}") from None
            if not math.isfinite(v):
                break


def _infer_period(timestamps):
    diffs = np.diff(timestamps)
    diffs = diffs[diffs > 0]
    if diffs.size == 0:
        return 1.0
    return float(round(np.median(diffs), 6))


def clean_and_resample(trace):
    """Collapse duplicate timestamps, fill small gaps, keep the longest run.

    Duplicates (same grid slot) are averaged; interior gaps of at most 3
    samples are linearly interpolated; larger gaps split the trace and the
    longest contiguous run wins. Output timestamps are 0, p, 2p, ...
    """
    if not len(trace):
        raise TraceError(f"client {trace.client_id}: empty trace")
    period = trace.sample_period

    # the samples sorted into grid slots; runs of occupied slots split at
    # gaps of more than 3 empty slots, and the first longest run wins
    slot = np.rint(trace.columns["timestamp"] / period).astype(np.int64)
    order = np.argsort(slot, kind="stable")
    slot = slot[order]
    starts = np.flatnonzero(np.r_[True, slot[1:] != slot[:-1]])
    ends = np.r_[starts[1:], slot.size]
    occupied = slot[starts]
    cuts = np.flatnonzero(np.diff(occupied) > 4) + 1
    firsts, lasts = np.r_[0, cuts], np.r_[cuts, occupied.size] - 1
    best = np.argmax(occupied[lasts] - occupied[firsts])
    run = slice(firsts[best], lasts[best] + 1)
    starts, ends, occupied = starts[run], ends[run], occupied[run]
    if occupied.size < 2:
        raise TraceError(
            f"client {trace.client_id}: trace shorter than 2 records after cleaning")
    shared = np.flatnonzero(ends - starts > 1)

    # every grid slot of the run takes the values of the occupied slot at or
    # before it; an empty slot mixes them with the next occupied slot's
    grid = np.arange(occupied[0], occupied[-1] + 1)
    prev = np.searchsorted(occupied, grid, side="right") - 1
    empty = np.flatnonzero(grid != occupied[prev])
    frac = (grid[empty] - occupied[prev[empty]]) \
        / (occupied[prev[empty] + 1] - occupied[prev[empty]])
    columns = {"timestamp": (grid - grid[0]) * period}
    for name, col in trace.columns.items():
        if name == "timestamp":
            continue
        # one value per occupied slot: the mean of its samples, or the
        # first sample's radio_type
        col = col[order]
        merged = col[starts]
        if name == "radio_type":
            columns[name] = merged[prev]
            continue
        for g in shared:
            merged[g] = col[starts[g]:ends[g]].mean()
        columns[name] = merged[prev]
        columns[name][empty] = _lerp(merged, prev[empty], frac)
    return replace(trace, columns=columns)


def _lerp(col, i, frac):
    """The values a fraction `frac` of the way from col[i] to col[i + 1]."""
    return col[i] + frac * (col[i + 1] - col[i])


def export_trace(trace, path):
    """Write the canonical column order (plus sorted extras) as CSV."""
    header = list(MANDATORY_FIELDS) + trace.extra_names()
    cells = [trace.columns[name].tolist() for name in header]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*cells))       # floats are written by repr()
