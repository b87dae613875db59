"""`trace.load_trace` as a row-by-row loop, the way fedcast once parsed a
trace: each row is checked field by field as it is read. The tests hold
the column-at-a-time parser to its output and its errors."""

import csv
import math
from pathlib import Path

import numpy as np

from fedcast.trace import MANDATORY_FIELDS, ClientTrace, TraceError, \
    _infer_period


def load_trace(path, mapping, client_id=None, dataset_tag=""):
    """fedcast.trace.load_trace, one row and one cell at a time."""
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
        rows = []
        dropped = 0
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) < n_need:
                raise TraceError(f"{path}: line {reader.line_num} has "
                                 f"{len(row)} fields, the mapped columns "
                                 f"need {n_need}")
            vals = []
            for canon, src, i in read:
                raw = row[i].strip()
                if raw in sentinels:
                    break
                if canon == "radio_type":
                    vals.append(raw)
                    continue
                try:
                    v = float(raw)
                except ValueError:
                    raise TraceError(f"{path}: non-numeric value {raw!r} in "
                                     f"column {src!r}") from None
                if not math.isfinite(v):
                    break
                vals.append(v)
            else:
                rows.append(vals)
                continue
            dropped += 1

    n = len(rows)
    read_cols = dict(zip([canon for canon, _ in sources],
                         zip(*rows) if rows else [()] * len(sources)))
    columns = {}
    for canon in (*MANDATORY_FIELDS, *mapping.extras):
        if canon == "radio_type":
            columns[canon] = np.array(read_cols[canon], dtype=str) \
                if canon in read_cols else np.full(n, mapping.constants[canon])
        elif canon in read_cols:
            columns[canon] = np.array(read_cols[canon], dtype=float) \
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
