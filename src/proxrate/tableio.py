"""CSV emission with full double precision.

Floats are written with 17 significant digits so files round-trip
exactly and identical inputs produce byte-identical outputs.
"""
import csv
import os


def format_float(x) -> str:
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    """Write a header plus rows; cells may be str, int, float, or None
    (an empty cell)."""
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_float(v) if isinstance(v, float) else v for v in row])
