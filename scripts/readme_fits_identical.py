#!/usr/bin/env python3
"""Check that two checkouts write byte-identical JSON for the README fits.

    python3 scripts/readme_fits_identical.py --parent ../old --change .

The README's input data come from the parent's
``scripts/make_synthetic_data.py --seed 1``, written once to a temporary
directory, so both sides read the same files under the same paths.  In
each checkout the three ``semivmp fit`` commands of the README (penspline,
probit glmspline and groupcurves) then run in a subprocess with
``PYTHONPATH=<checkout>/src``.  The script prints one line per fit and
compares the two JSON documents byte for byte, and each side's exit code
(groupcurves stops at its sweep limit, exit 2).  Fields the change adds
(object keys the parent's document lacks) are named and then left out:
the change's document without them, written as ``semivmp fit`` writes
(``json.dumps(indent=2, sort_keys=True)``), must equal the parent's byte
for byte.  A removed field is a difference.  When two documents differ,
it also prints the largest relative difference among their numeric leaves,
with that leaf's JSON path, or a path at which their structure or a
non-numeric leaf differs.  A leaf's difference |a - b| is relative to the
largest |value| of its enclosing array on either side (the outermost JSON
list holding it, such as a whole covariance matrix), or to max(|a|, |b|)
for a leaf in no list, so that a rounding change in an entry near zero
reads as the rounding change it is.

The exit code is 1 when any JSON or exit code differs or a fit failed,
else 0.  The script writes nothing outside its temporary directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FITS = {
    "penspline": ["--model", "penspline", "--data", "gaussian_spline.csv", "--response", "y",
                  "--predictor", "x", "--knots", "15"],
    "probit": ["--model", "glmspline", "--data", "binary_spline.csv", "--response", "y",
               "--predictor", "x", "--link", "probit", "--iters", "400"],
    "groupcurves": ["--model", "groupcurves", "--data", "grouped_curves.csv", "--response", "y",
                    "--predictor", "x", "--group", "subject", "--label", "arm"],
}


def run(checkout, command):
    env = {**os.environ, "PYTHONPATH": str(Path(checkout).resolve() / "src")}
    return subprocess.run([sys.executable, *command], env=env, capture_output=True, text=True)


def fit(checkout, name, data, out):
    """One README fit in ``checkout``; returns (exit code, JSON bytes or None)."""
    args = list(FITS[name])
    i = args.index("--data") + 1
    args[i] = str(data / args[i])
    proc = run(checkout, ["-m", "semivmp.cli", "fit", *args, "--out", str(out)])
    if proc.returncode not in (0, 2):
        print(f"  {checkout}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return proc.returncode, None
    return proc.returncode, out.read_bytes()


def drop_added(parent, change, path="$", added=None):
    """(the change's parsed document without the object keys the parent's
    lacks, the JSON paths of those keys)."""
    added = [] if added is None else added
    if isinstance(parent, dict) and isinstance(change, dict):
        kept = {}
        for key, value in change.items():
            if key in parent:
                kept[key] = drop_added(parent[key], value, f"{path}.{key}", added)[0]
            else:
                added.append(f"{path}.{key}")
        return kept, added
    if isinstance(parent, list) and isinstance(change, list) and len(parent) == len(change):
        return [drop_added(a, b, f"{path}[{i}]", added)[0]
                for i, (a, b) in enumerate(zip(parent, change))], added
    return change, added


def leaves(doc, path="$", array=None):
    """(JSON path, value, path of the enclosing array) of every leaf of a
    parsed JSON document; a leaf in no list is its own enclosing array."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from leaves(value, f"{path}.{key}", array)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from leaves(value, f"{path}[{i}]", array or path)
    else:
        yield path, doc, array or path


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def largest_difference(doc_a, doc_b):
    """A line naming the largest relative difference among the numeric
    leaves of two JSON documents, or a path where their structure or a
    non-numeric leaf differs."""
    a = {path: (value, array) for path, value, array in leaves(json.loads(doc_a))}
    b = {path: value for path, value, _ in leaves(json.loads(doc_b))}
    if a.keys() != b.keys():
        return f"structure differs at {sorted(a.keys() ^ b.keys())[0]}"
    scale = {}  # largest finite |value| of each enclosing array, on either side
    for path, (u, array) in a.items():
        for t in (u, b[path]):
            if is_number(t) and abs(t) < float("inf"):
                scale[array] = max(scale.get(array, 0.0), abs(t))
    worst, where = 0.0, None
    for path, (u, array) in a.items():
        v = b[path]
        if u == v or (u != u and v != v):  # equal, or both NaN
            continue
        if not (is_number(u) and is_number(v)):
            return f"non-numeric leaf differs at {path}"
        rel = abs(u - v) / scale[array] if scale[array] else float("inf")  # infinite leaves
        if where is None or rel > worst:
            worst, where = rel, path
    if where is None:
        return "numeric leaves equal (the documents differ in formatting only)"
    return f"largest relative difference {worst:.3g} at {where}"


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    args = ap.parse_args()

    same = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data"
        generator = Path(args.parent) / "scripts" / "make_synthetic_data.py"
        proc = run(args.parent, [str(generator), "--outdir", str(data), "--seed", "1"])
        if proc.returncode != 0:
            print(f"data generation failed: {proc.stderr.strip()[-400:]}")
            return 1
        for name in FITS:
            code_p, doc_p = fit(args.parent, name, data, tmp / f"parent_{name}.json")
            code_c, doc_c = fit(args.change, name, data, tmp / f"change_{name}.json")
            added = []
            if doc_p is not None and doc_c is not None and doc_p != doc_c:
                kept, added = drop_added(json.loads(doc_p), json.loads(doc_c))
                if added:
                    doc_c = (json.dumps(kept, indent=2, sort_keys=True) + "\n").encode()
            ok = doc_p is not None and doc_p == doc_c and code_p == code_c
            verdict = "identical" if ok else "DIFFERENT"
            size = "-" if doc_p is None else len(doc_p)
            print(f"{name:12s} {verdict}  ({size} bytes, exit {code_p} / {code_c})")
            if added:
                print(f"{'':12s} fields added by the change, left out: {', '.join(added)}")
            if doc_p is not None and doc_c is not None and doc_p != doc_c:
                print(f"{'':12s} {largest_difference(doc_p, doc_c)}")
            same = same and ok
    print("all README JSONs identical" if same else "README JSONs differ")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
