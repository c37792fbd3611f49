"""JSON file formats for groupoids, band operators, model specs and gluing
families: what the command line reads and writes.

All formats are plain JSON.  Units are strings in files; arrow ids are JSON
integers (a bool or a float is an input error), and no arrow record, table
entry or overlap-map entry may repeat.  Complex numbers are encoded as
[real, imag] pairs (bare reals are accepted when loading); a NaN or
infinite coefficient is an input error.
"""

from __future__ import annotations

import cmath
import json
import os

from .bandops import BandOperator, Diagonal
from .errors import InputError
from .gluing import GluingFamily
from .groupoid import FiniteGroupoid
from .models import MODEL_PARAMETERS, ModelOperatorSpec


def _complex_in(v):
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, (list, tuple)) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise InputError(f"cannot read {v!r} as a complex number")
    if not cmath.isfinite(z):       # no symbol scan, however fine, can refine it
        raise InputError(f"coefficient {v!r} is not finite")
    return z


def _arrow_id(v):
    """An arrow id as a file states it: a JSON integer, never a bool or a float."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InputError(f"arrow id {v!r} is not an integer")


def _unique(pairs, what):
    """A dict of (key, value) pairs in which no key repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise InputError(f"repeated {what} {key!r}")
        out[key] = value
    return out


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- groupoids ----------------------------------------------------------------


def groupoid_to_dict(G):
    return {
        "units": [str(x) for x in G.units],
        "arrows": [{"id": g, "dom": str(G.dom[g]), "ran": str(G.ran[g])}
                   for g in G.arrows],
        "inverse": [[g, G.inverse[g]] for g in G.arrows],
        "compose": [[g, h, k] for (g, h), k in sorted(G.compose_table.items())],
        "unit_arrows": {str(x): a for x, a in sorted(G.unit_arrow.items(),
                                                     key=lambda t: str(t[0]))},
    }


def groupoid_from_dict(data):
    try:
        units = [str(x) for x in data["units"]]
        records = _unique(((_arrow_id(rec["id"]), rec) for rec in data["arrows"]),
                          "arrow record")
        dom = {g: str(rec["dom"]) for g, rec in records.items()}
        ran = {g: str(rec["ran"]) for g, rec in records.items()}
        inverse = _unique(((_arrow_id(g), _arrow_id(gi)) for g, gi in data["inverse"]),
                          "inverse entry")
        compose = _unique((((_arrow_id(g), _arrow_id(h)), _arrow_id(k))
                           for g, h, k in data["compose"]), "product entry")
        unit_arrow = ({str(x): _arrow_id(a) for x, a in data["unit_arrows"].items()}
                      if "unit_arrows" in data else None)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed groupoid document: {exc}") from None
    if unit_arrow is None:
        # infer: the unit at x is the unique idempotent loop at x
        unit_arrow = {}
        for g in dom:
            if dom[g] == ran[g] and compose.get((g, g)) == g:
                if dom[g] in unit_arrow:
                    raise InputError(f"several idempotent loops at {dom[g]!r}; "
                                     f"list unit_arrows explicitly")
                unit_arrow[dom[g]] = g
        missing = set(units) - set(unit_arrow)
        if missing:
            raise InputError(f"cannot infer unit arrows for {sorted(missing)}")
    return FiniteGroupoid(units, dom, ran, inverse, unit_arrow, compose)


def load_groupoid(path):
    return groupoid_from_dict(load_json(path))


# -- unit subsets / covers ------------------------------------------------------


def load_cover(path):
    data = load_json(path)
    if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
        raise InputError("a cover document is a list of unit lists")
    return [frozenset(str(x) for x in c) for c in data]


# -- band operators ---------------------------------------------------------------


def band_operator_from_dict(data):
    try:
        diags = {}
        for k, rec in data["diagonals"].items():
            core = tuple((int(i), _complex_in([re, im]))
                         for i, re, im in rec.get("core", []))
            diags[int(k)] = Diagonal(_complex_in(rec["limit_minus"]),
                                     _complex_in(rec["limit_plus"]), core)
        A = BandOperator(diags)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed band operator document: {exc}") from None
    if "bandwidth" in data and int(data["bandwidth"]) != A.bandwidth:
        raise InputError("stated bandwidth disagrees with the diagonals")
    return A


def load_band_operator(path):
    return band_operator_from_dict(load_json(path))


# -- model specs --------------------------------------------------------------------


def model_spec_from_dict(data):
    try:
        return ModelOperatorSpec(
            geometry=str(data["geometry"]),
            coefficients=tuple(_complex_in(c) for c in data["coefficients"]),
            **{key: kind(data[key]) for key, kind in MODEL_PARAMETERS if key in data})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"malformed model document: {exc}") from None


def load_model_spec(path):
    return model_spec_from_dict(load_json(path))


# -- gluing families ------------------------------------------------------------------


def gluing_family_from_dict(data, base_dir="."):
    try:
        cover = [frozenset(str(x) for x in U) for U in data["cover"]]
        pieces = []
        for rec in data["pieces"]:
            if isinstance(rec, str):
                pieces.append(load_groupoid(os.path.join(base_dir, rec)))
            else:
                pieces.append(groupoid_from_dict(rec))
        maps = {(int(rec["src"]), int(rec["dst"])):
                _unique(((_arrow_id(g), _arrow_id(img)) for g, img in rec["map"]),
                        "overlap map entry")
                for rec in data["isos"]}
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed gluing document: {exc}") from None
    return GluingFamily(cover, pieces, maps)


def load_gluing_family(path):
    return gluing_family_from_dict(load_json(path), base_dir=os.path.dirname(path) or ".")
