"""The per-element check of outside observable input that `fourier` used
before, kept as the test reference.

`json_parts` and `checked` walk every entry, key and number one at a time
through the scalar rule `fourier._is_number`.  The whole-list checks in
`fourier._json_parts` and `fourier._checked` must accept the same inputs,
return the same arrays and refuse the rest with the same message.
"""

import numpy as np

from nilmix.fourier import _FREQ_LIMIT, _is_number, _lex_rows


def json_parts(data) -> tuple:
    """dim, frequencies and checked coefficient parts of the wire format."""
    if not isinstance(data, dict) or set(data) - {"dim", "coeffs"}:
        raise ValueError("an observable is an object with fields 'dim' and 'coeffs'")
    entries = data.get("coeffs")
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and not set(e) - {"z", "re", "im"} for e in entries):
        raise ValueError("'coeffs' must be a list of entries with keys z, re, im")
    re, im = ([e.get(k, 0.0) for e in entries] for k in ("re", "im"))
    if not all(map(_is_number, re + im)):
        raise ValueError("coefficient parts 're', 'im' must be finite numbers")
    return data.get("dim"), [e.get("z") for e in entries], re, im


def checked(dim, zs: list, re: list, im: list, exact: bool) -> tuple:
    """Check dim and the frequencies zs (parallel to the coefficient parts)
    by the config rules: integers with |z_j| < 2^62, each a list of dim of
    them, no two alike.  Returns the constructor's arrays, sorted."""
    if not _is_number(dim, integral=True) or dim < 1:
        raise ValueError(f"bad dim {dim!r}: must be a positive integer")
    dim = int(dim)
    if not all(isinstance(z, (list, tuple)) and len(z) == dim for z in zs):
        raise ValueError(f"every frequency must be a list of {dim} integers")
    flat = [x for z in zs for x in z]
    if not all(_is_number(x, integral=True) for x in flat):
        raise ValueError("frequency coordinates must be integers")
    flat = [int(x) for x in flat]
    if flat and max(map(abs, flat)) >= _FREQ_LIMIT:
        raise ValueError("frequency coordinates must lie below 2^62 in absolute value")
    freqs, inv = _lex_rows(np.array(flat, dtype=np.int64).reshape(len(zs), dim))
    if len(freqs) < len(zs):
        raise ValueError("repeated frequency")
    kind = object if exact else np.float64
    out_re, out_im = np.empty(len(zs), dtype=kind), np.empty(len(zs), dtype=kind)
    out_re[inv], out_im[inv] = re, im
    return dim, freqs, out_re, out_im
