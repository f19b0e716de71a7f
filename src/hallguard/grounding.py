"""Fact-checking structured claims against a static reference store.

The store is a JSON object mapping claim keys to entries:

    {"boc_policy_rate": {"value": 5.00, "unit": "%", "as_of": "2025-01-15"}}

Checks are exact by default (rel_tol = abs_tol = 0); tolerances are loosened
only explicitly.  Claims arrive pre-structured; free-text claim extraction is
upstream's job.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .records import finite_number, number_value

STATUS_MATCH = "match"
STATUS_MISMATCH = "mismatch"
STATUS_UNKNOWN = "unknown"


class FactStoreError(ValueError):
    """The fact store file is malformed or contains duplicate keys."""


@dataclass(frozen=True)
class FactEntry:
    value: str | float
    unit: str | None = None
    as_of: str | None = None


@dataclass(frozen=True)
class FactStore:
    entries: dict[str, FactEntry]


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of checking one claim; mismatches carry both values for audit."""

    key: str
    claimed: str | float
    reference: str | float | None
    status: str


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise FactStoreError(f"duplicate key {key!r}")
        out[key] = value
    return out


def load_fact_store(data) -> FactStore:
    """Load a store from JSON bytes or text; duplicate keys, a value neither a string
    nor a finite number, and a unit or as_of given but not a string are load errors."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        obj = json.loads(data, object_pairs_hook=_reject_duplicate_keys)
    except UnicodeDecodeError as exc:
        raise FactStoreError(f"fact store is not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise FactStoreError(f"malformed fact store JSON: {exc.msg}") from exc
    except RecursionError:
        raise FactStoreError("malformed fact store JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise FactStoreError("fact store must be a JSON object")
    entries: dict[str, FactEntry] = {}
    for key, raw in obj.items():
        if not key:
            raise FactStoreError("fact store keys must be nonempty")
        if not isinstance(raw, dict) or "value" not in raw:
            raise FactStoreError(f"entry for {key!r} must be an object with a value")
        if not (isinstance(raw["value"], str) or finite_number(raw["value"])):
            raise FactStoreError(f"value for {key!r} must be a finite number or a string")
        for name in ("unit", "as_of"):
            if raw.get(name) is not None and not isinstance(raw[name], str):
                raise FactStoreError(f"{name} for {key!r} must be a string")
        entries[key] = FactEntry(value=raw["value"], unit=raw.get("unit"), as_of=raw.get("as_of"))
    return FactStore(entries=entries)


def fact_store_to_json(store: FactStore) -> dict:
    out = {}
    for key, entry in store.entries.items():
        obj: dict = {"value": entry.value}
        if entry.unit is not None:
            obj["unit"] = entry.unit
        if entry.as_of is not None:
            obj["as_of"] = entry.as_of
        out[key] = obj
    return out


def _normalize_text(value) -> str:
    return " ".join(str(value).split()).lower()


def check_claims(claims, store: FactStore, rel_tol: float = 0.0, abs_tol: float = 0.0) -> list[ClaimVerdict]:
    """Check each claim against the store, one verdict per claim in order.

    Numeric claims match when |claimed - ref| <= max(abs_tol, rel_tol * |ref|)
    and the units are equal (case-sensitive; absent matches absent); a string
    stating a finite number (``records.number_value``) counts as one.  Other
    claims ("nan" and "inf" too) match on case-insensitive,
    whitespace-normalized equality.  Keys missing from the store yield an
    "unknown" verdict.
    """
    if not (0.0 <= rel_tol < math.inf and 0.0 <= abs_tol < math.inf):  # NaN fails it too
        raise ValueError("tolerances must be finite and nonnegative")
    verdicts = []
    for claim in claims:
        entry = store.entries.get(claim.key)
        if entry is None:
            verdicts.append(ClaimVerdict(claim.key, claim.value, None, STATUS_UNKNOWN))
            continue
        claimed_num = number_value(claim.value)
        ref_num = number_value(entry.value)
        if claimed_num is not None and ref_num is not None:
            ok = (
                abs(claimed_num - ref_num) <= max(abs_tol, rel_tol * abs(ref_num))
                and claim.unit == entry.unit
            )
        else:
            ok = _normalize_text(claim.value) == _normalize_text(entry.value)
        status = STATUS_MATCH if ok else STATUS_MISMATCH
        verdicts.append(ClaimVerdict(claim.key, claim.value, entry.value, status))
    return verdicts
