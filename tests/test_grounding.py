import json
import math

import pytest

from hallguard.grounding import (
    FactStore,
    FactEntry,
    FactStoreError,
    check_claims,
    fact_store_to_json,
    load_fact_store,
)

from conftest import make_claim


def test_load_single_entry_store():
    store = load_fact_store(b'{"boc_policy_rate": {"value": 5.00, "unit": "%"}}')
    assert store.entries["boc_policy_rate"].value == 5.0
    assert store.entries["boc_policy_rate"].unit == "%"


def test_load_empty_store():
    assert load_fact_store("{}").entries == {}


def test_load_rejects_duplicate_keys():
    with pytest.raises(FactStoreError, match="duplicate"):
        load_fact_store('{"k": {"value": 1}, "k": {"value": 2}}')


def test_load_rejects_malformed_json_and_shapes():
    with pytest.raises(FactStoreError):
        load_fact_store("{not json")
    with pytest.raises(FactStoreError):
        load_fact_store("[1, 2]")
    with pytest.raises(FactStoreError):
        load_fact_store('{"k": {"unit": "%"}}')  # missing value
    for value in ("NaN", "-Infinity", "9" * 400, "null", "true", "[1]", '{"a": 1}', "[" * 500 + "]" * 500):
        with pytest.raises(FactStoreError, match="'k'"):
            load_fact_store('{"k": {"value": %s}}' % value)


@pytest.mark.parametrize("field, value", [("unit", ["%"]), ("unit", 5), ("as_of", 3), ("as_of", {"d": 1})])
def test_load_rejects_a_unit_or_as_of_that_is_not_a_string(field, value):
    with pytest.raises(FactStoreError, match=f"^{field} for 'k' must be a string$"):
        load_fact_store(json.dumps({"k": {"value": 1.0, field: value}}))


def test_load_reads_a_null_unit_or_as_of_as_absent():
    entry = load_fact_store('{"k": {"value": 1.0, "unit": null, "as_of": null}}').entries["k"]
    assert entry == FactEntry(value=1.0)


def test_store_round_trips_through_json():
    store = FactStore(
        entries={
            "rate": FactEntry(value=5.0, unit="%", as_of="2025-01-15"),
            "name": FactEntry(value="overnight rate"),
        }
    )
    import json

    assert load_fact_store(json.dumps(fact_store_to_json(store))) == store


RATE_STORE = FactStore(entries={"boc_policy_rate": FactEntry(value=5.00, unit="%")})


def test_stale_claim_mismatches():
    verdicts = check_claims([make_claim("boc_policy_rate", 4.25, unit="%")], RATE_STORE)
    assert verdicts[0].status == "mismatch"
    assert verdicts[0].claimed == 4.25
    assert verdicts[0].reference == 5.00


def test_exact_claim_matches():
    verdicts = check_claims([make_claim("boc_policy_rate", 5.00, unit="%")], RATE_STORE)
    assert verdicts[0].status == "match"


def test_relative_tolerance_rule():
    claim = [make_claim("boc_policy_rate", 4.9999, unit="%")]
    assert check_claims(claim, RATE_STORE, rel_tol=1e-3)[0].status == "match"
    assert check_claims(claim, RATE_STORE, rel_tol=1e-6)[0].status == "mismatch"


def test_absolute_tolerance_rule():
    claim = [make_claim("boc_policy_rate", 5.2, unit="%")]
    assert check_claims(claim, RATE_STORE, abs_tol=0.25)[0].status == "match"
    assert check_claims(claim, RATE_STORE, abs_tol=0.1)[0].status == "mismatch"


def test_missing_key_is_unknown():
    verdicts = check_claims([make_claim("unknown_key", 1.0)], RATE_STORE)
    assert verdicts[0].status == "unknown"
    assert verdicts[0].reference is None


def test_unit_mismatch_fails_numeric_claims():
    assert check_claims([make_claim("boc_policy_rate", 5.00, unit="bps")], RATE_STORE)[0].status == "mismatch"
    assert check_claims([make_claim("boc_policy_rate", 5.00)], RATE_STORE)[0].status == "mismatch"


def test_string_claims_normalize_case_and_whitespace():
    store = FactStore(entries={"tool": FactEntry(value="Overnight  Lending Rate")})
    assert check_claims([make_claim("tool", "overnight lending   rate")], store)[0].status == "match"
    assert check_claims([make_claim("tool", "exchange rate")], store)[0].status == "mismatch"


def test_numeric_strings_compare_numerically():
    store = FactStore(entries={"rate": FactEntry(value="5.00")})
    assert check_claims([make_claim("rate", 5.0)], store)[0].status == "match"


@pytest.mark.parametrize("claimed, reference, status", [
    ("nan", "nan", "match"),
    ("inf", "inf", "match"),
    (" -Infinity", "-infinity", "match"),
    ("1e400", "1e400", "match"),
    ("inf", "1e400", "mismatch"),  # no number is stated, so the texts decide
    ("nan", 5.0, "mismatch"),
])
def test_non_finite_strings_compare_as_text(claimed, reference, status):
    store = FactStore(entries={"rate": FactEntry(value=reference)})
    assert check_claims([make_claim("rate", claimed)], store)[0].status == status


def test_verdicts_preserve_claim_order():
    claims = [make_claim("boc_policy_rate", 5.0, unit="%"), make_claim("other", 2.0)]
    verdicts = check_claims(claims, RATE_STORE)
    assert [v.key for v in verdicts] == ["boc_policy_rate", "other"]


def test_tightening_never_creates_matches():
    import numpy as np

    rng = np.random.default_rng(17)
    store = FactStore(entries={f"k{i}": FactEntry(value=float(rng.uniform(1, 100))) for i in range(50)})
    claims = [
        make_claim(f"k{i}", float(store.entries[f"k{i}"].value + rng.normal(0, 0.5)))
        for i in range(50)
    ]
    loose = {v.key for v in check_claims(claims, store, rel_tol=0.01, abs_tol=0.1) if v.status == "match"}
    tight = {v.key for v in check_claims(claims, store, rel_tol=0.001, abs_tol=0.01) if v.status == "match"}
    assert tight <= loose


def test_negative_tolerances_rejected():
    # NaN fails the check too, and an infinite tolerance would match any number
    for tolerances in ({"rel_tol": -0.1}, {"abs_tol": math.nan}, {"rel_tol": math.nan},
                       {"abs_tol": math.inf}):
        with pytest.raises(ValueError, match="tolerances must be finite and nonnegative"):
            check_claims([], RATE_STORE, **tolerances)
