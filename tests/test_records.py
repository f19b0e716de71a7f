import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hallguard.records import (
    Claim,
    GenerationRecord,
    GroundTruthLabel,
    RecordParseError,
    RecordValidationError,
    Sample,
    TokenDistribution,
    iter_records,
    parse_records,
    write_records,
)

MINIMAL_LINE = b'{"id": "r1", "prompt": "q?", "samples": [{"text": "a"}]}\n'


def valid_record(record_id="r1"):
    return GenerationRecord(
        id=record_id,
        prompt="what is the rate?",
        samples=[
            Sample(
                text="it will raise",
                token_dists=[TokenDistribution(["raise", "cut", "hold"], [0.6, 0.3, 0.1])],
                token_logprobs=[-0.51],
                embedding=[0.1, 0.2],
                reasoning="trend analysis",
                answer="raise",
                self_confidence=0.65,
            ),
            Sample(text="it will cut", embedding=[0.3, 0.1], answer="cut"),
        ],
        reference_claims=[Claim(key="rate", value=5.0, unit="%")],
        ground_truth=GroundTruthLabel(is_hallucinated=True, failure_class="data", correct_answer="hold"),
    )


def test_parse_minimal_line():
    records = parse_records(MINIMAL_LINE)
    assert len(records) == 1
    assert records[0].id == "r1"
    assert records[0].samples[0].text == "a"


def test_parse_rejects_bad_prob_sum():
    line = b'{"id": "r1", "prompt": "q", "samples": [{"text": "a", "token_dists": [{"labels": ["x", "y"], "probs": [0.5, 0.3]}]}]}\n'
    with pytest.raises(RecordValidationError) as exc:
        parse_records(line)
    assert "probs" in str(exc.value)
    assert "r1" in str(exc.value)


def test_parse_malformed_json_reports_line_number():
    data = MINIMAL_LINE + b"{not json}\n"
    with pytest.raises(RecordParseError) as exc:
        parse_records(data)
    assert exc.value.line_no == 2


def test_parse_rejects_duplicate_ids():
    with pytest.raises(RecordValidationError, match="duplicate"):
        parse_records(MINIMAL_LINE + MINIMAL_LINE)


def test_iter_records_yields_each_record_before_reading_the_next_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(MINIMAL_LINE + b"{not json}\n")
    with open(path, "rb") as fp:
        records = iter_records(fp)
        assert next(records).id == "r1"
        with pytest.raises(RecordParseError) as exc:
            next(records)
    assert exc.value.line_no == 2


def test_a_line_cut_short_is_an_unterminated_string():
    cut = MINIMAL_LINE[: MINIMAL_LINE.index(b'"q?"') + 2] + b"\n"
    with pytest.raises(RecordParseError, match="^line 2: Unterminated string"):
        parse_records(MINIMAL_LINE.replace(b"r1", b"r0") + cut)


def test_every_input_kind_reads_the_same_records():
    raw_separator = MINIMAL_LINE.replace(b"r1", "r\u2028x".encode())  # one line, not two
    data = write_records([valid_record("r1")]) + b"\n  \n" + raw_separator
    want = parse_records(data)
    assert [r.id for r in want] == ["r1", "r\u2028x"]
    assert parse_records(data.decode()) == want
    assert parse_records(io.BytesIO(data)) == want
    assert parse_records(io.StringIO(data.decode())) == want
    assert list(iter_records(io.BytesIO(data))) == want


def test_three_record_round_trip():
    records = [valid_record(f"r{i}") for i in range(3)]
    assert parse_records(write_records(records)) == records


def test_write_empty_corpus_is_empty_stream():
    assert write_records([]) == b""


def test_write_single_record_is_one_line_with_newline():
    data = write_records([valid_record()])
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1


def _json_object(record):
    """The JSON object of one record, as write_records writes it."""
    return json.loads(write_records([record]))


def _diagnostics(record):
    """The diagnostics of the error that reading record's line raises."""
    with pytest.raises(RecordValidationError) as exc:
        parse_records(write_records([record]))
    return exc.value.diagnostics


def test_unknown_keys_are_ignored():
    tagged = _json_object(valid_record())
    for part in (tagged, tagged["samples"][0], tagged["samples"][0]["token_dists"][0],
                 tagged["reference_claims"][0], tagged["ground_truth"]):
        part["trace_id"] = [17, {"nested": None}]
    line = json.dumps(tagged).encode()
    assert parse_records(line) == [valid_record()]
    assert write_records(parse_records(line)) == write_records([valid_record()])


def test_validate_accepts_valid_record():
    assert parse_records(write_records([valid_record()])) == [valid_record()]


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda r: r.__class__(**{**vars(r), "id": ""}), "id"),
        (lambda r: r.__class__(**{**vars(r), "samples": []}), "samples"),
        (
            lambda r: _with_sample(r, self_confidence=1.3),
            "self_confidence",
        ),
        (
            lambda r: _with_sample(r, token_logprobs=[0.2]),
            "token_logprobs",
        ),
        (
            lambda r: _with_sample(r, token_dists=[]),
            "token_dists",
        ),
        (
            lambda r: _with_sample(
                r, token_dists=[TokenDistribution(["a", "a"], [0.5, 0.5])]
            ),
            "token_dists[0].labels",
        ),
        (
            lambda r: _with_sample(
                r, token_dists=[TokenDistribution(["a", "b"], [0.5])]
            ),
            "probs",
        ),
        (
            lambda r: _with_sample(
                r, token_dists=[TokenDistribution(["a", "b"], [1.2, -0.2])]
            ),
            "probs",
        ),
        (
            lambda r: _with_sample(
                r, token_dists=[TokenDistribution(["a", "b"], [0.5, 0.3])]
            ),
            "probs",
        ),
        (
            lambda r: r.__class__(
                **{
                    **vars(r),
                    "reference_claims": [Claim(key="", value=1.0)],
                }
            ),
            "reference_claims",
        ),
        (
            lambda r: r.__class__(
                **{
                    **vars(r),
                    "ground_truth": GroundTruthLabel(is_hallucinated=False, failure_class="data"),
                }
            ),
            "failure_class",
        ),
        (
            lambda r: r.__class__(
                **{
                    **vars(r),
                    "ground_truth": GroundTruthLabel(is_hallucinated=True, failure_class="pilot"),
                }
            ),
            "failure_class",
        ),
        (lambda r: _with_sample(r, embedding=[0.1, math.nan]), "embedding[1]"),
        (lambda r: _with_sample(r, embedding=[math.inf, 0.2]), "embedding[0]"),
        (lambda r: _with_sample(r, embedding=[True, "0.2"]), "samples[0].embedding[0]"),
        (
            lambda r: r.__class__(
                **{**vars(r), "samples": [r.samples[0], Sample(text="x", embedding=[0.3])]}
            ),
            "samples[1].embedding",
        ),
        (
            lambda r: r.__class__(
                **{**vars(r), "samples": [*r.samples, Sample(text="x")]}
            ),
            "samples[2].embedding",
        ),
        (lambda r: _with_sample(r, token_logprobs=[math.nan]), "token_logprobs[0]"),
        (lambda r: _with_sample(r, answer=4), "answer"),
        (
            lambda r: _with_sample(r, token_dists=[TokenDistribution([["x"], "y"], [0.5, 0.5])]),
            "samples[0].token_dists[0].labels",
        ),
        (
            lambda r: _with_sample(r, token_dists=[TokenDistribution(["x", "y"], ["s", 0.5])]),
            "token_dists[0].probs[0]",
        ),
        (
            lambda r: r.__class__(**{**vars(r), "reference_claims": [Claim(key=["k"], value=1.0)]}),
            "reference_claims[0].key",
        ),
        (
            lambda r: r.__class__(**{**vars(r), "reference_claims": [Claim(key="k", value=1.0, unit=5)]}),
            "reference_claims[0].unit",
        ),
        (
            lambda r: r.__class__(**{**vars(r), "ground_truth": GroundTruthLabel(True, correct_answer=3)}),
            "ground_truth.correct_answer",
        ),
        (
            lambda r: _with_sample(r, token_dists=[TokenDistribution([], [])]),
            "samples[0].token_dists[0].probs",
        ),
    ],
)
def test_each_invariant_violation_is_detected(mutate, path_fragment):
    diags = _diagnostics(mutate(valid_record()))
    assert diags, "expected at least one diagnostic"
    assert any(path_fragment in d.path for d in diags)


def _with_sample(record, **fields):
    sample = Sample(**{**vars(record.samples[0]), **fields})
    return GenerationRecord(**{**vars(record), "samples": [sample]})


def test_duplicate_label_diagnostic_names_labels():
    record = _with_sample(valid_record(), token_dists=[TokenDistribution(["x", "x"], [0.5, 0.5])])
    assert any(d.path.endswith(".labels") for d in _diagnostics(record))


# --- property: random corpora survive the JSONL round trip ---

_text = st.text(max_size=20)


@st.composite
def _samples(draw, embed_dim):
    """One sample; embed_dim None means no embedding."""
    n_probs = draw(st.integers(1, 4))
    weights = draw(
        st.lists(st.floats(0.05, 1.0, allow_nan=False), min_size=n_probs, max_size=n_probs)
    )
    total = sum(weights)
    dists = None
    if draw(st.booleans()):
        dists = [
            TokenDistribution([f"t{i}" for i in range(n_probs)], [w / total for w in weights])
        ]
    return Sample(
        text=draw(_text),
        token_dists=dists,
        token_logprobs=draw(
            st.none() | st.lists(st.floats(-20.0, 0.0, allow_nan=False), min_size=1, max_size=3)
        ),
        embedding=None if embed_dim is None else draw(
            st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=embed_dim, max_size=embed_dim)
        ),
        reasoning=draw(st.none() | _text),
        answer=draw(st.none() | _text),
        self_confidence=draw(st.none() | st.floats(0.0, 1.0, allow_nan=False)),
    )


@st.composite
def _records(draw, record_id):
    claims = draw(
        st.none()
        | st.lists(
            st.builds(
                Claim,
                key=st.text(min_size=1, max_size=8),
                value=st.one_of(_text, st.floats(-1e6, 1e6, allow_nan=False)),
                unit=st.none() | st.sampled_from(["%", "usd"]),
            ),
            max_size=2,
        )
    )
    gt = draw(
        st.none()
        | st.builds(
            GroundTruthLabel,
            is_hallucinated=st.just(True),
            failure_class=st.none() | st.sampled_from(["model", "context", "data"]),
            correct_answer=st.none() | _text,
        )
    )
    return GenerationRecord(
        id=record_id,
        prompt=draw(_text),
        # every sample of a record carries an embedding of one length, or none does
        samples=draw(
            st.lists(_samples(draw(st.none() | st.integers(1, 4))), min_size=1, max_size=3)
        ),
        reference_claims=claims,
        ground_truth=gt,
    )


@settings(max_examples=50, deadline=None)
@given(data=st.data(), n=st.integers(1, 6))
def test_random_corpus_round_trips(data, n):
    corpus = [data.draw(_records(record_id=f"r{i}")) for i in range(n)]
    assert parse_records(write_records(corpus)) == corpus


# --- one walk: every diagnostic of a record, in field order ---

# one fault for a sample and the diagnostic path it gives under samples[i]
_SAMPLE_FAULTS = [
    ({"answer": 4}, ".answer"),
    ({"text": 5}, ".text"),
    ({"self_confidence": 2}, ".self_confidence"),
    ({"token_logprobs": [0.5]}, ".token_logprobs[0]"),
    ({"reasoning": ["r"]}, ".reasoning"),
    ("x", ""),
]


@settings(max_examples=100, deadline=None)
@given(
    n_samples=st.integers(2, 8),
    data=st.data(),
)
def test_every_faulty_sample_is_named_in_sample_order(n_samples, data):
    bad = data.draw(st.lists(st.integers(0, n_samples - 1), min_size=2, max_size=n_samples, unique=True))
    faults = {i: data.draw(st.sampled_from(_SAMPLE_FAULTS)) for i in bad}
    samples = []
    for i in range(n_samples):
        sample = {"text": f"s{i}", "answer": "a", "reasoning": "r", "self_confidence": 0.5,
                  "token_logprobs": [-0.1]}
        if i in faults:
            fault = faults[i][0]
            sample = fault if isinstance(fault, str) else {**sample, **fault}
        samples.append(sample)
    obj = {"id": "r1", "prompt": "q", "samples": samples}
    want = [f"samples[{i}]{faults[i][1]}" for i in sorted(bad)]
    with pytest.raises(RecordValidationError) as exc:
        parse_records(json.dumps(obj))
    assert [d.path for d in exc.value.diagnostics] == want
    assert str(exc.value).startswith(f"record 'r1': {want[0]}: ")


def test_duplicate_id_diagnostic_comes_first():
    line = MINIMAL_LINE.replace(b'"a"}', b'"a", "answer": 4}')
    with pytest.raises(RecordValidationError) as exc:
        parse_records(MINIMAL_LINE + line)
    assert [d.path for d in exc.value.diagnostics] == ["id", "samples[0].answer"]
    assert exc.value.diagnostics[0].reason == "duplicate id in corpus"


@pytest.mark.parametrize("mutate, message", [
    (lambda r: r["samples"].__setitem__(0, "x"), "samples[0]: sample must be a JSON object"),
    (lambda r: r["samples"][0]["token_dists"][0].__setitem__("probs", [0.3, 0.15, 0.05]),
     "samples[0].token_dists[0].probs: probs sum to 0.5, expected 1"),
    (lambda r: r["reference_claims"][0].pop("value"),
     "reference_claims[0]: claim must be an object with key and value"),
    (lambda r: r["ground_truth"].pop("is_hallucinated"),
     "ground_truth: must be an object with boolean is_hallucinated"),
    (lambda r: r["samples"][0]["token_dists"][0].pop("probs"),
     "samples[0].token_dists[0]: must be an object with labels[] and probs[]"),
    (lambda r: r["samples"][0].__setitem__("embedding", 3), "samples[0].embedding: must be a list"),
    (lambda r: r.__setitem__("reference_claims", {}), "reference_claims: must be a list"),
    (lambda r: r.__setitem__("samples", "s"), "samples: must be a list"),
    (lambda r: r.__setitem__("id", 7), "id: must be a string"),
], ids=["sample-string", "probs-halved", "claim-without-value", "label-without-is-hallucinated",
        "dist-without-probs", "embedding-not-list", "claims-not-list", "samples-not-list", "id-not-string"])
def test_whole_object_and_shape_messages(mutate, message):
    obj = _json_object(valid_record())
    mutate(obj)
    with pytest.raises(RecordValidationError) as exc:
        parse_records(json.dumps(obj))
    assert str(exc.value).split(": ", 1)[1] == message
    assert len(exc.value.diagnostics) == 1


def test_a_record_that_is_not_an_object_is_one_diagnostic():
    with pytest.raises(RecordValidationError) as exc:
        parse_records(b"[1, 2]\n")
    assert str(exc.value) == "record '<unknown>': : record must be a JSON object"


def test_each_list_of_numbers_names_its_first_bad_entry():
    obj = _json_object(valid_record())
    obj["samples"][0]["token_logprobs"] = [-0.1, 0.5, 0.7]
    obj["samples"][0]["token_dists"][0]["probs"] = [0.6, "s", -1]
    with pytest.raises(RecordValidationError) as exc:
        parse_records(json.dumps(obj))
    assert [d.path for d in exc.value.diagnostics] == [
        "samples[0].token_dists[0].probs[1]", "samples[0].token_logprobs[1]"]


@pytest.mark.parametrize("mutate, path", [
    (lambda r: r["reference_claims"][0].__setitem__("unit", {"x": [1]}), "reference_claims[0].unit"),
    (lambda r: r["reference_claims"][0].__setitem__("unit", 5), "reference_claims[0].unit"),
    (lambda r: r["ground_truth"].__setitem__("correct_answer", 3), "ground_truth.correct_answer"),
    (lambda r: r["ground_truth"].__setitem__("correct_answer", ["hold"]), "ground_truth.correct_answer"),
], ids=["object-unit", "number-unit", "number-correct-answer", "list-correct-answer"])
def test_unit_and_correct_answer_must_be_strings(mutate, path):
    obj = _json_object(valid_record())
    mutate(obj)
    with pytest.raises(RecordValidationError) as exc:
        parse_records(json.dumps(obj))
    assert [(d.path, d.reason) for d in exc.value.diagnostics] == [(path, "must be a string")]


def test_readme_corpus_example_is_a_valid_record():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Corpus format\n", 1)[1]
    example = section.split("```json\n", 1)[1].split("```", 1)[0]
    [record] = list(iter_records([example.replace("\n", " ") + "\n"]))
    assert _json_object(record) == json.loads(example)


# --- write_records encodes each distinct sample object once ---

_ESCAPED = ['plain', 'quote " inside', 'back\\slash', 'tab\there', 'line\u2028sep', 'café 漢']


def _reference_object(value):
    """value as a JSON-ready object, built apart from the package's encoder:
    each dataclass an object of its fields that are not None, in field order,
    with token_labels under the key labels."""
    if dataclasses.is_dataclass(value):
        return {"labels" if f.name == "token_labels" else f.name: _reference_object(getattr(value, f.name))
                for f in dataclasses.fields(value) if getattr(value, f.name) is not None}
    if isinstance(value, list):
        return [_reference_object(item) for item in value]
    return value


def _one_liner(records):
    """The reference encoder: one json.dumps per record."""
    return "".join(json.dumps(_reference_object(r)) + "\n" for r in records).encode("utf-8")


def _seeded_corpus(seed):
    """Records whose samples are one shared object, equal but distinct copies,
    all distinct, or a mix; with and without claims, units and labels; ids and
    texts drawn from strings that JSON escapes.  Not every record is valid:
    the encoder does not check."""
    rng = np.random.default_rng(seed)

    def pick(options):
        return options[int(rng.integers(len(options)))]

    def sample(k):
        probs = rng.dirichlet(np.ones(3)).tolist()
        return Sample(
            text=pick(_ESCAPED) + str(k),
            token_dists=[TokenDistribution(["a", "b\t", " "], probs)] if rng.random() < 0.7 else None,
            token_logprobs=[-float(rng.random())] if rng.random() < 0.3 else None,
            embedding=rng.normal(size=4).tolist() if rng.random() < 0.3 else None,
            reasoning=pick(_ESCAPED) if rng.random() < 0.5 else None,
            answer=pick(_ESCAPED) if rng.random() < 0.5 else None,
            self_confidence=float(rng.random()) if rng.random() < 0.5 else None,
        )

    records = []
    for i in range(40):
        n = int(rng.integers(1, 7))
        mode = i % 4
        if mode == 0:  # one object, repeated
            samples = [sample(0)] * n
        elif mode == 1:  # equal but distinct objects
            first = sample(0)
            samples = [Sample(**vars(first)) for _ in range(n)]
        elif mode == 2:  # all distinct
            samples = [sample(k) for k in range(n)]
        else:  # a few objects, repeated in turn
            distinct = [sample(k) for k in range(int(rng.integers(1, 4)))]
            samples = [distinct[j % len(distinct)] for j in range(n)]
        claims = None
        if rng.random() < 0.6:
            claims = [Claim(key=pick(_ESCAPED) + "k", value=pick([1.5, -2.0, 7, pick(_ESCAPED)]),
                            unit=pick([None, "%", "°C\t"])) for _ in range(int(rng.integers(0, 3)))]
        gt = None
        if rng.random() < 0.6:
            hallucinated = bool(rng.random() < 0.5)
            gt = GroundTruthLabel(is_hallucinated=hallucinated,
                                  failure_class=pick(["model", "data", None]) if hallucinated else None,
                                  correct_answer=pick([None, *_ESCAPED]))
        records.append(GenerationRecord(id=f"{pick(_ESCAPED)}-{i}", prompt=pick(_ESCAPED),
                                        samples=samples, reference_claims=claims, ground_truth=gt))
    return records


@pytest.mark.parametrize("seed", [0, 1, 7, 1009])
def test_write_records_matches_the_one_liner(seed):
    records = _seeded_corpus(seed)
    assert sum(len({id(s) for s in r.samples}) < len(r.samples) for r in records) >= 10
    assert write_records(records) == _one_liner(records)


def test_write_records_matches_the_one_liner_on_edge_records():
    shared = Sample(text='"\\\t é')
    records = [
        GenerationRecord(id="empty", prompt="", samples=[]),
        GenerationRecord(id="claims-empty", prompt="p", samples=[shared, shared], reference_claims=[]),
        GenerationRecord(id='"\\', prompt=" ", samples=[shared, Sample(text="x"), shared],
                         ground_truth=GroundTruthLabel(is_hallucinated=False)),
    ]
    assert write_records(records) == _one_liner(records)
