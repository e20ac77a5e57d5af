"""The contract of every public record: construction, defaults, immutability,
equality, hash and repr."""

import copy
import enum
import inspect
import math
import pickle

import pytest

import tauberlab as tl

SADDLE = {"x_peak": 0.25, "h_at_max": 0.0, "curvature": -8.0}
PARAMS = {
    "a": 2.0, "b": 0.5, "c": -1.0, "offset": 0.0, "d": 1.0, "dual_exp": 1.0,
    "regime": tl.Regime.KOHLBECKER, "saddle": tl.SaddlePoint(**SADDLE),
}
MEASURE = {"locations": (0.0, 1.0, 2.0), "masses": (1.0, 2.0, 3.0)}
SAMPLE = {"psi": 10.0, "s": 0.1, "log_f": 20.5, "quad_error": 1e-12, "tol_met": False}
GRID = {"psi_values": tuple(tl.make_grid(10.0, 1000.0, 8).psi_values)}
FIT = {"exponent_hat": 1.0, "coefficient_hat": 1.0, "residual": 1e-9, "window": (4, 8)}
CHECK = {"name": "exponent_rel_gap", "value": 0.01, "limit": 0.03, "passed": True}
CK = {"points": ((10.0, 2.0), (100.0, 2.0)), "tau_at_top": 2.0, "spread_last_quarter": 0.0}
EPSILON = {
    "epsilon": 0.5,
    "upper_verdict": tl.TrendVerdict.TENDS_TO_ZERO,
    "lower_verdict": tl.TrendVerdict.TENDS_TO_INFINITY,
}

# Each public record with one set of fields, in field order; the values are
# already in the form the record holds them, so the record's field tuple is
# the tuple of these values.
RECORDS = {
    "SaddlePoint": SADDLE,
    "UnifiedParams": PARAMS,
    "TabulatedMeasure": MEASURE,
    "PurePower": {"a": 2.0, "b": 0.5},
    "PerturbedPower": {"a": -1.0, "b": 2.0, "family": "log-sine", "magnitude": 0.3},
    "MeasureTarget": {"measure": tl.TabulatedMeasure(**MEASURE), "kind": "tail"},
    "TransformSample": SAMPLE,
    "EvalGrid": GRID,
    "AsymptoticFit": FIT,
    "CheckResult": CHECK,
    "EquivalenceReport": {
        "params": tl.UnifiedParams(**PARAMS),
        "target_label": "pure-power(a=2, b=0.5)",
        "grid": tl.EvalGrid(**GRID),
        "samples": (tl.TransformSample(**SAMPLE),),
        "predictions_leading": (10.0,),
        "predictions_corrected": (11.0,),
        "ratios": (2.05,),
        "mid_sample": None,
        "fit": tl.AsymptoticFit(**FIT),
        "a_hat": 2.0,
        "b_hat": 0.5,
        "checks": (tl.CheckResult(**CHECK),),
        "notes": ("a note",),
        "inverse_passed": True,
    },
    "Kohlbecker": {"alpha": 2.0, "B": 1.0},
    "DeBruijn": {"beta": -1.0, "B": -1.0, "rate": 2.0},
    "Kasahara": {"alpha": 0.5, "B": 1.0},
    "UnifiedReduction": {
        "params": tl.UnifiedParams(**PARAMS),
        "classical_coefficient": 1.0,
        "lambda_exponent": 1.0,
        "lambda_map": "lambda = s",
    },
    "CkIndexResult": CK,
    "EpsilonCheck": EPSILON,
    "ClassMDiagnostic": {
        "tau": 2.0,
        "estimate": tl.CkIndexResult(**CK),
        "epsilon_checks": (tl.EpsilonCheck(**EPSILON),),
    },
}


def test_every_public_record_is_under_contract():
    classes = {
        name for name in tl.__all__
        if isinstance(getattr(tl, name), type)
        and not issubclass(getattr(tl, name), (enum.Enum, BaseException))
    }
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    cls, fields = getattr(tl, name), RECORDS[name]
    assert cls(*fields.values()) == cls(**fields)


@pytest.mark.parametrize("name", RECORDS)
def test_equal_records_hash_as_their_field_tuple(name):
    cls, fields = getattr(tl, name), RECORDS[name]
    one, two = cls(*fields.values()), cls(**fields)
    assert one is not two
    assert hash(one) == hash(two) == hash(tuple(fields.values()))


@pytest.mark.parametrize("name", RECORDS)
def test_no_field_can_be_assigned_or_deleted(name):
    record = getattr(tl, name)(**RECORDS[name])
    for field, value in RECORDS[name].items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) == value


def test_defaults():
    sample = dict(SAMPLE)
    del sample["tol_met"]
    assert tl.TransformSample(**sample).tol_met is True
    assert tl.MeasureTarget(tl.TabulatedMeasure(**MEASURE)).kind == "cumulative"
    report = dict(RECORDS["EquivalenceReport"])
    del report["notes"], report["inverse_passed"]
    report = tl.EquivalenceReport(**report)
    assert report.notes == ()
    assert report.inverse_passed is False
    assert tl.DeBruijn(-1.0, -1.0).rate == 1.0


def test_evalgrid_length_is_its_number_of_psi_values():
    assert len(tl.EvalGrid(**GRID)) == len(GRID["psi_values"]) == 8


@pytest.mark.parametrize("record, text", [
    (tl.TransformSample(**SAMPLE),
     "TransformSample(psi=10.0, s=0.1, log_f=20.5, quad_error=1e-12, tol_met=False)"),
    (tl.PurePower(2.0, 0.5), "PurePower(a=2.0, b=0.5)"),
    (tl.TabulatedMeasure(**MEASURE),
     "TabulatedMeasure(locations=(0.0, 1.0, 2.0), masses=(1.0, 2.0, 3.0))"),
    (tl.CheckResult(**CHECK),
     "CheckResult(name='exponent_rel_gap', value=0.01, limit=0.03, passed=True)"),
    (tl.CheckResult("coefficient_rel_gap", 0.002, None, None),
     "CheckResult(name='coefficient_rel_gap', value=0.002, limit=None, passed=None)"),
])
def test_repr_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("name", RECORDS)
def test_a_record_survives_pickling(name):
    record = getattr(tl, name)(**RECORDS[name])
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is type(record)
    assert copy == record


@pytest.mark.parametrize("name, field, bad, error", [
    ("PerturbedPower", "magnitude", 0.9, tl.ValidationError),
    ("MeasureTarget", "kind", "both", tl.ValidationError),
    ("EvalGrid", "psi_values", (1.0, 2.0), tl.BadRange),
    ("Kohlbecker", "alpha", 0.5, tl.SpecOutOfRange),
    ("DeBruijn", "rate", -1.0, tl.SpecOutOfRange),
    ("Kasahara", "B", math.inf, tl.SpecOutOfRange),
])
def test_replace_runs_the_checks_of_a_checked_record(name, field, bad, error):
    record = getattr(tl, name)(**RECORDS[name])
    assert record._replace() == record
    with pytest.raises(error):
        record._replace(**{field: bad})


# Each checked record's parameters as (name, default), in order; a required
# parameter has inspect's empty default.
REQUIRED = inspect.Parameter.empty
CHECKED = {
    "Kohlbecker": (("alpha", REQUIRED), ("B", REQUIRED)),
    "DeBruijn": (("beta", REQUIRED), ("B", REQUIRED), ("rate", 1.0)),
    "Kasahara": (("alpha", REQUIRED), ("B", REQUIRED)),
    "PerturbedPower": (("a", REQUIRED), ("b", REQUIRED), ("family", REQUIRED),
                       ("magnitude", REQUIRED)),
    "MeasureTarget": (("measure", REQUIRED), ("kind", "cumulative")),
    "EvalGrid": (("psi_values", REQUIRED),),
}


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_keeps_its_signature(name):
    params = inspect.signature(getattr(tl, name)).parameters.values()
    assert tuple((p.name, p.default) for p in params) == CHECKED[name]


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_defaults_are_its_signature_defaults(name):
    defaults = {field: default for field, default in CHECKED[name] if default is not REQUIRED}
    assert getattr(tl, name)._field_defaults == defaults


@pytest.mark.parametrize("name", CHECKED)
def test_the_arity_error_of_a_checked_record_names_the_class(name):
    required = [field for field, default in CHECKED[name] if default is REQUIRED]
    with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) missing {len(required)} "):
        getattr(tl, name)()
    with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) takes "):
        getattr(tl, name)(*RECORDS[name].values(), None)


def test_the_arity_error_names_the_missing_field():
    with pytest.raises(TypeError) as info:
        tl.DeBruijn(-1.0)
    assert str(info.value) == "DeBruijn.__new__() missing 1 required positional argument: 'B'"


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_copies_to_an_equal_record(name):
    record = getattr(tl, name)(**RECORDS[name])
    for duplicate in (copy.copy(record), copy.deepcopy(record)):
        assert type(duplicate) is type(record)
        assert duplicate == record
