"""File formats and the command line surface.

The literal and writer tests compare `linalg.parse_rational` and the
direct JSON writer `files.dumps_canonical` with the code they replaced:
`fraction_frac`/`fraction_rational` (tests/oracles.py) and
`json.dumps(payload, indent=2)`.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibnizalg import algebra_from_products, catalog, files, transform_algebra
from leibnizalg.cli import main
from leibnizalg.cohomology import BilinearForm
from leibnizalg.linalg import Matrix, frac
from oracles import fraction_frac, fraction_rational


@pytest.fixture
def nf4_file(tmp_path):
    path = tmp_path / "nf4.json"
    files.write_algebra_file(path, catalog.make("NF", 4), name="NF")
    return str(path)


@pytest.fixture
def top_cocycle_file(tmp_path):
    path = tmp_path / "coc.json"
    files.write_cocycle_file(path, 4, (BilinearForm.singleton(4, 4, 1),))
    return str(path)


# ------------------------------------------------------------------ formats


def test_algebra_round_trip_bit_identical(tmp_path):
    a = catalog.make("F1param", 6, alpha6=1, theta="1/2")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    files.write_algebra_file(p1, a, name="X", params={"alpha6": 1, "theta": "1/2"})
    loaded, meta = files.read_algebra_file(p1)
    assert loaded.sc == a.sc
    assert meta["name"] == "X"
    files.write_algebra_file(p2, loaded, name=meta.get("name"), params=meta.get("params"))
    assert p1.read_bytes() == p2.read_bytes()


def test_brackets_serialized_sorted_and_exact():
    d = files.algebra_to_dict(catalog.make("NF", 3))
    assert [tuple((e["i"], e["j"], e["k"])) for e in d["brackets"]] == [(1, 1, 2), (2, 1, 3)]
    assert all(isinstance(e["c"], str) for e in d["brackets"])


def test_duplicate_brackets_rejected():
    payload = {"dim": 2, "brackets": [
        {"i": 1, "j": 1, "k": 2, "c": "1"},
        {"i": 1, "j": 1, "k": 2, "c": "2"},
    ]}
    with pytest.raises(files.FileFormatError, match="duplicate"):
        files.algebra_from_dict(payload)


def test_float_coefficients_rejected():
    payload = {"dim": 2, "brackets": [{"i": 1, "j": 1, "k": 2, "c": 0.5}]}
    with pytest.raises(files.FileFormatError):
        files.algebra_from_dict(payload)


def test_out_of_range_index_rejected():
    payload = {"dim": 2, "brackets": [{"i": 1, "j": 3, "k": 2, "c": "1"}]}
    with pytest.raises(files.FileFormatError):
        files.algebra_from_dict(payload)


def test_cocycle_round_trip(tmp_path):
    forms = (BilinearForm.singleton(4, 4, 1), BilinearForm.from_entries(4, {(1, 1): "2/3"}))
    path = tmp_path / "c.json"
    files.write_cocycle_file(path, 4, forms)
    dim, loaded = files.read_cocycle_file(path)
    assert dim == 4
    assert loaded == forms


def test_cocycle_duplicate_entry_rejected():
    payload = {"dim": 3, "k": 1, "entries": [
        {"t": 1, "i": 1, "j": 2, "c": "1"},
        {"t": 1, "i": 1, "j": 2, "c": "2"},
    ]}
    with pytest.raises(files.FileFormatError):
        files.forms_from_dict(payload)


def test_matrix_round_trip(tmp_path):
    m = Matrix([[1, "1/2"], [0, 3]])
    path = tmp_path / "m.json"
    files.write_matrix_file(path, m)
    assert files.read_matrix_file(path) == m


def test_matrix_entries_are_written_in_lowest_terms():
    m = files.matrix_from_dict({"rows": 1, "cols": 3, "entries": [["2/4", "-6/3", 0]]})
    assert files.matrix_to_dict(m)["entries"] == [["1/2", "-2", "0"]]


# Literals a reader may meet, each of which must keep the value or the
# exception of `Fraction(str)` behind the earlier `frac`.
HOSTILE_LITERALS = (
    "1_0", " 3", "+3", "\u0663", "-0", "00/4", "2/4", "1.5", "3/0", "1e3", "3/-2",
    "1" * 4301, "-12/18", "7", True, 1.5,
)


def _outcome(fn, *args):
    """fn(*args) as ("value", result), or ("raises", exception type, message)."""
    try:
        return "value", fn(*args)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        return "raises", type(exc), str(exc)


def _documents(literal):
    """(reader, a document holding the literal, where it sits, what the reader returns for its value c)."""
    return (
        (lambda doc: files.algebra_from_dict(doc)[0],
         {"dim": 2, "brackets": [{"i": 1, "j": 1, "k": 2, "c": literal}]},
         "brackets[0].c", lambda c: algebra_from_products(2, {(1, 1): {2: c}}, check=False)),
        (files.forms_from_dict,
         {"dim": 2, "k": 1, "entries": [{"t": 1, "i": 1, "j": 2, "c": literal}]},
         "entries[0].c", lambda c: (2, (BilinearForm.from_entries(2, {(1, 2): c}),))),
        (files.matrix_from_dict,
         {"rows": 1, "cols": 1, "entries": [[literal]]},
         "entries[0][0]", lambda c: Matrix([[c]])),
    )


@pytest.mark.parametrize("literal", HOSTILE_LITERALS, ids=lambda x: repr(x)[:12])
def test_hostile_literals_keep_their_values_and_errors(literal):
    assert _outcome(frac, literal) == _outcome(fraction_frac, literal)
    for reader, doc, where, build in _documents(literal):
        try:
            expected = build(fraction_rational(literal, where))
        except files.FileFormatError as exc:
            with pytest.raises(files.FileFormatError) as caught:
                reader(doc)
            assert str(caught.value) == str(exc)
        else:
            assert reader(doc) == expected


def test_plain_literal_documents_are_read_and_written_without_fractions(monkeypatch):
    src = catalog.make("F1param", 6, alpha6=1, theta="1/2")
    q = Matrix([[Fraction(r == c) + Fraction(r > c, 2) for c in range(6)] for r in range(6)])
    doc = files.algebra_to_dict(transform_algebra(src, q))
    assert any("/" in record["c"] for record in doc["brackets"])
    expected = files.algebra_from_dict(doc)[0]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("a Fraction was built")

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", refuse)
        read, _ = files.algebra_from_dict(doc)
        written = files.algebra_to_dict(read)
    assert read == expected and written == doc


def test_dumps_canonical_does_not_use_the_indenting_encoder(monkeypatch):
    payload = {"algebra": files.algebra_to_dict(catalog.make("NF", 3)), "x": [None, True, [], {}]}
    expected = json.dumps(payload, indent=2) + "\n"

    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was reached")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert files.dumps_canonical(payload) == expected


_strings = st.text(st.characters(exclude_categories=()))  # surrogates and control characters too
_json_trees = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from((10**40, -(10**40), -1, 0)) | _strings,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_strings, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(_strings, _json_trees, max_size=5))
def test_dumps_canonical_matches_json_dumps(payload):
    assert files.dumps_canonical(payload) == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), (1, 2), {1: "x"}, [{"a": {2: None}}]], ids=repr)
def test_dumps_canonical_refuses_what_json_documents_do_not_hold(bad):
    with pytest.raises(TypeError):
        files.dumps_canonical({"value": bad})


# ---------------------------------------------------------------- commands


def test_validate_ok(nf4_file, capsys):
    assert main(["validate", nf4_file]) == 0
    assert "satisfies" in capsys.readouterr().out


def test_validate_broken_exits_1(tmp_path, capsys):
    payload = files.algebra_to_dict(catalog.make("NF", 3))
    payload["brackets"].append({"i": 2, "j": 2, "k": 1, "c": "1"})
    bad = tmp_path / "bad.json"
    bad.write_text(files.dumps_canonical(payload))
    assert main(["validate", str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_validate_missing_file_exits_3(capsys):
    assert main(["validate", "no-such-file.json"]) == 3


def test_non_string_name_exits_3(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text('{"dim": 2, "name": 1.5, "brackets": []}')
    assert main(["invariants", str(path), "--format", "json"]) == 3
    assert "name must be a string" in capsys.readouterr().err


@pytest.mark.parametrize("params, message", [
    ({"b": 0.5}, "params['b'] must be an integer or a rational string, got 0.5"),
    ({"theta": [1, 2]}, "params['theta'] must be an integer or a rational string"),
    ({"flag": True}, "params['flag'] must be an integer or a rational string"),
    ({"x": None}, "params['x'] must be an integer or a rational string"),
    ({"x": "abc"}, "params['x'] is not a rational literal"),
    ({"x": "1e5"}, "params['x'] is not a rational literal"),
    ({"x": "1/0"}, "params['x'] is not a rational literal"),
    ({1: "2"}, "params keys must be strings"),
    ([1, 2], "params must be an object"),
    ("1/2", "params must be an object"),
])
def test_params_must_be_rational_values(params, message):
    with pytest.raises(files.FileFormatError) as exc:
        files.algebra_from_dict({"dim": 2, "brackets": [], "params": params})
    assert message in str(exc.value)


def test_float_param_file_exits_3(tmp_path, capsys):
    path = tmp_path / "params.json"
    path.write_text('{"dim": 2, "params": {"b": 0.5}, "brackets": []}')
    assert main(["validate", str(path)]) == 3
    assert "params['b']" in capsys.readouterr().err


def test_params_are_written_as_canonical_literals():
    a = catalog.make("NF", 2)
    with pytest.raises(TypeError, match="float"):
        files.algebra_to_dict(a, params={"b": 0.5})
    written = files.algebra_to_dict(a, params={"b": "2/4", "c": Fraction(-3), "d": 0})
    assert written["params"] == {"b": "1/2", "c": "-3", "d": "0"}


@pytest.mark.parametrize("params, canonical", [
    ({"b": "2/4", "theta": 3}, {"b": "1/2", "theta": "3"}),
    ({"x": "-0", "y": "-6/4", "z": "1_0"}, {"x": "0", "y": "-3/2", "z": "10"}),
    ({}, {}),
])
def test_params_round_trip_canonically(tmp_path, params, canonical):
    a, meta = files.algebra_from_dict({"dim": 2, "brackets": [], "params": params})
    assert meta["params"] == canonical
    path = tmp_path / "a.json"
    files.write_algebra_file(path, a, params=meta["params"])
    again = files.read_algebra_file(path)[1].get("params", {})
    assert again == canonical


def test_validate_garbage_json_exits_3(tmp_path):
    bad = tmp_path / "garbage.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 3


def test_invariants_json(nf4_file, capsys):
    assert main(["invariants", nf4_file, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lcs_dims"] == [4, 3, 2, 1, 0]
    assert data["shape"] == "null-filiform"
    assert data["charseq"] == [4]


def test_invariants_from_family(capsys):
    assert main(["invariants", "--family", "F2", "--n", "6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nilindex"] == 6


def test_invariants_non_nilpotent_exits_1(tmp_path, capsys):
    payload = {"dim": 2, "brackets": [{"i": 1, "j": 2, "k": 1, "c": "1"}]}
    path = tmp_path / "solv.json"
    path.write_text(files.dumps_canonical(payload))
    assert main(["invariants", str(path)]) == 1


def test_cohomology_json(capsys):
    assert main(["cohomology", "--family", "F1", "--n", "6", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["cocycles"], data["coboundaries"], data["cohomology"]) == (8, 4, 4)


def test_extend_writes_canonical_file(nf4_file, top_cocycle_file, tmp_path, capsys):
    out = tmp_path / "ext.json"
    assert main(["extend", nf4_file, "--cocycle", top_cocycle_file, "--out", str(out)]) == 0
    capsys.readouterr()
    ext, meta = files.read_algebra_file(out)
    assert ext.dim == 5
    assert meta["name"] == "NF+ext1"
    assert main(["invariants", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["nilindex"] == 6


def test_extend_dim_mismatch_exits_3(nf4_file, tmp_path):
    path = tmp_path / "c5.json"
    files.write_cocycle_file(path, 5, (BilinearForm.singleton(5, 5, 1),))
    assert main(["extend", nf4_file, "--cocycle", str(path)]) == 3


def test_extend_component_count_mismatch_exits_2(nf4_file, top_cocycle_file):
    assert main(["extend", nf4_file, "--cocycle", top_cocycle_file, "-k", "3"]) == 2


def test_extend_invalid_cocycle_exits_1(nf4_file, tmp_path):
    path = tmp_path / "badc.json"
    files.write_cocycle_file(path, 4, (BilinearForm.singleton(4, 1, 3),))
    assert main(["extend", nf4_file, "--cocycle", str(path)]) == 1


def test_split_check_invalid_cocycle_exits_1(nf4_file, tmp_path, capsys):
    path = tmp_path / "badc.json"
    files.write_cocycle_file(path, 4, (BilinearForm.singleton(4, 1, 3),))
    assert main(["split-check", nf4_file, "--cocycle", str(path)]) == 1
    assert "cocycle component 1 fails on" in capsys.readouterr().err


def test_split_check_json(nf4_file, top_cocycle_file, capsys):
    assert main(["split-check", nf4_file, "--cocycle", top_cocycle_file,
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["class_rank"] == 1
    assert data["split"] is False
    assert data["witness"] is None


def test_iso_verify_roundtrip(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    m = tmp_path / "m.json"
    files.write_algebra_file(a, catalog.make("NF", 3))
    files.write_algebra_file(b, catalog.make("NF", 3))
    files.write_matrix_file(m, Matrix.identity(3))
    assert main(["iso", "verify", str(a), str(b), str(m)]) == 0
    assert "isomorphism" in capsys.readouterr().out


def test_iso_verify_failure_exits_1(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    m = tmp_path / "m.json"
    files.write_algebra_file(a, catalog.make("NF", 3))
    files.write_algebra_file(b, catalog.make("F1", 3))
    files.write_matrix_file(m, Matrix.identity(3))
    assert main(["iso", "verify", str(a), str(b), str(m)]) == 1


def test_iso_search_json(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    files.write_algebra_file(a, catalog.make("NF", 4))
    files.write_algebra_file(b, catalog.make("F1", 4))
    assert main(["iso", "search", str(a), str(b), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["status"] == "distinguished"


def test_catalog_list_mentions_every_family(capsys):
    assert main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    for fam in catalog.family_ids():
        assert fam in out


def test_catalog_make_with_params(tmp_path, capsys):
    out = tmp_path / "fp.json"
    assert main(["catalog", "make", "F1param", "--n", "6",
                 "--param", "alpha6=1/2,theta=3", "--out", str(out)]) == 0
    a, meta = files.read_algebra_file(out)
    assert a.dim == 6
    assert meta["params"] == {"alpha6": "1/2", "theta": "3"}


def test_catalog_make_unknown_family_exits_2(capsys):
    assert main(["catalog", "make", "BOGUS", "--n", "4"]) == 2


def test_catalog_make_bad_param_syntax_exits_2(capsys):
    assert main(["catalog", "make", "L1l", "--n", "6", "--param", "lam"]) == 2


def test_reproduce_unknown_id_exits_2(capsys):
    assert main(["reproduce", "9.9"]) == 2


def test_reproduce_smallest_experiment(capsys):
    assert main(["reproduce", "3.1", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "leibnizalg.cli", "catalog", "list"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "NF" in proc.stdout


def test_catalog_make_repeated_param_exits_2(capsys):
    assert main(["catalog", "make", "L1l", "--n", "6", "--param", "lam=1,lam=2"]) == 2
    assert "given more than once" in capsys.readouterr().err
    assert main(["catalog", "make", "L1l", "--n", "6",
                 "--param", "lam=1", "--param", "lam=1"]) == 2


def test_catalog_make_blank_param_name_exits_2(capsys):
    assert main(["catalog", "make", "F1", "--n", "4", "--param", "=3"]) == 2
    assert "has no name" in capsys.readouterr().err


def test_family_flags_with_a_file_exit_2(nf4_file, capsys):
    assert main(["invariants", nf4_file, "--n", "9", "--param", "bogus=1"]) == 2
    assert "apply only to --family" in capsys.readouterr().err
    assert main(["cohomology", nf4_file, "--n", "4"]) == 2
    assert main(["invariants", nf4_file, "--param", "lam=1"]) == 2


def test_validate_cocycle_document_exits_3(top_cocycle_file, capsys):
    assert main(["validate", top_cocycle_file]) == 3
    assert "no 'brackets'" in capsys.readouterr().err


def test_split_check_algebra_as_cocycle_exits_3(nf4_file, capsys):
    assert main(["split-check", nf4_file, "--cocycle", nf4_file]) == 3
    assert "no 'entries'" in capsys.readouterr().err
    assert main(["extend", nf4_file, "--cocycle", nf4_file]) == 3
