"""Fixed resource limits at the input boundary.

Each limit is lowered with monkeypatch, so no test ever builds a large
input: a document or argument just above the patched limit must be
refused, one at the limit accepted.
"""

import json

import pytest

from leibnizalg import catalog, core, files, isomorphism
from leibnizalg.cli import main
from leibnizalg.core import algebra_from_products
from leibnizalg.isomorphism import search_isomorphism


@pytest.fixture
def max_dim_3(monkeypatch):
    monkeypatch.setattr(core, "MAX_DIM", 3)


def test_limits_cover_every_dimension_in_use():
    assert core.MAX_DIM >= 32
    assert isomorphism.MAX_SEARCH_BUDGET >= isomorphism.SEARCH_BUDGET


def test_algebra_from_products_refuses_dim_above_limit(max_dim_3):
    assert algebra_from_products(3, {(1, 1): {2: 1}}).dim == 3
    with pytest.raises(ValueError, match="dimension 4 exceeds the limit of 3"):
        algebra_from_products(4, {})


def test_catalog_make_refuses_dim_above_limit(max_dim_3):
    assert catalog.make("NF", 3).dim == 3
    with pytest.raises(ValueError, match="limit of 3"):
        catalog.make("NF", 4)


def test_algebra_document_refuses_dim_above_limit(max_dim_3):
    assert files.algebra_from_dict({"dim": 3, "brackets": []})[0].dim == 3
    with pytest.raises(files.FileFormatError, match="dim = 4 exceeds the limit of 3"):
        files.algebra_from_dict({"dim": 4, "brackets": []})


def test_cocycle_document_refuses_dim_and_k_above_limit(max_dim_3):
    dim, forms = files.forms_from_dict({"dim": 3, "k": 3, "entries": []})
    assert (dim, len(forms)) == (3, 3)
    with pytest.raises(files.FileFormatError, match="dim = 4"):
        files.forms_from_dict({"dim": 4, "k": 1, "entries": []})
    with pytest.raises(files.FileFormatError, match="k = 4"):
        files.forms_from_dict({"dim": 2, "k": 4, "entries": []})


def test_cli_oversized_algebra_file_exits_3(max_dim_3, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 4, "brackets": []}))
    assert main(["validate", str(path)]) == 3
    assert "exceeds the limit" in capsys.readouterr().err


def test_cli_oversized_catalog_dim_exits_2(max_dim_3, capsys):
    assert main(["catalog", "make", "NF", "--n", "4"]) == 2
    assert "exceeds the limit" in capsys.readouterr().err


def test_search_refuses_budget_outside_limits(monkeypatch):
    monkeypatch.setattr(isomorphism, "MAX_SEARCH_BUDGET", 10)
    a = catalog.make("NF", 3)
    assert search_isomorphism(a, a, budget=10).status == "found"
    for budget in (0, -1, 11):
        with pytest.raises(ValueError, match="search budget %d outside 1..10" % budget):
            search_isomorphism(a, a, budget=budget)


def test_cli_search_budget_outside_limits_exits_2(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(isomorphism, "MAX_SEARCH_BUDGET", 10)
    path = tmp_path / "nf3.json"
    files.write_algebra_file(path, catalog.make("NF", 3))
    assert main(["iso", "search", str(path), str(path), "--budget", "10"]) == 0
    capsys.readouterr()
    for budget in ("0", "11"):
        assert main(["iso", "search", str(path), str(path), "--budget", budget]) == 2
        assert "search budget" in capsys.readouterr().err
