import json

import pytest

from gcstar.errors import InputError
from gcstar.fixtures import (bmodel_family, disjoint_pair_z2, faulty_family,
                             pair3, shifted_laplacian_band)
from gcstar.gluing import check_weak_gluing, glue
from gcstar.groupoid import validate
from gcstar.isosearch import groupoid_isomorphism
from gcstar.randgen import random_arrow_function, rng_from_seed
from gcstar.serialization import (band_operator_from_dict,
                                  band_operator_to_dict, groupoid_from_dict,
                                  groupoid_to_dict, gluing_family_from_dict,
                                  gluing_family_to_dict, load_arrow_function,
                                  load_band_operator, load_groupoid,
                                  model_spec_from_dict, save_arrow_function,
                                  save_band_operator, save_groupoid)


def test_groupoid_round_trip(tmp_path):
    G = disjoint_pair_z2()
    path = tmp_path / "g.json"
    save_groupoid(path, G)
    H = load_groupoid(path)
    assert validate(H).ok
    assert H.units == G.units
    assert H.compose_table == G.compose_table
    assert H.unit_arrow == G.unit_arrow


def test_unit_arrows_are_inferred_from_idempotents():
    data = groupoid_to_dict(pair3())
    del data["unit_arrows"]
    G = groupoid_from_dict(data)
    assert validate(G).ok
    assert G.unit_arrow == pair3().unit_arrow


def test_malformed_groupoid_document():
    with pytest.raises(InputError):
        groupoid_from_dict({"units": ["1"]})
    data = groupoid_to_dict(pair3())
    data["unit_arrows"] = list(data["unit_arrows"].values())
    with pytest.raises(InputError, match="malformed groupoid document"):
        groupoid_from_dict(data)


@pytest.mark.parametrize("bad", [0.9, True, False])
def test_arrow_ids_must_be_json_integers(tmp_path, bad):
    data = groupoid_to_dict(pair3())
    data["arrows"][0]["id"] = bad
    with pytest.raises(InputError, match="is not an integer"):
        groupoid_from_dict(data)
    path = tmp_path / "f.json"
    path.write_text(json.dumps([[bad, 1.0, 0.0]]))
    with pytest.raises(InputError, match="is not an integer"):
        load_arrow_function(path, pair3())


def test_repeated_arrow_records_are_rejected(tmp_path):
    data = groupoid_to_dict(pair3())
    data["arrows"].append(dict(data["arrows"][0], dom="2"))
    with pytest.raises(InputError, match="repeated arrow record 0"):
        groupoid_from_dict(data)
    data = groupoid_to_dict(pair3())
    data["compose"].append([*data["compose"][0][:2], 5])
    with pytest.raises(InputError, match="repeated product entry"):
        groupoid_from_dict(data)
    path = tmp_path / "f.json"
    path.write_text(json.dumps([[1, 1.0, 0.0], [1, 2.0, 0.0]]))
    with pytest.raises(InputError, match="repeated arrow-function id 1"):
        load_arrow_function(path, pair3())


def test_arrow_function_round_trip(tmp_path):
    G = pair3()
    f = random_arrow_function(rng_from_seed(0), G)
    path = tmp_path / "f.json"
    save_arrow_function(path, f)
    g = load_arrow_function(path, G)
    assert f.max_abs_difference(g) < 1e-15


def test_band_operator_round_trip(tmp_path):
    A = shifted_laplacian_band()
    path = tmp_path / "a.json"
    save_band_operator(path, A)
    B = load_band_operator(path)
    assert B.diagonals == A.diagonals


def test_band_operator_bandwidth_mismatch():
    data = band_operator_to_dict(shifted_laplacian_band())
    data["bandwidth"] = 7
    with pytest.raises(InputError):
        band_operator_from_dict(data)


def test_gluing_family_round_trip():
    fam = bmodel_family()
    data = gluing_family_to_dict(fam)
    back = gluing_family_from_dict(data)
    assert check_weak_gluing(back).ok
    assert groupoid_isomorphism(glue(back), glue(fam)) is not None


def test_gluing_round_trip_preserves_faults():
    data = gluing_family_to_dict(faulty_family())
    back = gluing_family_from_dict(data)
    report = check_weak_gluing(back)
    assert not report.ok and report.cocycle_failures


def test_model_spec_accepts_bare_reals_and_pairs():
    spec = model_spec_from_dict({"geometry": "b",
                                 "coefficients": [1.0, [0.0, 0.5]]})
    assert spec.coefficients == (1.0 + 0j, 0.5j)
    with pytest.raises(InputError):
        model_spec_from_dict({"geometry": "b"})


def test_unreadable_file(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(InputError):
        load_groupoid(path)
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_band_operator(path)
