from pathlib import Path

import pytest

from gcstar.errors import InputError
from gcstar.fixtures import (bmodel_family, disjoint_pair_z2, faulty_family,
                             pair3, shifted_laplacian_band)
from gcstar.gluing import check_weak_gluing, glue
from gcstar.groupoid import validate
from gcstar.isosearch import groupoid_isomorphism
from gcstar.serialization import (band_operator_from_dict, dump_json,
                                  groupoid_from_dict, groupoid_to_dict,
                                  gluing_family_from_dict, load_band_operator,
                                  load_gluing_family, load_groupoid, load_json,
                                  model_spec_from_dict)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def test_groupoid_round_trip(tmp_path):
    G = disjoint_pair_z2()
    path = tmp_path / "g.json"
    dump_json(path, groupoid_to_dict(G))
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
def test_arrow_ids_must_be_json_integers(bad):
    data = groupoid_to_dict(pair3())
    data["arrows"][0]["id"] = bad
    with pytest.raises(InputError, match="is not an integer"):
        groupoid_from_dict(data)
    data = load_json(FIXTURES / "gluing_nested.json")
    data["isos"][0]["map"][0][0] = bad
    with pytest.raises(InputError, match="is not an integer"):
        gluing_family_from_dict(data)


def test_repeated_arrow_records_are_rejected():
    data = groupoid_to_dict(pair3())
    data["arrows"].append(dict(data["arrows"][0], dom="2"))
    with pytest.raises(InputError, match="repeated arrow record 0"):
        groupoid_from_dict(data)
    data = groupoid_to_dict(pair3())
    data["compose"].append([*data["compose"][0][:2], 5])
    with pytest.raises(InputError, match="repeated product entry"):
        groupoid_from_dict(data)
    data = load_json(FIXTURES / "gluing_nested.json")
    data["isos"][0]["map"].append([4, 5])
    with pytest.raises(InputError, match="repeated overlap map entry 4"):
        gluing_family_from_dict(data)


def test_band_operator_round_trip():
    B = load_band_operator(FIXTURES / "band_laplacian_shifted.json")
    assert B.diagonals == shifted_laplacian_band().diagonals


def test_band_operator_bandwidth_mismatch():
    data = load_json(FIXTURES / "band_laplacian_shifted.json")
    band_operator_from_dict(data)
    data["bandwidth"] = 7
    with pytest.raises(InputError):
        band_operator_from_dict(data)


def test_gluing_family_round_trip():
    fam = bmodel_family()
    back = load_gluing_family(FIXTURES / "gluing_bmodel.json")
    assert back.cover == fam.cover
    assert [groupoid_to_dict(G) for G in back.pieces] == [groupoid_to_dict(G)
                                                          for G in fam.pieces]
    assert ({pair: phi.arrow_map for pair, phi in back.isos.items()}
            == {pair: phi.arrow_map for pair, phi in fam.isos.items()})
    assert check_weak_gluing(back).ok
    assert groupoid_isomorphism(glue(back), glue(fam)) is not None


def test_gluing_round_trip_preserves_faults():
    fam = faulty_family()
    back = load_gluing_family(FIXTURES / "gluing_faulty.json")
    assert ({pair: phi.arrow_map for pair, phi in back.isos.items()}
            == {pair: phi.arrow_map for pair, phi in fam.isos.items()})
    report = check_weak_gluing(back)
    assert not report.ok and report.cocycle_failures
    assert report == check_weak_gluing(fam)


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
