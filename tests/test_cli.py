import hashlib
import json

import pytest

from mckay_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_pass(capsys):
    code, out, err = run(capsys, "verify", "--group", "3:1,1,1")
    assert code == 0
    assert "PASS 3:1,1,1" in err
    report = json.loads(out)
    assert report["pass"] is True
    assert len(report["per_character"]) == 3


def test_verify_rejects_non_sl3(capsys):
    code, _, err = run(capsys, "verify", "--group", "5:1,1,2")
    assert code == 2
    assert "sum to 0 mod 5" in err


def test_fan_output(capsys, tmp_path):
    out_file = tmp_path / "fan.json"
    code, _, _ = run(capsys, "fan", "--group", "13:1,5,7", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert len(payload["cones"]) == 13


def test_reid_formats(capsys):
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["edges"]) == 4
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2", "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, "reid", "--group", "4:1,1,2", "--format", "tikz")
    assert code == 0 and "tikzpicture" in out


def test_quiver_and_ssgraph(capsys):
    code, out, _ = run(capsys, "quiver", "--group", "13:1,5,7")
    assert code == 0 and out.count("->") == 39
    code, out, _ = run(capsys, "quiver", "--group", "13:1,5,7", "--format", "json")
    assert json.loads(out)["triangles"] == 26
    code, out, _ = run(capsys, "ssgraph", "--group", "4:1,1,2")
    assert code == 0 and out.count("digraph") == 2


def test_transforms_char_restriction(capsys):
    code, out, _ = run(capsys, "transforms", "--group", "4:1,1,2", "--char", "3")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["profiles"]) == 1
    assert payload["profiles"][0]["degree"] == 0
    code, _, err = run(capsys, "transforms", "--group", "4:1,1,2", "--char", "9")
    assert code == 2


def test_corpus_command(capsys, tmp_path):
    code, out, _ = run(
        capsys,
        "corpus",
        "--max-order", "4",
        "--group", "2:1,1,0+2:0,1,1",
        "--jobs", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["pass"] is True
    # 2:1,1,0, 3:1,1,1, 4:1,1,2, 4:1,1,... -> plus the explicit product
    assert aggregate["groups"] == len(list(tmp_path.glob("*.json")))
    specs = {g["group"] for g in aggregate["per_group"]}
    # 1/2(1,1,0) appears through its sorted-weight representative
    assert {"2:0,1,1", "3:1,1,1", "4:1,1,2", "2:1,1,0+2:0,1,1"} <= specs


def test_corpus_determinism_across_jobs(capsys):
    code1, out1, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "1")
    code2, out2, _ = run(capsys, "corpus", "--max-order", "6", "--jobs", "3")
    assert code1 == code2 == 0
    assert out1 == out2


def test_empty_corpus_passes_trivially(capsys):
    code, out, _ = run(capsys, "corpus", "--max-order", "1")
    assert code == 0
    aggregate = json.loads(out)
    assert aggregate["groups"] == 0 and aggregate["pass"] is True


def test_verify_report_summary(capsys):
    code, out, _ = run(capsys, "verify", "--group", "4:1,1,2")
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["pass"] is True
    assert report["summary"]["marking_histogram"] == {
        "curves": 2,
        "divisor": 1,
        "nothing": 1,
    }
    assert report["summary"]["shape_histogram"] == {"B": 1}


def test_corpus_rejects_a_bad_group_before_any_group_runs(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr("mckay_lab.corpus.verify_group", calls.append)
    code, out, err = run(capsys, "corpus", "--max-order", "6", "--group", "5:1,1,2")
    assert code == 2 and out == ""
    assert "sum to 0 mod 5" in err
    assert calls == []


def test_corpus_records_a_raising_group_and_goes_on(capsys, monkeypatch):
    import mckay_lab.corpus
    from mckay_lab.errors import FanValidationFailed

    verify_group = mckay_lab.corpus.verify_group

    def flaky(group):
        if group.spec_string() == "3:1,1,1":
            raise FanValidationFailed("seeded fault")
        return verify_group(group)

    monkeypatch.setattr(mckay_lab.corpus, "verify_group", flaky)
    code, out, _ = run(capsys, "corpus", "--max-order", "4", "--jobs", "1")
    assert code == 1
    aggregate = json.loads(out)
    assert aggregate["pass"] is False
    assert aggregate["failures"] == [
        {"group": "3:1,1,1", "error_type": "FanValidationFailed", "message": "seeded fault"}
    ]
    assert [g["group"] for g in aggregate["per_group"]] == [
        "2:0,1,1", "3:0,1,2", "4:0,1,3", "4:1,1,2"
    ]
    assert all(g["pass"] for g in aggregate["per_group"])


# sha256 of the read-path outputs, recorded before the divisor table moved to
# integers: the query bytes are fixed outputs, like the verify reports
# reid_json and reid_tikz recorded before the edge carving vectors were
# oriented once on the fan: their ratio sides and vertex cases are re-derived
QUERY_ARGV = {
    "reid": ("reid", "--format", "svg"),
    "reid_json": ("reid", "--format", "json"),
    "reid_tikz": ("reid", "--format", "tikz"),
}
QUERY_SHA256 = {
    "4:1,1,2": {
        "fan": "6617d1e61d264be63a057041f77025b8134c80dcfc17d60e98e246f108c7a995",
        "reid": "effa6aa13df967df2ece433f2eabd9c81dc85dd07f81f37befca678845f090d3",
        "reid_json": "14bb20d96c059a36e2a907aac04b6eb64cbc6ac2c9b17a382584775868f2ce0b",
        "reid_tikz": "cbd07e2b289f2d49f06bbdf51e2ceb68e708548dea9dcf8f573ee0309c9fa205",
        "quiver": "e902d5a3bb172ecb8cb994989e4b01370907874788c52e9607b231d36f19a7e4",
        "ssgraph": "920239b22806547b8ee59cd0b5dd0aa4b20caaba6154ad47b267caba0afc5f6f",
        "transforms": "3bea8cb4fb22932d1ad0d6200ccd1e70d5b65e317d3f45a483b9282980d19a87",
    },
    "13:1,5,7": {
        "fan": "6061455e3938133fbe2749ffcc8e58f34e02f16c7a55a51122e7985465966cce",
        "reid": "c3262ac0791d130bab0a85cc70d2a5a692f8c7ef7084a0a9fbe9c61b8a5bd2da",
        "reid_json": "96c558aea9859c44553dd7ab85d84b5e8570c28ec9317abe70899c78571019f9",
        "reid_tikz": "44807c488ffff806e07adb645f749cf8015018cd85ff7cec9dc7d160d3d37ff1",
        "quiver": "0a5c71f2c7925358e093215cf188fd80547bb32e0c55cbd3ef9163b858e447e7",
        "ssgraph": "0709367fa3875025eccf6782eb23a5766dd9e6f52f54f08430a8a5779d3c55b4",
        "transforms": "462b74c8a099479a467ab19cc35299f3f1b95e042e28624c84fdccbfb6e95dbd",
    },
    "6:1,2,3": {
        "fan": "369d1d31b2b1706f7c33b4a36e827ba13f307b95dd5f5dc00b037a9e7a8f6ee1",
        "reid": "64a2b491879862c0050c526fc82121efece8af8dfcf3502a6c160f516c8bbedc",
        "reid_json": "4b49385c551e3218be3fffa731d73fdcf6e011ada242759df9cb0712d778a200",
        "reid_tikz": "651c2690fb05b3250b4f5864182054226bb6e9ce55b8b265e943027db36942f6",
        "quiver": "d09d68b0e3b84686056ca9cc307689420161d8ae0205c14c5f1e1bf29ef4bb9f",
        "ssgraph": "340dddf2e3e8f8a0804a30a8eb560e74aac0e5dc19bfa14b1524d6e0ee0d347c",
        "transforms": "79fbb1c93324a76e938d0b4111dcdc488f7c3934fae3cd82ef8ed89a9c796699",
    },
    "3:1,2,0+3:0,1,2": {
        "fan": "878c61e22d48cbcf9d47a3b91de270f8684ccc6529d85509bc0d836d99cf0df2",
        "reid": "957d90ebefbbf2f0f77782a267979a4f2619db3ee79b35f57b842f8c4d87d372",
        "reid_json": "4b606e49642c6be83f5544a37d44cc7c32f0e84212db4df9780d31188c97076f",
        "reid_tikz": "2497023d2da0a3f58db807f339ed8f7e0ec6d3bbd289b23a8d9bb0db206ad29d",
        "quiver": "fd043a5f97db3c80307dce571b125e9694964f8cb2a40e27629bc33175bf2f48",
        "ssgraph": "076c563431cc6d0c314ec4d77ae4909091121bbc07c2b512299b830efa05db04",
        "transforms": "574deef74a3f77d0d36a669e40895d845adbbaae061a2f9e34a62141b540463a",
    },
    "4:1,3,0+4:0,1,3": {
        "fan": "0046f58e05aef5a1e8c3792bf5d9187e3fafbf478ce4a8b92345299e60da8b00",
        "reid": "a95e823a598340e5359c10133b8756978de27a5e8110cdcdf60684a3b9819afa",
        "reid_json": "92af90a8acced0cc32ba3e7e76e9744b87e488b8782bd974a9b797d92381ea7a",
        "reid_tikz": "549989ec5737a93d9c7e615e589489b5d54ffcac73bca3120ebefdc7bd432009",
        "quiver": "590bbffa8a772d02d9dfa4849284fa46bc1f85ab5b39ac101117d9b7d63c9daa",
        "ssgraph": "090ab1c87462d40489b7c43b92b8f735b53b3e0448363c0fd95dccf5f571c43e",
        "transforms": "d0bd21bcea1351b05ad5b94b1b768dbe1d82be1bd6bf07582966f7e206b15a4a",
    },
    # non-isolated: zero-weight arrows in the Dijkstra rows of its boundary rays
    "12:1,1,10": {
        "fan": "6afa241a2ade9fd83f4e1a54055be4bb16522e027eda2ffe5444fdbd0e15aae6",
        "reid": "c6f99c8bcf7817abdbc37cf6efade3c20438077465dd64f01d0cfeaab73d416f",
        "reid_json": "255c8bca66abe8db0b6ad3b7a50ff20f840bebfed66c269a7e2bfe9a74e73d4b",
        "reid_tikz": "e38c1047192dc606dbe96ea117167171d8a1c81029d8380bdbb2e36eb454393a",
        "quiver": "c282b114ab48b6c38059e6aab8e14df47e631b390be64e678f079922de1d28a2",
        "ssgraph": "93da79f6d3916cc00b9b231a369a0960f97276c2491a21a32c03d0c7aa3d1b9b",
        "transforms": "a7458c43a9a56048d86e184009145281383dc0c6783f20decff8ef00436c1a13",
    },
    # Z/2 x Z/4, a product of two different orders
    "2:1,1,0+4:0,1,3": {
        "fan": "53f2f97aa7a95899f67bc7c7f878d81086ccc722fdda289890f1677bd663d969",
        "reid": "48bc2860c5fead127d6749fb027bd21b8b99ffb6218a5eabebea32e7322fcaaa",
        "reid_json": "110bfc93a042a82c259fb3d778fdaebcf176bf1f2f0372c8de9898667c9d1179",
        "reid_tikz": "9a9f09815f02a3e2d035942daad51258f7638c696b74949a18241ed81ff6fce1",
        "quiver": "d79275d2d950d48922d5524759414ad61ae9ed59e8e61ac0edf09b25e6ce176e",
        "ssgraph": "94584f1b6a0d5d43bbe82b1b6678c5d444f885e4e2f0df87739f7ea6917ffe2a",
        "transforms": "4ab4fa3b60933d73727eec5d9d6e81aef35df89a214663b05a6c8cd0a3324bd2",
    },
    # unreduced generators: the lcm N of the generator orders differs from |G|
    # (N = 4, |G| = 2 and N = 6, |G| = 3)
    "4:0,2,2": {
        "fan": "86272d59cce92d181d1e7b8b4e77cf50e41dc84e7c55faf66f3f4504c984a048",
        "reid": "67cc57bc0c8bc68a9f83e7dc9488ed067c16ed6842d54b028769b9c580e38768",
        "reid_json": "3dc984de0a0a9289b2424d8f2d61aa6afb9fb7ba53b310a0b7dc51ea12f3a0b5",
        "reid_tikz": "4821a572472c2adf18599124075af8fb76e2922fd6ffdc41115da64ee8f90ca3",
        "quiver": "ddbc33c206635cb6c0ae079fa71f4c096a8a9e814932bdf63d8f9012b0082176",
        "ssgraph": "716237a8329fafb15fe5ed19abf3e246ee433d4ea351924afb584568ca1eb788",
        "transforms": "d2da2b7cd7edb4070a9dc0b7a710e7585b320157554e6bf9d15e022fc4978a7e",
    },
    "6:2,2,2": {
        "fan": "ebd4ea58a5075037e656f50a0f9752c5159f0816fa8d4b1506e25b42c46bd2ec",
        "reid": "5394f977cdb2717d28cd6738d3d9dd2f7efa8a6ecbde53f062e1293a3a1ffbfa",
        "reid_json": "783bd2711088cc2f9608476b691f7e258ce888c981b3b286e7db13a7dccadb3b",
        "reid_tikz": "e94f1d50fd0fe5bc9907fa909801b6547ba5a3e1c1fed8666aca64280b3423cb",
        "quiver": "2d312ecb155e42ae0b38b41cea597c3f9e1c6ab51bd1e3aa500c610ecc84500e",
        "ssgraph": "29621a0973c534f1a8c515f8b114c4930f654de15ddad14972e1df565cabfb8d",
        "transforms": "a228aa7a6fc639bd6ace99a7e3b806a894f86f71f4568746a3d57cdb896a211b",
    },
}


@pytest.mark.parametrize(
    "spec,command",
    [(spec, command) for spec, pins in sorted(QUERY_SHA256.items()) for command in pins],
)
def test_query_bytes_are_pinned(capsys, spec, command):
    argv = QUERY_ARGV.get(command, (command,))
    code, out, _ = run(capsys, argv[0], "--group", spec, *argv[1:])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == QUERY_SHA256[spec][command]
