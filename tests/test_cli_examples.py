"""End-to-end: every worked example drives the CLI and asserts exact output."""

import json

from ratdyn.cli import run


def js(argv):
    code, out = run(argv)
    assert code == 0, (argv, code, out)
    return json.loads(out)


def test_orbit_examples():
    data = js(["orbit", "--map", "quad:c=-13", "--point", "3"])
    assert data["tail"] == [] and data["cycle"] == ["3", "-4"]
    data = js(["orbit", "--map", "kb:k=24/7,b=-300/7", "--point", "3"])
    assert data["cycle"] == ["3", "-4", "-3", "4"]
    data = js(["orbit", "--map", "quad:c=0", "--point", "2", "--max-steps", "5"])
    assert data["status"] == "escapes"
    assert data["tail"] == ["2"]


def test_period_examples():
    assert js(["period", "--map", "quad:c=-7/4", "--point", "1/2"])["exact_period"] == 2
    assert js(["period", "--map", "kb:k=4/3,b=-10/3", "--point", "2"])["exact_period"] == 4
    assert js(["period", "--map", "quad:c=0", "--point", "0"])["exact_period"] == 1
    assert js(["period", "--map", "quad:c=0", "--point", "2"])["exact_period"] is None


def test_dynatomic_examples():
    assert (
        js(["dynatomic", "--map", "quad:c=-13", "--n", "1", "--which", "period"])["polynomial"]
        == "z^2 - z - 13"
    )
    assert js(["dynatomic", "--map", "quad:c=-3", "--n", "2"])["polynomial"] == "z^2 + z - 2"
    assert (
        js(["dynatomic", "--map", "kb:k=1,b=1", "--n", "4", "--which", "factor4"])["polynomial"]
        == "2*z^4 + 4*z^2 + 1"
    )


def test_classify_examples():
    data = js(["classify", "--map", "quad:c=-3/4", "--n", "1"])
    assert data["results"][0]["points"] == ["-1/2", "3/2"]
    data = js(["classify", "--map", "quad:c=-3", "--n", "2"])
    assert data["results"][0]["points"] == ["-2", "1"]
    data = js(["classify", "--map", "quad:c=-29/16", "--n", "3"])
    assert data["results"][0]["cycle"] == ["5/4", "-1/4", "-7/4"]
    data = js(["classify", "--map", "kb:k=3,b=-1/2", "--n", "1"])
    assert data["results"][0]["points"] == ["-1/2", "1/2"]
    data = js(["classify", "--map", "kb:k=-5/6,b=-3/2", "--n", "2"])
    assert data["results"][0]["points"] == ["-3", "3"]
    data = js(["classify", "--map", "kb:k=4/3,b=-10/3", "--n", "4"])
    assert data["results"][0]["points"] == ["-2", "-1", "1", "2"]


def test_family_triple_examples():
    cases = [
        (["family", "--kind", "fixed", "--p", "3/2", "--n", "1", "--q", "1"],
         ("5/3", "-3/2", "-3/4")),
        (["family", "--kind", "fixed", "--p", "3", "--n", "2", "--q", "1/2"],
         ("-5/6", "-3/2", "-6")),
        (["family", "--kind", "fixed", "--p", "2", "--n", "4", "--m", "2"],
         ("4/3", "-10/3", "-2")),
        (["family", "--kind", "period2", "--p", "1/2", "--n", "1", "--q", "1"],
         ("3", "-1/2", "-7/4")),
        (["family", "--kind", "period2", "--p", "1", "--n", "2", "--q", "-1"],
         ("-2", "1", "-3")),
        (["family", "--kind", "period2", "--p", "-1", "--n", "4", "--m", "3"],
         ("3/4", "-5/12", "-1")),
        (["family", "--kind", "period3", "--tau", "1", "--i", "2", "--n", "1", "--q", "16"],
         ("-15", "1", "-29/16")),
        (["family", "--kind", "period3", "--tau", "1/2", "--i", "1", "--n", "2", "--q", "9"],
         ("8", "-289/16", "-421/144")),
        (["family", "--kind", "period3", "--tau", "-1/2", "--i", "3", "--n", "4", "--m", "2"],
         ("4/3", "-5/96", "-29/16")),
    ]
    for argv, (k, b, c) in cases:
        data = js(argv)
        assert (data["k"], data["b"], data["c"]) == (k, b, c), argv


def test_intersection_examples():
    data = js(["intersect", "--map1", "quad:c=-13",
               "--map2", "kb:k=24/7,b=-300/7", "--point", "3"])
    assert data["intersection"] == ["-4", "3"] and data["size"] == 2
    data = js(["intersect", "--map1", "quad:c=-301/144",
               "--map2", "kb:k=-115/252,b=31855/36288", "--point", "5/12"])
    assert data["intersection"] == ["-23/12", "5/12"]
    data = js(["intersect", "--map1", "kb:k=4/3,b=-3/10",
               "--map2", "kb:k=-3/4,b=27/20", "--point", "3/5"])
    assert data["intersection"] == ["-3/5", "3/5"]
    data = js(["family", "--kind", "intersect-mixed", "--p", "3", "--sign", "1"])
    assert (data["k"], data["b"], data["c"]) == ("24/7", "-300/7", "-13")
    data = js(["family", "--kind", "intersect-period3", "--tau", "2",
               "--i", "2", "--j", "3", "--sign", "-1"])
    assert (data["k"], data["b"], data["c"]) == ("-115/252", "31855/36288", "-301/144")
    data = js(["family", "--kind", "intersect-kbkb", "--case", "3", "--p", "3/5",
               "--s1", "2", "--s2", "1/3"])
    assert (data["k1"], data["b1"], data["k2"], data["b2"]) == (
        "4/3", "-3/10", "-3/4", "27/20")


def test_kbpair_example():
    data = js(["family", "--kind", "kbpair", "--row", "3", "--p", "3/5",
               "--s1", "2", "--s2", "1/3"])
    assert (data["k1"], data["b1"], data["k2"], data["b2"]) == (
        "4/3", "-3/10", "-3/4", "27/20")
    assert data["periods"] == [4, 4]


def test_shared_examples():
    data = js(["shared", "--q", "101/40"])
    assert [e["c"] for e in data["entries"]] == ["-6161/1600", "-15841/1600", "-7841/1600"]
    assert data["entries"][2]["cycle"] == ["101/40", "59/40", "-109/40"]
    data = js(["shared", "--q", "0"])
    assert [(e["c"], e["period"]) for e in data["entries"]] == [("0", 1), ("-1", 2)]
    data = js(["shared", "--q", "1/2"])
    assert data["entries"][0] == {"c": "1/4", "period": 1, "cycle": ["1/2"]}


def test_simul_examples():
    data = js(["simul", "--a", "1", "--b", "2"])
    assert not data["infinite"]
    assert {(m["k"], m["b"]) for m in data["maps"]} == {
        ("-5/3", "8/3"), ("5/3", "-8/3"), ("4/3", "-10/3"), ("-4/3", "10/3")}
    data = js(["simul", "--a", "3/5", "--b", "-3/5"])
    assert data["infinite"] and len(data["families"]) == 3
    data = js(["simul", "--a", "1", "--b", "1"])
    assert data["infinite"]


def test_scan_examples_small():
    data = js(["scan", "--kind", "kb", "--height-k", "4", "--height-b", "4",
               "--height-point", "50", "--periods", "3"])
    assert data["hits"] == []
    data = js(["scan", "--kind", "quad", "--height-c", "5", "--height-point", "50",
               "--periods", "4"])
    assert data["hits"] == []


def test_quartic_examples():
    for coeffs in ("1,6,7,2,1", "1,-2,-5,-2,1", "1,2,7,6,1"):
        data = js(["quartic", "--coeffs", coeffs, "--height", "300"])
        assert data["affine"] == [["-1", "-1"], ["-1", "1"], ["0", "-1"], ["0", "1"]]
        assert data["infinite_points"] is True
