import json
import os
import re
import sys
from dataclasses import replace

import pytest

import delpezzo.cli as cli
from delpezzo import enumerator, multiplet
from delpezzo.catalog import TYPE_NAMES, build_entry_ladder, entries_for_type
from delpezzo.cli import main
from delpezzo.enumerator import SearchExplosion, canonical_form, classify
from delpezzo.graphs import CanonicalizationError
from delpezzo.lattice import CurveRecord
from delpezzo.multiplet import InternalConsistencyError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_type_a5(capsys):
    code, out, _ = run(capsys, "verify-type", "--type", "A5", "--a", "5")
    assert code == 0
    assert "54/5" in out
    assert "index 5" in out
    assert "certificates: pass" in out


@pytest.mark.parametrize("type_name, a", [("A5", 4), ("B4", 5), ("C4", 6)])
@pytest.mark.parametrize("command", ["verify-type", "dualgraph"])
def test_verify_type_a5_wrong_index(capsys, tmp_path, command, type_name, a):
    # the catalog decides where a type exists; the error names type and index
    out_flag = ["--out", str(tmp_path / "g.dot")] if command == "dualgraph" else []
    code, out, err = run(capsys, command, "--type", type_name, "--a", str(a), *out_flag)
    assert code == 2
    assert out == ""
    assert f"type {type_name} does not exist at index {a}" in err
    assert not (tmp_path / "g.dot").exists()


def test_verify_type_covers_both_double_point_configurations(capsys):
    code, out, _ = run(capsys, "verify-type", "--type", "II", "--a", "7")
    assert code == 0
    assert "II_1" in out and "II_2" in out


def test_verify_type_unknown(capsys):
    code, _, err = run(capsys, "verify-type", "--type", "Z9", "--a", "4")
    assert code == 2


def test_toric_family_one(capsys):
    code, out, _ = run(capsys, "toric", "--family", "I", "--a", "4")
    assert code == 0
    assert "23/2" in out
    assert "(0, -1)" in out
    assert "relative anticanonical coefficient 3" in out
    assert "index 4" in out


def test_toric_bad_family(capsys):
    code, _, _ = run(capsys, "toric", "--family", "X", "--a", "4")
    assert code == 2


def test_toric_json_error_channel(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, err = run(capsys, "toric", "--family", "P113", "--a", "4", "--json", str(out_path))
    assert code == 2
    assert json.loads(err.strip()) == {"error": "family P113 is the index-3 model; pass --a 3"}


def test_classify_json_and_exit(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code, out, _ = run(capsys, "classify", "--a", "4", "--json", str(out_path))
    assert code == 0
    assert "catalog match: yes" in out
    data = json.loads(out_path.read_text())
    assert data["catalog_match"] is True
    assert data["a"] == 4
    assert len(data["survivors"]) == 14


def test_classify_low_index_warns(capsys, tmp_path):
    # no catalog comparison below index 4: neither a match nor a failure
    out_path = tmp_path / "r.json"
    for a in (2, 3):
        code, out, _ = run(capsys, "classify", "--a", str(a), "--json", str(out_path))
        assert code == 0
        assert "outside the theorem hypotheses" in out
        assert "catalog match: not tested" in out
        assert "catalog match: yes" not in out
        assert json.loads(out_path.read_text())["catalog_match"] is None


def test_dualgraph_dot(capsys, tmp_path):
    out_path = tmp_path / "g.dot"
    code, _, _ = run(capsys, "dualgraph", "--type", "B4", "--a", "4", "--format", "dot", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("graph dual {")
    assert 'label="sigma\\n(s=-6, c=3)"' in text


def test_dualgraph_json(capsys, tmp_path):
    out_path = tmp_path / "g.json"
    code, _, _ = run(capsys, "dualgraph", "--type", "C4", "--a", "4", "--format", "json", "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    names = {v["name"] for v in data["vertices"]}
    assert names == {"sigma", "l_1", "Gamma_P2_1", "Gamma_P2_2"}
    assert len(data["edges"]) == 2


B4_DOT = """\
graph dual {
  v0 [label="sigma\\n(s=-6, c=3)"];
  v1 [label="Gamma_P1_1\\n(s=-2, c=1)"];
  v2 [label="Gamma_P1_2\\n(s=-2, c=2)"];
  v0 -- v2;
  v1 -- v2;
}
"""

C4_JSON = """\
{
  "edges": [
    [
      0,
      2
    ],
    [
      2,
      3
    ]
  ],
  "vertices": [
    {
      "coeff": 3,
      "name": "sigma",
      "self_intersection": -6
    },
    {
      "coeff": 2,
      "name": "l_1",
      "self_intersection": -4
    },
    {
      "coeff": 2,
      "name": "Gamma_P2_1",
      "self_intersection": -2
    },
    {
      "coeff": 1,
      "name": "Gamma_P2_2",
      "self_intersection": -2
    }
  ]
}
"""


def test_dualgraph_exports_are_byte_stable(capsys, tmp_path):
    # exact bytes, vertex and edge order included
    dot, js = tmp_path / "g.dot", tmp_path / "g.json"
    assert run(capsys, "dualgraph", "--type", "B4", "--a", "4", "--out", str(dot))[0] == 0
    assert dot.read_text() == B4_DOT
    code, _, _ = run(
        capsys, "dualgraph", "--type", "C4", "--a", "4", "--format", "json", "--out", str(js)
    )
    assert code == 0
    assert js.read_text() == C4_JSON


def _verify_type_text(name, volume, graphs):
    # the verify-type text of a type at a = 6 whose every certificate passes
    return "".join(
        f"{name} configuration {k}/{len(graphs)}\n  volume {volume}  index 6\n"
        "  certificates: pass\n  identities: pass\n  index certificate: pass\n"
        f"  local checks: pass\n  canonical key: a=6|v={volume}|i=6|g={g}\n"
        for k, g in enumerate(graphs, 1)
    )


SIGMA_AT_6_DOT = """\
graph dual {
  v0 [label="sigma\\n(s=-12, c=5)"];
}
"""

SIGMA_AT_6_JSON = """\
{
  "edges": [],
  "vertices": [
    {
      "coeff": 5,
      "name": "sigma",
      "self_intersection": -12
    }
  ]
}
"""


def test_multi_point_configurations_print_stable_bytes(capsys):
    # III (2,1), IV (3,1) and IV (2,1,1) list their points smallest first;
    # these bytes were recorded while the catalog listed them largest first
    s, t = "(-12, 5)", "(-2, 0)"
    expected = {
        "III": _verify_type_text(
            "III", "40/3", [f"(({s}, {t}, {t}), ((1, 2),))", f"(({s}, {t}), ())", f"(({s},), ())"]
        ),
        "IV": _verify_type_text(
            "IV",
            "37/3",
            [
                f"(({s}, {t}, {t}, {t}), ((1, 3), (2, 3)))",
                f"(({s}, {t}, {t}), ((1, 2),))",
                f"(({s}, {t}, {t}), ())",
                f"(({s}, {t}), ())",
                f"(({s},), ())",
            ],
        ),
    }
    for type_name, text in expected.items():
        assert run(capsys, "verify-type", "--type", type_name, "--a", "6") == (0, text, "")
    for type_name, config in (("III", "2"), ("IV", "2"), ("IV", "4")):
        for fmt, payload in (("dot", SIGMA_AT_6_DOT), ("json", SIGMA_AT_6_JSON)):
            argv = ["dualgraph", "--type", type_name, "--a", "6", "--config", config]
            assert run(capsys, *argv, "--format", fmt, "--out", "-") == (0, payload, "")


def test_dualgraph_config_out_of_range(capsys, tmp_path):
    out_path = tmp_path / "g.dot"
    for type_name, config in (("II", "3"), ("III", "4"), ("O", "0")):
        code, _, err = run(
            capsys, "dualgraph", "--type", type_name, "--a", "6", "--config", config,
            "--out", str(out_path),
        )
        assert code == 2
        assert "--config" in err
    assert not out_path.exists()


def test_dualgraph_config_selects_the_configuration(capsys, tmp_path, monkeypatch):
    # the E0 graph is the same for every configuration of a type, so record
    # which catalog configuration the command builds
    import delpezzo.cli as cli

    built = []

    def recording(entry, a, config):
        built.append((entry.name, config))
        return build_entry_ladder(entry, a, config)

    monkeypatch.setattr(cli, "build_entry_ladder", recording)
    for type_name, config in (("II", "1"), ("II", "2"), ("III", "3"), ("A5", "2")):
        code, _, _ = run(
            capsys, "dualgraph", "--type", type_name, "--a", "5", "--config", config,
            "--out", str(tmp_path / "g.dot"),
        )
        assert code == 0
    assert built == [("II_1", 0), ("II_2", 0), ("III", 2), ("A5", 1)]


def test_dualgraph_draws_the_graph_of_the_classified_survivor(capsys):
    # the catalog route (dualgraph builds the entry's ladder) and the search
    # route (classify's survivor record) draw the same graph of a configuration
    for a in range(4, 25):
        drawn = {s["key"]: s["dual_graph"] for s in classify(a).survivors}
        for type_name in TYPE_NAMES:
            try:
                entries = entries_for_type(a, type_name)
            except KeyError:
                continue
            configs = [(entry, idx) for entry in entries for idx in range(len(entry.configs))]
            for number, (entry, idx) in enumerate(configs, 1):
                key = canonical_form(build_entry_ladder(entry, a, idx).bottom_pair)
                code, out, _ = run(
                    capsys, "dualgraph", "--type", type_name, "--a", str(a),
                    "--config", str(number), "--out", "-",
                )
                assert code == 0 and out == drawn[key], (a, type_name, number)


def test_audit_cli(capsys):
    code, out, _ = run(capsys, "audit", "--a", "4", "--nmax", "8")
    assert code == 0
    assert "clean: yes" in out


def test_audit_cli_below_index_4(capsys, tmp_path):
    # as in classify, no catalog comparison below index 4: the survivors are
    # neither in nor outside the catalog, and only inconsistencies exit 1
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "audit", "--a", "3", "--nmax", "6", "--json", str(out_path))
    assert (code, err) == (0, "")
    assert " survivors matching the catalog: not tested\n survivors outside the catalog: not tested\n" in out
    assert "OUTSIDE" not in out and "clean: yes" in out
    data = json.loads(out_path.read_text())
    assert data["searched"] == 19 and data["inconsistencies"] == []
    assert data["survivors_in_catalog"] is None and data["survivors_outside"] is None and data["clean"]
    code, out, err = run(capsys, "audit", "--a", "2", "--nmax", "6")
    assert (code, err) == (1, "")
    assert out.count(" inconsistency: ") == 5 and "clean: no" in out


def test_audit_with_h0(capsys):
    code, out, _ = run(capsys, "audit", "--a", "5", "--nmax", "10", "--h0", "5")
    assert code == 0
    assert "survivors outside the catalog: 0" in out


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--nmax", "-3"], "n_max must be nonnegative"),
        (["--nmax", "3", "--h0", "99"], "h0 must lie in 1..9"),
        (["--nmax", "3", "--h0", "0"], "h0 must lie in 1..9"),
        (["--nmax", "466033"], "the sweep has 4194306 (n, h0) windows, more than 4194304"),
        (
            ["--nmax", "4194304", "--h0", "5"],
            "the sweep has 4194305 (n, h0) windows, more than 4194304",
        ),
    ],
)
def test_audit_rejects_vacuous_sweeps(capsys, tmp_path, flags, message):
    # these sweeps would cover no cell and report clean, or run for hours
    code, out, err = run(capsys, "audit", "--a", "5", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "audit", "--a", "5", *flags, "--json", str(out_path))
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": message}
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--a", "4"], "--json"),
        (["audit", "--a", "4", "--nmax", "8"], "--json"),
        (["toric", "--family", "I", "--a", "4"], "--json"),
        (["dualgraph", "--type", "B4", "--a", "4"], "--out"),
    ],
)
@pytest.mark.parametrize(
    "target, reason", [("missing/r.out", "No such file or directory"), (".", "Is a directory")]
)
def test_unwritable_output_exits_two(capsys, tmp_path, argv, flag, target, reason):
    path = str(tmp_path / target)
    code, _, err = run(capsys, *argv, flag, path)
    message = f"cannot write {path}: {reason}"
    assert code == 2
    if flag == "--json":
        assert json.loads(err) == {"error": message}
    else:
        assert err == f"error: {message}\n"


def test_index_too_small(capsys):
    code, _, err = run(capsys, "classify", "--a", "1")
    assert code == 2


def test_classify_refuses_an_index_over_the_cap_before_it_starts(capsys, monkeypatch, tmp_path):
    def unreachable(a):
        raise AssertionError("classify ran")

    monkeypatch.setattr(cli, "classify", unreachable)
    a = str(enumerator.CLASSIFY_INDEX_CAP + 1)
    message = f"classify takes an index of at most {enumerator.CLASSIFY_INDEX_CAP}"
    assert run(capsys, "classify", "--a", a) == (2, "", f"error: {message}\n")
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, "classify", "--a", a, "--json", str(out_path))
    assert (code, out, json.loads(err)) == (2, "", {"error": message})
    assert not out_path.exists()


def test_missing_flags_exit_two(capsys):
    assert main(["classify"]) == 2
    capsys.readouterr()


def test_verification_failure_exits_one(capsys, monkeypatch):
    # force a certificate failure to exercise the nonzero verification path
    from delpezzo.multiplet import CertificateReport

    monkeypatch.setattr(
        multiplet, "certify_ladder", lambda ladder: CertificateReport(False, ("forced",))
    )
    code, out, _ = run(capsys, "verify-type", "--type", "O", "--a", "4")
    assert code == 1
    assert "FAIL forced" in out


_O_AT_4_KEY = "  canonical key: a=4|v=25/2|i=4|g=(((-8, 3),), ())"


def test_verify_type_reads_not_run_after_a_failed_check(capsys, monkeypatch):
    # a failed ladder certificate stops certify_survivor: no volume is taken
    # from a ladder whose descent failed
    from delpezzo.multiplet import CertificateReport

    monkeypatch.setattr(
        multiplet, "certify_ladder", lambda ladder: CertificateReport(False, ("forced",))
    )
    lines = [
        "O configuration 1/1",
        "  volume not run  index not run",
        "  certificates: FAIL forced",
        "  identities: not run",
        "  index certificate: not run",
        "  local checks: not run",
        _O_AT_4_KEY,
    ]
    assert run(capsys, "verify-type", "--type", "O", "--a", "4") == (1, "\n".join(lines) + "\n", "")


def _fail_alone(monkeypatch, check):
    """Make one check of ``certify_survivor`` after the index fail on its own."""
    if check == "degrees":
        # the bottom model gains a tracked curve of class -L0, which L0 meets
        # in -L0^2 < 0; it is not L0-orthogonal, so the contracted graph, the
        # volume, the index and every other check keep their values
        real = multiplet.Ladder.bottom_pair.func

        def bottom_pair(ladder):
            pair = real(ladder)
            bad = CurveRecord(len(pair.model.curves), "tampered", -pair.L0)
            return replace(pair, model=replace(pair.model, curves=(*pair.model.curves, bad)))

        monkeypatch.setattr(multiplet.Ladder, "bottom_pair", property(bottom_pair))
        return
    name, value = {
        "identities": ("identities_check", False),
        "index_certificate": ("certificate_index_is_a", False),
        "local": ("local_lemma_checks", ["level 1: forced"]),
    }[check]
    monkeypatch.setattr(multiplet, name, lambda _: value)


@pytest.mark.parametrize(
    "check, message, lines",
    [
        (
            "identities",
            "identity re-verification failed on a survivor",
            [
                "  identities: FAIL identity re-verification failed",
                "  index certificate: not run",
                "  local checks: not run",
            ],
        ),
        (
            "degrees",
            "fundamental class meets curve tampered in -",
            [
                "  identities: pass",
                "  degrees: FAIL fundamental class meets curve tampered in -200",
                "  index certificate: not run",
                "  local checks: not run",
            ],
        ),
        (
            "index_certificate",
            "index certificate failed on a survivor",
            [
                "  identities: pass",
                "  index certificate: FAIL index certificate failed",
                "  local checks: not run",
            ],
        ),
        (
            "local",
            "local check failed at level 1: forced on a survivor",
            [
                "  identities: pass",
                "  index certificate: pass",
                "  local checks: FAIL local check failed at level 1: forced",
            ],
        ),
    ],
    ids=["identities", "degrees", "index_certificate", "local"],
)
def test_a_survivor_that_fails_a_check_after_the_index_is_an_engine_fault(
    capsys, monkeypatch, check, message, lines
):
    # classify rejects a candidate only on the ladder certificate, the volume
    # or the index; a later failure is a fault of the engine, exit 3, while
    # verify-type prints the failure, "not run" after it, and exits 1
    _fail_alone(monkeypatch, check)
    with pytest.raises(InternalConsistencyError, match=re.escape(message)):
        classify(4)
    code, out, err = run(capsys, "classify", "--a", "4")
    assert (code, out) == (3, "")
    assert err.startswith(f"error: {message}")
    expected = ["O configuration 1/1", "  volume 25/2  index 4", "  certificates: pass", *lines, _O_AT_4_KEY]
    assert run(capsys, "verify-type", "--type", "O", "--a", "4") == (1, "\n".join(expected) + "\n", "")


@pytest.mark.parametrize("error", [SearchExplosion, InternalConsistencyError, CanonicalizationError])
@pytest.mark.parametrize("command", ["classify", "audit"])
def test_engine_errors_exit_three(capsys, monkeypatch, tmp_path, error, command):
    def failing(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli, command, failing)
    argv = [command, "--a", "4"] + (["--nmax", "8"] if command == "audit" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (3, "", "error: forced\n")
    out_path = tmp_path / "r.json"
    code, out, err = run(capsys, *argv, "--json", str(out_path))
    assert (code, out) == (3, "")
    assert json.loads(err) == {"error": "forced"}
    assert not out_path.exists()


def _argument_grid(out):
    """Every subcommand over a in -3..12, with bad values of each flag that
    takes one, with and without an output file."""
    indices = [str(a) for a in range(-3, 13)]
    types = [*TYPE_NAMES, "Z9", ""]
    families = [*cli._FAMILIES, "X"]
    outputs = [[], ["--json", out]]
    yield from ([], ["--help"], ["bogus"], ["classify", "--help"])
    for command in ("classify", "verify-type", "toric", "dualgraph", "audit"):
        yield [command]
    for a in [*indices, "x"]:
        for extra in outputs:
            yield ["classify", "--a", a, *extra]
        for t in types:
            yield ["verify-type", "--type", t, "--a", a]
        for family in families:
            for extra in outputs:
                yield ["toric", "--family", family, "--a", a, *extra]
        yield ["dualgraph", "--type", "O", "--a", a, "--format", "svg", "--out", "-"]
        for t in types:
            for config, fmt, target in (
                ("1", "dot", "-"), ("1", "json", out), ("2", "dot", "-"), ("0", "json", out), ("x", "dot", "-")
            ):
                yield ["dualgraph", "--type", t, "--a", a, "--format", fmt,
                       "--config", config, "--out", target]
        for nmax in ("1", "-1", "x"):
            for h0 in ([], ["--h0", "1"], ["--h0", "0"], ["--h0", "99"], ["--h0", "x"]):
                for extra in outputs:
                    yield ["audit", "--a", a, "--nmax", nmax, *h0, *extra]


def test_argument_grid_ends_in_an_exit_code(capsys, tmp_path):
    out = str(tmp_path / "r.out")
    codes = {}
    for argv in _argument_grid(out):
        code = main(argv)
        capsys.readouterr()
        assert code in (0, 1, 2, 3), argv
        codes[code] = codes.get(code, 0) + 1
    assert codes[0] > 100 and codes[2] > 1000


@pytest.mark.parametrize("buffering", [1, -1])
def test_a_closed_pipe_ends_in_141_without_a_traceback(capsys, monkeypatch, buffering):
    # `delpezzo verify-type ... | head -1`: the reader has gone before a write
    # (line-buffered) or before the final flush (block-buffered) reaches it
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        assert main(["verify-type", "--type", "IV", "--a", "30"]) == 141
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("buffering", [1, -1])
@pytest.mark.parametrize("error, code", [(None, 2), (InternalConsistencyError, 3)])
def test_a_closed_stderr_keeps_the_exit_code(monkeypatch, buffering, error, code):
    # `delpezzo classify --a 1 2>&1 | true`: the error message finds no
    # reader, and the exit code must still say which error it was
    if error:
        def failing(a):
            raise error("forced")

        monkeypatch.setattr(cli, "classify", failing)
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as closed:
        monkeypatch.setattr(sys, "stderr", closed)
        assert main(["classify", "--a", "4" if error else "1"]) == code
