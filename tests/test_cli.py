"""Command-line interface: subcommands, exit codes, file formats."""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import fillperm
import fillperm.census
import fillperm.cli
import fillperm.surgery
import fillperm.twist
from fillperm.cli import build_parser, main, read_filling_file, write_filling_file
from fillperm import (
    FillingError,
    FillingPermutation,
    Permutation,
    assemble,
    attachment_site,
    census_records,
    generators,
    read_census,
    validate,
    write_census,
)

from conftest import FIXTURE_TEXTS, SIGMA_F6, ZETA, perm

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, (text, n) in FIXTURE_TEXTS.items():
        p = tmp_path / f"{name}.fp"
        p.write_text(f"n={n}\n{text}\n")
        paths[name] = str(p)
    f1 = tmp_path / "f1.fp"
    f1.write_text("(1,2,3,4)\n")
    paths["f1"] = str(f1)
    return paths


def test_public_names():
    # the package's surface; adding or removing a name changes this list
    names = sorted(
        k for k, v in vars(fillperm).items()
        if not k.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == [
        "AlternationViolation", "AssemblyMap", "AttachmentSite", "BoundExceeded",
        "CaseGap", "CensusRecord", "CycleParseError", "Decomposition",
        "EquationViolation", "FillingError", "FillingPermutation", "Permutation",
        "RoundTripReport", "SizeNotMultipleOf4", "SurgeryError", "ZType",
        "are_equivalent", "assemble", "attachment_site", "census_records",
        "decomposition_at", "disassemble", "enumerate_filling", "extract",
        "find_decompositions", "generators", "read_census",
        "round_trip_check", "tau", "twist_group", "upper_bound", "validate",
        "write_census",
    ]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["zeta"])
    assert code == 0
    assert out.strip() == "valid, n=6, c=4, genus=2"


def test_validate_invalid_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fp"
    bad.write_text("n=1\n(1,3,2,4)\n")
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert out.startswith("invalid:")


def test_validate_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.fp"
    bad.write_text("n=1\n(1,2,)\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error:" in err


def test_validate_record_format(files, capsys):
    code, out, _ = run(capsys, "validate", "--format", "record", files["zeta"])
    assert code == 0
    assert json.loads(out) == {"valid": True, "n": 6, "c": 4, "genus": 2}


def test_empty_body_exits_2_whatever_the_header(tmp_path, capsys):
    # an empty pair is bad input, not a permutation that fails validation
    path = tmp_path / "empty.fp"
    for text in ("n=0\n", "n=3\n", ""):
        path.write_text(text)
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: {path}: no permutation found\n"


def _refuse_builds(monkeypatch):
    # both ways from text to a permutation of `size` labels fail the test
    def build(cls, source, size):
        raise AssertionError(f"a permutation of {size} labels was built")

    monkeypatch.setattr(Permutation, "from_cycle_string", classmethod(build))
    monkeypatch.setattr(Permutation, "from_cycles", classmethod(build))


def test_header_beyond_the_body_exits_2(tmp_path, capsys, monkeypatch):
    # labels above the body's largest would be fixed points, so the header is
    # refused before a permutation of 4n labels is built
    _refuse_builds(monkeypatch)
    path = tmp_path / "huge.fp"
    path.write_text(f"n={10**12}\n(1,2)\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: n={10**12} needs labels up to {4 * 10**12}, the largest is 2\n"


def test_body_naming_too_few_labels_exits_2(tmp_path, capsys, monkeypatch):
    # without a header n comes from the largest label; the labels the body
    # does not name would be fixed points, so the file is refused before a
    # permutation of 4n labels is built
    _refuse_builds(monkeypatch)
    path = tmp_path / "sparse.fp"
    path.write_text("(1,4000000000000)\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: n={10**12} needs {4 * 10**12} distinct labels, the body names 2\n"
    # with a header as well
    path.write_text("n=2\n(1,2,3,4,5,6,8)\n")
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: n=2 needs 8 distinct labels, the body names 7\n"


@pytest.mark.parametrize("body, message", [
    # the notation is checked before the labels are counted: the largest
    # label of "(1,2,)" is below 4n, but its missing symbol is reported
    ("n=1\n(1,2,)\n", "expected a symbol but found ')' (at position 5)"),
    ("(1,2)(3,4", "expected ',' or ')' but found 'end of input' (at position 9)"),
    # well-formed: the labels are counted before the symbols are checked
    ("n=2\n(1,99)\n", "n=2 needs 8 distinct labels, the body names 2"),
    ("(0,1,2,3)", "symbol 0 out of range 1..4 (at position 1)"),
    ("n=1\n(1,2)(3,4,4)\n", "repeated symbol 4 in cycle (at position 10)"),
    ("n=2\n(1,2,3,4,5,6,7,99)\n", "symbol 99 out of range 1..8 (at position 15)"),
])
def test_malformed_body_reports_its_first_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.fp"
    path.write_text(body)
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: {path}: {message}\n"


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.fp")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("content", [
    b"\xff",  # not UTF-8
    b"n=" + b"1" * 5000 + b"\n(1,2,3,4)\n",  # a header beyond int()'s digit limit
], ids=["not-utf8", "long-header"])
@pytest.mark.parametrize("command", ["info", "equivalent"])
def test_unreadable_pair_file_exits_2(files, tmp_path, capsys, command, content):
    # decoding and the header are part of reading the file: bad input, not a
    # fault of the program
    path = tmp_path / "bad.fp"
    path.write_bytes(content)
    argv = [command, str(path)] if command == "info" else [command, files["zeta"], str(path)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_info_reports_piece(files, capsys):
    code, out, _ = run(capsys, "info", files["zeta"])
    assert code == 0
    assert "genus=2" in out
    assert "green vertices: {5,6,19,20} {11,12,13,14}" in out
    assert "type (4,8,4,8)" in out


def test_info_bigon_piece_has_no_piece_line(capsys):
    # four regions and a green vertex, but two regions are bigons: no type
    code, out, _ = run(capsys, "info", str(DATA / "bigon_piece.pair"))
    assert code == 0
    assert out.splitlines()[0] == "n=6 c=4 genus=2 minimal=False"
    assert "regions: (1,4,9,12) (2,13) " in out
    assert "piece:" not in out
    code, out, _ = run(capsys, "info", "--format", "record", str(DATA / "bigon_piece.pair"))
    assert code == 0 and "z_piece" not in json.loads(out)


def test_assemble_refuses_bigon_piece_exits_2(capsys):
    code, out, err = run(
        capsys, "assemble", "--host", str(DATA / "sigma_f.pair"),
        "--piece", str(DATA / "bigon_piece.pair"), "--i", "3",
    )
    assert code == 2 and out == ""
    assert err == "error: piece is not an attachable (Z) piece\n"


def test_info_comment_and_inferred_n(files, capsys):
    code, out, _ = run(capsys, "info", files["f1"])
    assert code == 0
    assert "n=1 c=1 genus=1 minimal=True" in out


def test_equivalent_not(files, capsys):
    code, out, _ = run(capsys, "equivalent", files["zeta"], files["zeta_prime"])
    assert code == 1
    assert out.splitlines()[0] == "NOT-EQUIVALENT"


def test_equivalent_witness(files, tmp_path, capsys):
    other = tmp_path / "f1b.fp"
    other.write_text("(1,4,3,2)\n")
    code, out, _ = run(capsys, "equivalent", files["f1"], str(other))
    assert code == 0
    assert out.strip()  # a witness in cycle notation


NOT_MINIMAL = (
    "note: inputs are not minimal; a witness certifies relabeling equivalence"
    " (sufficient, not necessary)"
)
ZETA_WITNESS = {
    "size": 24,
    "cycles": [[1, 4, 7, 10], [2, 5, 8, 11], [3, 6, 9, 12],
               [13, 16, 19, 22], [14, 17, 20, 23], [15, 18, 21, 24]],
}


@pytest.mark.parametrize(
    "other, code, text, payload",
    [
        ("zeta_prime", 1, "NOT-EQUIVALENT", {"equivalent": False}),
        (
            "relabeled", 0,
            "(1,4,7,10)(2,5,8,11)(3,6,9,12)(13,16,19,22)(14,17,20,23)(15,18,21,24)",
            {"equivalent": True, "witness": ZETA_WITNESS},
        ),
    ],
)
def test_equivalent_states_the_caveat_on_non_minimal_pairs(
    files, tmp_path, capsys, other, code, text, payload
):
    # zeta against zeta' (no relabeling) and against zeta conjugated by
    # kappa^2 delta mu (the least witness is printed); both have four regions
    kappa, delta, _, mu = generators(6)
    relabeled = perm(ZETA, 24).conjugated_by(kappa**2 * delta * mu)
    path = tmp_path / "relabeled.fp"
    path.write_text(f"n=6\n{relabeled.cycle_string()}\n")
    files = {**files, "relabeled": str(path)}
    got = run(capsys, "equivalent", files["zeta"], files[other])
    assert got == (code, f"{text}\n{NOT_MINIMAL}\n", "")
    got = run(capsys, "equivalent", files["zeta"], files[other], "--format", "record")
    want = json.dumps({**payload, "caveat": NOT_MINIMAL}, separators=(",", ":"))
    assert got == (code, want + "\n", "")


def test_equivalent_beyond_the_byte_bound_exits_2(files, capsys, monkeypatch):
    # a pair file at n = 64 would name 256 labels, so the bound is lowered
    # below zeta's n = 6 instead
    monkeypatch.setattr(fillperm.twist, "BYTE_MAX_N", 5)
    code, out, err = run(capsys, "equivalent", files["zeta"], files["zeta"])
    assert (code, out) == (2, "")
    assert err.startswith("error: n=6 exceeds 5")


def test_assemble_matches_fixture(files, tmp_path, capsys):
    out_path = tmp_path / "f6.fp"
    code, out, _ = run(
        capsys, "assemble", "--host", files["sigma_f"], "--piece", files["sigma_z"],
        "--i", "3", "--out", str(out_path),
    )
    assert code == 0
    sigma, n = read_filling_file(str(out_path))
    assert n == 11
    assert sigma == perm(SIGMA_F6, 44)


def test_assemble_record_matches_pinned(capsys):
    # zeta's green crossing has the other chirality from every crossing of
    # sigma_F, and site (1, 10) is the wrap-around site; a torus host has no
    # chirality, and its piece shares the site arc at both ends
    for host, pinned in [
        ("sigma_f.pair", "sigma_f_zeta_1.assemble.json"),
        ("torus.pair", "torus_zeta_1.assemble.json"),
    ]:
        code, out, _ = run(
            capsys, "assemble", "--host", str(DATA / host),
            "--piece", str(DATA / "zeta.pair"), "--i", "1", "--format", "record",
        )
        assert code == 0
        assert out == (DATA / pinned).read_text(), host


def test_assemble_and_extract_records_read_cycles_off_regions(capsys, monkeypatch):
    # the payload's cycles are the regions the genus and piece checks walked;
    # a second walk through Permutation.to_record is not needed
    def to_record(self):
        raise AssertionError("walked the cycles a second time")

    monkeypatch.setattr(fillperm.Permutation, "to_record", to_record)
    code, out, _ = run(
        capsys, "assemble", "--host", str(DATA / "sigma_f.pair"),
        "--piece", str(DATA / "zeta.pair"), "--i", "1", "--format", "record",
    )
    assert code == 0
    assert out == (DATA / "sigma_f_zeta_1.assemble.json").read_text()
    code, out, _ = run(
        capsys, "extract", str(DATA / "sigma_f6.pair"), "--format", "record",
        "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5",
    )
    assert code == 0
    assert out == (DATA / "sigma_f6.extract_k5.json").read_text()


def test_assemble_unwritable_out_exits_2(files, tmp_path, capsys):
    out_path = tmp_path / "missing" / "f6.fp"
    code, out, err = run(
        capsys, "assemble", "--host", files["sigma_f"], "--piece", files["sigma_z"],
        "--i", "3", "--out", str(out_path),
    )
    assert code == 2 and out == ""
    assert err == f"error: {out_path}: No such file or directory\n"


def test_assemble_explicit_j_mismatch(files, capsys):
    code, _, err = run(
        capsys, "assemble", "--host", files["sigma_f"], "--piece", files["sigma_z"],
        "--i", "3", "--j", "4",
    )
    assert code == 2 and "error:" in err


def test_decompose_lists_witnesses(files, capsys):
    code, out, _ = run(capsys, "decompose", files["sigma_f"], "--k", "2")
    assert code == 0
    assert "k=2 l=1 x=1 a=4 y=11 b=14 type=(8,4,8,4)" in out


def test_decompose_none(files, capsys):
    code, out, _ = run(capsys, "decompose", files["f1"])
    assert code == 1
    assert out.strip() == "NO-DECOMPOSITION"


def test_decompose_record(files, capsys):
    code, out, _ = run(capsys, "decompose", "--format", "record", files["sigma_f6"], "--k", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["decompositions"] == [
        {"k": 3, "l": 3, "x": 3, "a": 38, "y": 39, "b": 2, "type": [12, 4, 12, 4]}
    ]


def test_extract_prints_decorated(files, capsys):
    code, out, _ = run(
        capsys, "extract", files["sigma_f6"],
        "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5",
    )
    assert code == 0
    assert "(38',35,8,17,22,23)" in out
    assert "(16,41,42,1')" in out
    assert "remainder: n=1" in out


def test_extract_bad_anchors(files, capsys):
    code, out, _ = run(
        capsys, "extract", files["sigma_f6"],
        "--x", "1", "--a", "2", "--y", "23", "--b", "24", "--k", "3",
    )
    assert code == 1
    assert out.strip() == "NOT-A-DECOMPOSITION"


def test_extract_non_separating_anchors_exits_1(tmp_path, capsys, sigma_f, zeta):
    # these anchors close a genus-2 type and their spans do not nest, but
    # their chords do not cut off a piece: a negative answer, not a crash
    fp = assemble(sigma_f, zeta, attachment_site(sigma_f, 1))
    path = tmp_path / "f_zeta_1.fp"
    write_filling_file(str(path), fp)
    code, out, err = run(
        capsys, "extract", str(path),
        "--x", "34", "--a", "3", "--y", "6", "--b", "31", "--k", "2",
    )
    assert (code, out.strip(), err) == (1, "NOT-A-DECOMPOSITION", "")


@pytest.mark.parametrize(
    "pair, anchors, pinned",
    [
        ("sigma_f6.pair", ("23", "38", "1", "16", "5"), "sigma_f6.extract_k5.json"),
        ("sigma_f.pair", ("1", "4", "11", "14", "2"), "sigma_f.extract_k2.json"),
        # the two witnesses of sigma_F6 # zeta' at site 5 that leave a host of
        # genus l > 1; k = 2 gives back zeta' and exactly sigma_F6
        (
            "sigma_f6_zeta_prime_5.pair",
            ("5", "10", "45", "50", "2"),
            "sigma_f6_zeta_prime_5.extract_k2.json",
        ),
        (
            "sigma_f6_zeta_prime_5.pair",
            ("55", "2", "3", "54", "5"),
            "sigma_f6_zeta_prime_5.extract_k5.json",
        ),
    ],
)
def test_extract_record_matches_pinned(capsys, pair, anchors, pinned):
    x, a, y, b, k = anchors
    code, out, _ = run(
        capsys, "extract", str(DATA / pair), "--format", "record",
        "--x", x, "--a", a, "--y", y, "--b", b, "--k", k,
    )
    assert code == 0
    assert out == (DATA / pinned).read_text()


@pytest.mark.parametrize("pair", ["g5_stab4", "sigma_f6_zeta_prime_5", "g9_f6_z"])
def test_equivalent_record_matches_pinned(capsys, pair):
    # g5_stab4's orbit has a stabilizer of order 4, so four relabelings carry
    # it to its copy and the pin fixes which one is printed
    code, out, _ = run(
        capsys, "equivalent", str(DATA / f"{pair}.pair"),
        str(DATA / f"{pair}_relabeled.pair"), "--format", "record",
    )
    assert code == 0
    assert out == (DATA / f"{pair}.equivalent.json").read_text()


@pytest.mark.parametrize("pair", ["sigma_f6", "zeta"])
def test_info_record_matches_pinned(capsys, pair):
    # the vertices and green vertices walk every crossing's orbit
    code, out, _ = run(capsys, "info", str(DATA / f"{pair}.pair"), "--format", "record")
    assert code == 0
    assert out == (DATA / f"{pair}.info.json").read_text()


@pytest.mark.parametrize("pair", ["sigma_f6", "sigma_f6_zeta_prime_5"])
def test_decompose_record_matches_pinned(capsys, pair):
    # sigma_F6 # zeta' at site 5 has four candidates whose runs are disjoint
    # but not closed under opp; its pin lists 56 witnesses
    code, out, _ = run(capsys, "decompose", str(DATA / f"{pair}.pair"), "--format", "record")
    assert code == 0
    assert out == (DATA / f"{pair}.decompose.json").read_text()


@pytest.mark.parametrize("pair", ["sigma_f6", "sigma_f6_zeta_prime_5", "g9_f6_z"])
def test_roundtrip_record_matches_pinned(capsys, pair):
    # sigma_F6 # zeta' (n = 15) has 54 inexact round trips of its 56 and
    # sigma_F6 # sigma_Z (n = 17) 60 distinct (p, q) among its 62, so the
    # pins hold the closed form kappa^-p delta^-q at many powers
    code, out, _ = run(capsys, "roundtrip", str(DATA / f"{pair}.pair"), "--format", "record")
    assert code == 0
    assert out == (DATA / f"{pair}.roundtrip.json").read_text()


TEXT_PINS = [
    (("info", "sigma_f6.pair"), "sigma_f6.info.txt"),
    (("decompose", "sigma_f6.pair"), "sigma_f6.decompose.txt"),
    (("roundtrip", "sigma_f6.pair"), "sigma_f6.roundtrip.txt"),
    (
        ("extract", "sigma_f6.pair", "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5"),
        "sigma_f6.extract_k5.txt",
    ),
    (
        ("assemble", "--host", "torus.pair", "--piece", "zeta.pair", "--i", "1"),
        "torus_zeta_1.assemble.txt",
    ),
    (("equivalent", "g5_stab4.pair", "g5_stab4_relabeled.pair"), "g5_stab4.equivalent.txt"),
]


def _data_argv(argv):
    return [str(DATA / a) if a.endswith(".pair") else a for a in argv]


@pytest.mark.parametrize("argv, pinned", TEXT_PINS)
def test_text_output_matches_pinned(capsys, argv, pinned):
    code, out, err = run(capsys, *_data_argv(argv))
    assert (code, err) == (0, "")
    assert out == (DATA / pinned).read_text()


@pytest.mark.parametrize("argv", [argv for argv, _ in TEXT_PINS])
def test_record_format_builds_no_text(capsys, monkeypatch, argv):
    # the text is built only for text output, so record output never
    # formats a cycle, a witness, a cut or a vertex list
    def refuse(*args):
        raise AssertionError("text was built for record output")

    code, want, _ = run(capsys, *_data_argv(argv), "--format", "record")
    assert code == 0
    monkeypatch.setattr(Permutation, "cycle_string", refuse)
    for name in ("_dec_text", "_cycles_text", "_vertices_text", "_roundtrip_text"):
        monkeypatch.setattr(fillperm.cli, name, refuse)
    code, out, err = run(capsys, *_data_argv(argv), "--format", "record")
    assert (code, out, err) == (0, want, "")
    # and the stubs are what text output calls
    code, out, err = run(capsys, *_data_argv(argv))
    assert (code, out) == (3, "")
    assert err == "internal error: text was built for record output\n"


def test_extract_cuts_once(capsys, monkeypatch):
    # the piece and the remainder are pulled back from the one extraction
    # that is printed, not from a second one
    calls = []
    original = fillperm.surgery.extract

    def counting(fp, dec):
        calls.append(dec.anchors)
        return original(fp, dec)

    monkeypatch.setattr(fillperm.cli, "extract", counting)
    monkeypatch.setattr(fillperm.surgery, "extract", counting)
    code, out, _ = run(
        capsys, "extract", str(DATA / "sigma_f6.pair"), "--format", "record",
        "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5",
    )
    assert code == 0
    assert out == (DATA / "sigma_f6.extract_k5.json").read_text()
    assert calls == [(23, 38, 1, 16)]


def test_roundtrip(files, capsys):
    code, out, _ = run(capsys, "roundtrip", files["sigma_f6"], "--k", "3")
    assert code == 0
    assert "p=0 q=0 (exact)" in out


@pytest.mark.parametrize("command", ["decompose", "roundtrip"])
def test_piece_genus_out_of_range_exits_2(files, capsys, command):
    # a torus has no piece genus in range, so every --k is an input error
    for pair, genus in (("sigma_f", 3), ("f1", 1)):
        code, out, err = run(capsys, command, files[pair], "--k", "9")
        assert code == 2 and out == ""
        assert err == f"error: piece genus 9 out of range for genus {genus}\n"


def test_info_on_a_non_filling_permutation_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.pair"
    p.write_text("n=2\n(1,2)(3,4)(5,6)(7,8)\n")
    code, out, err = run(capsys, "info", str(p))
    assert code == 2 and out == ""
    assert err == f"error: {p}: not a filling permutation: crossing equation fails at symbol 1\n"


@pytest.mark.parametrize("argv, message", [
    (["decompose"], "decomposition search requires a minimal filling permutation"),
    (["extract", "--x", "1", "--a", "4", "--y", "11", "--b", "14", "--k", "2"],
     "extraction requires a minimal filling permutation"),
    (["roundtrip"], "round trips require a minimal filling permutation"),
])
def test_surgery_commands_refuse_a_non_minimal_pair(capsys, argv, message):
    # zeta has four regions
    code, out, err = run(capsys, argv[0], str(DATA / "zeta.pair"), *argv[1:])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_roundtrip_none_exits_1(capsys):
    torus = str(DATA / "torus.pair")
    assert run(capsys, "roundtrip", torus) == (1, "NO-DECOMPOSITION\n", "")
    assert run(capsys, "roundtrip", torus, "--format", "record") == (1, '{"roundtrips":[]}\n', "")


def test_extract_piece_genus_out_of_range_exits_2(capsys):
    code, out, err = run(
        capsys, "extract", str(DATA / "sigma_f6.pair"),
        "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "0",
    )
    assert code == 2 and out == ""
    assert err == "error: piece genus 0 out of range for genus 6\n"


def test_equivalent_different_crossing_counts_exits_2(capsys):
    code, out, err = run(
        capsys, "equivalent", str(DATA / "sigma_f.pair"), str(DATA / "sigma_f6.pair")
    )
    assert code == 2 and out == ""
    assert err == "error: crossing counts differ: 5 vs 11\n"


def test_census_stdout(files, capsys):
    code, out, _ = run(capsys, "census", "--n", "1", "--single-cycle")
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["n"] == 1 and rec["orbit_size_raw"] == 2


def test_census_out_file(tmp_path, capsys):
    out_path = tmp_path / "n5.census"
    code, out, _ = run(capsys, "census", "--n", "5", "--single-cycle", "--out", str(out_path))
    assert code == 0
    assert "orbits=5" in out
    assert len(out_path.read_text().splitlines()) == 5


def test_census_out_gz_is_gzip(tmp_path, capsys):
    # read_census reads a .gz path through gzip, so the command writes one so
    out_path = tmp_path / "n5.jsonl.gz"
    code, _, _ = run(capsys, "census", "--n", "5", "--single-cycle", "--out", str(out_path))
    assert code == 0
    assert read_census(out_path) == census_records(5, True)[1]
    plain = tmp_path / "n5.jsonl"
    write_census(census_records(5, True)[1], plain)
    assert gzip.decompress(out_path.read_bytes()) == plain.read_bytes()


@pytest.mark.parametrize("flags, golden", [
    (["--single-cycle"], "census_single_n5.jsonl"),
    ([], "census_general_n5.jsonl"),
])
def test_census_stdout_matches_golden(capsys, flags, golden):
    # stdout, --out and --format record write each record as the same line
    lines = (Path(__file__).resolve().parents[1] / "perfbench" / "golden" / golden).read_text()
    code, out, _ = run(capsys, "census", "--n", "5", *flags)
    assert code == 0 and out == lines
    code, out, _ = run(capsys, "census", "--n", "5", *flags, "--format", "record")
    assert code == 0
    assert json.loads(out)["records"] == [json.loads(line) for line in lines.splitlines()]


def test_census_record_format_joins_no_lines(capsys, monkeypatch):
    # record format prints the payload, so stdout needs no JSONL line
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    lines = (golden / "census_single_n5.jsonl").read_text().splitlines()

    def to_line(record):
        raise AssertionError("a JSONL line was built for record output")

    monkeypatch.setattr(fillperm.census.CensusRecord, "to_line", to_line)
    code, out, err = run(capsys, "census", "--n", "5", "--single-cycle", "--format", "record")
    assert (code, err) == (0, "")
    assert json.loads(out)["records"] == [json.loads(line) for line in lines]


@pytest.mark.parametrize("n, bound", [(5, 672), (6, None), (4, None)])
def test_census_upper_bound_only_for_odd_n(capsys, n, bound):
    # the ceiling counts minimal pairs, and an even n has none
    code, out, _ = run(capsys, "census", "--n", str(n), "--single-cycle", "--format", "record")
    assert code == 0
    assert json.loads(out).get("upper_bound") == bound


def test_census_unwritable_out_exits_2(tmp_path, capsys):
    out_path = tmp_path / "missing" / "n3.census"
    code, out, err = run(capsys, "census", "--n", "3", "--out", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: {out_path}: No such file or directory\n"


def test_census_n_below_one_exits_2(capsys):
    code, out, err = run(capsys, "census", "--n", "0")
    assert code == 2 and out == ""
    assert err == "error: n must be >= 1\n"


def test_census_bound_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FILLPERM_MAX_N", "3")
    code, _, err = run(capsys, "census", "--n", "5", "--single-cycle")
    assert code == 2 and "exceeds" in err
    monkeypatch.setenv("FILLPERM_MAX_N", "abc")
    code, _, err = run(capsys, "census", "--n", "3")
    assert code == 2 and err.startswith("error:")
    monkeypatch.setenv("FILLPERM_MAX_N", "5")
    code, _, _ = run(capsys, "census", "--n", "5", "--single-cycle")
    assert code == 0


def test_file_round_trip(tmp_path, files):
    fp = validate(*read_filling_file(files["zeta"]))
    out = tmp_path / "copy.fp"
    write_filling_file(str(out), fp)
    sigma, n = read_filling_file(str(out))
    assert n == 6 and sigma == fp.sigma


def test_deterministic_output(files, capsys):
    first = run(capsys, "decompose", files["sigma_f6"])
    second = run(capsys, "decompose", files["sigma_f6"])
    assert first == second


def test_cached_parser_keeps_no_state_between_calls(files, capsys):
    # sigma_F has no genus-1 piece, so a `--k 1` left over from the first
    # call would turn the second call's five witnesses into NO-DECOMPOSITION
    calls = (("decompose", files["sigma_f"], "--k", "1"), ("decompose", files["sigma_f"]))
    cached = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert cached == fresh
    assert cached[0] != cached[1]


def run_child(*argv, **kwargs) -> subprocess.CompletedProcess:
    # the child imports the same fillperm as this process, installed or not
    src = str(Path(fillperm.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fillperm.cli", *argv],
        text=True, env={**os.environ, "PYTHONPATH": path}, **kwargs,
    )


def test_subprocess_entry_point(files):
    result = run_child("validate", files["zeta"], capture_output=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "valid, n=6, c=4, genus=2"


def test_unwritable_stdout_exits_2(files):
    # a reader that has gone away is not a negative answer: one error line,
    # and no traceback from the interpreter's last flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = run_child("validate", files["zeta"], stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.returncode == 2
    assert result.stderr == "error: stdout: Broken pipe\n"


# Internal errors exit 3 with one line on stderr: exit 1 would read as a
# valid negative answer and exit 2 as bad input.


def test_unexpected_exception_exits_3(files, capsys, monkeypatch):
    # a ValueError that no command turns into bad input is still a fault
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(fillperm.cli, "validate", boom)
    code, out, err = run(capsys, "validate", files["zeta"])
    assert code == 3 and out == ""
    assert err == "internal error: boom\n"


def test_census_closure_failure_exits_3(capsys, monkeypatch):
    # a search that hands back a key which is not a solution (sigma(1) and
    # sigma(2) swapped): each representative is validated, so it is a fault
    search = fillperm.census._search

    def broken(*args, **kwargs):
        (one, stabilizer), *rest = search(*args, **kwargs)
        return [(one[1::-1] + one[2:], stabilizer), *rest]

    monkeypatch.setattr(fillperm.census, "_search", broken)
    code, out, err = run(capsys, "census", "--n", "5", "--single-cycle")
    assert code == 3 and out == ""
    assert err == "internal error: cycle entries do not alternate parity at symbol 1\n"


def test_census_decomposition_failure_exits_3(capsys, monkeypatch):
    # a SurgeryError is a ValueError, but here it is not bad input
    def fail(fp):
        raise fillperm.SurgeryError("decomposition requires a minimal filling permutation")

    # the census flag is the first-witness search, not find_decompositions
    monkeypatch.setattr(fillperm.census, "_decomposes", fail)
    code, out, err = run(capsys, "census", "--n", "5", "--single-cycle")
    assert code == 3 and out == ""
    assert err == "internal error: decomposition requires a minimal filling permutation\n"


def test_census_validation_failure_exits_3(capsys, monkeypatch):
    # a FillingError is a ValueError, but an enumerated pair is not bad input
    def reject(*args):
        raise FillingError("not a bijection")

    monkeypatch.setattr(fillperm.census, "validate", reject)
    code, out, err = run(capsys, "census", "--n", "5", "--single-cycle")
    assert code == 3 and out == ""
    assert err == "internal error: not a bijection\n"


def test_case_gap_exits_3(files, capsys, monkeypatch):
    def reject(*args):
        raise ValueError("not a bijection")

    # the splice is checked with the validate surgery imported
    monkeypatch.setattr(fillperm.surgery, "validate", reject)
    code, out, err = run(
        capsys, "assemble", "--host", files["sigma_f"], "--piece", files["sigma_z"], "--i", "3"
    )
    assert code == 3 and out == ""
    assert err == (
        "internal error: spliced permutation is not a filling permutation: not a bijection\n"
    )


def test_disassembly_failure_after_extract_accepts_exits_3(files, capsys, monkeypatch):
    # the anchors pass decomposition_at; the recovered piece then fails its check
    monkeypatch.setattr(FillingPermutation, "is_z_piece", lambda self: False)
    code, out, err = run(
        capsys, "extract", files["sigma_f6"],
        "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5",
    )
    assert code == 3 and out == ""
    assert err == "internal error: recovered piece is not an attachable piece\n"


@pytest.mark.parametrize("argv, name", [
    (["roundtrip", "--k", "3"], "round_trip_check"),
    (["extract", "--x", "23", "--a", "38", "--y", "1", "--b", "16", "--k", "5"], "_pull_back"),
], ids=["roundtrip", "extract"])
def test_surgery_error_after_the_input_is_taken_exits_3(files, capsys, monkeypatch, argv, name):
    # only the call that takes the user's pair and anchors turns a
    # SurgeryError into bad input; one raised after it is a fault
    def fail(*args):
        raise fillperm.SurgeryError("decomposition requires a minimal filling permutation")

    monkeypatch.setattr(fillperm.cli, name, fail)
    command, *flags = argv
    code, out, err = run(capsys, command, files["sigma_f6"], *flags)
    assert code == 3 and out == ""
    assert err == "internal error: decomposition requires a minimal filling permutation\n"


def test_round_trip_failure_exits_3(files, capsys, monkeypatch):
    kappa = generators(11)[0]
    rebuild = fillperm.surgery.assemble
    monkeypatch.setattr(
        fillperm.surgery, "assemble",
        lambda *args: validate(rebuild(*args).sigma.conjugated_by(kappa)),
    )
    code, out, err = run(capsys, "roundtrip", files["sigma_f6"], "--k", "3")
    assert code == 3 and out == ""
    assert err == (
        "internal error: kappa^0 delta^0 does not carry the rebuild"
        " at site (3, 2) to the original\n"
    )
