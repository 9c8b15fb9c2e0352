import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from antoine import linking
from antoine.cli import build_parser, main
from antoine.errors import MinSeparationTooSmall
from antoine.necklace import _near_pairs, build_necklace


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestUsageErrors:
    def test_odd_multiplicity_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--m", "7"])
        assert err.value.code == 2

    def test_too_small_multiplicity_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["build", "--m", "8"])
        assert err.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--m", "40", "--grid-n", "4"],
            ["verify", "--m", "40", "--poly-n", "32"],
            ["verify", "--m", "40", "--quad-n", "8"],
            ["classify", "--m", "40", "--budget", "0"],
            ["classify", "--m", "40", "--grid", "1"],
            ["classify", "--m", "40", "--grid", "2000"],
            ["classify", "--m", "40", "--grid", "16", "--bbox", "0,0,0,0,1,1"],
            ["classify", "--m", "40", "--grid", "16", "--bbox", "0,0,0,nan,1,1"],
            ["periodic", "--m", "40", "--p-max", "0"],
            ["periodic", "--m", "40", "--cap", "0"],
            ["periodic", "--m", "40", "--sample-k", "0"],
            ["periodic", "--m", "40", "--p-max", "3", "--sample-k", "2"],
            ["dimension", "--m", "40", "--count", "10"],
            ["dimension", "--m", "40", "--depth", "4"],
            ["dimension", "--m", "40", "--scales", "0.1"],
            ["dimension", "--m", "40", "--count", "1000", "--scales", "1e-320,0.1"],
            ["dimension", "--m", "40", "--count", "1000", "--scales", "1e-19,0.1"],
            ["export", "--m", "40", "--what", "points", "--count", "-5", "--format", "xyz"],
            ["export", "--m", "40", "--what", "points", "--depth", "3", "--format", "xyz"],
            ["export", "--m", "40", "--what", "points"],
            ["export", "--m", "40", "--what", "points", "--format", "ply"],
            ["export", "--m", "40", "--what", "mesh", "--format", "xyz"],
            ["export", "--m", "16", "--what", "mesh", "--stage", "-1"],
            ["export", "--m", "16", "--what", "mesh", "--nu", "4"],
            ["export", "--m", "16", "--what", "mesh", "--nv", "4"],
            ["map", "--m", "40", "--point", "0,0,0", "--max-iter", "0"],
            ["classify", "--m", "40", "--grid", "2", "--budget", "3000000000"],
            ["map", "--m", "40", "--point", "1,0.01,0", "--max-iter", "3000000000"],
            ["map", "--m", "40", "--point", "0,0,0", "--degree-root", "1"],
            ["map", "--m", "40", "--point", "nan,0,0"],
            ["map", "--m", "40", "--point", "0,inf,0"],
            ["map", "--m", "40", "--point", "1e200,0,0"],
            ["map", "--m", "40", "--point", "1e154,1e154,0"],
            ["map", "--m", "40", "--point", "1e11,0,0", "--degree-root", "2000"],
            ["periodic", "--m", "40", "--seed", "-1"],
            ["dimension", "--m", "40", "--count", "1000", "--seed", "-1"],
            ["export", "--m", "40", "--what", "points", "--format", "xyz", "--count", "10", "--seed", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_value_exits_2_without_traceback(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert "error:" in stderr.strip().splitlines()[-1]

    @pytest.mark.parametrize(
        "flag,argv", [("budget", ["classify", "--m", "40"]), ("max_iter", ["map", "--m", "40", "--point", "1,0,0"])]
    )
    def test_budget_stays_below_the_volume_codes(self, capsys, flag, argv):
        # the parser on its own: a budget this large is refused before any work starts
        option = "--" + flag.replace("_", "-")
        assert getattr(build_parser().parse_args(argv + [option, "65533"]), flag) == 65533
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv + [option, "65534"])
        assert err.value.code == 2
        assert "<= 65533, got 65534" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["classify", "--m", "40", "--grid", "16", "--bbox", "-1,-1,-1,-1,1,1"], "degenerate"),
            # hi - lo overflows, or (hi - lo) * 1023.5 does at the largest grid: the voxel centres are not finite
            (["classify", "--m", "40", "--grid", "16", "--bbox", "-1e308,-1e308,-1e308,1e308,1e308,1e308"], "finite"),
            (["classify", "--m", "40", "--grid", "16", "--bbox", "-4e305,-1,-1,4e305,1,1"], "finite"),
            (["dimension", "--m", "40", "--scales", "-0.1,0.2"], "positive box sizes"),
        ],
    )
    def test_negative_value_reaches_its_check(self, capsys, argv, message):
        # a value that starts with '-' is the flag's value, not an option
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert message in capsys.readouterr().err


class TestBuild:
    def test_constants(self, capsys):
        code, out = run(capsys, "build", "--m", "16")
        assert code == 0
        doc = json.loads(out)
        assert doc["multiplicity"] == 16
        assert doc["is_even_square"] is True
        assert doc["parent_tube"] == pytest.approx(0.5)
        assert doc["stages"][1]["count"] == 16


class TestVerify:
    def test_m_star_passes_at_reduced_grids(self, capsys):
        # full-resolution verification is covered by the acceptance suite;
        # this exercises the CLI contract at cheaper settings
        code, out = run(capsys, "verify", "--m", "40", "--grid-n", "256", "--quad-n", "64")
        assert code == 0
        doc = json.loads(out)
        assert doc["validation"]["passed"] is True
        assert doc["link_matrix"]["m"] == 40
        entries = np.array(doc["link_matrix"]["entries"]).reshape(40, 40)
        assert np.array_equal(entries, entries.T)

    @pytest.mark.parametrize("m", [40, 16])
    def test_links_once_and_emits_that_matrix(self, capsys, monkeypatch, m):
        # counted at the matrix and at the pair level (the rows of each disk-crossing batch), so that a second
        # matrix computed through any imported name is seen too
        originals = {name: getattr(linking, name) for name in ("link_matrix", "_disk_crossings")}
        calls = dict.fromkeys(originals, 0)
        pairs = []

        def counting(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "_disk_crossings":
                    pairs.append(len(args[0]))
                return originals[name](*args, **kwargs)

            return wrapper

        for name in originals:
            monkeypatch.setattr(linking, name, counting(name))
        code, out = run(capsys, "verify", "--m", str(m), "--grid-n", "256", "--quad-n", "64")
        # one disk-crossing evaluation per near pair, in one batch: the m adjacent pairs
        (near, _), _ = _near_pairs(build_necklace(m))
        assert len(near) == m
        assert calls == {"link_matrix": 1, "_disk_crossings": 1} and pairs == [len(near)]
        assert code == (0 if m == 40 else 1)
        direct = originals["link_matrix"](build_necklace(m), quad_n=64)
        assert json.loads(out)["link_matrix"] == direct.to_json_dict()

    def test_linking_failure_exits_1_without_traceback(self, capsys, monkeypatch):
        def failing(*args):  # the batch's third pair, (2, 3), is the first offending one
            raise MinSeparationTooSmall("sampled distance 1.000e-10 from circle a < 1.104e-02, 1.5 half sample spacings", 2)

        monkeypatch.setattr(linking, "_loop_linking", failing)
        code = main(["verify", "--m", "40", "--grid-n", "128", "--quad-n", "32"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: linking failed on child pair (2, 3): sampled distance 1.000e-10 from circle a < 1.104e-02, "
            "1.5 half sample spacings\n"
        )

    def test_internal_error_exits_3_with_its_traceback(self, capsys, monkeypatch):
        def faulty(*args, **kwargs):
            raise TypeError("backend fault")

        monkeypatch.setattr(linking, "_disk_crossings", faulty)
        code = main(["verify", "--m", "40", "--grid-n", "128", "--quad-n", "32"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("Traceback (most recent call last):\n")
        assert captured.err.endswith("TypeError: backend fault\n")

    def test_benchmark_warm_up_runs(self, tmp_path, capsys):
        # the certify workload's warm-up: m = 10 fails its geometric checks, and every near pair clears the guard
        out = tmp_path / "warmup.json"
        code = main(["verify", "--m", "10", "--grid-n", "64", "--poly-n", "64", "--quad-n", "16", "--out", str(out)])
        assert code == 1 and capsys.readouterr().err == ""
        assert json.loads(out.read_text())["link_matrix"]["max_gauss_gap"] < 1e-3

    def test_poly_n_is_checked_hidden_and_ignored(self, capsys):
        # the linking numbers take no polygons: --poly-n is still range-checked (TestUsageErrors), but absent from
        # the help and without effect on the output
        with pytest.raises(SystemExit):
            main(["verify", "--help"])
        assert "--quad-n" in (text := capsys.readouterr().out) and "--poly-n" not in text
        flags = ([], ["--poly-n", "64"], ["--poly-n", "100000"])
        assert len({run(capsys, "verify", "--m", "16", "--grid-n", "64", *flag)[1] for flag in flags}) == 1

    def test_invalid_construction_exits_1(self, capsys):
        code, out = run(capsys, "verify", "--m", "16", "--grid-n", "128", "--quad-n", "32")
        assert code == 1
        assert json.loads(out)["validation"]["passed"] is False


class TestClassify:
    def test_deterministic_volumes(self, tmp_path, capsys):
        args = ["classify", "--m", "40", "--grid", "16", "--budget", "12"]
        a, b = tmp_path / "a.vol", tmp_path / "b.vol"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert "seed" not in json.loads((tmp_path / "a.vol.json").read_text())

    def test_negative_bbox(self, tmp_path):
        out = tmp_path / "e.vol"
        args = ["classify", "--m", "40", "--grid", "8", "--budget", "4", "--bbox", "-1.6,-1.6,-1.6,1.6,1.6,1.6"]
        assert main(args + ["--out", str(out)]) == 0
        assert json.loads((tmp_path / "e.vol.json").read_text())["bbox"] == [[-1.6] * 3, [1.6] * 3]


class TestPeriodic:
    def test_counts_and_density(self, capsys):
        code, out = run(
            capsys, "periodic", "--m", "40", "--p-max", "2", "--cap", "50", "--sample-k", "6"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["orbit_count"] == 40 + len([p for p in doc["points"] if p["period"] == 2])
        assert doc["density"]["1"] >= doc["density"]["2"] > 0
        first = doc["points"][0]
        assert first["period"] == len(first["word"])


class TestDimension:
    def test_reports_both_dimensions(self, capsys):
        code, out = run(
            capsys, "dimension", "--m", "40", "--count", "20000", "--depth", "8", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["similarity_dimension"] == pytest.approx(np.log(40) / np.log(10))
        assert 1.0 < doc["box_dimension"] < 2.2


class TestExport:
    def test_mesh_obj(self, tmp_path):
        out = tmp_path / "stage1.obj"
        assert main(["export", "--m", "16", "--what", "mesh", "--stage", "1", "--nu", "12",
                     "--nv", "8", "--format", "obj", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("o torus_") == 16

    def test_points_xyz(self, tmp_path):
        out = tmp_path / "pts.xyz"
        assert main(["export", "--m", "40", "--what", "points", "--count", "50", "--depth", "10",
                     "--format", "xyz", "--seed", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 50


class TestMap:
    def test_exterior_orbit(self, capsys):
        code, out = run(capsys, "map", "--m", "16", "--point", "3,0,0",
                        "--max-iter", "4", "--degree-root", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["exit"] == "exterior"
        assert doc["exterior_norms"][:3] == [3.0, 9.0, 81.0]
        assert doc["escape_certified"] is True

    @pytest.mark.parametrize("point, degree_root", [("1e11,0,0", "100"), ("1,0,0", "1023")])
    def test_escape_certified_without_recording_2_to_the_d(self, capsys, point, degree_root):
        # 1e11^100 overflows and 2^1023 is past what np.linalg.norm can square, so the only
        # recorded norm is the handoff's, and a handoff norm >= 2 reaches 2^d in one model step
        code, out = run(capsys, "map", "--m", "40", "--point", point, "--degree-root", degree_root)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["exterior_norms"]) == 1
        assert doc["escape_certified"] is True

    def test_negative_point(self, capsys):
        code, out = run(capsys, "map", "--m", "40", "--point", "-0.5,0,0", "--max-iter", "3")
        assert code == 0
        assert json.loads(out)["start"] == [-0.5, 0.0, 0.0]

    def test_degree_root_defaults_to_square_root(self, capsys):
        code, out = run(capsys, "map", "--m", "16", "--point", "0,0,0", "--max-iter", "3")
        assert code == 0
        assert json.loads(out)["model_degree_root"] == 4


class TestOutPath:
    """--out is checked when the arguments are parsed, before the necklace is built."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["build", "--m", "40"],
            ["verify", "--m", "40"],
            ["classify", "--m", "40", "--grid", "512"],
            ["periodic", "--m", "40"],
            ["dimension", "--m", "40"],
            ["export", "--m", "40"],
            ["export", "--m", "40", "--what", "points", "--format", "xyz"],
            ["map", "--m", "40", "--point", "1,0,0"],
        ],
        ids=" ".join,
    )
    @pytest.mark.parametrize("where", ["missing directory", "directory", "trailing slash"])
    def test_unwritable_out_exits_2_before_any_work(self, capsys, monkeypatch, tmp_path, argv, where):
        def refuse(m):
            raise AssertionError("the necklace was built")

        monkeypatch.setattr("antoine.cli.build_necklace", refuse)
        out = {"missing directory": tmp_path / "missing" / "x", "directory": tmp_path}.get(where, f"{tmp_path}/x/")
        with pytest.raises(SystemExit) as err:
            main(argv + ["--out", str(out)])
        assert err.value.code == 2
        stderr = capsys.readouterr().err
        assert "Traceback" not in stderr
        assert "argument --out:" in stderr.strip().splitlines()[-1]
        assert list(tmp_path.iterdir()) == []


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which are not JSON."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run_quietly(argv):
    """main(argv) with its output captured: (exit code, stdout and stderr). Any exception but
    SystemExit propagates, as it would end the command with a traceback."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text), contextlib.redirect_stderr(text), warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be printed: it ends the run with a traceback instead
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, text.getvalue()


# Hostile tokens. "2000" is left out where it is a valid but costly size (a pair scan cubic in m,
# a 2000 x 2000 quadrature grid per pair, 2000-vertex tube rings, 2000-digit reference words), so
# that every example stays cheap.
HOSTILE = ("-1", "0", "nan", "inf", "1e200", "1e400", "", "x", "2000", "-0.5,0,0")
CHEAP_HOSTILE = tuple(t for t in HOSTILE if t != "2000")
# a finite box whose extent overflows a double
BBOX_HOSTILE = HOSTILE + ("-1e308,-1e308,-1e308,1e308,1e308,1e308",)
FINITE = ("0", "1", "-0.5", "0.9", "3", "1e11", "1e200")


def numbers(valid, count):
    """One of the valid lists, or count finite numbers, which the parser accepts however large."""
    return st.sampled_from(valid) | st.lists(st.sampled_from(FINITE), min_size=count, max_size=count).map(",".join)


SEED = ("--seed", st.sampled_from(("0", "7")), HOSTILE, False)
# per subcommand (with a fixed leading flag for export): (flag, valid values, hostile tokens, always
# passed); the test adds --out
FLAGS = {
    "build": [],
    "verify": [
        ("--grid-n", st.sampled_from(("8", "64")), HOSTILE, False),
        ("--poly-n", st.just("64"), HOSTILE, False),  # ignored, so "2000" costs nothing
        ("--quad-n", st.just("16"), CHEAP_HOSTILE, True),
    ],
    "classify": [
        ("--grid", st.sampled_from(("2", "8", "4,2,8")), HOSTILE, True),
        ("--bbox", numbers(("-1.6,-1.6,-1.6,1.6,1.6,1.6", "0.8,-0.2,-0.1,1.1,0.2,0.1"), 6), BBOX_HOSTILE, False),
        ("--budget", st.sampled_from(("1", "12", "2000")), HOSTILE, False),
    ],
    "periodic": [
        SEED,
        ("--p-max", st.sampled_from(("1", "2")), HOSTILE, False),  # 2000 fails the --sample-k check
        ("--cap", st.sampled_from(("1", "50", "2000")), HOSTILE, False),
        ("--sample-k", st.sampled_from(("2", "4")), CHEAP_HOSTILE, False),
    ],
    "dimension": [
        SEED,
        ("--count", st.sampled_from(("1000", "2000")), HOSTILE, True),
        ("--depth", st.sampled_from(("8", "12")), HOSTILE, False),
        ("--scales", numbers(("0.5,0.1", "0.2,0.05,0.01"), 2), HOSTILE, False),
    ],
    "export --what mesh": [
        SEED,
        ("--format", st.sampled_from(("obj", "ply")), HOSTILE, False),
        ("--stage", st.sampled_from(("0", "1")), HOSTILE, False),
        ("--nu", st.sampled_from(("8", "12")), CHEAP_HOSTILE, True),
        ("--nv", st.just("8"), CHEAP_HOSTILE, True),
    ],
    "export --what points": [
        SEED,
        ("--format", st.sampled_from(("xyz", "csv")), HOSTILE, True),
        ("--count", st.sampled_from(("1", "500", "2000")), HOSTILE, True),
        ("--depth", st.sampled_from(("8", "12")), HOSTILE, False),
    ],
    "map": [
        ("--point", numbers(("0.9,0.1,0", "3,0,0", "-0.5,0,0", "0,0,0"), 3), HOSTILE, True),
        ("--max-iter", st.sampled_from(("1", "40", "2000")), HOSTILE, False),
        ("--degree-root", st.sampled_from(("2", "3", "100", "1000")), HOSTILE, False),
    ],
}


@st.composite
def argvs(draw, command):
    """argv for one subcommand: valid values throughout, or a hostile token for one flag (--m included)."""
    flags = [("--m", st.sampled_from(("10", "16", "40")), CHEAP_HOSTILE, True)] + FLAGS[command]
    hostile = draw(st.sampled_from([None] + [flag for flag, *_ in flags]))
    argv = command.split()
    for flag, valid, bad, always in flags:
        if flag == hostile:
            argv += [flag, draw(st.sampled_from(bad))]
        elif always or draw(st.booleans()):
            argv += [flag, draw(valid)]
    return argv


class TestFuzz:
    """argv drawn from each subcommand's flags, valid and hostile values mixed: every run ends with
    exit 0, 1 or 2 with no traceback and no warning, and any JSON it writes is strict JSON."""

    @pytest.mark.parametrize("command", sorted(FLAGS))
    @settings(
        max_examples=100, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_exit_code_and_strict_json(self, tmp_path, command, data):
        argv = data.draw(argvs(command))
        out = tmp_path / ("e.vol" if command == "classify" else "out.bin" if argv[0] == "export" else "out.json")
        written = [out, tmp_path / "e.vol.json"] if command == "classify" else [out]
        for path in written:
            path.unlink(missing_ok=True)
        code, text = run_quietly(argv + ["--out", str(out)])
        assert code in (0, 1, 2), text
        assert "Traceback" not in text
        for path in written:
            if path.suffix == ".json" and path.exists():
                strict_json(path.read_text())
